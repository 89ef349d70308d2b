"""Schedule reconstruction substrate (section 4.1 and the section 5
extensions): matchings, edge colourings, flow decomposition, periodic
schedules, the one orchestration of every port model, one finite-batch
construction (section 4.2's init/steady/clean-up, with section 5.2's
start-up grouping) and fixed-period rounding."""
