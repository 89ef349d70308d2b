"""The paper's primary contribution: steady-state LPs for every problem in
sections 3-5 plus the activity/invariant machinery they share."""
