"""Schedule reconstruction substrate (section 4.1 and the section 5
extensions): matchings, edge colourings, flow decomposition, periodic
schedules, the one orchestration of every port model, one finite-batch
construction (section 4.2's init/steady/clean-up, with section 5.2's
start-up grouping) and fixed-period rounding."""

from .matching import hopcroft_karp, perfect_matching
from .edge_coloring import (
    EdgeColoringError,
    MatchingSlice,
    greedy_interval_coloring,
    verify_coloring,
    vertex_loads,
    weighted_edge_coloring,
)
from .flows import FlowError, cancel_cycles, check_flow_conservation, decompose_flow
from .periodic import CommSlice, PeriodicSchedule, ScheduleError, schedule_to_trace
from .reconstruction import orchestrate, reconstruct_schedule
from .batch import (
    BatchSchedule,
    batch_ratio_series,
    build_batch_schedule,
    default_group_count,
)
from .collective import packing_to_schedule, tree_routes
from .fixed_period import (
    fixed_period_schedule,
    rounding_loss_bound,
    throughput_vs_period,
)

__all__ = [
    "hopcroft_karp",
    "perfect_matching",
    "EdgeColoringError",
    "MatchingSlice",
    "greedy_interval_coloring",
    "verify_coloring",
    "vertex_loads",
    "weighted_edge_coloring",
    "FlowError",
    "cancel_cycles",
    "check_flow_conservation",
    "decompose_flow",
    "CommSlice",
    "PeriodicSchedule",
    "ScheduleError",
    "schedule_to_trace",
    "orchestrate",
    "reconstruct_schedule",
    "packing_to_schedule",
    "tree_routes",
    "fixed_period_schedule",
    "rounding_loss_bound",
    "throughput_vs_period",
    "BatchSchedule",
    "batch_ratio_series",
    "build_batch_schedule",
    "default_group_count",
]
