"""repro — steady-state scheduling on heterogeneous clusters.

A complete reproduction of Beaumont, Legrand, Marchal & Robert,
*Steady-State Scheduling on Heterogeneous Clusters: Why and How?*
(LIP RR-2004-11 / IPDPS 2004): the LP characterisations of steady-state
operation (master–slave tasking, pipelined scatter / broadcast / multicast,
DAG collections, divisible load), the schedule-reconstruction pipeline
(rational periods, weighted bipartite edge colouring, flow decomposition),
an event-driven simulator of the one-port full-overlap platform model, the
section-5 extensions (start-up costs, alternative port models, fixed
periods, dynamic adaptation, topology discovery) and the baselines the
approach is measured against.

Quickstart
----------
>>> import repro
>>> g = repro.generators.star(3, worker_w=[1, 2, 4], link_c=[1, 1, 2])
>>> sol = repro.solve_master_slave(g, "M")
>>> sched = repro.reconstruct_schedule(sol)
>>> result = repro.PeriodicRunner(sched).run(20)
>>> float(result.achieved_rate) <= float(sol.throughput)
True
"""

from ._rational import INF, as_fraction, lcm_denominators
from .platform.graph import Platform, PlatformError
from .platform import generators
from .core.activities import SteadyStateSolution, SteadyStateError
from .core.master_slave import ntask, solve_master_slave, star_throughput
from .core.scatter import solve_all_to_all, solve_gather, solve_scatter
from .core.broadcast import (
    BroadcastSolution,
    broadcast_lp_bound,
    edmonds_cut_bound,
    solve_broadcast,
    solve_reduce,
)
from .core.multicast import (
    MulticastAnalysis,
    analyze_figure2,
    best_single_tree,
    multicast_bounds,
    solve_multicast,
)
from .core.dag import TaskGraph, solve_dag_collection
from .core.divisible import (
    StarWorker,
    makespan_lower_bound,
    multi_round_makespan,
    one_round_schedule,
)
from .schedule.periodic import CommSlice, PeriodicSchedule, ScheduleError
from .schedule.reconstruction import reconstruct_schedule
from .schedule.collective import packing_to_schedule
from .schedule.fixed_period import fixed_period_schedule, throughput_vs_period
from .schedule.batch import (
    BatchSchedule,
    build_batch_schedule,
    default_group_count,
)
from .simulator.periodic_runner import PeriodicRunner, PeriodicRunResult
from .simulator.trace import ModelViolation, Trace
from .baselines.greedy import run_demand_driven
from .baselines.list_scheduling import makespan_comparison
from .dynamic.adaptive import run_adaptive
from .dynamic.autonomous import autonomous_throughput
from .platform.monitoring import SlidingWindowPredictor, TimeVaryingPlatform
from .analysis.certificates import ssms_certificate
from .platform.topology import (
    alnem_graph_view,
    complete_graph_view,
    env_tree_view,
    view_quality,
)
# Service-layer exports are lazy (PEP 562): `import repro` must not pay
# for asyncio / concurrent.futures unless the service is actually used.
_SERVICE_EXPORTS = frozenset({
    "Broker",
    "BrokerResult",
    "IncrementalSolver",
    "MetricsRegistry",
    "SolutionCache",
    "SolveRequest",
    "request_fingerprint",
})


def __getattr__(name):
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "INF",
    "as_fraction",
    "lcm_denominators",
    "Platform",
    "PlatformError",
    "generators",
    "SteadyStateSolution",
    "SteadyStateError",
    "ntask",
    "solve_master_slave",
    "star_throughput",
    "solve_scatter",
    "solve_gather",
    "solve_all_to_all",
    "BroadcastSolution",
    "broadcast_lp_bound",
    "edmonds_cut_bound",
    "solve_broadcast",
    "solve_reduce",
    "MulticastAnalysis",
    "analyze_figure2",
    "best_single_tree",
    "multicast_bounds",
    "solve_multicast",
    "TaskGraph",
    "solve_dag_collection",
    "StarWorker",
    "makespan_lower_bound",
    "multi_round_makespan",
    "one_round_schedule",
    "CommSlice",
    "PeriodicSchedule",
    "ScheduleError",
    "reconstruct_schedule",
    "packing_to_schedule",
    "fixed_period_schedule",
    "throughput_vs_period",
    "BatchSchedule",
    "build_batch_schedule",
    "default_group_count",
    "PeriodicRunner",
    "PeriodicRunResult",
    "ModelViolation",
    "Trace",
    "run_demand_driven",
    "makespan_comparison",
    "run_adaptive",
    "autonomous_throughput",
    "SlidingWindowPredictor",
    "TimeVaryingPlatform",
    "alnem_graph_view",
    "complete_graph_view",
    "env_tree_view",
    "view_quality",
    "ssms_certificate",
    *sorted(_SERVICE_EXPORTS),
]
