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

Public API
----------
``__all__`` below is the library's API, grouped as README's "Public API"
section groups it by paper section; ``Broker`` and ``SolveRequest`` load
the service layer on first use.  A subpackage re-exports only what a
caller outside the tests imports through it: the plugin APIs of
:mod:`repro.problems` and :mod:`repro.lint`, the LP modelling layer of
:mod:`repro.lp`, and :mod:`repro.platform`'s ``generators`` and
``serialization``.  Every other name is imported from the module that
defines it, e.g. ``from repro.platform.graph import Platform`` or
``from repro.service.sharding import ShardedBroker``.

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

from ._rational import INF
from .platform import generators
from .core.master_slave import ntask, solve_master_slave
from .core.scatter import solve_gather, solve_scatter
from .core.broadcast import broadcast_lp_bound, solve_broadcast, solve_reduce
from .core.multicast import analyze_figure2, best_single_tree, solve_multicast
from .core.dag import TaskGraph, solve_dag_collection
from .core.divisible import (
    StarWorker,
    makespan_lower_bound,
    multi_round_makespan,
    one_round_schedule,
)
from .schedule.reconstruction import reconstruct_schedule
from .schedule.collective import packing_to_schedule
from .schedule.fixed_period import throughput_vs_period
from .schedule.batch import build_batch_schedule
from .simulator.periodic_runner import PeriodicRunner
from .baselines.greedy import run_demand_driven
from .baselines.list_scheduling import makespan_comparison
from .dynamic.adaptive import run_adaptive
from .dynamic.autonomous import autonomous_throughput
from .platform.monitoring import SlidingWindowPredictor, TimeVaryingPlatform
from .analysis.certificates import ssms_certificate
from .platform.topology import view_quality

# Service-layer exports are lazy (PEP 562): `import repro` must not pay
# for asyncio / concurrent.futures unless the service is actually used.
# Each maps to the module that defines it.
_LAZY_EXPORTS = {
    "Broker": "repro.service.broker",
    "SolveRequest": "repro.service.broker",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "INF",
    "generators",
    "ntask",
    "solve_master_slave",
    "solve_scatter",
    "solve_gather",
    "broadcast_lp_bound",
    "solve_broadcast",
    "solve_reduce",
    "analyze_figure2",
    "best_single_tree",
    "solve_multicast",
    "TaskGraph",
    "solve_dag_collection",
    "StarWorker",
    "makespan_lower_bound",
    "multi_round_makespan",
    "one_round_schedule",
    "reconstruct_schedule",
    "packing_to_schedule",
    "throughput_vs_period",
    "build_batch_schedule",
    "PeriodicRunner",
    "run_demand_driven",
    "makespan_comparison",
    "run_adaptive",
    "autonomous_throughput",
    "SlidingWindowPredictor",
    "TimeVaryingPlatform",
    "view_quality",
    "ssms_certificate",
    *_LAZY_EXPORTS,
]
