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
``_LAZY_EXPORTS`` below is the library's API, one row per name, grouped
as README's "Public API" section groups it by paper section; ``__all__``
is its keys.  Every name maps to the module that defines it and is
imported on first read (PEP 562), so ``import repro`` loads no
submodule and a serving process loads only the modules it serves.  A
subpackage re-exports only what a caller outside the tests imports
through it: the plugin APIs of :mod:`repro.problems` and
:mod:`repro.lint`, the LP modelling layer of :mod:`repro.lp`, and
:mod:`repro.platform`'s ``generators`` and ``serialization``.  Every
other name is imported from the module that defines it, e.g.
``from repro.platform.graph import Platform`` or
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

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    # §2 platform model
    "generators": "repro.platform",
    "INF": "repro._rational",
    # §3.1 master–slave tasking
    "solve_master_slave": "repro.core.master_slave",
    "ntask": "repro.core.master_slave",
    "ssms_certificate": "repro.analysis.certificates",
    # §3.2 scatter and gather
    "solve_scatter": "repro.core.scatter",
    "solve_gather": "repro.core.scatter",
    # §4.1 schedule reconstruction
    "reconstruct_schedule": "repro.schedule.reconstruction",
    "packing_to_schedule": "repro.schedule.collective",
    "PeriodicRunner": "repro.simulator.periodic_runner",
    # §4.2 finite batches and their baselines
    "build_batch_schedule": "repro.schedule.batch",
    "makespan_comparison": "repro.baselines.list_scheduling",
    "run_demand_driven": "repro.baselines.greedy",
    # §4.2 collections of DAGs
    "TaskGraph": "repro.core.dag",
    "solve_dag_collection": "repro.core.dag",
    # §4.3 broadcast, reduce, multicast
    "solve_broadcast": "repro.core.broadcast",
    "solve_reduce": "repro.core.broadcast",
    "broadcast_lp_bound": "repro.core.broadcast",
    "solve_multicast": "repro.core.multicast",
    "analyze_figure2": "repro.core.multicast",
    "best_single_tree": "repro.core.multicast",
    # §5.2 divisible load
    "StarWorker": "repro.core.divisible",
    "one_round_schedule": "repro.core.divisible",
    "multi_round_makespan": "repro.core.divisible",
    "makespan_lower_bound": "repro.core.divisible",
    # §5.3 topology discovery
    "view_quality": "repro.platform.topology",
    # §5.4 fixed periods
    "throughput_vs_period": "repro.schedule.fixed_period",
    # §5.5 dynamic platforms
    "run_adaptive": "repro.dynamic.adaptive",
    "autonomous_throughput": "repro.dynamic.autonomous",
    "SlidingWindowPredictor": "repro.platform.monitoring",
    "TimeVaryingPlatform": "repro.platform.monitoring",
    # the service
    "Broker": "repro.service.broker",
    "SolveRequest": "repro.service.broker",
}

__all__ = [*_LAZY_EXPORTS]


def __getattr__(name):
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    globals()[name] = value  # the next read is a plain attribute
    return value
