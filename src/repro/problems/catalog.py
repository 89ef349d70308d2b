"""The built-in problem catalog: every paper problem, registered once.

Each block below is the *whole* integration surface for a problem: a
typed spec (:mod:`repro.problems.specs`), a capability declaration, and
how the problem is solved — its LP model, a
:class:`~repro.problems.registry.WarmModel` (build / patch / package),
where the LP admits the structure-vs-coefficient split, and a solve
function otherwise.  A problem with a model has no other solver: the
registry and the incremental solver both run its model.  The CLI, JSON
API, broker and incremental solver all pick these up through the
registry; nothing else needs editing to make a new problem servable.

The ``example`` factories build a minimal spec on a caller-supplied star
platform (root + workers with edges both ways); the registry consistency
check (``python -m repro problems --check`` and the mirror test in
``tests/test_problems.py``) runs every one of them end-to-end through
:func:`repro.service.broker.execute_request` to catch registration drift.
"""

from __future__ import annotations

from ..core.broadcast import solve_broadcast, solve_reduce
from ..core.dag import TaskGraph, solve_dag_collection
from ..core.master_slave import (
    build_ssms_lp,
    package_ssms_solution,
    patch_ssms_coefficients,
)
from ..core.multicast import solve_multicast
from ..core.activities import commodity_endpoints
from ..core.scatter import (
    build_commodity_lp,
    gather_from_scatter,
    package_commodity_solution,
    patch_commodity_coefficients,
    reversed_platform,
)
from .registry import Capabilities, WarmModel, register
from .specs import (
    AllToAllSpec,
    BroadcastSpec,
    DagSpec,
    GatherSpec,
    MasterSlaveSpec,
    MulticastSpec,
    MultiportSpec,
    ReduceSpec,
    ScatterSpec,
    SendOrReceiveSpec,
)

# ----------------------------------------------------------------------
# master-slave (SSMS, section 3.1).  One warm model serves it and its two
# section 5.1 port models below: the spec's port setting picks the port
# rows, and the conservation/objective block is the only weight-carrying
# part of all three.
# ----------------------------------------------------------------------
def _ssms_key(spec):
    # the problem name keeps the three models' hot LPs apart, and
    # multiport's card count is structure too
    port_model, ports = spec.port_setting()
    key = (spec.problem, spec.master)
    return key + (ports,) if port_model == "multiport" else key


_SSMS_WARM = WarmModel(
    spec_key=_ssms_key,
    build=lambda spec: build_ssms_lp(spec.platform, spec.master,
                                     *spec.port_setting()),
    patch=lambda lp, handles, spec: patch_ssms_coefficients(
        lp, handles, spec.platform, spec.master
    ),
    package=lambda spec, sol, handles: package_ssms_solution(
        spec.platform, spec.master, sol, handles, *spec.port_setting()
    ),
)


register(
    MasterSlaveSpec,
    _SSMS_WARM,
    capabilities=Capabilities(reconstructs_schedule=True,
                              lp_structure="ssms"),
    example=lambda platform, root, others: MasterSlaveSpec(
        platform=platform, master=root
    ),
)


# ----------------------------------------------------------------------
# scatter (SSPS, section 3.2 — port models of section 5.1), gather and
# personalised all-to-all (section 4.2): one sum-rule commodity LP, whose
# occupation rows are its only weight-carrying part.  Gather works on the
# reversed platform throughout: the reversed topology is a pure function
# of the original topology, so the original's topology signature still
# keys the hot-model cache correctly.  A hot model may have been built
# for the same commodities in another order; the packager reads them in
# the requester's order.
# ----------------------------------------------------------------------
def _commodity_warm(spec_key, lp_problem, finish=lambda spec, sol: sol):
    """The warm model of a sum-rule commodity problem: ``lp_problem(spec)``
    is ``(platform, problem, source, targets)`` of the LP as solved, and
    ``finish(spec, solution)`` turns its packaged answer into the
    problem's (gather's LP is a scatter on the reversed platform).  The
    patcher reads the commodities from the model's own handles; the
    builder and the packager get the request's map from ``lp_of``."""
    def lp_of(spec):
        platform, problem, source, targets = lp_problem(spec)
        return (platform, commodity_endpoints(problem, source, targets),
                (problem, source, targets))

    def build(spec):
        platform, commodities, _ = lp_of(spec)
        return build_commodity_lp(platform, commodities, "sum",
                                  *spec.port_setting())

    def patch(lp, handles, spec):
        patch_commodity_coefficients(lp, handles, lp_problem(spec)[0])

    def package(spec, sol, handles):
        platform, commodities, answer = lp_of(spec)
        return finish(spec, package_commodity_solution(
            platform, commodities, sol, handles, *answer,
            *spec.port_setting()))

    return WarmModel(spec_key=spec_key, build=build, patch=patch,
                     package=package)


_SSPS_WARM = _commodity_warm(
    lambda spec: ("scatter", spec.source, tuple(sorted(spec.targets)),
                  spec.port_model, spec.ports),
    lambda spec: (spec.platform, "scatter", spec.source, spec.targets),
)


register(
    ScatterSpec,
    _SSPS_WARM,
    capabilities=Capabilities(reconstructs_schedule=True,
                              lp_structure="ssps"),
    example=lambda platform, root, others: ScatterSpec(
        platform=platform, source=root, targets=tuple(others)
    ),
)


_GATHER_WARM = _commodity_warm(
    lambda spec: ("gather", spec.sink, tuple(sorted(spec.sources))),
    lambda spec: (reversed_platform(spec.platform), "scatter", spec.sink,
                  spec.sources),
    finish=lambda spec, rsol: gather_from_scatter(
        spec.platform, spec.sink, spec.sources, rsol),
)


register(
    GatherSpec,
    _GATHER_WARM,
    capabilities=Capabilities(reconstructs_schedule=True,
                              lp_structure="ssps"),
    example=lambda platform, root, others: GatherSpec(
        platform=platform, sink=root, sources=tuple(others)
    ),
)


_A2A_WARM = _commodity_warm(
    lambda spec: ("all-to-all", tuple(sorted(spec.participants))),
    lambda spec: (spec.platform, "all-to-all", None,
                  spec.participants or spec.platform.nodes()),
)


register(
    AllToAllSpec,
    _A2A_WARM,
    capabilities=Capabilities(reconstructs_schedule=True,
                              lp_structure="multicommodity"),
    example=lambda platform, root, others: AllToAllSpec(platform=platform),
)


# ----------------------------------------------------------------------
# broadcast / reduce (sections 3.3 and 4.2): column generation, no model
# ----------------------------------------------------------------------
def _solve_broadcast(spec: BroadcastSpec, backend: str = "exact"):
    return solve_broadcast(spec.platform, spec.source, backend=backend)


register(
    BroadcastSpec,
    _solve_broadcast,
    capabilities=Capabilities(lp_structure="tree-packing"),
    example=lambda platform, root, others: BroadcastSpec(
        platform=platform, source=root
    ),
)


def _solve_reduce(spec: ReduceSpec, backend: str = "exact"):
    return solve_reduce(spec.platform, spec.root, backend=backend)


register(
    ReduceSpec,
    _solve_reduce,
    capabilities=Capabilities(lp_structure="tree-packing"),
    example=lambda platform, root, others: ReduceSpec(
        platform=platform, root=root
    ),
)


# ----------------------------------------------------------------------
# multicast bracket (section 4.3)
# ----------------------------------------------------------------------
def _solve_multicast(spec: MulticastSpec, backend: str = "exact"):
    return solve_multicast(spec.platform, spec.source, list(spec.targets),
                           backend=backend, tree_limit=spec.tree_limit)


register(
    MulticastSpec,
    _solve_multicast,
    capabilities=Capabilities(lp_structure="tree-packing"),
    example=lambda platform, root, others: MulticastSpec(
        platform=platform, source=root, targets=tuple(others)
    ),
)


# ----------------------------------------------------------------------
# DAG collections (section 4.4)
# ----------------------------------------------------------------------
def _solve_dag(spec: DagSpec, backend: str = "exact"):
    return solve_dag_collection(spec.platform, spec.dag, spec.master,
                                backend=backend)


register(
    DagSpec,
    _solve_dag,
    capabilities=Capabilities(lp_structure="dag-collection"),
    example=lambda platform, root, others: DagSpec(
        platform=platform, master=root, dag=TaskGraph.chain([1, 2], [1])
    ),
)


# ----------------------------------------------------------------------
# alternative port models for master-slave (section 5.1): the SSMS LP
# with the port rows of the spec's model (``port_setting``), on the
# master-slave warm model above
# ----------------------------------------------------------------------
register(
    MultiportSpec,
    _SSMS_WARM,
    capabilities=Capabilities(lp_structure="ssms-multiport"),
    example=lambda platform, root, others: MultiportSpec(
        platform=platform, master=root, ports=2
    ),
)

register(
    SendOrReceiveSpec,
    _SSMS_WARM,
    capabilities=Capabilities(lp_structure="ssms-send-or-receive"),
    example=lambda platform, root, others: SendOrReceiveSpec(
        platform=platform, master=root
    ),
)
