"""The paper's primary contribution: steady-state LPs for every problem in
sections 3-5 plus the activity/invariant machinery they share."""

from .activities import (
    SteadyStateError,
    SteadyStateSolution,
    commodity_endpoints,
)
from .master_slave import (
    bandwidth_centric,
    build_ssms_lp,
    ntask,
    package_ssms_solution,
    solve_master_slave,
    star_throughput,
)
from .scatter import (
    build_commodity_lp,
    solve_all_to_all,
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from .broadcast import (
    BroadcastSolution,
    broadcast_lp_bound,
    edmonds_cut_bound,
    solve_broadcast,
    solve_reduce,
)
from .multicast import (
    Figure3Report,
    MulticastAnalysis,
    analyze_figure2,
    best_single_tree,
    multicast_bounds,
    solve_multicast,
)
from .trees import (
    Arborescence,
    enumerate_arborescences,
    pack_trees,
    tree_throughput,
)
from .dag import BEGIN, TaskGraph, TaskGraphError, solve_dag_collection
from .divisible import (
    StarWorker,
    makespan_lower_bound,
    multi_round_makespan,
    one_round_schedule,
    steady_state_rate,
)
from .steiner import (
    candidate_trees,
    cheapest_insertion_tree,
    heuristic_multicast_packing,
    shortest_path_tree,
)

__all__ = [
    "SteadyStateError",
    "SteadyStateSolution",
    "commodity_endpoints",
    "bandwidth_centric",
    "build_ssms_lp",
    "ntask",
    "solve_master_slave",
    "star_throughput",
    "build_commodity_lp",
    "package_ssms_solution",
    "solve_all_to_all",
    "solve_all_to_all_solution",
    "solve_gather",
    "solve_scatter",
    "BroadcastSolution",
    "broadcast_lp_bound",
    "edmonds_cut_bound",
    "solve_broadcast",
    "solve_reduce",
    "Figure3Report",
    "MulticastAnalysis",
    "analyze_figure2",
    "best_single_tree",
    "multicast_bounds",
    "solve_multicast",
    "Arborescence",
    "enumerate_arborescences",
    "pack_trees",
    "tree_throughput",
    "BEGIN",
    "TaskGraph",
    "TaskGraphError",
    "solve_dag_collection",
    "StarWorker",
    "makespan_lower_bound",
    "multi_round_makespan",
    "one_round_schedule",
    "steady_state_rate",
    "candidate_trees",
    "cheapest_insertion_tree",
    "heuristic_multicast_packing",
    "shortest_path_tree",
]
