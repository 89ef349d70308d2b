"""Rule ``ownership`` — each section of the construction has one owner.

:data:`TABLE` says which module owns what, one ``Row`` per guard.  A
row's ``pattern`` is matched against every line of the files in its
``scope`` (path prefixes; ``!`` excludes one) as ``grep`` reads them,
comments and docstrings included, and may match only in ``home``.  A
row with a home checked must match there, at least once or exactly
``count`` times: a row that guards nothing is a finding.  This module
spells every pattern, so it is exempt.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, Iterator, Tuple

from ..engine import Checker, Finding, ModuleInfo, register_checker

#: section, pattern (None: a deleted file), scope, home (None: nowhere), count
Row = namedtuple("Row", "section pattern scope home count",
                 defaults=(None, None))
SRC, ALL = ("src/",), ("src/", "tests/", "benchmarks/", "examples/")
CORE, RECON = ("src/repro/core/",), "src/repro/schedule/reconstruction.py"
TABLE: Tuple[Row, ...] = (
    Row("broadcast and reduce are packed by column generation",
        r"greedy_tree_packing|_residual_shortest_path_tree", SRC),
    Row("§5.1's port rows and port loads come from activities.port_groups",
        r'send-port\[|recv-port\[|"<=", ports|"send-port"|"recv-port"'
        r'|\("(send|recv)", [\w.]+\)|\b(send|recv) port \{'
        r'|tree_(send|recv)_time',
        CORE, "src/repro/core/activities.py"),
    Row("§5.1: every exact answer is verified, by one packager",
        r"verify=False|build_multiport_lp|build_send_or_receive_lp"
        r"|package_port_model_solution", SRC),
    Row("the commodity LP is written by scatter.build_commodity_lp",
        r"occupation\[|deliver\[", CORE, "src/repro/core/scatter.py"),
    Row("the commodity LP is written by scatter.build_commodity_lp",
        r'build_a2a_lp|build_broadcast_lp|package_a2a_solution|split\("->"\)',
        ("src/repro/core/", "src/repro/schedule/")),
    Row("§4.1: orchestrate is the one caller of each colouring",
        r"(?<!def )weighted_edge_coloring\(", SRC, RECON, 1),
    Row("§4.1: orchestrate is the one caller of each colouring",
        r"(?<!def )greedy_interval_coloring\(", SRC, RECON, 1),
    Row("§4.1: a solution carries the port model it was solved under",
        r"reconstruct_send_or_receive_schedule|send_or_receive_schedule_length"
        r"|verify\(port_model|check_ports\(port_model", SRC),
    Row("§4.2 is executed by PeriodicRunner alone",
        r"CollectiveRunner|collective_runner", ALL),
    Row("an LP problem is solved by its model", r"backend",
        ("src/repro/dynamic/", "src/repro/analysis/",
         "src/repro/core/master_slave.py", "src/repro/core/scatter.py")),
    Row("an LP problem is solved by its model", r"entry_point",
        ("src/repro/problems/",)),
    Row("an LP problem is solved by its model", None,
        ("src/repro/core/port_models.py",)),
    Row("§4.2's finite batch is built by batch.build_batch_schedule", None,
        ("src/repro/schedule/startup.py",)),
    Row("§4.2's finite batch is built by batch.build_batch_schedule",
        r"grouped_schedule_makespan|StartupAnalysis", ALL),
    Row("§4.2's finite batch is built by batch.build_batch_schedule",
        r"PeriodicRunner", ("src/repro/baselines/list_scheduling.py",)),
    Row("the service serves one LP road", r"backend",
        ("src/repro/service/",)),
    Row("a request is its spec", r"from_request_fields|option_dict"
        r"|spec_signature|__dag_|option_fields|target_nodes|dag_graph", SRC),
    Row("an entry is the answer to its key", r"stale_puts|stale_rejects"
        r"|_near_generation|expirations|\bttl\b|_ActivateContext"
        r"|current_trace", SRC),
    Row("the HTTP front runs every op on its loop",
        r"ThreadPoolExecutor|run_in_executor|http_workers",
        ("src/repro/service/api.py",)),
    Row("the HTTP front runs every op on its loop",  # the asyncio rule's
        r"route_get|_AggregateCacheView", ("src/", "!src/repro/lint/")),
    Row("a latency is a histogram",
        r"reservoir|_nearest_rank|_merge_endpoint_dicts|weighted\(", SRC),
    Row("a shard has no sleep op", r'MAX_SLEEP_SECONDS|"sleep"', SRC),
    Row("a name only tests called is deleted",
        r"\b(frac_gcd|rate_in_period|probes_interfere|tree_routes"
        r"|batch_ratio_series|steady_state_upper_bound|is_nonincreasing"
        r"|get_variable|value_by_name|busy_time|gantt|solve_all_to_all)\b"
        r"|def (out|in)_edges\(", ALL),
    # the round-trip tests and register() guard the wire codec and specs
    Row("one guard per invariant: no drift rule, no lint baseline", None,
        ("src/repro/lint/checkers/drift.py",)),
    Row("one guard per invariant: no drift rule, no lint baseline",
        r"\b(load_baseline|write_baseline|baseline_key|baselined)\b"
        r"|--(write-)?baseline\b", ALL),
)


def _under(path: str, prefix: str) -> bool:
    return "/" + prefix in "/" + path


@register_checker
class OwnershipChecker(Checker):
    rule = "ownership"
    description = ("each section of the construction has one owner module "
                   "(the table in lint/checkers/ownership.py)")

    def __init__(self) -> None:
        self._home_hits: Dict[int, Tuple[str, int]] = {}  # row: path, hits

    def applies_to(self, module: ModuleInfo) -> bool:
        return not _under(module.display_path, "lint/checkers/ownership.py")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        path, lines = module.display_path, module.source.split("\n")
        for index, row in enumerate(TABLE):
            if not any(_under(path, p) for p in row.scope) or any(
                    _under(path, p[1:]) for p in row.scope if p[0] == "!"):
                continue
            if row.pattern is None:
                yield Finding(self.rule, path, 1, 0,
                              f"{row.section}: this file is deleted")
                continue
            search = re.compile(row.pattern).search
            hits = [(n, m) for n, m in enumerate(map(search, lines), 1) if m]
            if row.home and _under(path, row.home):
                self._home_hits[index] = (path, len(hits))
                continue
            for number, match in hits:
                yield Finding(self.rule, path, number, match.start(),
                              f"{row.section}: {match.group()!r} may appear "
                              f"only in {row.home or 'deleted code'}")

    def finalize(self) -> Iterator[Finding]:
        for index, (path, hits) in sorted(self._home_hits.items()):
            row = TABLE[index]
            if hits == 0 or row.count not in (None, hits):
                yield Finding(self.rule, path, 1, 0, f"{row.section}: "
                              f"{row.pattern!r} matches {hits} line(s) of its "
                              f"home, not {row.count or 'one or more'}")
