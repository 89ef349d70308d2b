"""C11 — §5.1: communication-model ablation.

Shape: send-or-receive <= one-port <= multiport(2) <= multiport(4) on
every platform; relay-heavy platforms suffer most under send-or-receive
(forwarders time-share their single port); extra ports only help while
links are not individually saturated.
"""

from fractions import Fraction

from repro import (
    INF,
    generators,
    solve_master_slave,
)
from repro.platform.graph import Platform
from repro.analysis.reporting import render_table

from conftest import report


def relay_chain():
    g = Platform("relay-chain")
    g.add_node("N0", 1)
    g.add_node("N1", INF)
    g.add_node("N2", 1)
    g.add_edge("N0", "N1", 1)
    g.add_edge("N1", "N2", 1)
    return g


PLATFORMS = [
    ("star", generators.star(3, master_w=1, worker_w=[1, 1, 1],
                             link_c=[1, 1, 1]), "M"),
    ("relay-chain", relay_chain(), "N0"),
    ("grid", generators.grid2d(2, 3, seed=1), "G0_0"),
    ("random", generators.random_connected(7, seed=13), "R0"),
]


def run_port_model_suite():
    rows = []
    for name, platform, master in PLATFORMS:
        sor = solve_master_slave(platform, master,
                                 "send-or-receive").throughput
        one = solve_master_slave(platform, master).throughput
        mp2 = solve_master_slave(platform, master, "multiport", 2).throughput
        mp4 = solve_master_slave(platform, master, "multiport", 4).throughput
        rows.append([name, sor, one, mp2, mp4])
    return rows


def test_c11_port_models(benchmark):
    rows = benchmark.pedantic(run_port_model_suite, rounds=2, iterations=1)
    for name, sor, one, mp2, mp4 in rows:
        assert sor <= one <= mp2 <= mp4, name
    by_name = {r[0]: r for r in rows}
    # the forwarder chain: sor strictly hurts (1.5 vs 2)
    assert by_name["relay-chain"][1] < by_name["relay-chain"][2]
    # the homogeneous star: multiport strictly helps at the master
    assert by_name["star"][3] > by_name["star"][2]
    report(
        "C11: throughput under the section 5.1 communication models",
        render_table(
            ["platform", "send-or-receive", "one-port (paper)",
             "multiport(2)", "multiport(4)"],
            rows,
        ),
    )
