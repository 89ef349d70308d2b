"""Shared fixtures: a menagerie of platforms used across the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lp.model import InfeasibleError, UnboundedError
from repro.lp.simplex import SimplexInstance
from repro.lp.certify import (
    CertificateError,
    certify,
    certify_infeasible,
    certify_unbounded,
)
from repro.platform import generators as gen

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: outcomes certified over the session, by kind
CERTIFIED = {"optimal": 0, "infeasible": 0, "unbounded": 0}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "plants_fault: the test breaks the solver on purpose; "
        "exactly one refuted certificate is its expected outcome")


@pytest.fixture(autouse=True)
def certified_solves(monkeypatch, request):
    """Every in-process ``SimplexInstance.solve`` of the suite proves its
    outcome — optimum, infeasibility or unboundedness — on the
    ``LinearProgram`` it was given.  A failed proof is re-raised where
    it happens and, in case a broker's error handler turns that into a
    reply, fails the test at teardown as well — unless the test is
    marked ``plants_fault``, which must then refute exactly one."""
    solve = SimplexInstance.solve
    refuted = []

    def prove(kind, check, lp, evidence):
        try:
            check(lp, evidence)
        except CertificateError as error:
            refuted.append(f"{lp.name}: {error}")
            raise
        CERTIFIED[kind] += 1

    def certified(self, warm=False):
        try:
            solution = solve(self, warm)
        except InfeasibleError as error:
            prove("infeasible", certify_infeasible, self.lp, error)
            raise
        except UnboundedError as error:
            prove("unbounded", certify_unbounded, self.lp, error)
            raise
        prove("optimal", certify, self.lp, solution)
        return solution

    monkeypatch.setattr(SimplexInstance, "solve", certified)
    yield
    planted = request.node.get_closest_marker("plants_fault") is not None
    assert len(refuted) == (1 if planted else 0), refuted


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        "certified LP outcomes: " + ", ".join(
            f"{count} {kind}" for kind, count in CERTIFIED.items()))


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter and return the JSON it printed
    last.  What a process has imported can only be asserted where no
    other test has imported anything: this process holds numpy and scipy
    from the first cross-check test on.  Keyword arguments are set in
    the child's environment."""

    def run(script: str, **env_vars: str):
        env = dict(os.environ, **env_vars)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run


@pytest.fixture
def lane_latch():
    """A :class:`lane_latch.LaneLatch`, released however the test ends:
    a held lane thread would otherwise block interpreter exit, which
    joins every executor thread."""
    from lane_latch import LaneLatch

    latch = LaneLatch()
    try:
        yield latch
    finally:
        latch.release()


@pytest.fixture
def star4():
    """Heterogeneous star: the closed-form oracle platform."""
    return gen.star(4, master_w=2, worker_w=[1, 2, 3, 4], link_c=[1, 1, 2, 3])


@pytest.fixture
def fig1():
    """The paper's Figure 1 example platform."""
    return gen.paper_figure1()


@pytest.fixture
def fig2():
    """The paper's Figure 2 multicast counterexample platform."""
    return gen.paper_figure2_multicast()


@pytest.fixture
def grid33():
    return gen.grid2d(3, 3, seed=3)


@pytest.fixture
def tree3():
    return gen.binary_tree(3, seed=5)


@pytest.fixture
def rand8():
    return gen.random_connected(8, seed=42)


def platform_family():
    """(name, platform, master) triples covering every generator family."""
    return [
        ("star", gen.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                          link_c=[1, 1, 2, 3]), "M"),
        ("fig1", gen.paper_figure1(), "P1"),
        ("chain", gen.chain(4, node_w=2, link_c=1), "N0"),
        ("tree", gen.binary_tree(2, seed=7), "T0"),
        ("grid", gen.grid2d(2, 3, seed=1), "G0_0"),
        ("random", gen.random_connected(7, seed=13), "R0"),
        ("forwarders", gen.random_connected(7, seed=99, forwarder_prob=0.4),
         "R0"),
        ("clustered", gen.clustered(2, 3, seed=21), "C0_0"),
    ]


@pytest.fixture(params=platform_family(), ids=lambda t: t[0])
def any_platform(request):
    return request.param
