"""Every steady-state LP builder keeps its variables, rows and objective.

A refactor of the LP builders may rename rows, but a solve of the same
model must see the same variables (name and bounds, in order), the same
rows (sense, constant and ``(variable, coefficient)`` terms, in order)
and the same objective.  This hashes exactly that, constraint names
left out, for each builder on seeded platforms — the builders the
replay corpus never reaches included: the DAG LP, the max-rule LP with
a multicast target set and scatter under the section 5.1 port models.

Each case calls a public solver and captures the model at its
``LinearProgram.solve``, so the digest does not depend on a builder's
signature.  ``tests/data/lp_rows.sha256`` holds one ``<sha256>  <case>``
line per case; a change that means to move an LP re-records it::

    PYTHONPATH=src python tests/test_lp_rows.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.core.broadcast import broadcast_lp_bound
from repro.core.dag import TaskGraph, solve_dag_collection
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from repro.lp import LinearProgram
from repro.platform import generators

DIGESTS = Path(__file__).resolve().parent / "data" / "lp_rows.sha256"
SEEDS = (1, 2, 3)


class _Captured(Exception):
    def __init__(self, lp: LinearProgram) -> None:
        super().__init__(lp.name)
        self.lp = lp


def _platform(seed: int):
    return generators.random_connected(5, 0.3, seed=seed)


def _cases() -> Dict[str, Callable[[], object]]:
    """``case id -> call`` that builds (and would solve) one LP."""
    others = ["R1", "R2", "R3"]
    cases: Dict[str, Callable[[], object]] = {}
    for seed in SEEDS:
        def g(seed=seed):
            return _platform(seed)
        cases.update({
            f"ssms/one-port/{seed}": lambda g=g: solve_master_slave(g(), "R0"),
            f"ssms/send-or-receive/{seed}":
                lambda g=g: solve_master_slave(g(), "R0", "send-or-receive"),
            f"ssms/multiport-2/{seed}":
                lambda g=g: solve_master_slave(g(), "R0", "multiport", 2),
            f"ssps/one-port/{seed}":
                lambda g=g: solve_scatter(g(), "R0", others),
            f"ssps/send-or-receive/{seed}": lambda g=g: solve_scatter(
                g(), "R0", others, port_model="send-or-receive"),
            f"ssps/multiport-2/{seed}": lambda g=g: solve_scatter(
                g(), "R0", others, port_model="multiport", ports=2),
            f"ssps/multiport-3/{seed}": lambda g=g: solve_scatter(
                g(), "R0", others, port_model="multiport", ports=3),
            f"gather/{seed}": lambda g=g: solve_gather(g(), "R0", others),
            f"all-to-all/{seed}":
                lambda g=g: solve_all_to_all_solution(g()),
            f"max-rule/broadcast/{seed}":
                lambda g=g: broadcast_lp_bound(g(), "R0"),
            f"max-rule/multicast/{seed}":
                lambda g=g: broadcast_lp_bound(g(), "R0", ["R2", "R4"]),
            f"dag/{seed}": lambda g=g: solve_dag_collection(
                g(), TaskGraph.chain([1, 2], [3]), "R0"),
        })
    return cases


def _shape(lp: LinearProgram) -> List[object]:
    """The model a solver sees, constraint names left out."""
    def terms(expr) -> List[List[str]]:
        return [[var.name, str(coef)] for var, coef in expr.terms.items()]

    return [
        [[v.name, str(v.lo), str(v.hi)] for v in lp.variables],
        [[c.sense, str(c.expr.constant), terms(c.expr)]
         for c in lp.constraints],
        [lp.sense, str(lp.objective.constant), terms(lp.objective)],
    ]


def _digest(call: Callable[[], object], monkeypatch) -> str:
    def capture(lp, backend="exact", **kwargs):
        raise _Captured(lp)

    monkeypatch.setattr(LinearProgram, "solve", capture)
    with pytest.raises(_Captured) as caught:
        call()
    blob = json.dumps(_shape(caught.value.lp), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _recorded() -> Dict[str, str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        digest, case = line.split()
        out[case] = digest
    return out


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_lp_rows_match_the_record(case, monkeypatch):
    assert _digest(_cases()[case], monkeypatch) == _recorded()[case]


def _record() -> None:
    patch = pytest.MonkeyPatch()
    lines = []
    try:
        for case, call in sorted(_cases().items()):
            lines.append(f"{_digest(call, patch)}  {case}")
    finally:
        patch.undo()
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} cases in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_lp_rows.py --record")
    _record()
