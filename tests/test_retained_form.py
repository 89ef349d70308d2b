"""The retained integer form: a ``SimplexInstance`` lowers its LP once
and a warm re-solve rewrites only the rows the patch moved.

Staleness is detected from the model, so the property below mutates the
model every way a caller can — patch hooks, hand edits of terms,
constants, senses and bounds, an added constraint — and asks that
``solve(warm=True)`` equal a fresh instance on a deep copy.  The autouse
``certified_solves`` fixture certifies every outcome against the
*patched* model: a stale row is exactly what a certificate catches."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.master_slave import build_ssms_lp, patch_ssms_coefficients
from repro.lp import (CertificateError, LinearProgram, SimplexInstance,
                      certify, simplex, solve_exact)
from repro.platform import generators
from repro.platform.graph import Platform
from repro.problems import MasterSlaveSpec
from repro.service.broker import Broker, SolveRequest
from repro.service.incremental import IncrementalSolver
from repro.service.metrics import render_prometheus

from test_revised_simplex import build_lp, certified, random_lp

F = Fraction
DELTAS = [F(1), F(-1), F(1, 2), F(2), F(1, 3), F(-3, 7), F(5, 12)]
KINDS = ["hook", "zero-and-back", "term", "constant", "sense", "bound",
         "unbound", "objective", "row"]


def _ms(platform: Platform, master) -> MasterSlaveSpec:
    """The master-slave spec an :class:`IncrementalSolver` is handed."""
    return MasterSlaveSpec(platform=platform, master=master)


def _agrees_with_a_fresh_instance(lp, inst):
    warm_kind, warm = certified(lp, lambda: inst.solve(warm=True))
    fresh = copy.deepcopy(lp)
    cold_kind, cold = certified(fresh, SimplexInstance(fresh).solve)
    assert warm_kind == cold_kind
    if warm_kind == "optimal":
        assert warm.objective == cold.objective
        lp.check(warm)


def _mutate(lp, xs, inst, dyn):
    kind = dyn.draw(st.sampled_from(KINDS))
    cons = lp.constraints[dyn.draw(st.integers(0, len(lp.constraints) - 1))]
    x = xs[dyn.draw(st.integers(0, len(xs) - 1))]
    delta = dyn.draw(st.sampled_from(DELTAS))
    old = cons.expr.terms.get(x, F(0))
    if kind == "hook":
        lp.set_constraint_coefficient(cons.name, x, old + delta)
    elif kind == "zero-and-back":
        lp.set_constraint_coefficient(cons.name, x, 0)
        _agrees_with_a_fresh_instance(lp, inst)
        lp.set_constraint_coefficient(cons.name, x, old or delta)
    elif kind == "term":
        cons.expr.terms[x] = old + delta  # by hand, possibly to zero
    elif kind == "constant":
        cons.expr.constant += delta
    elif kind == "sense":
        cons.sense = dyn.draw(st.sampled_from(["<=", ">=", "=="]))
    elif kind == "bound":
        if x.hi is not None:
            x.hi += abs(delta)
        elif x.lo is not None:
            x.lo -= abs(delta)
        else:
            x.lo = delta
    elif kind == "unbound":
        x.hi = None
    elif kind == "objective":
        lp.set_objective_coefficient(
            x, lp.objective.terms.get(x, F(0)) + delta)
    else:
        lp.add_constraint(x + xs[0] * delta <= 3,
                          name=f"added{len(lp.constraints)}")


@settings(max_examples=150, deadline=None)
@given(random_lp(), st.data())
def test_warm_solve_after_any_mutations_equals_a_fresh_instance(data, dyn):
    lp, xs = build_lp(data)
    inst = SimplexInstance(lp)
    certified(lp, inst.solve)
    for _ in range(dyn.draw(st.integers(1, 4))):
        _mutate(lp, xs, inst, dyn)
        _agrees_with_a_fresh_instance(lp, inst)


@pytest.mark.plants_fault
def test_a_skipped_row_refresh_is_refuted(monkeypatch):
    """The mutant never sees a row move, so the warm solve answers the
    *old* LP: sibling comparison of two solves through the same stale
    form would agree, the certificate on the patched model does not."""
    g = generators.paper_figure1()
    lp, handles = build_ssms_lp(g, "P1")
    inst = SimplexInstance(lp)
    inst.solve()
    patch_ssms_coefficients(lp, handles, g.scale(compute=F(1, 2)), "P1")
    monkeypatch.setattr(simplex, "_same", lambda now, then: True)
    with pytest.raises(CertificateError):
        inst.solve(warm=True)
    assert inst.rows_relowered == 0


def _reweight(base, rng):
    out = Platform(base.name)
    for name in base.nodes():
        w = base.node(name).w
        if base.node(name).can_compute and rng.random() < 0.25:
            w = w * F(rng.randint(6, 10), 8)
        out.add_node(name, w)
    for edge in base.edges():
        c = edge.c * F(rng.randint(6, 10), 8) if rng.random() < 0.25 \
            else edge.c
        out.add_edge(edge.src, edge.dst, c)
    return out


def _rows_moved(old, new, master):
    """Rows of the SSMS model a re-weighting moves: ``conserve[i]`` when
    ``w_i`` or the cost of an edge at ``i`` changed, and the objective
    row when any ``w`` did."""
    w_moved = {n for n in old.nodes() if old.node(n).w != new.node(n).w}
    c_moved = {(e.src, e.dst) for e in old.edges()
               if e.c != new.c(e.src, e.dst)}
    rows = sum(n != master and (n in w_moved or any(
        n in edge for edge in c_moved)) for n in old.nodes())
    return rows + bool(w_moved)


class TestCounters:
    def test_weight_only_patches_relower_only_the_rows_they_moved(self):
        base = generators.random_connected(9, seed=6)
        lp, handles = build_ssms_lp(base, "R0")
        inst = SimplexInstance(lp)
        inst.solve()
        rng, current, expected = random.Random(21), base, 0
        for _ in range(12):
            drifted = _reweight(base, rng)
            patch_ssms_coefficients(lp, handles, drifted, "R0")
            expected += _rows_moved(current, drifted, "R0")
            inst.solve(warm=True)
            current = drifted
        stats = inst.stats()
        assert stats["form_builds"] == 1
        assert stats["rows_relowered"] == expected > 0
        # every coefficient rewritten to the value it already had: new
        # Fraction objects, equal numbers, nothing to re-lower
        patch_ssms_coefficients(lp, handles, current, "R0")
        inst.solve(warm=True)
        assert inst.stats()["rows_relowered"] == expected
        assert inst.stats()["form_builds"] == 1
        inst.solve()  # a cold solve always lowers in full
        assert inst.stats()["form_builds"] == 2

    def test_structure_changes_take_a_full_lowering(self):
        lp, handles = build_ssms_lp(generators.star(3), "M")
        inst = SimplexInstance(lp)
        inst.solve()
        # the master's send port implies s[M->W1] <= 1, so that bound
        # has no row: dropping it lowers in full, to the same shape
        handles[("s", "M", "W1")].hi = None
        inst.solve(warm=True)
        assert (inst.form_builds, inst.fallbacks) == (2, 0)
        assert inst.last_restarted
        handles[("alpha", "W1")].hi = None  # a bound row: other columns
        inst.solve(warm=True)
        assert (inst.form_builds, inst.fallbacks) == (3, 1)
        conserve = lp.constraints[4]
        assert conserve.name == "conserve[W1]"
        conserve.expr.constant -= 1  # a number: same columns
        inst.solve(warm=True)
        assert (inst.form_builds, inst.rows_relowered) == (3, 1)
        assert inst.last_restarted

    def test_counters_reach_metrics(self):
        g = generators.paper_figure1()
        with Broker() as broker:
            # 5, 1: the second build keeps the hot model; 2, 3 are warm
            for factor in (5, 1, 2, 3):
                broker.solve(SolveRequest(MasterSlaveSpec(
                    platform=g.scale(compute=factor), master="P1")))
            snap = broker.snapshot()
        inc = snap["incremental"]
        assert inc["form_builds"] == 2 and inc["warm_solves"] == 2
        assert inc["rows_relowered"] > 0
        text = render_prometheus(snap)
        assert "repro_warm_form_builds_total 2" in text
        assert f"repro_warm_rows_relowered_total {inc['rows_relowered']}" \
            in text


class TestBoundsThatAreNotRows:
    def test_fixed_variables_and_implied_bounds_get_no_row(self):
        platform = generators.star(3, bidirectional=True)
        lp, handles = build_ssms_lp(platform, "M")
        form = simplex._Form(lp)
        # s[Wk->M] is pinned to 0 (5th equation): no column, and the
        # master's receive port and each worker's send port read only
        # pinned variables, so they lower to no row either
        assert form.first_slack == 4 + 3
        assert sum(k is not None for k in form.origin) == 1 + 3 + 3
        cols = {key: form.decode[var][0] for key, var in handles.items()}
        assert [key for key, c in cols.items() if c is None] == [
            ("s", f"W{k}", "M") for k in (1, 2, 3)]
        # each remaining s is capped at 1 by its port rows: no bound row;
        # every alpha sits in a mixed-sign conservation row: it keeps one
        bound_cols = [next(iter(row)) for row, k
                      in zip(form.rows, form.origin) if k is None]
        assert bound_cols == [cols[("alpha", n)] for n in platform.nodes()]
        sol = solve_exact(lp)
        certify(lp, sol)
        assert all(sol[handles[("s", f"W{k}", "M")]] == 0 for k in (1, 2, 3))

    def test_a_patch_that_breaks_an_implication_lowers_in_full(self):
        lp = LinearProgram(name="implied")
        x = lp.variable("x", lo=0, hi=1)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y <= 1, name="cap")
        lp.maximize(x)
        inst = SimplexInstance(lp)
        assert inst.solve()[x] == 1
        # x/2 + y <= 1 caps x at 2 only: x <= 1 needs its row back, and
        # re-lowering "cap" in place would answer x = 2
        lp.set_constraint_coefficient("cap", x, F(1, 2))
        kind, sol = certified(lp, lambda: inst.solve(warm=True))
        assert (kind, sol[x]) == ("optimal", 1)
        assert inst.form_builds == 2


def test_hot_model_eviction_is_least_recently_used():
    inc = IncrementalSolver(max_models=2)
    a, b, c = (generators.star(n) for n in (2, 3, 4))
    # a re-weighting keeps the hot model
    for g in (a, a.scale(comm=3), b, b.scale(comm=3)):
        inc.solve_spec(_ms(g, "M"))
    _, warm = inc.solve_spec_ex(_ms(a.scale(compute=2), "M"))
    assert warm
    # c's re-weighting evicts b, least recently used
    for g in (c, c.scale(comm=3)):
        inc.solve_spec(_ms(g, "M"))
    assert inc.stats.evictions == 1
    assert inc.has_model_for(_ms(a, "M")) and inc.has_model_for(_ms(c, "M"))
    assert not inc.has_model_for(_ms(b, "M"))
