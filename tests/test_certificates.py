"""LP-duality certificate tests."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.certificates import build_ssms_dual, ssms_certificate
from repro.core.master_slave import build_ssms_lp
from repro.lp.certify import certify
from repro.lp.simplex import solve_exact
from repro.platform import generators as gen


class TestStrongDuality:
    def test_certificates_are_tight(self, any_platform):
        name, platform, master = any_platform
        cert = ssms_certificate(platform, master)
        assert cert.optimal, name
        cert.verify_dual_feasibility()

    def test_fig1_certificate(self, fig1):
        cert = ssms_certificate(fig1, "P1")
        assert cert.primal_value == cert.dual_value == 2

    def test_prices_are_meaningful(self, star4):
        """On the star the binding resources carry positive prices."""
        cert = ssms_certificate(star4, "M")
        # the master's CPU saturates (alpha_M = 1): positive price
        assert cert.cpu_price.get("M", Fraction(0)) > 0
        total = (
            sum(cert.cpu_price.values(), start=Fraction(0))
            + sum(cert.send_price.values(), start=Fraction(0))
            + sum(cert.recv_price.values(), start=Fraction(0))
            + sum(cert.link_price.values(), start=Fraction(0))
        )
        assert total == cert.dual_value

    def test_bound_statement(self, star4):
        cert = ssms_certificate(star4, "M")
        text = cert.bound_statement()
        assert "3/2" in text and "tight: True" in text

    def test_tampered_certificate_detected(self, star4):
        cert = ssms_certificate(star4, "M")
        cert.cpu_price["M"] = Fraction(0)  # break the CPU constraint
        with pytest.raises(AssertionError):
            cert.verify_dual_feasibility()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=3, max_value=6))
    def test_duality_on_random_platforms(self, seed, n):
        platform = gen.random_connected(n, seed=seed)
        cert = ssms_certificate(platform, "R0")
        assert cert.optimal
        cert.verify_dual_feasibility()


class TestTwoIndependentProofsAgree:
    """``ssms_certificate`` builds the paper's dual by hand and solves
    it; ``certify`` evaluates the multipliers the primal solve read off
    its own basis.  Neither knows of the other: both bounds must be
    ``ntask(G)``."""

    @staticmethod
    def _both_bounds(platform, master):
        lp, _ = build_ssms_lp(platform, master)
        solution = solve_exact(lp)
        bound = certify(lp, solution)
        cert = ssms_certificate(platform, master)
        assert bound == cert.dual_value == cert.primal_value
        assert bound == solution.objective
        return bound

    def test_fig1(self, fig1):
        assert self._both_bounds(fig1, "P1") == 2

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=3, max_value=6),
           st.sampled_from([0.0, 0.4]))
    def test_random_platforms(self, seed, n, forwarder_prob):
        self._both_bounds(gen.random_connected(
            n, seed=seed, forwarder_prob=forwarder_prob), "R0")


class TestDualStructure:
    def test_dual_lp_shape(self, star4):
        dual = build_ssms_dual(star4, "M")
        stats = dual.stats()
        # mu per compute node, sigma/rho per node, tau per edge, pi per
        # non-master node
        p, e = star4.num_nodes, star4.num_edges
        assert stats["variables"] == p + 2 * p + e + (p - 1)
        assert stats["constraints"] == p + e  # cpu rows + edge rows

    def test_dual_objective_independent_of_master_potential(self, star4):
        """pi_m is fixed to 0 by exclusion; solving must not create it."""
        dual = build_ssms_dual(star4, "M")
        names = {v.name for v in dual.variables}
        assert "pi[M]" not in names
