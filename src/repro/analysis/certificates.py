"""LP-duality optimality certificates for steady-state throughput.

The paper leans on the LP optimum being an *upper bound* ("the previous
number is an upper bound of what can be achieved in steady-state mode").
Duality turns that into a checkable certificate: a feasible dual solution
whose value equals a schedule's throughput **proves** no schedule can do
better — port prices and conservation potentials form the proof object.

The dual of SSMS(G) (section 3.1's primal) reads:

    minimise   sum_i mu_i + sum_i sigma_i + sum_i rho_i + sum_ij tau_ij
    subject to
      alpha_i (i != m):  mu_i - pi_i / w_i            >= 1 / w_i
      alpha_m:           mu_m                          >= 1 / w_m
      s_ij (j != m):     sigma_i + rho_j + tau_ij
                         + (pi_j - pi_i) / c_ij        >= 0   (pi_m := 0)

(the transfer delivers value at ``j`` and withdraws it at ``i``, hence the
sign: a task's potential may only rise along an edge by at most the port,
link and card prices paid for the transfer)
      mu, sigma, rho, tau >= 0;  pi free

where ``sigma_i``/``rho_j`` price the send/receive ports, ``mu_i`` the
CPU saturation, ``tau_ij`` the per-link capacity and ``pi_i`` the marginal
value of one task file delivered at ``P_i``.  Strong duality makes the
optimal dual value equal ``ntask(G)``; :func:`ssms_certificate` builds and
solves this dual with the same exact solver and verifies the equality,
yielding a machine-checked optimality proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from ..lp import LinearProgram, lp_sum
from ..platform.graph import Edge, NodeId, Platform


@dataclass
class SSMSCertificate:
    """A verified primal/dual pair for master-slave steady state."""

    platform: Platform
    master: NodeId
    primal_value: Fraction          # ntask(G)
    dual_value: Fraction            # the certificate's bound
    #: port prices and task potentials (dual variables)
    send_price: Dict[NodeId, Fraction]
    recv_price: Dict[NodeId, Fraction]
    cpu_price: Dict[NodeId, Fraction]
    link_price: Dict[Edge, Fraction]
    potential: Dict[NodeId, Fraction]

    @property
    def optimal(self) -> bool:
        """Strong duality: the bound is tight."""
        return self.primal_value == self.dual_value

    def verify_dual_feasibility(self) -> None:
        """Re-check every dual constraint by hand; raise on violation."""
        g = self.platform
        m = self.master
        pi = dict(self.potential)
        pi[m] = Fraction(0)
        for node in g.nodes():
            spec = g.node(node)
            if not spec.can_compute:
                continue
            lhs = self.cpu_price.get(node, Fraction(0))
            if node != m:
                lhs -= pi[node] / spec.w
            if lhs < Fraction(1) / spec.w:
                raise AssertionError(
                    f"dual CPU constraint violated at {node}: "
                    f"{lhs} < {Fraction(1) / spec.w}"
                )
        for spec in g.edges():
            i, j = spec.src, spec.dst
            if j == m:
                continue  # s_jm pinned to zero in the primal
            lhs = (
                self.send_price.get(i, Fraction(0))
                + self.recv_price.get(j, Fraction(0))
                + self.link_price.get((i, j), Fraction(0))
                + (pi[j] - pi[i]) / spec.c
            )
            if lhs < 0:
                raise AssertionError(
                    f"dual edge constraint violated on {i}->{j}: {lhs} < 0"
                )

    def bound_statement(self) -> str:
        return (
            f"certificate: no steady-state schedule on "
            f"{self.platform.name!r} with master {self.master!r} exceeds "
            f"{self.dual_value} tasks per time-unit "
            f"(tight: {self.optimal})"
        )


def build_ssms_dual(
    platform: Platform, master: NodeId
) -> LinearProgram:
    """Assemble the explicit dual LP described in the module docstring."""
    platform.node(master)
    lp = LinearProgram(f"SSMS-dual({platform.name})")
    mu: Dict[NodeId, object] = {}
    sigma: Dict[NodeId, object] = {}
    rho: Dict[NodeId, object] = {}
    tau: Dict[Edge, object] = {}
    pi: Dict[NodeId, object] = {}
    for node in platform.nodes():
        if platform.node(node).can_compute:
            mu[node] = lp.variable(f"mu[{node}]", lo=0)
        sigma[node] = lp.variable(f"sigma[{node}]", lo=0)
        rho[node] = lp.variable(f"rho[{node}]", lo=0)
        if node != master:
            pi[node] = lp.variable(f"pi[{node}]")  # free
    for spec in platform.edges():
        tau[(spec.src, spec.dst)] = lp.variable(
            f"tau[{spec.src}->{spec.dst}]", lo=0
        )

    def pot(node: NodeId):
        return pi[node] if node != master else None

    for node in platform.nodes():
        spec = platform.node(node)
        if not spec.can_compute:
            continue
        inv_w = Fraction(1) / spec.w
        if node == master:
            lp.add_constraint(mu[node] * 1 >= inv_w, name=f"cpu[{node}]")
        else:
            lp.add_constraint(
                mu[node] - pi[node] * inv_w >= inv_w, name=f"cpu[{node}]"
            )
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        if j == master:
            continue
        expr = sigma[i] + rho[j] + tau[(i, j)]
        inv_c = Fraction(1) / spec.c
        expr = expr + pi[j] * inv_c
        if i != master:
            expr = expr - pi[i] * inv_c
        lp.add_constraint(expr >= 0, name=f"edge[{i}->{j}]")

    lp.minimize(
        lp_sum(list(mu.values()))
        + lp_sum(list(sigma.values()))
        + lp_sum(list(rho.values()))
        + lp_sum(list(tau.values()))
    )
    return lp


def ssms_certificate(platform: Platform, master: NodeId) -> SSMSCertificate:
    """Solve primal and dual exactly; return the verified certificate.

    The certificate satisfies strong duality *exactly* and its
    feasibility is re-derived from first principles.
    """
    from ..core.master_slave import solve_master_slave

    primal = solve_master_slave(platform, master)
    dual = build_ssms_dual(platform, master).solve()

    def collect(prefix: str) -> Dict:
        out = {}
        for var, value in dual.values.items():
            if var.name.startswith(prefix + "["):
                key = var.name[len(prefix) + 1:-1]
                if "->" in key:
                    a, b = key.split("->")
                    out[(a, b)] = value
                else:
                    out[key] = value
        return out

    cert = SSMSCertificate(
        platform=platform,
        master=master,
        primal_value=primal.throughput,
        dual_value=dual.objective,
        send_price=collect("sigma"),
        recv_price=collect("rho"),
        cpu_price=collect("mu"),
        link_price=collect("tau"),
        potential=collect("pi"),
    )
    cert.verify_dual_feasibility()
    return cert
