"""Linear-programming substrate: modelling layer + the exact backend.

The exact backend (:mod:`repro.lp.simplex`) produces rational optima, which
the paper's period construction requires, and is all this package imports;
each answer carries a duality certificate that :mod:`repro.lp.certify`
checks on the model alone.
The float backend (:mod:`repro.lp.scipy_backend`, HiGHS cross-checks) is
opt-in: ``LinearProgram.solve(backend="scipy")`` imports it, and with it
numpy and scipy, on first use, so a process that serves only exact
answers never loads the float stack (``repro lint``'s ``heavy-import``
rule keeps it that way).
"""

from .certify import (
    CertificateError,
    certify,
    certify_infeasible,
    certify_unbounded,
)
from .factor import BasisFactor, SingularBasisError, SparseLU
from .model import (
    Constraint,
    InfeasibleError,
    LinearProgram,
    LinExpr,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
    lp_sum,
)
from .simplex import SimplexInstance, solve_exact

__all__ = [
    "BasisFactor",
    "CertificateError",
    "certify",
    "certify_infeasible",
    "certify_unbounded",
    "SimplexInstance",
    "SingularBasisError",
    "SparseLU",
    "Constraint",
    "InfeasibleError",
    "LinearProgram",
    "LinExpr",
    "LPError",
    "LPSolution",
    "UnboundedError",
    "Variable",
    "lp_sum",
    "solve_exact",
]
