"""Linear-programming substrate: modelling layer + the exact backend.

The exact backend (:mod:`repro.lp.simplex`) produces rational optima, which
the paper's period construction requires, and is all this package imports;
each answer carries a duality certificate that :mod:`repro.lp.certify`
checks on the model alone.
The float backend (:mod:`repro.lp.scipy_backend`, HiGHS cross-checks) is
opt-in: ``LinearProgram.solve(backend="scipy")`` imports it, and with it
numpy and scipy, on first use, so a process that serves only exact
answers never loads the float stack (``tests/test_import_closure.py``
imports every other module and checks that it stays so).
"""

from .model import LinearProgram, LinExpr, LPSolution, lp_sum

__all__ = [
    "LinearProgram",
    "LinExpr",
    "LPSolution",
    "lp_sum",
]
