# repro-lint: scope(heavy-import)
"""Seeded ``heavy-import`` violations: every import below runs when the
module is imported, so every process that imports it pays for the
float stack."""

import numpy as np
from scipy.optimize import linprog

from .scipy_backend import solve_scipy

try:
    import networkx
except ImportError:
    networkx = None


class Plotter:
    import scipy.sparse as sparse  # class bodies run at import time too


def cross_check(lp):
    return solve_scipy(lp), linprog, np, Plotter.sparse, networkx
