# repro-lint: scope(heavy-import)
"""Function-local imports of the float stack: passes the rule.  The
packages load when the first caller asks for them, and a process that
never asks never pays."""

from fractions import Fraction


def cross_check(lp):
    from .scipy_backend import solve_scipy

    return solve_scipy(lp)


def to_array(values):
    import numpy as np

    return np.array([float(Fraction(v)) for v in values])


class Exporter:
    def to_networkx(self):
        import networkx as nx

        return nx.DiGraph()

    async def spectrum(self, matrix):
        from scipy.linalg import eigvals

        return eigvals(matrix)
