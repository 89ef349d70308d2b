"""A tree's per-node port times, computed from its edges alone.

The packer reaches the port model through ``repro.core.activities``; the
tree tests check its packings against this independent one-port reading.
"""

from fractions import Fraction


def port_times(platform, tree):
    """``(send, recv)``: each node's send-port and receive-port time to
    push one instance down ``tree``."""
    send, recv = {}, {}
    for (u, v) in tree:
        send[u] = send.get(u, Fraction(0)) + platform.c(u, v)
        recv[v] = recv.get(v, Fraction(0)) + platform.c(u, v)
    return send, recv


def packing_loads(platform, packing):
    """``(send, recv)`` busy time per time-unit of each node's ports under
    ``packing`` (``{tree: rate}``)."""
    send, recv = {}, {}
    for tree, rate in packing.items():
        for total, times in zip((send, recv), port_times(platform, tree)):
            for node, t in times.items():
                total[node] = total.get(node, Fraction(0)) + rate * t
    return send, recv
