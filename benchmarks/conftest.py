"""Benchmark-suite configuration.

Each benchmark regenerates one paper artefact (figure or claim — see
README's "Tests and benchmarks" section for what the ``bench_fig*``,
``bench_c*`` and ``bench_a*`` prefixes mean) and *asserts the paper's
qualitative shape* (who wins, by roughly what factor, where crossovers
fall) while pytest-benchmark records the runtimes.  Run with::

    pytest benchmarks/ --benchmark-only -s

to see the reproduced rows/series next to the timing table.
"""

import pytest


def report(title: str, text: str) -> None:
    """Print a labelled block (visible with -s / on failure)."""
    print(f"\n==== {title} ====")
    print(text)
