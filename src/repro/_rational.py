"""Exact rational arithmetic helpers shared across the library.

The steady-state methodology (section 4.1 of the paper) relies on the LP
optimum being *rational*: the period ``T`` is the least common multiple of
the denominators of the activity variables, which only makes sense with
exact arithmetic.  Every quantity that flows from the LP into schedule
reconstruction is therefore a :class:`fractions.Fraction`.

Infinite weights are represented by :data:`INF` (``math.inf``); they never
enter LP tableaux (variables attached to infinite-cost resources are pinned
to zero instead).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

#: Marker for "no link" / "no computing power" (section 2 of the paper).
INF = math.inf

#: Anything convertible to an exact rational (or infinite).
RationalLike = Union[int, float, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Floats are converted via :meth:`Fraction.limit_denominator` with a large
    bound (10**12) so that values like ``0.1`` round-trip to ``1/10`` rather
    than the binary expansion.  Exact integers, strings (``"1/3"``) and
    Fractions pass through unchanged.

    Raises
    ------
    ValueError
        If ``value`` is infinite or NaN (those must be handled by callers
        before reaching rational arithmetic).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            raise ValueError(f"cannot convert non-finite value {value!r} to Fraction")
        return Fraction(value).limit_denominator(10**12)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def is_infinite(value: RationalLike) -> bool:
    """True when ``value`` denotes an infinite weight (missing link/CPU)."""
    return isinstance(value, float) and math.isinf(value)


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values``.

    This is exactly the paper's period construction: *"we take the least
    common multiple of the denominators, and thus we derive an integer
    period T"* (section 3.1).  Returns 1 for an empty iterable.
    """
    lcm = 1
    for v in values:
        if not isinstance(v, Fraction):
            v = as_fraction(v)
        lcm = math.lcm(lcm, v.denominator)
    return lcm


def format_fraction(value: Fraction, max_len: int = 12) -> str:
    """Human-friendly rendering: integers plain, else ``p/q`` or a float."""
    if not isinstance(value, Fraction):
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    text = f"{value.numerator}/{value.denominator}"
    if len(text) <= max_len:
        return text
    return f"{float(value):.6g}"
