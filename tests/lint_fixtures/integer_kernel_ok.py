# repro-lint: scope(integer-kernel)
"""Integer-kernel-shaped exact code: floor division on values known to
divide, divmod, and math's integer functions pass the rule."""

import math
from math import gcd, lcm


def normalise(numerators, denominator):
    g = gcd(denominator, *numerators)
    return [v // g for v in numerators], denominator // g


def back_substitute(acc, pivot, numerators, denominator):
    quo, rem = divmod(acc, pivot)
    if rem:
        factor = abs(pivot) // math.gcd(rem, pivot)
        numerators = [v * factor for v in numerators]
        denominator *= factor
        quo = acc * factor // pivot
    return quo, numerators, denominator


def row_scale(denominators):
    return lcm(*denominators), math.isqrt(16)
