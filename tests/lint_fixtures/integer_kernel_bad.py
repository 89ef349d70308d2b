# repro-lint: scope(integer-kernel)
"""Seeded integer-kernel violations: a vector carried as (numerators,
common denominator) must never meet a true division — ``int / int`` is a
float, silently — nor any ``math`` function beyond gcd/lcm/isqrt."""

from math import gcd, sqrt


def normalise(numerators, denominator):
    g = gcd(denominator, *numerators)
    return [v / g for v in numerators], denominator / g  # two silent floats


def halve(value):
    value /= 2  # augmented true division
    return value, sqrt(value)
