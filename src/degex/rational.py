"""Exact rational helpers.

Densities and accuracy margins are carried as fractions.Fraction so that
every threshold comparison (poor/rich, good-subset, bad-for-S) is exact.
Floats are accepted at API boundaries and converted to their exact binary
value; strings use Fraction's parser ("3/4", "0.25").
"""

from fractions import Fraction
from math import isqrt

from .errors import ValidationError


def to_fraction(value, name: str = "value") -> Fraction:
    """Convert value to an exact Fraction, rejecting NaN/infinities."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"{name} is not a rational number: {value!r}") from exc


def to_probability(value) -> Fraction:
    """Convert a probability p with to_fraction and check that it lies in [0, 1]."""
    p = to_fraction(value, "p")
    if not 0 <= p <= 1:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    return p


def floor_sqrt_scaled(q: Fraction, scale: int) -> int:
    """Return floor(sqrt(q) * scale) exactly, for q >= 0.

    floor(sqrt(a/b) * c) = floor(sqrt(a*c^2 / b)) = isqrt(a*c^2 // b),
    since floor(sqrt(x)) = isqrt(floor(x)) for rational x >= 0.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return isqrt(q.numerator * scale * scale // q.denominator)
