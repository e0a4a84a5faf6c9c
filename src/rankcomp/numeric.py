"""Numeric core: the one rule for exact vs float arithmetic.

The inputs decide the mode: the players' emphases, the knots of f and,
for a best-response witness, epsilon.  When every input is an int or a
Fraction, arithmetic stays exact and comparisons have zero tolerance.
Any float input, even one emphasis of one player in a profile mixing
exact and float players, means float mode: floats compared with an
absolute tolerance of 1e-9.  :func:`one_like` gives the mode's 1, from
which every zero, one and tie share is built; :func:`improves` is the
one strict-improvement test (better by more than 1e-9 in float mode,
grid mode included).  Ties at the peak are knife-edge, so equilibrium
verification should always be driven with rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

#: comparison tolerance used whenever floats are involved
FLOAT_TOL = 1e-9

#: slack allowed on the simplex cap for float inputs (arithmetic noise)
SIMPLEX_TOL = 1e-12


class DomainError(ValueError):
    """A request that is outside the defined domain of an operation."""


class CapacityError(RuntimeError):
    """A computation that would exceed a configured enumeration budget."""


def is_exact(*values: Number) -> bool:
    """True when every value is an int or Fraction (no float anywhere)."""
    return all(not isinstance(v, float) for v in values)


def one_like(*values: Number) -> Number:
    """The unit of the values' mode: Fraction(1) when all are exact, else 1.0."""
    return Fraction(1) if is_exact(*values) else 1.0


def simplex_cap(*emphases: Number) -> Number:
    """Largest allowed emphasis total: 1, plus SIMPLEX_TOL of noise in float mode."""
    return 1 if is_exact(*emphases) else 1 + SIMPLEX_TOL


def numbers_equal(a: Number, b: Number) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= FLOAT_TOL
    return a == b


def number_less(a: Number, b: Number) -> bool:
    """a < b strictly, beyond tolerance in float mode."""
    if isinstance(a, float) or isinstance(b, float):
        return a < b - FLOAT_TOL
    return a < b


def improves(new: Number, old: Number) -> bool:
    """True when `new` beats `old` strictly, beyond tolerance in float mode."""
    return new > old and not numbers_equal(new, old)


def parse_number(value) -> Number:
    """Parse a JSON/CLI scalar into an exact number where possible.

    Ints stay ints, strings accept both "p/q" and decimal forms, and
    floats are read back through their shortest decimal representation
    (so a user-written 0.45 becomes Fraction(9, 20), not the binary
    float).  Callers that really want float semantics should pass floats
    through :func:`float` themselves.
    """
    if isinstance(value, bool):
        raise DomainError(f"expected a number, got bool {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:  # nan and inf have no decimal form
            return Fraction(repr(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse number from {value!r}") from exc
    raise DomainError(f"cannot parse number from {value!r}")


def number_to_json(value: Number):
    """Render a number for JSON output.

    Exact non-integer rationals are emitted as "p/q" strings so that a
    round-trip through the CLI keeps equilibrium checks exact; floats
    and integers pass through unchanged.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _map_nested(value, leaf):
    if isinstance(value, (list, tuple)):
        return [_map_nested(v, leaf) for v in value]
    return leaf(value)


def float_view(value):
    """A number, or nested sequences of numbers, as floats in lists."""
    return _map_nested(value, float)


def dual_view(key: str, value) -> dict:
    """``{key: float view, key + "_exact": number_to_json view}`` for JSON output."""
    return {key: float_view(value), key + "_exact": _map_nested(value, number_to_json)}


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, b > 0."""
    return -((-a) // b)
