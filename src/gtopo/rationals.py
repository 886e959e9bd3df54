"""Exact enumerations of the rationals.

Three deterministic streams, all exact:

* the Calkin-Wilf walk of the positive rationals (each appears exactly once,
  O(1) arithmetic per step),
* an enumeration of all of Q: 0 first, then the walk interleaved with its
  negatives,
* an enumeration of Q within (0,1) as (numerator, denominator) pairs:
  reduced fractions by denominator, then numerator.

first_in_interval finds the first term of enum_all_rationals() inside an
interval in closed form: the Calkin-Wilf and Stern-Brocot trees share their
rows, so that term is 0 or the set's unique shallowest Stern-Brocot node
(with its sign), found by a continued-fraction descent without walking the
stream.
"""

import math
from fractions import Fraction
from typing import Iterator

from .errors import InputError


def calkin_wilf() -> Iterator[Fraction]:
    """Positive rationals: 1, 1/2, 2, 1/3, 3/2, 2/3, 3, 1/4, 4/3, ...

    Successor rule: q -> 1/(2*floor(q) - q + 1).
    """
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def enum_all_rationals() -> Iterator[Fraction]:
    """All of Q: 0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3, 3/2, -3/2, ..."""
    yield Fraction(0)
    for q in calkin_wilf():
        yield q
        yield -q


def unit_ratios() -> Iterator[tuple[int, int]]:
    """(numerator, denominator) of each rational in (0,1), reduced, by
    denominator then numerator: (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), ..."""
    den = 2
    while True:
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                yield num, den
        den += 1


def _simplest_positive(lo: Fraction, lo_closed: bool, hi, hi_closed: bool):
    """Shallowest Stern-Brocot node in a nonempty interval of (0, inf).

    lo >= 0 is finite (open when 0); hi is a Fraction or None for inf.  Each
    step either finds the least integer in the interval, which is then the
    shallowest node, or strips the common integer part n and inverts,
    x = n + 1/y, mapping the interval into (1, inf) for the next partial
    quotient.  (p, p0) / (q, q0) carry the last two convergents.
    """
    p, q, p0, q0 = 1, 0, 0, 1
    while True:
        n = lo.numerator // lo.denominator
        m = n if lo_closed and lo == n else n + 1
        if hi is None or m < hi or (m == hi and hi_closed):
            return Fraction(p * m + p0, q * m + q0)
        p, q, p0, q0 = p * n + p0, q * n + q0, p, q
        lo, lo_closed, hi, hi_closed = (
            1 / (hi - n), hi_closed,
            None if lo == n else 1 / (lo - n), lo_closed and lo != n)


def first_in_interval(lo, lo_closed: bool, hi, hi_closed: bool):
    """The first term of enum_all_rationals() in the interval from lo to hi,
    or None when the interval is empty; None for an end means infinite.

    Computed directly: 0 when the interval holds it, otherwise the simplest
    rational of the interval's positive mirror, with the interval's sign.
    That is exact because Calkin-Wilf row k holds the same rationals as
    Stern-Brocot row k, a convex set of positive rationals has exactly one
    shallowest Stern-Brocot node, and the enumeration lists q just before -q.
    """
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    lo_closed = lo_closed and lo is not None
    hi_closed = hi_closed and hi is not None
    if lo is not None and hi is not None and (
            lo > hi or (lo == hi and not (lo_closed and hi_closed))):
        return None
    above_zero = lo is not None and (lo > 0 or (lo == 0 and not lo_closed))
    below_zero = hi is not None and (hi < 0 or (hi == 0 and not hi_closed))
    if above_zero:
        return _simplest_positive(lo, lo_closed, hi, hi_closed)
    if below_zero:
        return -_simplest_positive(-hi, hi_closed,
                                   None if lo is None else -lo, lo_closed)
    return Fraction(0)


def is_dyadic_unit(r: Fraction) -> bool:
    """True when r = j/2^k lies in (0,1) with odd j (reduced form)."""
    d = r.denominator
    return 0 < r < 1 and (d & (d - 1)) == 0


def dyadic_neighbors(r: Fraction) -> tuple[Fraction, Fraction]:
    """For dyadic r = j/2^k in (0,1), the bracketing pair among strictly
    coarser dyadics together with 0 and 1: ((j-1)/2^k, (j+1)/2^k) reduced.
    """
    if not is_dyadic_unit(r):
        raise InputError(f"not a dyadic rational in (0,1): {r}")
    k = r.denominator
    return Fraction(r.numerator - 1, k), Fraction(r.numerator + 1, k)


def dyadics_by_level(max_level: int) -> Iterator[Fraction]:
    """Dyadics in (0,1) level by level: 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, ..."""
    for k in range(1, max_level + 1):
        for j in range(1, 2 ** k, 2):
            yield Fraction(j, 2 ** k)
