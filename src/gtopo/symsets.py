"""Exact subsets of the real line with rational endpoints.

A SymbolicSet is a finite union of pairwise disjoint, non-adjacent intervals
whose finite endpoints are Fractions (None encodes an infinite end).  That
family is closed under union, intersection, complement and difference, so the
whole boolean algebra runs exactly, with no approximation anywhere.

Canonical form: components sorted by lower endpoint, touching or overlapping
intervals merged.  Two SymbolicSets are equal as sets iff they are equal as
dataclasses, so == is extensional equality.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError

Endpoint = Optional[Fraction]  # None = the relevant infinity


def as_fraction(v, what: str = "value") -> Fraction:
    """Coerce to Fraction, refusing floats (exactness is the whole point).
    An exact Fraction is returned as it is."""
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise InputError(f"refusing inexact float {what}: {v!r}")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational {what}: {v!r}") from exc


def _opt_fraction(v, what: str) -> Endpoint:
    return None if v is None else as_fraction(v, what)


@dataclass(frozen=True)
class Interval:
    """One nonempty interval; infinite ends are necessarily open."""

    lo: Endpoint
    hi: Endpoint
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise InputError("an infinite lower end cannot be closed")
        if self.hi is None and self.hi_closed:
            raise InputError("an infinite upper end cannot be closed")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise InputError(f"reversed interval endpoints: {self.lo} > {self.hi}")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise InputError("empty interval (equal endpoints need both ends closed)")

    def contains(self, q: Fraction) -> bool:
        if self.lo is not None and (q < self.lo or (q == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (q > self.hi or (q == self.hi and not self.hi_closed)):
            return False
        return True

    @property
    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi


def _lo_key(iv: Interval) -> tuple:
    # -inf sorts first; at a shared finite endpoint a closed start sorts first.
    return (iv.lo is not None, iv.lo if iv.lo is not None else 0, not iv.lo_closed)


def _touches(left: Interval, right: Interval) -> bool:
    """With right starting no earlier than left: do they overlap or abut?"""
    if left.hi is None or right.lo is None:
        return True
    if right.lo < left.hi:
        return True
    return right.lo == left.hi and (left.hi_closed or right.lo_closed)


def _merge(left: Interval, right: Interval) -> Interval:
    if left.hi is None or right.hi is None:
        hi, hic = None, False
    elif left.hi > right.hi:
        hi, hic = left.hi, left.hi_closed
    elif right.hi > left.hi:
        hi, hic = right.hi, right.hi_closed
    else:
        hi, hic = left.hi, left.hi_closed or right.hi_closed
    return Interval(left.lo, hi, left.lo_closed, hic)


def _canonical(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    out: list[Interval] = []
    for iv in sorted(intervals, key=_lo_key):
        if out and _touches(out[-1], iv):
            out[-1] = _merge(out[-1], iv)
        else:
            out.append(iv)
    return tuple(out)


@dataclass(frozen=True)
class SymbolicSet:
    """Canonical finite union of intervals; build via make_set or the factories."""

    components: tuple[Interval, ...]

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def is_all(self) -> bool:
        return (len(self.components) == 1
                and self.components[0].lo is None
                and self.components[0].hi is None)

    def contains(self, q) -> bool:
        q = as_fraction(q, "point")
        return any(c.contains(q) for c in self.components)

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(_canonical(self.components + other.components))

    def complement(self) -> "SymbolicSet":
        if self.is_empty:
            return ALL_REALS
        gaps: list[Interval] = []
        first, last = self.components[0], self.components[-1]
        if first.lo is not None:
            gaps.append(Interval(None, first.lo, False, not first.lo_closed))
        for cur, nxt in zip(self.components, self.components[1:]):
            gaps.append(Interval(cur.hi, nxt.lo, not cur.hi_closed, not nxt.lo_closed))
        if last.hi is not None:
            gaps.append(Interval(last.hi, None, not last.hi_closed, False))
        return SymbolicSet(tuple(gaps))

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersection(other.complement())

    def issubset(self, other: "SymbolicSet") -> bool:
        return self.difference(other).is_empty

    def isdisjoint(self, other: "SymbolicSet") -> bool:
        return self.intersection(other).is_empty

    def inf(self) -> tuple[Endpoint, bool]:
        """(greatest lower bound, attained?); None = unbounded below."""
        if self.is_empty:
            raise InputError("the empty set has no infimum")
        first = self.components[0]
        return first.lo, first.lo is not None and first.lo_closed

    def sup(self) -> tuple[Endpoint, bool]:
        """(least upper bound, attained?); None = unbounded above."""
        if self.is_empty:
            raise InputError("the empty set has no supremum")
        last = self.components[-1]
        return last.hi, last.hi is not None and last.hi_closed


EMPTY_SET = SymbolicSet(())
ALL_REALS = SymbolicSet((Interval(None, None, False, False),))


def make_set(intervals: Iterable[Interval]) -> SymbolicSet:
    return SymbolicSet(_canonical(intervals))


def interval(lo, hi, lo_closed: bool, hi_closed: bool) -> SymbolicSet:
    return SymbolicSet((Interval(_opt_fraction(lo, "endpoint"),
                                 _opt_fraction(hi, "endpoint"),
                                 lo_closed, hi_closed),))


def point(q) -> SymbolicSet:
    q = as_fraction(q, "point")
    return SymbolicSet((Interval(q, q, True, True),))


def below(a, closed: bool = False) -> SymbolicSet:
    """(-inf, a) or (-inf, a]."""
    return interval(None, a, False, closed)


def above(a, closed: bool = False) -> SymbolicSet:
    """(a, inf) or [a, inf)."""
    return interval(a, None, closed, False)
