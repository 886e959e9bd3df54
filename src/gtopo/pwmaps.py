"""Piecewise-affine maps R -> R with exact rational data.

A PiecewiseMap is n breakpoints, n+1 affine pieces governing the open
intervals between them, and n explicit values at the breakpoints themselves.
Everything downstream (preimages, images, limit values at piece ends) is
computed exactly by solving the affine pieces, so continuity decisions never
touch floating point.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .symsets import (EMPTY_SET, Endpoint, Interval, SymbolicSet, as_fraction,
                      make_set)

Piece = tuple[Fraction, Fraction]  # (slope, intercept) for x -> slope*x + intercept


@dataclass(frozen=True)
class PiecewiseMap:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Piece, ...]        # len(breakpoints) + 1, outermost two unbounded
    values: tuple[Fraction, ...]     # value at each breakpoint

    def piece_interval(self, k: int) -> tuple[Endpoint, Endpoint]:
        """Open interval governed by piece k (None = infinite end)."""
        lo = self.breakpoints[k - 1] if k > 0 else None
        hi = self.breakpoints[k] if k < len(self.breakpoints) else None
        return lo, hi

    def value_at(self, x) -> Fraction:
        x = as_fraction(x, "argument")
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            return self.values[i]
        m, t = self.pieces[i]
        return m * x + t

    def preimage_open(self, lo, hi) -> SymbolicSet:
        """Preimage of the open window (lo, hi); None means unbounded."""
        lo = None if lo is None else as_fraction(lo, "window end")
        hi = None if hi is None else as_fraction(hi, "window end")
        if lo is not None and hi is not None and lo >= hi:
            return EMPTY_SET
        parts: list[Interval] = []
        for k, (m, t) in enumerate(self.pieces):
            plo, phi = self.piece_interval(k)
            if m == 0:
                if _in_window(t, lo, hi):
                    parts.append(Interval(plo, phi, False, False))
                continue
            # solve lo < m*x + t < hi for x, all bounds strict
            b1 = None if lo is None else (lo - t) / m
            b2 = None if hi is None else (hi - t) / m
            xlo, xhi = (b1, b2) if m > 0 else (b2, b1)
            xlo = _max_end(xlo, plo)
            xhi = _min_end(xhi, phi)
            if xlo is None or xhi is None or xlo < xhi:
                parts.append(Interval(xlo, xhi, False, False))
        for b, v in zip(self.breakpoints, self.values):
            if _in_window(v, lo, hi):
                parts.append(Interval(b, b, True, True))
        return make_set(parts)

    def image(self) -> SymbolicSet:
        parts: list[Interval] = []
        for k, (m, t) in enumerate(self.pieces):
            plo, phi = self.piece_interval(k)
            if m == 0:
                parts.append(Interval(t, t, True, True))
                continue
            vlo = None if plo is None else m * plo + t
            vhi = None if phi is None else m * phi + t
            if m < 0:
                vlo, vhi = vhi, vlo
            parts.append(Interval(vlo, vhi, False, False))
        for v in self.values:
            parts.append(Interval(v, v, True, True))
        return make_set(parts)

    def criticals(self) -> list[Fraction]:
        """Breakpoint values plus finite one-sided limits at piece ends.

        Between consecutive criticals every open window (p,q) pulls back to a
        set of one fixed shape.  The window-sweep oracle in the tests probes
        around these, and the benchmark counts them.
        """
        out = set(self.values)
        for k, (m, t) in enumerate(self.pieces):
            for end in self.piece_interval(k):
                if end is not None:
                    out.add(m * end + t)
        return sorted(out)

    def one_minus(self) -> "PiecewiseMap":
        return PiecewiseMap(self.breakpoints,
                            tuple((-m, 1 - t) for m, t in self.pieces),
                            tuple(1 - v for v in self.values))

    def equals_on(self, other: "PiecewiseMap", region: SymbolicSet) -> bool:
        """Exact pointwise agreement with other everywhere on region."""
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints)
                      | {e for c in region.components
                         for e in (c.lo, c.hi) if e is not None})
        for q in cuts:
            if region.contains(q) and self.value_at(q) != other.value_at(q):
                return False
        anchors = [None] + cuts + [None]     # cuts strictly increase
        for lo, hi in zip(anchors, anchors[1:]):
            for x in _two_samples(lo, hi):
                if region.contains(x) and self.value_at(x) != other.value_at(x):
                    return False
        return True


def _in_window(v: Fraction, lo: Endpoint, hi: Endpoint) -> bool:
    return (lo is None or v > lo) and (hi is None or v < hi)


def _max_end(a: Endpoint, b: Endpoint) -> Endpoint:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_end(a: Endpoint, b: Endpoint) -> Endpoint:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _two_samples(lo: Endpoint, hi: Endpoint) -> tuple[Fraction, Fraction]:
    """Two interior rationals of the open interval (lo, hi).

    Two points pin down an affine function, so sampling both maps there
    decides agreement on the whole gap exactly.
    """
    if lo is None and hi is None:
        return Fraction(0), Fraction(1)
    if lo is None:
        return hi - 2, hi - 1
    if hi is None:
        return lo + 1, lo + 2
    step = (hi - lo) / 3
    return lo + step, lo + 2 * step


def make_pwmap(breakpoints: Sequence, pieces: Iterable[Sequence],
               values: Sequence) -> PiecewiseMap:
    bps = tuple(as_fraction(b, "breakpoint") for b in breakpoints)
    for a, b in zip(bps, bps[1:]):
        if a >= b:
            raise InputError(f"breakpoints must be strictly increasing: {a} then {b}")
    ps = tuple((as_fraction(m, "slope"), as_fraction(t, "intercept"))
               for m, t in pieces)
    vs = tuple(as_fraction(v, "breakpoint value") for v in values)
    if len(ps) != len(bps) + 1:
        raise InputError(f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, "
                         f"got {len(ps)}")
    if len(vs) != len(bps):
        raise InputError(f"need one value per breakpoint, got {len(vs)} for {len(bps)}")
    return PiecewiseMap(bps, ps, vs)


def constant_map(value) -> PiecewiseMap:
    return PiecewiseMap((), ((Fraction(0), as_fraction(value, "value")),), ())

