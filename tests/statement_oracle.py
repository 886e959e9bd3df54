"""Brute-force oracles for the finite separation statements.

These are the exhaustive searches the clopen kernel replaced: TET/GTET by
filtering every (ordered or unordered) partition of each closed set and of
the whole space against the open traces, UL witnesses by searching exact
covers of the space by opens, and normality by searching disjoint open
covers of each disjoint closed pair.  Nothing here asks which sets are
clopen, so the clopen collapse that `gtopo.urysohn` relies on is checked
rather than assumed.  Feasible up to 5 points (541 ordered partitions of 5
points).

The per-structure GTET search (`chain_report`) is the clopen form that the
fused search in `gtopo.urysohn` replaced: it lists every clopen chain of
each closed set and runs a fresh depth-first search per chain for nested
clopens of the space that trace it.  Its work grows with the number of
chains, like the ordered set partitions, but it asks nothing of the fused
search's reach sets or memo, and it runs on 6 and 7 points.
"""

from fractions import Fraction
from itertools import accumulate
from operator import or_
from typing import Iterator, Optional

from gtopo.spaces import canonical_key
from gtopo.urysohn import (FiniteFunction, StatementReport, _partition_values,
                           constant_function)


def submasks(region: int) -> Iterator[int]:
    """Every submask of region in descending order, ending with 0."""
    s = region
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & region


def ordered_partitions(region: int) -> Iterator[tuple[int, ...]]:
    """All ordered partitions of region into nonempty blocks."""
    if region == 0:
        yield ()
        return
    for first in submasks(region):
        if first:
            for rest in ordered_partitions(region ^ first):
                yield (first, *rest)


def set_partitions(region: int) -> Iterator[tuple[int, ...]]:
    """All unordered partitions, one representative each: the block holding
    the least remaining point comes first."""
    if region == 0:
        yield ()
        return
    low = region & -region
    for extra in submasks(region ^ low):
        first = low | extra
        for rest in set_partitions(region ^ first):
            yield (first, *rest)


def continuous_partitions(trace_opens, region: int,
                          target: str) -> list[tuple[int, ...]]:
    """Partitions of region that are continuous fiber structures relative to
    the given open traces: taun wants every block open, gtaun wants every
    prefix and suffix union open (block order = value order)."""
    if target == "taun":
        return [part for part in set_partitions(region)
                if all(m in trace_opens for m in part)]
    out = []
    for part in ordered_partitions(region):
        pre = suf = 0
        ok = True
        for m, w in zip(part, reversed(part)):
            pre |= m
            suf |= w
            if pre not in trace_opens or suf not in trace_opens:
                ok = False
                break
        if ok:
            out.append(part)
    return out


def extension_report(space, statement: str) -> StatementReport:
    """TET/GTET by brute force: every continuous fiber structure on every
    closed subspace must be the trace of one on the whole space."""
    target = "taun" if statement == "TET" else "gtaun"
    xparts = continuous_partitions(space.open_set, space.full, target)
    for a in space.closeds:
        trace_opens = {u & a for u in space.opens}
        for part in continuous_partitions(trace_opens, a, target):
            if not _extends(part, a, xparts, target):
                return StatementReport(statement, False,
                                       counterexample=(a, _partition_values(part)))
    return StatementReport(statement, True)


def _extends(part, a, xparts, target) -> bool:
    if target == "gtaun":
        return any(tuple(q & a for q in qs if q & a) == part for qs in xparts)
    want = frozenset(part)
    return any(frozenset(q & a for q in qs if q & a) == want for qs in xparts)


def partition_region(space, region: int) -> Optional[list[int]]:
    """First exact cover of region by disjoint nonempty opens, or None."""
    if region == 0:
        return []
    p = (region & -region).bit_length() - 1
    for u in space.opens:
        if u and u >> p & 1 and u & ~region == 0:
            rest = partition_region(space, region ^ u)
            if rest is not None:
                return [u] + rest
    return None


def ul_witness(space, a: int, b: int) -> Optional[FiniteFunction]:
    """UL witness by the fiber criterion over opens: the first open ua
    around a and ub around b that leave an open partition of the rest, with
    values 0, 1 and then 2, 3, ... on the rest in canonical order."""
    if a == 0:
        return constant_function(space.n, 1)
    if b == 0:
        return constant_function(space.n, 0)
    for ua in space.opens:
        if a & ~ua or ua & b:
            continue
        for ub in space.opens:
            if b & ~ub or ub & ua:
                continue
            rest = partition_region(space, space.full ^ (ua | ub))
            if rest is None:
                continue
            values = [Fraction(0)] * space.n
            blocks = [(ua, Fraction(0)), (ub, Fraction(1))]
            blocks += [(m, Fraction(k)) for k, m in
                       enumerate(sorted(rest, key=canonical_key), start=2)]
            for m, v in blocks:
                for p in range(space.n):
                    if m >> p & 1:
                        values[p] = v
            return FiniteFunction(tuple(values))
    return None


def normality_defect(space) -> Optional[tuple[int, int]]:
    """First disjoint closed pair, in canonical order with a before b, that
    has no disjoint open covers, or None."""
    closeds = space.closeds
    for i, a in enumerate(closeds):
        for b in closeds[i:]:
            if not a & b and not _has_open_cover(space, a, b):
                return (a, b)
    return None


def _has_open_cover(space, a: int, b: int) -> bool:
    return any(a & ~u == 0 and b & ~v == 0 and not u & v
               for u in space.opens for v in space.opens)


def clopen_chains(clopens, region: int,
                  prefix: int = 0) -> Iterator[tuple[int, ...]]:
    """Ordered partitions of region whose prefix unions are among the given
    clopens of region, blocks tried in the order of the clopens; these are
    its gtaun-continuous fiber structures."""
    if prefix == region:
        yield ()
        return
    for c in clopens:
        if c & prefix == prefix and c != prefix:
            for rest in clopen_chains(clopens, region, c):
                yield (c ^ prefix, *rest)


def extends_chain(space, a: int, part: tuple[int, ...]) -> bool:
    """Nested clopens D_1 <= ... <= D_{k-1} of the space with D_j & a the
    j-th prefix union of part, i.e. a clopen chain tracing part on a."""
    prefixes = list(accumulate(part, or_))[:-1]

    def dfs(j: int, floor: int) -> bool:
        if j == len(prefixes):
            return True
        return any(dfs(j + 1, d) for d in space.clopens
                   if d & floor == floor and d & a == prefixes[j])

    return dfs(0, 0)


def chain_report(space) -> StatementReport:
    """GTET by one search per structure: every closed set a, including the
    empty set and the whole space, and every clopen chain on a in the order
    of its trace-clopens, descending."""
    for a in space.closeds:
        traces = {u & a for u in space.opens}
        tclopens = sorted((c for c in traces if a ^ c in traces), reverse=True)
        for part in clopen_chains(tclopens, a):
            if not extends_chain(space, a, part):
                return StatementReport("GTET", False,
                                       counterexample=(a, _partition_values(part)))
    return StatementReport("GTET", True)
