"""Generate-and-test loops of the finite half, kept as oracles.

These are how `gtopo` answered before closed forms replaced the loops:
- `close_under` joins each new member with the whole family, and
  `generated_topology` closes the opens under intersection, then union;
- `separation_profile` scans every pair of points for an open that holds
  one and misses the other;
- `decide_ul_pair` searches a clopen partition of the rest for each
  candidate fiber of b in turn;
- `extend_u_family` builds each candidate family and validates it whole.

The bodies are kept as they were, so the tests compare the closed forms
against them rather than against a restatement of the closed forms.
"""

import operator
from fractions import Fraction

from gtopo.errors import NoExtension, PreconditionError
from gtopo.rationals import unit_ratios
from gtopo.spaces import (FiniteGT, SeparationProfile, canonical_family,
                          canonical_key, clopen_separator, least_open_cover,
                          points_from_mask)
from gtopo.urysohn import (FiniteFunction, UFamily, _check_pair,
                           _clopen_partitions, constant_function,
                           validate_u_family)


def close_under(masks, op=operator.or_) -> set[int]:
    """Smallest superfamily closed under the pairwise operation op; for the
    default union this is closure under arbitrary (nonempty) unions."""
    family = set(masks)
    frontier = list(family)
    while frontier:
        m = frontier.pop()
        for x in list(family):
            u = op(m, x)
            if u not in family:
                family.add(u)
                frontier.append(u)
    return family


def generated_topology(space: FiniteGT) -> FiniteGT:
    """Smallest topology containing the opens: close under pairwise
    intersection, then under union."""
    if not space.is_strong:
        raise PreconditionError("generated topology requires a strong space")
    family = close_under(space.opens, operator.and_)
    return FiniteGT(space.n, canonical_family(close_under(family)))


def separation_profile(space: FiniteGT) -> SeparationProfile:
    """T0/T1 by opens seeing one point of a pair and not the other, T2 by
    least_open_cover on the pair, normality by the space's cached
    clopen defect."""
    n, opens = space.n, space.opens
    t0 = t1 = t2 = True
    for x in range(n):
        for y in range(x + 1, n):
            bx, by = 1 << x, 1 << y
            sees_x = any(u & bx and not u & by for u in opens)
            sees_y = any(u & by and not u & bx for u in opens)
            t0 = t0 and (sees_x or sees_y)
            t1 = t1 and (sees_x and sees_y)
            t2 = t2 and least_open_cover(space, bx, by) is not None
    return SeparationProfile(t0, t1, t2, space.defect is None)


def decide_ul_pair(space: FiniteGT, a: int, b: int):
    """Separating function into the interval topology, or None: for each
    clopen ub around b, in turn, search a clopen partition of the rest."""
    _check_pair(space, a, b)
    if a == 0:
        return constant_function(space.n, 1)
    if b == 0:
        return constant_function(space.n, 0)
    ua = clopen_separator(space, a, b)
    if ua is None:
        return None
    for ub in space.clopens:
        if b & ~ub or ub & ua:
            continue
        rest = next(_clopen_partitions(space.clopens,
                                       space.full ^ (ua | ub)), None)
        if rest is None:
            continue
        values = [Fraction(0)] * space.n
        for k, m in enumerate((ua, ub, *sorted(rest, key=canonical_key))):
            for p in points_from_mask(m):
                values[p] = Fraction(k)
        return FiniteFunction(tuple(values))
    return None     # unreachable: the complement of ua is a clopen ub


def extend_u_family(space: FiniteGT, fam: UFamily, a: int, b: int) -> UFamily:
    """Append one pair: the canonically least open-closed pair whose extended
    family still satisfies all chain clauses, each candidate family built
    and validated in full."""
    rep = validate_u_family(space, fam, a, b)
    if not rep.ok:
        raise PreconditionError(f"invalid family: clause {rep.clause}, "
                                f"{rep.detail}")
    label = next(q for q in (Fraction(*r) for r in unit_ratios())
                 if q not in fam.labels)
    floor = fam.pairs[-1][1] if fam.length else a
    for u in space.opens:
        if floor & ~u:
            continue
        for f in space.closeds:
            if u & ~f or f & b:
                continue
            cand = UFamily(fam.labels + (label,), fam.pairs + ((u, f),))
            if validate_u_family(space, cand, a, b).ok:
                return cand
    raise NoExtension("no pair extends the family", blocking=(a, b))
