"""The effective separator F by scanning the fixed enumeration of Q, and
the dyadic ladder of F by its defining recursion.

This is how effective_F was computed before its closed form: walk 0, then
the Calkin-Wilf walk interleaved with its negatives, and stop at the first
rational q with a ⊆ (-inf,q) and b ⊆ (q,inf) -- [q,inf) in gts -- or the
other way round.  Only set algebra decides a hit, so none of the library's
sup/inf region arithmetic or Stern-Brocot descent is shared with the code
being checked.  The scan walks at most SCAN_CAP terms of the enumeration and
raises ResourceError past them.

Deep scans would spend seconds in set algebra, so each rational is first
tested against a few member points of a and b (the finite component ends
each set contains).  That test is necessary for a hit, so it only skips
rationals the set algebra would reject.

recursive_ladder is how ladder_from_F was computed before its closed form:
2^level - 1 calls of effective_F, one a rung.
"""

import gtopo.realline as realline
from gtopo.errors import ResourceError
from gtopo.rationals import (dyadic_neighbors, dyadics_by_level,
                             enum_all_rationals)
from gtopo.realline import (SymbolicLadder, SymbolicWitness, classify,
                            closure_sym)
from gtopo.symsets import ALL_REALS, EMPTY_SET, above, below

SCAN_CAP = 1_000_000
# Terms computed so far, replayed by later scans: the ladder comparisons
# make hundreds of deep scans.
_STREAM = enum_all_rationals()
_WALKED = []


def _walk():
    """The first SCAN_CAP terms of enum_all_rationals()."""
    for i in range(SCAN_CAP):
        if i == len(_WALKED):
            _WALKED.append(next(_STREAM))
        yield _WALKED[i]


def _member_ends(s):
    return [e for c in s.components for e in (c.lo, c.hi)
            if e is not None and s.contains(e)]


def scan_split_point(a, b, space):
    """Index and value of the first rational that splits a from b."""
    closed = space == "gts"
    ends_a, ends_b = _member_ends(a), _member_ends(b)

    def may_split(q, left, right):
        return (all(x < q for x in left)
                and all(y > q or (closed and y == q) for y in right))

    def hit(q):
        return ((may_split(q, ends_a, ends_b)
                 and a.issubset(below(q)) and b.issubset(above(q, closed)))
                or (may_split(q, ends_b, ends_a)
                    and b.issubset(below(q)) and a.issubset(above(q, closed))))

    for i, q in enumerate(_walk()):
        if hit(q):
            return i, q
    raise ResourceError(f"no split point among the first {SCAN_CAP} "
                        "rationals; refusing to scan further")


def scan_effective_F(a, b, space):
    """effective_F for a disjoint closed pair, with the split point scanned."""
    if space == "gts":
        if classify(a, "gts") in ("open", "clopen"):
            return SymbolicWitness(a, a.complement())
        if classify(b, "gts") in ("open", "clopen"):
            return SymbolicWitness(b.complement(), b)
    elif a.is_empty:
        return SymbolicWitness(EMPTY_SET, ALL_REALS)
    elif b.is_empty:
        return SymbolicWitness(ALL_REALS, EMPTY_SET)
    closed = space == "gts"
    _, q = scan_split_point(a, b, space)
    if a.issubset(below(q)) and b.issubset(above(q, closed)):
        return SymbolicWitness(below(q), above(q, closed))
    return SymbolicWitness(above(q, closed), below(q))


def recursive_ladder(a, b, space, level):
    """ladder_from_F's ladder for a checked pair, by the dyadic recursion:
    rung r separates the closure of the rung below it from the complement of
    the rung above, with rung 0 standing for a and the complement of rung 1
    for b.  effective_F is looked up on realline at every call, so a test
    can record the calls."""
    rungs = {}
    for r in dyadics_by_level(level):
        lo_n, hi_n = dyadic_neighbors(r)
        lower = closure_sym(rungs[lo_n], space) if lo_n in rungs else a
        upper = rungs[hi_n].complement() if hi_n in rungs else b
        rungs[r] = realline.effective_F(lower, upper, space).u
    return SymbolicLadder(tuple(sorted(rungs.items())))
