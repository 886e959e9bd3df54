"""Finite generalized topological spaces on {0..n-1}.

A generalized topology (GT) is a family of point-sets closed under arbitrary
unions; the empty set is forced (union of nothing), membership of the whole
ground set is the "strong" property, and closure under pairwise intersection
upgrades the family to an honest topology.  Point-sets are int bitmasks,
families are tuples of masks in a canonical order, and every operation here
is a pure function so census sweeps can memoize freely.
"""

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import InputError, PreconditionError, ResourceError


# ---------------------------------------------------------------- bitmask sets

def mask_from_points(points: Iterable[int], n: int) -> int:
    m = 0
    for p in points:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"point indices must be integers, got {p!r}")
        if not 0 <= p < n:
            raise InputError(f"point {p!r} outside ground set 0..{n - 1}")
        m |= 1 << p
    return m


def points_from_mask(mask: int) -> list[int]:
    """The points of mask in increasing order; the walk visits only the set
    bits, so a singleton on thousands of points costs one step."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(p) for p in points_from_mask(mask)) + "}"


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key for point-sets: cardinality, then the point tuple."""
    return mask.bit_count(), tuple(points_from_mask(mask))


def canonical_family(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=canonical_key))


def close_under(masks: Iterable[int], op=operator.or_) -> set[int]:
    """Smallest superfamily closed under the pairwise operation op (union by
    default), which must be associative and commutative: then each member is
    a join of generators, so new members are joined with generators only."""
    gens = tuple(set(masks))
    family, frontier = set(gens), list(gens)
    while frontier:
        m = frontier.pop()
        for g in gens:
            u = op(m, g)
            if u not in family:
                family.add(u)
                frontier.append(u)
    return family


def _first_missing(masks: tuple[int, ...], op) -> Optional[tuple[int, int]]:
    """First pair (a, b), a before b in masks, whose op(a, b) is not in
    masks, or None: the one scan behind the union and meet axioms."""
    have = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if op(a, b) not in have:
                return a, b
    return None


# ---------------------------------------------------------------- core types

@dataclass(frozen=True)
class FiniteGT:
    """A GT on points 0..n-1: opens are bitmasks in canonical order.

    Construct through make_space (validating) or the census/product/subspace
    builders, which are union-closed by construction.
    """

    n: int
    opens: tuple[int, ...]

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def open_set(self) -> frozenset[int]:
        return frozenset(self.opens)

    @cached_property
    def closeds(self) -> tuple[int, ...]:
        return canonical_family(self.full ^ u for u in self.opens)

    @cached_property
    def closed_set(self) -> frozenset[int]:
        return frozenset(self.closeds)

    @cached_property
    def clopens(self) -> tuple[int, ...]:
        return tuple(m for m in self.opens if m in self.closed_set)

    @cached_property
    def defect(self) -> Optional[tuple[int, int]]:
        """clopen_defect of the space, scanned once and shared by every
        decider that rests on clopen separation."""
        return clopen_defect(self)

    @property
    def is_strong(self) -> bool:
        return self.full in self.open_set

    @cached_property
    def is_topology(self) -> bool:
        return _first_missing(self.opens, operator.and_) is None

    def is_open(self, mask: int) -> bool:
        return mask in self.open_set

    def is_closed(self, mask: int) -> bool:
        return mask in self.closed_set


@dataclass(frozen=True)
class GTReport:
    is_gt: bool
    is_strong: bool
    is_topology: bool
    violation: str | None
    family: tuple[int, ...]     # the distinct masks, canonical order


@dataclass(frozen=True)
class SeparationProfile:
    t0: bool
    t1: bool
    t2: bool
    normal: bool


# ---------------------------------------------------------------- validation

SPACE_MAX_POINTS = 4096     # so that 1 << n stays a small int
SPACE_MAX_OPENS = 4096      # the opens of a 12-point powerset


def _check_masks(masks: Iterable[int], n: int) -> list[int]:
    if n < 0:
        raise InputError(f"point count must be >= 0, got {n}")
    full = (1 << n) - 1
    out = []
    for m in masks:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise InputError(f"not a bitmask: {m!r}")
        if m & ~full:
            raise InputError(
                f"set {fmt_mask(m)} has a point outside 0..{n - 1}")
        out.append(m)
    return out


def _canonical_masks(family: Iterable[int], n: int) -> tuple[int, ...]:
    """The family checked against n and put in canonical order.  Above
    SPACE_MAX_POINTS points or SPACE_MAX_OPENS distinct opens it is refused
    with ResourceError, before the axiom scans, which are quadratic in the
    number of opens."""
    if n > SPACE_MAX_POINTS:
        raise ResourceError(f"space has more than {SPACE_MAX_POINTS} points; "
                            "refusing")
    masks = canonical_family(_check_masks(family, n))
    if len(masks) > SPACE_MAX_OPENS:
        raise ResourceError(f"family has {len(masks)} distinct opens, above "
                            f"{SPACE_MAX_OPENS}; refusing")
    return masks


def _gt_violation(masks: tuple[int, ...]) -> Optional[str]:
    """First failed GT axiom of a canonical family, or None."""
    if 0 not in masks:
        return "missing empty set"
    pair = _first_missing(masks, operator.or_)
    return pair and f"missing union {fmt_mask(pair[0])} | {fmt_mask(pair[1])}"


def validate_gt(family: Iterable[int], n: int) -> GTReport:
    """Diagnose a family of bitmasks against the GT and topology axioms.

    violation names the first failed axiom in canonical scan order: the
    missing empty set, then the first missing pairwise union (make_space
    runs the same scan), then (for topology only) the first missing
    pairwise intersection.  Spaces of more than SPACE_MAX_POINTS points or
    SPACE_MAX_OPENS distinct opens are refused with ResourceError before any
    scan.  The report carries the family it scanned, sorted once.
    """
    masks = _canonical_masks(family, n)
    violation = _gt_violation(masks)
    if violation is not None:
        return GTReport(False, False, False, violation, masks)
    pair = _first_missing(masks, operator.and_)
    return GTReport(True, (1 << n) - 1 in masks, pair is None,
                    pair and f"missing intersection {fmt_mask(pair[0])} & "
                             f"{fmt_mask(pair[1])}", masks)


def make_space(n: int, family: Iterable[int]) -> FiniteGT:
    """Validating constructor; refuses families that are not GTs, and, as
    validate_gt does, oversized ones before any scan.  It scans the GT
    axioms only, as validate_gt does, and no meets."""
    masks = _canonical_masks(family, n)
    violation = _gt_violation(masks)
    if violation is not None:
        raise PreconditionError(f"not a generalized topology: {violation}")
    return FiniteGT(n, masks)


# ---------------------------------------------------------------- operators

def closure(space: FiniteGT, a: int) -> int:
    """Intersection of all closed supersets of a (the whole space is always
    closed, so the intersection is never over an empty collection)."""
    _check_masks([a], space.n)
    acc = space.full
    for c in space.closeds:
        if a & ~c == 0:
            acc &= c
    return acc


def interior(space: FiniteGT, a: int) -> int:
    _check_masks([a], space.n)
    acc = 0
    for u in space.opens:
        if u & ~a == 0:
            acc |= u
    return acc


def clopen_separator(space: FiniteGT, a: int, b: int) -> Optional[int]:
    """Canonically least clopen set containing a and missing b, or None.

    On a finite space this one predicate carries normality: if every
    disjoint closed pair has disjoint open covers, then a <= u gives a
    closed cl(u) that still misses b, a cover u' of cl(u) follows, and the
    rising chain a <= u <= cl(u) <= u' <= ... stops at a clopen set.
    """
    for c in space.clopens:
        if a & ~c == 0 and c & b == 0:
            return c
    return None


def least_open_cover(space: FiniteGT, a: int,
                     b: int) -> Optional[tuple[int, int]]:
    """Canonically least disjoint open pair (u, v) with a <= u and b <= v,
    u taken first, or None.  It decides T2 on singleton pairs, and its
    pairs fill the effective witness table of urysohn."""
    for u in space.opens:
        if a & ~u:
            continue
        for v in space.opens:
            if b & ~v == 0 and not u & v:
                return (u, v)
    return None


def clopen_defect(space: FiniteGT) -> Optional[tuple[int, int]]:
    """First disjoint closed pair, in canonical order with a before b, that
    no clopen set separates; None exactly when the space is normal."""
    closeds = space.closeds
    for i, a in enumerate(closeds):
        for b in closeds[i:]:
            if not a & b and clopen_separator(space, a, b) is None:
                return (a, b)
    return None


def subspace(space: FiniteGT, a: int) -> FiniteGT:
    """Trace GT on a, points relabeled to 0..|a|-1 in point order."""
    _check_masks([a], space.n)
    points = points_from_mask(a)
    where = {p: i for i, p in enumerate(points)}
    traces = set()
    for u in space.opens:
        traces.add(mask_from_points((where[p] for p in points_from_mask(u & a)),
                                    len(points)))
    return FiniteGT(len(points), canonical_family(traces))


def product(s1: FiniteGT, s2: FiniteGT) -> FiniteGT:
    """Cross GT on X1 x X2 (row-major): opens (U x X2) | (X1 x V)."""
    if not (s1.is_strong and s2.is_strong):
        raise PreconditionError("product requires strong factors")
    n = s1.n * s2.n
    rows = {u: stretch_rows(u, s1.n, s2.n) for u in s1.opens}
    cols = {v: stretch_cols(v, s1.n, s2.n) for v in s2.opens}
    opens = {rows[u] | cols[v] for u in s1.opens for v in s2.opens}
    return FiniteGT(n, canonical_family(opens))


def stretch_rows(u: int, n1: int, n2: int) -> int:
    row = (1 << n2) - 1
    m = 0
    for p in points_from_mask(u):
        m |= row << (p * n2)
    return m


def stretch_cols(v: int, n1: int, n2: int) -> int:
    m = 0
    for q in points_from_mask(v):
        for p in range(n1):
            m |= 1 << (p * n2 + q)
    return m


def rect_factors(m: int, n1: int, n2: int) -> tuple[int, int]:
    """Row and column projections of a point-set of the product layout."""
    rows = 0
    cols = 0
    for x in range(n1):
        for y in range(n2):
            if m >> (x * n2 + y) & 1:
                rows |= 1 << x
                cols |= 1 << y
    return rows, cols


def _least_neighbourhoods(space: FiniteGT) -> Iterator[int]:
    """N(x), the meet of X and the opens holding x, for each point x; x is in
    N(y) exactly when every open holding y holds x."""
    for x in range(space.n):
        acc = space.full
        for u in space.opens:
            if u >> x & 1:
                acc &= u
        yield acc


def generated_topology(space: FiniteGT) -> FiniteGT:
    """Smallest topology containing the opens: the unions of the least
    neighbourhoods N(x), each a finite meet of opens.  A finite meet m of
    opens is the union of the N(x) over x in m (Alexandroff 1937)."""
    if not space.is_strong:
        raise PreconditionError("generated topology requires a strong space")
    return FiniteGT(space.n, canonical_family(
        close_under([0, *_least_neighbourhoods(space)])))


def separation_profile(space: FiniteGT) -> SeparationProfile:
    """T0 when no two points share a least neighbourhood (the same opens),
    T1 when each X - {y} is open (a union of one open per point missing y),
    T2 (so T1) by least_open_cover on each pair, normal with no defect."""
    n, full = space.n, space.full
    t0 = len(set(_least_neighbourhoods(space))) == n
    t1 = all(full ^ (1 << y) in space.open_set for y in range(n))
    t2 = t1 and all(least_open_cover(space, 1 << x, 1 << y) is not None
                    for x in range(n) for y in range(x + 1, n))
    return SeparationProfile(t0, t1, t2, space.defect is None)


# ---------------------------------------------------------------- census

CENSUS_MAX_POINTS = 5      # 1,373,701 strong GTs on 5 points


def check_census_points(n: int) -> None:
    """Refuse a census size before any work: InputError below 0 points,
    ResourceError above CENSUS_MAX_POINTS."""
    if n < 0:
        raise InputError(f"point count must be >= 0, got {n}")
    if n > CENSUS_MAX_POINTS:
        raise ResourceError(f"census at {n} points exceeds the configured "
                            f"maximum {CENSUS_MAX_POINTS}")


def enumerate_strong_gts(n: int) -> Iterator[FiniteGT]:
    """Every strong GT on n <= CENSUS_MAX_POINTS labeled points, exactly
    once, streamed in lexicographic order of the inclusion vector over the
    canonical candidate order (absent before present).

    Candidates are the proper nonempty subsets; the empty set and the ground
    set are members of every strong GT.  The search branches exclude-first
    and propagates forced unions, so each leaf is union-closed by
    construction.  Including a candidate m never conflicts with an earlier
    exclusion: a union m | x with an earlier member x is m itself or has
    more points, so it lies strictly later in canonical order than m, while
    every excluded candidate on the path lies earlier.  So the search keeps
    only which later candidates are forced.
    """
    check_census_points(n)
    full = (1 << n) - 1
    if full == 0:
        yield FiniteGT(0, (0,))
        return
    cands = sorted(range(1, full), key=canonical_key)
    pos = {m: i for i, m in enumerate(cands)}
    k = len(cands)
    forced = [False] * k
    members: list[int] = []

    def dfs(i: int) -> Iterator[FiniteGT]:
        if i == k:
            yield FiniteGT(n, (0, *members, full))
            return
        m = cands[i]
        if not forced[i]:
            yield from dfs(i + 1)
        # include branch (mandatory when an earlier union forced this set)
        undo = []
        for x in members:
            u = m | x
            if u == full or u == m:
                continue
            j = pos[u]
            if not forced[j]:
                forced[j] = True
                undo.append(j)
        members.append(m)
        yield from dfs(i + 1)
        members.pop()
        for j in undo:
            forced[j] = False

    yield from dfs(0)


def census_count(n: int) -> int:
    """Number of strong GTs on n <= CENSUS_MAX_POINTS labeled points, got
    without enumerating any n-point space; enumerate_strong_gts stays the
    enumeration path and the oracle for this count.

    Split off the last point p and write X' = X - {p}.  A strong GT F on X
    is exactly a pair (A, B) of families on X' such that A is a GT (holds
    {} and is union-closed), B holds X' and is union-closed, and b | a is
    in B for every a in A and b in B.  The pair of F is
    A = {U in F : p not in U} and B = {U - {p} : p in U in F}.
    - F to (A, B): both inherit union-closure, X in F puts X' in B, and
      a | (b + p) in F puts b | a in B.
    - (A, B) to F = A + {b + p : b in B}: F holds {} and X, and the unions
      a | a', (b + p) | (b' + p) and a | (b + p) = (b | a) + p stay in F.
    So the count is the sum over B of the number of GTs A inside
    S(B) = {a <= X' : b | a in B for every b in B}.
    - The Bs are each strong GT G on X' and, when X' is not empty, G - {}.
    - S(G) = G: b = {} asks a in G, and union-closure gives the rest.
      S(G - {}) holds G and is union-closed, so every S(B) is a strong GT
      on X'.
    - A GT A on X' is a strong GT on its union Y, so the As are the strong
      GTs on |Y| points relabeled onto each Y <= X'.

    Families on X' are bitmasks over its 2^(n-1) subsets.  The As are held
    bit-sliced (slices[s] has bit j set when the j-th A holds subset s), so
    the As inside S are those missing from every slice of a subset outside S.
    """
    check_census_points(n)
    if n == 0:
        return 1                        # the empty space
    k = n - 1
    top = (1 << k) - 1
    smaller = [[h.opens for h in enumerate_strong_gts(j)] for j in range(n)]
    slices = [0] * (1 << k)
    total = 0
    for y in range(top + 1):
        points = points_from_mask(y)
        # spread[m]: a subset m of 0..|Y|-1 relabeled onto Y
        spread = [mask_from_points([points[i] for i in points_from_mask(m)],
                                   k) for m in range(1 << len(points))]
        for opens in smaller[len(points)]:
            for u in opens:
                slices[spread[u]] |= 1 << total
            total += 1
    groups: Counter[int] = Counter()
    for opens in smaller[k]:
        fam = sum(1 << u for u in opens)
        groups[fam] += 1
        if k:
            # S(G - {}) holds G, so only the sets outside G are tested;
            # opens[1:] are the nonempty opens of G
            rest = opens[1:]
            groups[fam | sum(1 << a for a in range(top + 1)
                             if not fam >> a & 1
                             and all(fam >> (b | a) & 1 for b in rest))] += 1
    count = 0
    for fam, mult in groups.items():
        outside = 0
        for s in range(top + 1):
            if not fam >> s & 1:
                outside |= slices[s]
        count += mult * (total - outside.bit_count())
    return count


def sample_strong_gts(n: int, count: int, seed: int) -> list[FiniteGT]:
    """Deterministic sample of distinct strong GTs: seed a RNG, draw random
    subfamilies of proper nonempty subsets, close each under union."""
    import random
    if n < 1:
        raise InputError("sampling needs at least one point")
    rng = random.Random(seed)
    full = (1 << n) - 1
    cands = sorted(range(1, full), key=canonical_key)
    seen: set[tuple[int, ...]] = set()
    out: list[FiniteGT] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 1000 * count:
            raise ResourceError(
                f"could not find {count} distinct strong GTs on {n} points")
        bits = rng.getrandbits(len(cands))
        picked = [m for i, m in enumerate(cands) if bits >> i & 1]
        opens = canonical_family(close_under([0, full, *picked]))
        if opens not in seen:
            seen.add(opens)
            out.append(FiniteGT(n, opens))
    return out


# ---------------------------------------------------------------- file format

def space_to_dict(space: FiniteGT) -> dict:
    return {"points": space.n,
            "open_sets": [points_from_mask(u) for u in space.opens]}


def parse_space_dict(doc) -> tuple[int, list[int]]:
    """Type-check the {"points": n, "open_sets": [[...]]} document and return
    (n, masks).  GT axioms are not enforced here; validate_gt does that."""
    if not isinstance(doc, dict):
        raise InputError("space document must be a JSON object")
    if "points" not in doc or "open_sets" not in doc:
        raise InputError('space document needs "points" and "open_sets"')
    n = doc["points"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f'"points" must be a non-negative integer, got {n!r}')
    raw = doc["open_sets"]
    if not isinstance(raw, list) or any(not isinstance(s, list) for s in raw):
        raise InputError('"open_sets" must be a list of point lists')
    return n, [mask_from_points(s, n) for s in raw]
