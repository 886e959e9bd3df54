"""Finite generalized topological spaces on {0..n-1}.

A generalized topology (GT) is a family of point-sets closed under arbitrary
unions; the empty set is forced (union of nothing), membership of the whole
ground set is the "strong" property, and closure under pairwise intersection
upgrades the family to an honest topology.  Point-sets are int bitmasks,
families are tuples of masks in a canonical order, and every operation here
is a pure function so census sweeps can memoize freely.
"""

import operator
import struct
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
    """Intersection of all closed supersets of a, read as the complement of
    the interior of X - a: the closed sets are exactly the complements of
    the opens, so X - cl(a) is the union of the opens that miss a."""
    _check_masks([a], space.n)
    return space.full ^ interior(space, space.full ^ a)


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


# product builds, sorts and prints every open of the product, each a set of
# up to n1 * n2 points, so its time is linear in opens x points: about
# 1.2 us a cell, from the 7-point powerset squared (16,130 opens on 49
# points, 0.94 s) to a 48-point chain squared (2,305 opens on 2,304 points,
# 7.6 s).  Above this many cells it is refused, before any work.
PRODUCT_MAX_CELLS = 1_000_000


def product(s1: FiniteGT, s2: FiniteGT) -> FiniteGT:
    """Cross GT on X1 x X2 (row-major): opens (U x X2) | (X1 x V).

    Its open count is known up front: (|O1| - 1)(|O2| - 1) + 1.  U = X1 or
    V = X2 gives the whole product; otherwise the complement of the open is
    the nonempty rectangle (X1 - U) x (X2 - V), which gives back U and V.
    Products of more than PRODUCT_MAX_CELLS opens x points are refused with
    ResourceError before any open is built."""
    if not (s1.is_strong and s2.is_strong):
        raise PreconditionError("product requires strong factors")
    n = s1.n * s2.n
    count = (len(s1.opens) - 1) * (len(s2.opens) - 1) + 1
    if count * n > PRODUCT_MAX_CELLS:
        raise ResourceError(f"product has {count} opens on {n} points, above "
                            f"{PRODUCT_MAX_CELLS} opens x points; refusing")
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


def join_supports(fams: list[int], k: int) -> list[int]:
    """S(G - {}) = {a : a | b in G for every nonempty b in G} for each
    family mask G of fams on k <= CENSUS_MAX_POINTS - 1 points.

    A family mask on k points has bit s set when subset s is a member.  The
    families are packed into 16-bit fields and worked on together: joins[b],
    the family {a : a | b in G}, comes from joins[b - {x}] by one
    mask-and-shift on a point x of b, and a member b of G keeps in S only
    the a in joins[b].  The family with no nonempty member keeps every
    subset."""
    width = 1 << k
    every = (1 << width) - 1
    count = len(fams)
    ones = int.from_bytes(b"\1\0" * count, "little")
    packed = int.from_bytes(struct.pack(f"<{count}H", *fams), "little")
    full = ones * every
    # with_point[x]: the subsets holding x, in every field.  every over
    # 2^(2^x) + 1 has 2^x ones at the start of each 2^(x+1) bits, on the
    # subsets without x; the shift by 2^x moves them onto the ones with x.
    with_point = [ones * (every // ((1 << (1 << x)) + 1) << (1 << x))
                  for x in range(k)]
    joins = [packed]
    out = full
    for b in range(1, width):
        x = b.bit_length() - 1
        held = joins[b ^ (1 << x)] & with_point[x]
        joins.append(held | held >> (1 << x))
        out &= joins[b] | (full ^ (packed >> b & ones) * every)
    return list(struct.unpack(f"<{count}H", out.to_bytes(2 * count, "little")))


def gt_masks(k: int) -> list[list[int]]:
    """Every GT on j points, for j = 0..k <= CENSUS_MAX_POINTS - 1, as
    family masks: one list per j, each built from the one below by the
    point split of census_count."""
    levels = [[1]]                      # the one GT on no points, {{}}
    for j in range(1, k + 1):
        below = levels[-1]
        shift = 1 << (j - 1)
        level = []
        for g, s in zip(below, join_supports(below, j - 1)):
            for b, support in ((g, g), (g & ~1, s)):
                high = b << shift
                level.extend(a | high for a in below if not a & ~support)
        levels.append(level)
    return levels


def _outside_table(chunk: bytes, bits: int) -> list[int]:
    """chunk holds one byte of each family, and the low bits of that byte
    are subsets.  Bit i of the slice of subset s is set when family i holds
    s; table[v], for every byte v, is the OR of the slices of the subsets
    in v (no family holds a subset past bits, so those add nothing)."""
    table = [0]
    for s in range(bits):
        held = int(chunk.translate((b"0" * (1 << s) + b"1" * (1 << s))
                                   * (128 >> s)), 2)
        table += [t | held for t in table]
    return table * (256 >> bits)


def census_count(n: int) -> int:
    """Number of strong GTs on n <= CENSUS_MAX_POINTS labeled points, got
    without enumerating any space; enumerate_strong_gts stays the
    enumeration path and the oracle for this count.

    Split off the last point p and write X' = X - {p}.  A family F on X is
    the pair A = {U in F : p not in U}, B = {U - {p} : p in U in F} of
    families on X'; as family masks F = A | (B << 2^|X'|).
    - F is a GT (holds {} and is union-closed) exactly when A is a GT, B is
      union-closed, and b | a is in B for every a in A and b in B.  F to
      (A, B): {} is in A, unions on one side stay there, and a | (b + p) =
      (b | a) + p is in F.  (A, B) to F: F holds {}, and the unions
      a | a', (b + p) | (b' + p) and a | (b + p) = (b | a) + p are in F.
    - Nothing asks B to hold {}: {p} need not be open.  Nor to be nonempty:
      p may lie in no open.  So the Bs are G and G - {} for each GT G on X',
      all distinct, since G = B + {{}}; G = {{}} gives the empty B.
    - The last condition reads A <= S(B) = {a : b | a in B for every b in
      B}.  S(G) = G: b = {} asks a in G, and union-closure gives the rest.
      S(G - {}) = {a : a | b in G for every nonempty b in G}, since a | b
      is nonempty; join_supports finds it, and for G = {{}} it is every
      subset.  Each S(B) holds G and is union-closed ((a | a') | b =
      (a | b) | (a' | b)), so it is a GT, strong when G is.
    gt_masks builds the GTs on 0..n-1 points by this split.  F is strong
    when X' is in B, so B is a strong G on X' or, when X' is not empty,
    G - {}; and the count is the sum over strong GTs G on X' of N(G) +
    N(S(G - {})), with N(S) the number of GTs on X' inside S.

    N(S) is read off bit slices of the GTs on X', one per subset of X': the
    GTs inside S are those in no slice of a subset outside S.  The ORs of
    the slices come from a table for each byte of the family masks.
    """
    check_census_points(n)
    if n == 0:
        return 1                        # the empty space
    k = n - 1
    width = 1 << k
    gts = gt_masks(k)[k]
    strong = [g for g in gts if g >> (width - 1) & 1]
    raw = struct.pack(f"<{len(gts)}H", *gts)
    low = _outside_table(raw[0::2], min(width, 8))
    high = _outside_table(raw[1::2], max(width - 8, 0))
    total = len(gts)
    inside = {g: total - (low[~g & 255] | high[~g >> 8 & 255]).bit_count()
              for g in strong}
    # each S(G - {}) is itself a strong GT on X', so a key of inside
    supports = join_supports(strong, k) if k else []
    return sum(inside.values()) + sum(inside[s] for s in supports)


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
