"""Two generalized topologies on the real line, implemented symbolically.

* gtn: ∅, ℝ, the rays (−∞,a) and (a,∞), and unions (−∞,a) ∪ (b,∞) with a ≤ b.
* gts: gtn plus the half-closed rays [a,∞) and unions (−∞,a) ∪ [b,∞), a < b.

Neither family is intersection-closed, so these are GT spaces and not
topologies.  One rule (_closed_ends) gives their closed sets: ∅ and the
intervals whose finite lower end is closed and whose finite upper end is
closed in gtn, either way in gts.  Its corollary is the closed catalogs:
gtn has ∅, ℝ, (−∞,a], [a,∞) and [a,b], and gts adds (−∞,a) and [a,b).

Proof.  The lists are the complements of the open lists, and they hold
exactly the sets the rule admits.  So the hull of a nonempty s, with its
finite lower end closed and its finite upper end closed in gtn, and in gts
when sup s is attained, is closed and holds s.  Every closed T ⊇ s is one
interval over it that holds its closed ends: the lower by the rule, the
upper by the rule in gtn and as a point of s in gts.  So the hull is the
closure of s, s is closed when it is its own closure, and open when its
complement is closed.  Everything here is decidable by reading canonical
SymbolicSets: classification, closures, Urysohn-style ramps between
gap-separated closed sets, Tietze-style extensions off closed pieces,
continuity verdicts for piecewise-affine maps, the effective separation
function F, which splits at the first qualifying rational of a fixed
enumeration of ℚ (computed in closed form by a Stern–Brocot descent, with no
enumeration walked and no cap), and the dyadic open-set ladders F generates,
built from one F call: every gts rung is the first, and gtn rung r is a ray
at the first rational between the split points of r's dyadic neighbours.

Continuity targets:

* taun: the topology generated by bounded open intervals with rational ends;
  continuity means every window preimage (p,q) is open in the source.
* gtaun: the ray GT itself; continuity means every ray preimage is open in
  the source.

Both are decided exactly in one pass over pieces and breakpoints: gtaun
continuity is monotonicity plus continuity from the right (from both sides
on gtn), each side limit compared with the value by integer
cross-multiplication; taun continuity adds a scan of the slopes and values
(constant on every piece, at most two values in all), with no image built;
and Tietze extension is read off the frozen extension itself.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError, ResourceError, check_target
from .pwmaps import PiecewiseMap, constant_map, make_pwmap
from .rationals import dyadic_neighbors, dyadics_by_level, first_in_interval
from .symsets import (ALL_REALS, EMPTY_SET, Interval, SymbolicSet, above,
                      as_fraction, below)
from .symsets import make_set  # noqa: F401  (bench/tracing.py patches it here)

SPACES = ("gtn", "gts")


def _check_space(space: str) -> None:
    if space not in SPACES:
        raise InputError(f"unknown space {space!r}: expected one of {SPACES}")


def _closed_ends(lo, hi, hi_attained: bool, space: str) -> tuple[bool, bool]:
    """(lo_closed, hi_closed) of the least closed set over the hull from lo
    to hi: the one place the two catalogs differ (see the module docstring)."""
    return lo is not None, hi is not None and (hi_attained or space == "gtn")


def _is_closed_form(s: SymbolicSet, space: str) -> bool:
    """Is s its own closure: empty, or one interval with its rule flags?"""
    comps = s.components
    if len(comps) != 1:
        return not comps
    c = comps[0]
    lo_closed, hi_closed = _closed_ends(c.lo, c.hi, c.hi_closed, space)
    return c.lo_closed == lo_closed and c.hi_closed == hi_closed


def _is_open_form(s: SymbolicSet, space: str) -> bool:
    """Is the complement of s closed?  It is ℝ when s = ∅ and ∅ when s = ℝ.
    Otherwise it is one interval exactly when s is at most a ray from −∞
    and a ray to +∞: the gap between them (−∞ or +∞ where one is missing),
    its end flags the negated flags of theirs.  It is read off, not built."""
    comps = s.components
    if not comps:
        return True
    first, last = comps[0], comps[-1]
    left, right = first.lo is None, last.hi is None
    gaps = len(comps) + 1 - left - right
    if gaps != 1:
        return gaps == 0
    hi_closed = right and not last.lo_closed
    return (left and not first.hi_closed, hi_closed) == _closed_ends(
        first.hi if left else None, last.lo if right else None, hi_closed,
        space)


def classify(s: SymbolicSet, space: str) -> str:
    _check_space(space)
    c = _is_closed_form(s, space)
    if _is_open_form(s, space):
        return "clopen" if c else "open"
    return "closed" if c else "neither"


def closure_sym(s: SymbolicSet, space: str) -> SymbolicSet:
    """Least closed superset: the hull, with the end flags of _closed_ends."""
    _check_space(space)
    if s.is_empty:
        return EMPTY_SET
    lo, _ = s.inf()
    hi, hi_attained = s.sup()
    lo_closed, hi_closed = _closed_ends(lo, hi, hi_attained, space)
    return SymbolicSet((Interval(lo, hi, lo_closed, hi_closed),))


# --- separation ramps -------------------------------------------------------

def _require_closed(space: str, **sets: SymbolicSet) -> None:
    for name, s in sets.items():
        if not _is_closed_form(s, space):
            raise PreconditionError(f"{name} is not closed in {space}")


def _check_closed_pair(a: SymbolicSet, b: SymbolicSet, space: str) -> None:
    # Checked on every F and ladder call: the keyword call, which names the
    # first set that is not closed, is made only on failure.
    if not (_is_closed_form(a, space) and _is_closed_form(b, space)):
        _require_closed(space, a=a, b=b)
    if not a.isdisjoint(b):
        raise PreconditionError("a and b intersect")


def _gap_ramp(left: SymbolicSet, right: SymbolicSet):
    """The 0/affine/1 ramp over the gap (sup left, inf right), if it is one."""
    c, _ = left.sup()
    d, _ = right.inf()
    if c is None or d is None or c >= d:
        return None
    slope = 1 / (d - c)
    return make_pwmap((c, d), ((0, 0), (slope, -c * slope), (0, 1)),
                      (0, 1))


def gul_witness(a: SymbolicSet, b: SymbolicSet, space: str) -> PiecewiseMap:
    """A piecewise ramp f with a ⊆ f⁻¹(0), b ⊆ f⁻¹(1), gtaun-continuous."""
    _check_space(space)
    _check_closed_pair(a, b, space)
    if a.is_empty or b.is_empty:
        raise PreconditionError("a and b must both be nonempty")
    straight = _gap_ramp(a, b)
    if straight is not None:
        return straight
    mirrored = _gap_ramp(b, a)
    if mirrored is not None:
        return mirrored.one_minus()
    raise PreconditionError("a and b are not separable by a gap")


# --- continuity -------------------------------------------------------------

def _gtaun_continuous(f: PiecewiseMap, source: str) -> bool:
    """Monotone, with v = R (and L = v on gtn) at every breakpoint.

    Each side limit m·b + t meets v in integers: with m = mn/md, b = bn/bd,
    t = tn/td, v = vn/vd and every denominator positive, m·b + t − v has the
    sign of (mn·bn·td + tn·md·bd)·vd − vn·md·bd·td."""
    pieces = [m.as_integer_ratio() + t.as_integer_ratio() for m, t in f.pieces]
    up = all(mn >= 0 for mn, _, _, _ in pieces)
    down = all(mn <= 0 for mn, _, _, _ in pieces)
    if not (up or down):
        return False
    gtn = source == "gtn"
    for b, v, (lmn, lmd, ltn, ltd), (rmn, rmd, rtn, rtd) in zip(
            f.breakpoints, f.values, pieces, pieces[1:]):
        bn, bd = b.as_integer_ratio()
        vn, vd = v.as_integer_ratio()
        d = rmd * bd
        if (rmn * bn * rtd + rtn * d) * vd != vn * d * rtd:      # v ≠ R
            return False
        d = lmd * bd
        s = (lmn * bn * ltd + ltn * d) * vd - vn * d * ltd      # sign of L − v
        if s:
            if gtn:
                return False
            up, down = up and s < 0, down and s > 0
            if not (up or down):
                return False
    return True


def _at_most_two_values(f: PiecewiseMap) -> bool:
    """Constant on every piece, with at most two distinct values in all.

    The scan stops at the first sloped piece: its image is an interval of
    positive length, never a point."""
    seen = set()
    for m, t in f.pieces:
        if m:
            return False
        seen.add(t.as_integer_ratio())
    seen.update(v.as_integer_ratio() for v in f.values)
    return len(seen) <= 2


def check_continuity_sym(f: PiecewiseMap, source: str, target: str) -> bool:
    """Is f continuous from the source GT into the target?

    With L, R the side limits of f at a breakpoint and v its value there, f
    is gtaun-continuous exactly when it is monotone (every slope ≥ 0 and
    L ≤ v at every breakpoint, or every slope ≤ 0 and L ≥ v) with v = R at
    every breakpoint, and L = v too on gtn.  It is taun-continuous exactly
    when in addition its image has at most two points, that is, when it is
    constant on every piece (a sloped piece's image is an interval of
    positive length) and its piece constants and breakpoint values hold at
    most two distinct numbers.  Both are read off the pieces' numerators and
    denominators; no image or preimage is built.

    1. taun ⇒ gtaun: every ray is a union of windows, and the source GT is
       closed under unions.
    2. A peak x < y < z gives a q with {f > q} holding y but neither x nor
       z; a valley does the same with {f < q}.  Every nonempty open of gtn
       or gts holding y holds a ray through x or through z, so f is monotone.
    3. A monotone f pulls rays back to rays, some to (−∞,a] exactly when
       v ≠ R at a, some to [a,∞) exactly when L ≠ v at a.  Neither is open
       in gtn; in gts only (−∞,a] is not.
    4. If f takes three values, disjoint windows around them have disjoint
       nonempty preimages, but no three nonempty opens of the line are
       pairwise disjoint.  With values c₁ < c₂ every window preimage is ∅,
       ℝ, {f < mid} or {f > mid}.
    """
    _check_space(source)
    check_target(target)
    if not _gtaun_continuous(f, source):
        return False
    if target == "gtaun":
        return True
    return _at_most_two_values(f)


# --- Tietze-style extension off a closed set --------------------------------

def _slice_between(f: PiecewiseMap, lo, hi):
    """Breakpoints of f strictly inside (lo, hi), their values, and the
    pieces governing (lo, hi); None means unbounded."""
    k_lo = 0 if lo is None else bisect_right(f.breakpoints, lo)
    k_hi = len(f.breakpoints) if hi is None else bisect_left(f.breakpoints, hi)
    return (f.breakpoints[k_lo:k_hi], f.values[k_lo:k_hi],
            f.pieces[k_lo:k_hi + 1])


def tietze_extend(p: SymbolicSet, f: PiecewiseMap, target: str) -> PiecewiseMap:
    """Extend f off the closed set p by freezing the boundary values.

    The frozen map g is f on p and f's value at an end of p beyond that end.
    For a target open W, g⁻¹(W) is the trace preimage f⁻¹(W) ∩ p plus a whole
    outer side exactly when that trace holds the end of p on that side.
    Adding those sides maps the trace-open forms of p one-to-one onto the
    gtn-open forms (∅, p, [a,c), (c,b], [a,c) ∪ (d,b] onto ∅, ℝ, (−∞,c),
    (c,∞), (−∞,c) ∪ (d,∞)), and restricting g to p gives f back.  So f is
    continuous on the subspace p exactly when g is continuous on gtn, and
    the extension is accepted exactly then: for gtaun when f is monotone and
    continuous on p, for taun when f is constant on p.  A point p = [a,a]
    has only the trace opens ∅ and p, so every f is continuous on it, and
    the constant f(a) extends it: it pulls every open back to ∅ or ℝ."""
    check_target(target)
    _require_closed("gtn", p=p)
    if p.is_empty or p.is_all:
        raise PreconditionError("p must be a proper nonempty closed set")
    c = p.components[0]
    if c.is_singleton:
        return constant_map(f.value_at(c.lo))
    zero = Fraction(0)
    bps, vals, pieces = _slice_between(f, c.lo, c.hi)
    if c.lo is not None:                   # freeze f(lo) below p
        v = f.value_at(c.lo)
        bps, vals, pieces = (c.lo,) + bps, (v,) + vals, ((zero, v),) + pieces
    if c.hi is not None:                   # freeze f(hi) above p
        v = f.value_at(c.hi)
        bps, vals, pieces = bps + (c.hi,), vals + (v,), pieces + ((zero, v),)
    g = PiecewiseMap(bps, pieces, vals)
    if not check_continuity_sym(g, "gtn", target):
        raise PreconditionError(
            f"f is not {target}-continuous on the subspace p")
    return g


# --- image, connectedness, and the three-open-set obstruction ---------------

def image_and_connectedness(f: PiecewiseMap):
    img = f.image()
    return img, len(img.components) == 1


@dataclass(frozen=True)
class OpenTriple:
    u: SymbolicSet
    v: SymbolicSet
    w: SymbolicSet
    verdicts: tuple[str, str, str]


def disjoint_open_triple(f: PiecewiseMap) -> OpenTriple:
    """Preimages of (−1,1/4), (1/3,2/3), (3/4,∞) with their gtn verdicts.

    For any candidate separator of level sets 0 and 1 these are pairwise
    disjoint and, were f window-continuous, all three would be gtn-open —
    impossible, since distinct nonempty gtn-opens always intersect in a ray.
    """
    u = f.preimage_open(Fraction(-1), Fraction(1, 4))
    v = f.preimage_open(Fraction(1, 3), Fraction(2, 3))
    w = f.preimage_open(Fraction(3, 4), None)
    return OpenTriple(u, v, w,
                      tuple(classify(s, "gtn") for s in (u, v, w)))


# --- the effective separation function F and its ladders --------------------

@dataclass(frozen=True)
class SymbolicWitness:
    u: SymbolicSet
    v: SymbolicSet


def _first_split(left: SymbolicSet, right: SymbolicSet, right_closed: bool):
    """First rational q of the fixed enumeration of ℚ with left ⊆ (−∞,q) and
    right ⊆ (q,∞), or right ⊆ [q,∞) when right_closed; None if there is none.

    Those q form one interval, read off sup left and inf right."""
    s, s_attained = left.sup()
    t, t_attained = right.inf()
    if s is None or t is None:
        return None
    return first_in_interval(s, not s_attained, t,
                             right_closed or not t_attained)


def _split(a: SymbolicSet, b: SymbolicSet, right_closed: bool
           ) -> SymbolicWitness:
    """Split at the first rational that puts a below and b above, or b below
    and a above.  For a nonempty disjoint closed pair only one orientation
    has split points at all, so positions never need comparing.

    The orientation is the one whose _first_split answered: a q it returns
    already has its left set below q and its right set above, so nothing is
    re-tested.  If neither answers, below(None) and above(None) are both ℝ."""
    q = _first_split(a, b, right_closed)
    if q is not None:
        return SymbolicWitness(below(q), above(q, closed=right_closed))
    q = _first_split(b, a, right_closed)
    return SymbolicWitness(above(q, closed=right_closed), below(q))


def effective_F(a: SymbolicSet, b: SymbolicSet, space: str) -> SymbolicWitness:
    """Deterministic disjoint open cover ⟨U ⊇ a, V ⊇ b⟩ for closed disjoint
    a, b: the first qualifying split point in the fixed enumeration of ℚ
    (0, then the Calkin–Wilf walk interleaved with its negatives).

    The split point is computed in closed form by first_in_interval, so no
    enumeration is walked and no pair is refused for lying too deep in it.
    In gtn the split is (−∞,q) | (q,∞); in gts it is (−∞,q) | [q,∞), and a
    gts-open member is its own half of the cover."""
    _check_space(space)
    _check_closed_pair(a, b, space)
    if space == "gts":
        if _is_open_form(a, "gts"):
            return SymbolicWitness(a, a.complement())
        if _is_open_form(b, "gts"):
            return SymbolicWitness(b.complement(), b)
        return _split(a, b, right_closed=True)
    if a.is_empty:
        return SymbolicWitness(EMPTY_SET, ALL_REALS)
    if b.is_empty:
        return SymbolicWitness(ALL_REALS, EMPTY_SET)
    return _split(a, b, right_closed=False)


@dataclass(frozen=True)
class SymbolicLadder:
    """Open sets indexed by dyadic rationals of (0,1), ascending by index."""

    entries: tuple[tuple[Fraction, SymbolicSet], ...]

    def indices(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.entries)

    def get(self, r) -> SymbolicSet:
        r = as_fraction(r, "index")
        for idx, s in self.entries:
            if idx == r:
                return s
        raise InputError(f"no rung at index {r}")


def ladder_from_F(a: SymbolicSet, b: SymbolicSet, space: str,
                  level: int) -> SymbolicLadder:
    """The dyadic ladder of F, in closed form from one effective_F call.

    The ladder is defined by a recursion over the dyadics r of (0,1), level
    by level: with neighbours r⁻ < r < r⁺ (dyadic_neighbors), rung r is
    effective_F(closure of rung r⁻, complement of rung r⁺).u, where rung 0
    stands for a and the complement of rung 1 for b.  So the chain
    conditions hold by construction.  Rung ½ is u = effective_F(a, b).u.

    * gts: every rung is u.  u is a or the complement of b (when that set is
      open, and it is closed by hypothesis), (−∞,q) or [q,∞), so u is
      gts-clopen: its closure is u and its complement is closed.  Each later
      call is F(u, uᶜ), F(u, b) or F(a, uᶜ).  F returns u in the first two,
      since u is open.  In the third it returns a when a is open, and u = a
      then; otherwise uᶜ is open, and it returns the complement of uᶜ, u.
    * gtn: rung r is the ray (−∞,q_r) when u is a left ray, (q_r,∞) when u
      is a right ray.  The closure of (−∞,q) is (−∞,q] and its complement is
      [q,∞); the closure of (q,∞) is [q,∞) and its complement is (−∞,q].
      So each call splits two sets whose facing ends are the neighbours'
      split points, both attained, and F's split point is the first rational
      strictly between them: q_r = first_in_interval between the split
      points of r⁻ and r⁺.  Neighbours 0 and 1 stand for the facing ends of
      a and b: sup a and inf b, or inf a and sup b when u is a right ray,
      each closed exactly when it is not attained, as in _first_split.
    """
    _check_space(space)
    if not isinstance(level, int) or level < 1:
        raise InputError(f"level must be a positive integer, got {level!r}")
    if level > 8:
        raise ResourceError(f"level {level} would need 2^{level} - 1 rungs; "
                            "refusing beyond level 8")
    _check_closed_pair(a, b, space)
    if a.is_empty or b.is_empty:
        raise PreconditionError("a and b must both be nonempty")
    u = effective_F(a, b, space).u
    if space == "gts":
        return SymbolicLadder(tuple(sorted(
            (r, u) for r in dyadics_by_level(level))))
    left = u.components[0].lo is None
    ray = below if left else above
    (s, s_attained), (t, t_attained) = ((a.sup(), b.inf()) if left
                                        else (a.inf(), b.sup()))
    # (split point, closed) of each rung, with rungs 0 and 1 for a and b
    splits = {Fraction(0): (s, not s_attained),
              Fraction(1): (t, not t_attained)}
    rungs: dict[Fraction, SymbolicSet] = {}
    for r in dyadics_by_level(level):
        lo_n, hi_n = dyadic_neighbors(r)
        lo, hi = splits[lo_n], splits[hi_n]
        if not left:
            lo, hi = hi, lo
        q = first_in_interval(*lo, *hi)
        splits[r] = (q, False)
        rungs[r] = ray(q)
    return SymbolicLadder(tuple(sorted(rungs.items())))


# --- lifting a witness to the product plane ---------------------------------

@dataclass(frozen=True)
class LiftedWitness:
    """A separator of closed rectangles that only reads one coordinate."""

    coordinate: int          # 1 or 2
    base: PiecewiseMap

    def value_at(self, x1, x2) -> Fraction:
        return self.base.value_at(x1 if self.coordinate == 1 else x2)


def product_gul_witness(a1: SymbolicSet, a2: SymbolicSet, b1: SymbolicSet,
                        b2: SymbolicSet, space: str) -> LiftedWitness:
    _check_space(space)
    _require_closed(space, a1=a1, a2=a2, b1=b1, b2=b2)
    if a1.is_empty or a2.is_empty:
        return LiftedWitness(1, constant_map(1))
    if b1.is_empty or b2.is_empty:
        return LiftedWitness(1, constant_map(0))
    if a1.isdisjoint(b1):
        return LiftedWitness(1, gul_witness(a1, b1, space))
    if a2.isdisjoint(b2):
        return LiftedWitness(2, gul_witness(a2, b2, space))
    raise PreconditionError("the rectangles intersect")
