"""Urysohn-type separation on finite GT spaces.

Everything here is exact: functions are finite tuples of rationals,
continuity is decided by fiber and ray-preimage criteria, and the ladder and
one-step machinery of the classical dyadic construction is implemented so
its invariants can be machine-checked on every census space.

The four separation statements (separating functions into the interval
topology or the ray GT, extension of continuous functions off closed
subspaces) are decided through one kernel, `spaces.clopen_separator`, and
the clopen sets of the space.  On a finite strong GT this is exact, because
the statements collapse onto clopens:

- if a pair has disjoint open covers u, v, then cl(u) misses b, and when
  every pair is so separated the chain a <= u <= cl(u) <= u' <= ... stops
  at a clopen set, so normality, UL and GUL are clopen separation;
- a `taun`-continuous fiber structure is a partition into clopens;
- a `gtaun`-continuous fiber structure is a strict chain of clopens.

So one scan, the clopen defect (`spaces.clopen_defect`, cached once per
space as `FiniteGT.defect`), decides normality, UL, GUL and effective
normality: a witness table exists exactly when there is no defect.  TET
and GTET share one walk over the closed sets, and GTET walks each closed
set's clopen chains in one fused search that carries the clopens of the
space still able to trace them.

The walk splits the verdict from the explanation.  A prefix scan traces the
closed sets in canonical order and stops at the first certificate: a closed
a with a trace-clopen c that no clopen of the space traces.  By the lemma in
extension_holds both statements then fail on a, so `extension_holds` reads
the verdicts off the certificate and searches only when there is none,
while `decide_statements`, which names the first counterexample, runs the
ordered search over the same prefix: that counterexample lies at or before
the certificate's closed set.

Chain normality rests on the same kernel.  A pair with a clopen separator c
has the family (c, c), ..., (c, c) of every length; a pair without one
needs a strictly rising chain a < U_0 < F_0 < ... < F_n < X-b < X, hence
2n+5 points, for a family of n+1 pairs, so the chain-family search runs
only on the pairs with no clopen separator and only where such a chain fits
(never on 6 points or fewer, where the blocking pair is the defect); it
and family validation share one test of clause (iii).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import (InputError, NoExtension, PreconditionError,
                     ResourceError, check_target)
from .rationals import dyadics_by_level, unit_ratios
from .spaces import (FiniteGT, canonical_key, clopen_separator,
                     closure, fmt_mask, least_open_cover, points_from_mask,
                     product, rect_factors, stretch_cols, stretch_rows)
from .symsets import as_fraction

# TET/GTET search every closed subspace's fiber structures; above this many
# points the work is refused up front.
EXTENSION_MAX_POINTS = 5

# is_u_normal decides and reports every chain length up to n_max, so its time
# and output grow linearly with n_max; larger bounds are refused up front.
U_NORMAL_MAX_LENGTH = 64


# ---------------------------------------------------------------- functions

@dataclass(frozen=True)
class FiniteFunction:
    """A rational-valued function on points 0..n-1."""

    values: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def levels(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.values)))

    @cached_property
    def fibers(self) -> tuple[int, ...]:
        """Level sets as masks, aligned with levels (ascending values)."""
        out = []
        for v in self.levels:
            m = 0
            for p, w in enumerate(self.values):
                if w == v:
                    m |= 1 << p
            out.append(m)
        return tuple(out)

    def preimage_below(self, r: Fraction, strict: bool = True) -> int:
        m = 0
        for p, w in enumerate(self.values):
            if w < r or (not strict and w == r):
                m |= 1 << p
        return m

    def to_value_map(self) -> dict[str, str]:
        return {str(p): str(v) for p, v in enumerate(self.values)}


def make_function(values: Iterable) -> FiniteFunction:
    return FiniteFunction(tuple(as_fraction(v) for v in values))


def constant_function(n: int, value) -> FiniteFunction:
    return FiniteFunction((as_fraction(value),) * n)


def check_continuity_finite(f: FiniteFunction, space: FiniteGT,
                            target: str) -> bool:
    """Continuity of f into the interval topology (taun: every fiber open)
    or into the ray GT (gtaun: every prefix and suffix union of the
    value-ordered fibers open; union-closure lifts rays to all opens)."""
    check_target(target)
    if f.n != space.n:
        raise InputError(f"function on {f.n} points, space on {space.n}")
    if target == "taun":
        return all(m in space.open_set for m in f.fibers)
    acc = 0
    for m in f.fibers:
        acc |= m
        if acc not in space.open_set:
            return False
    acc = 0
    for m in reversed(f.fibers):
        acc |= m
        if acc not in space.open_set:
            return False
    return True


# ---------------------------------------------------------------- pair deciders

def _check_pair(space: FiniteGT, a: int, b: int) -> None:
    if not space.is_strong:
        raise PreconditionError("separation deciders need a strong space")
    for m in (a, b):
        if m & ~space.full:
            raise InputError(f"set {fmt_mask(m)} leaves the ground set")
        if not space.is_closed(m):
            raise PreconditionError(f"set {fmt_mask(m)} is not closed")
    if a & b:
        raise PreconditionError("the closed sets are not disjoint")


def decide_gul_pair(space: FiniteGT, a: int, b: int) -> Optional[FiniteFunction]:
    """Separating function into the ray GT, or None.

    On a finite space such a function exists exactly when some clopen set
    contains a and misses b; the witness is the 0/1 indicator of the
    canonically least one.
    """
    _check_pair(space, a, b)
    u = clopen_separator(space, a, b)
    if u is None:
        return None
    return _step_function((u, space.full ^ u))


def decide_ul_pair(space: FiniteGT, a: int, b: int) -> Optional[FiniteFunction]:
    """Separating function into the interval topology, or None.

    The fibers of such a function partition the space into opens, so every
    fiber is clopen.  The fiber of a is the least clopen separator ua, the
    fiber of b the first clopen ub (X - ua at the latest) around b that
    misses ua and leaves an open rest X - (ua | ub): the rest is closed, so
    it splits into clopens exactly when it is open.  Values 0, 1, 2, ... go
    to ua, ub and the blocks of its first clopen partition in canonical order.
    """
    _check_pair(space, a, b)
    if a == 0:
        return constant_function(space.n, 1)
    if b == 0:
        return constant_function(space.n, 0)
    ua = clopen_separator(space, a, b)
    if ua is None:
        return None
    ub = next(c for c in space.clopens if not b & ~c and not c & ua
              and space.full ^ (ua | c) in space.open_set)
    rest = next(_clopen_partitions(space.clopens, space.full ^ (ua | ub)))
    return _step_function((ua, ub, *sorted(rest, key=canonical_key)))


def _step_function(blocks: tuple[int, ...]) -> FiniteFunction:
    """The function with value k on block k of a partition of the points."""
    return FiniteFunction(tuple(v for _, v in _partition_values(blocks)))


# ---------------------------------------------------------------- statements

@dataclass(frozen=True)
class StatementReport:
    statement: str
    holds: bool
    pair: Optional[tuple[int, int]] = None
    counterexample: Optional[tuple[int, tuple[tuple[int, Fraction], ...]]] = None


STATEMENTS = ("UL", "GUL", "TET", "GTET")


def decide_statement(space: FiniteGT, statement: str) -> StatementReport:
    """Decide one of the four separation statements exactly: the report of
    decide_statements for that statement alone."""
    return decide_statements(space, (statement,))[0]


def decide_statements(space: FiniteGT, statements: Iterable[str] = STATEMENTS
                      ) -> list[StatementReport]:
    """Decide the given separation statements exactly, in one pass, and
    report them in the order asked.

    UL and GUL fail at the space's clopen defect, the first disjoint closed
    pair that the pair deciders cannot separate; it is scanned once per
    space (FiniteGT.defect).  The extension statements take every closed
    set a and every continuous fiber structure on its subspace, and ask for
    a continuous fiber structure on the whole space whose trace is the given
    one.  The counterexample is the first structure that has none, on the
    first closed set in canonical order that has one; the structures on a
    are built from its trace-clopens in descending order, so they come in
    lexicographic order of descending blocks.

    This is the explanation; extension_holds gives the verdicts alone, and
    the same ones.  TET and GTET are decided in one ordered search over the
    entries of the prefix scan (_traced_closeds), which stops once each
    statement asked has its counterexample.  The scan ends at the first
    certificate, a closed set on which both statements fail (see
    extension_holds), so every counterexample lies within it, and each
    closed set is traced at most once.  The empty set and the whole space
    are passed by: every structure on them lifts to itself.  Each other
    closed set a gets its trace-clopens and tracing, the clopens of the
    space grouped by their trace on a, once for both statements.  Two facts
    keep the walk exact.

    - The skip.  a and the empty set are always trace-clopens of a, as the
      traces of the opens X and {} with complements each other in a.  When
      they are the only ones, a has one TET structure, the partition (a),
      which the clopen partition (X) of the space traces; and one GTET
      structure, the chain {} < a, whose lift asks for no clopen at all (no
      prefix lies strictly between).  So no counterexample is on a, and a
      is skipped.
    - The grouped lift search.  Every clopen E of the space traces a
      trace-clopen E & a: it is the trace of the open E, and its complement
      a - E in a is the trace of the open X - E.  So tracing has a key for
      each clopen, and tracing[c] lists, in the order of space.clopens,
      exactly the clopens E with E & a = c.  A TET lift needs E_i & a =
      part[i] for block i and a GTET lift needs D_j & a = p_j for prefix
      p_j, so each search draws its candidates for c from tracing[c] alone:
      the same candidates, in the same order, as a scan of every clopen
      under the test E & a = c.
    """
    sts = _checked_statements(space, statements, STATEMENTS)
    extension = [st for st in sts if st in ("TET", "GTET")]
    found = (_unlifted_structures(space, extension, _traced_closeds(space))
             if extension else {})
    reports = []
    for st in sts:
        if st in ("UL", "GUL"):
            pair = space.defect
            reports.append(StatementReport(st, pair is None, pair=pair))
        else:
            ce = found.get(st)
            reports.append(StatementReport(st, ce is None, counterexample=ce))
    return reports


def extension_holds(space: FiniteGT, statements: Iterable[str] = ("TET", "GTET")
                    ) -> dict[str, bool]:
    """The verdict of each extension statement asked, TET or GTET, keyed in
    the order asked; the holds of decide_statements, with no counterexample.

    The prefix scan (_traced_closeds) stops at the first certificate: a
    closed set a with a trace-clopen c that is the trace c = E & a of no
    clopen E of the space.  Then every statement fails, with no search.
    Otherwise the ordered search runs over the entries the scan kept.

    Lemma.  Let c be a trace-clopen of a closed a such that no clopen E has
    E & a = c.  Then TET and GTET both fail, with a counterexample on a.
    First, c is neither {} nor a: the clopens {} and X trace those (the
    space is strong, so X is open and {} closed).  TET: the partition
    {c, a - c} of a into trace-clopens is a taun-continuous structure on a.
    A clopen partition of the space tracing it would hold a clopen E with
    E & a = c, or one E' with E' & a = a - c; then X - E' is clopen, as the
    complement of a clopen, and traces a - (a - c) = c.  Either way c has a
    clopen tracing it, so the partition has no lift.  GTET: the chain
    {} < c < a is a gtaun-continuous structure on a, and its lift needs a
    clopen D_1 with D_1 & a = c, which does not exist.
    """
    sts = _checked_statements(space, statements, ("TET", "GTET"))
    entries = []
    for entry in _traced_closeds(space):
        if not all(entry[2].values()):
            return {st: False for st in sts}
        entries.append(entry)
    found = _unlifted_structures(space, sts, entries)
    return {st: st not in found for st in sts}


def _checked_statements(space: FiniteGT, statements: Iterable[str],
                        allowed: tuple[str, ...]) -> list[str]:
    """The statements upper-cased, each one of allowed, on a strong space
    within the extension size bound when an extension statement is asked."""
    sts = []
    for statement in statements:
        st = statement.upper()
        if st not in allowed:
            raise InputError(f"statement must be one of {allowed}, "
                             f"got {statement!r}")
        sts.append(st)
    if not space.is_strong:
        raise PreconditionError("statements are decided on strong spaces")
    if "TET" in sts or "GTET" in sts:
        check_extension_size(space.n)
    return sts


def _traced_closeds(space: FiniteGT
                    ) -> Iterator[tuple[int, list[int], dict[int, list[int]]]]:
    """The prefix scan: (a, tclopens, tracing) for each closed set a in
    canonical order that is not skipped (see decide_statements), lazily.  It
    stops after the first a with an empty tracing[c]: that certifies that
    both extension statements fail on a (the lemma of extension_holds)."""
    for a in space.closeds:
        if a == 0 or a == space.full:
            continue
        tclopens = _trace_clopens(space, a)
        if len(tclopens) == 2:          # only a and the empty set
            continue
        tracing = {c: [] for c in tclopens}
        for d in space.clopens:
            tracing[d & a].append(d)
        yield a, tclopens, tracing
        if not all(tracing.values()):
            return


def _unlifted_structures(space: FiniteGT, statements, entries
                         ) -> dict[str, tuple[int, tuple[tuple[int, Fraction], ...]]]:
    """The counterexample of each of the given extension statements that
    fails: the ordered search over the entries of the prefix scan.

    GTET walks the clopen chains on a in one fused search.  TET takes the
    clopen partitions of a in turn, each with its own depth-first search for
    a clopen partition of the space that traces it: on the 4- and 5-point
    spaces of the props workload that is faster than a fused walk.
    """
    found = {}
    todo = list(statements)
    for a, tclopens, tracing in entries:
        for st in todo:
            if st == "GTET":
                part = _first_unlifted_chain(space, a, tclopens, tracing)
            else:
                part = next((p for p in _clopen_partitions(tclopens, a)
                             if not _extends_partition(space, a, p, tracing)),
                            None)
            if part is not None:
                found[st] = a, _partition_values(part)
        todo = [st for st in todo if st not in found]
        if not todo:
            break
    return found


def _trace_clopens(space: FiniteGT, a: int) -> list[int]:
    """The clopens of the subspace a, descending: the traces u & a of opens
    whose complement in a is a trace too."""
    traces = {u & a for u in space.opens}
    return sorted((c for c in traces if a ^ c in traces), reverse=True)


def check_extension_size(n: int) -> None:
    """Refuse the extension statements above EXTENSION_MAX_POINTS points."""
    if n > EXTENSION_MAX_POINTS:
        raise ResourceError("extension statements are exhaustive; refusing "
                            f"above {EXTENSION_MAX_POINTS} points")


def check_u_normal_length(n_max: int) -> None:
    """Refuse chain-normality bounds above U_NORMAL_MAX_LENGTH."""
    if n_max > U_NORMAL_MAX_LENGTH:
        raise ResourceError(f"u-normal length bound {n_max} is above "
                            f"{U_NORMAL_MAX_LENGTH}; refusing")


def _first_unlifted_chain(space: FiniteGT, a: int, tclopens: list[int],
                          tracing: dict[int, list[int]]
                          ) -> Optional[tuple[int, ...]]:
    """First gtaun-continuous fiber structure on the subspace a that no
    clopen chain of the space traces, or None.

    A structure is a chain of trace-clopens 0 < p_1 < ... < p_k = a, built
    by a depth-first walk that extends the prefix p by each trace-clopen
    above it, in the order of tclopens.  It lifts when there are nested
    clopens D_1 <= ... <= D_(k-1) of the space with D_j & a = p_j, so the
    walk carries the reach of its prefix: the clopens D in tracing[p] that
    contain a clopen of the reach one step back (the empty set at the
    root).  A chain lifts exactly when no step empties the reach.  What is
    left to decide below a node depends only on (p, reach), so a node whose
    subtree holds no failure is remembered and skipped when met again.
    The first empty reach marks the first unlifted chain in walk order: its
    first completion, because a leads tclopens, is the one block a - p, and
    its blocks are built on the way back up.
    """
    lifted = set()

    def unlifted(prefix: int, reach: tuple[int, ...]):
        if prefix == a or (prefix, reach) in lifted:
            return None
        for c in tclopens:
            if c & prefix != prefix or c == prefix:
                continue
            nxt = []
            for d in tracing[c]:
                for r in reach:
                    if d & r == r:
                        nxt.append(d)
                        break
            if not nxt:
                return c ^ prefix, a ^ c
            rest = unlifted(c, tuple(nxt))
            if rest is not None:
                return c ^ prefix, *rest
        lifted.add((prefix, reach))
        return None

    return unlifted(0, (0,))


def _clopen_partitions(clopens, region: int) -> Iterator[tuple[int, ...]]:
    """Partitions of region into the given clopens, one per unordered
    partition: the block holding the lowest remaining point comes first, and
    blocks are tried in the order of the clopens.  On the clopens of region
    these are its taun-continuous fiber structures."""
    if region == 0:
        yield ()
        return
    low = region & -region
    for c in clopens:
        if c & low and c & ~region == 0:
            for rest in _clopen_partitions(clopens, region ^ c):
                yield (c, *rest)


def _extends_partition(space: FiniteGT, a: int, part: tuple[int, ...],
                       tracing: dict[int, list[int]]) -> bool:
    """Disjoint clopens E_i of the space with E_i & a the i-th block of part
    and union the whole space, i.e. a clopen partition tracing part on a;
    block i is drawn from tracing[part[i]], the clopens with that trace."""
    last = len(part) - 1

    def dfs(i: int, used: int) -> bool:
        if i == last:   # the rest is closed, as the complement of opens
            return space.full ^ used in space.open_set
        return any(dfs(i + 1, used | e) for e in tracing[part[i]]
                   if e & used == 0)

    return not part or dfs(0, 0)


def _partition_values(part: tuple[int, ...]) -> tuple[tuple[int, Fraction], ...]:
    """Canonical function realizing a fiber structure: block k gets value k."""
    return tuple(sorted((p, Fraction(k)) for k, m in enumerate(part)
                        for p in points_from_mask(m)))


# ---------------------------------------------------------------- ladders

@dataclass(frozen=True)
class Ladder:
    """Finite-support monotone family of opens indexed by rationals in (0,1),
    interpolated by closures: for indices r < s, cl(U_r) must land in U_s."""

    entries: tuple[tuple[Fraction, int], ...]

    @property
    def indices(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.entries)

    @property
    def sets(self) -> tuple[int, ...]:
        return tuple(u for _, u in self.entries)


@dataclass(frozen=True)
class PairLadder:
    """Finite-support family of nested open-closed pairs indexed by rationals
    in (0,1); consecutive pairs interpolate through open differences."""

    entries: tuple[tuple[Fraction, tuple[int, int]], ...]


def _check_indices(indices) -> list[Fraction]:
    rs = [as_fraction(r) for r in indices]
    if len(set(rs)) != len(rs):
        raise InputError("ladder indices must be distinct")
    for r in rs:
        if not 0 < r < 1:
            raise InputError(f"ladder index {r} outside (0,1)")
    return rs


def make_ladder(entries) -> Ladder:
    items = dict(entries).items() if isinstance(entries, dict) else list(entries)
    pairs = [(as_fraction(r), u) for r, u in items]
    _check_indices([r for r, _ in pairs])
    return Ladder(tuple(sorted(pairs)))


def make_pair_ladder(entries) -> PairLadder:
    items = dict(entries).items() if isinstance(entries, dict) else list(entries)
    pairs = [(as_fraction(r), (u, f)) for r, (u, f) in items]
    _check_indices([r for r, _ in pairs])
    return PairLadder(tuple(sorted(pairs)))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    clause: Optional[str] = None
    detail: Optional[str] = None


def check_ladder(space: FiniteGT, ladder, a: int, b: int) -> CheckReport:
    """Verify the ladder clauses on the finite support, reporting the first
    violation: (i) closure interpolation (nesting with open differences for
    pair ladders), (ii) the lower set contains a at every index, and (iii)
    closures avoid b (pair ladders: the closed components avoid b)."""
    if isinstance(ladder, Ladder):
        return _check_single_ladder(space, ladder, a, b)
    if isinstance(ladder, PairLadder):
        return _check_pair_ladder(space, ladder, a, b)
    raise InputError(f"not a ladder: {ladder!r}")


def _check_single_ladder(space, ladder, a, b) -> CheckReport:
    ent = ladder.entries
    for r, u in ent:
        if u not in space.open_set:
            return CheckReport(False, "open", f"U_{r} is not open")
    for i, (r, u) in enumerate(ent):
        cl = closure(space, u)
        for s, v in ent[i + 1:]:
            if cl & ~v:
                return CheckReport(False, "(i)",
                                   f"cl(U_{r}) is not inside U_{s}")
    for r, u in ent:
        if a & ~u:
            return CheckReport(False, "(ii)", f"U_{r} does not contain a")
    for r, u in ent:
        if closure(space, u) & b:
            return CheckReport(False, "(iii)", f"cl(U_{r}) meets b")
    return CheckReport(True)


def _check_pair_ladder(space, ladder, a, b) -> CheckReport:
    ent = ladder.entries
    for r, (u, f) in ent:
        if u not in space.open_set:
            return CheckReport(False, "(i)", f"U_{r} is not open")
        if f not in space.closed_set:
            return CheckReport(False, "(i)", f"F_{r} is not closed")
        if a & ~u or u & ~f:
            return CheckReport(False, "(i)",
                               f"chain a <= U_{r} <= F_{r} broken")
    for i, (s, (_, fs)) in enumerate(ent):
        for r, (ur, _) in ent[i + 1:]:
            if fs & ~ur:
                return CheckReport(False, "(ii)", f"F_{s} is not inside U_{r}")
            if (ur & ~fs) not in space.open_set:
                return CheckReport(False, "(ii)",
                                   f"U_{r} minus F_{s} is not open")
    for r, (_, f) in ent:
        if f & b:
            return CheckReport(False, "(iii)", f"F_{r} meets b")
    return CheckReport(True)


def function_from_ladder(space: FiniteGT, ladder: Ladder,
                         b: int) -> FiniteFunction:
    """Evaluate the infimum formula over the downward-filled ladder: points
    of the lowest rung get 0, points first appearing at rung s_i get the
    previous index s_{i-1}, points beyond every rung get 1 (the index-1 set
    is the complement of b by convention, and indices above 1 cover all of
    the space, so both cases land at 1)."""
    if not space.is_closed(b):
        raise PreconditionError(f"set {fmt_mask(b)} is not closed")
    rep = _check_single_ladder(space, ladder, 0, 0)
    if not rep.ok:
        raise PreconditionError(f"invalid ladder: {rep.detail}")
    ent = ladder.entries
    values = []
    for p in range(space.n):
        val = Fraction(1)
        for i, (r, u) in enumerate(ent):
            if u >> p & 1:
                val = Fraction(0) if i == 0 else ent[i - 1][0]
                break
        values.append(val)
    return FiniteFunction(tuple(values))


def ladder_from_function(space: FiniteGT, f: FiniteFunction,
                         mode: str = "single", indices=None):
    """Extract the ladder of strict-below preimages (and weak-below closed
    companions in pair mode) at the given indices, default dyadics to
    level 4.  The function must be continuous into the ray GT (single) or
    the interval topology (pair)."""
    if mode not in ("single", "pair"):
        raise InputError(f"mode must be single or pair, got {mode!r}")
    target = "gtaun" if mode == "single" else "taun"
    if not check_continuity_finite(f, space, target):
        raise PreconditionError(f"function is not {target}-continuous")
    rs = sorted(_check_indices(list(indices) if indices is not None
                               else list(dyadics_by_level(4))))
    if mode == "single":
        return Ladder(tuple((r, f.preimage_below(r)) for r in rs))
    return PairLadder(tuple(
        (r, (f.preimage_below(r), f.preimage_below(r, strict=False)))
        for r in rs))


def extend_ladder_step(space: FiniteGT, partial: Ladder, a: int, b: int,
                       next_index) -> Ladder:
    """Insert one rung at next_index: the canonically least open set that
    interpolates between the closure of the rung below (or a) and the rung
    above (or the complement of b).

    The new rung needs no separate test against a or b.  Once check_ladder
    has passed, every rung contains a and no rung's closure meets b, so the
    lower bound contains a and the upper bound contains b."""
    r = as_fraction(next_index)
    if not 0 < r < 1:
        raise InputError(f"next index {r} outside (0,1)")
    if r in partial.indices:
        raise InputError(f"index {r} already present")
    rep = check_ladder(space, partial, a, b)
    if not rep.ok:
        raise PreconditionError(f"invalid partial ladder: {rep.detail}")
    _check_pair(space, a, b)
    below = [(s, u) for s, u in partial.entries if s < r]
    above = [(s, u) for s, u in partial.entries if s > r]
    lower = closure(space, below[-1][1]) if below else a
    upper = (space.full ^ above[0][1]) if above else b
    for w in space.opens:
        if lower & ~w or closure(space, w) & upper:
            continue
        return Ladder(tuple(sorted(partial.entries + ((r, w),))))
    raise NoExtension(
        f"no open set separates {fmt_mask(lower)} from {fmt_mask(upper)}",
        blocking=(lower, upper))


# ---------------------------------------------------------------- witnesses

@dataclass
class EffectiveWitness:
    """A total table assigning each ordered disjoint closed pair an ordered
    disjoint open pair that covers it componentwise."""

    table: dict[tuple[int, int], tuple[int, int]]

    def apply(self, a: int, b: int) -> tuple[int, int]:
        try:
            return self.table[(a, b)]
        except KeyError:
            raise InputError(
                f"({fmt_mask(a)}, {fmt_mask(b)}) is not a disjoint closed "
                f"pair of this space") from None


def effective_witness(space: FiniteGT) -> Optional[EffectiveWitness]:
    """Build the canonical witness table on a normal space: empty members
    get the trivial pairs, every other pair the canonically least disjoint
    open cover (spaces.least_open_cover).  Returns None, before any cover
    is sought, when the space has a clopen defect: a table exists exactly
    when every nonempty disjoint closed pair has a disjoint open cover,
    which is normality, and on a finite strong GT normality is clopen
    separation, so on a normal space every cover is found."""
    if not space.is_strong:
        raise PreconditionError("effective witnesses need a strong space")
    if space.defect is not None:
        return None
    table = {}
    closeds = space.closeds
    for a in closeds:
        for b in closeds:
            if a & b:
                continue
            if a == 0:
                table[(a, b)] = (0, space.full)
            elif b == 0:
                table[(a, b)] = (space.full, 0)
            else:
                table[(a, b)] = least_open_cover(space, a, b)
    return EffectiveWitness(table)


def combine_effective_witnesses(s1: FiniteGT, s2: FiniteGT,
                                w1: EffectiveWitness,
                                w2: EffectiveWitness) -> EffectiveWitness:
    """Witness table for the product space: closed sets there are rectangles,
    so each disjoint closed pair has a coordinate with disjoint factors; the
    factor witness is stretched along the other coordinate."""
    prod = product(s1, s2)
    table = {}
    for a in prod.closeds:
        for b in prod.closeds:
            if a & b:
                continue
            a1, a2 = rect_factors(a, s1.n, s2.n)
            b1, b2 = rect_factors(b, s1.n, s2.n)
            if a1 & b1 == 0:
                u, v = w1.apply(a1, b1)
                table[(a, b)] = (stretch_rows(u, s1.n, s2.n),
                                 stretch_rows(v, s1.n, s2.n))
            else:
                u, v = w2.apply(a2, b2)
                table[(a, b)] = (stretch_cols(u, s1.n, s2.n),
                                 stretch_cols(v, s1.n, s2.n))
    return EffectiveWitness(table)


# ---------------------------------------------------------------- U-families

@dataclass(frozen=True)
class UFamily:
    """An indexed family of nested open-closed pairs with rational labels.

    The creation order is the chain order; labels are distinct rationals in
    (0,1) drawn from the fixed unit enumeration when built by extension."""

    labels: tuple[Fraction, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.pairs):
            raise InputError("labels and pairs must align")

    @property
    def length(self) -> int:
        return len(self.pairs)


EMPTY_U_FAMILY = UFamily((), ())


def validate_u_family(space: FiniteGT, fam: UFamily, a: int,
                      b: int) -> CheckReport:
    """Check the chain clauses: (i) a <= U_0 <= F_0 <= ... <= F_last <= X-b
    with open U's and closed F's, (ii) later opens minus earlier closeds are
    open, (iii) each position admits an auxiliary open-closed pair tied to
    its neighbors whose differences against the family are all open.  Once
    (i) holds, clause (iii) needs U_0 = F_0 in a one-pair family and is
    searched at the middle positions of a longer one (F1, F2 in
    is_u_normal)."""
    _check_u_pair(space, a, b)
    # in lowest terms with a positive denominator, so 0 < r < 1 reads
    # 0 < n < d, and equal labels have equal ratios
    ratios = [r.as_integer_ratio() for r in fam.labels]
    if (len(set(ratios)) != len(ratios)
            or any(not 0 < n < d for n, d in ratios)):
        return CheckReport(False, "labels",
                           "labels must be distinct rationals in (0,1)")
    us = [u for u, _ in fam.pairs]
    fs = [f for _, f in fam.pairs]
    k = fam.length
    for i in range(k):
        if us[i] not in space.open_set or fs[i] not in space.closed_set:
            return CheckReport(False, "(i)", f"pair {i} is not open-closed")
    for i in range(k):
        lower = a if i == 0 else fs[i - 1]
        if lower & ~us[i] or us[i] & ~fs[i]:
            return CheckReport(False, "(i)", f"chain broken at position {i}")
    if k and fs[-1] & b:
        return CheckReport(False, "(i)", "top closed set meets b")
    for j in range(k):
        for i in range(j):
            if (us[j] & ~fs[i]) not in space.open_set:
                return CheckReport(
                    False, "(ii)",
                    f"U at position {j} minus F at position {i} is not open")
    i = _first_aux_failure(space, us, fs)
    if i is not None:
        return CheckReport(False, "(iii)",
                           f"no auxiliary pair for position {i}")
    return CheckReport(True)


def _check_u_pair(space, a, b):
    _check_pair(space, a, b)
    if a == 0 or b == 0:
        raise PreconditionError("the chain clauses are about nonempty pairs")


def _first_aux_failure(space, us, fs) -> Optional[int]:
    """The first position where clause (iii) fails, or None, on a family
    that meets (i): U_0 = F_0 in a one-pair family (F1 in is_u_normal), else
    an auxiliary pair at each middle position (F2)."""
    if len(us) == 1:
        return None if us[0] == fs[0] else 0
    return next((i for i in range(1, len(us) - 1)
                 if not _aux_pair_ok(space, us, fs, i)), None)


def _aux_pair_ok(space, us, fs, i) -> bool:
    """Clause (iii) at a middle position 0 < i < last: an open u and a closed
    f with F_i <= u <= f <= U_{i+1} whose differences against the family are
    open.  The end positions need no search (see is_u_normal)."""
    for u in space.opens:
        if fs[i] & ~u:
            continue
        for f in space.closeds:
            if u & ~f or f & ~us[i + 1]:
                continue
            if _aux_side_conditions(space, us, fs, u, f):
                return True
    return False


def _aux_side_conditions(space, us, fs, u, f) -> bool:
    """The auxiliary pair's differences against the family are open: U_j - f
    when f <= U_j, and u - F_j when F_j <= u.  Each test decides on its own:
    the tests pin a 5-point space where a family passes without the second
    and a 6-point space where one passes without the first."""
    for j in range(len(us)):
        if f & ~us[j] == 0 and (us[j] & ~f) not in space.open_set:
            return False
        if fs[j] & ~u == 0 and (u & ~fs[j]) not in space.open_set:
            return False
    return True


def extend_u_family(space: FiniteGT, fam: UFamily, a: int, b: int) -> UFamily:
    """Append one pair: the canonically least open-closed pair whose extended
    family still satisfies all chain clauses (the chain search one pair past
    fam).  The new label is the first unit-enumeration rational not yet
    used.  The empty family bootstraps to length 1."""
    rep = validate_u_family(space, fam, a, b)
    if not rep.ok:
        raise PreconditionError(f"invalid family: clause {rep.clause}, "
                                f"{rep.detail}")
    used = {q.as_integer_ratio() for q in fam.labels}
    label = Fraction(*next(r for r in unit_ratios() if r not in used))
    us, fs = [u for u, _ in fam.pairs], [f for _, f in fam.pairs]
    tops = [f for f in space.closeds if not f & b]
    if not _extend_chain(space, a, tops, us, fs, fam.length + 1):
        raise NoExtension("no pair extends the family", blocking=(a, b))
    return UFamily(fam.labels + (label,), fam.pairs + ((us[-1], fs[-1]),))


@dataclass(frozen=True)
class UNormalReport:
    n_max: int
    per_n: tuple[bool, ...]
    blocking: tuple[Optional[tuple[int, int]], ...]

    @property
    def all_hold(self) -> bool:
        return all(self.per_n)


def is_u_normal(space: FiniteGT, n_max: int = 3) -> UNormalReport:
    """For each chain length up to n_max+1, does every nonempty disjoint
    closed pair admit a family satisfying the chain clauses?  Verdicts are
    reported per length bound; blocking records the first failing pair.

    Three facts settle most of this without a search.  (F1) A one-pair
    family meets clause (iii) exactly when U_0 = F_0, since the auxiliary
    pair needs F_0 <= u <= f <= U_0.  (F2) In a longer family clause (iii)
    holds at the first position through (empty, empty) and at the last
    through (X, X).  (F3) A pair with a clopen separator c has the family
    (c, c), ..., (c, c) of every length; for a pair without one, every
    valid family of n+1 pairs rises strictly,
    a < U_0 < F_0 < ... < F_n < X-b < X, because an equality would make a,
    some U_i or F_i, or F_n clopen, so it needs 2n+5 points.  Only the
    pairs with no clopen separator can fail, and they are searched only
    when n >= 1 and the space has room for the strict chain.  Where no
    search runs the first failing pair is the space's cached clopen defect
    (separation is symmetric, so the first hard pair has a before b), and
    the full list of hard pairs is built only on 7 points or more.
    """
    if not space.is_strong:
        raise PreconditionError("chain normality needs a strong space")
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    check_u_normal_length(n_max)
    defect = space.defect
    hard = ([(x, y) for x in space.closeds for y in space.closeds
             if x and y and not x & y and clopen_separator(space, x, y) is None]
            if defect is not None and space.n >= 7 else [])
    blocking = []
    for n in range(n_max + 1):
        if hard and n >= 1 and space.n >= 2 * n + 5:
            blocking.append(next((p for p in hard
                                  if not _chain_family_exists(space, *p, n)),
                                 None))
        else:
            blocking.append(defect)
    return UNormalReport(n_max, tuple(b is None for b in blocking),
                         tuple(blocking))


def _chain_family_exists(space: FiniteGT, a: int, b: int, n: int) -> bool:
    """Chain search from the empty prefix for a family of n+1 >= 2 pairs."""
    tops = [f for f in space.closeds if not f & b]
    return _extend_chain(space, a, tops, [], [], n + 1)


def _extend_chain(space: FiniteGT, a: int, tops: list[int], us: list[int],
                  fs: list[int], length: int) -> bool:
    """Depth-first search extending a valid chain prefix us, fs to length
    pairs (u, f), f in tops (the closeds missing b), in canonical order,
    testing (i) and (ii) per pair and (iii) at the leaf; us, fs end on the
    family."""
    if len(us) == length:
        return _first_aux_failure(space, us, fs) is None
    floor = fs[-1] if fs else a
    for u in space.opens:
        if floor & ~u or any((u & ~g) not in space.open_set for g in fs):
            continue
        for f in tops:
            if u & ~f:
                continue
            us.append(u)
            fs.append(f)
            if _extend_chain(space, a, tops, us, fs, length):
                return True
            us.pop()
            fs.pop()
    return False
