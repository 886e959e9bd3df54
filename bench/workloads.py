"""Seeded inputs and answer checks for the four benchmark workloads.

Every workload is a sequence of rounds; a round is a list of queries, each
the argv a user would type after ``gtopo``.  A round has a fixed composition
of query shapes (sizes, levels, spaces, targets) and only the seed-drawn
content varies, so a run that stops after whole rounds measures the same mix
on every seed.  ``build(name, seed, workdir, tiny)`` returns an iterator of
rounds; each query carries a ``check(doc)`` that returns None when the
printed JSON report is right, or a one-line reason when it is not.

The props pool is drawn whole, because its rounds are strata of one seeded
sample.  The real-line workloads draw each round when the run reaches it,
so a run can go on for as many rounds as its time allows.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from gtopo.expressions import parse_map, parse_set
from gtopo.pwmaps import PiecewiseMap, constant_map
from gtopo.realline import classify, closure_sym
from gtopo.spaces import FiniteGT, sample_strong_gts, space_to_dict

# Labeled strong GT counts on n = 0..5 points.
CENSUS_COUNTS = (1, 1, 4, 45, 2271, 1373701)


@dataclass
class Query:
    argv: list[str]
    check: Callable[[dict], Optional[str]]
    # Inputs the traced run counts exactly: "space" or "map".
    data: dict = field(default_factory=dict)
    # Untimed step just before the query, as a user would write an input file.
    prepare: Optional[Callable[[], None]] = None


def build(name: str, seed: int, workdir: str, tiny: bool = False
          ) -> Iterator[list[Query]]:
    rng = random.Random(f"{name}:{seed}")
    if name == "census":
        return _census(tiny)
    if name == "props":
        return _props(rng, seed, workdir, tiny)
    if name == "ladder":
        return _ladder(rng, tiny)
    if name == "continuity":
        return _continuity(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _q(x: Fraction) -> str:
    return str(Fraction(x))


# ----------------------------------------------------------------- census

def _census(tiny: bool) -> Iterator[list[Query]]:
    """One round of every census size, smallest first.  The counts are fixed
    by the paper and an input may not repeat, so the seed changes nothing."""
    sizes = range(4 if tiny else 6)

    def checker(n):
        def check(doc):
            if doc.get("count") != CENSUS_COUNTS[n]:
                return f"census n={n}: count {doc.get('count')}"
            return None
        return check

    return iter([[Query(["census", "--points", str(n)], checker(n),
                        {"points": n}) for n in sizes]])


# ------------------------------------------------------------------ props

# Spaces per round at each size.  The per-space cost grows steeply with the
# number of open sets, so each round takes one space from each of these many
# open-count strata of the seeded sample.
PROPS_STRATA = {4: 6, 5: 16}
PROPS_ROUNDS = 200   # pool capacity; a 20 s run used 90-125 on a 2-vCPU VM


def _props(rng, seed, workdir, tiny):
    # Hand rounds over one at a time, so spaces already asked about (and the
    # closed sets and the like they cache) are freed, and peak memory does
    # not grow with the number of rounds a run gets through.
    out = _props_rounds(rng, seed, workdir, tiny)
    out.reverse()
    while out:
        yield out.pop()


def _props_rounds(rng, seed, workdir, tiny) -> list[list[Query]]:
    rounds = 1 if tiny else PROPS_ROUNDS
    strata = {4: 2, 5: 2} if tiny else PROPS_STRATA
    per_round: list[list[FiniteGT]] = [[] for _ in range(rounds)]
    for n, k in strata.items():
        pool = sample_strong_gts(n, k * rounds, seed * 10 + n)
        pool.sort(key=lambda s: len(s.opens))
        for i in range(k):
            block = pool[i * rounds:(i + 1) * rounds]
            rng.shuffle(block)
            for r, s in enumerate(block):
                per_round[r].append(s)
    out = []
    for r, spaces in enumerate(per_round):
        rng.shuffle(spaces)
        queries = []
        for i, s in enumerate(spaces):
            path = f"{workdir}/s{r:03d}_{i:02d}_{s.n}.json"
            queries.append(Query(["props", path], _props_check(s),
                                 {"space": s}, _writer(path, s)))
        out.append(queries)
    return out


def _writer(path, space):
    # Space files are written just before their query rather than in set-up:
    # writing thousands of small files made set-up time depend on the disk.
    def write():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(space_to_dict(space), fh)
    return write


def _props_check(space: FiniteGT):
    def check(doc):
        st = doc["statements"]
        verdicts = {doc["profile"]["normal"], st["UL"], st["GUL"],
                    doc["effectively_normal"], doc["u_normal"]["holds"]}
        if len(verdicts) != 1:
            return "props: normal/UL/GUL/effective/u-normal disagree"
        if space.is_topology and st["TET"] != st["GTET"]:
            return "props: TET != GTET on a topology"
        return None
    return check


def disjoint_closed_pairs(space: FiniteGT) -> int:
    """Unordered disjoint closed pairs, as the UL/GUL deciders visit them."""
    cl = space.closeds
    return sum(1 for i, a in enumerate(cl) for b in cl[i:] if not a & b)


# ----------------------------------------------------------------- ladder

# The rational scan's cost is set by the gap between the two closed sets
# alone, and varies a hundredfold across small-rational gaps.  Every round
# therefore visits the same gaps, from a shallow to a deep scan; the seed
# draws the mirror image, the order of a and b, the outer ends and their
# shapes.
LADDER_GAPS = ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1)),
               (Fraction(1, 3), Fraction(2, 3)), (Fraction(1), Fraction(3)))
LADDER_LEVELS = (2, 3, 4, 5, 6)
_STEPS = tuple(Fraction(p, q) for p, q in ((1, 3), (1, 2), (2, 3), (1, 1),
                                           (3, 2), (2, 1)))


def _closed_pair(rng, lo, hi, space):
    """Disjoint closed sets left of lo and right of hi, in the space's
    closed catalog, with seeded outer ends and shapes."""
    x, y = lo - rng.choice(_STEPS), hi + rng.choice(_STEPS)
    if space == "gtn":
        left = rng.choice([f"[{_q(x)},{_q(lo)}]", f"(-inf,{_q(lo)}]"])
        right = rng.choice([f"[{_q(hi)},{_q(y)}]", f"[{_q(hi)},inf)"])
    else:
        left = rng.choice([f"[{_q(x)},{_q(lo)}]", f"[{_q(x)},{_q(lo)})",
                           f"(-inf,{_q(lo)}]", f"(-inf,{_q(lo)})"])
        right = rng.choice([f"[{_q(hi)},{_q(y)}]", f"[{_q(hi)},{_q(y)})",
                            f"[{_q(hi)},inf)"])
    return (left, right) if rng.random() < 0.5 else (right, left)


def _ladder(rng, tiny):
    gaps = LADDER_GAPS[:1] if tiny else LADDER_GAPS
    levels = LADDER_LEVELS[:2] if tiny else LADDER_LEVELS
    for _ in range(1) if tiny else itertools.count():
        queries = []
        for lo, hi in gaps:
            if rng.random() < 0.5:
                lo, hi = -hi, -lo
            for space in ("gtn", "gts"):
                a, b = _closed_pair(rng, lo, hi, space)
                queries.append(Query(
                    ["real", "effective-f", "--a", a, "--b", b,
                     "--space", space],
                    _effective_f_check(a, b, space)))
                for level in levels:
                    a, b = _closed_pair(rng, lo, hi, space)
                    queries.append(Query(
                        ["real", "ladder", "--a", a, "--b", b, "--space",
                         space, "--level", str(level)],
                        _ladder_check(a, b, space, level)))
        rng.shuffle(queries)
        yield queries


def _is_open(s, space):
    return classify(s, space) in ("open", "clopen")


def _effective_f_check(a_text, b_text, space):
    def check(doc):
        a, b = parse_set(a_text), parse_set(b_text)
        u, v = parse_set(doc["u"]), parse_set(doc["v"])
        if not (a.issubset(u) and b.issubset(v)):
            return "effective-f: cover fails"
        if not u.isdisjoint(v):
            return "effective-f: u and v meet"
        if not (_is_open(u, space) and _is_open(v, space)):
            return "effective-f: u or v not open"
        return None
    return check


def _ladder_check(a_text, b_text, space, level):
    want = [_q(Fraction(j, 2 ** level)) for j in range(1, 2 ** level)]

    def check(doc):
        a, b = parse_set(a_text), parse_set(b_text)
        rungs = doc["rungs"]
        if [r["index"] for r in rungs] != want:
            return "ladder: wrong rung indices"
        sets = [parse_set(r["set"]) for r in rungs]
        for u in sets:
            if not (_is_open(u, space) and a.issubset(u)
                    and u.isdisjoint(b)):
                return "ladder: rung not open, or misses a, or meets b"
        for u, w in zip(sets, sets[1:]):
            if not closure_sym(u, space).issubset(w):
                return "ladder: closure(U_r) not inside U_s"
        return None
    return check


# ------------------------------------------------------------- continuity

CONT_SIZES = (10, 20, 30, 40, 50, 60)   # breakpoints per map, every round
_XSTEPS = tuple(Fraction(p, q) for p, q in ((1, 4), (1, 2), (1, 1), (3, 2),
                                            (2, 1)))
_VSTEPS = tuple(Fraction(p, q) for p, q in ((1, 3), (1, 2), (1, 1), (2, 1)))

# A check's cost is set by the map's shape: the number of distinct critical
# values, whether the outer pieces are sloped (a bounded window then pulls
# back to a bounded set at once), and how far up the value order a spike
# sits.  Those are fixed per size so every round costs the same; the seed
# draws the positions, the values, the direction and the spike's size.


def _monotone_map(rng, k) -> PiecewiseMap:
    """Continuous monotone map through k breakpoints with sloped outer
    pieces; every fourth stretch between breakpoints is flat."""
    sign = rng.choice((1, -1))
    xs = [Fraction(rng.randint(-8, 8), 2)]
    vs = [Fraction(rng.randint(-6, 6), 3)]
    for i in range(1, k):
        xs.append(xs[-1] + rng.choice(_XSTEPS))
        vs.append(vs[-1] + (0 if i % 4 == 0 else sign * rng.choice(_VSTEPS)))
    slopes = ([sign * Fraction(1, 2)]
              + [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1
                 in zip(xs, xs[1:], vs, vs[1:])]
              + [sign * 2])
    # piece 0 passes through breakpoint 0, piece i > 0 through breakpoint i-1
    pieces = [(slopes[0], vs[0] - slopes[0] * xs[0])]
    pieces += [(m, v - m * x) for m, x, v in zip(slopes[1:], xs, vs)]
    return PiecewiseMap(tuple(xs), tuple(pieces), tuple(vs))


def _spiked(f: PiecewiseMap, rng) -> PiecewiseMap:
    """f with its middle breakpoint's value moved off both side limits."""
    j = len(f.values) // 2
    vals = list(f.values)
    vals[j] += rng.choice((Fraction(-1), Fraction(1, 2), Fraction(1)))
    return PiecewiseMap(f.breakpoints, f.pieces, tuple(vals))


def _map_text(f: PiecewiseMap) -> str:
    parts = []
    for k, (m, t) in enumerate(f.pieces):
        lo, hi = f.piece_interval(k)
        lo_s = "-inf" if lo is None else _q(lo)
        hi_s = "inf" if hi is None else _q(hi)
        sign = "-" if t < 0 else "+"
        parts.append(f"on ({lo_s},{hi_s}): {_q(m)}*x{sign}{_q(abs(t))}")
        if k < len(f.breakpoints):
            parts.append(f"at {_q(f.breakpoints[k])}: {_q(f.values[k])}")
    return "; ".join(parts)


def _continuity(rng, tiny):
    sizes = CONT_SIZES[:1] if tiny else CONT_SIZES
    for _ in range(1) if tiny else itertools.count():
        queries = []
        for k in sizes:
            f = _monotone_map(rng, k)
            g = _spiked(f, rng)
            texts = {f: _map_text(f), g: _map_text(g)}
            for fn, smooth in ((f, True), (g, False)):
                text = texts[fn]
                for source in ("gtn", "gts"):
                    for target in ("gtaun", "taun"):
                        queries.append(Query(
                            ["real", "check-fn", "--fn", text, "--source",
                             source, "--target", target],
                            _check_fn_check(smooth, target),
                            {"map": fn}))
            i = rng.randrange(k - 1)
            j = rng.randrange(i + 1, k)
            p = f"[{_q(f.breakpoints[i])},{_q(f.breakpoints[j])}]"
            queries.append(Query(
                ["real", "extend", "--p", p, "--fn", texts[f],
                 "--target", "gtaun"],
                _extend_check(f, p), {"map": f}))
        for space in ("gtn", "gts"):
            lo = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            a, b = _closed_pair(rng, lo, lo + rng.choice(_STEPS), space)
            queries.append(Query(
                ["real", "urysohn", "--a", a, "--b", b, "--space", space],
                _urysohn_check(a, b)))
        rng.shuffle(queries)
        yield queries


def _check_fn_check(smooth, target):
    # A continuous monotone map pulls rays back to rays; a spike isolates its
    # breakpoint in some ray preimage.  Neither pulls every bounded window
    # back to an open set, since bounded intervals are open in neither GT.
    want = smooth and target == "gtaun"

    def check(doc):
        if doc["continuous"] is not want:
            return f"check-fn: {target} verdict {doc['continuous']}"
        return None
    return check


def _extend_check(f, p_text):
    def check(doc):
        ext = parse_map(doc["extension"])
        if not ext.equals_on(f, parse_set(p_text)):
            return "extend: extension differs from f on p"
        return None
    return check


def _urysohn_check(a_text, b_text):
    def check(doc):
        if doc["continuity"] != {"gtaun": True, "taun": False}:
            return "urysohn: ramp continuity verdicts"
        ramp = parse_map(doc["witness"])
        if not (ramp.equals_on(constant_map(0), parse_set(a_text))
                and ramp.equals_on(constant_map(1), parse_set(b_text))):
            return "urysohn: ramp is not 0 on a and 1 on b"
        return None
    return check
