"""Symbolic real-line checks: catalogs, closures, ramps, extensions, F."""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtopo.realline as realline
from gtopo.errors import InputError, PreconditionError, ResourceError
from gtopo.expressions import parse_set
from gtopo.pwmaps import PiecewiseMap, constant_map, make_pwmap
from gtopo.realline import (LiftedWitness, OpenTriple, SymbolicWitness,
                            check_continuity_sym, classify, closure_sym,
                            disjoint_open_triple, effective_F, gul_witness,
                            image_and_connectedness, ladder_from_F,
                            product_gul_witness, tietze_extend)
from gtopo.symsets import (ALL_REALS, EMPTY_SET, Interval, SymbolicSet, above,
                           below, interval, make_set, point)
import catalog_oracle
import effective_f_oracle
from continuity_oracle import (is_continuous_everywhere, sweep_continuous,
                               trace_extend)
from effective_f_oracle import scan_effective_F, scan_split_point
from test_pwmaps import POOL, RAMP, STEP, rand_map
from test_symsets import rand_set

S = parse_set
GUL_EXAMPLE = gul_witness(S("[0,1]"), S("[2,3]"), "gtn")  # ramp over (1,2)


def rand_closed_pair(rng, space, dens=(1, 2)):
    """Two disjoint nonempty closed catalog sets, in random orientation,
    with ends n/d for n in -8..8 and d in dens."""
    pool = sorted({F(n, d) for n in range(-8, 9) for d in dens})
    pts = sorted(rng.sample(pool, 4))
    p1, p2, p3, p4 = pts
    lefts = [below(p1, closed=True), interval(p1, p2, True, True), point(p1)]
    rights = [interval(p3, p4, True, True), above(p3, closed=True), point(p4)]
    if space == "gts":
        lefts += [below(p1), interval(p1, p2, True, False)]
        rights += [interval(p3, p4, True, False)]
    a, b = rng.choice(lefts), rng.choice(rights)
    return (b, a) if rng.randrange(2) else (a, b)


def rand_monotone_continuous(rng):
    """Classically continuous monotone piecewise-affine map."""
    k = rng.randrange(3)
    bps = sorted(rng.sample([F(n) for n in range(-3, 4)], k))
    sign = rng.choice([1, -1])
    slopes = [sign * F(rng.randrange(0, 3)) for _ in range(k + 1)]
    t = F(rng.randrange(-2, 3))
    pieces = [(slopes[0], t)]
    vals = []
    for i, b in enumerate(bps):
        v = pieces[-1][0] * b + pieces[-1][1]
        vals.append(v)
        m = slopes[i + 1]
        pieces.append((m, v - m * b))
    return make_pwmap(bps, pieces, vals)


def rand_step_map(rng):
    """Flat outer pieces and one to four breakpoints in -4..4; each inner
    piece is flat or ramps between two levels in -2..2, and each breakpoint
    takes a side's limit or a fresh level.  Few levels make ramp ends meet
    steps, where a ray preimage can change shape inside a region only."""
    k = rng.randrange(1, 5)
    bps = sorted(rng.sample([F(n) for n in range(-4, 5)], k))

    def level():
        return F(rng.randrange(-2, 3))
    pieces = [(F(0), level())]
    for b1, b2 in zip(bps, bps[1:]):
        l1 = level()
        l2 = rng.choice([l1, level()])
        m = (l2 - l1) / (b2 - b1)
        pieces.append((m, l1 - m * b1))
    pieces.append((F(0), level()))
    vals = [rng.choice([m1 * b + t1, m2 * b + t2, level()])
            for b, (m1, t1), (m2, t2) in zip(bps, pieces, pieces[1:])]
    return make_pwmap(bps, pieces, vals)


def continuity_corpus(seed, rounds):
    """Random, monotone, step and constant maps, one of each per round."""
    rng = random.Random(seed)
    maps = []
    for _ in range(rounds):
        maps += [rand_map(rng), rand_monotone_continuous(rng),
                 rand_step_map(rng),
                 constant_map(F(rng.randrange(-3, 4), rng.randrange(1, 4)))]
    return maps


PAIRS = [(s, t) for s in ("gtn", "gts") for t in ("taun", "gtaun")]
TIETZE_DOMAINS = [S(p) for p in ("[-2,3]", "[0,1]", "[-1/2,5/2]", "(-inf,1]",
                                 "(-inf,-1]", "[-1,inf)", "[2,inf)")]


def _extension_outcome(extend, p, f, target):
    """The extension, or the rejection message."""
    try:
        return extend(p, f, target)
    except PreconditionError as e:
        return str(e)


# --- classify ----------------------------------------------------------------

def test_classify_examples():
    assert classify(S("(-inf,3)"), "gtn") == "open"
    assert classify(S("[0,1]"), "gtn") == "closed"
    assert classify(S("[1,inf)"), "gts") == "clopen"
    assert classify(S("(1,inf)"), "gtn") == "open"
    assert classify(S("(-inf,0)|(2,inf)"), "gtn") == "open"
    assert classify(S("(-inf,0)|[2,inf)"), "gts") == "open"
    assert classify(S("(-inf,0)|[2,inf)"), "gtn") == "neither"
    assert classify(S("empty"), "gtn") == "clopen"
    assert classify(S("all"), "gts") == "clopen"


def test_classify_catalog_edges():
    # equal ray endpoints: a two-ray open with a = b is the punctured line
    punctured = point(0).complement()
    assert classify(punctured, "gtn") == "open"
    assert classify(point(0), "gtn") == "closed"
    assert classify(S("(0,1)"), "gtn") == "neither"
    assert classify(S("[0,1)"), "gtn") == "neither"
    assert classify(S("[0,1)"), "gts") == "closed"
    assert classify(S("(-inf,0)"), "gts") == "clopen"
    assert classify(S("(-inf,0]"), "gts") == "closed"
    assert classify(S("(0,inf)"), "gts") == "open"
    assert classify(S("(0,1]"), "gts") == "neither"
    assert classify(S("[0,1]|[2,3]"), "gtn") == "neither"
    with pytest.raises(InputError):
        classify(S("[0,1]"), "euclid")


def test_classify_complement_duality():
    rng = random.Random(2401)
    pool = [rand_set(rng) for _ in range(300)]
    pool += [S("(-inf,0)|(0,inf)"), S("[0,1)"), S("(-inf,2)"), point(5)]
    for s in pool:
        for space in ("gtn", "gts"):
            is_open = classify(s, space) in ("open", "clopen")
            comp_closed = classify(s.complement(), space) in ("closed", "clopen")
            assert is_open == comp_closed


@functools.cache
def _oracle_closure_over(lo, lo_in, hi, hi_in, space):
    """The least end-flag variant of the hull from lo to hi that holds the
    ends marked in and that catalog_oracle calls closed.  Every closed
    superset of a set holds such a variant of the set's hull."""
    supersets = []
    for lc in {lo is not None and lo_in, lo is not None}:
        for hc in {hi is not None and hi_in, hi is not None}:
            if lo is None or lo != hi or lc and hc:
                c = SymbolicSet((Interval(lo, hi, lc, hc),))
                if catalog_oracle._is_closed_form(c, space):
                    supersets.append((lc, hc, c))
    least = [c for lc, hc, c in supersets
             if all(lc <= ld and hc <= hd for ld, hd, _ in supersets)]
    assert len(least) == 1, (lo, lo_in, hi, hi_in, space, supersets)
    return least[0]


def _rand_catalog_set(rng, pool):
    """A union of one to three intervals, rays and points, ends in pool.
    Unlike test_symsets.rand_set it never draws ∅, and its larger pool
    makes draws rarely repeat, so 20,000 distinct sets come cheaply."""
    ivs = []
    for _ in range(rng.randrange(1, 4)):
        a, b = sorted(rng.sample(pool, 2))
        kind = rng.randrange(4)
        if kind == 0:
            ivs.append(Interval(a, b, rng.random() < .5, rng.random() < .5))
        elif kind == 1:
            ivs.append(Interval(None, a, False, rng.random() < .5))
        elif kind == 2:
            ivs.append(Interval(b, None, rng.random() < .5, False))
        else:
            ivs.append(Interval(a, a, True, True))
    return make_set(ivs)


def test_catalog_rule_matches_the_shape_oracle():
    """classify and closure_sym, read off the one end-flag rule, against the
    catalog lists written out shape by shape (catalog_oracle), on 20,000
    distinct seeded unions of one to three intervals, rays and points, their
    complements, and the catalog's edge shapes, in both spaces."""
    rng = random.Random(2020)
    ends = [F(n, 2) for n in range(-20, 21)]
    pool = {S(e): None for e in (
        "(-inf,0)|(0,inf)", "[0,0]", "(-inf,0)", "(-inf,0]", "(0,inf)",
        "[0,inf)", "(-inf,0)|[1,inf)", "(-inf,0]|(1,inf)", "(-inf,0)|[0,1)",
        "empty")}
    while len(pool) < 20010:
        pool[_rand_catalog_set(rng, ends)] = None
    pool = list(pool) + [s.complement() for s in pool]
    names = {(False, False): "neither", (False, True): "closed",
             (True, False): "open", (True, True): "clopen"}
    for s in pool:
        hull = (s.inf() + s.sup()) if s.components else None
        for space in ("gtn", "gts"):
            expected = names[catalog_oracle._is_open_form(s, space),
                             catalog_oracle._is_closed_form(s, space)]
            assert classify(s, space) == expected, (s, space)
            least = EMPTY_SET if hull is None else _oracle_closure_over(
                *hull, space)
            assert closure_sym(s, space) == least, (s, space)


# --- closure -----------------------------------------------------------------

def test_closure_examples():
    assert closure_sym(S("(0,1)"), "gtn") == S("[0,1]")
    assert closure_sym(S("[3,3]"), "gtn") == S("[3,3]")
    assert closure_sym(S("[0,1)"), "gts") == S("[0,1)")
    assert closure_sym(S("(0,1)"), "gts") == S("[0,1)")
    assert closure_sym(S("(0,1]"), "gts") == S("[0,1]")
    assert closure_sym(S("(-inf,0)"), "gtn") == S("(-inf,0]")
    assert closure_sym(S("(-inf,0)"), "gts") == S("(-inf,0)")
    assert closure_sym(S("(0,1)|(2,3)"), "gtn") == S("[0,3]")
    assert closure_sym(S("(0,1)|(2,3)"), "gts") == S("[0,3)")
    assert closure_sym(EMPTY_SET, "gts") == EMPTY_SET
    assert closure_sym(ALL_REALS, "gtn") == ALL_REALS


def _closed_candidates_over(s):
    lo, _ = s.inf()
    hi, _ = s.sup()
    for lo2 in {lo, None}:
        for hi2 in {hi, None}:
            for lc in (True, False):
                for hc in (True, False):
                    if lo2 is None and lc or hi2 is None and hc:
                        continue
                    if lo2 is not None and hi2 is not None and lo2 == hi2 \
                            and not (lc and hc):
                        continue
                    yield make_set([Interval(lo2, hi2, lc, hc)])


def test_closure_properties():
    rng = random.Random(881)
    for _ in range(300):
        s, t = rand_set(rng), rand_set(rng)
        for space in ("gtn", "gts"):
            cl = closure_sym(s, space)
            assert s.issubset(cl)
            assert closure_sym(cl, space) == cl
            assert cl.issubset(closure_sym(s.union(t), space))
            assert classify(cl, space) in ("closed", "clopen")
            if not s.is_empty:
                # minimal among hull-endpoint closed supersets
                for cand in _closed_candidates_over(s):
                    if classify(cand, space) in ("closed", "clopen") \
                            and s.issubset(cand):
                        assert cl.issubset(cand)


# --- gul_witness -------------------------------------------------------------

def test_gul_witness_examples():
    f = gul_witness(S("(-inf,0]"), S("[1,inf)"), "gtn")
    assert f == RAMP
    assert (f.value_at(-2), f.value_at(F(1, 2)), f.value_at(5)) == (0, F(1, 2), 1)

    g = gul_witness(S("[2,3]"), S("(-inf,0]"), "gtn")
    assert g == make_pwmap((0, 2), ((0, 1), (F(-1, 2), 1), (0, 0)), (1, 0))
    assert (g.value_at(3), g.value_at(0)) == (0, 1)

    h = gul_witness(S("[0,1]"), S("[2,3]"), "gtn")
    assert h.value_at(F(3, 2)) == F(1, 2)
    assert h.breakpoints == (F(1), F(2))


def test_gul_witness_gts_half_open():
    f = gul_witness(S("[0,1)"), S("[2,3]"), "gts")
    assert f.breakpoints == (F(1), F(2))
    assert f.value_at(1) == 0 and f.value_at(2) == 1


def test_gul_witness_preconditions():
    with pytest.raises(PreconditionError):
        gul_witness(S("(0,1)"), S("[2,3]"), "gtn")      # not closed
    with pytest.raises(PreconditionError):
        gul_witness(S("[0,2]"), S("[1,3]"), "gtn")      # intersect
    with pytest.raises(PreconditionError):
        gul_witness(S("empty"), S("[0,1]"), "gtn")      # empty side
    with pytest.raises(PreconditionError):
        gul_witness(S("[0,1)"), S("[1,2]"), "gts")      # touching, no gap


def test_gul_witness_separates_and_is_g_continuous():
    rng = random.Random(6034)
    for _ in range(100):
        space = rng.choice(["gtn", "gts"])
        a, b = rand_closed_pair(rng, space)
        f = gul_witness(a, b, space)
        assert is_continuous_everywhere(f)
        assert check_continuity_sym(f, space, "gtaun")
        assert not check_continuity_sym(f, space, "taun")
        assert a.issubset(f.preimage_open(F(-1, 2), F(1, 2)))
        assert b.issubset(f.preimage_open(F(1, 2), F(3, 2)))
        img, connected = image_and_connectedness(f)
        assert img == S("[0,1]") and connected


# --- continuity --------------------------------------------------------------

def test_continuity_examples():
    assert check_continuity_sym(GUL_EXAMPLE, "gtn", "gtaun")
    assert not check_continuity_sym(GUL_EXAMPLE, "gtn", "taun")
    # the failing window: (1/4,1/2) pulls back to a bounded interval
    assert GUL_EXAMPLE.preimage_open(F(1, 4), F(1, 2)) == S("(5/4,3/2)")
    for source in ("gtn", "gts"):
        for target in ("taun", "gtaun"):
            assert check_continuity_sym(constant_map(F(2, 7)), source, target)
    ident = make_pwmap((), ((1, 0),), ())
    assert check_continuity_sym(ident, "gtn", "gtaun")
    assert not check_continuity_sym(ident, "gtn", "taun")
    vee = make_pwmap((0,), ((-1, 0), (1, 0)), (0,))
    assert not check_continuity_sym(vee, "gtn", "gtaun")
    with pytest.raises(InputError):
        check_continuity_sym(RAMP, "gtn", "uniform")
    with pytest.raises(InputError):
        check_continuity_sym(RAMP, "metric", "taun")


def test_continuity_distinguishes_spaces():
    # 0 on (-inf,0), 1 on [0,inf): superlevels are [a,inf)-shaped
    up = make_pwmap((0,), ((0, 0), (0, 1)), (1,))
    assert check_continuity_sym(up, "gts", "gtaun")
    assert not check_continuity_sym(up, "gtn", "gtaun")
    # while the left-closed step fails in both
    assert not check_continuity_sym(STEP, "gts", "gtaun")
    assert not check_continuity_sym(STEP, "gtn", "gtaun")


def test_continuity_true_verdicts_hold_on_random_windows():
    rng = random.Random(7711)
    qs = [F(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    for _ in range(150):
        f = rand_map(rng)
        for source in ("gtn", "gts"):
            if check_continuity_sym(f, source, "taun"):
                for _ in range(20):
                    p, q = sorted(rng.sample(qs, 2))
                    pre = f.preimage_open(p, q)
                    assert classify(pre, source) in ("open", "clopen")
            if check_continuity_sym(f, source, "gtaun"):
                for _ in range(20):
                    q = rng.choice(qs)
                    for lo, hi in ((None, q), (q, None)):
                        pre = f.preimage_open(lo, hi)
                        assert classify(pre, source) in ("open", "clopen")


def test_window_continuity_implies_connected_image():
    rng = random.Random(3310)
    pool = [rand_map(rng) for _ in range(150)] + [constant_map(F(5, 3))]
    for f in pool:
        if check_continuity_sym(f, "gtn", "taun"):
            _, connected = image_and_connectedness(f)
            assert connected


def test_no_window_continuous_separator_exists():
    # any map pinning [0,1] at 0 and [2,3] at 1 fails window continuity
    rng = random.Random(5120)
    for _ in range(30):
        mid = F(rng.randrange(5, 8), 4)           # breakpoint inside (1,2)
        s1, t1 = F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3))
        f = make_pwmap((1, mid, 2),
                       ((0, 0), (s1, t1), (rng.randrange(-2, 3), 0), (0, 1)),
                       (0, F(rng.randrange(-1, 2)), 1))
        assert not check_continuity_sym(f, "gtn", "taun")


@pytest.mark.parametrize("source,target", PAIRS)
def test_continuity_matches_window_sweep(source, target):
    verdicts = []
    for f in continuity_corpus(40417, 150):
        got = check_continuity_sym(f, source, target)
        assert got == sweep_continuous(f, source, target), (f, source, target)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


# gtaun verdicts that only one kind of probe sees: a ray end inside a
# region, below every critical value, or above every critical value.
PROBE_CASES = [
    # -1, then x/2 rising from -2 to -1 on (-4,-2), then -2 from -2 on
    (make_pwmap((-4, -2), ((0, -1), (F(1, 2), 0), (0, -2)), (-1, -2)),
     (None, F(-3, 2)), "(-4,-3) | [-2,inf)"),
    # a peak of -1 at 4: the rays above every value pull back bounded
    (make_pwmap((4,), ((F(1, 2), -3), (-1, 3)), (-1,)),
     (F(-2), None), "(2,5)"),
    # a valley of 1 at 4
    (make_pwmap((4,), ((F(-1, 2), 3), (1, -3)), (1,)),
     (None, F(2)), "(2,5)"),
]


@pytest.mark.parametrize("f,window,shown", PROBE_CASES)
def test_gtaun_probes_every_region(f, window, shown):
    assert f.preimage_open(*window) == S(shown)
    for source in ("gtn", "gts"):
        for q in f.criticals():
            for lo, hi in ((None, q), (q, None)):
                assert classify(f.preimage_open(lo, hi), source) in (
                    "open", "clopen")
        assert not check_continuity_sym(f, source, "gtaun")
        assert not sweep_continuous(f, source, "gtaun")


# Maps at the edge of each clause of the one-pass decider, with their
# verdicts on gtn → taun, gtn → gtaun, gts → taun, gts → gtaun.
BOUNDARY_CASES = {
    # 1 on (-inf,0), 0 on [0,inf): gts only, since L = v fails on gtn
    "gts step down": (make_pwmap((0,), ((0, 1), (0, 0)), (0,)),
                      (False, False, True, True)),
    # 0 on (-inf,0], 1 on (0,inf): (-inf,0] = {f < 1/2} is open in neither
    "step up at left limit": (make_pwmap((0,), ((0, 0), (0, 1)), (0,)),
                              (False, False, False, False)),
    # 0 up to 1, then falling: monotone with a flat piece
    "flat then falling": (make_pwmap((1,), ((0, 0), (-1, 1)), (0,)),
                          (False, True, False, True)),
    # rising, flat, then falling at the far end: a plateau peak
    "rise, flat, fall": (make_pwmap((0, 1), ((1, 0), (0, 0), (-1, 1)),
                                    (0, 0)),
                         (False, False, False, False)),
    # 0, 1 on [0,1), 2 on [1,inf): monotone but three-valued
    "gts staircase": (make_pwmap((0, 1), ((0, 0), (0, 1), (0, 2)), (1, 2)),
                      (False, False, False, True)),
    # 0 on (-inf,0), 1 on [0,inf): two values split by a gts clopen
    "gts step up": (make_pwmap((0,), ((0, 0), (0, 1)), (1,)),
                    (False, False, True, True)),
}


@pytest.mark.parametrize("name", BOUNDARY_CASES)
def test_continuity_boundary_cases(name):
    f, expected = BOUNDARY_CASES[name]
    got = tuple(check_continuity_sym(f, s, t) for s, t in PAIRS)
    assert got == expected
    assert got == tuple(sweep_continuous(f, s, t) for s, t in PAIRS)


def test_continuity_reads_pieces_not_preimages(monkeypatch):
    maps = continuity_corpus(61, 100)
    expected = [[sweep_continuous(f, s, t) for s, t in PAIRS] for f in maps]

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call
    for name in ("preimage_open", "image"):
        monkeypatch.setattr(PiecewiseMap, name, refuse(name))
    assert [[check_continuity_sym(f, s, t) for s, t in PAIRS]
            for f in maps] == expected


@st.composite
def small_maps(draw):
    """Up to three breakpoints from -3..3, slopes, intercepts and values in
    -2..2, with flat pieces and classical continuity drawn often."""
    bps = draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True))
    bps.sort()
    ints = st.integers(-2, 2).map(F)
    slopes = st.one_of(st.just(F(0)), ints)
    pieces = [(draw(slopes), draw(ints)) for _ in range(len(bps) + 1)]
    values = []
    for i, b in enumerate(bps):
        left = pieces[i][0] * b + pieces[i][1]
        values.append(draw(st.one_of(st.just(left), ints)))
    return make_pwmap(bps, pieces, values)


@settings(max_examples=150, deadline=None)
@given(f=small_maps(), p=st.sampled_from(TIETZE_DOMAINS))
def test_continuity_and_extension_match_oracles(f, p):
    for source, target in PAIRS:
        assert check_continuity_sym(f, source, target) \
            == sweep_continuous(f, source, target)
    for target in ("taun", "gtaun"):
        assert _extension_outcome(tietze_extend, p, f, target) \
            == _extension_outcome(trace_extend, p, f, target)


# Stretches that take a map's numbers to about 300 digits: g(x) = c·f(x/k)
# keeps every verdict of f, and its data is k·b, c·m/k, c·t and c·v.
BIG = 10 ** 300
STRETCHES = [(F(1), F(1)), (F(BIG + 7, 3), F(2 * BIG + 1, 7)),
             (F(3, BIG + 11), F(-(BIG + 3), 5))]
SMALL_RATIONALS = st.fractions(-3, 3, max_denominator=7)


@st.composite
def rational_maps(draw):
    """Up to three breakpoints, and slopes, intercepts and values, all n/d
    with d in 1..7 and either sign.  Slopes share a sign or are 0 often,
    pieces often meet, and values often take a side limit, so every clause
    of the decider is met on both sides.  Some maps are stretched to
    numbers of about 300 digits."""
    bps = sorted(set(draw(st.lists(SMALL_RATIONALS, max_size=3))))
    sign = draw(st.sampled_from([1, -1]))
    slopes = st.one_of(st.just(F(0)),
                       SMALL_RATIONALS.map(lambda m: sign * abs(m)),
                       SMALL_RATIONALS)
    m = draw(slopes)
    pieces = [(m, draw(SMALL_RATIONALS))]
    values = []
    for b in bps:
        left = pieces[-1][0] * b + pieces[-1][1]
        right = draw(st.one_of(st.just(left), SMALL_RATIONALS))
        m = draw(slopes)
        pieces.append((m, right - m * b))
        values.append(draw(st.one_of(st.sampled_from([left, right]),
                                     SMALL_RATIONALS)))
    k, c = draw(st.sampled_from(STRETCHES))
    f = make_pwmap([k * b for b in bps],
                   [(c * m / k, c * t) for m, t in pieces],
                   [c * v for v in values])
    return f, k


@st.composite
def closed_domains(draw, k):
    """A closed ray or a closed bounded interval with n/d ends, stretched
    by k like the map it is drawn for."""
    a, b = sorted(draw(st.lists(SMALL_RATIONALS, min_size=2, max_size=2,
                                unique=True)))
    kind = draw(st.sampled_from(["interval", "below", "above"]))
    if kind == "interval":
        return interval(k * a, k * b, True, True)
    if kind == "below":
        return below(k * a, closed=True)
    return above(k * a, closed=True)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_oracles_on_rationals(data):
    f, k = data.draw(rational_maps())
    p = data.draw(closed_domains(k))
    for source, target in PAIRS:
        assert check_continuity_sym(f, source, target) \
            == sweep_continuous(f, source, target)
    for target in ("taun", "gtaun"):
        assert _extension_outcome(tietze_extend, p, f, target) \
            == _extension_outcome(trace_extend, p, f, target)


# --- tietze ------------------------------------------------------------------

def test_tietze_bounded_interval():
    half = make_pwmap((), ((F(1, 2), 0),), ())
    ext = tietze_extend(S("[0,2]"), half, "gtaun")
    assert ext == make_pwmap((0, 2), ((0, 0), (F(1, 2), 0), (0, 1)), (0, 1))
    assert ext.equals_on(half, S("[0,2]"))
    assert check_continuity_sym(ext, "gtn", "gtaun")
    with pytest.raises(PreconditionError):
        tietze_extend(S("[0,2]"), half, "taun")   # x/2 is not window-continuous


def test_tietze_left_ray():
    ext = tietze_extend(S("(-inf,0]"), constant_map(0), "taun")
    assert ext.equals_on(constant_map(0), ALL_REALS)
    ext2 = tietze_extend(S("(-inf,0]"), constant_map(0), "gtaun")
    assert ext2.equals_on(constant_map(0), ALL_REALS)


def test_tietze_right_ray():
    shift = make_pwmap((), ((1, -1),), ())
    ext = tietze_extend(S("[1,inf)"), shift, "gtaun")
    assert ext == make_pwmap((1,), ((0, 0), (1, -1)), (0,))
    assert ext.value_at(-5) == 0 and ext.value_at(3) == 2
    assert check_continuity_sym(ext, "gtn", "gtaun")


def test_tietze_keeps_interior_breakpoints():
    inner = make_pwmap((1, 2), ((1, 0), (0, 1), (2, -3)), (1, 1))
    ext = tietze_extend(S("[0,4]"), inner, "gtaun")
    assert ext.breakpoints == (F(0), F(1), F(2), F(4))
    assert ext.equals_on(inner, S("[0,4]"))
    assert ext.value_at(-9) == inner.value_at(0)
    assert ext.value_at(9) == inner.value_at(4)


def test_tietze_rejections():
    f = constant_map(0)
    for bad in (S("empty"), S("all"), S("[1,1]"), S("(0,1]"), S("(0,1)")):
        with pytest.raises(PreconditionError):
            tietze_extend(bad, f, "taun")
    vee = make_pwmap((1,), ((-1, 1), (1, -1)), (0,))
    with pytest.raises(PreconditionError):
        tietze_extend(S("[0,2]"), vee, "gtaun")   # not monotone on p
    with pytest.raises(InputError):
        tietze_extend(S("[0,2]"), f, "euclid")


def test_tietze_seeded_sweep():
    rng = random.Random(918273)
    forms = [S("[-2,3]"), S("(-inf,1]"), S("[-1,inf)")]
    for _ in range(40):
        p = rng.choice(forms)
        mono = rand_monotone_continuous(rng)
        ext = tietze_extend(p, mono, "gtaun")
        assert ext.equals_on(mono, p)
        assert check_continuity_sym(ext, "gtn", "gtaun")
        const = constant_map(F(rng.randrange(-3, 4), rng.randrange(1, 4)))
        ext2 = tietze_extend(p, const, "taun")
        assert ext2.equals_on(const, ALL_REALS)
        assert check_continuity_sym(ext2, "gtn", "taun")


def test_tietze_matches_trace_decider():
    seen = set()
    domains = TIETZE_DOMAINS + [S("[1,1]"), S("(0,1]"), S("(0,1)"), ALL_REALS]
    for f in continuity_corpus(52001, 40):
        for p in domains:
            for target in ("taun", "gtaun"):
                got = _extension_outcome(tietze_extend, p, f, target)
                assert got == _extension_outcome(trace_extend, p, f, target)
                seen.add(got if isinstance(got, str) else "extended")
    assert seen == {"extended", "p is not closed in gtn",
                    "p must be a proper nonempty closed set",
                    "singleton domains are not handled",
                    "f is not taun-continuous on the subspace p",
                    "f is not gtaun-continuous on the subspace p"}


# --- image / triple ----------------------------------------------------------

def test_image_and_connectedness_examples():
    assert image_and_connectedness(GUL_EXAMPLE) == (S("[0,1]"), True)
    assert image_and_connectedness(STEP) == (S("[0,0]|[1,1]"), False)
    assert image_and_connectedness(constant_map(7)) == (S("[7,7]"), True)


def test_disjoint_open_triple_examples():
    t = disjoint_open_triple(GUL_EXAMPLE)
    assert t.u == S("(-inf,5/4)") and t.verdicts[0] == "open"
    assert t.v == S("(4/3,5/3)") and t.verdicts[1] == "neither"
    assert t.w == S("(7/4,inf)") and t.verdicts[2] == "open"
    assert t.u.isdisjoint(t.v) and t.v.isdisjoint(t.w) and t.u.isdisjoint(t.w)

    t0 = disjoint_open_triple(constant_map(0))
    assert (t0.u, t0.v, t0.w) == (ALL_REALS, EMPTY_SET, EMPTY_SET)
    assert t0.verdicts == ("clopen", "clopen", "clopen")

    ts = disjoint_open_triple(STEP)
    assert ts.u == S("(-inf,0]") and ts.verdicts[0] == "closed"
    assert ts.v == EMPTY_SET
    assert ts.w == S("(0,inf)") and ts.verdicts[2] == "open"


# --- effective_F -------------------------------------------------------------

def test_effective_f_examples():
    w = effective_F(S("[0,1]"), S("[2,3]"), "gtn")
    assert w == SymbolicWitness(S("(-inf,3/2)"), S("(3/2,inf)"))
    assert effective_F(S("empty"), S("[2,3]"), "gtn") \
        == SymbolicWitness(EMPTY_SET, ALL_REALS)
    assert effective_F(S("[2,3]"), S("empty"), "gtn") \
        == SymbolicWitness(ALL_REALS, EMPTY_SET)
    assert effective_F(S("empty"), S("empty"), "gtn") \
        == SymbolicWitness(EMPTY_SET, ALL_REALS)
    w2 = effective_F(S("[1,inf)"), S("[0,1/2]"), "gts")
    assert w2 == SymbolicWitness(S("[1,inf)"), S("(-inf,1)"))


def test_effective_f_orientation_and_gts_cases():
    w = effective_F(S("[2,3]"), S("[0,1]"), "gtn")
    assert w == SymbolicWitness(S("(3/2,inf)"), S("(-inf,3/2)"))
    # b open in gts, a not
    w2 = effective_F(S("[0,1]"), S("(-inf,-1)"), "gts")
    assert w2 == SymbolicWitness(S("[-1,inf)"), S("(-inf,-1)"))
    # neither open: the split scan, with a touching pair
    w3 = effective_F(S("[0,1)"), S("[1,2]"), "gts")
    assert w3 == SymbolicWitness(S("(-inf,1)"), S("[1,inf)"))
    w4 = effective_F(S("[1,2]"), S("[0,1)"), "gts")
    assert w4 == SymbolicWitness(S("[1,inf)"), S("(-inf,1)"))
    # empty sides in gts route through the open-set case
    assert effective_F(S("empty"), S("[0,1]"), "gts") \
        == SymbolicWitness(EMPTY_SET, ALL_REALS)


def test_effective_f_contract_sweep():
    rng = random.Random(26012)
    for _ in range(120):
        space = rng.choice(["gtn", "gts"])
        a, b = rand_closed_pair(rng, space)
        if rng.randrange(10) == 0:
            a = EMPTY_SET
        w = effective_F(a, b, space)
        assert w == effective_F(a, b, space)
        assert classify(w.u, space) in ("open", "clopen")
        assert classify(w.v, space) in ("open", "clopen")
        assert w.u.isdisjoint(w.v)
        assert a.issubset(w.u) and b.issubset(w.v)


def test_effective_f_far_out_pair():
    # 61/2 sits about 31 rows deep in the Calkin-Wilf walk
    w = effective_F(S("[30,30]"), S("[31,31]"), "gtn")
    assert w == SymbolicWitness(S("(-inf,61/2)"), S("(61/2,inf)"))
    w2 = effective_F(S("[31,31]"), S("[30,30]"), "gts")
    assert w2 == SymbolicWitness(S("[31,inf)"), S("(-inf,31)"))


def test_scan_refuses_past_its_cap(monkeypatch):
    a, b = S("[8,8]"), S("[9,9]")
    i, q = scan_split_point(a, b, "gtn")
    assert (i, q) == (1533, F(17, 2))
    monkeypatch.setattr(effective_f_oracle, "SCAN_CAP", i + 1)
    assert scan_split_point(a, b, "gtn") == (i, q)
    monkeypatch.setattr(effective_f_oracle, "SCAN_CAP", i)
    with pytest.raises(ResourceError):
        scan_split_point(a, b, "gtn")


def test_effective_f_matches_scan_on_random_pairs():
    rng = random.Random(61902)
    deepest = 0
    for _ in range(500):
        for space in ("gtn", "gts"):
            a, b = rand_closed_pair(rng, space, dens=range(1, 8))
            assert effective_F(a, b, space) == scan_effective_F(a, b, space)
            deepest = max(deepest, scan_split_point(a, b, space)[0])
    assert deepest > 100


LADDER_PAIRS = {
    "gtn": (("[0,1]", "[2,3]"), ("[2,3]", "(-inf,0]"),
            ("[-1/3,1/2]", "[1,inf)"), ("(-inf,-2]", "[-1,5]")),
    "gts": (("[0,1)", "[1,2]"), ("[2,3]", "(-inf,0]"),
            ("[-1/3,1/2)", "[1,5/2]"), ("(-inf,-2]", "[-1,5)")),
}


@pytest.mark.parametrize("space", ["gtn", "gts"])
def test_effective_f_matches_scan_on_ladder_rungs(space, monkeypatch):
    calls = []
    original = realline.effective_F

    def recording(a, b, sp):
        w = original(a, b, sp)
        calls.append((a, b, sp, w))
        return w

    monkeypatch.setattr(realline, "effective_F", recording)
    for a, b in LADDER_PAIRS[space]:
        calls.clear()
        ladder_from_F(S(a), S(b), space, 8)
        assert len(calls) == 255
        for lower, upper, sp, w in calls:
            assert scan_effective_F(lower, upper, sp) == w


def test_effective_f_preconditions():
    with pytest.raises(PreconditionError):
        effective_F(S("(0,1)"), S("[2,3]"), "gtn")
    with pytest.raises(PreconditionError):
        effective_F(S("[0,2]"), S("[1,3]"), "gtn")
    with pytest.raises(PreconditionError):
        effective_F(S("[0,1)"), S("[2,3]"), "gtn")   # gts-only form in gtn


# --- ladders -----------------------------------------------------------------

def test_ladder_spec_values():
    lad1 = ladder_from_F(S("[0,1]"), S("[2,3]"), "gtn", 1)
    assert lad1.entries == ((F(1, 2), S("(-inf,3/2)")),)
    lad2 = ladder_from_F(S("[0,1]"), S("[2,3]"), "gtn", 2)
    assert lad2.get(F(1, 4)) == S("(-inf,4/3)")
    assert lad2.get(F(1, 2)) == S("(-inf,3/2)")
    assert lad2.get(F(3, 4)) == S("(-inf,5/3)")
    assert lad2.indices() == (F(1, 4), F(1, 2), F(3, 4))
    with pytest.raises(InputError):
        lad2.get(F(1, 3))


def test_ladder_get_refuses_floats():
    lad = ladder_from_F(S("[0,1]"), S("[2,3]"), "gtn", 2)
    for r in (0.5, 0.1):
        with pytest.raises(InputError,
                           match=f"refusing inexact float index: {r}"):
            lad.get(r)
    assert lad.get("1/2") == lad.get(F(1, 2)) == S("(-inf,3/2)")
    with pytest.raises(InputError, match="not a rational index"):
        lad.get("half")


def _assert_ladder_clauses(lad, a, b, space):
    idx = lad.indices()
    for r in idx:
        u = lad.get(r)
        assert classify(u, space) in ("open", "clopen")
        assert a.issubset(u)
        assert closure_sym(u, space).isdisjoint(b)
    for i, r in enumerate(idx):
        for s in idx[i + 1:]:
            assert closure_sym(lad.get(r), space).issubset(lad.get(s))


def test_ladder_clauses_hold():
    a, b = S("[0,1]"), S("[2,3]")
    for k in (1, 2, 3, 4):
        _assert_ladder_clauses(ladder_from_F(a, b, "gtn", k), a, b, "gtn")
    rng = random.Random(40265)
    for _ in range(25):
        space = rng.choice(["gtn", "gts"])
        a, b = rand_closed_pair(rng, space)
        _assert_ladder_clauses(ladder_from_F(a, b, space, 3), a, b, space)


def test_ladder_touching_gts_pair_stabilizes():
    lad = ladder_from_F(S("[0,1)"), S("[1,2]"), "gts", 3)
    for r in lad.indices():
        assert lad.get(r) == S("(-inf,1)")
    _assert_ladder_clauses(lad, S("[0,1)"), S("[1,2]"), "gts")


def test_ladder_errors():
    a, b = S("[0,1]"), S("[2,3]")
    with pytest.raises(InputError):
        ladder_from_F(a, b, "gtn", 0)
    with pytest.raises(ResourceError):
        ladder_from_F(a, b, "gtn", 9)
    with pytest.raises(PreconditionError):
        ladder_from_F(S("empty"), b, "gtn", 2)


# --- products ----------------------------------------------------------------

def test_product_witness_examples():
    w = product_gul_witness(S("[0,1]"), S("[0,1]"), S("[2,3]"), S("[0,1]"), "gtn")
    assert w.coordinate == 1
    assert w.value_at(F(1, 2), F(1, 2)) == 0
    assert w.value_at(F(5, 2), F(0)) == 1
    assert w.base == GUL_EXAMPLE

    w2 = product_gul_witness(S("[0,1]"), S("[0,1]"), S("[0,1]"), S("[3,4]"), "gtn")
    assert w2.coordinate == 2
    assert w2.value_at(F(1, 2), F(1, 2)) == 0
    assert w2.value_at(F(0), F(7, 2)) == 1

    w3 = product_gul_witness(S("empty"), S("[0,1]"), S("[2,3]"), S("[0,1]"), "gtn")
    assert w3 == LiftedWitness(1, constant_map(1))
    w4 = product_gul_witness(S("[0,1]"), S("[0,1]"), S("[2,3]"), S("empty"), "gtn")
    assert w4 == LiftedWitness(1, constant_map(0))

    with pytest.raises(PreconditionError):
        product_gul_witness(S("[0,1]"), S("[0,1]"), S("[1,2]"), S("[0,1]"), "gtn")
    with pytest.raises(PreconditionError):
        product_gul_witness(S("(0,1)"), S("[0,1]"), S("[2,3]"), S("[0,1]"), "gtn")


def test_closedness_refusals_name_each_input():
    """Every input that must be closed is checked, and the refusal names it."""
    good, bad = S("[0,1]"), S("(5,6)")
    for space in ("gtn", "gts"):
        for name in ("a", "b"):
            pair = (bad, good) if name == "a" else (good, bad)
            for call in (gul_witness, effective_F,
                         lambda a, b, sp: ladder_from_F(a, b, sp, 2)):
                with pytest.raises(PreconditionError,
                                   match=f"^{name} is not closed in {space}$"):
                    call(*pair, space)
        for k, name in enumerate(("a1", "a2", "b1", "b2")):
            sets = [good, good, S("[2,3]"), good]
            sets[k] = bad
            with pytest.raises(PreconditionError,
                               match=f"^{name} is not closed in {space}$"):
                product_gul_witness(*sets, space)
    with pytest.raises(PreconditionError, match="^p is not closed in gtn$"):
        tietze_extend(bad, RAMP, "gtaun")


def test_product_witness_sweep():
    rng = random.Random(77014)
    for _ in range(40):
        space = rng.choice(["gtn", "gts"])
        a1, b1 = rand_closed_pair(rng, space)
        a2 = rng.choice([a1, b1, ALL_REALS])
        b2 = ALL_REALS
        w = product_gul_witness(a1, a2, b1, b2, space)
        assert w.coordinate == 1
        assert check_continuity_sym(w.base, space, "gtaun")
        assert a1.issubset(w.base.preimage_open(F(-1, 2), F(1, 2)))
        assert b1.issubset(w.base.preimage_open(F(1, 2), F(3, 2)))
