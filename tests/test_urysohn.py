import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtopo.urysohn as urysohn
from gtopo.errors import (
    InputError, NoExtension, PreconditionError, ResourceError,
)
from gtopo.spaces import (
    FiniteGT, canonical_family, clopen_defect, clopen_separator, close_under,
    closure, enumerate_strong_gts, interior, make_space, mask_from_points,
    product, sample_strong_gts, separation_profile,
)
from gtopo.urysohn import (
    EMPTY_U_FAMILY, CheckReport, FiniteFunction, Ladder, PairLadder, UFamily,
    check_continuity_finite, check_ladder, combine_effective_witnesses,
    constant_function, decide_gul_pair, decide_statement, decide_ul_pair,
    effective_witness, extend_ladder_step, extend_u_family,
    function_from_ladder, is_u_normal, ladder_from_function, make_function,
    make_ladder, make_pair_ladder, validate_u_family,
)

from chain_oracle import first_family, u_normal_report, validate_family
from continuity_oracle import oracle_continuous_gtaun, oracle_continuous_taun
from statement_oracle import (extension_report, normality_defect,
                              ordered_partitions, set_partitions, ul_witness)


def m(*points, n=None):
    return mask_from_points(points, n if n is not None else max(points) + 1)


def space(n, *sets):
    return make_space(n, [mask_from_points(s, n) for s in sets])


SIERPINSKI3 = space(3, [], [0, 1], [1, 2], [0, 1, 2])
CLOPEN4 = space(4, [], [0, 1], [2, 3], [0, 1, 2, 3])
DISCRETE2 = space(2, [], [0], [1], [0, 1])
DISCRETE3 = space(3, [], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])
INDISCRETE2 = space(2, [], [0, 1])
# topology where the subspace {1,2} is discrete but X only splits trivially
PINCH3 = space(3, [], [0], [0, 1], [0, 2], [0, 1, 2])

VALUE_POOL = [F(0), F(1), F(1, 2), F(-1, 3), F(2), F(3, 4)]


def small_census():
    out = []
    for n in range(4):
        out.extend(enumerate_strong_gts(n))
    return out


# ---------------------------------------------------------------- functions

def test_function_levels_and_fibers():
    f = make_function([0, F(1, 2), 0])
    assert f.levels == (F(0), F(1, 2))
    assert f.fibers == (0b101, 0b010)


def test_function_rejects_non_rational():
    with pytest.raises(InputError):
        make_function([0.5, 1])
    with pytest.raises(InputError):
        make_function(["x", 1])


def test_value_map_serialization():
    f = make_function([0, F(1, 2)])
    assert f.to_value_map() == {"0": "0", "1": "1/2"}


# ---------------------------------------------------------------- continuity

def test_continuity_two_point_sierpinski():
    s = space(2, [], [0], [0, 1])
    f = make_function([0, 1])
    assert not check_continuity_finite(f, s, "taun")
    assert not check_continuity_finite(f, s, "gtaun")


def test_continuity_constant():
    for s in (SIERPINSKI3, CLOPEN4, INDISCRETE2):
        f = constant_function(s.n, F(7, 3))
        assert check_continuity_finite(f, s, "taun")
        assert check_continuity_finite(f, s, "gtaun")


def test_continuity_discrete_two_point():
    f = make_function([0, 1])
    assert check_continuity_finite(f, DISCRETE2, "taun")
    assert check_continuity_finite(f, DISCRETE2, "gtaun")


def test_continuity_bad_target_and_size():
    f = make_function([0, 1])
    with pytest.raises(InputError):
        check_continuity_finite(f, DISCRETE2, "tau")
    with pytest.raises(InputError):
        check_continuity_finite(f, SIERPINSKI3, "taun")


def test_continuity_matches_interval_oracle():
    rng = random.Random(40917)
    spaces = small_census() + sample_strong_gts(4, 30, seed=11)
    for s in spaces:
        if s.n == 0:
            continue
        for _ in range(12):
            values = [rng.choice(VALUE_POOL) for _ in range(s.n)]
            f = make_function(values)
            got_t = check_continuity_finite(f, s, "taun")
            got_g = check_continuity_finite(f, s, "gtaun")
            assert got_t == oracle_continuous_taun(values, s.opens)
            assert got_g == oracle_continuous_gtaun(values, s.opens)
            if got_t:  # fiber-openness is the stronger requirement
                assert got_g


# ---------------------------------------------------------------- partitions

def test_ordered_partition_counts():
    counts = [sum(1 for _ in ordered_partitions((1 << k) - 1))
              for k in range(6)]
    assert counts == [1, 1, 3, 13, 75, 541]


def test_set_partition_counts():
    counts = [sum(1 for _ in set_partitions((1 << k) - 1))
              for k in range(6)]
    assert counts == [1, 1, 2, 5, 15, 52]


def test_set_partitions_are_canonical_and_distinct():
    parts = list(set_partitions(0b1111))
    assert len(set(frozenset(p) for p in parts)) == len(parts)
    for p in parts:
        lows = [b & -b for b in p]
        assert lows[0] == 1 and lows == sorted(lows)


# ---------------------------------------------------------------- pair deciders

def test_gul_pair_clopen_partition():
    f = decide_gul_pair(CLOPEN4, m(0, 1, n=4), m(2, 3, n=4))
    assert f is not None
    assert f.values == (F(0), F(0), F(1), F(1))
    assert check_continuity_finite(f, CLOPEN4, "gtaun")


def test_gul_pair_non_normal():
    assert decide_gul_pair(SIERPINSKI3, m(0, n=3), m(2, n=3)) is None


def test_gul_pair_empty_a():
    f = decide_gul_pair(CLOPEN4, 0, m(2, 3, n=4))
    assert f is not None and f.values == (F(1),) * 4


def test_gul_pair_preconditions():
    with pytest.raises(PreconditionError):
        decide_gul_pair(CLOPEN4, m(0, n=4), m(2, 3, n=4))  # {0} not closed
    with pytest.raises(PreconditionError):
        decide_gul_pair(CLOPEN4, m(0, 1, n=4), m(0, 1, n=4))  # overlap
    with pytest.raises(PreconditionError):
        decide_gul_pair(space(2, [], [0]), 0, 0)  # not strong
    with pytest.raises(InputError):
        decide_gul_pair(DISCRETE2, 0b100, 0)  # out of range


def test_ul_pair_matches_gul_on_clopen_partition():
    a, b = m(0, 1, n=4), m(2, 3, n=4)
    assert decide_ul_pair(CLOPEN4, a, b).values == decide_gul_pair(
        CLOPEN4, a, b).values


def test_ul_pair_non_normal():
    assert decide_ul_pair(SIERPINSKI3, m(0, n=3), m(2, n=3)) is None


def test_ul_pair_both_empty():
    f = decide_ul_pair(DISCRETE2, 0, 0)
    assert f is not None and len(set(f.values)) == 1


def test_ul_witness_is_interval_continuous():
    for s in small_census():
        for a in s.closeds:
            for b in s.closeds:
                if a & b:
                    continue
                f = decide_ul_pair(s, a, b)
                g = decide_gul_pair(s, a, b)
                assert (f is None) == (g is None)
                if f is None:
                    continue
                assert check_continuity_finite(f, s, "taun")
                assert f.preimage_below(F(1, 2)) & a == a or a == 0
                for p in range(s.n):
                    if a >> p & 1:
                        assert f.values[p] == 0
                    if b >> p & 1:
                        assert f.values[p] == 1


# ---------------------------------------------------------------- statements

def test_statements_discrete():
    for st in ("UL", "GUL", "TET", "GTET"):
        assert decide_statement(DISCRETE3, st).holds


def test_statement_gul_certificate():
    rep = decide_statement(SIERPINSKI3, "GUL")
    assert not rep.holds
    assert rep.pair == (m(0, n=3), m(2, n=3))
    rep = decide_statement(SIERPINSKI3, "UL")
    assert not rep.holds and rep.pair == (m(0, n=3), m(2, n=3))


def test_statement_gul_indiscrete():
    assert decide_statement(INDISCRETE2, "GUL").holds
    assert decide_statement(INDISCRETE2, "UL").holds


def test_extension_holds_where_separation_fails():
    # both extension statements hold here although UL/GUL fail: the only
    # open partitions are trivial, and so are the closed subspaces' traces
    assert decide_statement(SIERPINSKI3, "TET").holds
    assert decide_statement(SIERPINSKI3, "GTET").holds
    assert not decide_statement(SIERPINSKI3, "GUL").holds


def test_extension_fails_on_pinch():
    rep = decide_statement(PINCH3, "TET")
    assert not rep.holds
    a, values = rep.counterexample
    assert a == m(1, 2, n=3)
    assert values == ((1, F(0)), (2, F(1)))
    rep = decide_statement(PINCH3, "GTET")
    assert not rep.holds
    a, values = rep.counterexample
    assert a == m(1, 2, n=3)
    assert values == ((1, F(1)), (2, F(0)))


def test_statement_errors():
    with pytest.raises(InputError):
        decide_statement(DISCRETE2, "XYZ")
    with pytest.raises(PreconditionError):
        decide_statement(space(2, [], [0]), "UL")
    big = make_space(6, [0, (1 << 6) - 1])
    with pytest.raises(ResourceError):
        decide_statement(big, "TET")


# ---------------------------------------------------------------- oracles

@st.composite
def strong_gts(draw, max_points=5):
    """A random generator family on at most max_points points, closed under
    union together with the empty and the full set."""
    n = draw(st.integers(0, max_points))
    full = (1 << n) - 1
    gens = draw(st.lists(st.integers(0, full), max_size=8))
    return FiniteGT(n, canonical_family(close_under([0, full, *gens])))


@settings(max_examples=200, deadline=None)
@given(s=strong_gts())
def test_extension_reports_match_oracle(s):
    for st_name in ("TET", "GTET"):
        assert decide_statement(s, st_name) == extension_report(s, st_name)


@settings(max_examples=200, deadline=None)
@given(s=strong_gts())
def test_ul_pair_matches_oracle_witness(s):
    for a in s.closeds:
        for b in s.closeds:
            if not a & b:
                assert decide_ul_pair(s, a, b) == ul_witness(s, a, b)


@settings(max_examples=200, deadline=None)
@given(s=strong_gts())
def test_normality_routes_agree(s):
    assert (separation_profile(s).normal == (normality_defect(s) is None)
            == decide_statement(s, "GUL").holds)


# ---------------------------------------------------------------- ladders

def dyadics(level):
    out = []
    for k in range(1, level + 1):
        out.extend(F(j, 2 ** k) for j in range(1, 2 ** k, 2))
    return out


def test_function_from_constant_ladder():
    lad = make_ladder({r: 0b01 for r in dyadics(3)})
    f = function_from_ladder(DISCRETE2, lad, m(1, n=2))
    assert f.values == (F(0), F(1))


def test_function_from_empty_ladder():
    f = function_from_ladder(CLOPEN4, make_ladder({}), 0)
    assert f.values == (F(1),) * 4


def test_function_from_ladder_half_cap():
    lad = make_ladder({F(1, 2): 0b11})
    f = function_from_ladder(DISCRETE2, lad, 0)
    assert all(v <= F(1, 2) for v in f.values)


def test_function_from_ladder_steps():
    s = space(4, [], [0], [0, 1], [2, 3], [0, 2, 3], [0, 1, 2, 3])
    lad = make_ladder({F(1, 2): m(0, n=4), F(3, 4): m(0, 1, n=4)})
    f = function_from_ladder(s, lad, m(2, 3, n=4))
    assert f.values == (F(0), F(1, 2), F(1), F(1))


def test_function_from_ladder_rejects_bad_input():
    lad = Ladder(((F(1, 4), 0b11), (F(1, 2), 0b01)))  # shrinking rungs
    with pytest.raises(PreconditionError):
        function_from_ladder(DISCRETE2, lad, 0)
    with pytest.raises(PreconditionError):
        function_from_ladder(SIERPINSKI3, make_ladder({}), m(1, n=3))


def test_ladder_from_function_single():
    lad = ladder_from_function(DISCRETE2, make_function([0, 1]),
                               indices=[F(1, 2)])
    assert lad.entries == ((F(1, 2), 0b01),)


def test_ladder_from_function_pair():
    lad = ladder_from_function(DISCRETE2, make_function([0, 1]), mode="pair",
                               indices=[F(1, 2)])
    assert lad.entries == ((F(1, 2), (0b01, 0b01)),)


def test_ladder_from_function_three_levels():
    f = make_function([0, F(1, 2), 1])
    lad = ladder_from_function(DISCRETE3, f,
                               indices=[F(1, 4), F(1, 2), F(3, 4)])
    ent = dict(lad.entries)
    assert ent[F(1, 4)] == 0b001 and ent[F(3, 4)] == 0b011
    pl = ladder_from_function(DISCRETE3, f, mode="pair",
                              indices=[F(1, 4), F(1, 2), F(3, 4)])
    assert dict(pl.entries)[F(1, 2)] == (0b001, 0b011)


def test_ladder_from_function_defaults_and_errors():
    lad = ladder_from_function(DISCRETE2, make_function([0, 1]))
    assert len(lad.entries) == 15 and all(u == 0b01 for u in lad.sets)
    with pytest.raises(PreconditionError):
        ladder_from_function(INDISCRETE2, make_function([0, 1]))
    with pytest.raises(InputError):
        ladder_from_function(DISCRETE2, make_function([0, 1]), mode="both")
    with pytest.raises(InputError):
        ladder_from_function(DISCRETE2, make_function([0, 1]), indices=[F(2)])


def test_make_ladder_validation():
    with pytest.raises(InputError):
        make_ladder({F(0): 0})
    with pytest.raises(InputError):
        make_ladder([(F(1, 2), 0), (F(1, 2), 1)])


def test_check_ladder_constant_clopen():
    lad = make_ladder({r: m(0, 1, n=4) for r in dyadics(3)})
    rep = check_ladder(CLOPEN4, lad, m(0, 1, n=4), m(2, 3, n=4))
    assert rep.ok and rep.clause is None


def test_check_ladder_interpolation_violation():
    lad = make_ladder({F(1, 4): m(2, 3, n=4), F(1, 2): m(0, 1, n=4)})
    rep = check_ladder(CLOPEN4, lad, 0, 0)
    assert not rep.ok and rep.clause == "(i)"


def test_check_ladder_containment_and_closure_clauses():
    lad = make_ladder({F(1, 2): m(2, 3, n=4)})
    assert check_ladder(CLOPEN4, lad, m(0, 1, n=4), 0).clause == "(ii)"
    assert check_ladder(CLOPEN4, lad, 0, m(2, 3, n=4)).clause == "(iii)"
    bad = make_ladder({F(1, 2): m(0, n=4)})
    assert check_ladder(CLOPEN4, bad, 0, 0).clause == "open"


def test_check_pair_ladder_clauses():
    pl = make_pair_ladder({F(1, 4): (0b11, 0b11), F(1, 2): (0b01, 0b01)})
    rep = check_ladder(DISCRETE2, pl, 0, 0)
    assert not rep.ok and rep.clause == "(ii)"
    good = make_pair_ladder({F(1, 4): (0b01, 0b01), F(1, 2): (0b01, 0b11)})
    assert check_ladder(DISCRETE2, good, 0b01, 0).ok
    typed = make_pair_ladder({F(1, 2): (0b01, 0b01)})
    rep = check_ladder(space(2, [], [0], [0, 1]), typed, 0, 0)
    assert not rep.ok and rep.clause == "(i)"  # {0} is not closed there
    h = F(1, 2)
    shut = make_pair_ladder({h: (0b10, 0b10)})  # {1} is closed, not open
    assert check_ladder(space(2, [], [0], [0, 1]), shut, 0, 0) == CheckReport(
        False, "(i)", "U_1/2 is not open")
    assert check_ladder(DISCRETE2, typed, 0b10, 0) == CheckReport(
        False, "(i)", "chain a <= U_1/2 <= F_1/2 broken")
    # {0,1} minus F_1/4 = {0} leaves {1}, which is not open in SIERPINSKI3
    gap = make_pair_ladder({F(1, 4): (0, 0b001), h: (0b011, 0b111)})
    assert check_ladder(SIERPINSKI3, gap, 0, 0) == CheckReport(
        False, "(ii)", "U_1/2 minus F_1/4 is not open")
    assert check_ladder(DISCRETE2, good, 0b01, 0b10) == CheckReport(
        False, "(iii)", "F_1/2 meets b")


def test_check_ladder_rejects_other_types():
    with pytest.raises(InputError):
        check_ladder(DISCRETE2, "ladder", 0, 0)


def test_gul_witness_ladder_roundtrip():
    for s in small_census():
        for a in s.closeds:
            for b in s.closeds:
                if a & b:
                    continue
                f = decide_gul_pair(s, a, b)
                if f is None:
                    continue
                lad = ladder_from_function(s, f, indices=dyadics(3))
                assert check_ladder(s, lad, a, b).ok
                g = function_from_ladder(s, lad, b)
                assert check_continuity_finite(g, s, "gtaun")
                for p in range(s.n):
                    if a >> p & 1:
                        assert g.values[p] == 0
                    if b >> p & 1:
                        assert g.values[p] == 1


def test_ul_witness_pair_ladder_roundtrip():
    for s in small_census():
        for a in s.closeds:
            for b in s.closeds:
                if a & b:
                    continue
                f = decide_ul_pair(s, a, b)
                if f is None:
                    continue
                pl = ladder_from_function(s, f, mode="pair",
                                          indices=dyadics(3))
                assert check_ladder(s, pl, a, b).ok


# ---------------------------------------------------------------- extension

def test_extend_ladder_first_step():
    lad = extend_ladder_step(CLOPEN4, make_ladder({}), m(0, 1, n=4),
                             m(2, 3, n=4), F(1, 2))
    assert lad.entries == ((F(1, 2), m(0, 1, n=4)),)


def test_extend_ladder_stabilizes_on_clopen():
    lad = make_ladder({})
    a, b = m(0, 1, n=4), m(2, 3, n=4)
    for r in dyadics(3):
        lad = extend_ladder_step(CLOPEN4, lad, a, b, r)
    assert len(lad.entries) == 7
    assert all(u == a for u in lad.sets)
    assert check_ladder(CLOPEN4, lad, a, b).ok


def test_extend_ladder_blocked_on_non_normal():
    with pytest.raises(NoExtension) as exc:
        extend_ladder_step(SIERPINSKI3, make_ladder({}), m(0, n=3),
                           m(2, n=3), F(1, 2))
    assert exc.value.blocking == (m(0, n=3), m(2, n=3))


def test_extend_ladder_index_errors():
    lad = make_ladder({F(1, 2): m(0, 1, n=4)})
    a, b = m(0, 1, n=4), m(2, 3, n=4)
    with pytest.raises(InputError):
        extend_ladder_step(CLOPEN4, lad, a, b, F(1, 2))
    with pytest.raises(InputError):
        extend_ladder_step(CLOPEN4, lad, a, b, F(3, 2))
    bad = Ladder(((F(1, 4), m(2, 3, n=4)),))
    with pytest.raises(PreconditionError):
        extend_ladder_step(CLOPEN4, bad, a, b, F(1, 2))


def test_extend_ladder_level_three_sweep():
    for s in enumerate_strong_gts(3):
        if not separation_profile(s).normal:
            continue
        for a in s.closeds:
            for b in s.closeds:
                if a & b:
                    continue
                lad = make_ladder({})
                for r in dyadics(3):
                    lad = extend_ladder_step(s, lad, a, b, r)
                assert check_ladder(s, lad, a, b).ok
                f = function_from_ladder(s, lad, b)
                for p in range(s.n):
                    if a >> p & 1:
                        assert f.values[p] == 0
                    if b >> p & 1:
                        assert f.values[p] == 1


# ---------------------------------------------------------------- witnesses

def test_effective_witness_clopen_partition():
    w = effective_witness(CLOPEN4)
    assert w is not None
    assert w.apply(m(0, 1, n=4), m(2, 3, n=4)) == (m(0, 1, n=4), m(2, 3, n=4))
    assert w.apply(0, m(2, 3, n=4)) == (0, CLOPEN4.full)
    assert w.apply(m(0, 1, n=4), 0) == (CLOPEN4.full, 0)


def test_effective_witness_non_normal():
    assert effective_witness(SIERPINSKI3) is None
    with pytest.raises(PreconditionError,
                       match="^effective witnesses need a strong space$"):
        effective_witness(space(2, [], [0]))
    assert normality_defect(SIERPINSKI3) == (m(0, n=3), m(2, n=3))
    assert normality_defect(CLOPEN4) is None


def test_effective_witness_apply_unknown_pair():
    w = effective_witness(DISCRETE2)
    with pytest.raises(InputError):
        w.apply(0b01, 0b01)


def test_effective_witness_contract_and_gul():
    corpus = ([s for n in range(5) for s in enumerate_strong_gts(n)]
              + sample_strong_gts(5, 300, seed=1105))
    for s in corpus:
        w = effective_witness(s)
        gul = decide_statement(s, "GUL").holds
        assert (w is not None) == gul == (clopen_defect(s) is None)
        if w is None:
            assert normality_defect(s) is not None
            continue
        pairs = [(a, b) for a in s.closeds for b in s.closeds if not a & b]
        assert set(w.table) == set(pairs)
        for (a, b), (u, v) in w.table.items():
            assert u in s.open_set and v in s.open_set
            assert a & ~u == 0 and b & ~v == 0 and not u & v


def test_combined_product_witness():
    w1 = effective_witness(DISCRETE2)
    w2 = effective_witness(CLOPEN4)
    combined = combine_effective_witnesses(DISCRETE2, CLOPEN4, w1, w2)
    prod = product(DISCRETE2, CLOPEN4)
    pairs = [(a, b) for a in prod.closeds for b in prod.closeds if not a & b]
    assert set(combined.table) == set(pairs)
    for (a, b), (u, v) in combined.table.items():
        assert u in prod.open_set and v in prod.open_set
        assert a & ~u == 0 and b & ~v == 0 and not u & v


# ---------------------------------------------------------------- U-families

def test_u_normal_discrete_and_vacuous():
    assert is_u_normal(DISCRETE3, 3).all_hold
    rep = is_u_normal(INDISCRETE2, 2)
    assert rep.all_hold and rep.blocking == (None, None, None)


def test_u_normal_blocked_at_every_length():
    rep = is_u_normal(SIERPINSKI3, 2)
    assert rep.per_n == (False, False, False)
    assert rep.blocking[0] == (m(0, n=3), m(2, n=3))


def test_u_normal_matches_plain_normality():
    for s in small_census():
        rep = is_u_normal(s, 2)
        normal = separation_profile(s).normal
        assert rep.all_hold == normal
        assert rep.per_n == (normal,) * 3


def test_u_normal_errors():
    with pytest.raises(PreconditionError):
        is_u_normal(space(2, [], [0]), 1)
    with pytest.raises(InputError):
        is_u_normal(DISCRETE2, -1)


def test_u_family_bootstrap_discrete():
    a, b = m(0, n=2), m(1, n=2)
    fam = extend_u_family(DISCRETE2, EMPTY_U_FAMILY, a, b)
    assert fam.pairs == ((a, a),)
    assert fam.labels == (F(1, 2),)
    fam2 = extend_u_family(DISCRETE2, fam, a, b)
    assert fam2.pairs == ((a, a), (a, a))
    assert fam2.labels == (F(1, 2), F(1, 3))
    assert validate_u_family(DISCRETE2, fam2, a, b).ok


def test_u_family_repeated_extension_preserves_prefix():
    a, b = m(0, 1, n=4), m(2, 3, n=4)
    fam = EMPTY_U_FAMILY
    seen = []
    for _ in range(3):
        fam = extend_u_family(CLOPEN4, fam, a, b)
        seen.append(fam.pairs)
    for shorter, longer in zip(seen, seen[1:]):
        assert longer[:len(shorter)] == shorter
    assert all(p == (a, a) for p in fam.pairs)


# nested opens around a non-open middle gap: passes the chain clause but the
# difference U_1 minus F_0 = {2} is not open
GAP4 = space(4, [], [0], [3], [0, 3], [2, 3], [0, 2, 3], [1, 2, 3],
             [0, 1, 2], [0, 1, 2, 3])


def test_u_family_difference_clause_violation():
    a, b = m(0, n=4), m(3, n=4)
    fam = UFamily((F(1, 2), F(1, 3)),
                  ((m(0, n=4), m(0, 1, n=4)),
                   (m(0, 1, 2, n=4), m(0, 1, 2, n=4))))
    rep = validate_u_family(GAP4, fam, a, b)
    assert not rep.ok and rep.clause == "(ii)"
    with pytest.raises(PreconditionError):
        extend_u_family(GAP4, fam, a, b)


def test_u_family_label_and_shape_validation():
    a, b = m(0, n=2), m(1, n=2)
    for r in (F(3, 2), F(0), F(1), F(-1, 2)):
        bad = UFamily((r,), ((a, a),))
        assert validate_u_family(DISCRETE2, bad, a, b).clause == "labels"
    dup = UFamily((F(1, 2), F(1, 2)), ((a, a), (a, a)))
    assert validate_u_family(DISCRETE2, dup, a, b).clause == "labels"
    with pytest.raises(InputError):
        UFamily((F(1, 2),), ())
    with pytest.raises(PreconditionError):
        validate_u_family(DISCRETE2, EMPTY_U_FAMILY, 0, b)
    a3, b3 = m(0, n=3), m(2, n=3)
    shut = UFamily((F(1, 2),), ((a3, a3),))     # {0} is closed, not open
    assert validate_u_family(SIERPINSKI3, shut, a3, b3) == CheckReport(
        False, "(i)", "pair 0 is not open-closed")
    top = UFamily((F(1, 2),), ((m(0, 1, n=3), m(0, 1, 2, n=3)),))
    assert validate_u_family(SIERPINSKI3, top, a3, b3) == CheckReport(
        False, "(i)", "top closed set meets b")


def test_u_family_extension_blocked():
    a, b = m(0, n=3), m(2, n=3)
    with pytest.raises(NoExtension) as exc:
        extend_u_family(SIERPINSKI3, EMPTY_U_FAMILY, a, b)
    assert exc.value.blocking == (a, b)


# ---------------------------------------------------------------- chain search

def generated(n, *gens):
    full = (1 << n) - 1
    return FiniteGT(n, canonical_family(close_under([0, full, *gens])))


def R(k):
    return m(*range(k + 1))


# A family of n+1 pairs for a pair with no clopen separator rises strictly
# through 2n+5 points.  CHAIN7 has exactly the 7 points of n = 1.
CHAIN7_GENERATORS = (m(0, 1), m(3, 4, 5, 6), m(0, 1, 2, 3), m(3), m(5, 6),
                     m(*range(1, 7)), m(*range(6)))
CHAIN7 = generated(7, *CHAIN7_GENERATORS)
# U_0, F_0, U_1, F_1, u*, f*, U_2, F_2 = R(1)..R(8) on 11 points, with (u*, f*)
# the auxiliary pair of the middle position.
_U0, _F0, _U1, _F1, _US, _FS, _U2, _F2 = map(R, range(1, 9))
CHAIN11 = generated(11, _U0, _U1, _U2, _US,
                    *(R(10) ^ c for c in (_F0, _F1, _F2, _FS, m(0))), R(9),
                    _U1 & ~_F0, _U2 & ~_F0, _U2 & ~_F1, _U2 & ~_FS,
                    _US & ~_F0, _US & ~_F1)


def labelled(pairs):
    return UFamily(tuple(F(1, k + 2) for k in range(len(pairs))), pairs)


def test_two_pair_family_fills_seven_points():
    a, b = m(0), m(6)
    assert clopen_separator(CHAIN7, a, b) is None
    pairs = ((m(0, 1), m(0, 1, 2)), (m(0, 1, 2, 3), m(0, 1, 2, 3, 4)))
    assert validate_u_family(CHAIN7, labelled(pairs), a, b).ok
    assert first_family(CHAIN7, a, b, 1) == pairs
    assert first_family(CHAIN7, a, b, 2) is None
    assert urysohn._chain_family_exists(CHAIN7, a, b, 1)
    assert not urysohn._chain_family_exists(CHAIN7, a, b, 2)
    assert is_u_normal(CHAIN7, 3) == u_normal_report(CHAIN7, 3)
    # without the open difference {3} = U_1 minus F_0 clause (ii) fails
    gap = generated(7, *(g for g in CHAIN7_GENERATORS if g != m(3)))
    assert validate_u_family(gap, labelled(pairs), a, b) == CheckReport(
        False, "(ii)", "U at position 1 minus F at position 0 is not open")
    assert first_family(gap, a, b, 1) is None
    assert not urysohn._chain_family_exists(gap, a, b, 1)


def test_three_pair_family_on_eleven_points():
    a, b = m(0), m(10)
    assert clopen_separator(CHAIN11, a, b) is None
    pairs = ((R(1), R(2)), (R(3), R(4)), (R(7), R(8)))
    assert validate_u_family(CHAIN11, labelled(pairs), a, b).ok
    assert first_family(CHAIN11, a, b, 2) == pairs
    # (R5, R6) as the top pair leaves no auxiliary pair between R4 and R5
    squeezed = labelled(pairs[:2] + ((R(5), R(6)),))
    assert validate_u_family(CHAIN11, squeezed, a, b) == CheckReport(
        False, "(iii)", "no auxiliary pair for position 1")
    assert validate_family(CHAIN11, squeezed, a, b) == CheckReport(
        False, "(iii)", "no auxiliary pair for position 1")
    assert [urysohn._chain_family_exists(CHAIN11, a, b, n)
            for n in (1, 2, 3)] == [True, True, False]
    assert is_u_normal(CHAIN11, 3) == u_normal_report(CHAIN11, 3)


def test_aux_difference_against_lower_closed_decides():
    """The family meets clauses (i) and (ii).  The only auxiliary pair for
    the middle position is ({0,1}, {0,1}), and u minus F_0 = {0} is not
    open, so clause (iii) fails there through the second side test alone;
    without that test the family would pass."""
    s = generated(5, m(1, n=5), m(3, n=5), m(4, n=5), m(0, 1, n=5),
                  m(0, 4, n=5), m(2, 4, n=5))
    assert len(s.opens) == 22
    a, b = m(1, n=5), m(3, n=5)
    fam = UFamily((F(1, 2), F(1, 3), F(2, 3)),
                  ((a, a), (a, m(0, 1, n=5)),
                   (m(0, 1, 4, n=5), m(0, 1, 2, 4, n=5))))
    blocked = CheckReport(False, "(iii)", "no auxiliary pair for position 1")
    assert validate_u_family(s, fam, a, b) == blocked
    assert validate_family(s, fam, a, b) == blocked


def test_aux_difference_from_family_open_decides():
    """The family meets clauses (i) and (ii).  The only auxiliary pair for
    the middle position is ({0,1,5}, {0,1,5}), and U_2 minus f = {2} is not
    open, so clause (iii) fails there through the first side test alone;
    without that test the family would pass."""
    s = generated(6, m(0, n=6), m(1, n=6), m(4, n=6), m(1, 2, n=6),
                  m(1, 5, n=6), m(2, 3, n=6))
    assert len(s.opens) == 32
    a, b = m(0, n=6), m(4, n=6)
    fam = UFamily((F(1, 2), F(1, 3), F(2, 3)),
                  ((a, a), (a, m(0, 5, n=6)),
                   (m(0, 1, 2, 5, n=6), m(0, 1, 2, 3, 5, n=6))))
    blocked = CheckReport(False, "(iii)", "no auxiliary pair for position 1")
    assert validate_u_family(s, fam, a, b) == blocked
    assert validate_family(s, fam, a, b) == blocked


def chain_space(rng):
    """A strong GT on 7-11 points built around a chain rising from {0} to
    the complement of {1}: its sets alternate open and closed, the
    differences clause (ii) asks for are open, and 0-3 random opens join
    the generators."""
    n = rng.randint(7, 11)
    full = (1 << n) - 1
    perm = [0, *rng.sample(range(2, n), n - 2), 1]
    cuts = sorted(rng.sample(range(2, n - 1), rng.randint(2, n - 3)))
    chain = [m(*perm[:c]) for c in cuts]
    us, fs = chain[0::2], chain[1::2]
    return generated(n, full ^ m(0), full ^ m(1), *us,
                     *(full ^ f for f in fs),
                     *(u & ~f for u in us for f in fs if f & ~u == 0),
                     *(rng.randrange(1, full)
                       for _ in range(rng.randint(0, 3))))


def hard_pairs(s):
    return [(x, y) for x in s.closeds for y in s.closeds
            if x and y and not x & y and clopen_separator(s, x, y) is None]


def check_random_families(s, a, b, rng, count):
    """validate_u_family against the oracle on random families between a
    and the complement of b, mostly meeting clauses (i) and (ii); returns
    the reports seen."""
    pool = [(u, f) for u in s.opens for f in s.closeds
            if a & ~u == 0 and u & ~f == 0 and not f & b]
    seen = set()
    for _ in range(count if pool else 0):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            choices = [(u, f) for u, f in pool
                       if not pairs or pairs[-1][1] & ~u == 0
                       and all(u & ~g in s.open_set for _, g in pairs)]
            if rng.random() < 0.1:
                choices = pool
            elif not choices:
                break
            elif rng.random() < 0.8:    # leave room for later pairs
                choices = sorted(choices, key=lambda p: p[1].bit_count())[:4]
            pairs.append(rng.choice(choices))
        fam = labelled(tuple(pairs))
        if rng.random() < 0.05:
            fam = UFamily((F(3, 2), *fam.labels[1:]), fam.pairs)
        rep = validate_u_family(s, fam, a, b)
        assert rep == validate_family(s, fam, a, b)
        seen.add((fam.length > 1, rep.clause, rep.detail))
    return seen


@pytest.fixture(scope="module")
def census4_and_300():
    return ([s for n in range(5) for s in enumerate_strong_gts(n)]
            + sample_strong_gts(5, 300, seed=5309))


def test_u_normal_matches_oracle_small(census4_and_300):
    for i, s in enumerate(census4_and_300):
        assert is_u_normal(s, i % 6) == u_normal_report(s, i % 6)


def test_validate_u_family_matches_oracle_small(census4_and_300):
    rng = random.Random(2417)
    seen = set()
    for s in census4_and_300:
        pairs = [(x, y) for x in s.closeds for y in s.closeds
                 if x and y and not x & y]
        for a, b in rng.sample(pairs, min(2, len(pairs))):
            seen |= check_random_families(s, a, b, rng, 3)
    clauses = {c for _, c, _ in seen}
    assert {None, "labels", "(i)", "(ii)", "(iii)"} <= clauses


@pytest.fixture(scope="module")
def chain_corpus():
    rng = random.Random(7711)
    return [chain_space(rng) for _ in range(150)]


def test_chain_search_matches_oracle_on_rising_chains(chain_corpus):
    found = changes = 0
    for s in chain_corpus:
        rep = is_u_normal(s, 3)
        assert rep == u_normal_report(s, 3)
        changes += len(set(rep.blocking)) > 1
        for n in range(1, (s.n - 5) // 2 + 1):
            for x, y in hard_pairs(s)[:12]:
                fam = first_family(s, x, y, n)
                assert urysohn._chain_family_exists(s, x, y, n) == (
                    fam is not None)
                if fam is not None:
                    found += 1
                    assert validate_u_family(s, labelled(fam), x, y).ok
    assert found >= 100
    assert changes >= 10


def test_validate_u_family_matches_oracle_on_rising_chains(chain_corpus):
    rng = random.Random(907)
    seen = set()
    for s in chain_corpus:
        hard = hard_pairs(s)
        for a, b in [(m(0), m(1)), *rng.sample(hard, min(4, len(hard)))]:
            seen |= check_random_families(s, a, b, rng, 10)
    iii = {(longer, detail) for longer, c, detail in seen if c == "(iii)"}
    assert (False, "no auxiliary pair for position 0") in iii
    assert any(longer for longer, _ in iii)


def test_u_normal_never_searches_up_to_six_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("chain-family search on a small space")

    monkeypatch.setattr(urysohn, "_chain_family_exists", refuse)
    spaces = ([s for n in range(5) for s in enumerate_strong_gts(n)]
              + sample_strong_gts(5, 200, seed=41)
              + sample_strong_gts(6, 200, seed=42))
    for s in spaces:
        defect = clopen_defect(s)
        assert is_u_normal(s, 64).blocking == (defect,) * 65


@settings(max_examples=200, deadline=None)
@given(s=strong_gts(max_points=6), k=st.integers(0, 8))
def test_u_normal_is_clopen_normality_up_to_six_points(s, k):
    defect = clopen_defect(s)
    rep = is_u_normal(s, k)
    assert rep.per_n == (defect is None,) * (k + 1)
    assert rep.blocking == (defect,) * (k + 1)


# ---------------------------------------------------------------- collapse

def test_four_separation_routes_agree_small():
    for s in small_census():
        profile_normal = separation_profile(s).normal
        clopen_route = _clopen_separation_everywhere(s)
        gul = decide_statement(s, "GUL").holds
        ul = decide_statement(s, "UL").holds
        assert profile_normal == clopen_route == gul == ul


def _clopen_separation_everywhere(s):
    subsets = range(1 << s.n)
    clopen = [c for c in subsets
              if interior(s, c) == c and closure(s, c) == c]
    for i, a in enumerate(s.closeds):
        for b in s.closeds[i:]:
            if a & b:
                continue
            if not any(a & ~c == 0 and c & b == 0 for c in clopen):
                return False
    return True


def test_topology_members_collapse():
    for s in small_census():
        if not s.is_topology:
            continue
        tet = decide_statement(s, "TET").holds
        assert decide_statement(s, "UL").holds == decide_statement(
            s, "GUL").holds
        assert tet == decide_statement(s, "GTET").holds
        if tet:
            assert decide_statement(s, "UL").holds
