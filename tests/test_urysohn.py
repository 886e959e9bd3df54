import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtopo.errors import (
    InputError, NoExtension, PreconditionError, ResourceError,
)
from gtopo.spaces import (
    FiniteGT, canonical_family, close_under, closure, enumerate_strong_gts,
    interior, make_space, mask_from_points, product, sample_strong_gts,
    separation_profile,
)
from gtopo.urysohn import (
    EMPTY_U_FAMILY, FiniteFunction, Ladder, PairLadder, UFamily,
    check_continuity_finite, check_ladder, combine_effective_witnesses,
    constant_function, decide_gul_pair, decide_statement, decide_ul_pair,
    effective_witness, extend_ladder_step, extend_u_family,
    function_from_ladder, is_u_normal, ladder_from_function, make_function,
    make_ladder, make_pair_ladder, normality_defect, validate_u_family,
)

from continuity_oracle import oracle_continuous_gtaun, oracle_continuous_taun
from statement_oracle import (extension_report, ordered_partitions,
                              set_partitions, ul_witness)


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
    assert normality_defect(SIERPINSKI3) == (m(0, n=3), m(2, n=3))
    assert normality_defect(CLOPEN4) is None


def test_effective_witness_apply_unknown_pair():
    w = effective_witness(DISCRETE2)
    with pytest.raises(InputError):
        w.apply(0b01, 0b01)


def test_effective_witness_contract_and_gul():
    for s in small_census():
        w = effective_witness(s)
        gul = decide_statement(s, "GUL").holds
        assert (w is not None) == gul
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
    bad = UFamily((F(3, 2),), ((a, a),))
    assert validate_u_family(DISCRETE2, bad, a, b).clause == "labels"
    dup = UFamily((F(1, 2), F(1, 2)), ((a, a), (a, a)))
    assert validate_u_family(DISCRETE2, dup, a, b).clause == "labels"
    with pytest.raises(InputError):
        UFamily((F(1, 2),), ())
    with pytest.raises(PreconditionError):
        validate_u_family(DISCRETE2, EMPTY_U_FAMILY, 0, b)


def test_u_family_extension_blocked():
    a, b = m(0, n=3), m(2, n=3)
    with pytest.raises(NoExtension) as exc:
        extend_u_family(SIERPINSKI3, EMPTY_U_FAMILY, a, b)
    assert exc.value.blocking == (a, b)


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
