import math
import operator
import random
import time
import warnings

import pytest

import gtopo.spaces as spaces_module
from gtopo.errors import InputError, PreconditionError, ResourceError
from gtopo.spaces import (
    SPACE_MAX_OPENS, SPACE_MAX_POINTS, FiniteGT, canonical_key, census_count,
    close_under, closure, enumerate_strong_gts, generated_topology, gt_masks,
    interior, join_supports, make_space, mask_from_points, parse_space_dict,
    points_from_mask, product, sample_strong_gts, separation_profile,
    space_to_dict, subspace, validate_gt,
)

from census_oracle import brute_force_strong_gts

# frozen from the brute-force oracle over all candidate families (n <= 4)
# and from the labeled DFS (n = 5)
ORACLE_COUNTS = {0: 1, 1: 1, 2: 4, 3: 45, 4: 2271, 5: 1373701}


def m(*points, n=None):
    return mask_from_points(points, n if n is not None else max(points) + 1)


def space(n, *sets):
    return make_space(n, [mask_from_points(s, n) for s in sets])


SIERPINSKI3 = space(3, [], [0, 1], [1, 2], [0, 1, 2])


# ---------------------------------------------------------------- validate

def test_validate_missing_union():
    r = validate_gt([0, 0b011, 0b110], 3)
    assert not r.is_gt
    assert "union" in r.violation


def test_validate_discrete_two_points():
    r = validate_gt([0, 0b01, 0b10, 0b11], 2)
    assert r.is_gt and r.is_strong and r.is_topology and r.violation is None


def test_validate_gt_but_not_topology():
    r = validate_gt([0, 0b011, 0b110, 0b111], 3)
    assert r.is_gt and r.is_strong and not r.is_topology
    assert "intersection" in r.violation


def test_validate_missing_empty_set():
    r = validate_gt([0b01, 0b11], 2)
    assert not r.is_gt and "empty" in r.violation


def test_validate_point_out_of_range():
    with pytest.raises(InputError):
        validate_gt([0, 0b100], 2)
    with pytest.raises(InputError):
        make_space(2, [0, 0b1000])


def test_make_space_rejects_non_gt():
    with pytest.raises(PreconditionError):
        make_space(3, [0, 0b011, 0b110])


def test_families_above_max_opens_are_refused_before_the_scan(monkeypatch):
    from gtopo import spaces

    def scanned(masks):
        raise AssertionError("scanned a refused family")

    monkeypatch.setattr(spaces, "_gt_violation", scanned)
    over = list(range(SPACE_MAX_OPENS + 1))     # 4,097 opens on 13 points
    start = time.perf_counter()
    for build in (validate_gt, lambda family, n: make_space(n, family)):
        with pytest.raises(ResourceError) as e:
            build(over, 13)
        assert str(e.value) == ("family has 4097 distinct opens, above 4096; "
                                "refusing")
    assert time.perf_counter() - start < 1.0


def test_family_at_max_opens_is_scanned():
    # 4,096 distinct opens, each listed twice, and no empty set
    at_limit = list(range(1, SPACE_MAX_OPENS + 1)) * 2
    assert SPACE_MAX_OPENS == 4096
    assert validate_gt(at_limit, 13).violation == "missing empty set"
    with pytest.raises(PreconditionError,
                       match="not a generalized topology: missing empty set"):
        make_space(13, at_limit)


def test_point_count_is_bounded_before_any_mask_is_built():
    huge = 10 ** 4000           # 1 << huge cannot be built
    for n in (SPACE_MAX_POINTS + 1, huge):
        for build in (validate_gt, lambda family, n: make_space(n, family)):
            with pytest.raises(ResourceError,
                               match="^space has more than 4096 points; "
                                     "refusing$"):
                build([0], n)
    last = 1 << (SPACE_MAX_POINTS - 1)
    assert validate_gt([0, last], SPACE_MAX_POINTS).is_gt


def test_points_from_mask_walks_the_set_bits():
    rng = random.Random(4096)
    masks = [0, 1, 1 << 4095, (1 << 4096) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 200)) for _ in range(300)]
    for m in masks:
        assert points_from_mask(m) == [p for p in range(m.bit_length())
                                       if m >> p & 1]
        assert mask_from_points(points_from_mask(m), 4096) == m


# ---------------------------------------------------------------- closure

def test_closure_only_superset_is_whole_space():
    assert closure(SIERPINSKI3, 0b010) == 0b111


def test_closure_of_closed_point():
    assert closure(SIERPINSKI3, 0b001) == 0b001


def test_closure_empty_in_strong_space():
    assert closure(SIERPINSKI3, 0) == 0


def test_closure_properties_over_census():
    for sp in enumerate_strong_gts(3):
        for a in range(8):
            c = closure(sp, a)
            assert a & ~c == 0
            assert closure(sp, c) == c
            assert sp.is_closed(c)
            for b in range(8):
                if a & ~b == 0:
                    assert c & ~closure(sp, b) == 0


# ---------------------------------------------------------------- interior

def test_interior_of_open_set():
    assert interior(SIERPINSKI3, 0b011) == 0b011


def test_interior_no_open_inside():
    assert interior(SIERPINSKI3, 0b010) == 0


def test_interior_whole_strong_space():
    assert interior(SIERPINSKI3, 0b111) == 0b111


def test_interior_properties_and_clopen():
    for sp in enumerate_strong_gts(3):
        for a in range(8):
            i = interior(sp, a)
            assert i & ~a == 0
            assert interior(sp, i) == i
            clopen = interior(sp, a) == a and closure(sp, a) == a
            assert clopen == (sp.is_open(a) and sp.is_closed(a))


# ---------------------------------------------------------------- subspace

def test_subspace_traces_and_relabels():
    sub = subspace(SIERPINSKI3, 0b101)
    assert sub.n == 2
    assert sub.opens == (0, 0b01, 0b10, 0b11)


def test_subspace_whole_is_identity():
    assert subspace(SIERPINSKI3, 0b111) == SIERPINSKI3


def test_subspace_empty():
    sub = subspace(SIERPINSKI3, 0)
    assert sub.n == 0 and sub.opens == (0,)


# ---------------------------------------------------------------- product

def test_product_expands_formula():
    s1 = space(2, [], [0], [0, 1])
    s2 = space(2, [], [0, 1])
    p = product(s1, s2)
    assert p.n == 4
    assert p.opens == (0, 0b0011, 0b1111)


def test_product_of_indiscrete_is_indiscrete():
    s = space(2, [], [0, 1])
    p = product(s, s)
    assert p.opens == (0, 0b1111)


def test_product_closed_sets_are_rectangles():
    spaces2 = list(enumerate_strong_gts(2))
    for s1 in spaces2:
        for s2 in spaces2:
            p = product(s1, s2)
            assert validate_gt(p.opens, p.n).is_strong
            rects = {_rect(s1.full ^ u, s2.full ^ v, s1.n, s2.n)
                     for u in s1.opens for v in s2.opens}
            assert set(p.closeds) == rects


def _rect(a: int, b: int, n1: int, n2: int) -> int:
    out = 0
    for x in points_from_mask(a):
        for y in points_from_mask(b):
            out |= 1 << (x * n2 + y)
    return out


def test_product_requires_strong_factors():
    weak = FiniteGT(2, (0, 0b01))
    strong = space(2, [], [0, 1])
    with pytest.raises(PreconditionError):
        product(weak, strong)


def test_product_open_count_is_known_up_front():
    spaces3 = [s for n in range(1, 4) for s in enumerate_strong_gts(n)]
    for s1 in spaces3:
        for s2 in spaces3:
            assert len(product(s1, s2).opens) == (
                (len(s1.opens) - 1) * (len(s2.opens) - 1) + 1)


def test_product_refuses_above_the_cell_ceiling(monkeypatch):
    powerset2 = space(2, [], [0], [1], [0, 1])
    # 10 opens on 4 points: 40 cells
    monkeypatch.setattr(spaces_module, "PRODUCT_MAX_CELLS", 40)
    assert len(product(powerset2, powerset2).opens) == 10
    monkeypatch.setattr(spaces_module, "PRODUCT_MAX_CELLS", 39)
    with pytest.raises(ResourceError, match="10 opens on 4 points"):
        product(powerset2, powerset2)


# ---------------------------------------------------------------- tau(mu)

def test_generated_topology_adds_intersection():
    t = generated_topology(SIERPINSKI3)
    assert t.opens == (0, 0b010, 0b011, 0b110, 0b111)
    assert validate_gt(t.opens, 3).is_topology


def test_generated_topology_fixpoint_on_topology():
    disc = space(2, [], [0], [1], [0, 1])
    assert generated_topology(disc) == disc
    ind = space(2, [], [0, 1])
    assert generated_topology(ind) == ind


def test_generated_topology_contains_and_closed():
    for sp in enumerate_strong_gts(3):
        t = generated_topology(sp)
        assert set(sp.opens) <= set(t.opens)
        r = validate_gt(t.opens, 3)
        assert r.is_topology and r.is_strong


# ---------------------------------------------------------------- profile

def test_profile_discrete():
    disc = space(2, [], [0], [1], [0, 1])
    pr = separation_profile(disc)
    assert pr.t0 and pr.t1 and pr.t2 and pr.normal


def test_profile_sierpinski_like():
    pr = separation_profile(SIERPINSKI3)
    assert pr.t0 and not pr.t1 and not pr.normal


def test_profile_clopen_partition_is_normal():
    pr = separation_profile(space(4, [], [0, 1], [2, 3], [0, 1, 2, 3]))
    assert pr.normal


def test_profile_hierarchy_over_census():
    for n in (2, 3):
        for sp in enumerate_strong_gts(n):
            pr = separation_profile(sp)
            if pr.t2:
                assert pr.t1
            if pr.t1:
                assert pr.t0


# ---------------------------------------------------------------- census

def test_census_counts_match_oracle():
    for n, expected in ORACLE_COUNTS.items():
        assert census_count(n) == expected
        if n <= 4:
            assert sum(1 for _ in enumerate_strong_gts(n)) == expected
            assert len(brute_force_strong_gts(n)) == expected


# GTs on j labeled points (union-closed families holding the empty set),
# the Moore families of Habib and Nourine 2005, for j = 0..5
MOORE_COUNTS = (1, 2, 7, 61, 2480, 1385552)


def brute_force_gt_masks(j):
    """Every family mask on j points, bit s for subset s, kept when it holds
    the empty set and the union of any two members."""
    subsets = range(1 << j)
    return [f for f in range(1 << (1 << j))
            if f & 1 and all(f >> (s | t) & 1 for s in subsets if f >> s & 1
                             for t in subsets if f >> t & 1)]


def test_gt_masks_match_brute_force():
    levels = gt_masks(4)
    assert [len(level) for level in levels] == list(MOORE_COUNTS[:5])
    for j, level in enumerate(levels):
        assert len(set(level)) == len(level)
        if j <= 3:
            assert sorted(level) == brute_force_gt_masks(j)
    full = 1 << 15
    strong = {f for f in levels[4] if f & full}
    assert strong == {sum(1 << u for u in sp.opens)
                      for sp in enumerate_strong_gts(4)}


def test_join_supports_match_their_definition():
    for k, level in enumerate(gt_masks(4)):
        subsets = range(1 << k)
        expected = [sum(1 << a for a in subsets
                        if all(g >> (a | b) & 1 for b in subsets[1:]
                               if g >> b & 1))
                    for g in level]
        assert join_supports(level, k) == expected
    assert join_supports([], 3) == []


def test_census_count_inverts_the_moore_counts():
    # a GT on n points is a strong GT on its union, so
    # M(n) = sum_j C(n, j) census(j), inverted by binomial inversion
    for n in range(6):
        assert census_count(n) == sum(
            (-1) ** (n - j) * math.comb(n, j) * MOORE_COUNTS[j]
            for j in range(n + 1))


def test_census_count_five_is_fast():
    start = time.perf_counter()
    assert census_count(5) == ORACLE_COUNTS[5]
    assert time.perf_counter() - start < 0.25


def test_census_families_match_oracle_exactly():
    for n in (2, 3, 4):
        ours = {frozenset(frozenset(points_from_mask(u)) for u in sp.opens)
                for sp in enumerate_strong_gts(n)}
        assert ours == set(brute_force_strong_gts(n))


def test_census_stream_deterministic_and_canonical():
    first = list(enumerate_strong_gts(3))
    second = list(enumerate_strong_gts(3))
    assert first == second
    assert first[0].opens == (0, 0b111)
    assert len(first[-1].opens) == 8
    for sp in first:
        assert sp.opens == tuple(sorted(sp.opens, key=canonical_key))


def test_census_resource_limits():
    with pytest.raises(ResourceError,
                       match="census at 6 points exceeds the configured "
                             "maximum 5"):
        next(enumerate_strong_gts(6))
    with pytest.raises(ResourceError,
                       match="^census at 6 points exceeds the configured "
                             "maximum 5$"):
        census_count(6)
    with pytest.raises(InputError,
                       match="^point count must be >= 0, got -1$"):
        census_count(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert next(enumerate_strong_gts(5)).opens == (0, 0b11111)


def test_sampler_deterministic_distinct_valid():
    a = sample_strong_gts(4, 50, seed=7)
    b = sample_strong_gts(4, 50, seed=7)
    assert a == b
    assert len({sp.opens for sp in a}) == 50
    for sp in a:
        r = validate_gt(sp.opens, 4)
        assert r.is_gt and r.is_strong


# ---------------------------------------------------------------- plumbing

def test_space_dict_round_trip():
    doc = space_to_dict(SIERPINSKI3)
    assert doc == {"points": 3, "open_sets": [[], [0, 1], [1, 2], [0, 1, 2]]}
    n, masks = parse_space_dict(doc)
    assert make_space(n, masks) == SIERPINSKI3


def test_parse_space_dict_rejects_junk():
    for doc in (["not", "a", "dict"], {"points": 2}, {"open_sets": []},
                {"points": -1, "open_sets": []},
                {"points": True, "open_sets": []},
                {"points": 2, "open_sets": [[0], "x"]},
                {"points": 2, "open_sets": [[2]]}):
        with pytest.raises(InputError):
            parse_space_dict(doc)


def test_point_index_type_and_range_messages():
    for bad in (0.0, True, "0"):
        with pytest.raises(InputError,
                           match=f"point indices must be integers, got {bad!r}"):
            mask_from_points([bad], 2)
    with pytest.raises(InputError, match="point 2 outside ground set 0..1"):
        mask_from_points([2], 2)


def test_close_under_union():
    fam = close_under([0b001, 0b010])
    assert fam == {0b001, 0b010, 0b011}
    assert close_under([0b011, 0b110], operator.and_) == {0b011, 0b110, 0b010}
