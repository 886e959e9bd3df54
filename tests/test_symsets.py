"""Interval-set algebra checks, including a membership-sampling oracle."""

import random
from fractions import Fraction as F

import pytest

from gtopo.errors import InputError
from gtopo.symsets import (ALL_REALS, EMPTY_SET, Interval, SymbolicSet, above,
                           as_fraction, below, interval, make_set, point)

POOL = [F(n, 2) for n in range(-6, 7)]


def rand_set(rng: random.Random) -> SymbolicSet:
    ivs = []
    for _ in range(rng.randrange(4)):
        a, b = sorted(rng.sample(POOL, 2))
        kind = rng.randrange(4)
        if kind == 0:
            ivs.append(Interval(a, b, bool(rng.randrange(2)), bool(rng.randrange(2))))
        elif kind == 1:
            ivs.append(Interval(None, a, False, bool(rng.randrange(2))))
        elif kind == 2:
            ivs.append(Interval(b, None, bool(rng.randrange(2)), False))
        else:
            ivs.append(Interval(a, a, True, True))
    return make_set(ivs)


def probes(*sets: SymbolicSet) -> list[F]:
    """Endpoints, midpoints between them, and a point beyond each end.

    Any set whose endpoints all occur among the arguments' endpoints has
    constant membership between consecutive probe anchors, so agreement on
    these points is agreement everywhere.
    """
    ends = sorted({e for s in sets for c in s.components
                   for e in (c.lo, c.hi) if e is not None})
    if not ends:
        return [F(0)]
    out = [ends[0] - 1]
    for a, b in zip(ends, ends[1:]):
        out.extend([a, (a + b) / 2])
    out.extend([ends[-1], ends[-1] + 1])
    return out


def test_interval_validation():
    with pytest.raises(InputError):
        Interval(F(2), F(1), True, True)
    with pytest.raises(InputError):
        Interval(F(1), F(1), True, False)
    with pytest.raises(InputError):
        Interval(None, F(0), True, False)
    with pytest.raises(InputError):
        Interval(F(0), None, False, True)
    assert Interval(F(1), F(1), True, True).is_singleton


def test_floats_are_refused():
    with pytest.raises(InputError):
        interval(0.5, 1, True, True)
    with pytest.raises(InputError):
        point(0.25)
    with pytest.raises(InputError):
        EMPTY_SET.contains(0.5)


def test_as_fraction_passes_exact_fractions_through():
    q = F(3, 7)
    assert as_fraction(q) is q
    assert interval(q, None, True, False).components[0].lo is q
    assert below(q).components[0].hi is q and above(q).components[0].lo is q
    for v, want in ((3, F(3)), (True, F(1)), ("-3/4", F(-3, 4))):
        got = as_fraction(v)
        assert type(got) is F and got == want
    with pytest.raises(InputError) as exc:
        as_fraction(0.5, "endpoint")
    assert str(exc.value) == "refusing inexact float endpoint: 0.5"
    for bad in ("x", "1/0", None, [1]):
        with pytest.raises(InputError) as exc:
            as_fraction(bad)
        assert str(exc.value) == f"not a rational value: {bad!r}"


def test_contains_basics():
    s = interval(0, 1, True, False)
    assert s.contains(0) and s.contains(F(1, 2))
    assert not s.contains(1) and not s.contains(-1)
    assert ALL_REALS.contains(F(-100)) and not EMPTY_SET.contains(0)
    assert below(2).contains(F(3, 2)) and not below(2).contains(2)
    assert above(2, closed=True).contains(2)


def test_canonical_merging():
    assert interval(0, 1, True, True).union(interval(1, 2, True, True)) \
        == interval(0, 2, True, True)
    assert interval(0, 1, True, False).union(interval(1, 2, True, True)) \
        == interval(0, 2, True, True)
    two = interval(0, 1, True, False).union(interval(1, 2, False, True))
    assert len(two.components) == 2
    assert two.union(point(1)) == interval(0, 2, True, True)
    assert below(0).union(above(0)) == point(0).complement()
    assert interval(0, 3, True, True).union(interval(1, 2, True, True)) \
        == interval(0, 3, True, True)


def test_make_set_sorts():
    s = make_set([Interval(F(2), F(3), True, True), Interval(F(0), F(1), True, True)])
    assert [c.lo for c in s.components] == [F(0), F(2)]
    assert make_set(s.components) == s


def test_complement_examples():
    assert EMPTY_SET.complement() == ALL_REALS
    assert ALL_REALS.complement() == EMPTY_SET
    assert interval(0, 1, True, True).complement() \
        == below(0).union(above(1))
    assert interval(0, 1, False, False).complement() \
        == below(0, closed=True).union(above(1, closed=True))
    assert below(2).complement() == above(2, closed=True)


def test_intersection_and_difference_examples():
    assert interval(0, 2, True, True).intersection(interval(1, 3, True, True)) \
        == interval(1, 2, True, True)
    assert interval(0, 1, True, False).isdisjoint(interval(1, 2, True, True))
    assert interval(0, 2, True, True).difference(point(1)) \
        == interval(0, 1, True, False).union(interval(1, 2, False, True))
    assert interval(0, 1, True, True).issubset(below(5))
    assert not below(5).issubset(interval(0, 1, True, True))


def test_inf_sup_attainment():
    s = interval(0, 1, True, False)
    assert s.inf() == (F(0), True)
    assert s.sup() == (F(1), False)
    assert below(3).inf() == (None, False)
    assert above(3).union(point(0)).inf() == (F(0), True)
    with pytest.raises(InputError):
        EMPTY_SET.inf()
    with pytest.raises(InputError):
        EMPTY_SET.sup()


def test_algebra_against_membership_oracle():
    rng = random.Random(7201)
    for _ in range(300):
        a, b = rand_set(rng), rand_set(rng)
        pts = probes(a, b)
        for p in pts:
            ina, inb = a.contains(p), b.contains(p)
            assert a.union(b).contains(p) == (ina or inb)
            assert a.intersection(b).contains(p) == (ina and inb)
            assert a.difference(b).contains(p) == (ina and not inb)
            assert a.complement().contains(p) == (not ina)
        assert a.complement().complement() == a
        assert a.issubset(a.union(b))
        assert a.intersection(b).issubset(a)
        assert a.isdisjoint(b) == a.intersection(b).is_empty


def test_canonical_form_is_normal():
    # equal sets built differently compare equal
    rng = random.Random(515)
    for _ in range(200):
        a = rand_set(rng)
        rebuilt = EMPTY_SET
        for c in a.components:
            rebuilt = rebuilt.union(SymbolicSet((c,)))
        assert rebuilt == a
        # components pairwise separated
        for left, right in zip(a.components, a.components[1:]):
            assert left.hi is not None and right.lo is not None
            assert left.hi < right.lo or (left.hi == right.lo
                                          and not left.hi_closed
                                          and not right.lo_closed)
