"""Piecewise-affine map checks; preimages verified against pointwise evaluation."""

import random
from fractions import Fraction as F

import pytest

from gtopo.errors import InputError
from gtopo.pwmaps import PiecewiseMap, constant_map, make_pwmap
from gtopo.symsets import ALL_REALS, below, interval, point
from continuity_oracle import is_continuous_everywhere

RAMP = make_pwmap((0, 1), ((0, 0), (1, 0), (0, 1)), (0, 1))  # 0 / x / 1
STEP = make_pwmap((0,), ((0, 0), (0, 1)), (0,))              # 0 on (-inf,0], 1 after
POOL = [F(n) for n in range(-3, 4)]


def rand_map(rng: random.Random) -> PiecewiseMap:
    k = rng.randrange(4)
    bps = sorted(rng.sample(POOL, k))
    pieces = [(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)))
              for _ in range(k + 1)]
    values = [F(rng.randrange(-2, 3)) for _ in bps]
    return make_pwmap(bps, pieces, values)


def window_probes(f: PiecewiseMap, pre, lo, hi) -> list[F]:
    """Anchor points covering every region where membership could flip."""
    anchors = set(f.breakpoints)
    anchors.update(e for c in pre.components for e in (c.lo, c.hi)
                   if e is not None)
    for m, t in f.pieces:
        if m != 0:
            for w in (lo, hi):
                if w is not None:
                    anchors.add((w - t) / m)
    if not anchors:
        return [F(0)]
    cuts = sorted(anchors)
    out = [cuts[0] - 1]
    for a, b in zip(cuts, cuts[1:]):
        out.extend([a, (a + b) / 2])
    out.extend([cuts[-1], cuts[-1] + 1])
    return out


def test_make_pwmap_validation():
    with pytest.raises(InputError):
        make_pwmap((1, 0), ((0, 0), (0, 0), (0, 0)), (0, 0))
    with pytest.raises(InputError):
        make_pwmap((0,), ((0, 0),), (0,))
    with pytest.raises(InputError):
        make_pwmap((0,), ((0, 0), (0, 0)), ())
    with pytest.raises(InputError):
        make_pwmap((0.5,), ((0, 0), (0, 0)), (0,))


def test_value_at():
    assert RAMP.value_at(F(-5)) == 0
    assert RAMP.value_at(0) == 0
    assert RAMP.value_at(F(1, 2)) == F(1, 2)
    assert RAMP.value_at(1) == 1
    assert RAMP.value_at(7) == 1
    assert STEP.value_at(0) == 0 and STEP.value_at(F(1, 100)) == 1
    with pytest.raises(InputError):
        RAMP.value_at(0.5)


def test_preimage_examples():
    assert RAMP.preimage_open(F(1, 4), F(1, 2)) == interval(F(1, 4), F(1, 2), False, False)
    assert RAMP.preimage_open(None, F(1, 2)) == below(F(1, 2))
    assert RAMP.preimage_open(0, None) == interval(0, None, False, False)
    assert STEP.preimage_open(F(-1, 2), F(1, 2)) == below(0, closed=True)
    assert STEP.preimage_open(F(1, 2), F(3, 2)) == interval(0, None, False, False)
    assert RAMP.preimage_open(F(1, 2), F(1, 4)).is_empty
    assert RAMP.preimage_open(None, None).is_all


def test_image_examples():
    assert RAMP.image() == interval(0, 1, True, True)
    assert STEP.image() == point(0).union(point(1))
    assert constant_map(F(2, 3)).image() == point(F(2, 3))
    down = make_pwmap((0,), ((-1, 0), (0, 5)), (5,))
    assert down.image() == interval(0, None, False, False).union(point(5))


def test_criticals():
    assert RAMP.criticals() == [F(0), F(1)]
    assert STEP.criticals() == [F(0), F(1)]
    assert constant_map(3).criticals() == []
    v = make_pwmap((0,), ((1, 0), (1, 1)), (7,))  # jump with detached value
    assert v.criticals() == [F(0), F(1), F(7)]


def test_one_minus():
    g = RAMP.one_minus()
    for x in (F(-1), F(0), F(1, 3), F(1), F(9)):
        assert g.value_at(x) == 1 - RAMP.value_at(x)
    assert g.one_minus() == RAMP


def test_equals_on():
    assert RAMP.equals_on(constant_map(0), below(0, closed=True))
    assert not RAMP.equals_on(constant_map(0), below(1))
    assert RAMP.equals_on(RAMP.one_minus().one_minus(), below(0).complement())
    shifted = make_pwmap((0, 1), ((0, 0), (1, 0), (0, 1)), (0, F(1, 2)))
    assert not RAMP.equals_on(shifted, point(1))
    assert RAMP.equals_on(shifted, interval(0, 1, True, False))
    # no cuts at all: the one gap is the whole line
    assert constant_map(0).equals_on(constant_map(0), ALL_REALS)


def test_continuity_everywhere():
    assert is_continuous_everywhere(RAMP)
    assert not is_continuous_everywhere(STEP)
    assert is_continuous_everywhere(constant_map(0))


def test_preimage_against_evaluation_oracle():
    rng = random.Random(90125)
    windows = [(None, None), (None, F(1)), (F(-1), None), (F(-1), F(1)),
               (F(0), F(1, 2)), (F(1, 3), F(2, 3))]
    for _ in range(250):
        f = rand_map(rng)
        lo, hi = windows[rng.randrange(len(windows))]
        pre = f.preimage_open(lo, hi)
        for x in window_probes(f, pre, lo, hi):
            fx = f.value_at(x)
            expected = (lo is None or fx > lo) and (hi is None or fx < hi)
            assert pre.contains(x) == expected


def test_image_against_evaluation_oracle():
    rng = random.Random(4806)
    for _ in range(200):
        f = rand_map(rng)
        img = f.image()
        xs = set(f.breakpoints) | {F(-4), F(-1, 3), F(0), F(1, 7), F(4)}
        for b in f.breakpoints:
            xs.update([b - F(1, 5), b + F(1, 5)])
        for x in xs:
            assert img.contains(f.value_at(x))
        # every claimed value is attained: nonempty preimage of a small window
        for c in img.components:
            for v in (c.lo, c.hi):
                if v is not None and img.contains(v):
                    tiny = F(1, 1000)
                    attained = (v in f.values
                                or not f.preimage_open(v - tiny, v + tiny).is_empty)
                    assert attained
