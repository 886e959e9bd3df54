from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtopo.errors import InputError
from gtopo.rationals import (
    calkin_wilf, dyadic_neighbors, dyadics_by_level, enum_all_rationals,
    first_in_interval, is_dyadic_unit, unit_ratios,
)


def take(it, k):
    out = []
    for _ in range(k):
        out.append(next(it))
    return out


def test_calkin_wilf_prefix():
    expect = [F(1), F(1, 2), F(2), F(1, 3), F(3, 2), F(2, 3), F(3),
              F(1, 4), F(4, 3), F(3, 5), F(5, 2), F(2, 5), F(5, 3),
              F(3, 4), F(4)]
    assert take(calkin_wilf(), 15) == expect


def test_calkin_wilf_hits_each_positive_once():
    seen = take(calkin_wilf(), 300)
    assert len(set(seen)) == 300
    assert all(q > 0 for q in seen)


def test_all_rationals_interleaves_signs():
    expect = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2),
              F(1, 3), F(-1, 3), F(3, 2), F(-3, 2)]
    assert take(enum_all_rationals(), 11) == expect


def test_unit_rationals_by_denominator():
    expect = [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4),
              F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 6), F(5, 6)]
    assert take((F(*r) for r in unit_ratios()), 11) == expect
    for q in take((F(*r) for r in unit_ratios()), 200):
        assert 0 < q < 1


def test_dyadics():
    assert is_dyadic_unit(F(3, 8))
    assert not is_dyadic_unit(F(1, 3))
    assert not is_dyadic_unit(F(3, 2))
    assert dyadic_neighbors(F(1, 2)) == (F(0), F(1))
    assert dyadic_neighbors(F(3, 8)) == (F(1, 4), F(1, 2))
    assert dyadic_neighbors(F(5, 8)) == (F(1, 2), F(3, 4))
    with pytest.raises(InputError):
        dyadic_neighbors(F(1, 3))
    assert list(dyadics_by_level(2)) == [F(1, 2), F(1, 4), F(3, 4)]
    level3 = list(dyadics_by_level(3))
    assert len(level3) == len(set(level3)) == 7


# --- first_in_interval against a bounded walk of the enumeration -----------

# With ends in [-6, 6] and denominators up to 6, the first term of every
# nonempty interval lies within this prefix (the deepest is at index 8126).
_WALK = list(islice(enum_all_rationals(), 2 ** 13))
_ENDS = st.one_of(st.none(), st.fractions(min_value=-6, max_value=6,
                                          max_denominator=6))


def _walk_first(lo, lo_closed, hi, hi_closed):
    for q in _WALK:
        if lo is not None and (q < lo or (q == lo and not lo_closed)):
            continue
        if hi is not None and (q > hi or (q == hi and not hi_closed)):
            continue
        return q
    return None


@settings(max_examples=200, deadline=None)
@given(lo=_ENDS, lo_closed=st.booleans(), hi=_ENDS, hi_closed=st.booleans())
@example(F(1, 3), False, F(1, 2), False)          # open, right of 0
@example(F(-3, 2), True, F(-4, 3), True)          # closed, left of 0
@example(F(5, 2), True, None, False)              # infinite above
@example(None, False, F(-7, 3), False)            # infinite below
@example(F(-1, 2), False, F(1, 2), False)         # across 0
@example(F(0), False, F(1, 4), True)              # 0 excluded at the end
@example(None, False, F(0), False)
@example(None, False, None, False)                # the whole line
@example(F(2), True, F(2), True)                  # a single point
@example(F(2), True, F(2), False)                 # empty: half-open point
@example(F(3), False, F(1), False)                # empty: reversed
def test_first_in_interval_matches_walk(lo, lo_closed, hi, hi_closed):
    got = first_in_interval(lo, lo_closed, hi, hi_closed)
    assert got == _walk_first(lo, lo_closed, hi, hi_closed)


def test_first_in_interval_deep_and_empty():
    assert first_in_interval(30, False, 31, False) == F(61, 2)
    assert first_in_interval(-31, False, -30, False) == F(-61, 2)
    assert first_in_interval(30, False, 31, True) == 31
    tiny = F(1, 10 ** 6)
    assert first_in_interval(tiny, False, 2 * tiny, False) == F(1, 500001)
    assert first_in_interval(F(10 ** 9 + 1, 10 ** 9), True,
                             F(10 ** 9 + 1, 10 ** 9), True) \
        == F(10 ** 9 + 1, 10 ** 9)
    assert first_in_interval(None, False, 0, True) == 0
    assert first_in_interval(1, True, 1, False) is None
    assert first_in_interval(0, False, 0, False) is None
