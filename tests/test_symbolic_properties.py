"""Hypothesis versions of the symbolic-set laws and the text round trips.

The Boolean laws are checked two ways: every operation against membership
at sample points that cover every region where membership can change
(test_symsets.probes), and the algebraic identities as equalities of
canonical forms.  The round trips take any set or piecewise map, with
rational endpoints, slopes and values drawn from a wider pool than the
seeded tests use.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gtopo.expressions import format_map, format_set, parse_map, parse_set
from gtopo.pwmaps import make_pwmap
from gtopo.symsets import ALL_REALS, EMPTY_SET, Interval, make_set
from test_symsets import probes

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def intervals(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    kind = draw(st.sampled_from(("bounded", "below", "above", "point", "all")))
    closed = st.booleans()
    if kind == "bounded" and a < b:
        return Interval(a, b, draw(closed), draw(closed))
    if kind == "below":
        return Interval(None, a, False, draw(closed))
    if kind == "above":
        return Interval(b, None, draw(closed), False)
    if kind == "all":
        return Interval(None, None, False, False)
    return Interval(a, a, True, True)


symsets = st.lists(intervals(), max_size=4).map(make_set)


@st.composite
def pwmaps(draw):
    bps = sorted(draw(st.sets(rationals, max_size=4)))
    pieces = [(draw(rationals), draw(rationals)) for _ in range(len(bps) + 1)]
    values = [draw(rationals) for _ in bps]
    return make_pwmap(bps, pieces, values)


@settings(max_examples=200, deadline=None)
@given(a=symsets, b=symsets)
def test_operations_agree_with_membership(a, b):
    for p in probes(a, b):
        ina, inb = a.contains(p), b.contains(p)
        assert a.union(b).contains(p) == (ina or inb)
        assert a.intersection(b).contains(p) == (ina and inb)
        assert a.difference(b).contains(p) == (ina and not inb)
        assert a.complement().contains(p) == (not ina)
    assert a.issubset(b) == all(b.contains(p) for p in probes(a, b)
                                if a.contains(p))
    assert a.isdisjoint(b) == (not any(a.contains(p) and b.contains(p)
                                       for p in probes(a, b)))


@settings(max_examples=200, deadline=None)
@given(a=symsets, b=symsets, c=symsets)
def test_boolean_algebra_identities(a, b, c):
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersection(b.intersection(c)) == a.intersection(b).intersection(c)
    assert (a.intersection(b.union(c))
            == a.intersection(b).union(a.intersection(c)))
    assert (a.union(b.intersection(c))
            == a.union(b).intersection(a.union(c)))
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())
    assert a.union(a.intersection(b)) == a
    assert a.intersection(a.union(b)) == a
    assert a.difference(b) == a.intersection(b.complement())
    assert a.complement().complement() == a
    assert a.union(a.complement()) == ALL_REALS
    assert a.intersection(a.complement()) == EMPTY_SET
    assert a.union(EMPTY_SET) == a and a.intersection(ALL_REALS) == a


@settings(max_examples=200, deadline=None)
@given(s=symsets)
def test_set_text_round_trip(s):
    text = format_set(s)
    assert parse_set(text) == s
    assert format_set(parse_set(text)) == text


@settings(max_examples=200, deadline=None)
@given(f=pwmaps())
def test_map_text_round_trip(f):
    text = format_map(f)
    assert parse_map(text) == f
    assert format_map(parse_map(text)) == text

