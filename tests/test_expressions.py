"""Grammar round-trip and error-position checks."""

import random
from fractions import Fraction as F

import pytest

from gtopo.cli import fmt_q
from gtopo.errors import ExprError, ResourceError
from gtopo.expressions import (format_map, format_rational, format_set,
                               parse_map, parse_set)
from gtopo.pwmaps import constant_map, make_pwmap
from gtopo.symsets import ALL_REALS, EMPTY_SET, below, interval, point
from test_pwmaps import RAMP, rand_map
from test_symsets import rand_set

RAMP_TEXT = "on (-inf,0): 0*x+0; at 0: 0; on (0,1): 1*x+0; at 1: 1; on (1,inf): 0*x+1"


def test_parse_set_examples():
    assert parse_set("empty") == EMPTY_SET
    assert parse_set("all") == ALL_REALS
    assert parse_set("[0,1]") == interval(0, 1, True, True)
    assert parse_set("(-inf,3/2)") == below(F(3, 2))
    assert parse_set("(-inf,0)|[1,2)") == below(0).union(interval(1, 2, True, False))
    assert parse_set(" ( -inf , 3 ) ") == below(3)
    assert parse_set("[2,2]") == point(2)
    assert parse_set("[0,1]|[1,2]") == interval(0, 2, True, True)
    assert parse_set("[-3/2,-1/2]") == interval(F(-3, 2), F(-1, 2), True, True)


@pytest.mark.parametrize("text,pos", [
    ("(inf,3)", 1),
    ("[-inf,0)", 0),
    ("(1,0)", 0),
    ("(1,1)", 0),
    ("(0,1", 4),
    ("foo", 0),
    ("[0,1] junk", 6),
    ("(0,1/0)", 5),
    ("", 0),
    ("(0,inf]", 6),
])
def test_parse_set_error_positions(text, pos):
    with pytest.raises(ExprError) as exc:
        parse_set(text)
    assert exc.value.pos == pos


def test_set_round_trip():
    rng = random.Random(60902)
    for _ in range(200):
        s = rand_set(rng)
        assert parse_set(format_set(s)) == s
    assert format_set(EMPTY_SET) == "empty"
    assert format_set(ALL_REALS) == "all"
    assert format_set(below(0).union(point(1))) == "(-inf,0) | [1,1]"


def test_parse_map_examples():
    assert parse_map("on (-inf,inf): 0*x+1/2") == constant_map(F(1, 2))
    assert parse_map(RAMP_TEXT) == RAMP
    shuffled = "at 1: 1; on (1,inf): 0*x+1; on (-inf,0): 0*x+0; on (0,1): 1*x+0; at 0: 0"
    assert parse_map(shuffled) == RAMP
    neg = parse_map("on (-inf,0): -2*x-3/2; at 0: -3/2; on (0,inf): 1/3*x-3/2")
    assert neg.pieces == ((F(-2), F(-3, 2)), (F(1, 3), F(-3, 2)))
    # side limits agree, so the breakpoint value may be left implicit
    joined = parse_map("on (-inf,0): 1*x+0; on (0,inf): 2*x+0")
    assert joined.values == (F(0),)


@pytest.mark.parametrize("text", [
    "on (-inf,0): 0*x+0; on (0,inf): 0*x+1",     # limits disagree, no at
    "on (-inf,inf): 0*x+0; at 5: 1",             # at not a breakpoint
    "on (-inf,0): 0*x+0; at 0: 0; at 0: 1; on (0,inf): 0*x+1",  # duplicate at
    "on [0,inf): 0*x+0",                         # closed piece
    "on (-inf,0): 0*x+0; on (1,inf): 0*x+0",     # gap
    "on (-inf,2): 0*x+0; on (1,inf): 0*x+0",     # overlap
    "on (-inf,inf): 0*x+0; on (0,inf): 0*x+0",   # unbounded piece not last
    "on (0,inf): 0*x+0",                         # no -inf start
    "on (-inf,0): 0*x+0",                        # no inf end
    "at 0: 1",                                   # no pieces at all
    "on (-inf,inf): 0*x+0 extra",                # trailing junk
    "on (-inf,inf): x+0",                        # missing slope
    "on (-inf,inf): 1*x",                        # missing intercept
])
def test_parse_map_errors(text):
    with pytest.raises(ExprError):
        parse_map(text)


def test_map_round_trip():
    rng = random.Random(31337)
    for _ in range(200):
        f = rand_map(rng)
        assert parse_map(format_map(f)) == f
    assert format_map(RAMP) == RAMP_TEXT
    assert format_map(constant_map(F(-1, 3))) == "on (-inf,inf): 0*x-1/3"


def test_format_map_emits_all_at_clauses():
    f = make_pwmap((0,), ((1, 0), (2, 0)), (0,))
    assert "at 0: 0" in format_map(f)
    assert parse_map(format_map(f)) == f


def test_format_refuses_numbers_too_long_to_print():
    # CPython converts at most 4,300 digits; 10**4300 has 4,301
    assert format_rational(F(10 ** 4300 - 1, 7)) == str(F(10 ** 4300 - 1, 7))
    cases = [(lambda: format_rational(10 ** 4300), 4301),
             (lambda: format_rational(F(-1, 10 ** 4301 + 7)), 4302),
             (lambda: format_set(interval(0, 10 ** 5000, True, True)), 5001),
             (lambda: format_map(constant_map(-10 ** 6000)), 6001),
             (lambda: fmt_q(F(3, 10 ** 4400)), 4401)]
    for call, digits in cases:
        with pytest.raises(ResourceError) as exc:
            call()
        assert str(exc.value) == f"number too long to print ({digits} digits)"


def test_digit_count_of_refused_numbers():
    # n in [10**k, 10**(k+1)) has k+1 digits
    rng = random.Random(4300)
    for _ in range(40):
        k = rng.randrange(4300, 4400)
        for n in (10 ** k, 10 ** (k + 1) - 1, rng.randrange(10 ** k, 10 ** (k + 1))):
            with pytest.raises(ResourceError) as exc:
                format_rational(rng.choice([1, -1]) * n)
            assert str(exc.value) == f"number too long to print ({k + 1} digits)"
