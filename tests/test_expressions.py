"""Grammar round-trip and error-position checks."""

import random
import time
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


# text -> (message, position)
SET_ERRORS = {
    "(inf,3)": ("lower endpoint cannot be inf", 1),
    "[-inf,0)": ("'[' cannot take -inf", 0),
    "(1,0)": ("reversed interval: 1 > 0", 0),
    "(1,1)": ("empty interval (equal endpoints need '[' and ']')", 0),
    "(0,1": ("expected ')' or ']'", 4),
    "foo": ("expected '(' or '['", 0),
    "[0,1] junk": ("unexpected trailing input", 6),
    "(0,1/0)": ("zero denominator", 5),
    "": ("expected '(' or '['", 0),
    "(0,inf]": ("']' cannot take inf", 6),
}


@pytest.mark.parametrize("text,pos", [(t, p) for t, (_, p) in SET_ERRORS.items()])
def test_parse_set_error_positions(text, pos):
    with pytest.raises(ExprError) as exc:
        parse_set(text)
    message = SET_ERRORS[text][0]
    assert (str(exc.value), exc.value.pos) == (f"{message} (at position {pos})", pos)


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


# text -> (message, position)
MAP_ERRORS = {
    # limits disagree, no at
    "on (-inf,0): 0*x+0; on (0,inf): 0*x+1":
        ("breakpoint 0 needs an 'at' clause (side limits disagree)", 22),
    # at not a breakpoint
    "on (-inf,inf): 0*x+0; at 5: 1": ("'at 5' is not at a breakpoint", 24),
    # duplicate at, reported right after the second 'at'
    "on (-inf,0): 0*x+0; at 0: 0; at 0: 1; on (0,inf): 0*x+1":
        ("duplicate 'at 0' clause", 31),
    # closed piece, reported right after 'on'
    "on [0,inf): 0*x+0": ("piece intervals must be open", 2),
    # gap
    "on (-inf,0): 0*x+0; on (1,inf): 0*x+0":
        ("pieces must tile: expected a piece starting at 0", 22),
    # overlap
    "on (-inf,2): 0*x+0; on (1,inf): 0*x+0":
        ("pieces must tile: expected a piece starting at 2", 22),
    # unbounded piece not last
    "on (-inf,inf): 0*x+0; on (0,inf): 0*x+0":
        ("an unbounded piece may only be last", 24),
    "on (0,inf): 0*x+0": ("pieces must start at -inf", 2),
    "on (-inf,0): 0*x+0": ("pieces must end at inf", 2),
    "at 0: 1": ("need at least one 'on' piece", 0),
    "on (-inf,inf): 0*x+0 extra": ("expected ';'", 21),
    # missing slope
    "on (-inf,inf): x+0": ("expected digits", 15),
    # missing intercept
    "on (-inf,inf): 1*x": ("expected '+' or '-' before the intercept", 18),
}


@pytest.mark.parametrize("text", list(MAP_ERRORS))
def test_parse_map_errors(text):
    with pytest.raises(ExprError) as exc:
        parse_map(text)
    message, pos = MAP_ERRORS[text]
    assert (str(exc.value), exc.value.pos) == (f"{message} (at position {pos})", pos)


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


def big_map_text(n):
    return format_map(make_pwmap([F(i, 3) for i in range(n)],
                                 [(F(i % 7 - 3, 2), F(i, 5)) for i in range(n + 1)],
                                 [F(i % 11, 4) for i in range(n)]))


def error_pos(parse, text):
    try:
        parse(text)
    except ExprError as e:
        return e.pos


def linear_case(case, k):
    """A call whose time should be linear in k; it returns True when right."""
    if case == "map":
        text = big_map_text(k)
        return lambda: format_map(parse_map(text)) == text
    if case == "blanks after on":
        text = "on" + " " * (10 * k) + "x"
        return lambda: error_pos(parse_map, text) == len(text) - 1
    if case == "blanks in interval":
        text = "(" + " \t" * (5 * k) + "0,1)"
        return lambda: parse_set(text) == interval(0, 1, False, False)
    text = "[0,1]" + " | [0,1]" * k
    return lambda: parse_set(text) == interval(0, 1, True, True)


@pytest.mark.parametrize("case", ["map", "blanks after on", "blanks in interval",
                                  "many intervals"])
def test_parse_runs_in_linear_time(case):
    # A regex whose optional blanks can split one run two ways backtracks
    # quadratically on texts that fail after the run.  The tenth-size text
    # goes first, so such a parser fails here in seconds instead of hanging.
    for k in (2_000, 20_000):
        call = linear_case(case, k)
        start = time.perf_counter()
        assert call()
        assert time.perf_counter() - start < 1.0
