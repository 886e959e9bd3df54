"""The regex parser against the character scanner it replaced.

`tests/expr_oracle.py` holds the old scanner unchanged.  For every input
both parsers must return equal values, or raise the same exception type
with the same message at the same position.  The inputs are valid texts
from the formatters, the same texts re-spaced, texts at the edges of the
whitespace, word and number rules, seeded one-character edits of valid
texts, and Hypothesis text over the grammar's alphabet.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_oracle
from gtopo.errors import ExprError
from gtopo.expressions import format_map, format_set, parse_map, parse_set
from gtopo.pwmaps import make_pwmap
from test_pwmaps import rand_map
from test_realline import continuity_corpus
from test_symsets import rand_set

PARSERS = {"set": (parse_set, expr_oracle.parse_set),
           "map": (parse_map, expr_oracle.parse_map)}


def outcome(parse, text):
    try:
        return ("value", parse(text))
    except Exception as e:      # compare every failure, expected or not
        return (type(e), str(e), getattr(e, "pos", None))


def mismatches(kind, texts):
    new, old = PARSERS[kind]
    return [(t, outcome(new, t), outcome(old, t)) for t in texts
            if outcome(new, t) != outcome(old, t)]


def rand_fraction_map(rng):
    """Up to six breakpoints with signed fractional data, some values off
    the side limits."""
    bps = sorted({F(rng.randrange(-40, 41), rng.randrange(1, 7))
                  for _ in range(rng.randrange(7))})
    pieces = [(F(rng.randrange(-9, 10), rng.randrange(1, 5)),
               F(rng.randrange(-9, 10), rng.randrange(1, 5)))
              for _ in range(len(bps) + 1)]
    values = [F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in bps]
    return make_pwmap(bps, pieces, values)


def corpus_maps(rng):
    return (continuity_corpus(12002, 25) + [rand_map(rng) for _ in range(100)]
            + [rand_fraction_map(rng) for _ in range(100)])


def valid_texts():
    rng = random.Random(12001)
    maps = corpus_maps(rng)
    sets = [rand_set(rng) for _ in range(200)]
    return ([("map", format_map(f)) for f in maps]
            + [("set", format_set(s)) for s in sets])


@pytest.fixture(scope="module")
def valid():
    """The formatter texts, built once for the module's tests."""
    return valid_texts()


TOKEN = re.compile(r"[A-Za-z]+|[0-9]+|\S")
BLANKS = (" ", "\t", "  ", " \t", "\t \t")


def respaced(text, rng, gap):
    """text with each gap between its tokens replaced by gap(left, right)."""
    tokens = TOKEN.findall(text)
    out = [tokens[0]]
    for left, right in zip(tokens, tokens[1:]):
        out += [gap(left, right, rng), right]
    return rng.choice(("", " ", "\t")) + "".join(out) + rng.choice(("", " \t"))


def test_valid_texts_agree(valid):
    for kind in PARSERS:
        texts = [t for k, t in valid if k == kind]
        assert texts and mismatches(kind, texts) == []


def test_blanks_in_every_gap(valid):
    # Blanks in every gap: before "/" and inside "-inf" the texts are
    # refused, and both parsers must refuse them alike.
    rng = random.Random(12003)
    for kind, text in valid:
        variants = [respaced(text, rng, lambda a, b, r: r.choice(BLANKS))
                    for _ in range(3)]
        assert mismatches(kind, variants) == []


def allowed_gap(left, right, rng):
    """Blanks wherever the grammar allows them, none where it does not."""
    if right == "/" or (left == "-" and right == "inf"):
        return ""
    return rng.choice(BLANKS)


def test_documented_whitespace_rule(valid):
    # Blanks and tabs between any two tokens, after a leading "-" and after
    # "/", change nothing.
    rng = random.Random(12004)
    for kind, text in valid:
        new, old = PARSERS[kind]
        spaced = respaced(text, rng, allowed_gap)
        assert new(spaced) == new(text) == old(spaced)


EDGE_SETS = [
    # signs and slashes
    "[- 3,1]", "[-\t3,1]", "[1/ 2,1]", "[1/\t2,1]", "[1 /2,1]", "[1/2 ,1]",
    "[- 1/ 2,1]", "[1,- 3/ 4]", "(- inf,0)", "(-inf ,0)", "(0, inf)",
    "(0,in f)", "[1/,2]", "[1/ ,2]", "[/2,3]", "[-/2,3]", "[--1,2]",
    "[- -1,2]", "[+1,2]", "[1//2,3]", "[1/2/3,4]",
    # words against neighbours
    "allx", "emptyx", "all_", "all1", "empty,", "all|", "all (0,1)",
    "empty|[0,1]", "(-infx,0)", "(infx,0)", "(0,infx)", "(0,inf_)",
    "(0,inf1)", "(-inf0,1)", "(0,-infx)", "(inf", "(-inf", "[0,1]|",
    "[0,1] | ", "|[0,1]", "[0,1]||[2,3]", "[0,1]x", "[0,1] all",
    # blanks and odd characters
    " ", "\t", " \t (0,1) \t ", "(0\n,1)", "\n(0,1)", "(0,1)\n", "(0,1)\r",
    "(0,١)", "(0,1_0)", "(0,1)　",
    # zero denominators and lone brackets
    "(0,1/0)", "(0/0,1)", "(1/0,inf)", "[0/5,1/00]", "(", ")", "[", "]",
    "[0", "[0,", "[0,1", "[2,1]", "[1,1)", "(1,1]", "[1,1]",
]
EDGE_MAPS = [
    "on (-inf,inf): - 3*x+0", "on (-inf,inf): 1/ 2*x-1/ 3",
    "on (-inf,inf): 1 /2*x+0", "on (-inf,inf): 1*x+ 0", "on (-inf,inf): 1*x- 3",
    "on (-inf,inf): 1*x+-3", "on (-inf,inf): 1*x--3", "on (-inf,inf): 1*x+ -3",
    "on (-inf,inf): 1*x +1/", "on (-inf,inf): 1*x+1/0",
    "on (-inf,inf): 1*x+1/ 0", "on (-inf,inf): 0/0*x+1",
    # words against neighbours
    "on(-inf,inf):0*x+0", "on(-inf,inf):0*x+0;at 0:1", "onx (-inf,inf): 0*x+0",
    "on_(-inf,inf): 0*x+0", "on1(-inf,inf): 0*x+0", "o n(-inf,inf): 0*x+0",
    "on (-inf,inf): 1*x2+0", "on (-inf,inf): 1*xx+0", "on (-inf,inf): 1*x_+0",
    "on (-inf,inf): 1*X+0", "on (-inf,inf): 1x+0", "on (-inf,inf): 1 * x + 0",
    "on (-infx,0): 0*x+0", "on (-inf,0): 0*x+0; at0: 0; on (0,inf): 0*x+0",
    "on (-inf,0): 0*x+0; at 0:0; on(0,inf):0*x+0",
    "on (-inf,0): 0*x+0; atx 0: 0; on (0,inf): 0*x+0",
    # separators and ends
    "", " ", ";", "on (-inf,inf): 0*x+0;", "on (-inf,inf): 0*x+0 ;",
    "on (-inf,inf): 0*x+0;;", "; on (-inf,inf): 0*x+0", "on", "on ", "at",
    "at 1", "at 1:", "at 1: 2", "at 1: 2;", "on (-inf,inf)", "on (-inf,inf):",
    "on (-inf,inf): 1", "on (-inf,inf): 1*", "on (-inf,inf): 1*x+",
    "on (-inf,inf): 0*x+0\n", "on (-inf,inf): 0*x+0 | on",
    # semantic errors, and their order against later syntax errors
    "on (inf,0): junk", "on [-inf,0): junk", "on (0,-inf): junk",
    "on (0,inf]: junk", "on (1,0): junk", "on (1,1): junk", "on [0,1): junk",
    "at 0: 0; at 0: 1 junk", "at 0: 0; at 0/1: 1", "at 0: 0; at 0: 1",
    "at 0: 0; at 0: junk", "at 0: 0; at 0:", "at 1: 2; at 1: 1/0",
    "on (-inf,0): 0*x+0; on (-inf,0): 0*x+1; on (0,inf): 0*x+0",
    "on (-inf,1): 0*x+0; on (0,inf): 0*x+0", "on (0,inf): 0*x+0",
    "on (-inf,0): 0*x+0", "on (-inf,inf): 0*x+0; on (0,inf): 0*x+0",
    "on (-inf,0): 0*x+0; at 0: 0; at 1: 0; on (0,inf): 0*x+0; at 2: 0",
    "at 2: 0; at 1: 0; on (-inf,inf): 0*x+0",
    "on (0,1): 0*x+0; on (-inf,0): 0*x+0; on (1,inf): 1*x+0; at 0: 0",
    "on (-inf,0): 0*x+0; on (0,1): 1*x+0; on (1,inf): 0*x+1",
    "on (-inf,0): 2/4*x+1/2; at 0/3: 1/2; on (0,inf): -0*x+2/4",
]


@pytest.mark.parametrize("kind,texts", [("set", EDGE_SETS), ("map", EDGE_MAPS)])
def test_edge_texts_agree(kind, texts):
    assert mismatches(kind, texts) == []


# Equal numbers spelled apart.  parse_map converts each spelling once per
# call, so it must neither merge two spellings into one entry nor miss that
# their values are equal: ends spelled apart still tile, an at clause spelled
# apart still lands on its breakpoint, and a duplicate spelled apart is still
# refused, with the message and position of the scanner.
SPELLED_APART = {   # text -> make_pwmap arguments of its map
    "on (-inf,1/2): 0*x+0; at 2/4: 5; on (2/4,inf): 0*x+1":
        ((F(1, 2),), ((0, 0), (0, 1)), (5,)),
    "on (2/4,inf): 0*x+1; on (-inf,1/2): 2*x+0":
        ((F(1, 2),), ((2, 0), (0, 1)), (1,)),
    "on (-inf,0): 0*x+0; at -0: 1; on (0/3,1): -0*x+1; at 1: 1; "
    "on (1,inf): 0*x+0/3":
        ((0, 1), ((0, 0), (0, 1), (0, 0)), (1, 1)),
    "on (-inf,-0): 1*x-0; on (0/3,inf): 1*x+0":
        ((0,), ((1, 0), (1, 0)), (0,)),
    "on (-inf,0/3): -1/2*x+2/4; at 0: -0; on (-0,inf): 0*x-0":
        ((0,), ((F(-1, 2), F(1, 2)), (0, 0)), (0,)),
}
SPELLED_APART_ERRORS = [
    "on (-inf,1/2): 0*x+0; at 1/2: 0; at 2/4: 1; on (2/4,inf): 0*x+1",
    "on (-inf,0): 0*x+0; at 0: 0; at -0: 1; on (0,inf): 0*x+1",
    "on (-inf,0): 0*x+0; at 0/3: 0; at 0: 1; on (-0,inf): 0*x+1",
    "on (-inf,0): 0*x+0; at -0: 0; at 0/3: 1; on (0,inf): 0*x+1",
    "on (-inf,1/2): 0*x+0; at 1/2: 0; on (2/4,inf): 0*x+1; at 4/8: 2",
    "on (-inf,1/2): 0*x+0; at 2/3: 0; on (2/4,inf): 0*x+0",
    "on (-inf,2/4): 0*x+0; on (1/3,inf): 0*x+1; at 1/2: 0",
    "on (-inf,-0): 0*x+0; on (0/3,inf): 0*x+1",
    "on (-0,inf): 0*x+0; on (-inf,0/3): 0*x+1; on (0,1): 0*x+2",
]


def test_equal_numbers_spelled_apart():
    for text, expected in SPELLED_APART.items():
        assert parse_map(text) == make_pwmap(*expected), text
    assert mismatches("map", list(SPELLED_APART)) == []
    assert mismatches("map", SPELLED_APART_ERRORS) == []
    outcomes = [outcome(parse_map, t) for t in SPELLED_APART_ERRORS]
    assert all(o[0] is ExprError for o in outcomes)
    assert outcomes[:4] == [
        (ExprError, "duplicate 'at 1/2' clause (at position 35)", 35),
        (ExprError, "duplicate 'at 0' clause (at position 31)", 31),
        (ExprError, "duplicate 'at 0' clause (at position 33)", 33),
        (ExprError, "duplicate 'at 0' clause (at position 32)", 32)]


def test_direct_build_equals_make_pwmap():
    # parse_map builds its PiecewiseMap without make_pwmap's checks and
    # coercions; the result must be the map make_pwmap would build.
    rng = random.Random(12006)
    for f in corpus_maps(rng):
        want = make_pwmap(f.breakpoints, f.pieces, f.values)
        text = format_map(f)
        for t in (text, respaced(text, rng, allowed_gap)):
            got = parse_map(t)
            assert got == want, t
            numbers = (got.breakpoints + got.values
                       + tuple(x for piece in got.pieces for x in piece))
            assert all(type(x) is F for x in numbers), t


def test_documented_word_and_sign_rules():
    # The words end at a non-word character, "-inf" takes no blank, and
    # blanks may not precede "/".
    refused_sets = ["allx", "emptyx", "(-infx,0)", "(0,inf_)", "(- inf,0)",
                    "[1 /2,1]"]
    refused_maps = ["onx (-inf,inf): 0*x+0", "on (-inf,inf): 1*x2+0",
                    "on (-inf,inf): 0*x+0; at0: 0", "on (-inf,inf): 1 /2*x+0"]
    for kind, texts in (("set", refused_sets), ("map", refused_maps)):
        for text in texts:
            for parse in PARSERS[kind]:
                assert outcome(parse, text)[0] != "value", (parse, text)
    assert parse_map("on(-inf,inf):0*x+0") == parse_map("on (-inf,inf): 0*x+0")
    assert parse_set("[- 3,1/ 2]") == parse_set("[-3,1/2]")


def test_long_numbers_agree():
    # CPython reads at most 4,300 digits into an int.
    texts = []
    for k in (4300, 4301):
        n = "7" * k
        texts += [("set", f"[{n},{n}1]"), ("set", f"[1/{n},1]"),
                  ("set", f"[-{n}/{n},0]"), ("set", f"({n}/0,inf)"),
                  ("set", f"(0,1/0{n})"), ("set", f"[{n}/{n}x"),
                  ("map", f"on (-inf,inf): {n}*x+1/{n}"),
                  ("map", f"on (-inf,inf): 0*x+0; at {n}: {n}/0"),
                  ("map", f"on (-inf,0): 0*x+0; at 0: -{n}; on (0,inf): 0*x+0")]
    texts += [("set", "(0,1/0)"), ("set", "(1/0,2/0)"),
              ("map", "on (-inf,inf): 1/0*x+1/0")]
    for kind in PARSERS:
        assert mismatches(kind, [t for k, t in texts if k == kind]) == []


def edits(text, rng):
    """One deleted, inserted or swapped character."""
    i = rng.randrange(len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    j = rng.randrange(len(text))
    chars = list(text)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


ALPHABET = " \t0123456789/-+*x()[],|:;einfalmptyox_\n"


def test_seeded_one_character_edits(valid):
    rng = random.Random(12005)
    for kind in PARSERS:
        texts = [t for k, t in valid if k == kind]
        edited = [edits(rng.choice(texts), rng) for _ in range(2000)]
        assert mismatches(kind, edited) == []


grammar_text = st.lists(
    st.sampled_from(["on", "at", "x", "inf", "-inf", "empty", "all", " ",
                     "\t", "0", "1", "12", "3/4", "-", "/", "+", "*", "(",
                     ")", "[", "]", ",", "|", ":", ";", "_", "a", "9"]),
    max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(grammar_text, st.text(alphabet=ALPHABET, max_size=40)))
def test_hypothesis_text_agrees(text):
    for kind in PARSERS:
        assert mismatches(kind, [text]) == []
