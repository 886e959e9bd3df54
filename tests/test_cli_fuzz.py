"""In-process fuzz of every CLI verb against the exit-code contract.

Each example is one ``cli.main(argv)`` call: malformed and well-formed space
files, point sets, set and map expressions, numbers past CPython's
4,300-digit limit, bad options and plain junk.  Whatever the input, the exit
code (or ``SystemExit.code``) is 0, 1 or 2, never 3, and stderr holds no
traceback.  Inputs stay small enough to answer quickly: spaces of at most 5
points, ladders of at most level 6, and ``census --where`` on at most 3
points.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtopo import cli

HUGE = ("4" * 4300, "9" * 4301, "1" + "0" * 5000)   # at and past the limit

# ------------------------------------------------------------ space files

points = st.integers(0, 5)


@st.composite
def strong_gt_docs(draw):
    """A strong GT on at most 5 points: random opens closed under union."""
    n = draw(points)
    full = (1 << n) - 1
    opens = {0, full}
    for m in draw(st.lists(st.integers(0, full), max_size=6)):
        opens |= {m | u for u in opens}
    return {"points": n,
            "open_sets": [[p for p in range(n) if m >> p & 1]
                          for m in sorted(opens)]}


point = st.one_of(st.integers(-1, 6),
                  st.sampled_from([0.0, 1.5, True, None, "0", [0], 10 ** 20]))
loose_docs = st.fixed_dictionaries({
    "points": st.one_of(points, st.sampled_from([-1, 2.0, "3", None, True])),
    "open_sets": st.one_of(st.lists(st.lists(point, max_size=4), max_size=6),
                           st.sampled_from([None, {}, [0], "[]"]))})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["points", "open_sets", "x"]), inner,
                      max_size=3),
    max_leaves=8)


HUGE_DOCS = ('{"points": N, "open_sets": [[]]}',
             '{"points": 2, "open_sets": [[], [N]]}',
             '{"points": 3, "open_sets": [[], [0, 1, 2], [0, N]]}')


@st.composite
def space_texts(draw):
    kind = draw(st.sampled_from(["strong", "loose", "json", "cut", "huge",
                                 "text"]))
    if kind == "strong":
        return json.dumps(draw(strong_gt_docs()))
    if kind == "loose":
        return json.dumps(draw(loose_docs))
    if kind == "json":
        return json.dumps(draw(json_values))
    doc = json.dumps(draw(st.one_of(strong_gt_docs(), loose_docs)))
    if kind == "cut":
        return doc[:draw(st.integers(0, len(doc)))]
    if kind == "huge":          # number literals json.dumps cannot write
        return draw(st.sampled_from(HUGE_DOCS)).replace(
            "N", draw(st.sampled_from(HUGE)))
    return draw(st.text(max_size=40))


point_sets = st.one_of(
    st.lists(st.integers(-1, 6), max_size=4).map(json.dumps),
    st.lists(point, max_size=3).map(json.dumps),
    st.sampled_from(["", "[", "0,1", "{}", "[NaN]", "[1e400]", "[-0]",
                     *(f"[{h}]" for h in HUGE)]),
    st.text(max_size=10))

# ------------------------------------------------------------ expressions

digits = st.one_of(st.integers(0, 12).map(str),
                   st.integers(0, 10 ** 30).map(str),
                   st.sampled_from(["00", *HUGE]))
rationals = st.builds(lambda sign, num, den: sign + num + den,
                      st.sampled_from(["", "-"]), digits,
                      st.one_of(st.just(""), digits.map("/{}".format)))
endpoints = st.one_of(rationals,
                      st.sampled_from(["inf", "-inf", "+1", "1.5", "", "x"]))
intervals = st.builds("{}{},{}{}".format, st.sampled_from("(["), endpoints,
                      endpoints, st.sampled_from(")]"))


# exact cut points: small, and at the edge of the digit limit
cut_points = st.one_of(st.integers(-6, 6).map(Fraction), st.sampled_from([
    Fraction(int(HUGE[0])), Fraction(1, int(HUGE[0])),
    Fraction(-10 ** 2000, 3)]))


@st.composite
def closed_pairs(draw):
    """Two closed sets, the first below the second, sometimes rays; an open
    inner end makes a set that is not closed."""
    c = sorted(draw(st.sets(cut_points, min_size=4, max_size=4)))
    low = f"[{c[0]}," if draw(st.booleans()) else "(-inf,"
    high = f",{c[3]}]" if draw(st.booleans()) else ",inf)"
    right = draw(st.sampled_from(["]", "]", ")"]))
    left = draw(st.sampled_from(["[", "[", "("]))
    return f"{low}{c[1]}{right}", f"{left}{c[2]}{high}"


@st.composite
def ordered_sets(draw):
    """Mostly valid sets: sorted small endpoints, random brackets."""
    cuts = sorted(draw(st.sets(st.integers(-6, 6), max_size=6)))
    ends = ["-inf", *map(str, cuts), "inf"]
    parts = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        left = "(" if lo == "-inf" else draw(st.sampled_from("(["))
        right = ")" if hi == "inf" else draw(st.sampled_from(")]"))
        parts.append(f"{left}{lo},{hi}{right}")
    return " | ".join(parts) or "empty"


set_exprs = st.one_of(
    ordered_sets(),
    closed_pairs().flatmap(lambda ab: st.sampled_from(
        [ab[0], ab[1], " | ".join(ab)])),
    st.lists(intervals, min_size=1, max_size=3).map(" | ".join),
    st.sampled_from(["empty", "all", "", "|", "empty | all"]),
    st.text(alphabet="()[],|-/0123456789inf empty all", max_size=24))


@st.composite
def ordered_maps(draw):
    """Mostly valid maps: pieces tiling the line, most breakpoints valued."""
    cuts = sorted(draw(st.sets(st.integers(-5, 5), max_size=5)))
    ends = ["-inf", *map(str, cuts), "inf"]
    small = st.one_of(st.integers(-3, 3).map(str), rationals)
    clauses = []
    for lo, hi in zip(ends, ends[1:]):
        slope, icpt = draw(small), draw(st.integers(0, 3))
        sign = draw(st.sampled_from("+-"))
        clauses.append(f"on ({lo},{hi}): {slope}*x{sign}{icpt}")
    for c in cuts:
        if draw(st.booleans()):
            clauses.append(f"at {c}: {draw(small)}")
    return "; ".join(draw(st.permutations(clauses)))


pieces = st.builds("on {}: {}*x+{}".format, intervals, rationals, rationals)
values = st.builds("at {}: {}".format, rationals, rationals)
map_exprs = st.one_of(
    ordered_maps(),
    st.builds("on (-inf,inf): {}*x+{}".format,
              st.one_of(st.integers(-3, 3), rationals), rationals),
    st.lists(st.one_of(pieces, values), max_size=4).map("; ".join),
    st.text(alphabet="onat(),:;*x+-/0123456789inf ", max_size=30))

spaces_ = st.sampled_from(["gtn", "gts", "metric"])
targets = st.sampled_from(["taun", "gtaun", "x"])
levels = st.one_of(st.integers(1, 6).map(str), st.integers(-2, 0).map(str),
                   st.sampled_from(["9", "100", "1.5", "x", "", *HUGE]))
pairs = st.one_of(closed_pairs().flatmap(st.permutations),
                  st.tuples(set_exprs, set_exprs))

# ------------------------------------------------------------ argv


@st.composite
def finite_argvs(draw, write):
    verb = draw(st.sampled_from(["validate", "props", "witness", "tau",
                                 "product"]))
    doc = draw(st.one_of(strong_gt_docs(), st.none()))
    text = json.dumps(doc) if doc else draw(space_texts())
    argv = [verb, write("a.json", text)]
    if verb == "props" and draw(st.booleans()):
        argv += ["--u-normal-max", draw(st.one_of(
            st.integers(-3, 66).map(str), st.sampled_from(["x", *HUGE])))]
    if verb == "witness":
        if doc:     # complements of opens: disjoint when the opens cover X
            closeds = st.sampled_from(doc["open_sets"]).map(
                lambda u: json.dumps(sorted(set(range(doc["points"]))
                                            - set(u))))
            a, b = draw(closeds), draw(closeds)
        else:
            a, b = draw(point_sets), draw(point_sets)
        argv += ["--a", a, "--b", b,
                 "--mode", draw(st.sampled_from(["ul", "gul", "x"]))]
    if verb == "product":
        argv.append(write("b.json", draw(space_texts())))
    return argv


@st.composite
def census_argvs(draw, write):
    n = draw(st.one_of(st.integers(-2, 7).map(str),
                       st.sampled_from(["x", *HUGE])))
    argv = ["census", "--points", n]
    # --where and --out walk the labeled DFS: minutes at 5 points, and
    # --where takes seconds at 4
    if n not in ("4", "5") and draw(st.booleans()):
        argv += ["--where", draw(st.sampled_from(
            [*cli._CENSUS_PROPS, "compact", ""]))]
    if n != "5" and draw(st.booleans()):
        argv += ["--out", write("census.jsonl", "")]
    return argv


real_argvs = st.one_of(
    st.tuples(st.sampled_from(["closure", "classify"]), set_exprs, spaces_)
    .map(lambda t: ["real", t[0], "--set", t[1], "--space", t[2]]),
    st.tuples(st.sampled_from(["urysohn", "effective-f"]), pairs, spaces_)
    .map(lambda t: ["real", t[0], "--a", t[1][0], "--b", t[1][1],
                    "--space", t[2]]),
    st.tuples(pairs, spaces_, levels)
    .map(lambda t: ["real", "ladder", "--a", t[0][0], "--b", t[0][1],
                    "--space", t[1], "--level", t[2]]),
    st.tuples(st.one_of(closed_pairs().map(lambda ab: ab[0]), set_exprs),
              map_exprs, targets)
    .map(lambda t: ["real", "extend", "--p", t[0], "--fn", t[1],
                    "--target", t[2]]),
    st.tuples(map_exprs, spaces_, targets)
    .map(lambda t: ["real", "check-fn", "--fn", t[0], "--source", t[1],
                    "--target", t[2]]),
    map_exprs.map(lambda f: ["real", "triple", "--fn", f]))

junk_argvs = st.lists(st.one_of(
    st.sampled_from(["real", "props", "census", "--timing", "--help", "-h",
                     "--points", "--level", "--a", "ladder", "--"]),
    st.text(max_size=8)), max_size=5)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def check(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, text):
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_finite_verbs_keep_the_exit_contract(write, data):
    timing = data.draw(st.sampled_from([[], ["--timing"]]))
    check(timing + data.draw(st.one_of(finite_argvs(write),
                                       census_argvs(write))))


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(real_argvs, junk_argvs))
def test_real_verbs_keep_the_exit_contract(argv):
    check(argv)
