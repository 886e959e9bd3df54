"""The extension searches and the one clopen-defect scan of `props`.

The fused GTET search is checked against the search it replaced, the
per-structure chain search of statement_oracle (one depth-first search per
clopen chain), and TET against the brute-force partition filter.  The one
walk that decides every statement at once is checked against the
one-statement calls.  On 6 and 7 points decide_statement refuses, so the
searches are called below its size check.
"""

import io
import json
from contextlib import redirect_stdout

import gtopo.spaces as spaces
import gtopo.urysohn as urysohn
from gtopo import cli
from gtopo.spaces import (clopen_defect, enumerate_strong_gts, make_space,
                          sample_strong_gts)
from gtopo.urysohn import (STATEMENTS, StatementReport, decide_statement,
                           decide_statements, effective_witness,
                           first_unlifted_structure)

from statement_oracle import chain_report, extension_report


def census4():
    return [s for n in range(5) for s in enumerate_strong_gts(n)]


def six_and_seven():
    # 200 spaces; the chain oracle takes about 0.14 s a 7-point space, so
    # most are on 6 points
    return (sample_strong_gts(6, 170, seed=1106)
            + sample_strong_gts(7, 30, seed=1107))


def test_fused_gtet_matches_chain_oracle_up_to_five_points():
    for s in census4() + sample_strong_gts(5, 3000, seed=1101):
        assert decide_statement(s, "GTET") == chain_report(s)


def test_tet_matches_brute_force_on_the_census():
    for s in census4():
        assert decide_statement(s, "TET") == extension_report(s, "TET")


def test_extension_searches_match_oracles_on_six_and_seven_points():
    for s in six_and_seven():
        oracles = {"GTET": chain_report(s), "TET": extension_report(s, "TET")}
        walk = urysohn._unlifted_structures(s, ("TET", "GTET"))
        for statement, oracle in oracles.items():
            ce = first_unlifted_structure(s, statement)
            assert StatementReport(statement, ce is None,
                                   counterexample=ce) == oracle
            assert walk.get(statement) == oracle.counterexample


def test_one_walk_matches_the_one_statement_calls():
    for s in census4() + sample_strong_gts(5, 3000, seed=1101):
        assert decide_statements(s) == [decide_statement(s, st)
                                        for st in STATEMENTS]


def test_one_walk_reports_in_the_order_asked():
    for s in census4()[::7]:
        asked = ("gtet", "UL", "TET", "gul", "TET")
        assert decide_statements(s, asked) == [decide_statement(s, st)
                                               for st in asked]


# A space where one prefix is met with two different reaches and only the
# smaller one fails: a memo keyed on the prefix alone passes the failure by.
REACH_APART = (7, [0, 6, 68, 24, 40, 97, 70, 56, 101, 105, 30, 46, 92, 108,
                   87, 103, 59, 109, 121, 62, 94, 110, 124, 63, 95, 111, 119,
                   123, 125, 126, 127])


def test_fused_memo_keeps_reaches_apart():
    s = make_space(*REACH_APART)
    oracle = chain_report(s)
    assert not oracle.holds
    assert first_unlifted_structure(s, "GTET") == oracle.counterexample


def test_extension_searches_skip_the_empty_set_and_the_whole_space(
        monkeypatch):
    seen = []
    for name in ("_first_unlifted_chain", "_extends_partition"):
        search = getattr(urysohn, name)

        def spy(space, a, *rest, _search=search):
            seen.append((space.full, a))
            return _search(space, a, *rest)

        monkeypatch.setattr(urysohn, name, spy)
    for s in census4():
        for statement in ("TET", "GTET"):
            decide_statement(s, statement)
    assert seen
    assert all(a not in (0, full) for full, a in seen)


# ---------------------------------------------------------------- one scan

PINCH = {"points": 3, "open_sets": [[], [0], [0, 1], [0, 2], [0, 1, 2]]}
DIAMOND = {"points": 3, "open_sets": [[], [0, 1], [1, 2], [0, 1, 2]]}


def test_props_scans_the_clopen_defect_once(monkeypatch, tmp_path):
    calls = []
    scan = spaces.clopen_defect

    def counted(space):
        calls.append(space)
        return scan(space)

    monkeypatch.setattr(spaces, "clopen_defect", counted)
    for doc in (PINCH, DIAMOND):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["props", str(path), "--u-normal-max", "4"]) == 0
        assert len(calls) == 1


def test_no_defect_is_effective_normality():
    for s in (census4() + sample_strong_gts(5, 3000, seed=1101)
              + six_and_seven()):
        assert (s.defect is None) == (effective_witness(s) is not None)


def test_props_walks_each_closed_set_once_and_builds_no_table(monkeypatch,
                                                              tmp_path):
    def refuse(space):
        raise AssertionError("built an effective witness table")

    monkeypatch.setattr(urysohn, "effective_witness", refuse)
    monkeypatch.setattr(cli, "effective_witness", refuse)
    walks, traced = [], []
    walk, trace = urysohn._unlifted_structures, urysohn._trace_clopens

    def counted_walk(space, statements):
        walks.append(tuple(statements))
        return walk(space, statements)

    def counted_trace(space, a):
        traced.append(a)
        return trace(space, a)

    monkeypatch.setattr(urysohn, "_unlifted_structures", counted_walk)
    monkeypatch.setattr(urysohn, "_trace_clopens", counted_trace)
    path = tmp_path / "space.json"
    for s in census4()[::5] + sample_strong_gts(5, 40, seed=1101):
        path.write_text(json.dumps(spaces.space_to_dict(s)))
        walks.clear()
        traced.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["props", str(path)]) == 0
        assert walks == [("TET", "GTET")]
        assert len(traced) == len(set(traced))
        assert set(traced) <= set(s.closeds) - {0, s.full}
    for n in range(4):
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["census", "--points", str(n),
                             "--where", "effectively-normal"]) == 0
        assert json.loads(out.getvalue())["count"] == sum(
            s.defect is None for s in enumerate_strong_gts(n))


def test_effective_witness_seeks_no_cover_on_a_non_normal_space(monkeypatch):
    def refuse(*args):
        raise AssertionError("sought an open cover on a non-normal space")

    monkeypatch.setattr(urysohn, "least_open_cover", refuse)
    non_normal = [s for s in census4() if clopen_defect(s) is not None]
    assert non_normal
    for s in non_normal:
        assert effective_witness(s) is None
