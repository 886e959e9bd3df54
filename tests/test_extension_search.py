"""The extension searches and the one clopen-defect scan of `props`.

The fused GTET search is checked against the search it replaced, the
per-structure chain search of statement_oracle (one depth-first search per
clopen chain), and TET against the brute-force partition filter.  The one
walk that decides every statement at once is checked against the
one-statement calls, and the verdicts alone (extension_holds, read off the
certificate scan) against the walk and the oracles; the certificate lemma
is checked against the brute-force oracle.  On 6 and 7 points
decide_statement refuses, so the searches are called below its size check.
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
                           extension_holds)

from statement_oracle import (_extends, chain_report, continuous_partitions,
                              extension_report)


def census4():
    return [s for n in range(5) for s in enumerate_strong_gts(n)]


def six_and_seven():
    # 200 spaces; the chain oracle takes about 0.14 s a 7-point space, so
    # most are on 6 points
    return (sample_strong_gts(6, 170, seed=1106)
            + sample_strong_gts(7, 30, seed=1107))


def untraced(s, a):
    """The trace-clopens of the closed set a that no clopen of the space
    traces."""
    traces = {u & a for u in s.opens}
    traced = {d & a for d in s.clopens}
    return [c for c in traces if a ^ c in traces and c not in traced]


def first_certificate(s):
    """The first closed set, in canonical order, with an untraced
    trace-clopen, or None."""
    return next((a for a in s.closeds if untraced(s, a)), None)


def test_fused_gtet_matches_chain_oracle_up_to_five_points():
    for s in census4() + sample_strong_gts(5, 3000, seed=1101):
        assert decide_statement(s, "GTET") == chain_report(s)


def test_tet_matches_brute_force_on_the_census():
    for s in census4():
        assert decide_statement(s, "TET") == extension_report(s, "TET")


def test_extension_searches_match_oracles_on_six_and_seven_points():
    for s in six_and_seven():
        oracles = {"GTET": chain_report(s), "TET": extension_report(s, "TET")}
        walk = urysohn._unlifted_structures(s, ("TET", "GTET"),
                                            urysohn._traced_closeds(s))
        for statement, oracle in oracles.items():
            ce = urysohn._unlifted_structures(
                s, (statement,), urysohn._traced_closeds(s)).get(statement)
            assert StatementReport(statement, ce is None,
                                   counterexample=ce) == oracle
            assert walk.get(statement) == oracle.counterexample


def test_one_walk_matches_the_one_statement_calls():
    for s in census4() + sample_strong_gts(5, 3000, seed=1101):
        assert decide_statements(s) == [decide_statement(s, st)
                                        for st in STATEMENTS]


def test_verdicts_match_the_walk_and_the_oracles():
    """extension_holds gives the verdicts of decide_statements.  Against the
    oracles it is checked directly for TET on the census and on every fifth
    sampled space; test_fused_gtet_matches_chain_oracle_up_to_five_points
    pins the walk's GTET to chain_report on all of these spaces."""
    sampled = sample_strong_gts(5, 3000, seed=1101)
    for s in census4() + sampled:
        assert extension_holds(s) == {rep.statement: rep.holds for rep in
                                      decide_statements(s, ("TET", "GTET"))}
    for s in census4() + sampled[::5]:
        assert extension_holds(s, ("TET",))["TET"] == extension_report(
            s, "TET").holds


def test_verdicts_match_the_walk_on_six_and_seven_points(monkeypatch):
    monkeypatch.setattr(urysohn, "EXTENSION_MAX_POINTS", 7)
    for s in six_and_seven():
        found = urysohn._unlifted_structures(s, ("TET", "GTET"),
                                             urysohn._traced_closeds(s))
        assert extension_holds(s, ("GTET", "tet")) == {
            "GTET": "GTET" not in found, "TET": "TET" not in found}


def test_certificates_are_counterexamples_to_both_statements():
    """The lemma of extension_holds, against the brute-force oracle: when no
    clopen traces the trace-clopen c of the closed set a, neither the
    partition {c, a - c} nor the chain {} < c < a lifts.  Checked for every
    such c on the first such a, at or after which the first counterexamples
    of decide_statements lie."""
    checked = 0
    for s in census4() + sample_strong_gts(5, 3000, seed=1101)[::10]:
        a = first_certificate(s)
        if a is None:
            continue
        assert not any(extension_holds(s).values())
        assert all(s.closeds.index(rep.counterexample[0]) <= s.closeds.index(a)
                   for rep in decide_statements(s, ("TET", "GTET")))
        for target in ("taun", "gtaun"):
            xparts = continuous_partitions(s.open_set, s.full, target)
            for c in untraced(s, a):
                assert not _extends((c, a ^ c), a, xparts, target)
                checked += 1
    assert checked


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
    assert (urysohn._unlifted_structures(s, ("GTET",),
                                         urysohn._traced_closeds(s)).get("GTET")
            == oracle.counterexample)


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


class CountedLookups(dict):
    """A tracing mapping that counts the lookups the GTET search makes."""

    count = 0

    def __getitem__(self, c):
        self.count += 1
        return super().__getitem__(c)


def reachable_lookups(a, tclopens, tracing):
    """The lookups of a search that expands each (prefix, reach) state once:
    one per trace-clopen above the prefix, over every state reachable from
    the root, stopping at a."""
    seen, todo, total = set(), [(0, (0,))], 0
    while todo:
        prefix, reach = todo.pop()
        if prefix == a or (prefix, reach) in seen:
            continue
        seen.add((prefix, reach))
        for c in tclopens:
            if c & prefix == prefix and c != prefix:
                total += 1
                nxt = tuple(d for d in tracing[c]
                            if any(d & r == r for r in reach))
                if nxt:
                    todo.append((c, nxt))
    return total


def test_fused_memo_expands_each_state_once():
    """Where every chain lifts the search visits every reachable state, and
    with the memo it expands each once; without it a state reached along two
    chains is expanded twice."""
    lifted = 0
    for s in six_and_seven()[::10]:
        for a, tclopens, tracing in urysohn._traced_closeds(s):
            counted = CountedLookups(tracing)
            found = urysohn._first_unlifted_chain(s, a, tclopens, counted)
            bound = reachable_lookups(a, tclopens, tracing)
            if found is None:
                assert counted.count == bound
                lifted += 1
            else:
                assert counted.count <= bound
    assert lifted


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
    searches, traced = [], []
    search, trace = urysohn._unlifted_structures, urysohn._trace_clopens

    def counted_search(space, statements, *entries):
        searches.append(tuple(statements))
        return search(space, statements, *entries)

    def counted_trace(space, a):
        traced.append(a)
        return trace(space, a)

    monkeypatch.setattr(urysohn, "_unlifted_structures", counted_search)
    monkeypatch.setattr(urysohn, "_trace_clopens", counted_trace)
    path = tmp_path / "space.json"
    kinds = set()
    for s in census4()[::5] + sample_strong_gts(5, 40, seed=1101):
        path.write_text(json.dumps(spaces.space_to_dict(s)))
        searches.clear()
        traced.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["props", str(path)]) == 0
        assert len(traced) == len(set(traced))
        assert set(traced) <= set(s.closeds) - {0, s.full}
        cert = first_certificate(s)
        kinds.add(cert is None)
        if cert is None:
            assert searches == [("TET", "GTET")]
        else:
            assert searches == []
            assert traced[-1] == cert
    assert kinds == {True, False}
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
