"""End-to-end CLI checks: exit codes, report shapes, byte determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from gtopo import cli
from gtopo.errors import NoExtension

DIAMOND = {"points": 3, "open_sets": [[], [0, 1], [1, 2], [0, 1, 2]]}
PARTITION = {"points": 4, "open_sets": [[], [0, 1], [2, 3], [0, 1, 2, 3]]}
SIERPINSKI = {"points": 2, "open_sets": [[], [0], [0, 1]]}
INDISCRETE2 = {"points": 2, "open_sets": [[], [0, 1]]}
NOT_A_GT = {"points": 3, "open_sets": [[], [0, 1], [1, 2]]}
# 4,097 opens, one above the limit: every subset of points 0..11, and {12}
MANY_OPENS = {"points": 13,
              "open_sets": [[p for p in range(12) if m >> p & 1]
                            for m in range(1 << 12)] + [[12]]}

RAMP_TEXT = "on (-inf,1): 0*x+0; at 1: 0; on (1,2): 1*x-1; at 2: 1; on (2,inf): 0*x+1"


def run_cli(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "gtopo.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


def run_json(*argv, expect=0):
    return json.loads(run_cli(*argv, expect=expect).stdout)


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def test_validate_good_and_bad_spaces(files):
    full = {"points": 2, "open_sets": [[], [0], [1], [0, 1]]}
    doc = run_json("validate", files("f.json", full))
    assert doc["report"] == {"is_gt": True, "is_strong": True,
                             "is_topology": True, "violation": None}
    doc = run_json("validate", files("d.json", DIAMOND))
    assert doc["report"]["is_gt"] is True
    assert doc["report"]["is_topology"] is False
    assert "intersection" in doc["report"]["violation"]
    assert doc["input"]["open_sets"] == [[], [0, 1], [1, 2], [0, 1, 2]]
    bad = run_json("validate", files("n.json", NOT_A_GT))
    assert bad["report"]["is_gt"] is False
    assert "union" in bad["report"]["violation"]


def test_validate_loads_thousands_of_points_in_linear_time(files, capsys):
    # the empty set and 4,095 singletons on 4,096 points: at the cap on
    # points and on opens, and each mask's one point sits far up its bits
    doc = {"points": 4096, "open_sets": [[p] for p in range(4094, -1, -1)]
           + [[]]}
    path = files("singletons.json", doc)
    start = time.perf_counter()
    code = cli.main(["validate", path])
    assert time.perf_counter() - start < 1.0
    out, _ = capsys.readouterr()
    rep = json.loads(out)
    assert code == 0
    assert rep["input"]["open_sets"] == [[]] + [[p] for p in range(4095)]
    assert rep["report"]["violation"] == "missing union {0} | {1}"


def test_validate_input_errors(files, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"points": 3, ')
    proc = run_cli("validate", str(broken), expect=2)
    assert "invalid JSON" in proc.stderr and "char" in proc.stderr
    proc = run_cli("validate", str(tmp_path / "absent.json"), expect=2)
    assert "cannot read" in proc.stderr
    proc = run_cli("validate", files("c.json", {"points": 2}), expect=2)
    assert "open_sets" in proc.stderr


def test_props_reports(files):
    doc = run_json("props", files("p.json", PARTITION))
    assert doc["profile"]["normal"] is True
    assert doc["statements"]["UL"] is True
    assert doc["statements"]["GUL"] is True
    assert doc["effectively_normal"] is True
    assert doc["u_normal"]["n_max"] == 3 and doc["u_normal"]["holds"] is True
    doc2 = run_json("props", files("d.json", DIAMOND))
    assert doc2["profile"] == {"t0": True, "t1": False, "t2": False,
                               "normal": False}
    assert doc2["statements"]["UL"] is False
    assert doc2["statements"]["GUL"] is False
    assert doc2["effectively_normal"] is False
    doc3 = run_json("props", files("p.json", PARTITION), "--u-normal-max", "2")
    assert doc3["u_normal"]["n_max"] == 2 and len(doc3["u_normal"]["per_n"]) == 3


def test_props_refuses_large_space_up_front(files):
    points = 10
    doc = {"points": points,
           "open_sets": [[p for p in range(points) if m >> p & 1]
                         for m in range(1 << points)]}
    path = files("discrete10.json", doc)
    start = time.perf_counter()
    proc = run_cli("props", path, expect=2)
    assert time.perf_counter() - start < 10.0
    assert proc.stdout == ""
    assert proc.stderr == ("error: extension statements are exhaustive; "
                           "refusing above 5 points\n")


def test_props_refuses_by_point_count_before_validating(files, monkeypatch,
                                                       capsys):
    def validated(n, masks):
        raise AssertionError("props validated a space it refuses")

    monkeypatch.setattr(cli, "make_space", validated)
    # six points and not a GT: refused for its size, never validated
    path = files("big.json", {"points": 6, "open_sets": [[], [0], [1]]})
    code = cli.main(["props", path])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: extension statements are exhaustive; "
                   "refusing above 5 points\n")


def test_families_above_max_opens_exit_2(files, capsys):
    many = files("many.json", MANY_OPENS)
    for argv in (["validate", many], ["tau", many], ["product", many, many],
                 ["witness", many, "--a", "[0]", "--b", "[1]",
                  "--mode", "gul"]):
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, *capsys.readouterr()) == (
            2, "", "error: family has 4097 distinct opens, above 4096; "
                   "refusing\n")


def test_huge_counts_are_refused_without_being_used(tmp_path, capsys):
    huge = "4" * 4300           # at the digit limit: 2 ** huge cannot be built
    path = tmp_path / "huge.json"
    path.write_text('{"points": ' + huge + ', "open_sets": [[]]}')
    cases = (
        (["validate", str(path)],
         "error: space has more than 4096 points; refusing\n"),
        (["real", "ladder", "--a", "[0,1]", "--b", "[2,3]", "--space", "gtn",
          "--level", huge],
         f"error: level {huge} would need 2^{huge} - 1 rungs; "
         "refusing beyond level 8\n"))
    for argv, message in cases:
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, *capsys.readouterr()) == (2, "", message)


def test_props_refuses_long_u_normal_bound(files):
    path = files("p.json", PARTITION)
    proc = run_cli("props", path, "--u-normal-max", "65", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: u-normal length bound 65 is above 64; refusing\n"
    doc = run_json("props", path, "--u-normal-max", "64")
    assert doc["u_normal"]["n_max"] == 64
    assert doc["u_normal"]["per_n"] == [True] * 65


def test_witness_positive(files):
    doc = run_json("witness", files("p.json", PARTITION),
                   "--a", "[0,1]", "--b", "[2,3]", "--mode", "gul")
    assert doc["found"] is True
    assert doc["witness"]["pair"] == [[0, 1], [2, 3]]
    fn = doc["witness"]["function"]
    assert fn["0"] == "0/1" and fn["1"] == "0/1"
    assert fn["2"] == "1/1" and fn["3"] == "1/1"
    ul = run_json("witness", files("p.json", PARTITION),
                  "--a", "[0,1]", "--b", "[2,3]", "--mode", "ul")
    assert ul["found"] is True


def test_witness_negative_and_errors(files):
    doc = run_json("witness", files("d.json", DIAMOND),
                   "--a", "[0]", "--b", "[2]", "--mode", "ul", expect=1)
    assert doc["found"] is False and doc["witness"] is None
    run_cli("witness", files("d.json", DIAMOND),
            "--a", "[9]", "--b", "[2]", "--mode", "ul", expect=2)
    run_cli("witness", files("d.json", DIAMOND),
            "--a", "[0,1]", "--b", "[2]", "--mode", "gul", expect=2)
    run_cli("witness", files("d.json", DIAMOND),
            "--a", "0,1", "--b", "[2]", "--mode", "gul", expect=2)
    proc = run_cli("witness", files("d.json", DIAMOND),
                   "--a", '{"x": 1}', "--b", "[2]", "--mode", "gul", expect=2)
    assert (proc.stdout, proc.stderr) == (
        "", "error: point set for --a must be a JSON list\n")


def test_tau_generates_the_topology(files):
    doc = run_json("tau", files("d.json", DIAMOND))
    assert doc["topology"]["open_sets"] == [[], [1], [0, 1], [1, 2], [0, 1, 2]]
    proc = run_cli("tau", files("w.json", {"points": 2, "open_sets": [[], [0]]}),
                   expect=2)
    assert (proc.stdout, proc.stderr) == (
        "", "error: generated topology requires a strong space\n")


def test_product_report(files):
    doc = run_json("product", files("s.json", SIERPINSKI),
                   files("i.json", INDISCRETE2))
    assert doc["product"]["points"] == 4
    assert doc["product"]["open_sets"] == [[], [0, 1], [0, 1, 2, 3]]


def test_product_refuses_by_size_before_building(files, capsys):
    nine = files("pow9.json", {"points": 9, "open_sets": [
        [p for p in range(9) if m >> p & 1] for m in range(1 << 9)]})
    start = time.perf_counter()
    code = cli.main(["product", nine, nine])
    assert time.perf_counter() - start < 0.5
    assert (code, *capsys.readouterr()) == (
        2, "", "error: product has 261122 opens on 81 points, above 1000000 "
               "opens x points; refusing\n")


def test_census_counts_and_filters(files):
    assert run_json("census", "--points", "2")["count"] == 4
    assert run_json("census", "--points", "0")["count"] == 1
    assert run_json("census", "--points", "3")["count"] == 45
    assert run_json("census", "--points", "2", "--where", "topology")["count"] == 4
    doc = run_json("census", "--points", "3", "--where", "normal")
    from gtopo.spaces import enumerate_strong_gts, separation_profile
    expected = sum(1 for s in enumerate_strong_gts(3)
                   if separation_profile(s).normal)
    assert doc["count"] == expected
    run_cli("census", "--points", "2", "--where", "compact", expect=2)
    run_cli("census", "--points", "-1", expect=2)
    run_cli("census", "--points", "7", expect=2)


def test_census_out_round_trips(tmp_path):
    out = tmp_path / "spaces.jsonl"
    doc = run_json("census", "--points", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == doc["count"] == 4
    for line in lines:
        space = json.loads(line)
        assert set(space) == {"points", "open_sets"}
        probe = tmp_path / "probe.json"
        probe.write_text(line)
        rep = run_json("validate", str(probe))["report"]
        assert rep["is_gt"] is True and rep["is_strong"] is True


def test_census_refusal_keeps_existing_out_file(tmp_path):
    out = tmp_path / "keep.jsonl"
    out.write_bytes(b"earlier bytes\n")
    proc = run_cli("census", "--points", "6", "--out", str(out), expect=2)
    assert proc.stderr == ("error: census at 6 points exceeds the configured "
                           "maximum 5\n")
    proc = run_cli("census", "--points", "-1", "--out", str(out), expect=2)
    assert proc.stderr == "error: point count must be >= 0, got -1\n"
    assert out.read_bytes() == b"earlier bytes\n"
    missing = tmp_path / "no-such-dir" / "x.jsonl"
    proc = run_cli("census", "--points", "2", "--out", str(missing), expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {missing}: ")


def test_census_count_enumerates_no_space(monkeypatch, capsys):
    from gtopo import spaces

    def refuse(n):
        raise AssertionError(f"enumerated {n}-point spaces")

    monkeypatch.setattr(spaces, "enumerate_strong_gts", refuse)
    monkeypatch.setattr(cli, "enumerate_strong_gts", refuse)
    for n, count in enumerate((1, 1, 4, 45, 2271, 1373701)):
        assert cli.main(["census", "--points", str(n)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == count


def test_census_count_agrees_with_the_streamed_paths(tmp_path):
    out = tmp_path / "spaces.jsonl"
    counted = run_json("census", "--points", "4")["count"]
    streamed = run_json("census", "--points", "4", "--out", str(out))
    assert counted == streamed["count"] == 2271
    assert len(out.read_text().splitlines()) == 2271
    # labeled topologies on 4 points (OEIS A000798)
    assert run_json("census", "--points", "4",
                    "--where", "topology")["count"] == 355


def _census_where(capsys, n, where):
    assert cli.main(["census", "--points", str(n), "--where", where]) == 0
    return json.loads(capsys.readouterr().out)["count"]


def test_census_clopen_properties_count_as_their_deciders(capsys):
    from gtopo.spaces import enumerate_strong_gts, separation_profile
    from gtopo.urysohn import decide_statement, effective_witness, is_u_normal
    deciders = {
        "normal": lambda s: separation_profile(s).normal,
        "ul": lambda s: decide_statement(s, "UL").holds,
        "gul": lambda s: decide_statement(s, "GUL").holds,
        "effectively-normal": lambda s: effective_witness(s) is not None,
        "u-normal": lambda s: is_u_normal(s).all_hold,
    }
    for n in range(5):
        spaces = list(enumerate_strong_gts(n))
        counts = {where: _census_where(capsys, n, where) for where in deciders}
        assert len(set(counts.values())) == 1, (n, counts)
        for where, decide in deciders.items():
            assert counts[where] == sum(map(decide, spaces)), (n, where)


def test_census_clopen_properties_read_only_the_defect(monkeypatch, capsys):
    from gtopo import spaces, urysohn

    def refuse(*args):
        raise AssertionError("census decided a clopen property the long way")

    for owner, name in ((cli, "separation_profile"),
                        (cli, "decide_statement"),
                        (cli, "decide_statements"),
                        (spaces, "separation_profile"),
                        (urysohn, "decide_statement"),
                        (urysohn, "decide_statements")):
        monkeypatch.setattr(owner, name, refuse)
    for where in ("normal", "ul", "gul", "effectively-normal"):
        counts = [_census_where(capsys, n, where) for n in range(5)]
        assert counts == [1, 1, 4, 35, 857], where


def test_reports_are_byte_identical(files):
    f = files("p.json", PARTITION)
    a = run_cli("props", f).stdout
    b = run_cli("props", f).stdout
    assert a == b
    c = run_cli("census", "--points", "3").stdout
    d = run_cli("census", "--points", "3").stdout
    assert c == d


# sha256 of the props reports, concatenated, on every strong GT on at most 3
# points and on sample_strong_gts(5, 40, seed=5151), each read from the
# relative path space.json.
PROPS_DIGEST = ("7409a97635f74fc7462832a0310f07683db3497ad6fb9033d8d4dbd352"
                "0cfbe3")


def test_props_stdout_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    from gtopo.spaces import (enumerate_strong_gts, sample_strong_gts,
                              space_to_dict)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for s in ([s for n in range(4) for s in enumerate_strong_gts(n)]
              + sample_strong_gts(5, 40, seed=5151)):
        (tmp_path / "space.json").write_text(json.dumps(space_to_dict(s)))
        assert cli.main(["props", "space.json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PROPS_DIGEST


def test_timing_goes_to_stderr_only(files):
    f = files("d.json", DIAMOND)
    plain = run_cli("validate", f)
    timed = run_cli("--timing", "validate", f)
    assert timed.stdout == plain.stdout
    assert "elapsed:" in timed.stderr and "elapsed:" not in plain.stderr


def test_real_closure_and_classify():
    doc = run_json("real", "closure", "--set", "(0,1)", "--space", "gtn")
    assert doc["closure"] == "[0,1]"
    doc = run_json("real", "closure", "--set", "(0,1)", "--space", "gts")
    assert doc["closure"] == "[0,1)"
    assert run_json("real", "classify", "--set", "(-inf,3)",
                    "--space", "gtn")["verdict"] == "open"
    assert run_json("real", "classify", "--set", "[0,1)",
                    "--space", "gts")["verdict"] == "closed"
    assert run_json("real", "classify", "--set", "[1,inf)",
                    "--space", "gts")["verdict"] == "clopen"


def test_real_urysohn_report():
    doc = run_json("real", "urysohn", "--a", "[0,1]", "--b", "[2,3]",
                   "--space", "gtn")
    assert doc["witness"] == RAMP_TEXT
    assert doc["continuity"] == {"gtaun": True, "taun": False}
    proc = run_cli("real", "urysohn", "--a", "[0,1)", "--b", "[1,2]",
                   "--space", "gts", expect=2)
    assert "gap" in proc.stderr


def test_real_extend_report():
    doc = run_json("real", "extend", "--p", "[0,2]",
                   "--fn", "on (-inf,inf): 1/2*x+0", "--target", "gtaun")
    assert doc["extension"] == ("on (-inf,0): 0*x+0; at 0: 0; "
                                "on (0,2): 1/2*x+0; at 2: 1; "
                                "on (2,inf): 0*x+1")
    run_cli("real", "extend", "--p", "[0,2]",
            "--fn", "on (-inf,inf): 1/2*x+0", "--target", "taun", expect=2)


def test_real_check_fn_report():
    doc = run_json("real", "check-fn", "--fn", RAMP_TEXT,
                   "--source", "gtn", "--target", "gtaun")
    assert doc["continuous"] is True
    doc = run_json("real", "check-fn", "--fn", RAMP_TEXT,
                   "--source", "gtn", "--target", "taun")
    assert doc["continuous"] is False


def test_real_effective_f_report():
    doc = run_json("real", "effective-f", "--a", "[0,1]", "--b", "[2,3]",
                   "--space", "gtn")
    assert doc["u"] == "(-inf,3/2)" and doc["v"] == "(3/2,inf)"
    doc = run_json("real", "effective-f", "--a", "[1,inf)", "--b", "[0,1/2]",
                   "--space", "gts")
    assert doc["u"] == "[1,inf)" and doc["v"] == "(-inf,1)"


def test_real_effective_f_far_out_pair():
    # beyond the million terms an enumeration scan would have walked
    doc = run_json("real", "effective-f", "--a", "[30,30]", "--b", "[31,31]",
                   "--space", "gtn")
    assert doc["u"] == "(-inf,61/2)" and doc["v"] == "(61/2,inf)"


def test_real_ladder_report():
    doc = run_json("real", "ladder", "--a", "[0,1]", "--b", "[2,3]",
                   "--space", "gtn", "--level", "2")
    assert doc["rungs"] == [{"index": "1/4", "set": "(-inf,4/3)"},
                            {"index": "1/2", "set": "(-inf,3/2)"},
                            {"index": "3/4", "set": "(-inf,5/3)"}]
    run_cli("real", "ladder", "--a", "[0,1]", "--b", "[2,3]",
            "--space", "gtn", "--level", "0", expect=2)
    run_cli("real", "ladder", "--a", "[0,1]", "--b", "[2,3]",
            "--space", "gtn", "--level", "9", expect=2)


def test_real_triple_report():
    doc = run_json("real", "triple", "--fn", RAMP_TEXT)
    assert doc["u"] == "(-inf,5/4)"
    assert doc["v"] == "(4/3,5/3)"
    assert doc["w"] == "(7/4,inf)"
    assert doc["verdicts"] == ["open", "neither", "open"]


def test_expression_errors_carry_positions():
    proc = run_cli("real", "classify", "--set", "[0,1", "--space", "gtn",
                   expect=2)
    assert "(at position" in proc.stderr
    proc = run_cli("real", "check-fn", "--fn", "on (0,1): 2*x+1",
                   "--source", "gtn", "--target", "taun", expect=2)
    assert "(at position" in proc.stderr


def test_argparse_errors_exit_2():
    run_cli(expect=2)
    run_cli("frobnicate", expect=2)
    run_cli("real", "classify", "--set", "[0,1]", "--space", "metric",
            expect=2)


def test_over_long_literals_exit_2(files, tmp_path):
    nines = "9" * 5000
    proc = run_cli("real", "classify", "--set", f"[0,{nines}]",
                   "--space", "gtn", expect=2)
    assert "number too long (5000 digits) (at position 3)" in proc.stderr
    assert "Traceback" not in proc.stderr
    path = tmp_path / "long.json"
    path.write_text('{"points": 2, "open_sets": [[], [' + nines + ']]}')
    proc = run_cli("validate", str(path), expect=2)
    assert "invalid JSON" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli("witness", files("s.json", SIERPINSKI), "--a", f"[{nines}]",
                   "--b", "[1]", "--mode", "gul", expect=2)
    assert "bad point set for --a" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numbers_too_long_to_print_exit_2():
    n = "1" + "0" * 2500                  # parses; n * n has 5001 digits
    proc = run_cli("real", "extend", "--p", f"[0,{n}]",
                   "--fn", f"on (-inf,inf): {n}*x+0", "--target", "gtaun",
                   expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: number too long to print (5001 digits)\n"


def test_float_point_index_exit_2(files):
    doc = {"points": 2, "open_sets": [[], [0.0], [0, 1]]}
    proc = run_cli("validate", files("float.json", doc), expect=2)
    assert "point indices must be integers, got 0.0" in proc.stderr


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cli, "_run_real_classify", broken)
    code = cli.main(["real", "classify", "--set", "[0,1]", "--space", "gtn"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "internal error: ZeroDivisionError: planted\n"


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["census", "--points", "2"]) == 0
    first = len(built)
    assert cli.main(["real", "classify", "--set", "[0,1]",
                     "--space", "gtn"]) == 0
    assert cli.main(["real", "closure", "--set", "(0,1)",
                     "--space", "gts"]) == 0
    capsys.readouterr()
    assert len(built) == first


def _planted_no_extension(args):
    raise NoExtension("planted reason")


# Patched into the fresh process the same way the in-process call patches it.
_PLANTED_SCRIPT = (
    "import sys\n"
    "from gtopo import cli\n"
    "from gtopo.errors import NoExtension\n"
    "def planted(args):\n"
    "    raise NoExtension('planted reason')\n"
    "cli._run_real_triple = planted\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def test_reused_parser_leaks_no_state(files, tmp_path, monkeypatch, capsys):
    """Every verb and every exit path, in-process in one order, again, and
    reversed, each matching a fresh process on stdout, stderr and exit."""
    monkeypatch.setenv("COLUMNS", "80")    # help is wrapped to this width
    diamond, partition = files("d.json", DIAMOND), files("p.json", PARTITION)
    gap = ["--a", "[0,1]", "--b", "[2,3]", "--space", "gtn"]
    calls = [
        (["validate", diamond], 0),
        (["validate", files("n.json", NOT_A_GT)], 0),
        (["props", partition], 0),
        (["props", diamond, "--u-normal-max", "2"], 0),
        (["witness", partition, "--a", "[0,1]", "--b", "[2,3]",
          "--mode", "gul"], 0),
        (["witness", diamond, "--a", "[0]", "--b", "[2]", "--mode", "ul"], 1),
        (["tau", diamond], 0),
        (["product", files("s.json", SIERPINSKI),
          files("i.json", INDISCRETE2)], 0),
        (["census", "--points", "3"], 0),
        (["census", "--points", "3", "--where", "normal",
          "--out", str(tmp_path / "c.jsonl")], 0),
        (["real", "closure", "--set", "(0,1)", "--space", "gts"], 0),
        (["real", "classify", "--set", "[0,1)", "--space", "gts"], 0),
        (["real", "urysohn", *gap], 0),
        (["real", "extend", "--p", "[0,2]", "--fn", "on (-inf,inf): 1/2*x+0",
          "--target", "gtaun"], 0),
        (["real", "check-fn", "--fn", RAMP_TEXT, "--source", "gtn",
          "--target", "taun"], 0),
        (["real", "effective-f", *gap], 0),
        (["real", "ladder", *gap, "--level", "2"], 0),
        (["real", "triple", "--fn", RAMP_TEXT], 0),
        (["--timing", "real", "ladder", *gap, "--level", "3"], 0),
        (["frobnicate"], 2),
        (["real", "classify", "--set", "[0,1]", "--space", "metric"], 2),
        (["props"], 2),
        (["--help"], 0),
        (["real", "ladder", "--help"], 0),
        (["props", partition, "--u-normal-max", "65"], 2),
        (["real", "ladder", *gap, "--level", "9"], 2),
        (["validate", files("many.json", MANY_OPENS)], 2),
        (["real", "classify", "--set", "[0,1", "--space", "gtn"], 2),
        (["real", "triple", "--fn", RAMP_TEXT], 1),    # planted NoExtension
    ]
    planted = len(calls) - 1

    def masked(err):
        return re.sub(r"elapsed: [0-9.]+ ms", "elapsed: _ ms", err)

    env = {**os.environ, "COLUMNS": "80"}
    fresh = []
    for i, (argv, _) in enumerate(calls):
        head = (["-c", _PLANTED_SCRIPT] if i == planted
                else ["-m", "gtopo.cli"])
        proc = subprocess.run([sys.executable, *head, *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.stdout, masked(proc.stderr), proc.returncode))

    order = list(range(len(calls)))
    for i in order + order + order[::-1]:
        argv, expect = calls[i]
        with monkeypatch.context() as m:
            if i == planted:
                m.setattr(cli, "_run_real_triple", _planted_no_extension)
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        out, err = capsys.readouterr()
        assert (out, masked(err), code) == fresh[i], argv
        assert code == expect, argv
