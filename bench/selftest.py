"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs a tiny untraced and a tiny
traced pass in this process and checks that

* the printed metric names are exactly BENCHMARK.json's end-to-end and
  per-layer lists, and bench/manifest.json describes each of them;
* every answer passes its check;
* a wrong answer planted in one report is counted as one failure, so
  ``failed_frac`` is 1/attempted and ``correct`` is false.

It also runs the benchmark in a directory holding only BENCHMARK.json and
bench/, where it must exit non-zero without printing a result.  Exits 1 and
lists the problems when any check fails.
"""

import json
import shutil
import subprocess
import sys

import run


def _plant(text: str) -> str:
    """The same report with one answer made wrong."""
    doc = json.loads(text)
    verb = doc["verb"]
    if verb == "census":
        doc["count"] += 1
    elif verb == "props":
        doc["statements"]["UL"] = not doc["statements"]["UL"]
    elif verb == "real effective-f":
        doc["u"], doc["v"] = doc["v"], doc["u"]
    elif verb == "real ladder":
        doc["rungs"][0]["set"] = "empty"
    elif verb == "real check-fn":
        doc["continuous"] = not doc["continuous"]
    elif verb == "real extend":
        doc["extension"] = "on (-inf,inf): 0*x+1000"
    elif verb == "real urysohn":
        doc["continuity"]["taun"] = True
    else:
        raise ValueError(f"no planted answer for {verb!r}")
    return json.dumps(doc, indent=2) + "\n"


def _plant_first():
    planted = []

    def corrupt(query, text):
        if planted:
            return text
        planted.append(query)
        return _plant(text)
    return corrupt


def _bare_checkout_fails(problems: list) -> None:
    with run._workdir("bare-checkout") as rel:
        tmp = run.ROOT / rel
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "census",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare checkout: benchmark did not refuse")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((run.BENCH / "manifest.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        if sorted(manifest[section]) != sorted(want[trace]):
            problems.append(f"manifest {section} differs from BENCHMARK.json")
    for w in (w["name"] for w in spec["workloads"]):
        if w not in manifest["workloads"]:
            problems.append(f"{w}: missing from the manifest")
        for trace in (0, 1):
            args = run.parse_args(["--workload", w, "--seconds", "0",
                                   "--trace", str(trace)])
            res = run.run(args, tiny=True)["result"]
            if list(res["metrics"]) != want[trace]:
                problems.append(f"{w} trace={trace}: metric names "
                                f"{list(res['metrics'])}")
            if res["failed"]:
                problems.append(f"{w} trace={trace}: {res['failed']} failed")
        args = run.parse_args(["--workload", w, "--seconds", "0"])
        out = run.run(args, tiny=True, corrupt=_plant_first())
        res, rep = out["result"], out["report"]
        if (res["failed"] != 1 or res["correct"]
                or rep["failed_frac"] != 1 / res["attempted"]):
            problems.append(f"{w}: planted wrong answer counted as "
                            f"{res['failed']} failures")
    _bare_checkout_fails(problems)
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
