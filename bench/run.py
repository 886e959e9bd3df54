"""Benchmark for gtopo: CLI verbs driven in-process, answers checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Each
query is the argv a user would type after ``gtopo``, passed to
``gtopo.cli.main`` with stdout captured; its report is parsed and checked.
One caller, closed loop: the next query starts when the last one ends.  The
run works through whole rounds (see workloads.py) until the queries have
taken ``--seconds`` of time, then prints a summary and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
queries with spans around the library calls (tracing.py) and reports the
per-layer metrics.  The exit code is 1 when any answer was wrong, 2 when
the sources are missing or the arguments are bad.

Each run is a fresh interpreter, and no input is timed twice in it, so the
package's caches start cold as they do for a CLI user.  ``setup_s`` is the
median, over SETUP_PROBES fresh interpreters started one after another, of
the time from process start to inputs built (import of gtopo included).

Times are reported at a nominal host speed (see HOST_NOMINAL_NS); the
report line before the result keeps the raw figures beside them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5

# Tail percentile per workload: the highest whose rank leaves at least ten
# queries beyond it in a run at this input size.  census has six queries,
# so its tail is the slowest one (census --points 5).
TAIL = {"census": 1.0, "props": 0.99, "ladder": 0.95, "continuity": 0.95}

E2E = (("setup_s", "s"), ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
       ("query_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# The speed of a shared host drifts.  On the 2-vCPU virtual machine this
# benchmark was tuned on, a fixed pure-Python loop ran up to 1.65 times
# slower for spells of a tenth of a second to seconds, and whole runs on
# identical inputs moved by 30%.  So the run times _host_kernel between
# consecutive queries, for about HOST_WINDOW of the last query's time, and
# scales each query's time by HOST_NOMINAL_NS over the mean kernel time on
# either side of it: the metrics read as on that machine at rest, and a
# change to gtopo moves them as it moves raw time.  The window is long
# enough to average over spells after a query of several seconds.
HOST_NOMINAL_NS = 1_400_000   # one kernel run there at rest, CPython 3.11.7
HOST_WINDOW = 0.3


def _host_kernel():
    """Fixed work in the package's style: Fraction arithmetic, tuples, a
    dict, a generator and a sort.  Nothing here depends on gtopo."""
    x = Fraction(1, 3)
    seen = {}
    acc = 0
    for i in range(1, 150):
        x = (x * 7 + Fraction(i, 11)) / 5
        key = (x.numerator % 1009, i & 31)
        seen[key] = seen.get(key, 0) + 1
        acc ^= sum(m for m in range(i & 63) if m & i)
    return sorted(seen.items()), acc


def _host_sample(budget_ns: int = 0) -> tuple[int, int]:
    """(total ns, runs) of kernel runs: at least one, and on until about
    budget_ns.  Call _host_kernel a dozen times first in a process: the
    interpreter specialises its code during the first few calls."""
    total = runs = 0
    while runs == 0 or total < budget_ns:
        t0 = time.perf_counter_ns()
        _host_kernel()
        total += time.perf_counter_ns() - t0
        runs += 1
    return total, runs


def _host_factor(before, after) -> float:
    return HOST_NOMINAL_NS * (before[1] + after[1]) / (before[0] + after[0])


def _die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "gtopo" / "__init__.py").is_file():
        _die(f"no gtopo package under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import gtopo
    if Path(gtopo.__file__).resolve().parent != src / "gtopo":
        _die(f"imported gtopo from {gtopo.__file__}, not from {src}")


@contextlib.contextmanager
def _workdir(name: str):
    """.bench_work/<name> under the repository root, made empty; its path is
    relative to the root, which run() makes the working directory, so the
    reports that echo a file name read the same from any checkout."""
    base = ROOT / ".bench_work"
    path = base / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield str(path.relative_to(ROOT))
    finally:
        shutil.rmtree(path)
        with contextlib.suppress(OSError):
            base.rmdir()


def _probe(args) -> int:
    """Set-up only, in this fresh interpreter; print the monotonic clock."""
    _import_package()
    import gtopo.cli  # noqa: F401  (the import the timed queries need)
    import workloads
    os.chdir(ROOT)
    with _workdir(f"{args.workload}-{args.seed}") as wd:
        next(workloads.build(args.workload, args.seed, wd))
        print(time.monotonic(), flush=True)
    return 0


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Raw set-up times of the probes and the host-speed factor of each,
    from kernel runs just before and after it."""
    out, factors = [], []
    for _ in range(SETUP_PROBES):
        host = _host_sample()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _die(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
        factors.append(_host_factor(
            host, _host_sample(out[-1] * 1e9 * HOST_WINDOW)))
    return out, factors


def _problem(query, code, exc, text):
    """None when the query answered correctly, else a one-line reason."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        return f"exit code {code}"
    try:
        return query.check(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return f"bad report: {type(e).__name__}: {e}"


def run_queries(cli, rounds, seconds, tracer=None, corrupt=None):
    """Closed loop over whole rounds until `seconds` of query time.

    Returns each round's query latencies and host-speed factors.
    `corrupt(query, stdout) -> stdout` lets the self-test plant a wrong
    answer between the query and its check.
    """
    round_lat, round_f, failures, round0 = [], [], [], []
    digest = hashlib.sha256()
    busy_ns, qid, exhausted = 0, 0, True
    host = _host_sample()
    for r, queries in enumerate(rounds):
        if r == 0:
            round0 = queries
        elif busy_ns >= seconds * 1e9:
            exhausted = False
            break
        lat_ns, factors = [], []
        for q in queries:
            if q.prepare is not None:
                q.prepare()
            out, err = io.StringIO(), io.StringIO()
            code = exc = None
            first = tracer.begin(qid, r) if tracer else 0
            t0 = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(q.argv)
            except (Exception, SystemExit) as e:
                exc = e
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.end()
                tracer.root(qid, t0, t1, first)
            lat_ns.append(t1 - t0)
            after = _host_sample((t1 - t0) * HOST_WINDOW)
            factors.append(_host_factor(host, after))
            host = after
            text = out.getvalue()
            if corrupt is not None:
                text = corrupt(q, text)
            why = _problem(q, code, exc, text)
            if why is not None:
                failures.append((q.argv, why, err.getvalue().strip()))
            if r == 0:
                digest.update(text.encode())
            qid += 1
        busy_ns += sum(lat_ns)
        round_lat.append(lat_ns)
        round_f.append(factors)
    return {"round_lat": round_lat, "round_f": round_f, "busy_ns": busy_ns,
            "failures": failures, "round0": round0,
            "digest": digest.hexdigest(), "exhausted": exhausted}


def _timings(round_lat, round_f, p) -> dict:
    """queries_per_s (median over rounds: every round has the same mix of
    query shapes), query_p50_ms and the p-quantile query_tail_ms, with each
    query's time multiplied by its factor."""
    scaled = [[x * f for x, f in zip(lats, fs)]
              for lats, fs in zip(round_lat, round_f)]
    lat = sorted(x / 1e6 for xs in scaled for x in xs)
    rates = [len(xs) / (sum(xs) / 1e9) for xs in scaled]
    return {"queries_per_s": statistics.median(rates),
            "query_p50_ms": statistics.median(lat),
            "query_tail_ms": lat[_tail_rank(len(lat), p) - 1]}


def _short(argv) -> str:
    text = " ".join(a if " " not in a else repr(a) for a in argv)
    return text if len(text) <= 300 else text[:297] + "..."


def _tail_rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-quantile of n samples."""
    return min(n, max(1, math.ceil(p * n)))


def run(args, tiny=False, corrupt=None) -> dict:
    for _ in range(12):
        _host_kernel()
    setups, setup_f = (([], []) if tiny or args.trace
                       else _setup_seconds(args))
    _import_package()
    import gtopo.cli as cli
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    os.chdir(ROOT)
    with _workdir(f"{args.workload}-{args.seed}") as wd:
        rounds = workloads.build(args.workload, args.seed, wd, tiny)
        if tracer:
            tracer.install()
        try:
            res = run_queries(cli, rounds, args.seconds, tracer, corrupt)
        finally:
            if tracer:
                tracer.uninstall()
    n = sum(len(lats) for lats in res["round_lat"])
    p = TAIL[args.workload]
    raw = _timings(res["round_lat"],
                   [[1.0] * len(fs) for fs in res["round_f"]], p)
    factor = statistics.median(f for fs in res["round_f"] for f in fs)
    raw["setup_s"] = statistics.median(setups) if setups else 0.0
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(res["round_lat"]), "pool_exhausted": res["exhausted"],
        "queries": n, "failed": len(res["failures"]),
        "failed_frac": len(res["failures"]) / n,
        "tail_percentile": p * 100,
        "tail_samples_beyond": n - _tail_rank(n, p),
        "raw": raw,
        "host_factor_median": factor,
        "stdout_sha256": res["digest"],
        "digest_queries": len(res["round0"]),
        "setup_probes_s": setups,
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(),
                    "processes": 1, "threads": 1},
    }
    if args.workload == "census":
        report["spaces_per_s"] = (
            sum(workloads.CENSUS_COUNTS[q.data["points"]]
                for q in res["round0"])
            / (res["busy_ns"] / 1e9))
    if args.trace:
        metrics = tracing.per_layer(tracer, res["round0"])
        units = dict(tracing.PER_LAYER)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace_{args.workload}_{args.seed}.jsonl"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
    else:
        metrics = {"setup_s": (statistics.median(
                       x * f for x, f in zip(setups, setup_f))
                       if setups else 0.0),
                   **_timings(res["round_lat"], res["round_f"], p),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(E2E)
    return {"report": report, "failures": res["failures"],
            "result": {"correct": not res["failures"], "attempted": n,
                       "failed": len(res["failures"]),
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TAIL))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return _probe(args)
    out = run(args)
    for argv_, why, err in out["failures"]:
        print(f"FAILED {why}: gtopo {_short(argv_)}"
              + (f" [stderr: {err}]" if err else ""), file=sys.stderr)
    print(json.dumps(out["report"]))
    for name, m in out["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
