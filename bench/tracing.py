"""Spans around gtopo's layer boundaries, recorded from outside the package.

The traced run replaces, for its own process only, the library names that
the ``gtopo.cli`` verb handlers call with wrappers that open a span, call
the original and close the span; ``cli.main`` itself is the root span of
each query.  A span is ``[query, name, start_ns, end_ns, parent, items]``;
spans stay in memory and are written out as JSON lines when the run ends.
Self time is a span's duration minus its children's.

Hot inner calls (set algebra, preimages) are too frequent for spans.  For
those the traced run keeps the arguments of a few calls per query and times
batches of the same public calls afterwards, on the workload's own data.
"""

import functools
import json
import statistics
import time
from collections import defaultdict

import gtopo.cli as cli
import gtopo.expressions as expressions
import gtopo.pwmaps as pwmaps
import gtopo.realline as realline
import gtopo.symsets as symsets
from gtopo.rationals import enum_all_rationals
from workloads import disjoint_closed_pairs

# Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("spaces.enum_spaces_per_s", "1/s"), ("spaces.load_ms", "ms"),
    ("spaces.profile_ms", "ms"), ("urysohn.ul_ms", "ms"),
    ("urysohn.gul_ms", "ms"), ("urysohn.tet_ms", "ms"),
    ("urysohn.gtet_ms", "ms"), ("urysohn.effective_witness_ms", "ms"),
    ("urysohn.u_normal_ms", "ms"), ("urysohn.gtet_share", "frac"),
    ("urysohn.pairs", "count"), ("realline.effective_F_ms", "ms"),
    ("realline.ladder_ms_per_rung", "ms"),
    ("rationals.scan_depth_p50", "count"),
    ("rationals.scan_depth_max", "count"), ("symsets.issubset_us", "us"),
    ("symsets.make_set_us", "us"), ("pwmaps.preimage_open_us", "us"),
    ("pwmaps.criticals", "count"), ("realline.check_gtaun_ms", "ms"),
    ("realline.check_taun_ms", "ms"), ("realline.extend_ms", "ms"),
    ("expressions.parse_ms", "ms"), ("expressions.format_ms", "ms"),
    ("cli.overhead_ms", "ms"), ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

# Spans: library names the cli handlers call -> span name (or a function of
# the call's arguments).
_CLI_SPANS = {
    "parse_space_dict": "spaces.load", "make_space": "spaces.load",
    "space_to_dict": "spaces.space_to_dict",
    "separation_profile": "spaces.profile",
    "decide_statement": lambda a: "urysohn." + a[1].lower(),
    "effective_witness": "urysohn.effective_witness",
    "is_u_normal": "urysohn.u_normal",
    "parse_set": "expressions.parse", "parse_map": "expressions.parse",
    "format_set": "expressions.format", "format_map": "expressions.format",
    "effective_F": "realline.effective_F",
    "ladder_from_F": "realline.ladder",
    "check_continuity_sym": lambda a: "realline.check_" + a[2],
    "tietze_extend": "realline.extend",
    "gul_witness": "realline.urysohn",
}
# Captured calls, batch-timed after the run: (owner, attribute, metric).
_CAPTURES = ((symsets.SymbolicSet, "issubset", "symsets.issubset_us"),
             (pwmaps, "make_set", "symsets.make_set_us"),
             (expressions, "make_set", "symsets.make_set_us"),
             (realline, "make_set", "symsets.make_set_us"),
             (pwmaps.PiecewiseMap, "preimage_open",
              "pwmaps.preimage_open_us"))
_CAPTURE_LIMIT = 4000   # per metric, to bound the batch-timing phase


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = None          # current query id, None between queries
        self.round = None
        self.captured = defaultdict(list)
        self._seen = defaultdict(int)   # calls per capture in this query
        self.capture_calls = 0
        self.items = 0
        self.scans = []            # (lower, upper, space, witness), round 0
        self._undo = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.query, name, time.perf_counter_ns(), 0,
                           parent, 0])
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter_ns()
        self.stack.pop()

    def root(self, query: int, start_ns: int, end_ns: int,
             children_from: int) -> None:
        """Record cli.main as the root of the spans opened since
        children_from, which were opened with no parent."""
        i = len(self.spans)
        self.spans.append([query, "cli.main", start_ns, end_ns, None, 0])
        for s in self.spans[children_from:i]:
            if s[4] is None:
                s[4] = i

    def begin(self, query: int, rnd: int) -> int:
        self.query, self.round = query, rnd
        self._seen.clear()
        return len(self.spans)

    def end(self) -> None:
        self.query = None

    def _span(self, orig, name, on_call=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = self._open(name(args) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(i)
            if on_call is not None:
                on_call(i, args, result)
            return result
        return wrapper

    def _gen_span(self, orig, name):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            n = 0
            try:
                for x in orig(*args, **kwargs):
                    n += 1
                    yield x
            finally:
                self.spans[i][5] = n
                self.items += n
                self._close(i)
        return wrapper

    def _capture(self, orig, metric):
        @functools.wraps(orig)
        def wrapper(*args):
            if self.query is not None:
                self.capture_calls += 1
                k = self._seen[metric] = self._seen[metric] + 1
                # calls 1, 2, 4, 8, ... of each query: spread over its life
                if (k & (k - 1) == 0
                        and len(self.captured[metric]) < _CAPTURE_LIMIT):
                    self.captured[metric].append(args)
            return orig(*args)
        return wrapper

    # ------------------------------------------------------- installation

    def _patch(self, owner, attr, wrapper_of):
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper_of(orig))

    def install(self) -> None:
        for attr, name in _CLI_SPANS.items():
            hook = {"ladder_from_F": self._count_rungs,
                    "effective_F": self._record_scan}.get(attr)
            self._patch(cli, attr,
                        lambda f, n=name, h=hook: self._span(f, n, h))
        self._patch(cli, "enumerate_strong_gts",
                    lambda f: self._gen_span(f, "spaces.enumerate"))
        # ladder_from_F calls effective_F through the realline module
        self._patch(realline, "effective_F",
                    lambda f: self._span(f, "realline.effective_F",
                                         self._record_scan))
        for owner, attr, metric in _CAPTURES:
            self._patch(owner, attr, lambda f, m=metric: self._capture(f, m))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _count_rungs(self, i, args, result):
        self.spans[i][5] = len(result.entries)

    def _record_scan(self, i, args, result):
        if self.round == 0:
            self.scans.append((*args[:3], result))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ----------------------------------------------------------------- metrics

def _split_point(lower, upper, space, w):
    """The rational split point effective_F chose, or None when the pair
    needed no scan (an empty member in gtn, an open member in gts)."""
    if space == "gtn" and (lower.is_empty or upper.is_empty):
        return None
    if space == "gts" and any(realline.classify(s, "gts") in ("open", "clopen")
                              for s in (lower, upper)):
        return None
    ends = {e for c in w.u.components + w.v.components
            for e in (c.lo, c.hi) if e is not None}
    (q,) = ends
    return q


class _Index:
    """Positions in the fixed enumeration of Q that effective_F scans."""

    def __init__(self):
        self._it = enum_all_rationals()
        self._pos = {}

    def of(self, q) -> int:
        while q not in self._pos:
            self._pos[next(self._it)] = len(self._pos)
        return self._pos[q]


def _batch_us(calls, fn_of) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    if not calls:
        return 0.0
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for args in calls:
            fn_of(args)
        per_call.append((time.perf_counter_ns() - t0) / len(calls) / 1e3)
    return statistics.median(per_call)


def calibrate(n: int = 20000) -> tuple[float, float, float]:
    """Cost in ns of one span, one non-keeping capture and one generator
    item, measured against the bare call."""
    t = Tracer()

    def noop(*a):
        return None

    def bare_gen():
        yield from range(n)

    def timed(fn):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn(1)
        return time.perf_counter_ns() - t0

    span, cap = t._span(noop, "x"), t._capture(noop, "x")
    t.query = 0
    t._seen["x"] = 3          # past a power of two: the non-keeping path
    base = timed(noop)
    c_span = max(0.0, (timed(span) - base) / n)
    c_cap = max(0.0, (timed(cap) - base) / n)
    t0 = time.perf_counter_ns()
    for _ in bare_gen():
        pass
    t1 = time.perf_counter_ns()
    for _ in t._gen_span(bare_gen, "x")():
        pass
    t2 = time.perf_counter_ns()
    c_item = max(0.0, ((t2 - t1) - (t1 - t0)) / n)
    return c_span, c_cap, c_item


def per_layer(tracer: Tracer, round0: list) -> dict:
    """Per-layer metrics from the spans, the captures and the round-0
    inputs (exact counts)."""
    total = defaultdict(int)
    count = defaultdict(int)
    items = defaultdict(int)
    roots = [s for s in tracer.spans if s[1] == "cli.main"]
    root_ns = sum(s[3] - s[2] for s in roots)
    child_ns = 0
    for s in tracer.spans:
        d = s[3] - s[2]
        total[s[1]] += d
        count[s[1]] += 1
        items[s[1]] += s[5]
        if s[4] is not None and tracer.spans[s[4]][1] == "cli.main":
            child_ns += d
    nq = max(1, len(roots))

    def per_query_ms(*names):
        return sum(total[n] for n in names) / nq / 1e6

    def per_call_ms(name):
        return total[name] / count[name] / 1e6 if count[name] else 0.0

    m = {}
    m["spaces.enum_spaces_per_s"] = (
        items["spaces.enumerate"] / (total["spaces.enumerate"] / 1e9)
        if total["spaces.enumerate"] else 0.0)
    m["spaces.load_ms"] = per_query_ms("spaces.load")
    m["spaces.profile_ms"] = per_query_ms("spaces.profile")
    for st in ("ul", "gul", "tet", "gtet", "effective_witness", "u_normal"):
        m[f"urysohn.{st}_ms"] = per_query_ms(f"urysohn.{st}")
    m["urysohn.gtet_share"] = total["urysohn.gtet"] / root_ns if root_ns else 0.0
    m["urysohn.pairs"] = sum(disjoint_closed_pairs(q.data["space"])
                             for q in round0 if "space" in q.data)
    m["realline.effective_F_ms"] = per_call_ms("realline.effective_F")
    m["realline.ladder_ms_per_rung"] = (
        total["realline.ladder"] / items["realline.ladder"] / 1e6
        if items["realline.ladder"] else 0.0)

    index = _Index()
    depths = sorted(index.of(q) for q in
                    (_split_point(*call) for call in tracer.scans)
                    if q is not None)
    m["rationals.scan_depth_p50"] = (statistics.median_low(depths)
                                     if depths else 0)
    m["rationals.scan_depth_max"] = depths[-1] if depths else 0

    cap = tracer.captured
    m["symsets.issubset_us"] = _batch_us(
        cap["symsets.issubset_us"], lambda a: a[0].issubset(a[1]))
    m["symsets.make_set_us"] = _batch_us(
        cap["symsets.make_set_us"], lambda a: symsets.make_set(a[0]))
    m["pwmaps.preimage_open_us"] = _batch_us(
        cap["pwmaps.preimage_open_us"], lambda a: a[0].preimage_open(*a[1:]))
    m["pwmaps.criticals"] = sum(len(q.data["map"].criticals())
                                for q in round0 if "map" in q.data)

    m["realline.check_gtaun_ms"] = per_call_ms("realline.check_gtaun")
    m["realline.check_taun_ms"] = per_call_ms("realline.check_taun")
    m["realline.extend_ms"] = per_call_ms("realline.extend")
    m["expressions.parse_ms"] = per_query_ms("expressions.parse")
    m["expressions.format_ms"] = per_query_ms("expressions.format")
    m["cli.overhead_ms"] = (root_ns - child_ns) / nq / 1e6
    m["trace.coverage_frac"] = child_ns / root_ns if root_ns else 0.0

    c_span, c_cap, c_item = calibrate()
    n_spans = len(tracer.spans) - len(roots)
    over_ns = (n_spans * c_span + tracer.capture_calls * c_cap
               + tracer.items * c_item)
    m["trace.overhead_frac"] = (over_ns / (root_ns - over_ns)
                                if root_ns > over_ns else 0.0)
    return {name: m[name] for name, _ in PER_LAYER}
