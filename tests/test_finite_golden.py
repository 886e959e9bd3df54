"""Golden digest of the finite half's verdicts and witnesses.

A canonical text dump over every strong GT on at most 4 points plus a seeded
sample of 5-point spaces is hashed and compared with a digest recorded from
the exhaustive partition-search implementation.  It pins the separation
profile, the normality defect, chain normality, every statement report with
its pair or counterexample, the UL/GUL witness for every disjoint closed
pair, and the effective witness table, so that any change of verdict,
witness or canonical choice shows up as a digest change.
"""

import hashlib

from gtopo.spaces import enumerate_strong_gts, sample_strong_gts, separation_profile
from gtopo.urysohn import (STATEMENTS, decide_gul_pair, decide_statement,
                           decide_ul_pair, effective_witness, is_u_normal)
from statement_oracle import normality_defect

GOLDEN_SHA256 = "b58e439dfbba65d1c7239f5b2e6faf15f822adbef6c016a05ed785812407a68a"


def _fn(f):
    return None if f is None else ",".join(str(v) for v in f.values)


def _counterexample(ce):
    if ce is None:
        return None
    a, values = ce
    return (a, ",".join(f"{p}:{v}" for p, v in values))


def dump_space(s) -> list[str]:
    prof = separation_profile(s)
    un = is_u_normal(s, 2)
    lines = [f"space {s.n} {list(s.opens)}",
             f"profile {prof.t0} {prof.t1} {prof.t2} {prof.normal}",
             f"defect {normality_defect(s)}",
             f"u_normal {list(un.per_n)} {list(un.blocking)}"]
    for st in STATEMENTS:
        rep = decide_statement(s, st)
        lines.append(f"{st} {rep.holds} {rep.pair} "
                     f"{_counterexample(rep.counterexample)}")
    for a in s.closeds:
        for b in s.closeds:
            if a & b:
                continue
            lines.append(f"pair {a} {b} ul={_fn(decide_ul_pair(s, a, b))} "
                         f"gul={_fn(decide_gul_pair(s, a, b))}")
    w = effective_witness(s)
    lines.append("witness None" if w is None else
                 "witness " + " ".join(f"{a},{b}:{u},{v}" for (a, b), (u, v)
                                       in sorted(w.table.items())))
    return lines


def golden_corpus():
    spaces = [s for n in range(5) for s in enumerate_strong_gts(n)]
    return spaces + sample_strong_gts(5, 300, seed=2718)


def golden_digest() -> str:
    h = hashlib.sha256()
    for s in golden_corpus():
        for line in dump_space(s):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_finite_golden_digest():
    assert golden_digest() == GOLDEN_SHA256
