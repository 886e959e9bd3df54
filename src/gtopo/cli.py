"""Command-line front end for the finite and symbolic decision procedures.

Every verb prints one JSON report on stdout, byte-identical across runs for
identical inputs and flags.  Exit codes: 0 when the question was decided or
the object constructed, 1 when a verb that promises a witness decides the
answer is negative, 2 for malformed input (files, expressions, point sets),
violated preconditions and refused work, and 3 for an unexpected internal
error (never 1, so a crash cannot pass for a negative answer).  ``--timing``
writes elapsed wall time to stderr so stdout stays reproducible.

``main(argv)`` may be called any number of times in one process.  The
parser is built on the first call and reused; each verb's handler is looked
up by name at dispatch, so a handler monkeypatched on this module takes
effect.

Finite spaces travel as JSON documents {"points": n, "open_sets": [[...]]}
with integer point indices; ``census --out`` emits one such document per
line.  Symbolic sets and piecewise maps use the text grammars from the
expressions module.  Rationals are rendered "p/q" everywhere.
"""

import argparse
import functools
import json
import sys
import time

from .errors import (TARGETS, InputError, NoExtension, PreconditionError,
                     ResourceError)
from .expressions import (format_map, format_rational, format_set, parse_map,
                          parse_set)
from .realline import (SPACES, check_continuity_sym, classify, closure_sym,
                       disjoint_open_triple, effective_F, gul_witness,
                       ladder_from_F, tietze_extend)
from .spaces import (census_count, check_census_points, enumerate_strong_gts,
                     generated_topology, make_space, mask_from_points,
                     parse_space_dict, points_from_mask, product,
                     separation_profile, space_to_dict, validate_gt)
# No handler calls effective_witness (props reads the cached defect), but
# bench/tracing.py wraps it by its name on this module.
from .urysohn import (STATEMENTS, check_extension_size, check_u_normal_length,
                      decide_gul_pair, decide_statement, decide_statements,
                      decide_ul_pair, effective_witness, is_u_normal)


def fmt_q(v) -> str:
    return f"{format_rational(v.numerator)}/{format_rational(v.denominator)}"


def _load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    except ValueError as e:     # malformed JSON or an over-long integer
        raise InputError(f"invalid JSON in {path}: {e}") from None


def _space_from_file(path: str):
    n, masks = parse_space_dict(_load_doc(path))
    return make_space(n, masks)


def _parse_point_set(text: str, n: int, what: str) -> int:
    try:
        doc = json.loads(text)
    except ValueError as e:     # malformed JSON or an over-long integer
        raise InputError(f"bad point set for {what}: {e}") from None
    if not isinstance(doc, list):
        raise InputError(f"point set for {what} must be a JSON list")
    return mask_from_points(doc, n)


# ------------------------------------------------------------ finite verbs

def _run_validate(args):
    n, masks = parse_space_dict(_load_doc(args.file))
    rep = validate_gt(masks, n)
    doc = {"verb": "validate",
           "input": {"file": args.file, "points": n,
                     "open_sets": [points_from_mask(m) for m in rep.family]},
           "report": {"is_gt": rep.is_gt, "is_strong": rep.is_strong,
                      "is_topology": rep.is_topology,
                      "violation": rep.violation}}
    return doc, 0


def _run_props(args):
    check_u_normal_length(args.u_normal_max)
    n, masks = parse_space_dict(_load_doc(args.file))
    check_extension_size(n)     # refuse by size before validating
    space = make_space(n, masks)
    prof = separation_profile(space)
    un = is_u_normal(space, args.u_normal_max)
    doc = {"verb": "props",
           "input": {"file": args.file, **space_to_dict(space)},
           "profile": {"t0": prof.t0, "t1": prof.t1, "t2": prof.t2,
                       "normal": prof.normal},
           "statements": {rep.statement: rep.holds
                          for rep in decide_statements(space, STATEMENTS)},
           # a witness table exists exactly when there is no clopen defect
           "effectively_normal": space.defect is None,
           "u_normal": {"n_max": un.n_max, "per_n": list(un.per_n),
                        "holds": un.all_hold}}
    return doc, 0


def _run_witness(args):
    space = _space_from_file(args.file)
    a = _parse_point_set(args.a, space.n, "--a")
    b = _parse_point_set(args.b, space.n, "--b")
    decide = decide_ul_pair if args.mode == "ul" else decide_gul_pair
    f = decide(space, a, b)
    doc = {"verb": "witness",
           "input": {"file": args.file, **space_to_dict(space),
                     "a": points_from_mask(a), "b": points_from_mask(b),
                     "mode": args.mode}}
    if f is None:
        doc.update(found=False, witness=None)
        return doc, 1
    doc.update(found=True,
               witness={"pair": [points_from_mask(a), points_from_mask(b)],
                        "function": {str(p): fmt_q(v)
                                     for p, v in enumerate(f.values)}})
    return doc, 0


def _run_tau(args):
    space = _space_from_file(args.file)
    doc = {"verb": "tau",
           "input": {"file": args.file, **space_to_dict(space)},
           "topology": space_to_dict(generated_topology(space))}
    return doc, 0


def _run_product(args):
    s1 = _space_from_file(args.file1)
    s2 = _space_from_file(args.file2)
    doc = {"verb": "product",
           "inputs": [{"file": args.file1, **space_to_dict(s1)},
                      {"file": args.file2, **space_to_dict(s2)}],
           "product": space_to_dict(product(s1, s2))}
    return doc, 0


def _no_defect(s) -> bool:
    """Normal, UL, GUL and effectively normal: each is clopen separation."""
    return s.defect is None


_CENSUS_PROPS = {
    "topology": lambda s: s.is_topology,
    "t0": lambda s: separation_profile(s).t0,
    "t1": lambda s: separation_profile(s).t1,
    "t2": lambda s: separation_profile(s).t2,
    "normal": _no_defect,
    "ul": _no_defect,
    "gul": _no_defect,
    "tet": lambda s: decide_statement(s, "TET").holds,
    "gtet": lambda s: decide_statement(s, "GTET").holds,
    "effectively-normal": _no_defect,
    "u-normal": lambda s: is_u_normal(s).all_hold,
}


def _run_census(args):
    """A bare count takes census_count, which enumerates no n-point space;
    --where and --out stream the labeled DFS.  The size is refused before
    the --out file is opened, so a refusal leaves that file as it was."""
    pred = None
    if args.where is not None:
        try:
            pred = _CENSUS_PROPS[args.where]
        except KeyError:
            raise InputError(f"unknown census property {args.where!r}; "
                             f"choose from {', '.join(sorted(_CENSUS_PROPS))}"
                             ) from None
    if pred is None and args.out is None:
        count = census_count(args.points)
    else:
        count = _stream_census(args.points, pred, args.out)
    doc = {"verb": "census", "points": args.points, "where": args.where,
           "count": count, "out": args.out}
    return doc, 0


def _stream_census(n, pred, out) -> int:
    check_census_points(n)
    sink = None
    if out is not None:
        try:
            sink = open(out, "w", encoding="utf-8")
        except OSError as e:
            raise InputError(f"cannot write {out}: "
                             f"{e.strerror or e}") from None
    count = 0
    try:
        for s in enumerate_strong_gts(n):
            if pred is not None and not pred(s):
                continue
            count += 1
            if sink is not None:
                sink.write(json.dumps(space_to_dict(s),
                                      separators=(",", ":")) + "\n")
    finally:
        if sink is not None:
            sink.close()
    return count


# -------------------------------------------------------------- real verbs

def _run_real_closure(args):
    s = parse_set(args.set)
    doc = {"verb": "real closure",
           "input": {"set": args.set, "space": args.space},
           "closure": format_set(closure_sym(s, args.space))}
    return doc, 0


def _run_real_classify(args):
    s = parse_set(args.set)
    doc = {"verb": "real classify",
           "input": {"set": args.set, "space": args.space},
           "verdict": classify(s, args.space)}
    return doc, 0


def _run_real_urysohn(args):
    f = gul_witness(parse_set(args.a), parse_set(args.b), args.space)
    doc = {"verb": "real urysohn",
           "input": {"a": args.a, "b": args.b, "space": args.space},
           "witness": format_map(f),
           "continuity": {t: check_continuity_sym(f, args.space, t)
                          for t in ("gtaun", "taun")}}
    return doc, 0


def _run_real_extend(args):
    ext = tietze_extend(parse_set(args.p), parse_map(args.fn), args.target)
    doc = {"verb": "real extend",
           "input": {"p": args.p, "fn": args.fn, "target": args.target},
           "extension": format_map(ext)}
    return doc, 0


def _run_real_check_fn(args):
    f = parse_map(args.fn)
    doc = {"verb": "real check-fn",
           "input": {"fn": args.fn, "source": args.source,
                     "target": args.target},
           "continuous": check_continuity_sym(f, args.source, args.target)}
    return doc, 0


def _run_real_effective_f(args):
    w = effective_F(parse_set(args.a), parse_set(args.b), args.space)
    doc = {"verb": "real effective-f",
           "input": {"a": args.a, "b": args.b, "space": args.space},
           "u": format_set(w.u), "v": format_set(w.v)}
    return doc, 0


def _run_real_ladder(args):
    lad = ladder_from_F(parse_set(args.a), parse_set(args.b),
                        args.space, args.level)
    doc = {"verb": "real ladder",
           "input": {"a": args.a, "b": args.b, "space": args.space,
                     "level": args.level},
           "rungs": [{"index": fmt_q(r), "set": format_set(s)}
                     for r, s in lad.entries]}
    return doc, 0


def _run_real_triple(args):
    t = disjoint_open_triple(parse_map(args.fn))
    doc = {"verb": "real triple",
           "input": {"fn": args.fn},
           "u": format_set(t.u), "v": format_set(t.v), "w": format_set(t.w),
           "verdicts": list(t.verdicts)}
    return doc, 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    """The gtopo argument parser.  Each verb's parser carries the name of
    its handler, not the function, as ``handler``."""
    ap = argparse.ArgumentParser(
        prog="gtopo",
        description="Decision procedures and symbolic constructions for "
                    "separation properties of generalized topological spaces.")
    ap.add_argument("--timing", action="store_true",
                    help="write elapsed wall time to stderr")
    sub = ap.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("validate", help="check the GT axioms of a space file")
    p.add_argument("file")
    p.set_defaults(handler="_run_validate")

    p = sub.add_parser("props", help="full property report for a space file")
    p.add_argument("file")
    p.add_argument("--u-normal-max", type=int, default=3, metavar="K",
                   help="check U-normality chain lengths up to K (default 3)")
    p.set_defaults(handler="_run_props")

    p = sub.add_parser("witness",
                       help="separating function for a disjoint closed pair")
    p.add_argument("file")
    p.add_argument("--a", required=True, metavar="POINTS",
                   help='first closed set as a JSON list, e.g. "[0,1]"')
    p.add_argument("--b", required=True, metavar="POINTS",
                   help='second closed set as a JSON list, e.g. "[2]"')
    p.add_argument("--mode", required=True, choices=("ul", "gul"))
    p.set_defaults(handler="_run_witness")

    p = sub.add_parser("tau", help="topology generated by the space's opens")
    p.add_argument("file")
    p.set_defaults(handler="_run_tau")

    p = sub.add_parser("product", help="product of two strong spaces")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(handler="_run_product")

    p = sub.add_parser("census",
                       help="enumerate all strong GTs on n labeled points")
    p.add_argument("--points", type=int, required=True, metavar="N")
    p.add_argument("--where", metavar="PROP",
                   help="count only spaces with this property "
                        f"({', '.join(sorted(_CENSUS_PROPS))})")
    p.add_argument("--out", metavar="FILE",
                   help="also write the spaces, one JSON document per line")
    p.set_defaults(handler="_run_census")

    real = sub.add_parser("real", help="symbolic real-line operations")
    rsub = real.add_subparsers(dest="subverb", required=True,
                               metavar="subverb")

    def real_parser(name, handler, help):
        rp = rsub.add_parser(name, help=help)
        rp.set_defaults(handler=handler)
        return rp

    rp = real_parser("closure", "_run_real_closure",
                     "closure of a symbolic set")
    rp.add_argument("--set", required=True, metavar="EXPR")
    rp.add_argument("--space", required=True, choices=SPACES)

    rp = real_parser("classify", "_run_real_classify",
                     "open/closed/clopen/neither verdict for a symbolic set")
    rp.add_argument("--set", required=True, metavar="EXPR")
    rp.add_argument("--space", required=True, choices=SPACES)

    rp = real_parser("urysohn", "_run_real_urysohn",
                     "separating ramp for a disjoint closed pair with a gap")
    rp.add_argument("--a", required=True, metavar="EXPR")
    rp.add_argument("--b", required=True, metavar="EXPR")
    rp.add_argument("--space", required=True, choices=SPACES)

    rp = real_parser("extend", "_run_real_extend",
                     "extend a function from a closed set to the whole line")
    rp.add_argument("--p", required=True, metavar="EXPR")
    rp.add_argument("--fn", required=True, metavar="MAP")
    rp.add_argument("--target", required=True, choices=TARGETS)

    rp = real_parser("check-fn", "_run_real_check_fn",
                     "continuity verdict for a piecewise map")
    rp.add_argument("--fn", required=True, metavar="MAP")
    rp.add_argument("--source", required=True, choices=SPACES)
    rp.add_argument("--target", required=True, choices=TARGETS)

    rp = real_parser("effective-f", "_run_real_effective_f",
                     "canonical disjoint open pair covering a closed pair")
    rp.add_argument("--a", required=True, metavar="EXPR")
    rp.add_argument("--b", required=True, metavar="EXPR")
    rp.add_argument("--space", required=True, choices=SPACES)

    rp = real_parser("ladder", "_run_real_ladder",
                     "dyadic ladder of separating opens")
    rp.add_argument("--a", required=True, metavar="EXPR")
    rp.add_argument("--b", required=True, metavar="EXPR")
    rp.add_argument("--space", required=True, choices=SPACES)
    rp.add_argument("--level", type=int, required=True, metavar="K")

    rp = real_parser("triple", "_run_real_triple",
                     "three disjoint preimage windows with verdicts")
    rp.add_argument("--fn", required=True, metavar="MAP")

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's result, built on the first call in a process and
    shared by every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        doc, code = globals()[args.handler](args)
    except NoExtension as e:
        print(f"no extension: {e.reason}", file=sys.stderr)
        return 1
    except (InputError, PreconditionError, ResourceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    if args.timing:
        ms = (time.perf_counter() - start) * 1000.0
        print(f"elapsed: {ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
