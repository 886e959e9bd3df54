"""Direct continuity oracles, independent of the library's shortcuts.

Finite spaces: an oracle for finite-range functions, independent of the
library's fiber/prefix criteria.

Continuity into the interval topology is checked by pulling back every open
interval with endpoints among the attained values, their midpoints, and
sentinels beyond the range; continuity into the ray-generated GT by pulling
back every ray anchored at those parameters.  Preimages are computed from
raw values, never through the library's fiber shortcut, so this file can
arbitrate it.

The real line: classical continuity, and exhaustive window sweeps and a
trace decider for check_continuity_sym and tietze_extend, using only the
public API.
"""

from fractions import Fraction

from gtopo.errors import PreconditionError
from gtopo.pwmaps import constant_map, make_pwmap
from gtopo.realline import classify
from gtopo.symsets import Interval, make_set


def _parameters(values) -> list[Fraction]:
    vs = sorted(set(values))
    if not vs:
        return [Fraction(0)]
    params = [vs[0] - 1]
    for lo, hi in zip(vs, vs[1:]):
        params.append(lo)
        params.append((lo + hi) / 2)
    params.append(vs[-1])
    params.append(vs[-1] + 1)
    return params


def _preimage(values, pred) -> int:
    m = 0
    for point, v in enumerate(values):
        if pred(v):
            m |= 1 << point
    return m


def oracle_continuous_taun(values, opens) -> bool:
    """Every open-interval preimage must be open."""
    params = _parameters(values)
    members = set(opens)
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            if _preimage(values, lambda v: p < v < q) not in members:
                return False
    return True


def oracle_continuous_gtaun(values, opens) -> bool:
    """Every ray preimage (both directions, and their unions) must be open."""
    params = _parameters(values)
    members = set(opens)
    for c in params:
        if _preimage(values, lambda v: v < c) not in members:
            return False
        if _preimage(values, lambda v: v > c) not in members:
            return False
    for c in params:
        for d in params:
            if c < d:
                ray_pair = _preimage(values, lambda v: v < c or v > d)
                if ray_pair not in members:
                    return False
    return True


# --- the real line ----------------------------------------------------------
#
# check_continuity_sym and tietze_extend decided the long way: every window
# between probe parameters (two representatives per region between critical
# values), and Tietze continuity on the trace GT of the closed domain itself.


def is_continuous_everywhere(f) -> bool:
    """Classical continuity: each breakpoint value matches both side limits."""
    for i, b in enumerate(f.breakpoints):
        ml, tl = f.pieces[i]
        mr, tr = f.pieces[i + 1]
        if ml * b + tl != f.values[i] or mr * b + tr != f.values[i]:
            return False
    return True


def _open_in(s, space) -> bool:
    return classify(s, space) in ("open", "clopen")


def sweep_probe_values(f, extra=()) -> list[Fraction]:
    """Critical values plus two representatives inside every induced region."""
    crit = sorted(set(f.criticals()) | set(extra))
    if not crit:
        return [Fraction(0), Fraction(1)]
    out = [crit[0] - 2, crit[0] - 1]
    for c1, c2 in zip(crit, crit[1:]):
        step = (c2 - c1) / 4
        out.extend([c1, c1 + step, c1 + 2 * step])
    out.extend([crit[-1], crit[-1] + 1, crit[-1] + 2])
    return out


def sweep_windows(params, target):
    """Rays at every parameter (gtaun), or every window between two (taun)."""
    if target == "gtaun":
        for q in params:
            yield None, q
            yield q, None
    else:
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                yield p, q


def sweep_continuous(f, source: str, target: str) -> bool:
    """Every swept window pulls back to an open set of the source."""
    return all(_open_in(f.preimage_open(lo, hi), source)
               for lo, hi in sweep_windows(sweep_probe_values(f), target))


def _anchored_extension(t, p):
    """Candidate gtn-open whose trace on p could be t (verified by caller)."""
    P = p.components[0]
    rays = []
    for c in t.components:
        left = c.lo == P.lo and c.lo_closed == P.lo_closed
        right = c.hi == P.hi and c.hi_closed == P.hi_closed
        if left and c.hi is not None:
            rays.append(Interval(None, c.hi, False, False))
        elif right and c.lo is not None:
            rays.append(Interval(c.lo, None, False, False))
        else:
            return None
    return make_set(rays)


def is_trace_open(t, p) -> bool:
    """Is t the trace on p of some gtn-open set?"""
    if t.is_empty or t == p:
        return True
    u = _anchored_extension(t, p)
    return u is not None and u.intersection(p) == t


def trace_continuous(p, f, target: str) -> bool:
    """Continuity of f from the trace GT on p into the chosen target.

    The probe set is widened by f's values at p's finite endpoints: the trace
    shape can also change when a preimage boundary crosses an end of p.
    """
    ends = [e for e in (p.components[0].lo, p.components[0].hi)
            if e is not None]
    params = sweep_probe_values(f, extra=[f.value_at(e) for e in ends])
    return all(is_trace_open(f.preimage_open(lo, hi).intersection(p), p)
               for lo, hi in sweep_windows(params, target))


def _affine_through(f, lo, hi):
    """(slope, intercept) of f on the open gap (lo, hi), from two samples."""
    if lo is None:
        x1, x2 = hi - 2, hi - 1
    elif hi is None:
        x1, x2 = lo + 1, lo + 2
    else:
        x1, x2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
    m = (f.value_at(x2) - f.value_at(x1)) / (x2 - x1)
    return m, f.value_at(x1) - m * x1


def frozen_extension(p, f):
    """f on the closed interval p, constant at f's end values beyond it."""
    c = p.components[0]
    bps = sorted({e for e in (c.lo, c.hi) if e is not None}
                 | {b for b in f.breakpoints if p.contains(b)})
    anchors = [None] + bps + [None]
    pieces = []
    for lo, hi in zip(anchors, anchors[1:]):
        if lo is None and c.lo is not None:
            pieces.append((0, f.value_at(c.lo)))
        elif hi is None and c.hi is not None:
            pieces.append((0, f.value_at(c.hi)))
        else:
            pieces.append(_affine_through(f, lo, hi))
    return make_pwmap(bps, pieces, [f.value_at(b) for b in bps])


def trace_extend(p, f, target: str):
    """tietze_extend decided on the trace GT of p: the frozen extension, or
    PreconditionError with tietze_extend's message."""
    if classify(p, "gtn") not in ("closed", "clopen"):
        raise PreconditionError("p is not closed in gtn")
    if p.is_empty or p.is_all:
        raise PreconditionError("p must be a proper nonempty closed set")
    if p.components[0].is_singleton:
        return constant_map(f.value_at(p.components[0].lo))
    if not trace_continuous(p, f, target):
        raise PreconditionError(
            f"f is not {target}-continuous on the subspace p")
    return frozen_extension(p, f)
