"""Exhaustive chain-family search for chain normality.

This is how chain normality was decided before the clopen kernel: for each
nonempty disjoint closed pair, search every family of n+1 nested open-closed
pairs depth-first and check the chain clauses, clause (iii) at every
position by its own search for an auxiliary pair.  Nothing here asks which
sets are clopen, and no position is settled in closed form, so the facts
`gtopo.urysohn` relies on (a one-pair family needs U_0 = F_0, the end
positions always pass, and a pair without a clopen separator needs 2n+5
points) are checked rather than assumed.
"""

from typing import Optional

from gtopo.urysohn import CheckReport, UNormalReport


def aux_pair_ok(space, us, fs, i) -> bool:
    """Clause (iii) at position i: an open u and a closed f with u <= f,
    above F_i unless i is the first position, below U_{i+1} at a middle
    position and below U_0 at the first, whose differences against the
    family are open."""
    last = len(us) - 1
    for u in space.opens:
        if i == last and fs[last] & ~u:
            continue
        if 0 < i < last and fs[i] & ~u:
            continue
        for f in space.closeds:
            if u & ~f:
                continue
            if i == 0 and f & ~us[0]:
                continue
            if 0 < i < last and f & ~us[i + 1]:
                continue
            if _side_conditions(space, us, fs, u, f):
                return True
    return False


def _side_conditions(space, us, fs, u, f) -> bool:
    for j in range(len(us)):
        if f & ~us[j] == 0 and (us[j] & ~f) not in space.open_set:
            return False
        if fs[j] & ~u == 0 and (u & ~fs[j]) not in space.open_set:
            return False
    return True


def validate_family(space, fam, a, b) -> CheckReport:
    """The chain clauses for a nonempty disjoint closed pair (a, b), in the
    order and with the messages of `urysohn.validate_u_family`."""
    labels = fam.labels
    if len(set(labels)) != len(labels) or any(not 0 < r < 1 for r in labels):
        return CheckReport(False, "labels",
                           "labels must be distinct rationals in (0,1)")
    us = [u for u, _ in fam.pairs]
    fs = [f for _, f in fam.pairs]
    k = len(us)
    for i in range(k):
        if us[i] not in space.open_set or fs[i] not in space.closed_set:
            return CheckReport(False, "(i)", f"pair {i} is not open-closed")
    for i in range(k):
        lower = a if i == 0 else fs[i - 1]
        if lower & ~us[i] or us[i] & ~fs[i]:
            return CheckReport(False, "(i)", f"chain broken at position {i}")
    if k and fs[-1] & b:
        return CheckReport(False, "(i)", "top closed set meets b")
    for j in range(k):
        for i in range(j):
            if (us[j] & ~fs[i]) not in space.open_set:
                return CheckReport(
                    False, "(ii)",
                    f"U at position {j} minus F at position {i} is not open")
    for i in range(k):
        if not aux_pair_ok(space, us, fs, i):
            return CheckReport(
                False, "(iii)", f"no auxiliary pair for position {i}")
    return CheckReport(True)


def first_family(space, a, b, n) -> Optional[tuple[tuple[int, int], ...]]:
    """The first family of n+1 pairs, in depth-first order over the
    open-closed pairs between a and the complement of b, that meets the
    chain clauses; None when there is none."""
    pool = [(u, f) for u in space.opens if a & ~u == 0
            for f in space.closeds if u & ~f == 0 and not f & b]
    fam: list[tuple[int, int]] = []

    def dfs() -> bool:
        if len(fam) == n + 1:
            us = [u for u, _ in fam]
            fs = [f for _, f in fam]
            return all(aux_pair_ok(space, us, fs, i) for i in range(n + 1))
        for u, f in pool:
            if fam and fam[-1][1] & ~u:
                continue
            if any((u & ~g) not in space.open_set for _, g in fam):
                continue
            fam.append((u, f))
            if dfs():
                return True
            fam.pop()
        return False

    return tuple(fam) if dfs() else None


def u_normal_report(space, n_max) -> UNormalReport:
    """Chain normality for every length up to n_max+1, each pair searched in
    full; blocking holds the first pair, in canonical order, with no
    family."""
    pairs = [(x, y) for x in space.closeds for y in space.closeds
             if x and y and not x & y]
    blocking = tuple(next((p for p in pairs
                           if first_family(space, *p, n) is None), None)
                     for n in range(n_max + 1))
    return UNormalReport(n_max, tuple(p is None for p in blocking), blocking)
