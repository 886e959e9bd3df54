"""The gtn and gts catalogs written out shape by shape.

The independent encoding of the open and closed lists in the realline
module docstring, against which the one end-flag rule of
gtopo.realline._closed_ends is tested.
"""

from gtopo.symsets import SymbolicSet


def _is_open_form(s: SymbolicSet, space: str) -> bool:
    comps = s.components
    if len(comps) == 0:
        return True
    if len(comps) == 1:
        c = comps[0]
        if c.lo is None and c.hi is None:
            return True
        if c.lo is None:
            return not c.hi_closed                       # (-inf, a)
        if c.hi is None:
            return not c.lo_closed or space == "gts"     # (a, inf) / [a, inf)
        return False
    if len(comps) == 2:
        left, right = comps
        if left.lo is not None or left.hi_closed or right.hi is not None:
            return False
        # canonical form already forces a <= b (a < b when right starts closed)
        return not right.lo_closed or space == "gts"
    return False


def _is_closed_form(s: SymbolicSet, space: str) -> bool:
    comps = s.components
    if len(comps) == 0:
        return True
    if len(comps) > 1:
        return False
    c = comps[0]
    if c.lo is None and c.hi is None:
        return True
    if c.lo is None:
        return c.hi_closed or space == "gts"             # (-inf,a] / (-inf,a)
    if c.hi is None:
        return c.lo_closed                               # [a, inf)
    if c.lo_closed and c.hi_closed:
        return True                                      # [a, b]
    return space == "gts" and c.lo_closed and not c.hi_closed   # [a, b)
