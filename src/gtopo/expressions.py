"""Text grammar for symbolic sets and piecewise maps.

Sets:  Set := "empty" | "all" | Interval ("|" Interval)*
       Interval := ("(" | "[") Endpoint "," Endpoint (")" | "]")
       Endpoint := "-inf" | "inf" | Rational
       Rational := ["-"] digits ["/" digits]

Maps:  semicolon-separated clauses, in any order:
       "on <open Interval>: <slope>*x<+|-><intercept>"  (pieces, must tile R)
       "at <Rational>: <Rational>"                      (value at a breakpoint)
       A breakpoint may omit its "at" clause only when both side limits agree,
       in which case that common limit is the value.

Blanks and tabs may stand between any two tokens.  Inside a number they may
follow a leading "-" and the "/", but not precede the "/": "- 3" and "1/ 2"
are numbers, "1 /2" is not; "-inf" admits none.  The words empty, all, on,
at, x and inf must end at a character that is not a letter, digit or "_".

parse_* raise ExprError with the offending position; format_* emit text the
parsers accept, and parse(format(x)) == x.  A number past CPython's limit on
int-to-string conversion is refused with ResourceError, not printed.
"""

import re
from fractions import Fraction

from .errors import ExprError, ResourceError
from .pwmaps import PiecewiseMap
from .symsets import ALL_REALS, EMPTY_SET, Interval, SymbolicSet, make_set

_WS = re.compile(r"[ \t]*")
_W = r"(?![A-Za-z0-9_])"           # a word ends here
_NUM = r"([0-9]+)(?:(/)[ \t]*([0-9]+)?)?"  # digits, "/", digits


def _chain(*links: str) -> re.Pattern:
    """(?:L0(?:L1(?:...)?)?)?, each link after optional blanks.  It always
    matches, reading the longest run of whole links: the first link whose
    groups are None is where the text stops fitting.  A failing link gives
    back only its own blanks and nothing after it can fail, so a match never
    backtracks into an earlier link and runs in linear time."""
    pattern = ""
    for link in reversed(links):
        pattern = rf"(?:[ \t]*{link}{pattern})?"
    return re.compile(pattern)


def _endpoint(inf: str) -> tuple[str, str]:
    """Links for an Endpoint: a sign or (-)inf, then the digits unless inf."""
    return f"(?:(?P<{inf}>-?inf){_W}|(-?))", f"(?({inf})|{_NUM})"


# One group per token, in reading order.  An interval takes 13: bracket,
# 5 per endpoint (inf, sign, digits, "/", digits), the comma and the
# closing bracket.  A rational takes 4: sign, digits, "/", digits.
_INTERVAL = (r"([([])", *_endpoint("lo_inf"), r"(,)", *_endpoint("hi_inf"),
             r"([)\]])")
_SET_WORD = re.compile(rf"[ \t]*(?:(empty|all){_W})?")
_SET_PART = _chain(*_INTERVAL, r"(\|)")        # interval 1-13, "|" 14
# "on" 1, interval 2-14, ":" 15, slope 16-19, "*" 20, "x" 21, intercept
# 22-25 (its sign is "+" or "-"), ";" 26
_ON = _chain(rf"(on){_W}", *_INTERVAL, r"(:)", r"(-?)", _NUM, r"(\*)",
             rf"(x){_W}", r"([+-])", _NUM, r"(;)")
# "at" 1, point 2-5, ":" 6, value 7-10, ";" 11
_AT = _chain(rf"(at){_W}", r"(-?)", _NUM, r"(:)", r"(-?)", _NUM, r"(;)")


def _expected(what: str, m: re.Match) -> ExprError:
    """The link after the last one m read is missing."""
    return ExprError(f"expected {what}", _WS.match(m.string, m.end()).end())


def _too_long(m: re.Match, g: int) -> ExprError:
    """Group g holds more digits than CPython reads into an int."""
    return ExprError(f"number too long ({m.end(g) - m.start(g)} digits)",
                     m.start(g))


def _rational(m: re.Match, g: int, memo: dict) -> Fraction:
    """The rational in groups g..g+3 of m: sign, digits, "/", digits.

    memo maps each spelling (the four groups) already read in this call to
    its value, so a number written again is not converted again.  Whether a
    spelling raises depends on the spelling alone, and one that raises is
    never stored, so every error keeps its message and position."""
    key = m.group(g, g + 1, g + 2, g + 3)
    q = memo.get(key)
    if q is None:
        q = memo[key] = _read_rational(m, g, *key)
    return q


def _read_rational(m: re.Match, g: int, sign, num, slash, den) -> Fraction:
    if num is None:
        raise _expected("digits", m)
    try:
        n = -int(num) if sign == "-" else int(num)
    except ValueError:      # CPython's limit on int-from-string digits
        raise _too_long(m, g + 1) from None
    if slash is None:
        return Fraction(n)
    if den is None:
        raise ExprError("expected digits",
                        _WS.match(m.string, m.end(g + 2)).end())
    try:
        d = int(den)
    except ValueError:
        raise _too_long(m, g + 3) from None
    if d == 0:
        raise ExprError("zero denominator", m.end(g + 2))
    return Fraction(n, d)


def _interval(m: re.Match, g: int, start: int, memo: dict) -> tuple:
    """(lo, hi, lo_closed, hi_closed) from groups g..g+12 of m, the interval
    that starts at start; errors come in the order a reader meets them."""
    (bra, lo_inf, _, _, _, _, comma, hi_inf, _, _, _, _,
     ket) = m.group(*range(g, g + 13))
    if bra is None:
        raise _expected("'(' or '['", m)
    lo_closed = bra == "["
    if lo_inf == "inf":
        raise ExprError("lower endpoint cannot be inf", m.end(g))
    if lo_inf and lo_closed:
        raise ExprError("'[' cannot take -inf", start)
    lo = None if lo_inf else _rational(m, g + 2, memo)
    if comma is None:
        raise _expected("','", m)
    if hi_inf == "-inf":
        raise ExprError("upper endpoint cannot be -inf", m.end(g + 6))
    hi = None if hi_inf else _rational(m, g + 8, memo)
    if ket is None:
        raise _expected("')' or ']'", m)
    hi_closed = ket == "]"
    if hi_inf and hi_closed:
        raise ExprError("']' cannot take inf", m.start(g + 12))
    if lo is not None and hi is not None:
        # the sign of lo - hi, by cross-multiplying over positive denominators
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        order = ln * hd - hn * ld
        if order > 0:
            raise ExprError(f"reversed interval: {lo} > {hi}", start)
        if order == 0 and not (lo_closed and hi_closed):
            raise ExprError("empty interval (equal endpoints need '[' and ']')",
                            start)
    return lo, hi, lo_closed, hi_closed


def parse_set(text: str) -> SymbolicSet:
    m = _SET_WORD.match(text)
    word, pos = m.group(1), m.end()
    if word:
        result = EMPTY_SET if word == "empty" else ALL_REALS
    else:
        intervals, memo = [], {}
        while True:
            m = _SET_PART.match(text, pos)
            intervals.append(Interval(*_interval(m, 1, pos, memo)))
            pos = m.end()
            if m.group(14) is None:
                break
        result = make_set(intervals)
    pos = _WS.match(text, pos).end()
    if pos < len(text):
        raise ExprError("unexpected trailing input", pos)
    return result


def _digit_count(n: int) -> int:
    """Decimal digits of n, counted without converting n to a string."""
    n = abs(n)
    k = max(1, n.bit_length() * 30102 // 100000)   # 0.30102 < log10(2)
    while n >= 10 ** k:
        k += 1
    return k


def format_rational(q) -> str:
    """str(q) for an int or a Fraction; ResourceError, naming the digit
    count, when a part of q is too long to convert."""
    try:
        return str(q)
    except ValueError:          # CPython's limit on int-to-string digits
        digits = max(_digit_count(q.numerator), _digit_count(q.denominator))
        raise ResourceError(f"number too long to print ({digits} digits)"
                            ) from None


def format_interval(iv: Interval) -> str:
    lo = "-inf" if iv.lo is None else format_rational(iv.lo)
    hi = "inf" if iv.hi is None else format_rational(iv.hi)
    return (("[" if iv.lo_closed else "(") + lo + ","
            + hi + ("]" if iv.hi_closed else ")"))


def format_set(s: SymbolicSet) -> str:
    if s.is_empty:
        return "empty"
    if s.is_all:
        return "all"
    return " | ".join(format_interval(c) for c in s.components)


def parse_map(text: str) -> PiecewiseMap:
    # (position, lo, hi, slope, intercept); the "at" clauses are keyed by
    # q.as_integer_ratio(), which hashes much faster than the Fraction q
    pieces: list[tuple[int, Fraction, Fraction, Fraction, Fraction]] = []
    ats: dict[tuple[int, int], tuple[int, Fraction, Fraction]] = {}
    memo: dict = {}
    pos = 0
    while True:
        m = _ON.match(text, pos)
        if m.group(1):
            iv_at = m.end(1)
            lo, hi, lo_closed, hi_closed = _interval(m, 2, iv_at, memo)
            if lo_closed or hi_closed:
                raise ExprError("piece intervals must be open", iv_at)
            if m.group(15) is None:
                raise _expected("':'", m)
            slope = _rational(m, 16, memo)
            if m.group(20) is None:
                raise _expected("'*'", m)
            if m.group(21) is None:
                raise _expected("'x' after '*'", m)
            if m.group(22) is None:
                raise _expected("'+' or '-' before the intercept", m)
            pieces.append((iv_at, lo, hi, slope, _rational(m, 22, memo)))
            end = m.group(26)
        else:
            m = _AT.match(text, pos)
            if m.group(1) is None:
                raise ExprError("expected 'on' or 'at'", pos)
            q_at = m.end(1)
            q = _rational(m, 2, memo)
            if m.group(6) is None:
                raise _expected("':'", m)
            v = _rational(m, 7, memo)
            key = q.as_integer_ratio()
            if key in ats:
                raise ExprError(f"duplicate 'at {q}' clause", q_at)
            ats[key] = (q_at, q, v)
            end = m.group(11)
        pos = m.end()
        if end is None:
            pos = _WS.match(text, pos).end()
            if pos == len(text):
                return _assemble_map(pieces, ats)
            raise ExprError("expected ';'", pos)


def _tile_as_written(pieces) -> bool:
    """Do the pieces tile ℝ in the order written?  Then their starts
    strictly increase, sorting keeps that order and every check of
    _assemble_map passes.  A number spelled alike is one object (memo), so
    most ends match on identity."""
    if pieces[0][1] is not None or pieces[-1][2] is not None:
        return False
    for (_, _, hi, _, _), (_, lo, _, _, _) in zip(pieces, pieces[1:]):
        if hi is None or (lo is not hi and lo != hi):
            return False
    return True


def _assemble_map(pieces, ats) -> PiecewiseMap:
    if not pieces:
        raise ExprError("need at least one 'on' piece", 0)
    if not _tile_as_written(pieces):
        pieces.sort(key=lambda p: (p[1] is not None, p[1] or 0))
        if pieces[0][1] is not None:
            raise ExprError("pieces must start at -inf", pieces[0][0])
        for (_, _, hi, _, _), (nxt_at, lo, _, _, _) in zip(pieces, pieces[1:]):
            if hi is None:
                raise ExprError("an unbounded piece may only be last", nxt_at)
            if lo != hi:
                raise ExprError("pieces must tile: expected a piece starting "
                                f"at {hi}", nxt_at)
        if pieces[-1][2] is not None:
            raise ExprError("pieces must end at inf", pieces[-1][0])
    breakpoints = [p[1] for p in pieces[1:]]
    values = []
    for (_, _, b, ml, tl), (nxt_at, _, _, mr, tr) in zip(pieces, pieces[1:]):
        at = ats.pop(b.as_integer_ratio(), None)
        if at:
            values.append(at[2])
        elif ml * b + tl != mr * b + tr:
            raise ExprError(f"breakpoint {b} needs an 'at' clause "
                            "(side limits disagree)", nxt_at)
        else:
            values.append(ml * b + tl)
    if ats:
        q_at, q, _ = min(ats.values())
        raise ExprError(f"'at {q}' is not at a breakpoint", q_at)
    # the pieces tile and each is a nonempty interval, so the breakpoints
    # strictly increase: nothing is left for make_pwmap to check
    return PiecewiseMap(tuple(breakpoints), tuple(p[3:] for p in pieces),
                        tuple(values))


def format_map(f: PiecewiseMap) -> str:
    parts = []
    for k, (m, t) in enumerate(f.pieces):
        lo, hi = f.piece_interval(k)
        iv = format_interval(Interval(lo, hi, False, False))
        sign, mag = ("-", -t) if t < 0 else ("+", t)
        parts.append(f"on {iv}: {format_rational(m)}*x{sign}"
                     f"{format_rational(mag)}")
        if k < len(f.breakpoints):
            parts.append(f"at {format_rational(f.breakpoints[k])}: "
                         f"{format_rational(f.values[k])}")
    return "; ".join(parts)
