"""The character scanner that parsed sets and maps before the regex parser.

It reads one character at a time and is kept, unchanged, as the oracle that
the differential test compares `gtopo.expressions` against: same values,
same error messages, same error positions.
"""

import re
from fractions import Fraction

from gtopo.errors import ExprError
from gtopo.pwmaps import PiecewiseMap, make_pwmap
from gtopo.symsets import ALL_REALS, EMPTY_SET, Interval, SymbolicSet, make_set

_INF = re.compile(r"(-?)inf(?![A-Za-z0-9_])")
_DIGITS = re.compile(r"[0-9]+")
_WORD_END = re.compile(r"[A-Za-z0-9_]")

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int = None) -> ExprError:
        return ExprError(message, self.pos if pos is None else pos)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self, w: str) -> bool:
        self._skip_ws()
        end = self.pos + len(w)
        if (self.text[self.pos:end] == w
                and not (end < len(self.text) and _WORD_END.match(self.text[end]))):
            self.pos = end
            return True
        return False

    def digits(self) -> int:
        self._skip_ws()
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            raise self.error("expected digits")
        try:
            value = int(m.group())
        except ValueError:      # CPython's limit on int-from-string digits
            raise self.error(f"number too long ({m.end() - m.start()} "
                             "digits)") from None
        self.pos = m.end()
        return value

    def unsigned_rational(self) -> Fraction:
        num = self.digits()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            at = self.pos
            self.pos += 1
            den = self.digits()
            if den == 0:
                raise self.error("zero denominator", at + 1)
            return Fraction(num, den)
        return Fraction(num)

    def rational(self) -> Fraction:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
            return -self.unsigned_rational()
        return self.unsigned_rational()

    def endpoint(self):
        """Fraction, or the strings "-inf" / "inf" for the two infinities."""
        self._skip_ws()
        m = _INF.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return "-inf" if m.group(1) else "inf"
        return self.rational()


def _parse_interval(sc: _Scanner) -> Interval:
    start = sc.pos
    ch = sc.peek()
    if ch not in ("(", "["):
        raise sc.error("expected '(' or '['")
    sc.pos += 1
    lo_closed = ch == "["
    lo_at = sc.pos
    lo = sc.endpoint()
    if lo == "inf":
        raise sc.error("lower endpoint cannot be inf", lo_at)
    if lo == "-inf":
        if lo_closed:
            raise sc.error("'[' cannot take -inf", start)
        lo = None
    sc.take(",")
    hi_at = sc.pos
    hi = sc.endpoint()
    if hi == "-inf":
        raise sc.error("upper endpoint cannot be -inf", hi_at)
    ch = sc.peek()
    if ch not in (")", "]"):
        raise sc.error("expected ')' or ']'")
    hi_closed = ch == "]"
    if hi == "inf":
        if hi_closed:
            raise sc.error("']' cannot take inf")
        hi = None
    sc.pos += 1
    if lo is not None and hi is not None:
        if lo > hi:
            raise sc.error(f"reversed interval: {lo} > {hi}", start)
        if lo == hi and not (lo_closed and hi_closed):
            raise sc.error("empty interval (equal endpoints need '[' and ']')", start)
    return Interval(lo, hi, lo_closed, hi_closed)


def parse_set(text: str) -> SymbolicSet:
    sc = _Scanner(text)
    if sc.word("empty"):
        result = EMPTY_SET
    elif sc.word("all"):
        result = ALL_REALS
    else:
        intervals = [_parse_interval(sc)]
        while sc.peek() == "|":
            sc.pos += 1
            intervals.append(_parse_interval(sc))
        result = make_set(intervals)
    if not sc.at_end():
        raise sc.error("unexpected trailing input")
    return result


def parse_map(text: str) -> PiecewiseMap:
    sc = _Scanner(text)
    pieces: list[tuple[int, Interval, Fraction, Fraction]] = []
    ats: dict[Fraction, tuple[int, Fraction]] = {}
    while True:
        clause_at = sc.pos
        if sc.word("on"):
            iv_at = sc.pos
            iv = _parse_interval(sc)
            if iv.lo_closed or iv.hi_closed:
                raise sc.error("piece intervals must be open", iv_at)
            sc.take(":")
            slope = sc.rational()
            sc.take("*")
            if not sc.word("x"):
                raise sc.error("expected 'x' after '*'")
            sign = sc.peek()
            if sign not in ("+", "-"):
                raise sc.error("expected '+' or '-' before the intercept")
            sc.pos += 1
            intercept = sc.unsigned_rational()
            if sign == "-":
                intercept = -intercept
            pieces.append((iv_at, iv, slope, intercept))
        elif sc.word("at"):
            q_at = sc.pos
            q = sc.rational()
            sc.take(":")
            v = sc.rational()
            if q in ats:
                raise sc.error(f"duplicate 'at {q}' clause", q_at)
            ats[q] = (q_at, v)
        else:
            raise sc.error("expected 'on' or 'at'", clause_at)
        if sc.at_end():
            break
        sc.take(";")
    return _assemble_map(sc, pieces, ats)


def _assemble_map(sc: _Scanner, pieces, ats) -> PiecewiseMap:
    if not pieces:
        raise sc.error("need at least one 'on' piece", 0)
    pieces = sorted(pieces, key=lambda p: (p[1].lo is not None, p[1].lo or 0))
    first_at, first = pieces[0][0], pieces[0][1]
    if first.lo is not None:
        raise sc.error("pieces must start at -inf", first_at)
    for (_, cur, _, _), (nxt_at, nxt, _, _) in zip(pieces, pieces[1:]):
        if cur.hi is None:
            raise sc.error("an unbounded piece may only be last", nxt_at)
        if nxt.lo != cur.hi:
            raise sc.error(f"pieces must tile: expected a piece starting at {cur.hi}",
                           nxt_at)
    last_at, last = pieces[-1][0], pieces[-1][1]
    if last.hi is not None:
        raise sc.error("pieces must end at inf", last_at)
    breakpoints = [p[1].lo for p in pieces[1:]]
    values = []
    for i, b in enumerate(breakpoints):
        if b in ats:
            values.append(ats.pop(b)[1])
            continue
        ml, tl = pieces[i][2], pieces[i][3]
        mr, tr = pieces[i + 1][2], pieces[i + 1][3]
        if ml * b + tl != mr * b + tr:
            raise sc.error(f"breakpoint {b} needs an 'at' clause "
                           "(side limits disagree)", pieces[i + 1][0])
        values.append(ml * b + tl)
    if ats:
        q, (q_at, _) = min(ats.items(), key=lambda kv: kv[1][0])
        raise sc.error(f"'at {q}' is not at a breakpoint", q_at)
    return make_pwmap(breakpoints, [(m, t) for _, _, m, t in pieces], values)
