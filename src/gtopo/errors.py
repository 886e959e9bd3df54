"""Exception types and the continuity-target vocabulary shared across the
package.

Every failure the library can signal deliberately is one of these four, so
callers (and the CLI exit-code mapping) can tell bad input apart from
well-formed input that violates a mathematical precondition, and both apart
from work that was refused because it would not terminate in reasonable time.

Both halves decide continuity into the same two targets: `taun`, the interval
topology, and `gtaun`, the ray GT.  They are named here, where both halves
already import from, so the finite half needs nothing from the real line.
"""

TARGETS = ("taun", "gtaun")


class InputError(ValueError):
    """Malformed input: unparsable text, ill-typed JSON, out-of-range index."""


class PreconditionError(ValueError):
    """Well-formed input that violates a documented mathematical precondition.

    Examples: a family that is not union-closed where a space is required,
    non-disjoint sets handed to a separation routine, a pair with no gap
    handed to the ramp builder.
    """


class ResourceError(RuntimeError):
    """Refused: the requested computation is too large to finish honestly."""


class ExprError(InputError):
    """Parse failure in the set/map expression grammar, with a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NoExtension(Exception):
    """A continuous extension was required to exist but does not.

    Carries the blocking data so reports can show it rather than a bare "no".
    """

    def __init__(self, reason: str, blocking=None):
        super().__init__(reason)
        self.reason = reason
        self.blocking = blocking


def check_target(target: str) -> None:
    if target not in TARGETS:
        raise InputError(f"unknown target {target!r}: expected one of {TARGETS}")
