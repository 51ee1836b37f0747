"""Exception hierarchy for diagram validation and rewriting failures."""

from __future__ import annotations

import math


class FrontkitError(Exception):
    """Base class for all domain errors raised by this package."""


class DiagramError(FrontkitError):
    """A diagram failed structural validation.

    ``index`` is the offending event position (or -1 when the problem is
    global, e.g. a dangling strand at the end of the word).
    """

    def __init__(self, message: str, index: int = -1):
        super().__init__(message if index < 0 else f"event {index}: {message}")
        self.index = index


class LevelOutOfRange(DiagramError):
    """An event references a strand level that does not exist."""


class DanglingStrand(DiagramError):
    """The word ended (or hit the right edge) with unterminated strands."""


class PortMismatch(DiagramError):
    """Handle ports are unbalanced, reused, or out of declared range."""


class MoveError(FrontkitError):
    """A rewriting move could not be applied."""


class MoveNotApplicable(MoveError):
    """The move pattern does not match the word at the requested site."""


class NotSteinFramed(MoveError):
    """A handle slide was requested over a non Stein-framed attachment."""


class BandObstructed(MoveError):
    """No valid band site exists between the two curves."""


class GeometricPassNotOne(MoveError):
    """Cancellation requires the attaching circle to cross the handle once."""


class OtherStrandsPresent(MoveError):
    """Cancellation is blocked by bystander strands through the handle."""


class ComponentCountMismatch(FrontkitError):
    """A constructed diagram traced to an unexpected number of components."""


class NotAKnot(FrontkitError):
    """An operation that needs a single component received a link."""


class ParameterOutOfRange(FrontkitError):
    """A parameter is outside the range its operation accepts: gallery
    parameters a construction cannot realize, a cable or copy count that
    cannot be built, a genus certificate whose component or genus is not
    a non-negative int, a certificate that is not a GenusCertificate, a
    search depth, search budget or fuzz step count that is not an int in
    range, an unknown render mode, or an int too long to print as text."""


class BudgetExhausted(FrontkitError):
    """A search ran out of node budget before finishing.

    Carries the best partial result so callers can still inspect it.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class FormatError(FrontkitError):
    """A text-format parse error, with 1-based line/column coordinates."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# The most digits of an int that a message spells out.  ``str`` refuses
# an int of more than ``sys.get_int_max_str_digits()`` digits (4,300 by
# default), so a longer one is named by its digit count.
_SHOWN_DIGITS = 30


def _shown(value) -> str:
    """``repr(value)`` for a message, but an int of more than
    ``_SHOWN_DIGITS`` digits, alone or in a tuple, is named by its sign
    and its digit count, and any other value whose ``repr`` cannot print
    an int it holds (one of more than ``sys.get_int_max_str_digits()``
    digits) by its type."""
    if type(value) is tuple:
        items = list(map(_shown, value))
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    if not isinstance(value, int):
        try:
            return repr(value)
        except ValueError:
            return f"a {type(value).__name__} that does not print"
    if abs(value) < 10**_SHOWN_DIGITS:
        return repr(value)
    size = abs(value)
    # The float log is off by at most one digit either way.
    digits = int(math.log10(size)) + 1
    digits += size >= 10**digits
    digits -= size < 10 ** (digits - 1)
    return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
