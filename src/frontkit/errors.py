"""Exception hierarchy for diagram validation and rewriting failures."""

from __future__ import annotations


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
    range, or an unknown render mode."""


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
