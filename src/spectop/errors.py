"""Exception types shared across the package."""


class SpectopError(Exception):
    """Base class for every error raised by this package.

    ``message`` is the bare description.  ``position`` is the character
    offset of the offending token in the parsed text, or ``None`` when the
    error concerns no position in a text (a bad ``--n`` value, an unknown
    gallery name); only a position that is not ``None`` is printed.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.message = message
        self.position = position


class CycleError(SpectopError):
    """The covering relation has a directed cycle, so no partial order exists."""


class UnknownLabelError(SpectopError):
    """A covering pair mentions a label that is not an element."""


class SizeError(SpectopError):
    """An input exceeds a configured size or memory budget."""


class EmptySpaceError(SpectopError):
    """The operation needs a nonempty space."""


class ConflictError(SpectopError):
    """Curated ring metadata contradicts a theorem-backed verdict."""


class ParseError(SpectopError):
    """Malformed or non-canonical input."""


class ArityError(ParseError):
    """A combinator was applied to the wrong number of arguments."""
