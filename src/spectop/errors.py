"""Exception types shared across the package, and the quoting of outside
text in their messages."""

# An error message quotes at most this many characters of a value it echoes:
# a terminal line, enough to show the offending token of anything typed by
# hand, while a pasted or generated input of any length still gets a short
# one-line message.
QUOTE_PREFIX = 80


def quote(value) -> str:
    """``repr(value)``, cut to its first QUOTE_PREFIX characters (a string's
    before quoting) and then "..." when it is longer."""
    if isinstance(value, str):
        return repr(value) if len(value) <= QUOTE_PREFIX else repr(value[:QUOTE_PREFIX]) + "..."
    if isinstance(value, int) and value.bit_length() > 4 * QUOTE_PREFIX:
        # str() refuses more than sys.get_int_max_str_digits() digits, so keep
        # only the leading ones, still over QUOTE_PREFIX of them
        head = abs(value) // 10 ** (value.bit_length() * 3 // 10 - QUOTE_PREFIX)
        value = head if value > 0 else -head
    text = repr(value)
    return text if len(text) <= QUOTE_PREFIX else text[:QUOTE_PREFIX] + "..."


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
