"""Shared exception types.

Every error raised deliberately by the library derives from ToriKitError so
callers (and the CLI) can distinguish contract violations from bugs.
"""


class ToriKitError(Exception):
    """Base class for all library errors."""


class DimensionError(ToriKitError):
    """Mismatched vector/matrix dimensions."""


class DomainError(ToriKitError):
    """An argument lies outside the operation's mathematical domain."""


class ComposabilityError(ToriKitError):
    """Two arrows were composed whose endpoints do not match."""


class OrbitCapError(ToriKitError):
    """Orbit enumeration exceeded its iteration cap.

    Usually signals a noncompact polytope or a degenerate input.
    """


class ParseError(ToriKitError):
    """Syntax or name error in the expression mini-language."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# the most characters of a subexpression's text that an error message quotes
MAX_SUBEXPRESSION_TEXT = 1000


class EvalDomainError(ToriKitError):
    """Numeric evaluation hit a singular point (sqrt of a negative, 1/0).

    `reason` is the message without the subexpression the text appends.
    The text quotes at most MAX_SUBEXPRESSION_TEXT characters of the
    subexpression, then "...", since a derived tree can print to megabytes;
    `subexpression` keeps the whole node.  Only the quoted head is printed
    (`Expr.text_head`), never the whole tree.
    """

    def __init__(self, message, subexpression=None):
        self.reason = message
        self.subexpression = subexpression
        if subexpression is not None:
            text = subexpression.text_head(MAX_SUBEXPRESSION_TEXT + 1)
            if len(text) > MAX_SUBEXPRESSION_TEXT:
                text = text[:MAX_SUBEXPRESSION_TEXT] + "..."
            message = f"{message} in subexpression '{text}'"
        super().__init__(message)


class StratumError(ToriKitError):
    """A mode was evaluated at a point of the polytope where it does not live."""


class MarginError(ToriKitError):
    """An evaluation point sits too close to the boundary for the requested sweep."""


class ConstructionError(ToriKitError):
    """Input data does not support the requested construction."""


class FormatError(ToriKitError):
    """Malformed JSON document (polytope or observable schema)."""
