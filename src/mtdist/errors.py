"""Exception types shared across the package, all of them an
:class:`MTDistError` (CLI exit 2), and :func:`_choice`, the one check of a
named choice. A broken precondition, such as an unknown name, raises
:class:`PreconditionError`, which is also a ``ValueError``."""


class MTDistError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MTDistError):
    """A file could not be parsed. Carries the path and 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class InvalidTreeError(MTDistError):
    """An operation received a tree that fails merge-tree validation."""


class PreconditionError(MTDistError, ValueError):
    """An operation's documented precondition was violated."""


class SizeLimitError(MTDistError):
    """An operation was asked to run beyond its size cap: an enumeration past
    its leaf cap, or a free-mode table larger than the memory it may take."""


def _choice(what, value, names):
    """Raise :class:`PreconditionError` unless ``value`` is one of ``names``."""
    if value not in names:
        raise PreconditionError(f"unknown {what} {value!r}, expected one of {names}")
