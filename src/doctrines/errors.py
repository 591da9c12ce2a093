"""Structured errors shared across the workbench.

Hard errors are exceptions; check-style verdicts live in `report`.  Every
exception carries enough payload to reconstruct what was demanded and where.
"""

from __future__ import annotations


class DoctrinesError(Exception):
    """Base class for all workbench errors."""


class MalformedPresentation(DoctrinesError):
    """A presentation table is inconsistent (dangling ids, bad shapes)."""


class WindowClosure(DoctrinesError):
    """A construction demanded a product the window does not contain."""

    def __init__(self, missing, context: str = ""):
        self.missing = missing
        self.context = context
        what = "x".join(str(m) for m in missing) if isinstance(missing, tuple) else str(missing)
        super().__init__(f"window closure violated: missing product {what}"
                         + (f" ({context})" if context else ""))


class ResourceCap(DoctrinesError):
    """An enumeration exceeded a configured bound; no partial answer is given."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"resource cap exceeded: {what} needs {size} > cap {cap}")


def guard(what: str, size: int, cap: int | None) -> None:
    """Refuse `size` units of `what` beyond `cap`; a cap of None is no bound.
    Every resource cap of the package is checked here."""
    if cap is not None and size > cap:
        raise ResourceCap(what, size, cap)


class FormulaMismatch(DoctrinesError):
    """Two published forms of the same formula disagreed on an instance."""

    def __init__(self, where: str, detail: str):
        self.where = where
        self.detail = detail
        super().__init__(f"formula mismatch in {where}: {detail}")


class NoWeakPullback(DoctrinesError):
    """A cospan has no weak pullback inside the window."""

    def __init__(self, cospan):
        self.cospan = cospan
        super().__init__(f"no weak pullback for cospan {cospan}")


class ParseError(DoctrinesError):
    """Doctrine file rejected, with position information."""

    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        self.msg = msg
        super().__init__(f"line {line}, col {col}: {msg}")
