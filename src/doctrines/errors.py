"""Structured errors, and the store of derived data, shared across the workbench.

Hard errors are exceptions; check-style verdicts live in `report`.  Every
exception carries enough payload to reconstruct what was demanded and where.
"""

from __future__ import annotations


class Store:
    """What an object derives from its read-only tables, kept in one dict,
    `_kept`, read through `kept`; a copy or a pickle leaves the store out
    and starts with an empty one."""

    def kept(self, key: tuple, derive):
        """derive(), computed once per key and kept; an error is not kept, so
        a read that meets one derives again.  A key starts with a name."""
        if key not in self._kept:
            self._kept[key] = derive()
        return self._kept[key]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_kept"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _kept={})


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

    def __init__(self, what: str, size: int, cap: int, at_least: bool = False):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"resource cap exceeded: {what} needs {'at least ' if at_least else ''}"
                         f"{size} > cap {cap}")


def guard(what: str, size: int, cap: int | None, at_least: bool = False) -> None:
    """Refuse `size` units of `what`, or at least that many, beyond `cap`; a
    cap of None is no bound.  Every resource cap of the package is checked here."""
    if cap is not None and size > cap:
        raise ResourceCap(what, size, cap, at_least)


class FormulaMismatch(DoctrinesError):
    """Two published forms of the same formula disagreed on an instance."""

    def __init__(self, where: str, detail: str):
        self.where = where
        self.detail = detail
        super().__init__(f"formula mismatch in {where}: {detail}")


class ParseError(DoctrinesError):
    """Doctrine file rejected, with position information."""

    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        self.msg = msg
        super().__init__(f"line {line}, col {col}: {msg}")
