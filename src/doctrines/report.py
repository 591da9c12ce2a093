"""Verdict trees with deterministic machine and human renderings.

Every failure carries a witness; rendering order follows construction order,
so identical inputs reproduce identical reports bit for bit.  The machine
rendering (canonical JSON) is the contract for tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
CAPPED = "capped"
INFO = "info"


@dataclass
class Check:
    name: str
    status: str
    witness: object = None
    data: dict = field(default_factory=dict)
    children: list["Check"] = field(default_factory=list)

    def ok(self) -> bool:
        return self.status == PASS

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def copy(self) -> "Check":
        """A copy a report may change: every node and its data are new."""
        return Check(self.name, self.status, self.witness, dict(self.data),
                     [c.copy() for c in self.children])


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    def walk(self):
        for c in self.checks:
            yield from c.walk()

    def any_failed(self) -> bool:
        return any(c.status == FAIL for c in self.walk())

    def any_capped(self) -> bool:
        return any(c.status == CAPPED for c in self.walk())

    # -- renderings ---------------------------------------------------------

    def to_dict(self) -> dict:
        def conv(c: Check) -> dict:
            out = {"name": c.name, "status": c.status}
            if c.witness is not None:
                out["witness"] = _plain(c.witness)
            if c.data:
                out["data"] = _plain(c.data)
            if c.children:
                out["children"] = [conv(x) for x in c.children]
            return out
        return {"title": self.title,
                "summary": _plain(self.summary),
                "checks": [conv(c) for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False,
                          separators=(",", ":"))

    def to_text(self) -> str:
        lines = [self.title]
        for k in self.summary:
            lines.append(f"  {k}: {_fmt(self.summary[k])}")
        def emit(c: Check, depth: int):
            mark = {PASS: "ok", FAIL: "FAIL", NOT_APPLICABLE: "n/a",
                    CAPPED: "capped", INFO: "-"}[c.status]
            line = f"{'  ' * depth}[{mark}] {c.name}"
            if c.witness is not None:
                line += f"  witness={_fmt(c.witness)}"
            for k, v in c.data.items():
                line += f"  {k}={_fmt(v)}"
            lines.append(line)
            for x in c.children:
                emit(x, depth + 1)
        for c in self.checks:
            emit(c, 1)
        return "\n".join(lines) + "\n"


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def _fmt(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    return str(v)
