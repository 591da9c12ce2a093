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
HYPOTHESIS = "hypothesis"
CLAIMED = "claimed"
UNCLAIMED = "unclaimed"


@dataclass
class Check:
    name: str
    status: str
    witness: object = None
    data: dict = field(default_factory=dict)
    children: list["Check"] = field(default_factory=list)

    def label(self) -> str:
        """The name as prose: no hypothesis prefix, spaces for hyphens."""
        return self.name.removeprefix("hypothesis-").replace("-", " ")

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

    # -- what a harness claims ----------------------------------------------

    def classified(self):
        """Each check with its kind: HYPOTHESIS (named `hypothesis-...` or
        with context=hypothesis), UNCLAIMED (claimed=False, or info), CAPPED,
        NOT_APPLICABLE, or else CLAIMED."""
        for c in self.walk():
            if c.name.startswith("hypothesis-") or c.data.get("context") == HYPOTHESIS:
                yield HYPOTHESIS, c
            elif not c.data.get("claimed", True) or c.status == INFO:
                yield UNCLAIMED, c
            else:
                yield (c.status if c.status in (CAPPED, NOT_APPLICABLE) else CLAIMED), c

    def state(self) -> tuple[str, list[Check]]:
        """The first of FAIL (a claimed check failed), CAPPED, NOT_APPLICABLE
        (a claimed check or a hypothesis was not decided), HYPOTHESIS (one
        failed) and PASS, with the checks that make it."""
        kinds = list(self.classified())
        for state, status, of in ((FAIL, FAIL, (CLAIMED,)), (CAPPED, CAPPED, (CAPPED, HYPOTHESIS)),
                                  (NOT_APPLICABLE, NOT_APPLICABLE, (NOT_APPLICABLE, HYPOTHESIS)),
                                  (HYPOTHESIS, FAIL, (HYPOTHESIS,))):
            if checks := [c for kind, c in kinds if kind in of and c.status == status]:
                return state, checks
        return PASS, []

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
