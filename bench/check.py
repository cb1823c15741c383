"""Output checks for one benchmark run.

Every CLI call of the run is checked; each check is one operation, and an
operation fails when

* a task exits with a nonzero code, or its JSON report differs by a single
  byte from the report of the same task in the first pass (same seed);
* a ``certified`` flag anywhere in a report is not true;
* a Monte Carlo row is not ``passed``;
* a certified risk lies below its reference by more than ``SLACK``: the
  reference is a lower bound on every valid certificate, so a lower risk
  is unsound.

The ratio certified risk / reference of every referenced certificate feeds
``risk_ratio_max``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SLACK = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    ratios: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _flags(node, key: str):
    """Every value stored under ``key`` anywhere in a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            else:
                yield from _flags(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from _flags(v, key)


def _lookup(report: dict, path: tuple):
    node = report
    for key in path:
        node = node[key]
    return node


def check_task(out: Outcome, task, code: int, report: bytes | None,
               first: bytes | None) -> None:
    """Check one CLI call of ``task``; ``first`` is its first-pass report."""
    name = task.name
    out.record(code == 0 and report is not None, f"{name}: exit code {code}")
    if code != 0 or report is None:
        return
    if first is not None:
        out.record(report == first,
                   f"{name}: report differs from the first pass")
    doc = json.loads(report)
    results = doc["results"]
    for flag in _flags(results, "certified"):
        out.record(flag is True, f"{name}: certified flag is {flag!r}")
    for row in results.get("mc", []):
        out.record(row.get("passed") is True,
                   f"{name}: Monte Carlo row {row.get('label')} did not pass")
    for ref in task.refs:
        risk = float(_lookup(doc, ref.path))
        out.record(risk >= ref.value - SLACK,
                   f"{name}: {'/'.join(map(str, ref.path))} = {risk!r} below "
                   f"its reference {ref.value!r} ({ref.label})")
        out.ratios.append(risk / ref.value)
