"""Structured JSON reports, and the verification reports they carry.

Reports are schema-versioned and deterministic for fixed inputs and
seeds; the ``timing`` block is the one field excluded from byte
comparisons.  ``Check`` and ``VerificationReport`` are the results of
every check in the package (``tensq.verify``, ``tensq.engel``,
``tensq.liering``); they live here, so that a module reporting checks
imports none of ``verify``'s code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = 1
TOOL = "tensq"

# the relation families (i)-(v) of nu(G) (``tensq.verify``)
RELATION_FAMILIES = ("i", "ii", "iii", "iv", "v")


@dataclass
class Check:
    label: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"label": self.label, "passed": self.passed,
                "details": self.details}


@dataclass
class VerificationReport:
    name: str
    checks: list
    counterexample: dict | None = None

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
                "counterexample": self.counterexample}


@dataclass
class Report:
    command: str
    input: dict
    results: dict
    seed: int | None = None
    timing: dict = field(default_factory=dict)
    version: str = ""

    def to_dict(self, include_timing=True):
        out = {
            "schema": SCHEMA,
            "tool": TOOL,
            "version": self.version,
            "command": self.command,
            "input": self.input,
            "seed": self.seed,
            "results": self.results,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing=True):
        return canonical_json(self.to_dict(include_timing=include_timing))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_report(text, path):
    """Write ``text``, a report's ``to_json()``, to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
