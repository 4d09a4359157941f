"""Named-residual reports with pass/fail verdicts against tolerances."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResidualRow:
    """One verified quantity.

    ``identity`` is the semantic label of the equation the residual
    instantiates (e.g. "first-bianchi-with-torsion"), ``asserted`` is
    False for rows that are reported but not gated (diagnostics).
    """

    name: str
    value: float
    tol: float
    identity: str = ""
    asserted: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool((not self.asserted) or abs(self.value) <= self.tol)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tol": self.tol,
            "identity": self.identity,
            "asserted": self.asserted,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class StructureReport:
    """A bundle of residual rows for one verification target."""

    title: str
    rows: list = field(default_factory=list)
    hypotheses_met: bool = True
    notes: list = field(default_factory=list)

    def add(self, name: str, value: float, tol: float, identity: str = "",
            asserted: bool = True, note: str = "") -> ResidualRow:
        row = ResidualRow(name, float(value), float(tol), identity,
                          bool(asserted), str(note))
        self.rows.append(row)
        return row

    def row(self, name: str) -> ResidualRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return self.hypotheses_met and all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "hypotheses_met": self.hypotheses_met,
            "rows": [r.to_dict() for r in self.rows],
            "notes": list(self.notes),
        }


def text_lines(report: dict) -> list:
    """Text rendering of a report in its ``StructureReport.to_dict()`` form."""
    rows = report["rows"]
    width = max([len(r["name"]) for r in rows], default=10)
    lines = [f"== {report['title']} =="]
    if not report["hypotheses_met"]:
        lines.append("   HYPOTHESES NOT MET")
    for r in rows:
        status = "pass" if r["passed"] else "FAIL"
        if not r["asserted"]:
            status = "info"
        lines.append(
            f"  [{status}] {r['name']:<{width}}  {r['value']: .3e}"
            f"  (tol {r['tol']:.1e})  {r['identity']}"
        )
    for n in report["notes"]:
        lines.append(f"  note: {n}")
    return lines
