"""`tg verify` on every catalog entry against recorded reports.

``golden/verify_catalog.json`` holds the exit status and JSON report of
``tg verify --example <name> --format json`` for each entry, recorded
with the dense-form implementation.  Every row value must agree to 1e-15
absolute, and every pass/assert flag and verdict must be identical.
"""

import json
import pathlib

import pytest

from torsiongeo.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "verify_catalog.json")
                    .read_text())


def verify(name, capsys):
    code = main(["verify", "--example", name, "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_matches_recorded_report(name, capsys):
    code, text = verify(name, capsys)
    gold = GOLDEN[name]
    report = json.loads(text)
    assert code == gold["exit"]
    gold = gold["report"]
    assert {k: v for k, v in report.items() if k != "reports"} \
        == {k: v for k, v in gold.items() if k != "reports"}
    assert [r["title"] for r in report["reports"]] == [r["title"] for r in gold["reports"]]
    for sub, gsub in zip(report["reports"], gold["reports"]):
        assert (sub["passed"], sub["hypotheses_met"], sub["notes"]) \
            == (gsub["passed"], gsub["hypotheses_met"], gsub["notes"])
        assert len(sub["rows"]) == len(gsub["rows"])
        for row, grow in zip(sub["rows"], gsub["rows"]):
            assert {k: v for k, v in row.items() if k != "value"} \
                == {k: v for k, v in grow.items() if k != "value"}
            assert abs(row["value"] - grow["value"]) <= 1e-15, \
                (sub["title"], row["name"], row["value"], grow["value"])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_json_is_byte_stable(name, capsys):
    assert verify(name, capsys) == verify(name, capsys)
