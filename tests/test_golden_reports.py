"""Outputs pinned against recorded files: `tg verify` and `tg decompose`
on every catalog entry, and random_geometry samples.

``golden/verify_catalog.json`` holds the exit status and JSON report of
``tg verify --example <name> --format json`` for each entry, recorded
with the dense-form implementation; when the hkt report came to gate
closure of H in one ``dH`` row instead of ``dH_I1``/``dH_I2``/``dH_I3``,
those rows were replaced by it, keeping the recorded value.  Both verify
files later lost the steady-soliton rows ``steadyf_lhs`` (a constant 0)
and ``steadyf_rhs`` (asserted only when the soliton residual passes),
and ``g2-standard`` gained the ``nabla_hat_phi`` row (0.0) that the G2
report now gates on every geometry, not only on non-abelian ones, and
``spin7-standard`` gained the ``nabla_hat_Phi`` row (0.0) when the
Spin(7) report came to check Phi against the torsion.  Every row
value must agree to 1e-15 absolute, and every pass/assert flag and
verdict must be identical.  The ``lee_equal_*`` rows were recorded as
exactly 0 while ``lee_form`` returned the zero form by construction;
with the Hermitian Lee form theta = J^T delta omega, su3-hkt's
``lee_equal_12`` reads 4.4e-16, inside that 1e-15.
``golden/verify_catalog_text.json`` holds the exit status and the exact
``--format text`` output of the same commands, recorded before the text
rendering moved onto the report dicts; its su3-hkt ``lee_equal_12``
line was re-recorded as ``4.441e-16`` (was ``0.000e+00``) for the same
reason, the only line changed.  ``golden/decompose_catalog.json``
holds the exit status and JSON report of ``tg decompose --example <name>
--format json`` for each entry, recorded before dH and the torsion
connections moved into the geometry's cache; numbers must agree to
1e-15 absolute and everything else exactly.  ``golden/random_geometry_sha256.json``
holds the SHA-256 of ``c`` and ``H.coeffs`` bytes of random_geometry
samples, recorded before the structure-constant packing moved onto
``index_tuples`` gathers (numpy 2.4, OpenBLAS 0.3.31; another LAPACK
build may round the projection differently).  ``golden/catalog_sha256.json``
holds the SHA-256 of ``c`` and of ``H.coeffs`` bytes of every catalog
geometry entry, recorded before the entries were rebuilt as direct sums.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from torsiongeo.catalog import CATALOG
from torsiongeo.cli import main
from torsiongeo.random_geometry import random_geometry

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "verify_catalog.json").read_text())
GOLDEN_TEXT = json.loads((GOLDEN_DIR / "verify_catalog_text.json").read_text())
GOLDEN_DECOMPOSE = json.loads((GOLDEN_DIR / "decompose_catalog.json").read_text())
GOLDEN_SAMPLES = json.loads((GOLDEN_DIR / "random_geometry_sha256.json").read_text())
GOLDEN_CATALOG = json.loads((GOLDEN_DIR / "catalog_sha256.json").read_text())


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


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
def test_verify_text_matches_recorded_output(name, capsys):
    code = main(["verify", "--example", name, "--format", "text"])
    gold = GOLDEN_TEXT[name]
    assert (code, capsys.readouterr().out) == (gold["exit"], gold["text"])


def assert_matches(value, gold, where="report"):
    """Same structure and non-float leaves; floats within 1e-15."""
    if isinstance(gold, float) and isinstance(value, float):
        assert abs(value - gold) <= 1e-15, (where, value, gold)
    elif isinstance(gold, dict):
        assert isinstance(value, dict) and value.keys() == gold.keys(), where
        for key in gold:
            assert_matches(value[key], gold[key], f"{where}.{key}")
    elif isinstance(gold, list):
        assert isinstance(value, list) and len(value) == len(gold), where
        for k, (v, g) in enumerate(zip(value, gold)):
            assert_matches(v, g, f"{where}[{k}]")
    else:
        assert (type(value), value) == (type(gold), gold), where


@pytest.mark.parametrize("name", sorted(GOLDEN_DECOMPOSE))
def test_decompose_matches_recorded_report(name, capsys):
    code = main(["decompose", "--example", name, "--format", "json"])
    gold = GOLDEN_DECOMPOSE[name]
    assert code == gold["exit"]
    assert_matches(json.loads(capsys.readouterr().out), gold["report"])


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_random_geometry_samples_are_bit_identical(closed, dim):
    for seed in range(3):
        geom = random_geometry(np.random.default_rng(seed), dim, closed_torsion=closed)
        digest = hashlib.sha256(geom.c.tobytes() + geom.H.coeffs.tobytes()).hexdigest()
        key = f"{'closed' if closed else 'open'} dim={dim} seed={seed}"
        assert digest == GOLDEN_SAMPLES[key], key


def sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CATALOG))
def test_catalog_geometries_are_bit_identical(name):
    geom, _ = CATALOG[name].build()
    assert {"c": sha256(geom.c), "H": sha256(geom.H.coeffs)} == GOLDEN_CATALOG[name]


def test_catalog_golden_covers_every_geometry_entry():
    assert sorted(GOLDEN_CATALOG) == sorted(n for n, e in CATALOG.items()
                                            if e.kind != "fibration")
