import json

import numpy as np
import pytest

from torsiongeo.catalog import CATALOG, catalog_entry, epsilon3
from torsiongeo.cli import main
from torsiongeo.frame_algebra import FrameTensor, antisymmetrize
from torsiongeo.geometry_io import (
    form_to_sparse,
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    save_geometry,
    sparse_form,
    structures_from_dict,
    structures_to_dict,
)
from torsiongeo.invariant_geometry import LieFrameGeometry
from torsiongeo.special_structures import build_su3

RNG = np.random.default_rng(7321)


# ------------------------------------------------------------------- files

def test_sparse_form_round_trip_bit_exact():
    H = FrameTensor(5, 3, antisymmetrize(RNG.standard_normal((5, 5, 5))))
    entries = form_to_sparse(H)
    back = sparse_form(5, 3, entries)
    assert np.array_equal(back.components, sparse_form(5, 3,
                          form_to_sparse(back)).components)
    # values survive the round trip without any quantization
    again = form_to_sparse(back)
    assert [e[-1] for e in again] == [e[-1] for e in entries]


def test_geometry_dict_round_trip():
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = epsilon3()
    H = np.zeros((6, 6, 6))
    H[:3, :3, :3] = 1.25 * epsilon3()
    geom = LieFrameGeometry(6, c, FrameTensor(6, 3, H), name="block")
    data = geometry_to_dict(geom)
    back = geometry_from_dict(data)
    assert np.array_equal(back.c, geom.c)
    assert np.array_equal(back.H.components, geom.H.components)
    assert back.name == "block"
    # second round trip is bit-identical at the JSON level
    assert json.dumps(geometry_to_dict(back)) == json.dumps(data)


def test_geometry_nested_c_accepted():
    c = epsilon3()
    data = {"name": "nested", "dim": 3, "c": c.tolist(),
            "H": form_to_sparse(FrameTensor(3, 3, c))}
    geom = geometry_from_dict(data)
    assert np.array_equal(geom.c, c)


def test_geometry_file_round_trip(tmp_path):
    geom, triple = build_su3()
    path = tmp_path / "su3.json"
    save_geometry(path, geom, extra=structures_to_dict(triple=triple))
    loaded, raw = load_geometry(path)
    assert np.abs(loaded.c - geom.c).max() == 0.0
    structures = structures_from_dict(raw, 8)
    assert np.abs(structures["triple"].I2.J - triple.I2.J).max() == 0.0


def test_structures_dict_rejects_partial_triple():
    with pytest.raises(ValueError):
        structures_from_dict({"I1": [[0, 1, 1.0]], "I2": [[0, 1, 1.0]]}, 4)


# --------------------------------------------------------------------- cli

def run_cli(args):
    return main(args)


def test_cli_catalog_lists_frozen_names(capsys):
    assert run_cli(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("su2-biinvariant", "su2su2", "su2-plus-abelian3", "su3-hkt",
                 "flat-r4-quaternion", "g2-standard", "g2-su2-product",
                 "spin7-standard", "su3-fibration"):
        assert name in out


@pytest.mark.parametrize("name", list(CATALOG))
def test_cli_verify_catalog_all_pass(name, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--example", name, "--format", "json",
                    "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_cli_verify_flat_connection_detection(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--example", "su2-biinvariant",
                    "--format", "json", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    survey = [r for r in report["reports"]
              if r["title"] == "connection-survey"][0]
    values = {row["name"]: row["value"] for row in survey["rows"]}
    assert min(values.values()) < 1e-12


def test_cli_decompose_desk_cases(tmp_path):
    out = tmp_path / "d.json"
    assert run_cli(["decompose", "--example", "su2-plus-abelian3",
                    "--format", "json", "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["kernel_dim"] == 3
    assert rep["result"]["block_names"] == ["su(2)"]
    assert run_cli(["decompose", "--example", "su3-hkt",
                    "--format", "json", "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["kernel_dim"] == 0
    assert rep["result"]["block_names"] == ["su(3)"]
    assert "su(3)" in rep["verdict"]


def test_cli_decompose_hypothesis_failure(tmp_path):
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = epsilon3()
    c[3:, 3:, 3:] = epsilon3()
    from torsiongeo.frame_algebra import basis_form
    geom = LieFrameGeometry(6, c, basis_form(6, (0, 3, 4)))
    path = tmp_path / "bad_geom.json"
    save_geometry(path, geom)
    out = tmp_path / "rep.json"
    code = run_cli(["decompose", "--input", str(path), "--format", "json",
                    "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False and "hypotheses" in rep["error"]


def test_cli_decompose_refuses_fibration_data(tmp_path):
    # the fibration entry is principal-curvature data, not a Lie frame:
    # a mathematical refusal with a report, not a crash
    out = tmp_path / "rep.json"
    code = run_cli(["decompose", "--example", "su3-fibration", "--format", "json",
                    "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False and "verdict" not in rep
    assert "Lie-frame geometry" in rep["error"]


def test_cli_parser_built_once():
    from torsiongeo.cli import build_parser
    assert build_parser() is build_parser()


def test_cli_verify_from_file(tmp_path):
    geom, triple = build_su3()
    from torsiongeo.geometry_io import structures_to_dict
    path = tmp_path / "su3.json"
    save_geometry(path, geom, extra=structures_to_dict(triple=triple))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    titles = [r["title"] for r in rep["reports"]]
    assert "hkt" in titles


def test_cli_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    out = tmp_path / "never.json"
    code = run_cli(["verify", "--input", str(bad), "--output", str(out)])
    assert code == 2
    assert not out.exists()          # no report on input errors


def test_cli_topology_and_negative_control(tmp_path):
    cp2 = tmp_path / "cp2.json"
    cp2.write_text(json.dumps({"k": 1, "n": [1], "chi": 3, "tau": -1}))
    out = tmp_path / "t.json"
    assert run_cli(["topology", "--input", str(cp2), "--format", "json",
                    "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["classes"]["obstruction"] == 0
    assert rep["classes"]["c2E"] == -1
    assert rep["diophantine_solutions"] == [{"k": 1, "n": [1]},
                                            {"k": 4, "n": [0, 0, 0, 0]}]
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps({"k": 0, "n": [], "chi": 2, "tau": 0}))
    code = run_cli(["topology", "--input", str(s4), "--format", "json",
                    "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["classes"]["obstruction"] == 4
    assert rep["verdict"].startswith("no HKT fibration")


def test_cli_dilaton_constant_preset(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"grid": [12, 12], "spacing": 0.5,
                                "w": "constant4", "tol": 1e-10,
                                "lambda": "auto", "max_iter": 100}))
    out = tmp_path / "sol.json"
    assert run_cli(["dilaton", "--input", str(prob), "--format", "json",
                    "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    u = np.array(rep["u"])
    assert np.abs(u - 2.0).max() < 1e-8
    assert rep["trace"]["converged"] is True
    assert rep["residual_sup"] < 1e-8


def test_cli_dilaton_rejected_lambda(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"grid": [8, 8], "w": "constant4",
                                "lambda": 1.0}))
    code = run_cli(["dilaton", "--input", str(prob), "--format", "json",
                    "--output", str(tmp_path / "x.json")])
    assert code == 1


def test_cli_reports_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--example", "su2su2", "--format", "json",
             "--output", str(out1)])
    run_cli(["verify", "--example", "su2su2", "--format", "json",
             "--output", str(out2)])
    assert out1.read_text() == out2.read_text()
    # JSON round-trips bit-exactly
    rep = json.loads(out1.read_text())
    assert json.dumps(rep, indent=1) + "\n" == out1.read_text()


def test_catalog_entry_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("no-such-example")


def test_cli_dilaton_w_recipe(tmp_path):
    nodes = 8 * 8
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "grid": [8, 8], "spacing": 0.7,
        "w": {"f_u1_sq": [2.0] * nodes, "f_minus_sq": [6.0] * nodes},
        "tol": 1e-10}))
    out = tmp_path / "sol.json"
    assert run_cli(["dilaton", "--input", str(prob), "--format", "json",
                    "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert np.abs(np.array(rep["u"]) - 2.0).max() < 1e-8
