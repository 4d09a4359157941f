import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import torsiongeo
from torsiongeo.catalog import CATALOG, _flat, _su2, catalog_entry, epsilon3
from torsiongeo.cli import main
from torsiongeo.frame_algebra import FrameTensor, antisymmetrize, basis_form, index_tuples
from torsiongeo.geometry_io import (
    _c_from_field,
    form_to_sparse,
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    save_geometry,
    sparse_form,
    structures_from_dict,
    structures_to_dict,
)
from torsiongeo.invariant_geometry import LieFrameGeometry, bianchi_report, direct_sum
from torsiongeo.random_geometry import random_geometry
from torsiongeo.special_structures import (
    build_g2,
    build_spin7,
    build_su3,
    standard_quaternion_triple,
    structure_reports,
)

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
    geom = direct_sum(_su2(1.25), _flat(3), name="block")
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
    save_geometry(path, geom, extra=structures_to_dict({"triple": triple}))
    loaded, raw = load_geometry(path)
    assert np.abs(loaded.c - geom.c).max() == 0.0
    structures = structures_from_dict(raw, 8)
    assert np.abs(structures["triple"][1] - triple[1]).max() == 0.0


def test_structures_to_dict_refuses_triple_and_J_together():
    triple = standard_quaternion_triple()
    with pytest.raises(ValueError, match="not both"):
        structures_to_dict({"triple": triple, "J": triple[0]})


def test_structures_dict_rejects_partial_triple():
    with pytest.raises(ValueError):
        structures_from_dict({"I1": [[0, 1, 1.0]], "I2": [[0, 1, 1.0]]}, 4)


def test_structures_dict_repeated_entry_keeps_last_value():
    J = structures_from_dict({"I1": [[0, 1, 1.0], [1, 0, -1.0], [0, 1, 2.5],
                                     [2, 3, 1.0], [3, 2, -1.0]]}, 4)["J"]
    assert J[0, 1] == 2.5 and J[1, 0] == -1.0


def _random_entries(rng, dim: int, arity: int, count: int, distinct: slice):
    """Entries [*idx, value] with unsorted index tuples, some of them
    repeated, and some values -0.0 or integers."""
    entries = []
    for _ in range(count):
        idx = rng.integers(0, dim, arity)
        idx[distinct] = rng.choice(dim, len(idx[distinct]), replace=False)
        value = [float(rng.standard_normal()), -0.0, int(rng.integers(-3, 4))][rng.integers(3)]
        entries.append([*idx.tolist(), value])
    return entries + [entries[i] for i in rng.integers(0, count, count // 3)]


@pytest.mark.parametrize("dim, rank", [(dim, rank) for dim in range(3, 9)
                                       for rank in range(1, min(dim, 4) + 1)])
def test_sparse_form_matches_per_entry_sum(dim, rank):
    rng = np.random.default_rng([dim, rank])
    for count in (1, 5, 40):
        entries = _random_entries(rng, dim, rank, count, slice(None))
        expected = np.zeros(len(index_tuples(dim, rank)))
        for *idx, val in entries:
            expected = expected + val * basis_form(dim, idx).coeffs
        assert sparse_form(dim, rank, entries).coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", range(3, 9))
def test_sparse_c_matches_sequential_loop(dim):
    rng = np.random.default_rng(dim)
    entries = _random_entries(rng, dim, 3, 60, slice(1, 3))
    expected = np.zeros((dim, dim, dim))
    for a, b, cc, val in entries:
        expected[a, b, cc] += val
        expected[a, cc, b] -= val
    assert _c_from_field(dim, entries).tobytes() == expected.tobytes()


def _assert_bit_exact_round_trip(geom, structures, path):
    save_geometry(path, geom, extra=structures_to_dict(structures))
    assert path.read_text().count("\n") == 1          # one JSON line
    loaded, raw = load_geometry(path)
    assert loaded.name == geom.name
    # exact equality: a file stores no zeros, so a -0.0 reads back as 0.0
    assert np.array_equal(loaded.c, geom.c)
    assert np.array_equal(loaded.H.coeffs, geom.H.coeffs)
    back = structures_from_dict(raw, loaded.dim)
    assert list(back) == list(structures)
    for key, value in structures.items():
        read = back[key]
        if isinstance(value, FrameTensor):
            value, read = value.coeffs, read.coeffs
        assert np.array_equal(read, value)


@pytest.mark.parametrize("dim", range(3, 9))
@pytest.mark.parametrize("closed", [False, True])
def test_random_geometry_file_round_trip_bit_exact(dim, closed, tmp_path):
    geom = random_geometry(np.random.default_rng([dim, closed]), dim,
                           closed_torsion=closed)
    _assert_bit_exact_round_trip(geom, {}, tmp_path / "geom.json")


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.kind != "fibration"])
def test_catalog_file_round_trip_bit_exact(name, tmp_path):
    _assert_bit_exact_round_trip(*catalog_entry(name).build(), tmp_path / "geom.json")


def test_import_leaves_scipy_unloaded():
    # scipy is only needed by the dilaton solver, so it loads on first use
    probe = ("import sys, torsiongeo, torsiongeo.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
             "print(torsiongeo.monotone_iterate is torsiongeo.dilaton.monotone_iterate)\n")
    src = pathlib.Path(torsiongeo.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split("\n")[:2] == ["[]", "True"]


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
    from torsiongeo.frame_algebra import basis_form
    geom = LieFrameGeometry(6, direct_sum(_su2(), _su2()).c, basis_form(6, (0, 3, 4)))
    path = tmp_path / "bad_geom.json"
    save_geometry(path, geom)
    out = tmp_path / "rep.json"
    code = run_cli(["decompose", "--input", str(path), "--format", "json",
                    "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False and "hypotheses" in rep["error"]


def test_cli_decompose_split_check_failure_is_a_report(tmp_path):
    # dH and nabla^ H pass at --tol 1e-3, but H mixes the su(2) block
    # with the flat one: the split's own check refuses with a report
    from torsiongeo.frame_algebra import basis_form
    block = direct_sum(_su2(), _flat(2))
    geom = LieFrameGeometry(5, block.c, block.H + 1e-3 * basis_form(5, (0, 3, 4)))
    path = tmp_path / "mixed.json"
    save_geometry(path, geom)
    out = tmp_path / "rep.json"
    code = run_cli(["decompose", "--input", str(path), "--tol", "1e-3",
                    "--format", "json", "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False and "verdict" not in rep
    assert "cross-cluster torsion mixing" in rep["error"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_cli_tol_must_be_positive_and_finite(command, tol, tmp_path, capsys):
    # torsion that is not closed: no tolerance may certify it
    from torsiongeo.frame_algebra import basis_form
    geom = LieFrameGeometry(6, direct_sum(_su2(), _su2()).c, basis_form(6, (0, 3, 4)))
    path = tmp_path / "geom.json"
    save_geometry(path, geom)
    out = tmp_path / "rep.json"
    assert run_cli([command, "--input", str(path), f"--tol={tol}",
                    "--output", str(out)]) == 2
    assert not out.exists()
    assert "input error" in capsys.readouterr().err


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
    save_geometry(path, geom, extra=structures_to_dict({"triple": triple}))
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


BAD_GEOMETRY_FILES = [
    {"dim": 3, "c": [[0, 1, 2, 1.0]], "H": [[0, 1, 9, 1.0]]},
    {"dim": 3, "c": [[0, 1, 9, 1.0]], "H": [[0, 1, 2, 1.0]]},
    {"dim": 3, "c": [[0, 1, 2, 1.0]], "H": [[0, 1, -1, 1.0]]},
    {"dim": 3, "c": [[-1, 0, 1, 1.0]], "H": [[0, 1, 2, 1.0]]},
    {"dim": 3, "c": [[0, 1, 2, 1.0]], "H": [[0, 1, 2.5, 1.0]]},
    {"dim": 3, "c": [[0, 1, 2, float("nan")]], "H": [[0, 1, 2, 1.0]]},
    {"dim": 3, "c": [[0, 1, 1, 5.0]], "H": [[0, 1, 2, 1.0]]},
]
BAD_STRUCTURE_FILES = [
    {"dim": 4, "I1": [[0, 9, 1.0]]},
    {"dim": 4, "I1": [[0, -1, 1.0]]},
    {"dim": 6, "phi": [[0, 1, 2, 1.0]]},
    {"dim": 3, "I1": [[0, 1, 1.0], [1, 0, -1.0]]},
    {"dim": 6, "I1": [[0, 1, 1.0]], "I2": [[0, 2, 1.0]], "I3": [[0, 3, 1.0]]},
]

# a non-finite entry in one structure, or in the third of a triple
NON_FINITE_STRUCTURE_FILES = [
    {"dim": 4, "I1": [[0, 1, float("nan")], [1, 0, -1.0]]},
    {"dim": 4, "I1": [[0, 1, 1.0], [1, 0, -1.0], [2, 3, 1.0], [3, 2, -1.0]],
     "I2": [[0, 2, 1.0], [2, 0, -1.0], [1, 3, -1.0], [3, 1, 1.0]],
     "I3": [[0, 3, float("inf")]]},
]

# su(2) structure constants under a size that is not an integer
SU2_C = [[0, 1, 2, 1.0], [1, 0, 2, -1.0], [2, 0, 1, 1.0]]
NON_INTEGER_DIM_FILES = [
    {"dim": 3.9, "c": SU2_C},
    {"dim": 3.0, "c": SU2_C},
    {"dim": True},
    {"dim": "3", "c": SU2_C},
]

# a value that is not a finite real number (a string, a bool, null) in
# sparse or dense c, in H, or in a structure key
SU2_DENSE = epsilon3().tolist()
NON_REAL_VALUE_FILES = [
    {"dim": 3, "c": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]],
     "H": [[0, 1, 2, True]]},
    {"dim": 3, "c": [[0, 1, 2, True], [1, 2, 0, 1.0], [2, 0, 1, 1.0]]},
    {"dim": 3, "c": [[0, 1, 2, None], [1, 2, 0, 1.0], [2, 0, 1, 1.0]]},
    {"dim": 3, "c": SU2_C, "H": [[0, 1, 2, "1.0"]]},
    {"dim": 3, "c": [[[str(v) for v in row] for row in block] for block in SU2_DENSE]},
    {"dim": 3, "c": [[[True if v > 0 else v for v in row] for row in block]
                     for block in SU2_DENSE]},
    {"dim": 4, "I1": [[0, 1, True], [1, 0, -1.0], [2, 3, 1.0], [3, 2, -1.0]]},
    {"dim": 7, "phi": [[0, 1, 2, "1"]]},
    {"dim": 8, "Phi": [[0, 1, 2, 3, False]]},
]


@pytest.mark.parametrize("command, doc",
                         [("verify", d) for d in BAD_GEOMETRY_FILES + BAD_STRUCTURE_FILES]
                         + [("decompose", d) for d in BAD_GEOMETRY_FILES]
                         # last, so that the positional ids of the cases above stay put
                         + [("verify", {"dim": 6, "Phi": [[0, 1, 2, 3, 1.0]]})]
                         + [("verify", d) for d in NON_FINITE_STRUCTURE_FILES]
                         + [(cmd, {"dim": float("inf")}) for cmd in ("verify", "decompose")]
                         + [(cmd, doc) for doc in NON_INTEGER_DIM_FILES
                            for cmd in ("verify", "decompose")]
                         + [("decompose", d) for d in BAD_STRUCTURE_FILES]
                         + [(cmd, doc) for doc in NON_REAL_VALUE_FILES
                            for cmd in ("verify", "decompose")])
def test_cli_malformed_geometry_file_exit_2(command, doc, tmp_path, capsys):
    doc = {"c": [], "H": [], **doc}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli([command, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err


def test_cli_verify_phi_file_runs_geometry_reports_once(tmp_path, monkeypatch):
    from torsiongeo import cli
    calls = []
    monkeypatch.setattr(cli, "bianchi_report",
                        lambda *a, **k: calls.append(a) or bianchi_report(*a, **k))
    geom, structures = catalog_entry("g2-su2-product").build()
    path = tmp_path / "g2.json"
    save_geometry(path, geom, extra=structures_to_dict(structures))
    assert run_cli(["verify", "--input", str(path), "--output", str(tmp_path / "r")]) == 0
    assert len(calls) == 1


def test_cli_verify_non_cayley_phi_fails(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"dim": 8, "c": [], "H": [], "Phi": [[0, 1, 2, 3, 1.0]]}))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)]) == 1
    spin7 = [r for r in json.loads(out.read_text())["reports"] if r["title"] == "spin7"]
    assert len(spin7) == 1 and spin7[0]["passed"] is False


def test_cli_verify_phi_on_flat_torsion_fails_nabla_hat_phi(tmp_path):
    # flat R^7 (c = 0) with H = e123: the standard phi is not parallel for
    # the torsion connection (nabla^ phi = 0.5), so the g2 report fails
    geom = LieFrameGeometry(7, np.zeros((7, 7, 7)), basis_form(7, [0, 1, 2]))
    path = tmp_path / "g2.json"
    save_geometry(path, geom, extra=structures_to_dict({"phi": build_g2("standard")}))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)]) == 1
    g2 = [r for r in json.loads(out.read_text())["reports"] if r["title"] == "g2-positivity"]
    assert len(g2) == 1 and g2[0]["passed"] is False
    failed = {row["name"]: row["value"] for row in g2[0]["rows"] if not row["passed"]}
    assert failed == {"nabla_hat_phi": pytest.approx(0.5, abs=1e-12)}


@pytest.mark.parametrize("h_sign, code", [(1, 1), (-1, 0)])
def test_cli_verify_spin7_checks_phi_against_the_torsion(h_sign, code, tmp_path):
    # su(2) + R^5 with H = h_sign epsilon on the su(2) block, and Phi the
    # Cayley form of the g2-su2-product 3-form: nabla^ Phi is 1 for
    # H = +epsilon and 0 for H = -epsilon, which the spin7 report gates
    _, structures = catalog_entry("g2-su2-product").build()
    geom = direct_sum(_su2(float(h_sign)), _flat(5))
    path = tmp_path / "spin7.json"
    save_geometry(path, geom,
                  extra=structures_to_dict({"Phi": build_spin7(structures["phi"])}))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)]) == code
    spin7 = [r for r in json.loads(out.read_text())["reports"] if r["title"] == "spin7"]
    assert len(spin7) == 1 and spin7[0]["passed"] is (code == 0)
    rows = {row["name"]: row for row in spin7[0]["rows"]}
    assert rows["nabla_hat_Phi"]["value"] == pytest.approx(float(h_sign == 1), abs=1e-12)
    assert [n for n, row in rows.items() if not row["passed"]] == \
        (["nabla_hat_Phi"] if code else [])


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.kind != "fibration"])
def test_cli_verify_file_matches_example(name, tmp_path):
    geom, structures = catalog_entry(name).build()
    path = tmp_path / "geom.json"
    save_geometry(path, geom, extra=structures_to_dict(structures))
    reports = []
    for source in (["--example", name], ["--input", str(path)]):
        out = tmp_path / "rep.json"
        code = run_cli(["verify", *source, "--format", "json", "--output", str(out)])
        reports.append((code, json.loads(out.read_text())["reports"]))
    assert reports[0] == reports[1]


def _single_J_on_su2su2_plus_abelian2():
    # the Hopf-surface complex structure on each u(2) = R + su(2) block,
    # parallel for H = -epsilon
    J = np.zeros((8, 8))
    for block in ((6, 0, 1, 2), (7, 3, 4, 5)):
        J[np.ix_(block, block)] = standard_quaternion_triple()[0]
    return direct_sum(_su2(-1.0), _su2(-1.0), _flat(2)), {"J": J}


STRUCTURE_CASES = {
    "triple": lambda: catalog_entry("su3-hkt").build(),
    "J": _single_J_on_su2su2_plus_abelian2,
    "phi": lambda: catalog_entry("g2-su2-product").build(),
    "Phi": lambda: catalog_entry("spin7-standard").build(),
}


@pytest.mark.parametrize("key", list(STRUCTURE_CASES))
def test_structures_round_trip_and_verify_as_in_memory(key, tmp_path):
    geom, structures = STRUCTURE_CASES[key]()
    assert list(structures) == [key]
    path = tmp_path / "geom.json"
    save_geometry(path, geom, extra=structures_to_dict(structures))
    loaded, raw = load_geometry(path)
    back = structures_from_dict(raw, loaded.dim)
    assert list(back) == [key]
    value, read = structures[key], back[key]
    if isinstance(value, FrameTensor):
        value, read = value.coeffs, read.coeffs
    assert np.array_equal(read, value)
    expected = [r.to_dict() for r in structure_reports(geom, structures, 1e-10)]
    out = tmp_path / "rep.json"
    code = run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["reports"][-1:] == expected


@pytest.mark.parametrize("scale, code", [(100.0, 0), (1e3, 1)])
def test_cli_verify_scaled_su3_hkt_completes(scale, code, tmp_path):
    # su3-hkt with c and H scaled: its Weitzenboeck curvature term cancels
    # to roundoff from terms of size ~scale^3, which must not stop the run
    geom, structures = catalog_entry("su3-hkt").build()
    path = tmp_path / "su3.json"
    save_geometry(path, LieFrameGeometry(8, scale * geom.c, scale * geom.H),
                  extra=structures_to_dict(structures))
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--input", str(path), "--format", "json",
                    "--output", str(out)]) == code
    reports = json.loads(out.read_text())["reports"]
    # every report is there, through the last structure report
    assert [r["title"] for r in reports][-3:] \
        == ["bochner-weitzenboeck", "connection-survey", "hkt"]
    bwf = [row for r in reports for row in r["rows"] if row["name"] == "bwf_residual"]
    assert [row["passed"] for row in bwf] == [code == 0]


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


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_cli_topology_kmax_below_one_exit_2(kmax, tmp_path, capsys):
    cp2 = tmp_path / "cp2.json"
    cp2.write_text(json.dumps({"k": 1, "n": [1], "chi": 3, "tau": -1}))
    assert run_cli(["topology", "--input", str(cp2), f"--kmax={kmax}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err


NAN, INF = float("nan"), float("inf")
NON_FINITE_DILATON_FILES = [
    {"grid": [8, 8], "tol": INF},
    {"grid": [8, 8], "tol": NAN},
    {"grid": [8, 8], "spacing": NAN},
    {"grid": [8, 8], "spacing": INF},
    {"grid": [3, 3], "w": [4.0] * 4 + [NAN] + [4.0] * 4},
    {"grid": [3, 3], "w": [4.0] * 4 + [INF] + [4.0] * 4},
    {"grid": [3, 3], "w": {"f_u1_sq": [2.0] * 4 + [NAN] + [2.0] * 4,
                           "f_minus_sq": [6.0] * 9}},
    {"grid": [8, 8], "max_iter": INF},
    {"grid": [INF, 8]},
    {"grid": [8, 8], "scalar_curvature": [1.0] * 63 + [NAN], "h": 1.0},
    {"grid": [8, 8], "scalar_curvature": 1.0, "h": INF},
]

# sizes and topological numbers must be integers: no floats, no bools
NON_INTEGER_DILATON_FILES = [
    {"grid": [16.7, 16]},
    {"grid": [8, 8.0]},
    {"grid": [True, 8]},
    {"grid": [8, 8], "max_iter": 10.5},
    {"grid": [8, 8], "max_iter": 100.0},
]
NON_INTEGER_TOPOLOGY_FILES = [
    {"k": 1.0, "n": [1], "chi": 3, "tau": -1},
    {"k": 1, "n": [1.5], "chi": 3, "tau": -1},
    {"k": 1, "n": [1], "chi": 3.2, "tau": -1},
    {"k": 1, "n": [1], "chi": 3, "tau": -1.0},
    {"k": 1, "n": [True], "chi": 3, "tau": -1},
]

# the fibration diagnostics inputs: R a number or one per node, h a
# number, and both or neither of them
MALFORMED_DIAGNOSTICS_FILES = [
    {"grid": [8, 8], "scalar_curvature": [1, 2, 3], "h": 0.5},
    {"grid": [8, 8], "scalar_curvature": 1.0, "h": [0.5, 1]},
    {"grid": [8, 8], "scalar_curvature": 1.0},
    {"grid": [8, 8], "h": 0.5},
]

# w, the recipe fields and scalar_curvature are flat lists of numbers:
# no strings, no bools, no grid-shaped nesting
NON_FLAT_REAL_DILATON_FILES = [
    {"grid": [8, 8], "w": ["4"] * 64},
    {"grid": [8, 8], "w": [True] * 64},
    {"grid": [8, 8], "w": [[4.0] * 8] * 8},
    {"grid": [8, 8], "w": [[4.0]] * 64},
    {"grid": [8, 8], "w": {"f_u1_sq": [[2.0] * 8] * 8, "f_minus_sq": [[6.0] * 8] * 8}},
    {"grid": [8, 8], "w": {"f_u1_sq": [2.0] * 64, "f_minus_sq": ["6"] * 64}},
    {"grid": [8, 8], "scalar_curvature": [[1.0] * 8] * 8, "h": 0.5},
    {"grid": [8, 8], "scalar_curvature": ["1"] * 64, "h": 0.5},
    {"grid": [8, 8], "scalar_curvature": True, "h": 0.5},
    {"grid": [8, 8], "scalar_curvature": "1", "h": 0.5},
]


@pytest.mark.parametrize("command, doc",
                         [("dilaton", d) for d in NON_FINITE_DILATON_FILES]
                         + [("topology", {"k": INF, "chi": 2, "tau": 0})]
                         + [("dilaton", d) for d in NON_INTEGER_DILATON_FILES]
                         + [("topology", d) for d in NON_INTEGER_TOPOLOGY_FILES]
                         + [("dilaton", d) for d in MALFORMED_DIAGNOSTICS_FILES]
                         + [("dilaton", d) for d in NON_FLAT_REAL_DILATON_FILES])
def test_cli_non_finite_input_exit_2(command, doc, tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    assert run_cli([command, "--input", str(prob)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("command, doc", [
    ("dilaton", {"grid": [8, 8]}),
    ("topology", {"k": 1, "n": [1], "chi": 3, "tau": -1}),
])
def test_cli_tol_only_on_geometry_commands(command, doc, tmp_path, capsys):
    # neither runner has a tolerance to set: the flag is a usage error
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--input", str(prob), "--tol", "1e-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol" in err


@pytest.mark.parametrize("lam", [NAN, INF])
def test_cli_dilaton_non_finite_lambda_rejected(lam, tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"grid": [8, 8], "lambda": lam}))
    out = tmp_path / "x.json"
    assert run_cli(["dilaton", "--input", str(prob), "--format", "json",
                    "--output", str(out)]) == 1
    assert "must be finite" in json.loads(out.read_text())["error"]


@pytest.mark.parametrize("doc, message", [
    ({"grid": [0, 8]}, "torus sides must be at least 3"),
    ({"grid": [8, 8], "lambda": "foo"}, "lambda must be"),
    ({"grid": [8, 8], "lambda": True}, "lambda must be"),
    ({"grid": [8, 8], "lambda": [5]}, "lambda must be"),
    ({"grid": [8, 8], "lambda": None}, "lambda must be"),
])
def test_cli_dilaton_bad_grid_or_lambda_exit_2(doc, message, tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    assert run_cli(["dilaton", "--input", str(prob)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err and message in err


@pytest.mark.parametrize("key", ["tol", "spacing", "h"])
@pytest.mark.parametrize("value", [True, False, "1e-3", None, [0.5]])
def test_cli_dilaton_non_numeric_real_exit_2(key, value, tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"grid": [8, 8], "scalar_curvature": 1.0, key: value}))
    assert run_cli(["dilaton", "--input", str(prob)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err and f"{key} must be a finite real number" in err


def test_cli_dilaton_256_sine_bump(tmp_path):
    # ||Au - b|| / ||b|| exceeds 1e-12 here; the backward error does not
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"grid": [256, 256], "spacing": 2 * np.pi / 256,
                                "w": "sine-bump"}))
    out = tmp_path / "sol.json"
    assert run_cli(["dilaton", "--input", str(prob), "--format", "json",
                    "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trace"]["converged"] is True
    assert rep["trace"]["monotone_ok"] and rep["trace"]["bounds_ok"]
