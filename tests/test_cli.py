"""Command-line interface: exit codes, document shapes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from regbvp import cli, gallery, spectral
from regbvp.model import spec_to_document
from regbvp.normalize import reduce_total_order
from regbvp.spectral import EigenRoot

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_regular_exit_zero(capsys):
    code, doc, _ = run_json(capsys, "classify", "mixed4")
    assert code == 0
    assert doc["birkhoff"]["regular"] is True
    assert doc["birkhoff"]["theta0"] == [-4.0, 0.0]
    assert doc["complete_regularity"]["verdict"] is False
    assert doc["normalized"]["kappa"] == 8


def test_classify_not_regular_exit_three(capsys):
    code, doc, _ = run_json(capsys, "classify", "cauchy2")
    assert code == 3
    assert doc["birkhoff"]["regular"] is False


def test_classify_completely_regular_payload(capsys):
    code, doc, _ = run_json(capsys, "classify", "robin2")
    assert code == 0
    frag = doc["complete_regularity"]
    assert frag["verdict"] is True
    assert frag["boundary_form"] == [[[1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [2.0, 0.0]]]
    assert frag["form_identity_residual"] <= 1e-8


def test_classify_unknown_input_exit_four(capsys):
    code, out, err = run_cli(capsys, "classify", "no_such_example")
    assert code == 4
    assert "no_such_example" in err


def test_classify_file_input_matches_gallery(tmp_path, capsys):
    path = tmp_path / "mixed4.json"
    path.write_text(json.dumps(spec_to_document(gallery.build("mixed4"))))
    code_f, doc_f, _ = run_json(capsys, "classify", str(path))
    code_g, doc_g, _ = run_json(capsys, "classify", "mixed4")
    assert code_f == code_g == 0
    doc_f.pop("input", None), doc_g.pop("input", None)
    assert doc_f == doc_g


def test_classify_corrupt_file_exit_four(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _out, err = run_cli(capsys, "classify", str(path))
    assert code == 4
    assert err


def test_classify_odd_order_marks_cr_not_applicable(tmp_path, capsys):
    doc = {"order": 3, "form": {"type": "model"},
           "boundary_conditions": [
               {"a": {"0": [1.0, 0.0]}, "b": {}},
               {"a": {"1": [1.0, 0.0]}, "b": {}},
               {"a": {}, "b": {"0": [1.0, 0.0]}}]}
    path = tmp_path / "order3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "classify", str(path))
    frag = out["complete_regularity"]
    assert frag["applicable"] is False
    assert "reason" in frag


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_document(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "dirichlet2", "--rmax", "16")
    assert code == 0
    assert doc["annulus"] == [0.5, 16.0]
    rhos = sorted(r["rho"][0] for r in doc["roots"])
    assert len(rhos) == 10  # +-pi j for j = 1..5
    assert doc["brackets"]["max_size"] <= 2
    assert doc["brackets"]["oversized"] is False
    assert doc["rarity"]["epsilon"] == pytest.approx(math.pi / 8)
    for sector in doc["rarity"]["sectors"]:
        assert sector["lag"] in (1, 2, 3, 4, None)
    kinds = {entry["kind"] for entry in doc["clearance"]["rays"]}
    assert kinds == {"critical", "bisector"}
    by_angle = {round(entry["angle"], 6): entry for entry in doc["clearance"]["rays"]}
    assert by_angle[0.0]["exit"] is None  # roots block the real axis
    assert by_angle[round(math.pi / 2, 6)]["exit"] == 0.0


def test_spectrum_empty_for_degenerate_rows(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "cauchy2", "--rmax", "12")
    assert code == 0
    assert doc["roots"] == []
    assert doc["distinct_eigenvalues"] == 0


def test_spectrum_multiplicities(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "periodic2", "--rmax", "14")
    assert code == 0
    mults = sorted(r["multiplicity"] for r in doc["roots"])
    assert mults == [2, 2, 2, 2]


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_spectrum_section_independent_of_search_radius(name):
    nbc = reduce_total_order(gallery.build(name).rows)
    narrow = spectral.find_roots(nbc, (cli.SPECTRUM_RMIN, cli.DEFAULT_RMAX))
    wide = spectral.roots_in(spectral.find_roots(nbc, (cli.SPECTRUM_RMIN, cli.REPORT_RADIUS)),
                             (cli.SPECTRUM_RMIN, cli.DEFAULT_RMAX))

    def text(roots):
        return json.dumps(cli._jsonable(cli.spectrum_document(nbc, roots)), sort_keys=True)

    assert text(narrow) == text(wide)


def test_root_digits_follow_error_bound():
    rho = complex(math.pi, 3e-16)
    doc = cli._root_document(EigenRoot(rho, rho ** 2, 1, 3e-17), 2)
    # the bound 2 eps (1 + pi) is below 12 digits: only the noise goes
    assert cli._jsonable(doc) == {"rho": [3.14159265359, 0.0],
                                  "lambda": [9.86960440109, 0.0],
                                  "multiplicity": 1, "residual": 1e-15}
    # residual 2e-9: bound 8.3e-9 on rho, 2 pi times that on lambda
    doc = cli._root_document(EigenRoot(rho, rho ** 2, 1, 2e-9), 2)
    assert cli._jsonable(doc) == {"rho": [3.1415927, 0.0],
                                  "lambda": [9.869604, 0.0],
                                  "multiplicity": 1, "residual": 1e-8}


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_green_document_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code, doc, _ = run_json(capsys, "scan", "dirichlet2", "green",
                            "--rmin", "8", "--rmax", "40", "--samples", "8",
                            "--grid", "24", "-o", str(csv_path))
    assert code == 0
    assert doc["kind"] == "green"
    assert doc["expected_exponent"] == -1.0
    assert abs(doc["exponent"] + 1.0) <= 0.3
    assert doc["decay_bound_satisfied"] is True
    assert doc["compensated_max_over_median"] <= 2.0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("abs_rho,")
    assert len(lines) == 9


def test_scan_resolvent_document(capsys):
    code, doc, _ = run_json(capsys, "scan", "dirichlet2", "resolvent",
                            "--rmin", "8", "--rmax", "40", "--samples", "6")
    assert code == 0
    assert doc["expected_exponent"] == -2.0
    assert abs(doc["exponent"] + 2.0) <= 0.4


def test_scan_flags_violation_for_degenerate_rows(capsys):
    code, doc, _ = run_json(capsys, "scan", "cauchy2", "green",
                            "--rmin", "5", "--rmax", "20", "--samples", "6",
                            "--grid", "16")
    assert code == 0
    assert doc["exponent"] >= 0.0
    assert doc["decay_bound_satisfied"] is False


def test_scan_blocked_ray_fails(capsys):
    code, _out, err = run_cli(capsys, "scan", "dirichlet2", "green",
                              "--ray", "0.0", "--rmin", "5", "--rmax", "20")
    assert code == 1
    assert "ray" in err


# ---------------------------------------------------------------------------
# numrange
# ---------------------------------------------------------------------------

def test_numrange_whole_plane(tmp_path, capsys):
    csv_path = tmp_path / "profiles.csv"
    code, doc, _ = run_json(capsys, "numrange", "mixed4", "--max-dim", "32",
                            "--angles", "32", "-o", str(csv_path))
    assert code == 0
    assert doc["verdict"] == "whole_plane"
    dims = [d for d, _m in doc["evidence"]]
    assert dims == [8, 16, 32]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,theta,sigma"
    assert len(lines) == 1 + 3 * 32


def test_numrange_half_plane(capsys):
    code, doc, _ = run_json(capsys, "numrange", "dirichlet2",
                            "--max-dim", "16", "--angles", "32")
    assert code == 0
    assert doc["verdict"] == "half_plane"


def test_numrange_evidence_rounded_to_error_bounds(capsys):
    code, doc, _ = run_json(capsys, "numrange", "mixed4", "--max-dim", "16")
    assert code == 0
    bounds = dict(doc["error_bounds"])
    assert sorted(bounds) == [8, 16]
    for dim, value in doc["evidence"]:
        # printed at the power of ten at or above 10x the bound, which is
        # ten times the bound as printed (a power of ten rounded up)
        quantum = 10.0 * bounds[dim]
        assert math.log10(bounds[dim]) == round(math.log10(bounds[dim]))
        assert abs(value / quantum - round(value / quantum)) <= 1e-6


def test_bound_rounding_rules():
    assert cli._round_to_bound(6.5198704886802, 8.09e-10) == 6.51987049
    assert cli._round_to_bound(942.504811632179, 4.01e-3) == 942.5
    assert cli._round_to_bound(-4.1e-20, 4.3e-17) == 0.0
    # a quantum finer than 12 significant digits is left to _sig
    assert cli._round_to_bound(1923267.4780295606, 7.89e-8) == 1923267.4780295606
    assert cli._sig(cli._round_to_bound(1923267.4780295606, 7.89e-8)) == 1923267.47803
    assert cli._round_to_bound(2.5, 0.0) == 2.5
    assert cli._decade_above(8.09e-10) == 1e-9
    assert cli._decade_above(1e-9) == 1e-9
    assert cli._decade_above(0.0) == 0.0


def test_numrange_odd_order_not_applicable(tmp_path, capsys):
    doc = {"order": 3, "form": {"type": "model"},
           "boundary_conditions": [
               {"a": {"0": [1.0, 0.0]}, "b": {}},
               {"a": {"1": [1.0, 0.0]}, "b": {}},
               {"a": {}, "b": {"0": [1.0, 0.0]}}]}
    path = tmp_path / "order3.json"
    path.write_text(json.dumps(doc))
    code, out, _err = run_cli(capsys, "numrange", str(path))
    assert code == 4
    payload = json.loads(out)
    assert payload["applicable"] is False


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_deterministic_bytes(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(["report", "dirichlet2", "-o", str(first)]) == 0
    assert cli.main(["report", "dirichlet2", "-o", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_report_sections_and_timings_flag(capsys):
    code, doc, _ = run_json(capsys, "report", "robin2")
    assert code == 0
    for key in ("tool", "input", "spec", "classification", "spectrum",
                "basis_conditioning", "numerical_range", "green_decay",
                "resolvent_decay"):
        assert key in doc, key
    assert "timings" not in doc

    code, doc, _ = run_json(capsys, "report", "robin2", "--timings")
    assert code == 0
    assert "timings" in doc


def test_report_keeps_partial_failures(capsys):
    code, doc, _ = run_json(capsys, "report", "cauchy2")
    assert code == 0
    assert doc["classification"]["birkhoff"]["regular"] is False
    assert doc["numerical_range"]["verdict"] == "whole_plane"
    assert doc["green_decay"]["decay_bound_satisfied"] is False
    # no eigenfunction family exists; the error is recorded, not raised
    assert "error" in doc["basis_conditioning"]


@pytest.mark.parametrize("name", ["dirichlet2", "mixed4", "cauchy2"])
def test_report_matches_golden(name, tmp_path, capsys):
    golden = os.path.join(GOLDEN_DIR, f"report_{name}.json")
    out = tmp_path / "report.json"
    assert cli.main(["report", name, "-o", str(out)]) == 0
    capsys.readouterr()
    with open(golden, "rb") as handle:
        assert out.read_bytes() == handle.read()


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_report_searches_roots_once(name, tmp_path, monkeypatch, capsys):
    annuli = []
    search = spectral.find_roots

    def counted(nbc, annulus, sector=None, **kwargs):
        annuli.append((annulus, sector))
        return search(nbc, annulus, sector, **kwargs)

    monkeypatch.setattr(spectral, "find_roots", counted)
    assert cli.main(["report", name, "-o", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert annuli == [((0.5, 66.5), None)]


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, regbvp.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
