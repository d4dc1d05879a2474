"""Command-line interface: exit codes, document shapes, determinism."""

import argparse
import ast
import cmath
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from decimal import Decimal

import pytest

from conftest import clearance_roots, count_calls
from regbvp import birkhoff, cli, gallery, geometry, quasiform, spectral
from regbvp.model import ClassicalForm, OperatorSpec, Poly, spec_to_document
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


@pytest.mark.parametrize("residual", [9.46e-16, 1.066e-15])
def test_form_identity_residual_prints_its_rounding_decade(monkeypatch, capsys, residual):
    """Two equally accurate derivative matrices give dirichlet2 the
    residuals 9.46e-16 and 1.066e-15.  The printed decade rests on the
    (N + n) eps rounding model, so both print 1e-14 instead of falling on
    either side of 1e-15."""
    monkeypatch.setattr(quasiform, "verify_form_identity", lambda spec: residual)
    code, doc, _ = run_json(capsys, "classify", "dirichlet2")
    assert code == 0
    assert doc["complete_regularity"]["form_identity_residual"] == 1e-14


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


def test_classify_rejected_spec_file_exit_four(tmp_path, capsys):
    doc = spec_to_document(gallery.build("dirichlet2"))
    doc["boundary_conditions"][0] = {"a": {"0": [0.0, 0.0]}}
    path = tmp_path / "zero_row.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 4
    assert out == ""
    assert "boundary row 0 is identically zero" in err


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


def test_classify_classical_spec_file(tmp_path, capsys):
    spec = OperatorSpec(2, ClassicalForm({2: Poly((0, 5))}), gallery.build("dirichlet2").rows)
    path = tmp_path / "classical2.json"
    path.write_text(json.dumps(spec_to_document(spec)))
    code, doc, _ = run_json(capsys, "classify", str(path))
    assert code == 0
    assert doc["form"] == "classical"
    assert doc["complete_regularity"]["applicable"] is False


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["scan", "dirichlet2", "green", "--samples", "1"], "--samples"),
    (["scan", "dirichlet2", "resolvent", "--samples", "0"], "--samples"),
    (["scan", "dirichlet2", "green", "--rmin", "10", "--rmax", "5"], "--rmin/--rmax"),
    (["scan", "dirichlet2", "green", "--grid", "0"], "--grid"),
    (["scan", "dirichlet2", "green", "--ray", "nan"], "--ray"),
    (["spectrum", "dirichlet2", "--rmax", "0.1"], "--rmax"),
    (["spectrum", "dirichlet2", "--sector", "1", "0"], "--sector"),
    (["numrange", "dirichlet2", "--angles", "0"], "--angles"),
    (["numrange", "dirichlet2", "--max-dim", "5"], "--max-dim"),
    (["classify", "dirichlet2", "--tol", "-1"], "--tol"),
    (["scan", "dirichlet2", "resolvent", "--ray", "0"], "--ray"),
])
def test_out_of_range_flag_exits_four(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert flag in err
    assert out == ""


def test_every_flag_is_read_by_its_command():
    """Each option of a subcommand appears as ``args.<dest>`` in the
    command it runs, so no flag is accepted and then ignored."""
    parser = cli._build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.option_strings)


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
    # r_probe = 15: the disk about 5 pi enters the real axis only at 15.21,
    # so the last blocking disk is the one about 4 pi
    assert doc["clearance"]["r_probe"] == 15.0
    assert by_angle[0.0]["exit"] == cli._sig(4 * math.pi + 0.5)
    assert by_angle[round(math.pi / 2, 6)]["exit"] == 0.0
    # r_probe = 12.5 lies inside the disk about 4 pi: the real axis is blocked
    code, doc, _ = run_json(capsys, "spectrum", "dirichlet2", "--rmax", "13.5")
    assert code == 0
    by_angle = {round(entry["angle"], 6): entry for entry in doc["clearance"]["rays"]}
    assert by_angle[0.0]["exit"] is None


def test_spectrum_empty_for_degenerate_rows(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "cauchy2", "--rmax", "12")
    assert code == 0
    assert doc["roots"] == []
    assert doc["distinct_eigenvalues"] == 0


def test_spectrum_full_turn_sector(capsys):
    code, turn, _ = run_json(capsys, "spectrum", "dirichlet2",
                             "--sector", "0", "6.283185307179586", "--rmax", "5")
    assert code == 0
    code, whole, _ = run_json(capsys, "spectrum", "dirichlet2", "--rmax", "5")
    assert code == 0
    assert turn["roots"] == whole["roots"]
    assert len(turn["roots"]) == 2


@pytest.mark.parametrize("argv", [
    ("spectrum", "dirichlet2", "--sector", "0", "1", "--rmax", "5"),
    ("spectrum", "dirichlet4", "--sector", "0", "0.8", "--rmax", "10"),
    ("scan", "dirichlet2", "green", "--ray", "0.2613410143409639", "--samples", "4"),
])
def test_sector_edge_on_a_zero(argv, capsys):
    # real zeros lie on an edge of each sector: the two sectors asked
    # for, and the sector of half-width asin(delta / 4.5) + 0.15 about
    # the ray, whose lower edge is the real axis; a search along such an
    # edge could not settle
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    if argv[:2] == ("spectrum", "dirichlet2"):
        # the sector is closed: the zero on its edge is listed
        (root,) = doc["roots"]
        assert root["rho"] == pytest.approx([math.pi, 0.0], abs=1e-10)


def _count_searches(monkeypatch):
    """Record the annulus of every find_roots call."""
    annuli = []
    search = spectral.find_roots

    def counted(nbc, annulus):
        annuli.append(annulus)
        return search(nbc, annulus)

    monkeypatch.setattr(spectral, "find_roots", counted)
    return annuli


@pytest.mark.parametrize("argv, annulus", [
    (("spectrum", "mixed4", "--rmax", "15"), (0.5, 15.0)),
    (("spectrum", "mixed4", "--sector", "0.2", "2.9", "--rmax", "15"), (0.5, 15.0)),
    (("scan", "dirichlet4", "green", "--samples", "3", "--grid", "8"), (4.5, 66.5)),
    (("scan", "dirichlet4", "resolvent", "--ray", "0.3", "--rmin", "2", "--rmax", "10",
      "--samples", "3"), (1.5, 16.5)),
])
def test_command_searches_roots_once(argv, annulus, monkeypatch, capsys):
    annuli = _count_searches(monkeypatch)
    code, _doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert annuli == [annulus]


@pytest.mark.parametrize("command", ["classify", "numrange", "report"])
@pytest.mark.parametrize("name", ["robin2", "mixed4"])
def test_command_decides_splitting_once(command, name, monkeypatch, capsys):
    checks = count_calls(monkeypatch, quasiform, "check_completely_regular")
    transitions = count_calls(monkeypatch, quasiform, "quasi_transition")
    quasiform._splitting.cache_clear()
    code, _doc, _ = run_json(capsys, command, name)
    assert code == 0
    assert len(checks) == 1
    assert len(transitions) == 1


def test_spectrum_multiplicities(capsys):
    code, doc, _ = run_json(capsys, "spectrum", "periodic2", "--rmax", "14")
    assert code == 0
    mults = sorted(r["multiplicity"] for r in doc["roots"])
    assert mults == [2, 2, 2, 2]


def test_spectrum_next_to_a_double_zero(capsys):
    # |rho| = 12.55 passes 0.016 from periodic2's double zeros +-4 pi: the
    # whole circle wound 8 where a dense count gives 7, every partition
    # failed a split, and the command exited 1
    code, doc, _ = run_json(capsys, "spectrum", "periodic2", "--rmax", "12.55")
    assert code == 0
    roots = sorted((r["rho"][0], r["rho"][1], r["multiplicity"]) for r in doc["roots"])
    assert [mult for *_, mult in roots] == [2, 2]
    for (re, im, _), want in zip(roots, (-2 * math.pi, 2 * math.pi)):
        assert abs(re - want) <= 1e-8 and abs(im) <= 1e-8


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


def test_scan_csv_writes_backed_digits(tmp_path):
    # a resolvent sample (good to about 4e-9 relative on mixed4) and its
    # log end on a digit worth at least ten times their bounds e * value
    # and e, and carry at most 12 significant digits; a kernel sample
    # carries no estimate and keeps 13
    nbc = reduce_total_order(gallery.build("mixed4"))
    roots = clearance_roots(nbc, math.pi / 8, 5.0, 20.0)
    resolvent = spectral.resolvent_scan(nbc, math.pi / 8, roots, r_min=5.0, r_max=20.0,
                                        samples=4)
    path = tmp_path / "scan.csv"
    cli.scan_to_csv(resolvent, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for (rho, value), error, row in zip(resolvent.samples, resolvent.errors, rows):
        assert 0 < error < 1e-8
        for text, exact, bound in ((row[2], value, error * value),
                                   (row[4], math.log(value), error)):
            digits = Decimal(text).as_tuple()
            assert len(digits.digits) <= 12
            assert 10.0 ** digits.exponent >= 10.0 * bound * (1 - 1e-12)
            assert abs(float(text) - exact) <= 50.0 * bound
        assert row[0] == "%.12e" % abs(rho)
    green = spectral.green_sup_scan(nbc, math.pi / 8, roots, r_min=5.0, r_max=20.0,
                                    samples=4, grid=16)
    cli.scan_to_csv(green, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["%.12e" % value for _, value in green.samples]


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


@pytest.mark.parametrize("rmin", ["0.1", "0.6", "0.8", "1"])
def test_scan_small_rmin(rmin, capsys):
    # the clearance region of the ray pi / 2 is then the whole annulus,
    # not the half-plane whose edges run along the real zeros
    code, doc, _ = run_json(capsys, "scan", "dirichlet2", "green",
                            "--rmin", rmin, "--rmax", "2", "--samples", "3")
    assert code == 0
    assert doc["ray"] == pytest.approx(math.pi / 2)
    assert doc["clearance"] == 0.0


def test_scan_ray_clear_below_a_far_disk(capsys):
    # on [3.7, 5.5] the real axis stays 0.64 from pi and 0.78 from 2 pi;
    # the disk about 2 pi meets it only on [5.78, 6.78], beyond rmax
    code, doc, _ = run_json(capsys, "scan", "dirichlet2", "green", "--ray", "0",
                            "--rmin", "3.7", "--rmax", "5.5", "--samples", "3")
    assert code == 0
    assert doc["ray"] == 0.0


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


def test_numrange_csv_is_the_full_grid(tmp_path, capsys):
    # -o writes every angle of every dimension (the golden is the output
    # of the full-grid search), and the verdict read from those profiles
    # is the pruned search's
    csv_path = tmp_path / "profiles.csv"
    argv = ["numrange", "mixed4", "--max-dim", "32", "--angles", "32"]
    code, with_csv, _ = run_json(capsys, *argv, "-o", str(csv_path))
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "numrange_mixed4.csv"), "rb") as handle:
        assert csv_path.read_bytes() == handle.read()
    assert len(csv_path.read_text().splitlines()) == 1 + 3 * 32
    code, without_csv, _ = run_json(capsys, *argv)
    assert code == 0
    assert with_csv == without_csv


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


REPORT_SECTIONS = ("classification", "spectrum", "basis_conditioning",
                   "numerical_range", "green_decay", "resolvent_decay")


def test_report_sections_and_timings_flag(capsys):
    code, doc, _ = run_json(capsys, "report", "robin2")
    assert code == 0
    for key in ("tool", "input", "spec") + REPORT_SECTIONS:
        assert key in doc, key
    assert "timings" not in doc

    code, doc, _ = run_json(capsys, "report", "robin2", "--timings")
    assert code == 0
    # one key per section, and one per input the sections share
    assert set(doc["timings"]) == {"roots", "complete_regularity", "ray", *REPORT_SECTIONS}


@pytest.mark.parametrize("module, name, readers", [
    (spectral, "find_roots",
     ("spectrum", "basis_conditioning", "green_decay", "resolvent_decay")),
    (quasiform, "check_completely_regular", ("classification", "numerical_range")),
    (cli, "_choose_ray", ("green_decay", "resolvent_decay")),
])
def test_report_failure_reaches_every_reader(module, name, readers, monkeypatch, capsys):
    """A failed root search, splitting or scan ray is recorded, with the
    same error, in every section that reads it, and in no other."""
    def fail(*args):
        raise RuntimeError(f"{name} failed")

    monkeypatch.setattr(module, name, fail)
    code, doc, _ = run_json(capsys, "report", "robin2")
    assert code == 0
    for section in REPORT_SECTIONS:
        if section in readers:
            assert doc[section] == {"error": f"RuntimeError: {name} failed"}, section
        else:
            assert "error" not in doc[section], section


def test_choose_ray_names_every_blocked_bisector():
    """One root on every omega-sector bisector at |rho| = 10 blocks each
    candidate ray past r_min = 5, so no scan ray is left."""
    nbc = reduce_total_order(gallery.build("dirichlet2").rows)
    bisectors = [0.5 * (lo + hi)
                 for lo, hi in geometry.omega_sectors(nbc.n, cli._sector_opening(nbc.n))]
    roots = tuple(EigenRoot(rho, rho ** nbc.n, 1, 0.0)
                  for rho in (10.0 * cmath.exp(1j * mid) for mid in bisectors))
    with pytest.raises(RuntimeError, match="^no usable scan ray found: ") as exc:
        cli._choose_ray(nbc, 5.0, 60.0, roots)
    reasons = str(exc.value).removeprefix("no usable scan ray found: ").split("; ")
    assert [reason.split(": ")[0] for reason in reasons] == [f"{mid:.3f}" for mid in bisectors]
    assert all("only clears eigenvalue disks beyond 10.500" in reason for reason in reasons)


def test_report_keeps_partial_failures(capsys):
    code, doc, _ = run_json(capsys, "report", "cauchy2")
    assert code == 0
    assert doc["classification"]["birkhoff"]["regular"] is False
    assert doc["numerical_range"]["verdict"] == "whole_plane"
    assert doc["green_decay"]["decay_bound_satisfied"] is False
    # no eigenfunction family exists; the error is recorded, not raised
    assert "error" in doc["basis_conditioning"]


def test_identically_vanishing_determinant_is_named(tmp_path, capsys):
    """-y'' with y'(0) = y'(1), y(0) = -y(1): Delta vanishes identically.
    `spectrum` exits 1 with the message, and the report carries it in
    every section that reads the root search."""
    doc = {"order": 2, "form": {"type": "model"},
           "boundary_conditions": [
               {"a": {"1": [1.0, 0.0]}, "b": {"1": [-1.0, 0.0]}},
               {"a": {"0": [1.0, 0.0]}, "b": {"0": [1.0, 0.0]}}]}
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(doc))
    message = "the characteristic determinant vanishes identically: every \u03bb is an eigenvalue"
    code, _out, err = run_cli(capsys, "spectrum", str(path))
    assert code == 1
    assert err == f"error: {message}\n"
    code, report, _ = run_json(capsys, "report", str(path))
    assert code == 0
    for section in ("spectrum", "basis_conditioning", "green_decay", "resolvent_decay"):
        assert report[section] == {"error": f"ValueError: {message}"}, section


def _printed_decimals(value):
    return len(repr(value).partition(".")[2])


def test_report_resolvent_exponents_print_backed_digits(capsys):
    """The resolvent exponent is printed to the digits its samples' error
    estimates back: -2 on neumann2 and periodic2, whose norm on the ray
    pi / 2 is exactly 1 / r^2, and on dirichlet2 every printed digit of
    the fit of its closed form 1 / (pi^2 + r^2)."""
    radii = [5.0 * 12.0 ** (k / 23) for k in range(24)]
    closed, _ = spectral._fit_exponent(radii, [1.0 / (math.pi ** 2 + r * r) for r in radii])
    assert abs(closed - -1.8925930398913) <= 1e-12
    printed = {}
    for name in ("dirichlet2", "neumann2", "periodic2"):
        code, doc, _ = run_json(capsys, "report", name)
        assert code == 0
        section = doc["resolvent_decay"]
        assert abs(section["ray"] - 0.5 * math.pi) <= 1e-9
        assert section["lower_bound_samples"] == 0
        assert section["sample_error"] <= 1e-10
        printed[name] = section["exponent"]
    assert printed["neumann2"] == printed["periodic2"] == -2.0
    decimals = _printed_decimals(printed["dirichlet2"])
    assert decimals >= 10
    assert round(-1.8925930398913, decimals) == printed["dirichlet2"]


def test_report_counts_resolvent_lower_bounds(capsys):
    """cauchy2 is not regular: its resolvent report still shows growth,
    and counts the samples that are only lower bounds, where no two sizes
    of the ladder agreed; the Green scan, which makes no estimate, gains
    no key."""
    code, doc, _ = run_json(capsys, "report", "cauchy2")
    assert code == 0
    section = doc["resolvent_decay"]
    assert section["exponent"] >= 0.0
    assert section["decay_bound_satisfied"] is False
    assert 0 < section["lower_bound_samples"] < section["samples"]
    assert "lower_bound_samples" not in doc["green_decay"]
    assert "sample_error" not in doc["green_decay"]


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
    annuli = _count_searches(monkeypatch)
    assert cli.main(["report", name, "-o", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert annuli == [(0.5, 66.5)]


def test_report_expands_the_determinant_once(tmp_path, monkeypatch, capsys):
    # the classification and the root search read one record of Delta
    calls = []
    expand = birkhoff.determinant_terms

    def counted(n, rows):
        calls.append(n)
        return expand(n, rows)

    monkeypatch.setattr(birkhoff, "determinant_terms", counted)
    birkhoff._delta.cache_clear()
    assert cli.main(["report", "mixed4", "-o", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert calls == [4]


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, regbvp.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", ["cauchy2", "mixed4"])
def test_report_bytes_do_not_move_with_blas_threads(name, tmp_path):
    """A fresh ``regbvp report`` writes the same bytes, those of its
    golden file, under one and two BLAS threads: on cauchy2, whose
    resolvent lower bounds sit at the rounding of M_64, and on an
    order-4 example."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"report_{threads}.json"
        subprocess.run([sys.executable, "-m", "regbvp.cli", "report", name, "-o", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    with open(os.path.join(GOLDEN_DIR, f"report_{name}.json"), "rb") as handle:
        assert outputs[0] == outputs[1] == handle.read()


def _random_sources(tree):
    """Names of the random-number sources that a module's syntax tree
    imports or reads: the ``random`` module and ``numpy.random``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "random" or a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "random" or module.startswith("numpy.random"):
                found.append(module)
            elif module == "numpy":
                found += [f"numpy.{a.name}" for a in node.names if a.name == "random"]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.value.id}.random")
    return found


def test_package_draws_no_random_numbers():
    """Report bytes are deterministic by construction: no module of the
    package imports ``random`` or reads ``numpy.random``."""
    package = os.path.dirname(cli.__file__)
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                sources = _random_sources(ast.parse(handle.read()))
            if sources:
                found[name] = sources
    assert found == {}
    probe = ast.parse("import random\nfrom numpy import random\nx = np.random.default_rng(1)")
    assert _random_sources(probe) == ["random", "numpy.random", "np.random"]


def _package_imports(tree, modules):
    """Modules of the package that a syntax tree imports anywhere in it
    (``from .x import``, ``from . import x``, ``regbvp.x``); a name that is
    no module of the package stands for ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [a.name.split(".")[1:] for a in node.names
                     if a.name.split(".")[0] == "regbvp"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("regbvp")):
            parts = (node.module or "").split(".")
            path = parts[1:] if node.level == 0 else [part for part in parts if part]
            paths = [path] if path else [[a.name] for a in node.names]
        else:
            continue
        found |= {path[0] if path and path[0] in modules else "__init__" for path in paths}
    return found


def test_package_imports_run_one_way():
    """Every import of the package sits at module level, the module import
    graph is acyclic, and ``legendre`` reads nothing of the package but
    ``model``: the exact trial-space calculus is the bottom layer that
    ``quasiform`` and ``numrange`` build on."""
    package = os.path.dirname(cli.__file__)
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                trees[name[:-3]] = ast.parse(handle.read())
    nested = [f"{name}.{node.name}" for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))]
    assert nested == []
    graph = {name: _package_imports(tree, trees) for name, tree in trees.items()}
    assert graph["legendre"] == {"model"}
    left = dict(graph)
    while left:
        ready = [name for name, imports in left.items() if not imports & left.keys()]
        assert ready, f"import cycle among {sorted(left)}"
        for name in ready:
            del left[name]
    probe = ast.parse("from . import numrange, __version__\nfrom .model import Poly\n"
                      "import regbvp.spectral\nfrom regbvp import cli\nimport numpy")
    assert _package_imports(probe, trees) == {"numrange", "__init__", "model", "spectral", "cli"}


def _names_read(tree):
    """Every name a syntax tree reads, as a name, an attribute or an
    import (under its own name and its alias)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.split(".")[-1] for a in node.names}
    return found


def _modules_reading(target):
    """The modules of the package whose syntax trees read ``target``."""
    package = os.path.dirname(cli.__file__)
    readers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                if target in _names_read(ast.parse(handle.read())):
                    readers.append(name[:-3])
    return readers


def test_only_birkhoff_expands_the_determinant():
    """The characteristic determinant has one expansion: no module but
    ``birkhoff`` reaches ``determinant_terms``, by any name."""
    assert _modules_reading("determinant_terms") == ["birkhoff"]
    for probe in ("birkhoff.determinant_terms(2, rows)",
                  "from .birkhoff import determinant_terms as expand"):
        assert "determinant_terms" in _names_read(ast.parse(probe))


def test_only_birkhoff_reads_the_batch_budget():
    """Delta's array passes have one memory budget, and ``birkhoff``
    alone chunks by it: no other module reads ``BATCH_ELEMENTS``."""
    assert _modules_reading("BATCH_ELEMENTS") == ["birkhoff"]


def test_every_export_resolves():
    """Each name in the ``__all__`` of the package and of every module
    exists: a stale export left by a deletion breaks ``from regbvp import *``
    and every tool that walks the exports."""
    package = importlib.import_module("regbvp")
    modules = [package] + [importlib.import_module(f"regbvp.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
