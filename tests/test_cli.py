"""Command-line surface: subcommands, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kgen import bandscan, cli
from kgen.cli import main
from kgen.fields import EUCLIDEAN, MatrixPolyField

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "kgen", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture()
def weyl_path(tmp_path):
    terms = {(1, 0, 0): SIGMA_1, (0, 1, 0): SIGMA_2, (0, 0, 1): SIGMA_3}
    model = bandscan.BandModel(
        MatrixPolyField(3, 2, terms, EUCLIDEAN, selfadjoint=True), name="weyl"
    )
    path = tmp_path / "weyl.json"
    bandscan.save_model(model, path)
    return str(path)


@pytest.fixture()
def two_weyl_path(tmp_path):
    terms = {
        (1, 0, 0): SIGMA_1,
        (0, 1, 0): SIGMA_2,
        (0, 0, 2): SIGMA_3,
        (0, 0, 0): -0.25 * SIGMA_3,
    }
    model = bandscan.BandModel(
        MatrixPolyField(3, 2, terms, EUCLIDEAN, selfadjoint=True), name="two-weyl"
    )
    path = tmp_path / "two_weyl.json"
    bandscan.save_model(model, path)
    return str(path)


@pytest.fixture()
def gapped_path(tmp_path):
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2, (0, 0): 0.1 * SIGMA_3}
    model = bandscan.BandModel(
        MatrixPolyField(2, 2, terms, EUCLIDEAN, selfadjoint=True), name="massive"
    )
    path = tmp_path / "massive.json"
    bandscan.save_model(model, path)
    return str(path)


def test_clifford_command_emits_pauli_pair():
    proc = run_cli("clifford", "--d", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["d"] == 2
    assert payload["handedness"] is None
    assert payload["gammas"][0] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    assert payload["gammas"][1] == [[[0.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 0.0]]]


def test_clifford_command_right_handed_flip():
    left = json.loads(run_cli("clifford", "--d", "3").stdout)
    right = json.loads(run_cli("clifford", "--d", "3", "--handedness", "right").stdout)
    assert left["handedness"] == "left"
    assert right["handedness"] == "right"
    flip = [[[-e[0], -e[1]] for e in row] for row in right["gammas"][0]]
    assert left["gammas"][0] == flip
    assert left["gammas"][1:] == right["gammas"][1:]


def test_clifford_command_size_guard():
    proc = run_cli("clifford", "--d", "14")
    assert proc.returncode == 2
    assert "size guard" in proc.stderr or "exceeds" in proc.stderr


def test_generator_weyl_model():
    proc = run_cli("generator", "--kind", "weyl", "--d", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 3
    assert payload["size"] == 2
    assert len(payload["terms"]) == 3
    assert payload["chiral"] is None


def test_generator_dirac_hamiltonian_model_is_chiral():
    proc = run_cli("generator", "--kind", "dirac-hamiltonian", "--d", "1")
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 2
    assert payload["chiral"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


def test_generator_point_evaluation():
    proc = run_cli("generator", "--kind", "dirac-phase", "--d", "1", "--point", "0", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["value"] == [[[0.0, 1.0]]]


def test_generator_parity_mismatch_exit_2():
    proc = run_cli("generator", "--kind", "weyl", "--d", "3")
    assert proc.returncode == 2
    proc = run_cli("generator", "--kind", "dirac-phase", "--d", "2")
    assert proc.returncode == 2


def test_verify_suites_pass():
    for args in (
        ("--suite", "clifford", "--d", "9"),
        ("--suite", "index", "--d", "1", "--samples", "200"),
        ("--suite", "exp", "--d", "2", "--samples", "200"),
        ("--suite", "homotopy", "--d", "2", "--samples", "100"),
        ("--suite", "fredholm", "--samples", "20"),
    ):
        proc = run_cli("verify", *args)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert {"suite", "d", "samples", "max_residual", "pass"} <= set(payload)


def test_verify_clifford_reports_zero_residual():
    payload = json.loads(run_cli("verify", "--suite", "clifford", "--d", "9").stdout)
    assert payload["max_residual"] == 0.0


def test_charge_command_weyl(weyl_path):
    proc = run_cli("charge", weyl_path, "--center", "0", "0", "0", "--radius", "0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["charge"]) == 1
    assert payload["converged"] is True
    assert set(payload) == {"raw", "charge", "residual", "resolution", "converged"}


def test_charge_command_gapped_is_zero(tmp_path):
    # Bands pushed above the Fermi level: empty projection, charge 0.
    terms = {
        (1, 0, 0): SIGMA_1,
        (0, 1, 0): SIGMA_2,
        (0, 0, 1): SIGMA_3,
        (0, 0, 0): 2.5 * np.eye(2, dtype=complex),
    }
    model = bandscan.BandModel(MatrixPolyField(3, 2, terms, EUCLIDEAN, selfadjoint=True))
    path = tmp_path / "shifted.json"
    bandscan.save_model(model, path)
    proc = run_cli("charge", str(path), "--center", "0", "0", "0", "--radius", "0.5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["charge"] == 0


def test_charge_command_enclosure_through_crossing(two_weyl_path):
    # Sphere of radius 1.0 around one crossing passes through the other one;
    # the charge cannot converge to an integer there.
    proc = run_cli(
        "charge", two_weyl_path, "--center", "0", "0", "0.5", "--radius", "1.0"
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["converged"] is False


def test_charge_command_malformed_model(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    proc = run_cli("charge", str(path), "--radius", "0.5")
    assert proc.returncode == 2


def test_scan_command_two_weyl(two_weyl_path, tmp_path):
    out = tmp_path / "report.json"
    gap_csv = tmp_path / "gap.csv"
    proc = run_cli(
        "scan",
        two_weyl_path,
        "--box",
        "-1",
        "1",
        "--grid",
        "16",
        "--out",
        str(out),
        "--gap-map",
        str(gap_csv),
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert sum(r["charge"]["charge"] for r in reports) == 0
    lines = gap_csv.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,gap"
    assert len(lines) == 1 + 16**3


def test_scan_command_gapped_empty(gapped_path):
    proc = run_cli("scan", gapped_path, "--box", "-1", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []


def test_scan_command_malformed_model(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    proc = run_cli("scan", str(path))
    assert proc.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli("verify").returncode == 2  # missing --suite
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("charge", "missing.json", "--radius", "0.5").returncode == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("suite", ["index", "exp", "homotopy", "fredholm"])
def test_verify_rejects_nonpositive_samples(capsys, suite, samples):
    assert main(["verify", "--suite", suite, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be >= 1" in captured.err


def test_verify_clifford_rejects_empty_range(capsys):
    assert main(["verify", "--suite", "clifford", "--d", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_json_output_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        cli._emit_json({"value": float("inf")}, str(tmp_path / "out.json"))


@pytest.mark.parametrize("key", ["terms", "fermi"])
def test_scan_rejects_non_finite_model(two_weyl_path, tmp_path, capsys, key):
    with open(two_weyl_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if key == "terms":
        payload["terms"][0]["matrix"][0][0][0] = float("nan")
    else:
        payload["fermi"] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["scan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_charge_has_no_threads_option(weyl_path, capsys):
    argv = ["charge", weyl_path, "--radius", "0.5"]
    assert main(argv + ["--threads", "2"]) == 2
    assert main(argv) == 0


def test_determinism_verify(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli(
            "verify", "--suite", "index", "--d", "1", "--samples", "150",
            "--seed", "7", "--out", str(path),
        )
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_determinism_scan(two_weyl_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli("scan", two_weyl_path, "--box", "-1", "1", "--out", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_threads_flag_and_env_are_ignored(two_weyl_path):
    plain = run_cli("scan", two_weyl_path)
    assert plain.returncode == 0
    threaded = run_cli("scan", two_weyl_path, "--threads", "2")
    assert threaded.returncode == 0
    assert threaded.stdout == plain.stdout
    env = dict(os.environ, K_GEN_THREADS="zebra")
    from_env = run_cli("scan", two_weyl_path, env=env)
    assert from_env.returncode == 0
    assert from_env.stdout == plain.stdout
    assert run_cli("scan", two_weyl_path, "--threads", "0").returncode == 2


@pytest.mark.parametrize(
    "command, extra",
    [
        ("scan", ["--box", "nan", "1"]),
        ("scan", ["--box", "0", "inf"]),
        ("charge", ["--radius", "nan"]),
        ("charge", ["--center", "nan", "0", "0", "--radius", "0.5"]),
    ],
)
def test_non_finite_box_center_radius_rejected(weyl_path, capsys, command, extra):
    assert main([command, weyl_path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("resolution", ["0", "2"])
@pytest.mark.parametrize(
    "command, extra",
    [("charge", ["--center", "0", "0", "0.5", "--radius", "0.2"]), ("scan", [])],
)
def test_resolution_below_four_rejected(two_weyl_path, capsys, command, extra, resolution):
    # 0 used to fall back to the default resolution and exit 0.
    assert main([command, two_weyl_path, *extra, "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resolution must be an integer >= 4" in captured.err


@pytest.mark.parametrize("resolution", ["2", "0", "-7"])
def test_scan_checks_resolution_without_crossings(gapped_path, capsys, resolution):
    # A gapped model has no crossing to charge; the resolution is checked anyway.
    assert main(["scan", gapped_path, "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resolution must be an integer >= 4" in captured.err


@pytest.fixture()
def unchiral_dirac_path(tmp_path):
    # Massless 2D Dirac model whose chiral matrix (sigma_3) is not declared.
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2}
    model = bandscan.BandModel(MatrixPolyField(2, 2, terms, EUCLIDEAN, selfadjoint=True))
    path = tmp_path / "unchiral.json"
    bandscan.save_model(model, path)
    return str(path)


def test_2d_charge_without_chiral_is_a_usage_error(unchiral_dirac_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the enclosure grid is built before the chiral check")

    monkeypatch.setattr(bandscan.charge_mod, "sphere_grid", no_grid)
    assert main(["charge", unchiral_dirac_path, "--radius", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "chiral" in captured.err


def test_2d_scan_without_chiral_collects_the_error(unchiral_dirac_path, capsys):
    assert main(["scan", unchiral_dirac_path]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["charge"] is None
    assert report["error"].startswith("MissingChiralError: ")


def test_gap_map_csv_matches_csv_writer(two_weyl_path, tmp_path):
    # The CSV writer the gap map used to go through, kept as the reference.
    path = tmp_path / "gap.csv"
    assert main(["scan", two_weyl_path, "--grid", "8", "--gap-map", str(path)]) == 0
    model = bandscan.load_model(two_weyl_path)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x1", "x2", "x3", "gap"])
    for row in bandscan.gap_map(model, [(-1.0, 1.0)] * 3, 8):
        writer.writerow([repr(float(v)) for v in row])
    assert path.read_text(encoding="utf-8") == buffer.getvalue()


def test_main_callable_directly(capsys):
    code = main(["clifford", "--d", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gammas"] == [[[[1.0, 0.0]]]]
