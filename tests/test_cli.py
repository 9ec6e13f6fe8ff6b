"""Command-line surface: subcommands, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from kgen import bandscan, cli, clifford, generators
from kgen.charge import chern_sign_weyl
from kgen.cli import main
from kgen.errors import ModelOverflowError
from kgen.fields import MatrixPolyField
from kgen.serialize import matrix_to_json

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
        MatrixPolyField(3, 2, terms), name="weyl"
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
        MatrixPolyField(3, 2, terms), name="two-weyl"
    )
    path = tmp_path / "two_weyl.json"
    bandscan.save_model(model, path)
    return str(path)


@pytest.fixture()
def gapped_path(tmp_path):
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2, (0, 0): 0.1 * SIGMA_3}
    model = bandscan.BandModel(
        MatrixPolyField(2, 2, terms), name="massive"
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


@pytest.mark.parametrize("kind, d, variables", [("weyl", 4, 5), ("dirac-hamiltonian", 3, 4)])
def test_generator_exports_fields_beyond_three_variables(capsys, kind, d, variables):
    # A band model has 2 or 3 variables; the rest go out in the field schema.
    assert main(["generator", "--kind", kind, "--d", str(d)]) == 0
    field = MatrixPolyField.from_payload(json.loads(capsys.readouterr().out))
    assert (field.ambient_dim, field.size, field.selfadjoint) == (variables, 4, True)


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
    proc = run_cli("generator", "--kind", "dirac-hamiltonian", "--d", "2")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "kind, d, message",
    [
        ("weyl", "13", "requires even d, got 13"),
        ("dirac-hamiltonian", "13", "d = 13 needs a representation with 14 generators"),
        ("weyl", "14", "d = 14 needs a representation with 15 generators"),
        ("weyl", "-2", "d = -2 needs a representation with -1 generators"),
    ],
)
def test_generator_refusals_name_the_given_d(capsys, kind, d, message):
    # Parity is checked first; a representation beyond MAX_D is refused in
    # terms of the --d given, not of the generator count it implies.
    assert main(["generator", "--kind", kind, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_suites_pass():
    for args in (
        ("--suite", "clifford", "--d", "9"),
        ("--suite", "index", "--d", "1", "--samples", "200"),
        ("--suite", "exp", "--d", "2", "--samples", "200"),
        ("--suite", "homotopy", "--d", "2", "--samples", "100"),
        ("--suite", "homotopy", "--d", "0", "--samples", "20"),
        ("--suite", "fredholm", "--samples", "20"),
    ):
        proc = run_cli("verify", *args)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert {"suite", "d", "samples", "max_residual", "pass"} <= set(payload)


@pytest.mark.parametrize(
    "suite, d, counts",
    # Homotopy d = 12 takes 11 SVDs of 64 x 64 per point: 14 s at (250, 1000)
    # under tracemalloc.  Its blocks hold 4 points, so 40 samples are 10 blocks.
    [("index", 11, (250, 1000)), ("exp", 12, (250, 1000)), ("homotopy", 12, (40, 160))],
    ids=["index-11", "exp-12", "homotopy-12"],
)
def test_verify_memory_does_not_grow_with_samples(capsys, suite, d, counts):
    # The suites evaluate their points in blocks of at most 4 x CHUNK matrix
    # entries (homotopy holds one such stack per t-value); unblocked, index
    # d = 11 peaks at 42 MiB for 250 samples and 158 MiB for 1,000.
    argv = ["verify", "--suite", suite, "--d", str(d), "--samples"]
    assert main(argv + ["1"]) == 0  # builds and caches the representations
    peaks = []
    for samples in counts:
        tracemalloc.start()
        try:
            assert main(argv + [str(samples)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 2 * 2**20, peaks


def test_verify_clifford_d13_repeats_its_output_in_one_process(capsys):
    # The second call reuses the chain the first one built.
    outputs = []
    for _ in range(2):
        assert main(["verify", "--suite", "clifford", "--d", "13"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {
        "suite": "clifford", "d": 13, "samples": 20, "max_residual": 0.0, "pass": True
    }


def test_verify_clifford_reports_zero_residual():
    payload = json.loads(run_cli("verify", "--suite", "clifford", "--d", "9").stdout)
    assert payload["max_residual"] == 0.0


def test_charge_command_weyl(weyl_path):
    proc = run_cli("charge", weyl_path, "--center", "0", "0", "0", "--radius", "0.5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["charge"]) == 1
    assert payload["converged"] is True
    assert set(payload) == {"raw", "charge", "residual", "resolution", "convergence_pair",
                            "converged"}
    assert payload["convergence_pair"][0] == payload["raw"]


def test_charge_command_near_float_max(weyl_path, tmp_path, capsys):
    # 1.5e308 times the Weyl model: ||h||_F overflows on the unit sphere, but
    # its gap, ||h||_F / sqrt(2) = 1.5e308 |x|, does not, nor does the charge.
    weyl = bandscan.load_model(weyl_path).field
    big = dataclasses.replace(weyl, terms={a: 1.5e308 * m for a, m in weyl.terms.items()})
    model = bandscan.BandModel(big)
    assert abs(bandscan.gap_at(model, [0.6, 0.0, 0.8]) - 1.5e308) <= 1e-15 * 1.5e308
    path = str(tmp_path / "big.json")
    bandscan.save_model(model, path)
    payloads = []
    for model_path in (weyl_path, path):
        assert main(["charge", model_path, "--center", "0", "0", "0", "--radius", "1"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert abs(payloads[0]["charge"]) == 1
    assert [p["charge"] for p in payloads] == [payloads[0]["charge"]] * 2
    assert payloads[1]["converged"] is True


def test_charge_command_gapped_is_zero(tmp_path):
    # Bands pushed above the Fermi level: empty projection, charge 0.
    terms = {
        (1, 0, 0): SIGMA_1,
        (0, 1, 0): SIGMA_2,
        (0, 0, 1): SIGMA_3,
        (0, 0, 0): 2.5 * np.eye(2, dtype=complex),
    }
    model = bandscan.BandModel(MatrixPolyField(3, 2, terms))
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


def test_charge_command_refuses_a_sector_whose_gap_closes(tmp_path, capsys):
    # x3 diag(1, -1) has the bands +-|x3|, which meet on the plane x3 = 0; its
    # sectors x3 and -x3 each change sign there, between the nodes of the
    # enclosing sphere.  As one 2 x 2 field it read as charge 0, converged.
    terms = {(0, 0, 1): np.diag([1.0, -1.0]).astype(complex)}
    model = bandscan.BandModel(MatrixPolyField(3, 2, terms))
    path = tmp_path / "split.json"
    bandscan.save_model(model, path)
    assert main(["charge", str(path), "--radius", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "number of bands below fermi varies" in captured.err


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
    for r in reports:  # each crossing's charge carries its raws at n and 2n
        assert r["charge"]["convergence_pair"][0] == r["charge"]["raw"]
    lines = gap_csv.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,gap"
    assert len(lines) == 1 + 16**3


@pytest.fixture()
def two_velocity_path(tmp_path):
    # Weyl fields with velocities 1 and 2, mixed by a dense unitary into one
    # 4 x 4 sector, so every stage takes the eigensolver path.
    weyl = generators.weyl_field(2, clifford.LEFT)
    fast = dataclasses.replace(weyl, terms={a: 2.0 * m for a, m in weyl.terms.items()})
    mixed = weyl.direct_sum(fast).conjugated_by(np.fft.fft(np.eye(4)) / 2.0)
    model = bandscan.BandModel(mixed, name="two-velocity")
    assert len(model.field.sectors) == 1 and model.field.size == 4
    path = tmp_path / "two_velocity.json"
    bandscan.save_model(model, path)
    return str(path)


def test_scan_and_charge_on_the_general_path(two_velocity_path, capsys, monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        spy = lambda *a, _n=name, _r=real, **k: calls.append(_n) or _r(*a, **k)  # noqa: E731
        monkeypatch.setattr(np.linalg, name, spy)
    expected = 2 * chern_sign_weyl()
    assert main(["scan", two_velocity_path]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert np.allclose(report["location"], 0.0, atol=1e-6)
    assert (report["charge"]["charge"], report["classification"]) == (expected, "weyl")
    assert main(["charge", two_velocity_path, "--radius", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["charge"] == expected
    assert {"eigh", "eigvalsh"} <= set(calls)


def test_scan_command_gapped_empty(gapped_path):
    proc = run_cli("scan", gapped_path, "--box", "-1", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []


def test_scan_refuses_unequal_chiral_eigenspaces(tmp_path, capsys):
    # A 2-D model whose chiral block would be 1 x 2 is refused at load.
    j = np.diag([1.0, 1.0, -1.0])
    a, b = np.zeros((3, 3)), np.zeros((3, 3))
    a[0, 2] = a[2, 0] = b[1, 2] = b[2, 1] = 1.0
    payload = {
        "dimension": 2,
        "size": 3,
        "terms": [
            {"powers": [1, 0], "matrix": matrix_to_json(a)},
            {"powers": [0, 1], "matrix": matrix_to_json(b)},
        ],
        "chiral": matrix_to_json(j),
    }
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(payload))
    assert main(["scan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chiral eigenspaces have sizes 2 and 1" in captured.err


@pytest.mark.parametrize("argv", [["scan"], ["charge", "--radius", "0.5"]], ids=["scan", "charge"])
def test_a_two_dimensional_chiral_model_off_energy_zero_exits_2(tmp_path, capsys, argv):
    # x1 s1 + x2 s2 with chiral s3 at fermi 0.5: refused at load, not scanned
    # as a Fermi circle of point crossings.
    h, j = generators.dirac_hamiltonian_field(1, clifford.LEFT)
    model = bandscan.BandModel(h, chiral=j.matrix)
    payload = {**model.to_payload(), "fermi": 0.5}
    path = tmp_path / "fermi.json"
    path.write_text(json.dumps(payload))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fermi must be 0, got 0.5" in captured.err


@pytest.mark.parametrize("argv", [["scan"], ["charge", "--radius", "0.5"]], ids=["scan", "charge"])
@pytest.mark.parametrize("key, text", [("name", "NaN"), ("comment", "Infinity")])
def test_a_model_whose_metadata_is_not_a_string_exits_2(
    tmp_path, capsys, weyl_path, argv, key, text
):
    with open(weyl_path, encoding="utf-8") as handle:
        payload = json.dumps({**json.load(handle), key: None})
    path = tmp_path / "meta.json"
    path.write_text(payload.replace(f'"{key}": null', f'"{key}": {text}'))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{key}' must be a string or null" in captured.err


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


def test_verify_clifford_refuses_d_above_max(capsys):
    assert main(["verify", "--suite", "clifford", "--d", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d = 14 exceeds" in captured.err


@pytest.mark.parametrize(
    "suite, d, message",
    [
        ("exp", "0", "exp suite needs an even d from 2 to 12, got 0"),
        ("exp", "-2", "exp suite needs an even d from 2 to 12, got -2"),
        ("exp", "14", "exp suite needs an even d from 2 to 12, got 14"),
        ("exp", "3", "exp suite needs an even d from 2 to 12, got 3"),
        ("index", "-1", "index suite needs an odd d from 1 to 11, got -1"),
        ("index", "13", "index suite needs an odd d from 1 to 11, got 13"),
        ("index", "2", "index suite needs an odd d from 1 to 11, got 2"),
        ("homotopy", "14", "needs an even d from 0 to 12, got 14"),
        ("homotopy", "-2", "needs an even d from 0 to 12, got -2"),
        ("homotopy", "1", "needs an even d from 0 to 12, got 1"),
    ],
    ids=["exp-0", "exp-neg", "exp-14", "exp-odd", "index-neg", "index-13", "index-even",
         "homotopy-14", "homotopy-neg", "homotopy-odd"],
)
def test_verify_refuses_d_outside_the_suite(capsys, suite, d, message):
    assert main(["verify", "--suite", suite, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "suite, flags, unread",
    [
        ("fredholm", ["--d", "3"], "--d"),
        ("clifford", ["--samples", "5"], "--samples"),
        ("clifford", ["--seed", "1"], "--seed"),
        ("clifford", ["--d", "3", "--samples", "5", "--seed", "1"], "--samples, --seed"),
    ],
    ids=["fredholm-d", "clifford-samples", "clifford-seed", "clifford-both"],
)
def test_verify_refuses_a_flag_the_suite_does_not_read(capsys, suite, flags, unread):
    assert main(["verify", "--suite", suite, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--suite {suite} does not read {unread}" in captured.err


def test_non_list_powers_is_a_format_error(weyl_path, tmp_path, capsys):
    with open(weyl_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["terms"][0]["powers"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["scan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad multi-index 5" in captured.err


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
        ("scan", ["--box", "-inf", "1"]),
        ("scan", ["--box", "-nan", "1"]),
        ("charge", ["--radius", "-inf"]),
        ("charge", ["--radius", "-nan"]),
        ("charge", ["--center", "-inf", "0", "0", "--radius", "0.5"]),
        ("charge", ["--center", "0", "-nan", "0", "--radius", "0.5"]),
    ],
)
def test_non_finite_box_center_radius_rejected(weyl_path, capsys, command, extra):
    # "-inf" and "-nan" are read as values, not options, so they get the
    # "must be finite" message rather than argparse's "expected one argument".
    assert main([command, weyl_path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, extra",
    [
        ("scan", ["--box", "-1e200", "1e200", "--grid", "8"]),
        ("charge", ["--center", "0", "0", "1e200", "--radius", "1"]),
        ("charge", ["--radius", "1e200"]),
    ],
)
def test_overflowing_gap_rejected(two_weyl_path, capsys, command, extra):
    # Finite inputs at which x3^2 overflows: the gap there is not finite, so
    # nothing may be reported from it (an empty scan, a charge 0).  At
    # --radius 1e200 the centre's gap is finite and the model overflows on the
    # enclosing sphere instead.
    assert main([command, two_weyl_path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if extra == ["--radius", "1e200"]:
        assert "not finite on the sphere of radius 1e+200 about [0.0, 0.0, 0.0]" in captured.err
    else:
        assert "gap is not finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gap_rejected_on_a_four_band_sector(two_weyl_path, tmp_path, capsys):
    # The two-Weyl model beside twice itself, mixed by a dense unitary into one
    # 4 x 4 sector: its gap goes to eigvalsh, which must not be given the
    # overflowed values (it does not converge on them).
    two_weyl = bandscan.load_model(two_weyl_path).field
    double = dataclasses.replace(two_weyl, terms={a: 2.0 * m for a, m in two_weyl.terms.items()})
    mixed = two_weyl.direct_sum(double).conjugated_by(np.fft.fft(np.eye(4)) / 2.0)
    model = bandscan.BandModel(mixed)
    assert len(model.field.sectors) == 1
    with pytest.raises(ModelOverflowError, match=r"gap is not finite at \[0.0, 0.0, 1e\+200\]"):
        bandscan.gap_at(model, [0.0, 0.0, 1e200])
    path = str(tmp_path / "mixed.json")
    bandscan.save_model(model, path)
    assert main(["scan", path, "--box", "-1e200", "1e200", "--grid", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gap is not finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_enclosure_is_that_crossings_error(tmp_path, capsys):
    # (x1 - 0.7)(x1 + 0.1) s1 + x2 s2 + x3 s3 plus x1^(2^40) s1, which is 0 at
    # both crossings and finite in the box but overflows past |x1| = 1: the
    # enclosure of radius 0.4 about 0.7 reaches x1 = 1.1, the one about -0.1
    # does not.  scan reports both crossings and exits 1; charge exits 2.
    terms = {
        (2, 0, 0): SIGMA_1,
        (1, 0, 0): -0.6 * SIGMA_1,
        (0, 0, 0): -0.07 * SIGMA_1,
        (2**40, 0, 0): SIGMA_1,
        (0, 1, 0): SIGMA_2,
        (0, 0, 1): SIGMA_3,
    }
    path = str(tmp_path / "overflow.json")
    bandscan.save_model(
        bandscan.BandModel(MatrixPolyField(3, 2, terms)), path
    )
    assert main(["scan", path]) == 1
    inside, outside = json.loads(capsys.readouterr().out)
    assert np.allclose([inside["location"][0], outside["location"][0]], [-0.1, 0.7])
    assert inside["error"] is None and abs(inside["charge"]["charge"]) == 1
    assert outside["charge"] is None
    assert outside["error"].startswith(
        "ModelOverflowError: field is not finite on the sphere of radius 0.4 about [0.7"
    )
    assert main(["charge", path, "--center", "0.7", "0", "0", "--radius", "0.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: field is not finite on the sphere of radius 0.4 about [0.7, 0.0, 0.0]; "
        "the model overflows there\n"
    )


@pytest.mark.parametrize("point", [["inf", "1"], ["0", "-inf"], ["nan", "1"]])
def test_non_finite_point_rejected(capsys, point):
    argv = ["generator", "--kind", "dirac-phase", "--d", "1", "--point", *point]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--point must be finite" in captured.err


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
    model = bandscan.BandModel(MatrixPolyField(2, 2, terms))
    path = tmp_path / "unchiral.json"
    bandscan.save_model(model, path)
    return str(path)


def test_2d_charge_without_chiral_is_a_usage_error(unchiral_dirac_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the enclosure grid is built before the chiral check")

    monkeypatch.setattr(bandscan.charge_mod, "_grid_rows", no_grid)
    assert main(["charge", unchiral_dirac_path, "--radius", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "chiral" in captured.err


def test_2d_scan_without_chiral_collects_the_error(unchiral_dirac_path, capsys):
    assert main(["scan", unchiral_dirac_path]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["charge"] is None
    assert report["error"].startswith("MissingChiralError: ")


@pytest.fixture()
def chiral_dirac_path(tmp_path):
    # Massless 2D Dirac model with its chiral matrix declared.
    terms = {(1, 0): SIGMA_1, (0, 1): SIGMA_2}
    model = bandscan.BandModel(
        MatrixPolyField(2, 2, terms), chiral=SIGMA_3
    )
    path = tmp_path / "chiral.json"
    bandscan.save_model(model, path)
    return str(path)


@pytest.mark.parametrize(
    "model, grid, box",
    [
        ("two_weyl_path", 8, None),
        ("chiral_dirac_path", 9, None),
        ("two_weyl_path", 9, ["-0.3", "0.7", "-2", "1e-3", "0", "5e-7"]),
        ("two_weyl_path", 8, ["-1", "-0.0"]),
    ],
    ids=["two-weyl", "chiral-2d-odd-grid", "per-axis-box", "negative-zero-bound"],
)
def test_gap_map_csv_matches_csv_writer(request, tmp_path, model, grid, box):
    # The CSV writer the gap map used to go through, kept as the reference.
    model_path = request.getfixturevalue(model)
    path = tmp_path / "gap.csv"
    argv = ["scan", model_path, "--grid", str(grid), "--gap-map", str(path)]
    assert main(argv + (["--box", *box] if box else [])) == 0
    loaded = bandscan.load_model(model_path)
    dim = loaded.dimension
    bounds = cli._parse_box(None if box is None else [float(v) for v in box], dim)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(dim)] + ["gap"])
    axes, gaps = bandscan.gap_map(loaded, bounds, grid)
    for index in np.ndindex(gaps.shape):
        row = [axis[i] for axis, i in zip(axes, index)] + [gaps[index]]
        writer.writerow([repr(float(v)) for v in row])
    assert path.read_text(encoding="utf-8") == buffer.getvalue()


@pytest.mark.parametrize("model", ["two_weyl_path", "chiral_dirac_path"])
def test_gap_map_is_written_one_slab_at_a_time(request, model):
    # One header write, then one write per leading-axis slab of n^(dim-1)
    # rows: a writer that joined all slabs would hold the whole CSV.
    n = 9
    loaded = bandscan.load_model(request.getfixturevalue(model))
    axes, gaps = bandscan.gap_map(loaded, [(-1.0, 1.0)] * loaded.dimension, n)
    writes = []
    cli._write_gap_map(types.SimpleNamespace(write=writes.append), axes, gaps)
    assert writes[0] == ",".join([f"x{i + 1}" for i in range(gaps.ndim)] + ["gap"]) + "\n"
    assert len(writes) == 1 + n
    for slab in writes[1:]:
        assert slab.endswith("\n") and slab.count("\n") == n ** (gaps.ndim - 1)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(gaps.ndim)] + ["gap"])
    for index in np.ndindex(gaps.shape):
        row = [axis[i] for axis, i in zip(axes, index)] + [gaps[index]]
        writer.writerow([repr(float(v)) for v in row])
    assert "".join(writes) == buffer.getvalue()


def test_gap_map_writer_memory_stays_below_half_the_csv(two_weyl_path, tmp_path):
    # The block writer held the CSV about twice over; the slab writer holds one
    # slab of n^(dim-1) rows and the trailing coordinate strings.
    n = 32
    axes, gaps = bandscan.gap_map(bandscan.load_model(two_weyl_path), [(-1.0, 1.0)] * 3, n)
    path = tmp_path / "gap.csv"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            cli._write_gap_map(handle, axes, gaps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + n**3
    assert peak < size / 2, (peak, size)


def test_scan_and_gap_map_hold_about_one_float_per_grid_node(weyl_path, tmp_path, capsys):
    # The scan's coarse gaps and the map's gaps are one float per node each,
    # and neither keeps a point or row array: 3 x 64^3 x 8 bytes bounds both.
    n = 64
    path = tmp_path / "gap.csv"
    tracemalloc.start()
    try:
        code = main(["scan", weyl_path, "--grid", str(n), "--gap-map", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)) == 1
    assert peak < 3 * n**3 * 8, peak


@pytest.mark.parametrize(
    "command, flags",
    [("charge", ["--radius", "0.5", "--resolution", "100000000"]),
     ("scan", ["--grid", "8", "--resolution", "100000"])],
)
def test_a_resolution_too_fine_to_walk_exits_2(weyl_path, capsys, command, flags):
    # Its grid at 2n has 8 n^2 nodes on S^2 (8e16 and 8e10).  Unrefused, charge
    # built an 8 GB S^1 factor of the n grid and was killed, and scan walked
    # 8e10 nodes; scan refuses before its search.
    tracemalloc.start()
    try:
        code = main([command, weyl_path, *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: resolution {flags[-1]} is too fine")
    assert f"more than MAX_GRID_NODES = {2**24}" in captured.err
    assert peak < 2**20, peak


@pytest.mark.parametrize("suite", ["index", "exp", "homotopy", "fredholm"])
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_verify_refuses_a_negative_seed_naming_it(capsys, suite, seed):
    # numpy's own refusal read "expected non-negative integer", naming no flag.
    assert main(["verify", "--suite", suite, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be a non-negative integer, got {seed}\n"


@pytest.mark.parametrize("gap_map", [False, True])
def test_a_grid_too_large_to_hold_exits_2(weyl_path, tmp_path, capsys, gap_map):
    # 10^15 gaps (8e15 bytes) are refused by the node bound before the gap
    # array is allocated.
    target = tmp_path / "big.csv"
    argv = ["scan", weyl_path, "--grid", "100000"]
    assert main(argv + (["--gap-map", str(target)] if gap_map else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("gap_map", [False, True])
def test_a_grid_beyond_the_node_bound_exits_2_before_allocating(
    weyl_path, tmp_path, capsys, gap_map
):
    # 257^3 nodes are one grid more than MAX_GRID_NODES = 2^24 allows in 3-D.
    target = tmp_path / "g.csv"
    argv = ["scan", weyl_path, "--grid", "257"] + (["--gap-map", str(target)] if gap_map else [])
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: grid 257 is too fine: its box grid in 3-D has {257**3} nodes, "
                            f"more than MAX_GRID_NODES = {2**24}\n")
    assert peak < 2**20, peak
    assert not target.exists()


def test_a_sample_count_that_cannot_be_allocated_exits_2(capsys):
    # 10^12 three-coordinate points are 14.6 TiB: numpy's MemoryError is
    # raised at once and reported as a usage error.
    assert main(["verify", "--suite", "index", "--samples", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["charge", "{weyl}", "--center", "0", "0", "--radius", "0.5"],
         "--center needs 3 coordinates"),
        (["scan", "{weyl}", "--box", "-1", "1", "0"],
         "--box needs 2 or 6 floats (lo hi per axis), got 3"),
        (["generator", "--kind", "dirac-phase", "--d", "1", "--point", "0"],
         "--point needs 2 coordinates, got 1"),
    ],
    ids=["center", "box", "point"],
)
def test_a_coordinate_count_that_does_not_fit_exits_2(weyl_path, capsys, argv, message):
    assert main([t.format(weyl=weyl_path) for t in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["-1e-3", "-2E+0"])
@pytest.mark.parametrize(
    "argv, dest",
    [
        (["scan", "m.json", "--box", "{v}", "1"], "box"),
        (["charge", "m.json", "--center", "{v}", "0", "0.5", "--radius", "0.1"], "center"),
        (["generator", "--kind", "dirac-phase", "--d", "1", "--point", "{v}", "1"], "point"),
    ],
    ids=["box", "center", "point"],
)
def test_scientific_notation_negative_values_parse(argv, dest, value):
    # argparse alone reads "-1e-3" as an unknown option and then fails with
    # "expected at least one argument".
    args = cli.build_parser().parse_args([t.format(v=value) for t in argv])
    assert getattr(args, dest)[0] == float(value)


def test_scientific_notation_values_run_end_to_end(weyl_path, capsys):
    assert main(["charge", weyl_path, "--center", "-1e-05", "0", "0", "--radius", "5E-1"]) == 0
    assert json.loads(capsys.readouterr().out)["charge"] != 0
    assert main(["generator", "--kind", "dirac-phase", "--d", "1", "--point", "-1e-3", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == [-0.001, 1.0]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["clifford", "--d", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_unwritable_gap_map_fails_before_the_scan(two_weyl_path, tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the gap-map path was opened")

    monkeypatch.setattr(bandscan, "scan", no_scan)
    target = tmp_path / "missing" / "d" / "x.csv"
    assert main(["scan", two_weyl_path, "--grid", "8", "--gap-map", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "extra",
    [["--grid", "6"], ["--resolution", "2"], ["--box", "1", "0"]],
)
def test_failed_scan_leaves_an_existing_gap_map_unchanged(two_weyl_path, tmp_path, capsys, extra):
    target = tmp_path / "old.csv"
    target.write_bytes(b"x1,x2,x3,gap\n0.0,0.0,0.0,1.0\n")
    before = target.read_bytes()
    assert main(["scan", two_weyl_path, *extra, "--gap-map", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == before


@pytest.mark.parametrize(
    "extra",
    [["--grid", "7"], ["--resolution", "2"], ["--box", "1", "0"]],
)
def test_failed_scan_leaves_no_new_gap_map(two_weyl_path, tmp_path, capsys, extra):
    target = tmp_path / "new.csv"
    assert main(["scan", two_weyl_path, *extra, "--gap-map", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["charge", "weyl.json", "--radius", "0.5", "--out", "weyl.json"], ("model", "--out")),
        (["charge", "weyl.json", "--radius", "0.5", "--out", "./weyl.json"], ("model", "--out")),
        (["scan", "weyl.json", "--grid", "8", "--out", "weyl.json"], ("model", "--out")),
        (["scan", "weyl.json", "--grid", "8", "--gap-map", "weyl.json"], ("model", "--gap-map")),
        (["scan", "weyl.json", "--grid", "8", "--gap-map", "./g.csv", "--out", "g.csv"],
         ("--out", "--gap-map")),
        (["scan", "weyl.json", "--grid", "8", "--out", "link.json"], ("model", "--out")),
    ],
    ids=["charge-out", "charge-out-dot", "scan-out", "scan-gap-map", "out-is-gap-map",
         "out-through-symlink"],
)
def test_an_output_naming_the_model_or_the_other_output_exits_2(
    weyl_path, tmp_path, capsys, monkeypatch, argv, labels
):
    # Each of these exited 0 and replaced the model (or the report) with output.
    monkeypatch.chdir(tmp_path)
    os.symlink("weyl.json", "link.json")
    before = sorted(os.listdir(tmp_path))
    model = (tmp_path / "weyl.json").read_bytes()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {labels[0]} ")
    assert f" and {labels[1]} " in captured.err and captured.err.endswith(" name the same file\n")
    assert (tmp_path / "weyl.json").read_bytes() == model
    assert sorted(os.listdir(tmp_path)) == before


def test_main_callable_directly(capsys):
    code = main(["clifford", "--d", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gammas"] == [[[[1.0, 0.0]]]]


def test_the_parser_is_built_once_and_reused_safely(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["verify", "--suite", "index", "--d", "1", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr()
    # A usage error and a help request in between leave the parser as it was.
    assert main(["verify", "--suite", "nope"]) == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: kgen verify")
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert json.loads(first.out)["pass"] is True


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["--help"], ["clifford", "generator", "verify", "charge", "scan"]),
        (["scan", "--help"], ["--gap-map"]),
    ],
    ids=["kgen", "scan"],
)
def test_help_lists_the_commands_and_options(argv, listed, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: kgen") and captured.err == ""
    assert all(word in captured.out for word in listed)
    assert "--threads" not in captured.out
    assert main(argv) == 0
    assert capsys.readouterr().out == captured.out
