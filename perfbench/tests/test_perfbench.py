"""Tests of the benchmark itself (not part of the kgen test suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kgen  # noqa: E402
import kgen.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7, 12345)
CROSSINGS = {"band_scan": [2, 8, 8, 4], "gap_map": [1]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_does_not_depend_on_seed(workload):
    shapes = [
        workloads.shape_of(workloads.pass_inputs(workload, seed, child, index))
        for seed in SEEDS
        for child, index in ((0, 0), (2, 5))
    ]
    assert all(shape == shapes[0] for shape in shapes)
    counts = [entry["crossings"] for entry in shapes[0] if "crossings" in entry]
    assert counts == CROSSINGS.get(workload, [])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = json.dumps(workloads.pass_inputs(workload, 3, 0, 1), sort_keys=True)
    again = json.dumps(workloads.pass_inputs(workload, 3, 0, 1), sort_keys=True)
    other = json.dumps(workloads.pass_inputs(workload, 4, 0, 1), sort_keys=True)
    assert first == again
    assert first != other


def _run_checked(inputs, tmp_path, names):
    paths = workloads.write_files(inputs, str(tmp_path), "")
    ops = [op for op in workloads.materialise(kgen, inputs, paths) if op.name in names]
    outputs = {op.name: op.run() for op in ops}
    return {op.name: workloads.check(kgen, op, outputs[op.name], outputs, paths) for op in ops}


def test_checks_pass_on_correct_outputs(tmp_path):
    inputs = workloads.pass_inputs("band_scan", 9, 0, 0)
    errors = _run_checked(inputs, tmp_path, {"scan.chiral_dirac", "charge.two_weyl"})
    assert errors == {"scan.chiral_dirac": None, "charge.two_weyl": None}
    inputs = workloads.pass_inputs("sphere_charge", 9, 0, 0)
    assert _run_checked(inputs, tmp_path, {"winding_1.dirac1_doubled"}) == {
        "winding_1.dirac1_doubled": None
    }


def test_wrong_expected_charge_fails(tmp_path):
    inputs = workloads.pass_inputs("band_scan", 9, 0, 0)
    for op in inputs["ops"]:
        if op["name"] == "charge.two_weyl":
            op["expect"]["charge"][0] *= -1
        if op["name"] == "scan.chiral_dirac":
            op["expect"]["crossings"][0]["sign"] *= -1
    errors = _run_checked(inputs, tmp_path, {"scan.chiral_dirac", "charge.two_weyl"})
    assert all(errors.values()), errors

    inputs = workloads.pass_inputs("sphere_charge", 9, 0, 0)
    inputs["ops"][-1]["expect"]["charge"][0] = 3
    errors = _run_checked(inputs, tmp_path, {"winding_1.dirac1_doubled"})
    assert "expected 3" in errors["winding_1.dirac1_doubled"]


def _bench(tmp_root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(tmp_root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=tmp_root, timeout=170, check=False,
    )


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        proc = _bench(ROOT, "--workload", "verify", "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counted = [name for name, m in runs[0].items() if m["unit"] == "count"]
    assert "kmaps.homotopy_at.calls" in counted and "linalg.eigh.matrices" in counted
    assert runs[0]["kmaps.homotopy_at.calls"]["value"] == 5500
    for name in counted:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench(str(tmp_path), "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
