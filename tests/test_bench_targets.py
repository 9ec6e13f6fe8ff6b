"""The benchmark's tracer and workloads still fit the library.

``perfbench/tracing.py`` replaces each traced function at its owner's
attribute; a renamed or deleted function would fail only the benchmark's own
tests.  ``perfbench/workloads.py`` builds the fields the benchmark charges and
scans.  Both are loaded by path, without installing anything.
"""

import importlib.util
import json
import sys
from pathlib import Path

import kgen
import kgen.cli
from kgen import bandscan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_an_attribute_of_its_owner():
    tracing = load("tracing")
    targets = tracing.Tracer(kgen)._targets()
    assert targets
    missing = [span for owner, attr, span, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_every_benchmark_field_splits_into_sectors_of_at_most_two_bands():
    # The charge kernels and the gap scan take the closed-form bands and
    # inverses on sectors of size <= 2, and eigh, eigvalsh and inv on larger
    # ones; the benchmark's timings assume the former.
    workloads = load("workloads")
    fields = {}
    for workload in ("sphere_charge", "gap_map", "band_scan"):
        for seed in (1, 2, 3):
            inputs = workloads.pass_inputs(workload, seed, 0, 0)
            for op in inputs["ops"]:
                if op["kind"] == "lib":
                    fields[op["name"]] = workloads._build_field(kgen, op["base"], op["steps"])
            for name, text in inputs["files"].items():
                model = bandscan.BandModel.from_payload(json.loads(text))
                fields[name] = model.field
                if model.chiral is not None:
                    fields[f"{name} chiral block"] = model.chiral_block
    assert len(fields) == 5 + 1 + 3 + 1
    sizes = {name: max(s.size for s in field.sectors) for name, field in fields.items()}
    assert max(sizes.values()) <= 2, sizes


def test_the_tracer_sees_each_verify_suite_run_through_the_cli(capsys):
    # The CLI looks each suite's function up on its module when it runs; a
    # function captured at import would bypass the tracer's wrapper and leave
    # the suite's per-layer metrics at zero.
    tracer = load("tracing").Tracer(kgen)
    tracer.install()
    try:
        for argv in (
            ["--suite", "index", "--d", "1", "--samples", "5"],
            ["--suite", "exp", "--d", "2", "--samples", "5"],
            ["--suite", "homotopy", "--d", "0", "--samples", "5"],
            ["--suite", "fredholm", "--samples", "5"],
            ["--suite", "clifford", "--d", "1"],
        ):
            assert kgen.cli.main(["verify", *argv]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.metrics()
    for name in ("kmaps.verify_index_identity", "kmaps.verify_exp_identity",
                 "kmaps.homotopy_scan", "generators.verify_fredholm"):
        assert calls[f"{name}.calls"] == 1, name
    # The clifford suite checks both handednesses of its one level.
    assert calls["clifford.verify_rep.calls"] == 2
