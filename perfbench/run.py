"""kgen benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/kgen`` must exist; kgen is
imported from there, never from site-packages).  The parent starts benchmark
processes one after another and never runs two at once:

* ``--trace 0``: SETUP_REPEATS processes that only set up, then
  CHILDREN[workload] processes that each set up, run a first pass and then warm
  passes for their share of ``--seconds``.  Reports the end-to-end metrics.
* ``--trace 1``: one process that alternates untraced and traced passes for
  ``--seconds``.  Reports the per-layer metrics.

The last stdout line is the JSON result; the full record (machine, samples,
per-operation times, failures) goes to ``perfbench/out/``.  Exits 1 if any
output check failed, 2 if the checkout has no kgen sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
# Fresh processes per untraced run: each yields one first pass and one peak
# RSS; light workloads afford more of them inside --seconds.
CHILDREN = {"verify": 5, "sphere_charge": 3, "band_scan": 1, "gap_map": 3}
# Every process must end by this many seconds after the run started.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "first_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith((".calls", ".points", ".matrices")) or name == "bandscan.crossings":
        return "count"
    if name.endswith(".bytes"):
        return "B_computed"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "linalg.matrices_per_call":
        return "matrices/call"
    return "s"


def _summary(values: list) -> dict:
    """Minimum, median, sample count, and the highest percentile with >= 10
    samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"min": ordered[0], "median": statistics.median(ordered), "n": n}
    if n > 10:
        out["p_high"] = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return out


def _machine(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "kgen")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _spawn(cfg: dict, hard_deadline: float) -> dict:
    """Run one child to completion; returns its result or an error record."""
    cfg = dict(cfg, t_spawn=time.perf_counter())
    timeout = max(1.0, hard_deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child {cfg['child']} ({cfg['mode']}) timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child {cfg['child']} ({cfg['mode']}) exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHILDREN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kgen", "__init__.py")):
        sys.stderr.write(f"error: no kgen sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    base = {"root": ROOT, "workload": args.workload, "seed": args.seed}

    def child_cfg(index: int, mode: str, deadline: float, min_passes: int) -> dict:
        return dict(
            base,
            child=index,
            mode=mode,
            deadline=deadline,
            min_passes=min_passes,
            workdir=os.path.join(run_dir, f"child{index}"),
            spans_path=os.path.join(OUT, f"{tag}-spans.jsonl"),
        )

    results = []
    try:
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            results.append(_spawn(child_cfg(0, "trace", deadline, 2), hard_deadline))
        else:
            count = CHILDREN[args.workload]
            for i in range(SETUP_REPEATS):
                results.append(_spawn(child_cfg(count + i, "setup", 0.0, 0), hard_deadline))
            begin = time.perf_counter()
            for i in range(count):
                deadline = begin + args.seconds * (i + 1) / count
                results.append(_spawn(child_cfg(i, "run", deadline, 1), hard_deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [r["error"] for r in results if "error" in r]
    ran = [r for r in results if "error" not in r and "first_pass_s" in r]
    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran) + len(errors)
    attempted = max(attempted, failed, 1)
    failures = errors + [f for r in ran for f in r["failures"]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(args.seed),
        "elapsed_s": time.perf_counter() - start,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "children": results,
    }
    metrics = {}
    if not errors and ran:
        if args.trace:
            metrics = _layer(ran[0])
        else:
            metrics = _end_to_end(results, ran, attempted, failed, record)
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for message in failures[:10]:
        sys.stderr.write(f"FAILED {message}\n")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _end_to_end(results, ran, attempted, failed, record) -> dict:
    """Each timing is the median of its samples, each sample scaled to the
    reference speed (see reference.py).  The record keeps the raw samples'
    summaries next to the scaled ones."""
    raw = {
        "wall_s": [(t, r) for c in ran for t, r in zip(c["warm_s"], c["ref_s"][1:])],
        "first_pass_s": [(c["first_pass_s"], c["ref_s"][0]) for c in ran],
        "setup_s": [(c["setup_s"], c["setup_ref_s"]) for c in results],
    }
    samples = {
        name: [t * reference.NOMINAL_SLICE_S / r for t, r in pairs]
        for name, pairs in raw.items()
    }
    samples["peak_rss_mb"] = [c["peak_rss_mb"] for c in ran]
    record["samples"] = {name: _summary(values) for name, values in samples.items()}
    record["raw_samples"] = {
        name: _summary([t for t, _ in pairs]) for name, pairs in raw.items()
    }
    record["reference_slice_s"] = _summary(
        [r for c in ran for r in c["ref_s"]] + [c["setup_ref_s"] for c in results]
    )
    values = {name: record["samples"][name]["median"] for name in samples}
    values["ok_ratio"] = (attempted - failed) / attempted
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _layer(result: dict) -> dict:
    """Counts and ratios from the first traced pass (its inputs are fixed by the
    seed, so they repeat exactly); times are medians over all traced passes."""
    layer = result["layer"]
    metrics = {}
    for name, first in layer[0].items():
        unit = _unit(name)
        value = statistics.median(p[name] for p in layer) if unit == "s" else first
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(result["traced_s"]) - statistics.median(result["untraced_s"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
