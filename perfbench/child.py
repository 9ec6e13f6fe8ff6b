"""One benchmark process: set up, then run passes of one workload.

Started by run.py with a JSON config as its only argument; prints one JSON
object on its last stdout line.  Modes:

* ``setup``: import kgen, generate and validate the inputs, report set-up time.
* ``run``: set up, run the first pass, then warm passes until the deadline.
* ``trace``: set up, run the first pass, then alternate untraced and traced
  passes until the deadline; report per-layer metrics from the traced ones.

Set-up time runs from the parent's clock reading just before it started this
process (CLOCK_MONOTONIC is shared across processes) until the first
operation is ready, so it includes interpreter start and ``import kgen``.

In ``setup`` and ``run`` mode, slices of ``reference`` work run after set-up
and, in every pass, before each operation and after the last one, outside the
timed operations.  The parent scales each timing by the slices taken with it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import reference
import workloads

# Fraction of the estimated pass time a pass may run past the deadline.
OVERRUN = 0.25
# Reference slices run right after set-up; their median gauges set-up time.
SETUP_SLICES = 3
# Reference slices before each operation and after the last, about 10% of a
# pass: workloads with few long operations take more at each point.
PASS_SLICES = {"verify": 1, "sphere_charge": 2, "band_scan": 3, "gap_map": 6}


def _import_kgen(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kgen
    import kgen.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(kgen.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"kgen was imported from {kgen.__file__}, not from {src}")
    return kgen


def _setup(cfg: dict):
    kgen = _import_kgen(cfg["root"])
    workload, seed, child = cfg["workload"], cfg["seed"], cfg["child"]
    workdir = cfg["workdir"]
    os.makedirs(workdir, exist_ok=True)
    passes = []
    for index in range(workloads.MAX_PASSES[workload]):
        inputs = workloads.pass_inputs(workload, seed, child, index)
        paths = workloads.write_files(inputs, workdir, f"p{index}_")
        for name in inputs["files"]:
            kgen.bandscan.load_model(paths[name])
        passes.append((workloads.materialise(kgen, inputs, paths), paths))
    return kgen, passes


def _run_ops(ops, slices_per_op: int):
    """Run one pass; returns (seconds, outputs, per-op seconds, reference
    slice seconds).  The pass time is the sum of the operation times.  An
    operation that raises has the exception as its output."""
    outputs, op_times, slices = {}, {}, []
    for op in ops:
        slices.extend(reference.run_slice() for _ in range(slices_per_op))
        t0 = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # counted as a failed operation by _check_ops
            outputs[op.name] = exc
        op_times[op.name] = time.perf_counter() - t0
    slices.extend(reference.run_slice() for _ in range(slices_per_op))
    return sum(op_times.values()), outputs, op_times, slices


def _check_ops(kgen, ops, outputs, paths) -> list:
    """Failure messages for the operations of one pass."""
    failures = []
    for op in ops:
        output = outputs[op.name]
        if isinstance(output, Exception):
            failures.append(f"{op.name}: raised {type(output).__name__}: {output}")
            continue
        try:
            error = workloads.check(kgen, op, output, outputs, paths)
        except Exception as exc:  # malformed output fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return failures


def main() -> int:
    cfg = json.loads(sys.argv[1])
    kgen, passes = _setup(cfg)
    setup_s = time.perf_counter() - cfg["t_spawn"]
    # The traced run reports raw layer times, so it runs no reference work.
    gauge = cfg["mode"] != "trace"
    slices_per_op = PASS_SLICES[cfg["workload"]] if gauge else 0
    result = {"setup_s": setup_s}
    if gauge:
        result["setup_ref_s"] = statistics.median(
            reference.run_slice() for _ in range(SETUP_SLICES)
        )
    if cfg["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if cfg["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer(kgen)

    failures = []

    def run_pass(index: int, traced: bool):
        ops, paths = passes[index]
        if traced:
            tracer.reset()
            tracer.install()
        try:
            elapsed, outputs, op_times, slices = _run_ops(ops, slices_per_op)
        finally:
            if traced:
                tracer.uninstall()
        failures.extend(_check_ops(kgen, ops, outputs, paths))
        result["attempted"] += len(ops)
        if gauge:
            refs.append(statistics.mean(slices))
        return elapsed, op_times

    result["attempted"] = 0
    refs = []
    first, first_ops = run_pass(0, False)
    result.update(first_pass_s=first, op_s=[first_ops])
    times = [first]
    warm, untraced, traced, layer = [], [], [], []
    for index in range(1, len(passes)):
        estimate = statistics.median(times)
        late = time.perf_counter() + (1 - OVERRUN) * estimate > cfg["deadline"]
        if index > cfg["min_passes"] and late:
            break
        if tracer is not None and index % 2 == 0:
            elapsed, _ = run_pass(index, True)
            traced.append(elapsed)
            layer.append(tracer.metrics())
            if len(layer) == 1:
                tracer.dump_spans(cfg["spans_path"])
        else:
            elapsed, op_times = run_pass(index, False)
            times.append(elapsed)
            (untraced if tracer is not None else warm).append(elapsed)
            result["op_s"].append(op_times)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        warm_s=warm,
        ref_s=refs,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result.update(untraced_s=untraced, traced_s=traced, layer=layer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
