"""Spans around kgen's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function at the module or class
attribute its callers look up (``kgen.bandscan.scan``, ``numpy.linalg.eigh``,
``MatrixPolyField.evaluate_batch`` ...) with a wrapper that records a span:
name, start, end, parent and thread.  ``uninstall`` puts the originals back,
so untraced passes run the unmodified code.  Spans stay in memory until
``metrics`` folds them into per-name counts and times.

Self time is a span's duration minus the union of the intervals its children
cover.  Spans opened on a worker thread with no open span of their own are
parented to the span open on the main thread (the thread pool in
``bandscan.scan``); their intervals may overlap, which the union handles.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("clifford", "generators", "fields", "kmaps", "charge", "bandscan", "cli", "linalg")


class Tracer:
    def __init__(self, kgen):
        self.kgen = kgen
        self.spans = []  # (id, name, parent, start, end, thread_name)
        self.counts = defaultdict(int)  # (name, counter) -> total
        self.results = defaultdict(list)  # name -> returned values worth checking
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._saved = []

    # -- targets ---------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, extra-counter function or None)."""
        k = self.kgen
        fields = k.fields
        targets = [
            (k.cli, "main", "cli.main", None),
            (k.clifford, "build_rep", "clifford.build_rep", None),
            (k.clifford, "verify_rep", "clifford.verify_rep", None),
            (k.generators, "verify_fredholm", "generators.verify_fredholm", None),
            (k.generators, "compact_resolvent_profile", "generators.compact_resolvent_profile", None),
            (fields.EvaluableField, "evaluate", "fields.evaluable_evaluate", None),
            (fields.MatrixPolyField, "evaluate_batch", "fields.evaluate_batch", self._batch_counts),
            (fields.MatrixPolyField, "derivative", "fields.derivative", None),
            (fields.MatrixPolyField, "affine_pullback", "fields.affine_pullback", None),
            (k.charge, "sphere_grid", "charge.sphere_grid", None),
            (k.bandscan, "load_model", "bandscan.load_model", None),
            (k.bandscan, "find_crossings", "bandscan.find_crossings", None),
            (k.bandscan, "gap_at", "bandscan.gap_at", None),
            (k.bandscan, "charge_crossing", "bandscan.charge_crossing", None),
            (k.bandscan, "gap_map", "bandscan.gap_map", None),
        ]
        for name in ("verify_index_identity", "verify_exp_identity", "homotopy_scan",
                     "homotopy_at", "index_map", "exp_map", "chart_inverse"):
            targets.append((k.kmaps, name, f"kmaps.{name}", None))
        for name in ("winding_1", "winding_3", "chern_2"):
            targets.append((k.charge, name, f"charge.{name}", self._keep_result))
        targets.append((k.bandscan, "scan", "bandscan.scan", self._keep_result))
        # numpy.linalg.norm(a, 2) calls svd through the private module, so the
        # wrapper goes on both namespaces; each call is still counted once.
        linalg_modules = [np.linalg]
        private = getattr(np.linalg, "_linalg", None)
        if private is not None:
            linalg_modules.append(private)
        for module in linalg_modules:
            for name in ("eigh", "eigvalsh", "svd", "inv"):
                targets.append((module, name, f"linalg.{name}", self._linalg_counts))
        return targets

    def _batch_counts(self, name, args, result):
        field, points = args[0], args[1]
        n = int(len(points))
        self.counts[(name, "points")] += n
        self.counts[(name, "bytes")] += n * field.size * field.size * 16

    def _linalg_counts(self, name, args, result):
        self.counts[(name, "matrices")] += int(np.prod(np.shape(args[0])[:-2]))

    def _keep_result(self, name, args, result):
        self.results[name].append(result)

    # -- wrapping --------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name, extra):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, parent, start, end, threading.current_thread().name)
                )
            if extra is not None:
                with tracer._lock:
                    extra(name, args, result)
            return result

        return traced

    def install(self):
        seen = {}
        for owner, attr, name, extra in self._targets():
            original = owner.__dict__[attr]
            wrapper = seen.get(id(original))
            if wrapper is None:
                wrapper = seen[id(original)] = self._wrap(original, name, extra)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.results = defaultdict(list)

    # -- summary ---------------------------------------------------------------

    def _by_name(self) -> dict:
        """Per-name calls, inclusive time, self time and extra counters."""
        children = defaultdict(list)
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, name, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = by_name[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        for (name, counter), value in self.counts.items():
            by_name[name][counter] = value
        return by_name

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        by_name = self._by_name()
        names = dict.fromkeys(name for _, _, name, _ in self._targets())
        out = {}
        for name in names:
            out[f"{name}.calls"] = by_name[name]["calls"]
            out[f"{name}.s"] = by_name[name]["s"]
        out["fields.evaluate_batch.points"] = by_name["fields.evaluate_batch"].get("points", 0)
        out["fields.evaluate_batch.bytes"] = by_name["fields.evaluate_batch"].get("bytes", 0)
        calls = matrices = 0
        for name in names:
            if name.startswith("linalg."):
                out[f"{name}.matrices"] = by_name[name].get("matrices", 0)
                calls += by_name[name]["calls"]
                matrices += out[f"{name}.matrices"]
        out["linalg.matrices_per_call"] = matrices / calls if calls else 0.0
        out["cli.main.self_s"] = by_name["cli.main"]["self_s"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                entry["self_s"] for name, entry in by_name.items() if name.split(".")[0] == layer
            )

        charges = [r for name in ("charge.winding_1", "charge.winding_3", "charge.chern_2")
                   for r in self.results[name]]
        converged = sum(r.converged for r in charges)
        out["charge.converged_ratio"] = converged / len(charges) if charges else 0.0
        reports = [r for result in self.results["bandscan.scan"] for r in result]
        charged = sum(r.error is None and r.charge is not None and r.charge.converged
                      for r in reports)
        out["bandscan.crossings"] = len(reports)
        out["bandscan.crossings_charged_ratio"] = charged / len(reports) if reports else 0.0
        return out

    def dump_spans(self, path: str):
        """Write the spans as JSON lines: id, name, parent, start, end, thread."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent, start, end, thread in self.spans:
                record = {"id": span_id, "name": name, "parent": parent,
                          "start": start, "end": end, "thread": thread}
                handle.write(json.dumps(record) + "\n")
