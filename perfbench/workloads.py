"""Seeded inputs, operation lists and output checks for the kgen benchmark.

Inputs are plain data.  ``pass_inputs(workload, seed, child, index)`` returns a
JSON-serialisable dict (model files as text, CLI argument lists, library-call
specs and expected outputs), so the same seed always yields the same bytes and
the amount of work never depends on the seed: only coefficients, crossing
positions, unitaries and verify-suite seeds move.

``materialise`` turns one pass of inputs into runnable operations.  Each
operation returns its raw output; ``check`` compares that output with the
expected value recorded in the inputs and returns an error string or None.
Expected charges are written as ``coefficient x anchor``: the anchor
``"chern"`` is ``kgen.charge.chern_sign_weyl()`` (the library's convention
constant), the anchor ``"one"`` is the normalisation that gives x1 + i x2
winding +1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("verify", "sphere_charge", "band_scan", "gap_map")

# Pre-generated passes per process.  Set-up writes and validates inputs for
# all of them, so set-up work is fixed per workload; a process stops early if
# it runs out (each cap is well above what fits in a 60 s run).
MAX_PASSES = {"verify": 40, "sphere_charge": 24, "band_scan": 10, "gap_map": 24}

# Scan locations must match the analytic crossings to this distance.
LOCATION_TOL = 1e-6
GAP_MAP_GRID = 64

# winding_3 of the d = 3 Dirac phase is minus the Chern number of the d = 2
# Weyl field on the same left-handed representation: both invariants are odd
# in the handedness, and their ratio is fixed by the normalisations.
W3_PER_CHERN = -1


def _rng(seed: int, child: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, child, index])


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _matrix_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _gammas():
    """Left-handed three-generator representation, as built by kgen for d = 3.

    Spelled out here so the inputs do not depend on the code under test:
    (-sigma_1, sigma_2, sigma_3) with sigma_2 = [[0, i], [-i, 0]].
    """
    return (
        np.array([[0, -1], [-1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )


def _model_text(dimension: int, terms: dict, chiral=None, name: str = "") -> str:
    """Band-model JSON in kgen's file format."""
    payload = {
        "dimension": dimension,
        "size": 2,
        "fermi": 0.0,
        "terms": [
            {"powers": list(alpha), "matrix": _matrix_json(mat)}
            for alpha, mat in sorted(terms.items())
        ],
        "chiral": None if chiral is None else _matrix_json(chiral),
        "name": name,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _quadratic_model(centers: list, chiral=None, name: str = "") -> str:
    """sum_j (x_j^2 - c_j^2) Gamma_j  (c_j = None gives the linear term x_j)."""
    g = _gammas()
    m = len(centers)
    terms = {}
    constant = np.zeros((2, 2), dtype=complex)
    for j, c in enumerate(centers):
        alpha = [0] * m
        alpha[j] = 1 if c is None else 2
        terms[tuple(alpha)] = g[j]
        if c is not None:
            constant = constant - c * c * g[j]
    if np.any(constant):
        terms[(0,) * m] = constant
    return _model_text(m, terms, chiral, name)


def _crossings(centers: list) -> list:
    """Crossings of _quadratic_model with the sign of det(dv/dx) at each."""
    points = [[]]
    for c in centers:
        if c is None:
            points = [p + [(0.0, 1)] for p in points]
        else:
            points = [p + [(s * c, s)] for p in points for s in (-1, 1)]
    out = []
    for p in points:
        sign = 1
        for _, s in p:
            sign *= s
        out.append({"location": [x for x, _ in p], "sign": sign})
    return sorted(out, key=lambda e: e["location"])


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _verify_inputs(rng) -> dict:
    ops = []
    for suite, d, extra in (
        ("index", 1, []),
        ("index", 3, []),
        ("index", 5, []),
        ("exp", 2, []),
        ("exp", 4, []),
        ("homotopy", 2, ["--samples", "500"]),
        ("fredholm", None, []),
        ("clifford", 13, []),
    ):
        argv = ["verify", "--suite", suite]
        if d is not None:
            argv += ["--d", str(d)]
        argv += extra
        if suite != "clifford":
            argv += ["--seed", str(_seed_int(rng))]
        name = f"verify.{suite}" + ("" if d is None else f".d{d}")
        ops.append({"name": name, "kind": "cli", "argv": argv, "expect": {"suite": suite}})
    return {"files": {}, "ops": ops}


def _sphere_inputs(rng) -> dict:
    w = _matrix_json(_unitary(rng, 2))
    axis = int(rng.integers(0, 4))
    v = _matrix_json(_unitary(rng, 2))
    u = _matrix_json(_unitary(rng, 2))

    def op(name, call, base, steps, charge, **kwargs):
        return {"name": name, "kind": "lib", "call": call, "base": base, "steps": steps,
                "kwargs": kwargs, "expect": {"charge": charge}}

    ops = [
        op("winding_3.dirac3", "winding_3", "dirac3", [["conjugate", w]],
           [W3_PER_CHERN, "chern"]),
        op("winding_3.dirac3_plus_reflected", "winding_3", "dirac3",
           [["conjugate", w], ["plus_reflected", axis]], [0, "chern"], resolution=16),
        op("chern_2.weyl2", "chern_2", "weyl2", [["conjugate", v]], [1, "chern"]),
        op("chern_2.weyl2_doubled", "chern_2", "weyl2", [["conjugate", v], ["doubled"]],
           [2, "chern"]),
        op("winding_1.dirac1_doubled", "winding_1", "dirac1", [["doubled"], ["conjugate", u]],
           [2, "one"], resolution=4096),
    ]
    return {"files": {}, "ops": ops}


def _scan_expect(centers: list, anchor: str) -> dict:
    return {"crossings": _crossings(centers), "anchor": anchor}


def _band_inputs(rng) -> dict:
    c2 = float(rng.uniform(0.3, 0.7))
    a, b, c = (float(v) for v in rng.uniform(0.3, 0.7, 3))
    a4, b4 = (float(v) for v in rng.uniform(0.3, 0.7, 2))
    pick = int(rng.integers(0, 2))
    radius = float(rng.uniform(0.15, 0.25))
    g = _gammas()
    two = [None, None, c2]
    eight = [a, b, c]
    four = [a4, b4]
    files = {
        "two_weyl.json": _quadratic_model(two, name="two-weyl"),
        "eight_weyl.json": _quadratic_model(eight, name="eight-weyl"),
        "chiral_dirac.json": _quadratic_model(four, chiral=g[2], name="chiral-four-dirac"),
    }
    target = _crossings(two)[pick]
    ops = [
        {"name": "scan.two_weyl", "kind": "cli", "argv": ["scan", "@two_weyl.json"],
         "expect": _scan_expect(two, "chern")},
        {"name": "scan.eight_weyl.t1", "kind": "cli", "argv": ["scan", "@eight_weyl.json"],
         "expect": _scan_expect(eight, "chern")},
        {"name": "scan.eight_weyl.t2", "kind": "cli",
         "argv": ["scan", "@eight_weyl.json", "--threads", "2"],
         "expect": dict(_scan_expect(eight, "chern"), same_as="scan.eight_weyl.t1")},
        {"name": "scan.chiral_dirac", "kind": "cli", "argv": ["scan", "@chiral_dirac.json"],
         "expect": _scan_expect(four, "one")},
        {"name": "charge.two_weyl", "kind": "cli",
         "argv": ["charge", "@two_weyl.json", "--center"]
         + [repr(v) for v in target["location"]] + ["--radius", repr(radius)],
         "expect": {"charge": [target["sign"], "chern"]}},
    ]
    return {"files": files, "ops": ops}


def _gap_map_inputs(rng) -> dict:
    shift = rng.uniform(-0.5, 0.5, 3)
    w = _unitary(rng, 2)
    g = [w.conj().T @ m @ w for m in _gammas()]
    terms = {(1, 0, 0): g[0], (0, 1, 0): g[1], (0, 0, 1): g[2]}
    terms[(0, 0, 0)] = -sum(float(s) * m for s, m in zip(shift, g))
    files = {"single_weyl.json": _model_text(3, terms, name="single-weyl")}
    crossing = [{"location": [float(s) for s in shift], "sign": 1}]
    ops = [
        {"name": "scan.gap_map", "kind": "cli",
         "argv": ["scan", "@single_weyl.json", "--grid", str(GAP_MAP_GRID),
                  "--gap-map", "@gap_map.csv"],
         "expect": {"crossings": crossing, "anchor": "chern",
                    "gap_map": {"file": "gap_map.csv", "grid": GAP_MAP_GRID, "dim": 3}}},
    ]
    return {"files": files, "ops": ops}


_BUILDERS = {
    "verify": _verify_inputs,
    "sphere_charge": _sphere_inputs,
    "band_scan": _band_inputs,
    "gap_map": _gap_map_inputs,
}


def pass_inputs(workload: str, seed: int, child: int, index: int) -> dict:
    """Inputs of one pass: the workload seed, the process and the pass index
    select the random stream, so every pass gets fresh inputs."""
    return _BUILDERS[workload](_rng(seed, child, index))


# Flags whose numeric value sets the amount of work rather than the inputs.
_SIZE_FLAGS = ("--d", "--samples", "--grid", "--threads")


def shape_of(inputs: dict) -> list:
    """The seed-independent part of a pass: operation names, commands with
    numbers masked, resolutions, grid sizes and expected crossing counts."""
    out = []
    for op in inputs["ops"]:
        entry = {"name": op["name"], "kind": op["kind"]}
        if op["kind"] == "cli":
            argv = op["argv"]
            entry["argv"] = [
                "#" if _is_number(t) and (i == 0 or argv[i - 1] not in _SIZE_FLAGS) else t
                for i, t in enumerate(argv)
            ]
        else:
            entry.update(call=op["call"], base=op["base"], kwargs=op["kwargs"])
            entry["steps"] = [step[0] for step in op["steps"]]
        expect = op["expect"]
        if "crossings" in expect:
            entry["crossings"] = len(expect["crossings"])
        out.append(entry)
    return out


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# -- running -----------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    spec: dict


def _cli_call(kgen, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kgen.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _build_field(kgen, base: str, steps: list):
    rep3 = kgen.clifford.build_rep(3, "left")
    if base == "dirac3":
        f = kgen.generators.dirac_phase_field(3, rep3)
    elif base == "weyl2":
        f = kgen.generators.weyl_field(2, rep3)
    else:
        f = kgen.generators.dirac_phase_field(1, kgen.clifford.build_rep(1, "left"))
    for step in steps:
        if step[0] == "conjugate":
            w = np.asarray(step[1], dtype=float)
            f = f.conjugated_by(w[..., 0] + 1j * w[..., 1])
        elif step[0] == "doubled":
            f = f.direct_sum(f)
        else:
            f = f.direct_sum(f.reflect(step[1]))
    return f


def write_files(inputs: dict, workdir: str, prefix: str) -> dict:
    """Write a pass's model files under ``workdir``; returns name -> path,
    including the paths the pass's operations write to."""
    paths = {}
    for name, text in inputs["files"].items():
        path = os.path.join(workdir, f"{prefix}{name}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    # Every pass writes its gap map to the same file, so a process keeps one
    # ~20 MB CSV on disk rather than one per pass.
    for op in inputs["ops"]:
        gap = op["expect"].get("gap_map")
        if gap is not None:
            paths[gap["file"]] = os.path.join(workdir, gap["file"])
    return paths


def materialise(kgen, inputs: dict, paths: dict) -> list:
    """Runnable operations for one pass.  Library fields are built here, in
    set-up; CLI operations resolve ``@name`` arguments to the written files."""
    ops = []
    for spec in inputs["ops"]:
        if spec["kind"] == "cli":
            argv = [paths[t[1:]] if t.startswith("@") else t for t in spec["argv"]]
            ops.append(Op(spec["name"], lambda argv=argv: _cli_call(kgen, argv), spec))
        else:
            field = _build_field(kgen, spec["base"], spec["steps"])
            kwargs = dict(spec["kwargs"])
            call = spec["call"]
            ops.append(
                Op(
                    spec["name"],
                    lambda f=field, c=call, k=kwargs: getattr(kgen.charge, c)(f, **k),
                    spec,
                )
            )
    return ops


def _anchor(kgen, name: str) -> int:
    if name == "one":
        return 1
    sign = kgen.charge.chern_sign_weyl()
    if abs(sign) != 1:
        raise AssertionError(f"chern_sign_weyl() = {sign}, expected +-1")
    return sign


def _expected_charge(kgen, pair) -> int:
    coefficient, anchor = pair
    return coefficient * _anchor(kgen, anchor)


def _check_scan(kgen, expect: dict, reports: list) -> str | None:
    want = expect["crossings"]
    if len(reports) != len(want):
        return f"found {len(reports)} crossings, expected {len(want)}"
    anchor = _anchor(kgen, expect["anchor"])
    total = 0
    for rep, ref in zip(reports, want):
        if rep.get("error") is not None or rep.get("charge") is None:
            return f"crossing at {rep['location']} was not charged: {rep.get('error')}"
        dist = float(np.max(np.abs(np.subtract(rep["location"], ref["location"]))))
        if dist > LOCATION_TOL:
            return f"crossing at {rep['location']} is {dist:.3g} from {ref['location']}"
        charge = rep["charge"]
        if not charge["converged"]:
            return f"charge at {rep['location']} did not converge"
        if charge["charge"] != ref["sign"] * anchor:
            return f"charge {charge['charge']} at {rep['location']}, expected {ref['sign'] * anchor}"
        total += charge["charge"]
    net = sum(ref["sign"] for ref in want) * anchor
    if total != net:
        return f"charges sum to {total}, expected {net}"
    return None


def _check_gap_map(path: str, grid: int, dim: int) -> str | None:
    header = ",".join([f"x{i + 1}" for i in range(dim)] + ["gap"])
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        rows = sum(1 for _ in handle)
    if first != header:
        return f"gap map header {first!r}, expected {header!r}"
    if rows != grid**dim:
        return f"gap map has {rows} rows, expected {grid ** dim}"
    return None


def check(kgen, op: Op, output, outputs: dict, paths: dict) -> str | None:
    """Error message if ``output`` is wrong for ``op``, else None.

    ``outputs`` maps earlier operations of the same pass to their outputs (the
    two-thread scan is compared byte for byte with the one-thread scan).
    """
    spec, expect = op.spec, op.spec["expect"]
    if spec["kind"] == "lib":
        want = _expected_charge(kgen, expect["charge"])
        if output.charge != want or not output.converged:
            return f"charge {output.charge} (converged={output.converged}), expected {want}"
        return None

    code, text = output["code"], output["stdout"]
    if code != 0:
        return f"exit code {code}: {output['stderr'].strip()[:200]}"
    payload = json.loads(text)
    if "suite" in expect:
        if payload.get("suite") != expect["suite"] or payload.get("pass") is not True:
            return f"suite {payload.get('suite')} reported pass={payload.get('pass')}"
        return None
    if "charge" in expect:
        want = _expected_charge(kgen, expect["charge"])
        if payload["charge"] != want or not payload["converged"]:
            return f"charge {payload['charge']} (converged={payload['converged']}), expected {want}"
        return None
    if "same_as" in expect:
        other = outputs.get(expect["same_as"])
        if other is None or other["stdout"] != text:
            return "report differs from the one-thread scan"
    error = _check_scan(kgen, expect, payload)
    if error is None and "gap_map" in expect:
        gap = expect["gap_map"]
        error = _check_gap_map(paths[gap["file"]], gap["grid"], gap["dim"])
    return error
