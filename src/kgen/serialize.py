"""JSON encoding of complex matrices and the payload schemas built on them.

Complex entries are stored as two-element ``[re, im]`` arrays.  Term lists are
sorted by multi-index so that serialization is deterministic.  Every verify
suite reports through :func:`suite_report`.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelFormatError


def suite_report(suite: str, d, samples: int, max_residual: float, passed: bool, **extra) -> dict:
    """Report of a verify suite: the five shared keys, cast for strict JSON
    (``d`` may be None), followed by the suite's own ``extra`` keys."""
    return {
        "suite": suite,
        "d": None if d is None else int(d),
        "samples": int(samples),
        "max_residual": float(max_residual),
        "pass": bool(passed),
        **extra,
    }


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed complex matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelFormatError(
            f"complex matrix must be square with [re, im] entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError("complex matrix has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def terms_to_json(terms: dict) -> list:
    return [
        {"powers": list(alpha), "matrix": matrix_to_json(mat)}
        for alpha, mat in sorted(terms.items())
    ]


def poly_from_json(payload) -> tuple:
    """``(dimension, size, terms)`` of a field or band-model payload, each checked."""
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must contain a JSON object")
    for key in ("dimension", "size", "terms"):
        if key not in payload:
            raise ModelFormatError(f"model file is missing the {key!r} key")
    ambient_dim, size, data = payload["dimension"], payload["size"], payload["terms"]
    if not isinstance(ambient_dim, int) or not isinstance(size, int):
        raise ModelFormatError("'dimension' and 'size' must be integers")
    if not isinstance(data, list):
        raise ModelFormatError("'terms' must be a list")
    terms = {}
    for entry in data:
        if not isinstance(entry, dict) or "powers" not in entry or "matrix" not in entry:
            raise ModelFormatError("each term needs 'powers' and 'matrix'")
        powers = entry["powers"]
        if len(powers) != ambient_dim or any(
            not isinstance(p, int) or p < 0 for p in powers
        ):
            raise ModelFormatError(f"bad multi-index {powers!r}")
        mat = matrix_from_json(entry["matrix"])
        if mat.shape != (size, size):
            raise ModelFormatError(
                f"term {tuple(powers)} has shape {mat.shape}, expected {(size, size)}"
            )
        alpha = tuple(powers)
        if alpha in terms:
            raise ModelFormatError(f"duplicate multi-index {alpha}")
        terms[alpha] = mat
    return ambient_dim, size, terms
