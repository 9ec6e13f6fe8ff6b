"""Small dense-matrix helpers: Hermitian functional calculus and norms.

Everything operates on plain complex ndarrays and acts on the last two axes,
so a stack of matrices of shape (..., N, N) is processed in one call and a
single matrix is a stack of one.  Matrix functions go through
eigendecomposition, which is adequate for the desk-scale sizes used here
(N <= 64) and keeps scipy out of the dependency set.
"""

from __future__ import annotations

import numpy as np

# Rows per chunk for work over large node sets (charge kernels, gap maps):
# their working memory is then bounded by the chunk, not the grid.
CHUNK = 16384


def chunks(m: int):
    """Slices covering ``range(m)`` in consecutive blocks of ``CHUNK`` rows."""
    return (slice(start, start + CHUNK) for start in range(0, m, CHUNK))


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for empty input."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row, rounded as ``np.dot(row, row)`` is."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def func_of_hermitian(a: np.ndarray, f) -> np.ndarray:
    """Apply the scalar function ``f`` to Hermitian matrices by eigendecomposition."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * f(vals)[..., None, :]) @ dagger(vecs)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of positive-semidefinite matrices.

    Tiny negative eigenvalues from roundoff are clamped to zero before the
    square root is taken.
    """
    return func_of_hermitian(a, lambda vals: np.sqrt(np.maximum(vals, 0.0)))


def operator_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the stack."""
    return np.linalg.norm(a, 2, axis=(-2, -1))
