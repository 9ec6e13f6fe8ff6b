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


def rms_singular(a: np.ndarray) -> np.ndarray:
    """||a||_F / sqrt(N) for each matrix of a C-contiguous complex (M, N, N)
    stack: the root mean square of its singular values, and each of them
    where they are all equal.  The squares overflow from entries of about
    1e154 on; there ``hypot`` takes the norm, so the result stays finite
    wherever the entries are."""
    n = a.shape[-1]
    flat = a.reshape(len(a), -1).view(float)
    rms = np.sqrt(np.einsum("mi,mi->m", flat, flat) / n)
    big = np.isinf(rms)
    if big.any():
        rms[big] = np.hypot.reduce(flat[big], axis=1) / np.sqrt(n)
    return rms


def scalar_split(h: np.ndarray):
    """``(f0, a, s)`` for each matrix of a stack: f0 = Re tr h / N, the traceless
    part a = h - f0 I, formed in place of ``h``, and s = ``rms_singular(a)``.
    Where a^2 is a multiple of I (``MatrixPolyField.scalar_square``), the
    spectrum of h is f0 - s and f0 + s, half of the N eigenvalues each."""
    n = h.shape[-1]
    f0 = np.trace(h, axis1=-2, axis2=-1).real / n
    diag = np.arange(n)
    h[:, diag, diag] -= f0[:, None]
    return f0, h, rms_singular(h)


# On stacks of 2 x 2 matrices a plain einsum runs several times faster than
# numpy's batched ``@``, whose cost there is per matrix, not per flop; from
# 4 x 4 on, ``@`` is as fast or faster.  These two products choose by size.


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over broadcast stacks."""
    if a.shape[-1] == 2:
        return np.einsum("...ij,...jk->...ik", a, b)
    return a @ b


def trace3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tr(a b c) for each matrix of the (M, N, N) stacks."""
    if a.shape[-1] == 2:
        return np.einsum("mij,mjk,mki->m", a, b, c)
    return np.einsum("mij,mji->m", a @ b, c)


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
