"""Small dense-matrix helpers: Hermitian functional calculus and norms.

Everything operates on plain complex ndarrays and acts on the last two axes,
so a stack of matrices of shape (..., N, N) is processed in one call and a
single matrix is a stack of one; only the charge kernels' products
(``products``) hold small matrices node-last instead.  Matrix functions go
through eigendecomposition, which is adequate for the desk-scale sizes used here
(N <= 64) and keeps scipy out of the dependency set.
"""

from __future__ import annotations

import numpy as np

# Rows per chunk for work over large node sets (charge kernels, gap maps):
# their working memory is then bounded by the chunk, not the grid, and a
# chunk of 2 x 2 or 4 x 4 products stays in cache.
CHUNK = 4096


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
    """Squared Euclidean norm along the last axis, rounded as ``np.dot(row, row)`` is."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def rms_singular(a: np.ndarray) -> np.ndarray:
    """||a||_F / sqrt(N) for each matrix of a C-contiguous complex (M, N, N)
    stack: the root mean square of its singular values, and each of them
    where they are all equal.  The squares overflow from entries of about
    1e154 on, and ||a||_F itself from about 1.3e308; there ``hypot`` takes
    the norm of the entries divided by sqrt(N), so the result is finite
    wherever it is representable."""
    n = a.shape[-1]
    flat = a.reshape(len(a), -1).view(float)
    rms = np.sqrt(np.einsum("mi,mi->m", flat, flat) / n)
    big = np.isinf(rms)
    if big.any():
        rms[big] = np.hypot.reduce(flat[big] / np.sqrt(n), axis=1)
    return rms


def scalar_split(h: np.ndarray):
    """``(f0, a, s)`` for each matrix of a stack: f0 = Re tr h / N, the traceless
    part a = h - f0 I, formed in place of ``h``, and s = ``rms_singular(a)``.
    A 2 x 2 Hermitian h has the eigenvalues f0 - s and f0 + s: a is traceless,
    so by Cayley-Hamilton a^2 = -det(a) I = s^2 I.  Each diagonal entry is
    divided by N before the sum, so f0 is finite wherever the entries are
    (their sum can overflow)."""
    n = h.shape[-1]
    diag = np.arange(n)
    f0 = np.sum(h[:, diag, diag].real / n, axis=1)
    h[:, diag, diag] -= f0[:, None]
    return f0, h, rms_singular(h)


# Products of small matrices.  On 2 x 2 and 4 x 4 matrices most of the cost of
# numpy's batched ``@`` and ``einsum`` is per-matrix overhead.  Up to
# PLANAR_MAX the charge kernels hold a chunk node-last, as contiguous
# (..., N, N, M) arrays, and a product unrolls its j-sum into elementwise
# calls over the M nodes; above it they keep (..., M, N, N) stacks and ``@``.  The S^3 winding integrand
# (three products U^-1 d_a, two triple traces, the transposes included) over
# 2^18 nodes in 4,096-node chunks, on 2 cores with numpy 2.4.6 and OpenBLAS:
#
#     N    stacked ``@``    node-last
#     2    0.56-0.68 s      0.045-0.053 s
#     4    0.93-0.96 s      0.47-0.54 s
#     6    1.2-1.5 s        1.3-1.6 s
#     8    1.8-1.9 s        3.3-3.6 s
PLANAR_MAX = 4


def products(n: int):
    """``(arrange, matmul, trace3)`` for stacks of n x n matrices.

    ``arrange`` takes an (M, ..., n, n) stack, node axis first, to the layout
    that the other two take: a contiguous node-last (..., n, n, M) copy up to
    ``PLANAR_MAX``, else an (..., M, n, n) view.  ``matmul(a, b)`` is a b over
    broadcast leading axes and ``trace3(a, b, c)`` is tr(a b c) at each node.
    """
    if n <= PLANAR_MAX:
        return _nodes_last, _planar_matmul, _planar_trace3
    return _nodes_first, np.matmul, _stacked_trace3


def _nodes_last(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _nodes_first(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, 0, -3)


def _planar_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a b)[i, k] = sum_j a[i, j] b[j, k], each term one call over the nodes.
    # (Broadcasting a whole row or column per call runs several times slower.)
    n = a.shape[-2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(n):
        for k in range(n):
            o = out[..., i, k, :]
            np.multiply(a[..., i, 0, :], b[..., 0, k, :], out=o)
            for j in range(1, n):
                o += a[..., i, j, :] * b[..., j, k, :]
    return out


def _planar_trace3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # tr(a b c) = sum_{i, k} (a b)[i, k] c[k, i]
    return np.sum(_planar_matmul(a, b) * np.swapaxes(c, -3, -2), axis=(-3, -2))


def _stacked_trace3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", a @ b, c)


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
