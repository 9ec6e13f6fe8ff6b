"""Small dense-matrix helpers: Hermitian functional calculus, norms, the
Pauli split of 1 x 1 and 2 x 2 matrices and products of small ones.

Everything operates on plain complex ndarrays and acts on the last two axes,
so a stack of matrices of shape (..., N, N) is processed in one call and a
single matrix is a stack of one; only the Pauli coordinates
(``pauli_split``) and the S^3 winding kernel's products (``products``) hold
small matrices node-last instead.  Matrix functions go through
eigendecomposition, which is adequate for the desk-scale sizes used here
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


def column_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a real (k, M) array.  Where the squares
    overflow, ``hypot`` takes it, so it is finite wherever it is representable."""
    norms = np.sqrt(np.einsum("km,km->m", x, x))
    big = np.isinf(norms)
    if big.any():
        norms[big] = np.hypot.reduce(x[:, big], axis=0)
    return norms


# f0 = Re tr h / N and the real Pauli coordinates a of the Hermitian part of
# h = f0 I + a . sigma, from the entries of an N x N h as row-major (re, im)
# pairs: none for N = 1, and each entry halved before the sum for N = 2, so
# that neither overflows.
_PAULI = {1: np.array([[1.0, 0.0]]),
          2: 0.5 * np.array([[1, 0, 0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 1, 0, 0, 0],
                             [0, 0, 0, -1, 0, 1, 0, 0], [1, 0, 0, 0, 0, 0, -1, 0]])}


def pauli_split(stacks, out: np.ndarray):
    """``(f0, a, s)`` for node-first stacks of N x N matrices, N <= 2: h
    (M, N, N), then any more of shape (M, k, N, N), such as its derivatives.
    f0 = Re tr h / N; a (K, 3, M) holds the Pauli coordinates of all K
    matrices, h's first, node-last in ``out`` (4 K M floats; a is empty for
    N = 1); and s = |a[0]|.  So a Hermitian h has the bands f0 - s and
    f0 + s, and the one band f0 for N = 1.  Each stack is one product with
    ``_PAULI``, exact but for the one rounding of each sum.
    """
    m, n = len(stacks[0]), stacks[0].shape[-1]
    pauli, flat, k = _PAULI[n], out.view(float), 0
    for stack in stacks:
        rows = stack.view(float).reshape(m, -1, 2 * n * n).transpose(1, 2, 0)
        size = len(pauli) * len(rows) * m
        np.matmul(pauli, rows, out=flat[k:k + size].reshape(-1, len(pauli), m))
        k += size
    coords = flat[:k].reshape(-1, len(pauli), m)
    return coords[0, 0], coords[:, 1:], column_norms(coords[0, 1:])


# Products of small matrices, for the S^3 winding integrand of sectors of 3 x 3
# and up (1 x 1 and 2 x 2 sectors take the determinant forms of ``charge``).
# On 4 x 4 matrices most of the cost of numpy's batched ``@`` and ``einsum`` is
# per-matrix overhead.  Up to PLANAR_MAX the kernel holds a chunk node-last,
# as contiguous (..., N, N, M) arrays, and a product unrolls its j-sum into
# elementwise calls over the M nodes; above it, it keeps (..., M, N, N) stacks
# and ``@``.  The integrand (three products U^-1 d_a, two triple traces, the
# layout copies included) over 2^18 nodes in 4,096-node chunks, min-max of
# 9 runs on one OpenBLAS thread with numpy 2.4.6:
#
#     N    stacked ``@``    node-last
#     3    0.48-0.82 s      0.11-0.19 s
#     4    0.56-0.75 s      0.34-0.48 s
#     6    0.71-0.82 s      0.99-1.23 s
#     8    1.04-1.69 s      3.00-3.59 s
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
    return func_of_spectrum(np.linalg.eigh(a), f)


def func_of_spectrum(spectrum, f) -> np.ndarray:
    """V f(Lambda) V* from the ``(vals, vecs)`` pair of ``np.linalg.eigh``.

    The pair does not depend on ``f``, so one eigendecomposition serves any
    number of functions of the same matrices, each with the bits that
    :func:`func_of_hermitian` gives it.
    """
    vals, vecs = spectrum
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
