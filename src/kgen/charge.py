"""Integer topological charges of matrix fields on S^1, S^2 and S^3.

Winding numbers of unitary (more generally invertible) fields on S^1 and S^3
use the odd Chern character,

    w_1 = (1 / 2 pi i)   int tr(U^-1 dU),
    w_3 = -(1 / 24 pi^2) int tr((U^-1 dU)^3),

and the charge of a gapped self-adjoint field on S^2 is the Chern number of
its spectral projection below the Fermi level,

    c = (1 / 2 pi i) int tr(P [dP, dP]),

whose integrand in the eigenbasis of the field h is the occupied-unoccupied
Berry-curvature sum (Thouless, Kohmoto, Nightingale and den Nijs, PRL 49,
405 (1982)),

    tr(P [d_0 P, d_1 P]) = 2i Im sum_{o,u} k_0[o,u] conj(k_1[o,u]),
    k_a[o,u] = <o| d_a h |u> / (E_o - E_u).

All derivatives are exact: the fields are matrix polynomials, evaluated
together with their derivatives along the parametrization tangents stored on
the grid.  First-order perturbation is exact for gapped Hamiltonians and
needs no gauge fixing.  The grids on S^2 and S^3 are suspensions of the grid
one dimension down, the same way the generator on S^d is built from the one on
S^(d-1).

Charges of a direct sum add, and so do the integrands: the spectral
projection, the inverse and the traces of a block-diagonal field are those of
its blocks.  Each charge therefore splits the field into its decoupled
sectors (``MatrixPolyField.sectors``), runs the kernel on each with the same
grid and sums the raws; a field of one sector goes through the kernel as it
is.  Each sector has its own gates and takes its own path, and a
band count below the Fermi level that varies within one sector is refused
even where the total count does not vary (the gap of that sector closes).

The kernels walk the grid in fixed-size chunks of rows, generating,
evaluating, gating and integrating one chunk at a time into a running sum.
They take a grid only as a ``GridRows`` and never hold it whole: cached per
(dim, n), it keeps only the polar angles' sines, cosines and weights and the
grid one dimension down (at most 2 n^2 rows, the S^2 inside S^3), and each
chunk's rows are products of the two.  Rows are coordinate-major: a chunk's
nodes are a (dim + 1, M) array and its tangents one contiguous (M, dim) block
per ambient coordinate, exposed as the (M, dim + 1) and (M, dim, dim + 1)
views of ``SphereGrid``.  So each product is a contiguous run over the inner
rows of one polar node, and ``MatrixPolyField.evaluate_batch`` builds its
monomials from contiguous columns.  Its Gauss-Legendre rule comes from a
Newton iteration in O(n) memory (``_gauss_legendre``).  A chunk's rows, the
field's values and derivatives there and the node-last rows of the closed
forms below are written into one block, which ``_assemble`` makes once per
charge, for the largest sector and the larger grid, and hands to every
sector's kernel.  So their memory does not grow with the resolution;
``sphere_grid`` gives callers the same rows whole.  An enclosing sphere
|x - c| = r is the same grid moved chunk by chunk, to nodes c + r u with
tangents r du.  ``chern_2`` and ``winding_1`` take it as ``center, radius``,
which ``_check_field`` alone checks: a finite center in the ambient
dimension, a finite radius > 0, and the unit sphere when no center is given.
The products of the general S^3 integrand take each chunk once, after its
gates, into the layout of ``_linalg.products``: node-last for matrices up to
4 x 4 (direct sums of two generators mixed into one sector), so that a
product is a few elementwise calls over the nodes, and stacked for larger
ones.

Sectors of size at most 2 need no eigensolver, no inverse and no matrix
product, and their closed forms are exact.  A Hermitian one, the even
generator x . sigma and every two-band crossing among them, is
h = f0 I + a . sigma in the Pauli coordinates of its Hermitian part
(``_linalg.pauli_split``, shared with the gap map): the bands f0 +- s,
s = |a|, or f0 alone on 1 x 1.  Below a Fermi level between them
P = (I - a . sigma / s) / 2, and

    tr(P [d_0 P, d_1 P]) = -(i / 2) (a / s) . (d_0 a / s x d_1 a / s),

the two-band form of the curvature above (``_two_band_curvature``).  A 1 x 1
or 2 x 2 winding sector, the odd generators among them, is gated from
V = U / s, s = ||U||_F / sqrt(N), and det V alone (``_closed_gate``), and its
integrand is one of determinants of V and d_a U / s (``_winding_closed``).  On
S^1 it is tr(U^-1 dU) = d(det V) / det V.  On S^3 the l_a = U^-1 d_a U of a
1 x 1 sector commute, so it adds nothing, and a 2 x 2 one has

    3 (tr(l_1 l_2 l_3) - tr(l_1 l_3 l_2)) = -3 det[U, d_1 U, d_2 U, d_3 U] / (det U)^2,

the 4 x 4 determinant stacking each matrix's four entries, by its Laplace
expansion in 2 x 2 minors.  The closed forms divide by s before they
multiply, so they stay finite wherever the field's entries are and its
derivatives divided by s are.
Every larger sector takes the general path: ``eigh`` of h / s for the Chern
integrand, with s = ||h||_F / sqrt(N), so that no band difference overflows
either, and ``inv`` for the windings, whose invertibility is certified from
that inverse via sigma_min(U) >= 1 / ||U^-1||_F; the SVD runs only on a
chunk where that bound is <= GAP_MIN.  Both paths apply the same gates, each
before any division.  Coefficients are finite (the field's constructor
refuses any other), but values or derivatives that overflow on the sphere
are refused chunk by chunk (``_chunk_fields``), before any gate reads them,
and a summed raw that is not finite is refused too (``_assemble``).

The normalizations above are fixed by requiring integrality, additivity under
direct sums and charge +1 for the scalar winding x1 + i x2.  Which sign the
even generator field produces is a convention that depends on the chosen
Clifford matrices; it is computed once by :func:`chern_sign_weyl` rather than
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _linalg
from ._linalg import chunks, pauli_split, products, rms_singular
from .errors import (
    DimensionMismatchError,
    GapClosedError,
    ModelOverflowError,
    UnsupportedDimensionError,
)
from .fields import MatrixPolyField

# Invertibility/gap floor at quadrature nodes, integrality threshold for a
# PASS, and the default resolutions per sphere dimension.
GAP_MIN = 1e-8
PASS_RESIDUAL = 0.01
DEFAULT_RESOLUTION = {1: 256, 2: 64, 3: 24}

# The most nodes of the doubled grid (2n on S^1, 8 n^2 on S^2, 16 n^3 on
# S^3) that a charge walks.  At the bound a 2 x 2 field takes 1.8 s on S^1,
# 3.8 s on S^2 and 4.7 s on S^3 (one OpenBLAS thread, 2 cores, numpy 2.4.6),
# and larger fields proportionally longer.  It is 8 times the largest grid
# the tests and the benchmark use (S^2 at n = 512).  It also bounds the n^m
# nodes of a band scan's box grid (bandscan._box_grid): n <= 256 for m = 3.
MAX_GRID_NODES = 2**24


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature grid on S^dim.

    ``weights`` integrate over the parameter domain (d theta d phi ...), which
    is where the kernels' pulled-back integrands live, and ``dx_dparam`` are
    the tangent vectors d(node)/d(parameter) used to pull ambient derivatives
    back to the parametrization.  The grids that this module makes are
    coordinate-major, and their ``nodes`` and ``dx_dparam`` are transposed
    views, not C-contiguous: ``nodes.T`` and ``dx_dparam.transpose(2, 0, 1)``
    hold one contiguous row of nodes and (M, dim) block of tangents per
    ambient coordinate.
    """

    dim: int
    nodes: np.ndarray  # (M, dim + 1): the transpose of (dim + 1, M) rows
    weights: np.ndarray  # (M,)
    dx_dparam: np.ndarray  # (M, dim, dim + 1): a view of (dim + 1, M, dim) rows


@dataclass(frozen=True)
class ChargeResult:
    """Raw invariant, rounded charge and convergence data."""

    raw: float
    charge: int
    residual: float
    resolution: int
    convergence_pair: tuple
    converged: bool

    def to_payload(self) -> dict:
        return {
            "raw": float(self.raw),
            "charge": int(self.charge),
            "residual": float(self.residual),
            "resolution": int(self.resolution),
            "convergence_pair": [float(v) for v in self.convergence_pair],
            "converged": bool(self.converged),
        }


def check_resolution(n, dim: int) -> None:
    """Refuse a resolution of a charge on S^dim that is not an integer >= 4, or
    whose doubled grid, the convergence check's, has more than MAX_GRID_NODES
    nodes; before any grid factor or Gauss-Legendre rule is built."""
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"supported sphere dimensions are 1, 2, 3; got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise ValueError(f"resolution must be an integer >= 4, got {n!r}")
    m = 2 * int(n)  # a Python int, which cannot wrap as numpy's int64 would
    nodes = m if dim == 1 else 2 * m**dim
    if nodes > MAX_GRID_NODES:
        raise ValueError(f"resolution {n} is too fine: its grid at 2n on S^{dim} has {nodes} "
                         f"nodes, more than MAX_GRID_NODES = {MAX_GRID_NODES}")


def sphere_grid(dim: int, n: int) -> SphereGrid:
    """Build the quadrature grid at resolution ``n``: all the rows that the
    charge kernels generate chunk by chunk (:class:`GridRows`), in fresh arrays
    of the same coordinate-major layout, so ``nodes`` and ``dx_dparam`` are
    not C-contiguous (see :class:`SphereGrid`).  A resolution that the charges
    refuse (:func:`check_resolution`) is refused here too.

    S^1 is n equispaced angles.  S^d for d = 2, 3 is the suspension of an
    inner grid on S^(d-1): x = (sin psi * y, cos psi), so d/dpsi =
    (cos psi * y, -sin psi) and the inner tangents are scaled by sin psi.  The
    inner grid is the 2n-angle circle for S^2 and the n-resolution S^2 for
    S^3.  The polar angle psi takes n Gauss-Legendre nodes in cos psi on S^2,
    whose weights w become w / sin psi in d psi, and in psi itself on S^3,
    with weights (pi / 2) w.  The parameters are (theta, phi) on S^2, with
    psi = theta, and (psi, theta, phi) on S^3; nodes run over psi first, then
    the inner grid.
    """
    check_resolution(n, dim)
    rows = _grid_rows(dim, n)
    return rows.rows(0, rows.size)


@dataclass(frozen=True)
class GridRows:
    """The grid on S^dim at one resolution, held as the small factors that
    each of its ``size`` rows is made from.

    Row r of S^1 is the angle 2 pi r / n.  On S^2 and S^3, row r is polar node
    p and inner row q, (p, q) = divmod(r, m) over the m rows of ``inner``, and
    each entry is one product of a factor of p (``sin``, ``cos``,
    ``psi_weights``) and an entry of q, as in :func:`sphere_grid`.  Every
    operation is elementwise, so any run of rows is generated with the bits of
    the whole grid, and the kernels take the grid one chunk of rows at a time
    and never hold it whole.  Rows are written coordinate-major (see
    :class:`SphereGrid`), so each product is one long run over the inner rows
    of a polar node, for one coordinate at a time: contiguous for the nodes
    and weights, with a stride of dim entries for each tangent.
    """

    dim: int
    size: int
    inner: SphereGrid | None = None
    sin: np.ndarray | None = None
    cos: np.ndarray | None = None
    psi_weights: np.ndarray | None = None

    def rows(self, start: int, stop: int, out: SphereGrid | None = None) -> SphereGrid:
        """Rows ``start:stop``, generated into the leading rows of ``out`` (into
        fresh coordinate-major arrays when it is None)."""
        k, d = stop - start, self.dim
        if out is None:
            grid = _empty_rows(d, k)
        else:
            grid = SphereGrid(d, out.nodes[:k], out.weights[:k], out.dx_dparam[:k])
        if d == 1:
            x, t = grid.nodes.T, grid.dx_dparam.transpose(2, 0, 1)
            theta = 2.0 * np.pi * np.arange(start, stop) / self.size
            np.cos(theta, out=x[0])
            np.sin(theta, out=x[1])
            np.negative(x[1], out=t[0, :, 0])
            t[1, :, 0] = x[0]
            grid.weights[...] = 2.0 * np.pi / self.size
            return grid
        # At most three runs: the rest of one psi block, whole blocks, and the
        # start of another, each written through (coordinate, blocks, rows, ...)
        # views.
        m_in = len(self.inner.weights)
        r = start
        while r < stop:
            p, q = divmod(r, m_in)
            if q == 0 and stop - r >= m_in:
                ps, qs = slice(p, p + (stop - r) // m_in), slice(0, m_in)
            else:
                ps, qs = slice(p, p + 1), slice(q, min(m_in, q + stop - r))
            end = r + (ps.stop - ps.start) * (qs.stop - qs.start)
            self._fill(grid, r - start, end - start, ps, qs)
            r = end
        return grid

    def _fill(self, grid: SphereGrid, lo: int, hi: int, ps: slice, qs: slice) -> None:
        d = self.dim
        nb, nq = ps.stop - ps.start, qs.stop - qs.start
        x = grid.nodes.T[:, lo:hi].reshape(d + 1, nb, nq)
        t = grid.dx_dparam.transpose(2, 0, 1)[:, lo:hi].reshape(d + 1, nb, nq, d)
        s = self.sin[ps, None]
        c = self.cos[ps, None]
        y = self.inner.nodes.T[:, None, qs]
        dy = self.inner.dx_dparam.transpose(2, 0, 1)[:, None, qs]
        np.multiply(s, y, out=x[:d])
        x[d] = c
        np.multiply(c, y, out=t[:d, ..., 0])
        for a in range(1, d):
            np.multiply(s, dy[..., a - 1], out=t[:d, ..., a])
        t[d] = 0.0
        t[d, ..., 0] = -s
        np.multiply(self.psi_weights[ps, None], self.inner.weights[qs],
                    out=grid.weights[lo:hi].reshape(nb, nq))


def _empty_rows(dim: int, m: int) -> SphereGrid:
    """A :class:`SphereGrid` of m coordinate-major rows on S^dim to be written:
    (dim + 1, m) nodes, m weights and (dim + 1, m, dim) tangents."""
    return SphereGrid(dim, np.empty((dim + 1, m)).T, np.empty(m),
                      np.empty((dim + 1, m, dim)).transpose(1, 2, 0))


def _grid_rows(dim: int, n: int) -> GridRows:
    """The cached :class:`GridRows` of S^dim at resolution ``n``, which the
    caller has checked (:func:`check_resolution`)."""
    return _cached_grid_rows(dim, int(n))


def _build_grid_rows(dim: int, n: int) -> GridRows:
    # The largest factor is the inner S^2 of an S^3 grid, 2 n^2 rows.
    if dim == 1:
        return GridRows(1, n)
    inner = _build_grid_rows(1, 2 * n) if dim == 2 else _build_grid_rows(2, n)
    inner = inner.rows(0, inner.size)
    x, w = _gauss_legendre(n)
    if dim == 2:
        psi = np.arccos(x)
        w_psi = w / np.sin(psi)
    else:
        psi = 0.5 * np.pi * (x + 1.0)
        w_psi = 0.5 * np.pi * w
    rows = GridRows(dim, n * len(inner.weights), inner, np.sin(psi), np.cos(psi), w_psi)
    for a in (inner.nodes, inner.weights, inner.dx_dparam, rows.sin, rows.cos, w_psi):
        a.setflags(write=False)  # the cache shares them with every caller
    return rows


_cached_grid_rows = lru_cache(maxsize=16)(_build_grid_rows)


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1] in O(n) memory.

    Newton's method runs on the angles theta of the roots x = cos theta of P_n,
    vectorized over the roots, with P_n and P_(n-1) from the three-term
    recurrence; the weights 2 sin^2 theta / (n P_(n-1)(x))^2 take sin theta from
    the angle, so they keep their relative accuracy next to x = +-1 (Hale and
    Townsend, SIAM J. Sci. Comput. 35, A652 (2013)).  Tricomi's estimates start
    within 4e-4 of the angles for every n >= 4 (closer as n grows), and each
    step about squares the error, so four steps reach rounding.  The roots in
    [0, 1) are mirrored: the rule is symmetric to the bit, with the node 0 for
    odd n.
    """
    k = np.arange(n // 2 + n % 2, 0, -1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(4):
        x = np.cos(theta)
        p, p_prev = _legendre_pair(n, x)
        theta += np.sin(theta) * p / (n * (p_prev - x * p))  # n (...) = sin^2 theta P_n'(x)
    x = np.cos(theta)
    p, p_prev = _legendre_pair(n, x)
    w = 2.0 * (np.sin(theta) / (n * (p_prev - x * p))) ** 2
    x[: n % 2] = 0.0
    return np.concatenate([-x[n % 2:][::-1], x]), np.concatenate([w[n % 2:][::-1], w])


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


def _check_field(field: MatrixPolyField, dim: int, center=None, radius=1.0):
    """The float center of a valid sphere |x - center| = radius (None: the unit
    sphere).  Coefficients are finite: the field's constructor refuses others."""
    if not isinstance(field, MatrixPolyField):
        raise TypeError("charge computations need exact derivatives; pass a MatrixPolyField")
    if field.ambient_dim != dim + 1:
        raise DimensionMismatchError(
            f"a field on S^{dim} needs ambient dimension {dim + 1}, got {field.ambient_dim}"
        )
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"enclosure radius must be finite and positive, got {radius}")
    if center is None:
        if radius != 1.0:
            raise ValueError(f"a radius of {radius} needs a center; the unit sphere has radius 1")
        return None
    center = np.asarray(center, dtype=float)
    if center.shape != (dim + 1,):
        raise DimensionMismatchError("center must match the ambient dimension")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    return center


def _closed_gate(u: np.ndarray, v: np.ndarray):
    """Refuse a stack of 1 x 1 or 2 x 2 matrices U where one is (nearly)
    singular; else ``(det V, 1 / s)``, with V = U / s written node-last into
    the (N^2, M) rows ``v`` entry by entry and s = ``rms_singular(U)`` (1 / s
    is floored at 1 / tiny, so V = 0 where U = 0).

    As ||V||_F^2 = N, sigma_min(U) is s |det V| for N = 1 and
    s |det V| / sqrt(1 + sqrt(1 - |det V|^2)) for N = 2, so the gate
    sigma_min > GAP_MIN is exact (NaN fails it).  Where |det V| <= 4 eps
    (rounding noise: its two products are at most 1 in modulus together), U is
    refused as ``inv`` refuses an exact zero pivot, and the SVD names sigma_min.
    """
    s = rms_singular(u)
    r = 1.0 / np.maximum(s, np.finfo(float).tiny)
    np.multiply(u.reshape(len(u), -1).T, r, out=v)
    det = v[0] if len(v) == 1 else v[0] * v[3] - v[1] * v[2]
    m = np.abs(det)
    sv = s * m if len(v) == 1 else s * m / np.sqrt(1.0 + np.sqrt(np.maximum(1 - m * m, 0)))
    sv_min = float(np.min(sv))
    if sv_min > GAP_MIN and np.min(m) > 4.0 * np.finfo(float).eps:
        return det, r
    if sv_min > GAP_MIN:
        sv_min = float(np.linalg.svd(u, compute_uv=False)[..., -1].min())
    raise _singular_error(sv_min)


def _singular_error(sv_min: float) -> GapClosedError:
    return GapClosedError(f"field is (nearly) singular on the grid: min singular value {sv_min}")


def _gated_inverse(u: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices larger than 2 x 2 (smaller ones take
    :func:`_winding_closed`), refused where one is (nearly) singular.

    ``inv`` forms them, and the SVD runs only where sigma_min >= 1 / ||U^-1||_F
    does not clear GAP_MIN.  Where ``inv`` meets an exact zero pivot, U is
    refused even if the SVD puts sigma_min above GAP_MIN.
    """
    uinv = None
    try:
        uinv = np.linalg.inv(u)
    except np.linalg.LinAlgError:
        pass
    else:
        # An underflowing norm gives inf (right); an overflowing one 0 (the SVD decides).
        with np.errstate(over="ignore", divide="ignore"):
            if np.all(1.0 / np.linalg.norm(uinv, axis=(1, 2)) > GAP_MIN):
                return uinv
    sv_min = float(np.linalg.svd(u, compute_uv=False)[..., -1].min())
    if uinv is None or not sv_min > GAP_MIN:
        raise _singular_error(sv_min)
    return uinv


def _chunk_block(dim: int, n: int, m: int):
    """``(rows, work)`` for chunks of up to ``m`` rows on S^dim and sectors of
    up to n x n: the :func:`_empty_rows` of m rows, whose leading k rows hold a
    contiguous run of k nodes and of k x dim tangents per ambient coordinate;
    and a flat complex array that holds a chunk's values and derivatives and,
    for a sector of at most 2 x 2, as many entries again for the node-last
    rows of the closed forms (:func:`_chunk_fields`)."""
    # A k x k sector takes (1 + dim) m k^2 entries, twice that for k <= 2: at
    # most 8 (1 + dim) m <= (1 + dim) m n^2 when n >= 3.
    size = (1 + dim) * m * (2 * n * n if n <= 2 else n * n)
    return _empty_rows(dim, m), np.empty(size, dtype=complex)


def _chunk_fields(field: MatrixPolyField, grid, center=None, radius=1.0, block=None):
    """``(rows, values, derivatives, spare)`` of ``field`` on each row chunk of
    the :class:`GridRows` ``grid`` or, given ``center``, of the grid moved to
    |x - center| = ``radius``: nodes center + radius u and tangents radius du,
    so by the chain rule the integrand is that of the restricted field.
    A chunk whose values or derivatives are not finite (the model overflows
    there) is refused here, for every sector size, before any gate, ``eigh``
    or ``inv`` reads it: this is the one check of overflow on the sphere.

    Every chunk is written into ``block``, a :func:`_chunk_block` for at least
    this field and the grid's largest chunk (made for the call when None), so
    a chunk is valid until the next one is drawn, and the heap is not grown
    and given back chunk by chunk.  ``spare`` is the block's flat complex room
    for as many entries as the values and derivatives on a sector of at most
    2 x 2, and None on a larger one."""
    n, dim = field.size, grid.dim
    if block is None:
        block = _chunk_block(dim, n, min(_linalg.CHUNK, grid.size))
    row_buffer, work = block
    for sl in chunks(grid.size):
        m = min(sl.stop, grid.size) - sl.start
        rows = grid.rows(sl.start, sl.start + m, row_buffer)
        size = m * n * n
        out = work[:size].reshape(m, n, n), work[size:(1 + dim) * size].reshape(m, dim, n, n)
        spare = work[(1 + dim) * size:2 * (1 + dim) * size] if n <= 2 else None
        if center is None:
            h, d = field.evaluate_batch(rows.nodes, rows.dx_dparam, out)
        else:
            h, d = field.evaluate_batch(center + radius * rows.nodes, radius * rows.dx_dparam, out)
        if not (np.isfinite(h.view(float)).all() and np.isfinite(d.view(float)).all()):
            raise _overflow_error("field", center, radius)
        yield rows, h, d, spare


def _overflow_error(what: str, center, radius) -> ModelOverflowError:
    where = (
        "the unit sphere" if center is None
        else f"the sphere of radius {radius} about {center.tolist()}"
    )
    return ModelOverflowError(f"{what} is not finite on {where}; the model overflows there")


def _winding_raw(field: MatrixPolyField, grid, center=None, radius=1.0, block=None) -> float:
    closed = field.size <= 2
    if grid.dim == 3 and not closed:
        arrange, matmul, trace3 = products(field.size)
    total = 0.0
    for rows, u, d, spare in _chunk_fields(field, grid, center, radius, block):
        if closed:
            integrand = _winding_closed(u, d, spare)
            if integrand is not None:
                total += np.sum(rows.weights * integrand)
        elif grid.dim == 1:
            log_deriv = np.einsum("mij,mji->m", _gated_inverse(u), d[:, 0], optimize=True)
            total += np.sum(rows.weights * log_deriv)
        else:
            # tr((U^-1 dU)^3) pulls back to the signed sum of tr(l1 l2 l3)
            # over the 3! orderings, which cyclicity reduces to
            # 3 (tr(l1 l2 l3) - tr(l1 l3 l2)).
            l1, l2, l3 = matmul(arrange(_gated_inverse(u)), arrange(d))
            integrand = trace3(l1, l2, l3) - trace3(l1, l3, l2)
            total += np.sum(rows.weights * 3.0 * integrand)
    if grid.dim == 1:
        return float(np.real(total / (2.0j * np.pi)))
    return float(np.real(-total / (24.0 * np.pi**2)))


def _winding_closed(u: np.ndarray, d: np.ndarray, spare: np.ndarray):
    """The winding integrand at each node of a chunk of a 1 x 1 or 2 x 2
    sector, after its gate, from determinants of V = U / s and d_a U / s, held
    node-last in ``spare`` (each form's determinants scale alike in s).

    On S^1 it is tr(U^-1 dU) = d(det V) / det V.  On S^3 it is None on a 1 x 1
    sector, where the l_a = U^-1 d_a U commute, and on a 2 x 2 one
    3 (tr(l1 l2 l3) - tr(l1 l3 l2)) = -3 det[U, d_1 U, d_2 U, d_3 U] / (det U)^2,
    the 4 x 4 determinant stacking each matrix's entries row-major: the
    Laplace expansion in the 2 x 2 minors of its rows (V, d_1 U / s) and
    (d_2 U / s, d_3 U / s).
    """
    m, n, dim = len(u), u.shape[-1], d.shape[1]
    x = spare[:(1 + dim) * n * n * m].reshape(1 + dim, n * n, m)
    det, r = _closed_gate(u, x[0])
    if dim == 3 and n == 1:
        return None
    np.multiply(np.moveaxis(d.reshape(m, dim, n * n), 0, -1), r, out=x[1:])
    if dim == 1:
        v, e = x
        return (e[0] if n == 1 else v[0] * e[3] + e[0] * v[3] - v[1] * e[2] - e[1] * v[2]) / det
    v, d1, d2, d3 = x

    def p(j, k):
        return v[j] * d1[k] - v[k] * d1[j]

    def q(j, k):
        return d2[j] * d3[k] - d2[k] * d3[j]

    det4 = (p(0, 1) * q(2, 3) - p(0, 2) * q(1, 3) + p(0, 3) * q(1, 2)
            + p(1, 2) * q(0, 3) - p(1, 3) * q(0, 2) + p(2, 3) * q(0, 1))
    return -3.0 * det4 / (det * det)


def _two_band_curvature(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Im tr(P [d_0 P, d_1 P]) at each node of a gapped 2 x 2 chunk with one
    band below fermi, from the ``(a, s)`` of ``_linalg.pauli_split``.

    P = (I - a . sigma / s) / 2, so tr(P [d_0 P, d_1 P]) =
    -(i / 2) (a / s) . (d_0 a / s x d_1 a / s): the parts of d a along a drop
    out of the triple product.  Each factor is divided by s, in place, before
    it multiplies, so that nothing overflows; the gap gate keeps s > GAP_MIN.
    """
    a /= s
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = a
    return -0.5 * (a1 * (b2 * c3 - b3 * c2) + a2 * (b3 * c1 - b1 * c3) + a3 * (b1 * c2 - b2 * c1))


def _chern_raw(field: MatrixPolyField, grid, center=None, radius=1.0, block=None) -> float:
    """Raw Chern number of the bands of ``field`` below 0: ``chern_2`` hands
    it h - fermi I (``MatrixPolyField.shifted``), so fermi is 0 here."""
    total = 0.0
    n_occ = None
    closed = field.size <= 2
    for rows, h, d, spare in _chunk_fields(field, grid, center, radius, block):
        if closed:
            f0, a, s = pauli_split((h, d), spare)
            vals = f0[:, None] if field.size == 1 else np.stack([f0 - s, f0 + s], axis=1)
        else:
            # eigh takes h / s, s = rms_singular(h) floored at tiny (h = 0 stays
            # 0), and E = s lam: no difference E_o - E_u below overflows.
            s = np.maximum(rms_singular(h), np.finfo(float).tiny)
            h /= s[:, None, None]
            lam, vecs = np.linalg.eigh(h)
            vals = s[:, None] * lam
        gap = float(np.min(np.abs(vals)))
        if not gap > GAP_MIN:  # NaN fails it too
            raise GapClosedError(f"spectral gap closes on the grid: min |eig - fermi| = {gap}")
        # The sphere is connected, so a band count below fermi that differs
        # between nodes means the gap closes between them.  The range named is
        # the count at the first node and at the first node that differs from
        # it, so it does not depend on the chunk size.
        counts = np.count_nonzero(vals < 0.0, axis=1)
        if n_occ is None:
            n_occ = int(counts[0])
        differs = np.flatnonzero(counts != n_occ)
        if differs.size:
            low, high = sorted((n_occ, int(counts[differs[0]])))
            raise GapClosedError(
                f"number of bands below fermi varies on the grid ({low} to {high})"
            )
        if n_occ in (0, field.size):
            continue  # P is 0 or I: no curvature

        if closed:
            integrand = _two_band_curvature(a, s)
        else:
            # Berry curvature in the eigenbasis: tr(P [dP_0, dP_1]) = 2i Im sum k_0 conj(k_1)
            # with k_a = <o| d_a h |u> / (E_o - E_u) over occupied o and unoccupied u,
            # each taken as <o| d_a h / s |u> / (lam_o - lam_u).
            d /= s[:, None, None, None]
            occ_h = vecs[:, :, :n_occ].conj().transpose(0, 2, 1)
            denom = lam[:, :n_occ, None] - lam[:, None, n_occ:]
            k0, k1 = (occ_h @ d[:, a] @ vecs[:, :, n_occ:] / denom for a in (0, 1))
            integrand = 2.0 * np.sum(k0 * k1.conj(), axis=(1, 2)).imag
        total += np.sum(rows.weights * integrand)
    return float(total / (2.0 * np.pi))


def _assemble(kernel, field: MatrixPolyField, dim: int, resolution: int | None,
              center=None, radius=1.0) -> ChargeResult:
    """Charge of ``field`` from ``kernel(sector, grid, center, radius, block)``,
    summed over its sectors, at the resolution and at twice it.  The grids are
    the cached :class:`GridRows`, whose rows each sector's kernel generates
    chunk by chunk into ``block``, one :func:`_chunk_block` for the largest
    sector and the larger grid's chunks.  The sum starts from the first raw
    rather than from 0, so that a one-sector field keeps the bits of its raw
    (0 + -0.0 would be 0.0)."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[dim]
    check_resolution(resolution, dim)
    grids = [_grid_rows(dim, n) for n in (resolution, 2 * resolution)]
    size = max(sector.size for sector in field.sectors)
    block = _chunk_block(dim, size, min(_linalg.CHUNK, grids[1].size))
    raws = []
    # Evaluation may overflow before _chunk_fields refuses the chunk.
    with np.errstate(over="ignore", invalid="ignore"):
        for grid in grids:
            first, *rest = (kernel(sector, grid, center, radius, block)
                            for sector in field.sectors)
            raw = sum(rest, first)
            if not np.isfinite(raw):
                raise _overflow_error("charge integrand", center, radius)
            raws.append(raw)
    raw_n, raw_2n = raws
    charge = int(np.rint(raw_n))
    residual = abs(raw_n - charge)
    converged = abs(raw_2n - charge) <= residual + 1e-9 and residual < PASS_RESIDUAL
    return ChargeResult(
        raw=float(raw_n),
        charge=charge,
        residual=float(residual),
        resolution=int(resolution),
        convergence_pair=(float(raw_n), float(raw_2n)),
        converged=bool(converged),
    )


def winding_1(
    field: MatrixPolyField, resolution: int | None = None, center=None, radius: float = 1.0
) -> ChargeResult:
    """Winding number of an invertible field on the circle or, given ``center``,
    on the circle |x - center| = ``radius``, where the field is evaluated on the
    moved grid."""
    center = _check_field(field, 1, center, radius)
    return _assemble(_winding_raw, field, 1, resolution, center, radius)


def chern_2(
    field: MatrixPolyField, fermi: float = 0.0, resolution: int | None = None, center=None,
    radius: float = 1.0,
) -> ChargeResult:
    """Chern number of the band below ``fermi`` for a gapped field on S^2, or, given
    ``center``, on the sphere |x - center| = ``radius``, where the field is
    evaluated on the moved grid."""
    center = _check_field(field, 2, center, radius)
    if not field.selfadjoint:
        raise ValueError("Chern number needs a self-adjoint field (Hermitian coefficients)")
    if not np.isfinite(fermi):
        raise ValueError(f"Fermi level must be finite, got {fermi}")
    return _assemble(_chern_raw, field.shifted(fermi), 2, resolution, center, radius)


def winding_3(field: MatrixPolyField, resolution: int | None = None) -> ChargeResult:
    """Degree-type winding of an invertible field on S^3."""
    _check_field(field, 3)
    return _assemble(_winding_raw, field, 3, resolution)


@lru_cache(maxsize=1)
def chern_sign_weyl() -> int:
    """Sign convention constant: the Chern number this library assigns to the
    even generator field built on the left-handed three-generator
    representation.  Computed once at first use, never hard-coded."""
    from . import clifford, generators

    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    result = chern_2(field)
    if abs(result.charge) != 1 or not result.converged:
        raise RuntimeError(f"convention constant did not evaluate to +-1: {result}")
    return result.charge
