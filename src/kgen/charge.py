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
evaluating, inverting or diagonalizing and integrating one chunk at a time
into a running sum.  They take a grid only as a ``GridRows`` and never hold
it whole: cached per (dim, n), it keeps only the polar angles' sines, cosines
and weights and the grid one dimension down (at most 2 n^2 rows, the S^2
inside S^3), and each chunk's rows are products of the two, written into one
block per kernel call together with the field's values and derivatives
there.  So their memory does not grow with the resolution; ``sphere_grid``
gives callers the same rows whole.  An enclosing sphere |x - c| = r is
the same grid moved chunk by chunk, to nodes c + r u with tangents r du.
``chern_2`` and ``winding_1`` take it as ``center, radius``, which
``_check_field`` alone checks: a finite center in the ambient dimension, a
finite radius > 0, and the unit sphere when no center is given.  The
products of the S^3 and closed-form Chern integrands take each chunk once,
after its gates, into the layout of ``_linalg.products``: node-last for
matrices up to 4 x 4 (the 2 x 2 generators and their direct sums), so that a
product is a few elementwise calls over the nodes, and stacked for larger
ones.

Sectors of size at most 2 need no eigensolver and no inverse, and their
closed forms are exact.  A 2 x 2 Hermitian sector, the even generator
x . sigma and every two-band crossing among them, has the bands f0 +- s by
Cayley-Hamilton, with f0 = Re tr h / 2, A = h - f0 I and s = ||A||_F / sqrt(2);
below a Fermi level between them P = (I - A / s) / 2, and

    tr(P [d_0 P, d_1 P]) = -tr(A [d_0 A, d_1 A]) / (8 s^3).

A 1 x 1 or 2 x 2 winding sector, the odd generators among them, has
U^-1 = adj(V) / (det V s) with s = ||U||_F / sqrt(N) and V = U / s
(``_gated_inverse``).  Both closed forms divide by s before they multiply, so
they stay finite wherever the field's entries are and its derivatives divided
by s are.  Every larger sector takes the general path: ``eigh`` of h / s for
the Chern integrand, with s = ||h||_F / sqrt(N), so that no band difference
overflows either, and ``inv`` for the windings, whose invertibility is
certified from that inverse via sigma_min(U) >= 1 / ||U^-1||_F; the SVD runs
only on a chunk where that bound is <= GAP_MIN.  Both paths apply the same
gates, each before any division.  A model whose values or derivatives
overflow on its sphere is refused chunk by chunk (``_chunk_fields``), before
any gate reads them, and a summed raw that is not finite is refused too
(``_assemble``).

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

from ._linalg import chunks, products, rms_singular, scalar_split
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


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature grid on S^dim.

    ``weights`` integrate over the parameter domain (d theta d phi ...), which
    is where the kernels' pulled-back integrands live, and ``dx_dparam`` are
    the tangent vectors d(node)/d(parameter) used to pull ambient derivatives
    back to the parametrization.
    """

    dim: int
    nodes: np.ndarray  # (M, dim + 1)
    weights: np.ndarray  # (M,)
    dx_dparam: np.ndarray  # (M, dim, dim + 1)


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
            "converged": bool(self.converged),
        }


def check_resolution(n) -> None:
    """Refuse a grid resolution that is not an integer >= 4."""
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise ValueError(f"resolution must be an integer >= 4, got {n!r}")


def sphere_grid(dim: int, n: int) -> SphereGrid:
    """Build the quadrature grid at resolution ``n``: all the rows that the
    charge kernels generate chunk by chunk (:class:`GridRows`), in fresh arrays.

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
    and never hold it whole.
    """

    dim: int
    size: int
    inner: SphereGrid | None = None
    sin: np.ndarray | None = None
    cos: np.ndarray | None = None
    psi_weights: np.ndarray | None = None

    def rows(self, start: int, stop: int, out: SphereGrid | None = None) -> SphereGrid:
        """Rows ``start:stop``, generated into the leading rows of ``out`` (into
        fresh arrays when it is None)."""
        k, d = stop - start, self.dim
        if out is None:
            grid = SphereGrid(d, np.empty((k, d + 1)), np.empty(k), np.empty((k, d, d + 1)))
        else:
            grid = SphereGrid(d, out.nodes[:k], out.weights[:k], out.dx_dparam[:k])
        if d == 1:
            theta = 2.0 * np.pi * np.arange(start, stop) / self.size
            np.cos(theta, out=grid.nodes[:, 0])
            np.sin(theta, out=grid.nodes[:, 1])
            np.negative(grid.nodes[:, 1], out=grid.dx_dparam[:, 0, 0])
            grid.dx_dparam[:, 0, 1] = grid.nodes[:, 0]
            grid.weights[...] = 2.0 * np.pi / self.size
            return grid
        # At most three runs: the rest of one psi block, whole blocks, and the
        # start of another, each written through a (blocks, rows, ...) view.
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
        nodes = grid.nodes[lo:hi].reshape(nb, nq, d + 1)
        dx = grid.dx_dparam[lo:hi].reshape(nb, nq, d, d + 1)
        s = self.sin[ps, None, None]
        c = self.cos[ps, None, None]
        y = self.inner.nodes[qs]
        np.multiply(s, y, out=nodes[..., :d])
        nodes[..., d] = c[..., 0]
        np.multiply(c, y, out=dx[:, :, 0, :d])
        dx[:, :, 0, d] = -s[..., 0]
        np.multiply(s[..., None], self.inner.dx_dparam[qs], out=dx[:, :, 1:, :d])
        dx[:, :, 1:, d] = 0.0
        np.multiply(self.psi_weights[ps, None], self.inner.weights[qs],
                    out=grid.weights[lo:hi].reshape(nb, nq))


def _grid_rows(dim: int, n: int) -> GridRows:
    """The :class:`GridRows` of S^dim at resolution ``n``, both checked before
    the cache is consulted."""
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"supported sphere dimensions are 1, 2, 3; got {dim}")
    check_resolution(n)
    return _cached_grid_rows(dim, int(n))


def _build_grid_rows(dim: int, n: int) -> GridRows:
    # The largest factor is the inner S^2 of an S^3 grid, 2 n^2 rows.
    if dim == 1:
        return GridRows(1, n)
    inner = _build_grid_rows(1, 2 * n) if dim == 2 else _build_grid_rows(2, n)
    inner = inner.rows(0, inner.size)
    x, w = np.polynomial.legendre.leggauss(n)
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


def _check_field(field: MatrixPolyField, dim: int, center=None, radius=1.0):
    """The float center of a valid sphere |x - center| = radius (None: the unit
    sphere).  The field's coefficients must be finite: ``eigh`` does not
    converge on NaN or inf."""
    if not isinstance(field, MatrixPolyField):
        raise TypeError("charge computations need exact derivatives; pass a MatrixPolyField")
    if not all(np.isfinite(mat).all() for mat in field.terms.values()):
        raise ValueError("field coefficients must be finite")
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


def _gated_inverse(u: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices, refused where one is (nearly) singular.

    A 1 x 1 or 2 x 2 U has U^-1 = adj(V) (1 / s) / det V, with s =
    ``rms_singular(U)`` and V = U / s formed entry by entry, so that nothing
    overflows (det V s can, near float max).  As
    ||V||_F^2 = N, sigma_min(U) is s |det V| for N = 1 and
    s |det V| / sqrt(1 + sqrt(1 - |det V|^2)) for N = 2, so the gate
    sigma_min > GAP_MIN is exact (NaN fails it).  A larger U takes ``inv``, and
    the SVD runs only where sigma_min >= 1 / ||U^-1||_F does not clear GAP_MIN.
    Where ``inv`` meets an exact zero pivot, or |det V| <= 4 eps (rounding
    noise: its two products are at most 1 in modulus together), U is refused
    even if the SVD puts sigma_min above GAP_MIN.
    """
    uinv = sv_min = None
    if u.shape[-1] <= 2:
        s = rms_singular(u)
        r = 1.0 / np.maximum(s, np.finfo(float).tiny)  # V = 0 where U = 0
        v = [u[:, i, j] * r for i, j in np.ndindex(u.shape[1:])]
        det = v[0] if len(v) == 1 else v[0] * v[3] - v[1] * v[2]
        m = np.abs(det)
        sv = s * m if len(v) == 1 else s * m / np.sqrt(1.0 + np.sqrt(np.maximum(1 - m * m, 0)))
        sv_min = float(np.min(sv))
        if sv_min > GAP_MIN and np.min(m) > 4.0 * np.finfo(float).eps:
            scale = r / det
            if len(v) == 1:
                return scale[:, None, None]
            uinv = np.empty_like(u)
            for (i, j), entry in zip(np.ndindex(2, 2), (v[3], -v[1], -v[2], v[0])):
                np.multiply(entry, scale, out=uinv[:, i, j])
            return uinv
    else:
        try:
            uinv = np.linalg.inv(u)
        except np.linalg.LinAlgError:
            pass
        else:
            # An underflowing norm gives inf (right); an overflowing one 0 (the SVD decides).
            with np.errstate(over="ignore", divide="ignore"):
                if np.all(1.0 / np.linalg.norm(uinv, axis=(1, 2)) > GAP_MIN):
                    return uinv
    if sv_min is None or sv_min > GAP_MIN:  # the SVD decides, or names sigma_min
        sv_min = float(np.linalg.svd(u, compute_uv=False)[..., -1].min())
    if uinv is None or not sv_min > GAP_MIN:
        raise GapClosedError(
            f"field is (nearly) singular on the grid: min singular value {sv_min}"
        )
    return uinv


def _chunk_block(dim: int, n: int, m: int):
    """``(rows, values, derivatives)`` for chunks of up to ``m`` rows on S^dim
    and an n x n field: a :class:`SphereGrid` of m rows and (m, n, n) and
    (m, dim, n, n) complex arrays, all carved from one allocation."""
    floats = m * ((dim + 1) ** 2 + 1)  # the nodes, weights and tangents of m rows
    head = (floats + 1) // 2
    block = np.empty(head + (1 + dim) * m * n * n, dtype=complex)
    f = block[:head].view(float)
    a, b = m * (dim + 1), m * (dim + 2)
    rows = SphereGrid(dim, f[:a].reshape(m, dim + 1), f[a:b], f[b:floats].reshape(m, dim, dim + 1))
    size = m * n * n
    return rows, block[head:head + size].reshape(m, n, n), block[head + size:].reshape(m, dim, n, n)


def _chunk_fields(field: MatrixPolyField, grid, center=None, radius=1.0):
    """``(rows, values, derivatives)`` of ``field`` on each row chunk of the
    :class:`GridRows` ``grid`` or, given ``center``, of the grid moved to
    |x - center| = ``radius``: nodes center + radius u and tangents radius du,
    so by the chain rule the integrand is that of the restricted field.
    A chunk whose values or derivatives are not finite (the model overflows
    there) is refused here, for every sector size, before any gate, ``eigh``
    or ``inv`` reads it: this is the one check of overflow on the sphere.

    Every chunk is written into one :func:`_chunk_block` made for the call, so
    a chunk is valid until the next one is drawn, and the heap is not grown
    and given back chunk by chunk."""
    block = None
    for sl in chunks(grid.size):
        m = min(sl.stop, grid.size) - sl.start
        if block is None:  # the first chunk is the largest
            block = _chunk_block(grid.dim, field.size, m)
        row_buffer, values, derivs = block
        rows = grid.rows(sl.start, sl.start + m, row_buffer)
        out = values[:m], derivs[:m]
        if center is None:
            h, d = field.evaluate_batch(rows.nodes, rows.dx_dparam, out)
        else:
            h, d = field.evaluate_batch(center + radius * rows.nodes, radius * rows.dx_dparam, out)
        if not (np.isfinite(h.view(float)).all() and np.isfinite(d.view(float)).all()):
            raise _overflow_error("field", center, radius)
        yield rows, h, d


def _overflow_error(what: str, center, radius) -> ModelOverflowError:
    where = (
        "the unit sphere" if center is None
        else f"the sphere of radius {radius} about {center.tolist()}"
    )
    return ModelOverflowError(f"{what} is not finite on {where}; the model overflows there")


def _winding_raw(field: MatrixPolyField, grid, center=None, radius=1.0) -> float:
    arrange, matmul, trace3 = products(field.size)
    total = 0.0
    for rows, u, d in _chunk_fields(field, grid, center, radius):
        uinv = _gated_inverse(u)
        if grid.dim == 1:
            log_deriv = np.einsum("mij,mji->m", uinv, d[:, 0], optimize=True)
            total += np.sum(rows.weights * log_deriv)
            continue
        # dim == 3: tr((U^-1 dU)^3) pulls back to the signed sum of tr(l1 l2 l3)
        # over the 3! orderings, which cyclicity reduces to
        # 3 (tr(l1 l2 l3) - tr(l1 l3 l2)).
        l1, l2, l3 = matmul(arrange(uinv), arrange(d))
        integrand = trace3(l1, l2, l3) - trace3(l1, l3, l2)
        total += np.sum(rows.weights * 3.0 * integrand)
    if grid.dim == 1:
        return float(np.real(total / (2.0j * np.pi)))
    return float(np.real(-total / (24.0 * np.pi**2)))


def _chern_raw(field: MatrixPolyField, fermi: float, grid, center=None, radius=1.0) -> float:
    total = 0.0
    n_occ = None
    closed = field.size == 2
    arrange, _, trace3 = products(field.size)
    for rows, h, d in _chunk_fields(field, grid, center, radius):
        if closed:
            f0, a, s = scalar_split(h)
            vals = np.stack([f0 - s, f0 + s], axis=1)
        else:
            # eigh takes h / s, s = rms_singular(h) floored at tiny (h = 0 stays
            # 0), and E = s lam: no difference E_o - E_u below overflows.
            s = np.maximum(rms_singular(h), np.finfo(float).tiny)
            h /= s[:, None, None]
            lam, vecs = np.linalg.eigh(h)
            vals = s[:, None] * lam
        gap = float(np.min(np.abs(vals - fermi)))
        if not gap > GAP_MIN:  # NaN fails it too
            raise GapClosedError(f"spectral gap closes on the grid: min |eig - fermi| = {gap}")
        # The sphere is connected, so a band count below fermi that differs
        # between nodes means the gap closes between them.  The range named is
        # the count at the first node and at the first node that differs from
        # it, so it does not depend on the chunk size.
        counts = np.count_nonzero(vals < fermi, axis=1)
        if n_occ is None:
            n_occ = int(counts[0])
        differs = np.flatnonzero(counts != n_occ)
        if differs.size:
            low, high = sorted((n_occ, int(counts[differs[0]])))
            raise GapClosedError(
                f"number of bands below fermi varies on the grid ({low} to {high})"
            )

        if closed:
            if n_occ != 1:
                continue  # P is 0 or I: no curvature
            # P = (I - a / s) / 2, so tr(P [d_0 P, d_1 P]) = -tr(a [d_0 h, d_1 h]) / (8 s^3)
            # = -i Im tr(a d_0 h d_1 h) / (4 s^3).  Each factor is divided by s
            # first, so that neither the trace nor s^3 overflows; the gate above
            # keeps s > GAP_MIN.
            a /= s[:, None, None]
            d /= s[:, None, None, None]
            d0, d1 = arrange(d)
            integrand = -trace3(arrange(a), d0, d1).imag / 4.0
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
    """Charge of ``field`` from ``kernel(sector, grid, center, radius)``, summed
    over its sectors, at the resolution and at twice it.  The grids are the
    cached :class:`GridRows`, whose rows each sector's kernel generates chunk
    by chunk.  The sum starts from the first raw rather than from 0, so that a
    one-sector field keeps the bits of its raw (0 + -0.0 would be 0.0)."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[dim]
    raws = []
    # Evaluation may overflow before _chunk_fields refuses the chunk.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (resolution, 2 * resolution):
            grid = _grid_rows(dim, n)
            first, *rest = (kernel(sector, grid, center, radius) for sector in field.sectors)
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
    if field.non_hermitian_terms():
        raise ValueError("Chern number needs a self-adjoint field (Hermitian coefficients)")
    if not np.isfinite(fermi):
        raise ValueError(f"Fermi level must be finite, got {fermi}")
    return _assemble(
        lambda sector, grid, center, radius: _chern_raw(sector, fermi, grid, center, radius),
        field, 2, resolution, center, radius,
    )


def winding_3(field: MatrixPolyField, resolution: int | None = None) -> ChargeResult:
    """Degree-type winding of an invertible field on S^3."""
    _check_field(field, 3)
    return _assemble(_winding_raw, field, 3, resolution)


def charge_of(
    field: MatrixPolyField,
    dim: int,
    fermi: float | None = None,
    resolution: int | None = None,
) -> ChargeResult:
    """Dispatch to the invariant matching the sphere dimension."""
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"supported sphere dimensions are 1, 2, 3; got {dim}")
    if dim == 2:
        return chern_2(field, fermi=0.0 if fermi is None else fermi, resolution=resolution)
    if fermi is not None:
        raise ValueError("fermi level applies only to the S^2 Chern number")
    if field.selfadjoint:
        raise ValueError("self-adjoint fields carry an even charge; use dim = 2")
    return winding_1(field, resolution) if dim == 1 else winding_3(field, resolution)


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
