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

The kernels walk the grid in fixed-size node chunks, evaluating, inverting or
diagonalizing and integrating one chunk at a time into a running sum, so their
memory does not grow with the resolution.  An enclosing sphere |x - c| = r is
the same grid moved chunk by chunk, to nodes c + r u with tangents r du.  The
products of the S^3 and closed-form Chern integrands take each chunk once,
after its gates, into the layout of ``_linalg.products``: node-last for
matrices up to 4 x 4 (the 2 x 2 generators and their direct sums), so that a
product is a few elementwise calls over the nodes, and stacked for larger
ones.

Clifford-linear fields, the generators among them, need no eigensolver and no
inverse.  When the traceless part A = h - f0 I of a Hermitian field squares
to s^2 I (``MatrixPolyField.scalar_square``), with f0 = Re tr h / N and
s = ||A||_F / sqrt(N), the bands are f0 +- s, N/2 of each; below a Fermi
level between them P = (I - A / s) / 2, and

    tr(P [d_0 P, d_1 P]) = -tr(A [d_0 A, d_1 A]) / (8 s^3).

When U*U = q I (``MatrixPolyField.scalar_gram``), with q = ||U||_F^2 / N,
U^-1 = U* / q and sigma_min(U) = sqrt(q) exactly.  Both closed forms divide
by s or sqrt(q) before they multiply, so they stay finite wherever the
field's entries are.  Every other field takes
the general path: ``eigh`` for the Chern integrand, and ``inv`` for the
windings, whose invertibility is certified from that inverse via
sigma_min(U) >= 1 / ||U^-1||_F; the SVD runs only on a chunk where that bound
is <= GAP_MIN.  Both paths apply the same gates, each before any division.

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

from ._linalg import chunks, dagger, products, rms_singular, scalar_split
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
    """Build the quadrature grid at resolution ``n``.

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
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"supported sphere dimensions are 1, 2, 3; got {dim}")
    check_resolution(n)

    if dim == 1:
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dx = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        return SphereGrid(1, nodes, np.full(n, 2.0 * np.pi / n), dx)

    inner = sphere_grid(1, 2 * n) if dim == 2 else sphere_grid(2, n)
    x, w = np.polynomial.legendre.leggauss(n)
    if dim == 2:
        psi = np.arccos(x)
        w_psi = w / np.sin(psi)
    else:
        psi = 0.5 * np.pi * (x + 1.0)
        w_psi = 0.5 * np.pi * w
    # Each array is filled in place through an (n, m_in, ...) view: psi
    # blocks by broadcasting, so no tiled copy of the inner grid is made.
    m_in = len(inner.nodes)
    s = np.sin(psi)[:, None, None]
    c = np.cos(psi)[:, None, None]
    nodes = np.empty((n, m_in, dim + 1))
    np.multiply(s, inner.nodes, out=nodes[..., :dim])
    nodes[..., dim] = c[..., 0]
    dx = np.zeros((n, m_in, dim, dim + 1))
    np.multiply(c, inner.nodes, out=dx[:, :, 0, :dim])
    dx[:, :, 0, dim] = -s[..., 0]
    np.multiply(s[..., None], inner.dx_dparam, out=dx[:, :, 1:, :dim])
    weights = np.outer(w_psi, inner.weights).reshape(-1)
    return SphereGrid(dim, nodes.reshape(-1, dim + 1), weights, dx.reshape(-1, dim, dim + 1))


def _check_field(field: MatrixPolyField, dim: int):
    if not isinstance(field, MatrixPolyField):
        raise TypeError("charge computations need exact derivatives; pass a MatrixPolyField")
    if field.ambient_dim != dim + 1:
        raise DimensionMismatchError(
            f"a field on S^{dim} needs ambient dimension {dim + 1}, got {field.ambient_dim}"
        )


def _gated_inverse(u: np.ndarray, scalar_gram: bool) -> np.ndarray:
    """Inverses of a stack of matrices, refused where one is (nearly) singular.

    With ``scalar_gram`` (U*U = q I), every singular value of U is
    sigma = sqrt(q) = ``rms_singular(U)``, and U^-1 = U* / sigma / sigma,
    divided twice so that entries past about 1e154 do not overflow q.
    Otherwise sigma_min(U) = 1 / ||U^-1||_2 >= 1 / ||U^-1||_F, so the SVD runs
    only when that bound fails to clear GAP_MIN somewhere (NaN fails it) or
    ``inv`` finds an exactly singular matrix.  A failed ``inv`` is
    refused even when the SVD puts sigma_min above GAP_MIN: LU can meet an
    exact zero pivot there.
    """
    if scalar_gram:
        sigma = rms_singular(u)[:, None, None]
        sv_min = float(np.min(sigma))
        uinv = dagger(u) / sigma / sigma if sv_min > GAP_MIN else None
    else:
        try:
            uinv = np.linalg.inv(u)
        except np.linalg.LinAlgError:
            uinv = None
        else:
            # An underflowing norm gives inf (right); an overflowing one 0 (the SVD decides).
            with np.errstate(over="ignore", divide="ignore"):
                if np.all(1.0 / np.linalg.norm(uinv, axis=(1, 2)) > GAP_MIN):
                    return uinv
        sv_min = float(np.linalg.svd(u, compute_uv=False)[..., -1].min())
    if uinv is None or sv_min <= GAP_MIN:
        raise GapClosedError(
            f"field is (nearly) singular on the grid: min singular value {sv_min}"
        )
    return uinv


def _chunk_fields(field: MatrixPolyField, grid: SphereGrid, center=None, radius=1.0):
    """``(slice, values, derivatives)`` of ``field`` on each node chunk of ``grid``
    or, given ``center``, of the grid moved to |x - center| = ``radius``: nodes
    center + radius u and tangents radius du, so by the chain rule the integrand is
    that of the restricted field.  A value or derivative that is not finite there
    (the model overflows) is refused with ModelOverflowError, as the gap scan
    refuses one."""
    for sl in chunks(len(grid.weights)):
        if center is None:
            yield (sl, *field.evaluate_batch(grid.nodes[sl], grid.dx_dparam[sl]))
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            h, d = field.evaluate_batch(center + radius * grid.nodes[sl],
                                        radius * grid.dx_dparam[sl])
        if not (np.isfinite(h).all() and np.isfinite(d).all()):
            raise ModelOverflowError(
                f"field is not finite on the sphere of radius {radius} about "
                f"{center.tolist()}; the model overflows there"
            )
        yield sl, h, d


def _winding_raw(field: MatrixPolyField, grid: SphereGrid, center=None, radius=1.0) -> float:
    w = grid.weights
    arrange, matmul, trace3 = products(field.size)
    total = 0.0
    for sl, u, d in _chunk_fields(field, grid, center, radius):
        uinv = _gated_inverse(u, field.scalar_gram)
        if grid.dim == 1:
            log_deriv = np.einsum("mij,mji->m", uinv, d[:, 0], optimize=True)
            total += np.sum(w[sl] * log_deriv)
            continue
        # dim == 3: tr((U^-1 dU)^3) pulls back to the signed sum of tr(l1 l2 l3)
        # over the 3! orderings, which cyclicity reduces to
        # 3 (tr(l1 l2 l3) - tr(l1 l3 l2)).
        l1, l2, l3 = matmul(arrange(uinv), arrange(d))
        integrand = trace3(l1, l2, l3) - trace3(l1, l3, l2)
        total += np.sum(w[sl] * 3.0 * integrand)
    if grid.dim == 1:
        return float(np.real(total / (2.0j * np.pi)))
    return float(np.real(-total / (24.0 * np.pi**2)))


def _chern_raw(
    field: MatrixPolyField, fermi: float, grid: SphereGrid, center=None, radius=1.0
) -> float:
    w = grid.weights
    total = 0.0
    n_occ = None
    closed = field.scalar_square
    arrange, _, trace3 = products(field.size)
    for sl, h, d in _chunk_fields(field, grid, center, radius):
        if closed:
            # Bands f0 - s and f0 + s, each of multiplicity N / 2.
            f0, a, s = scalar_split(h)
            vals, multiplicity = np.stack([f0 - s, f0 + s], axis=1), field.size // 2
        else:
            vals, vecs = np.linalg.eigh(h)
            multiplicity = 1
        gap = float(np.min(np.abs(vals - fermi)))
        if not gap > GAP_MIN:  # NaN fails it too
            raise GapClosedError(f"spectral gap closes on the grid: min |eig - fermi| = {gap}")
        # The sphere is connected, so a band count below fermi that differs
        # between nodes means the gap closes between them.  The range named is
        # the count at the first node and at the first node that differs from
        # it, so it does not depend on the chunk size.
        counts = multiplicity * np.count_nonzero(vals < fermi, axis=1)
        if n_occ is None:
            n_occ = int(counts[0])
        differs = np.flatnonzero(counts != n_occ)
        if differs.size:
            low, high = sorted((n_occ, int(counts[differs[0]])))
            raise GapClosedError(
                f"number of bands below fermi varies on the grid ({low} to {high})"
            )

        if closed:
            if n_occ != multiplicity:
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
            # with k_a = <o| d_a h |u> / (E_o - E_u) over occupied o and unoccupied u.
            occ_h = vecs[:, :, :n_occ].conj().transpose(0, 2, 1)
            denom = vals[:, :n_occ, None] - vals[:, None, n_occ:]
            k0, k1 = (occ_h @ d[:, a] @ vecs[:, :, n_occ:] / denom for a in (0, 1))
            integrand = 2.0 * np.sum(k0 * k1.conj(), axis=(1, 2)).imag
        total += np.sum(w[sl] * integrand)
    return float(total / (2.0 * np.pi))


def _assemble(raw_fn, dim: int, resolution: int | None) -> ChargeResult:
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[dim]
    raw_n = raw_fn(sphere_grid(dim, resolution))
    raw_2n = raw_fn(sphere_grid(dim, 2 * resolution))
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


def winding_1(field: MatrixPolyField, resolution: int | None = None) -> ChargeResult:
    """Winding number of an invertible field on the circle."""
    _check_field(field, 1)
    return _assemble(lambda grid: _winding_raw(field, grid), 1, resolution)


def chern_2(
    field: MatrixPolyField, fermi: float = 0.0, resolution: int | None = None, center=None,
    radius: float = 1.0,
) -> ChargeResult:
    """Chern number of the band below ``fermi`` for a gapped field on S^2, or, given
    ``center``, on the sphere |x - center| = ``radius``, where the field is
    evaluated on the moved grid."""
    _check_field(field, 2)
    if field.non_hermitian_terms():
        raise ValueError("Chern number needs a self-adjoint field (Hermitian coefficients)")
    if not np.isfinite(fermi):
        raise ValueError(f"Fermi level must be finite, got {fermi}")
    if center is not None:
        center = np.asarray(center, dtype=float)
        if center.shape != (3,):
            raise DimensionMismatchError("center must match the ambient dimension")
    return _assemble(lambda grid: _chern_raw(field, fermi, grid, center, radius), 2, resolution)


def winding_3(field: MatrixPolyField, resolution: int | None = None) -> ChargeResult:
    """Degree-type winding of an invertible field on S^3."""
    _check_field(field, 3)
    return _assemble(lambda grid: _winding_raw(field, grid), 3, resolution)


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
