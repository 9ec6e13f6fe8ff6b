"""Topological charges: quadrature grids, windings, Chern numbers, algebra.

Each generator charge is cross-checked against an independent oracle:
  * S^1: phase unwrapping of det U around the circle,
  * S^2: Wilson-loop (link-variable) winding of the occupied-band Berry phase,
  * S^3: the same quadrature driven by finite-difference derivatives.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import _linalg, charge, clifford, generators
from kgen.charge import chern_2, chern_sign_weyl, sphere_grid, winding_1, winding_3
from kgen.errors import (
    DimensionMismatchError,
    GapClosedError,
    ModelFormatError,
    ModelOverflowError,
    UnsupportedDimensionError,
)
from kgen.fields import MatrixPolyField


def weyl2(handedness=clifford.LEFT):
    return generators.weyl_field(2, clifford.build_rep(3, handedness))


def dirac1():
    return generators.dirac_phase_field(1, clifford.build_rep(1, clifford.LEFT))


def dirac3():
    return generators.dirac_phase_field(3, clifford.build_rep(3, clifford.LEFT))


# -- oracles -------------------------------------------------------------------


def det_winding_oracle(field, n=4096):
    """Winding of det U by phase unwrapping; independent of any derivative."""
    theta = 2 * np.pi * np.arange(n + 1) / n
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dets = np.linalg.det(field.evaluate_batch(pts))
    phases = np.unwrap(np.angle(dets))
    return int(np.rint((phases[-1] - phases[0]) / (2 * np.pi)))


def wilson_loop_chern_oracle(field, fermi=0.0, n_theta=400, n_phi=400):
    """Chern number from the winding of the Wilson-loop phase across latitudes.

    For each polar angle the Berry phase of the occupied bands around the
    azimuthal circle is the argument of a product of link determinants; its
    total drift from pole to pole is 2 pi times the Chern number.
    """
    thetas = np.linspace(1e-4, np.pi - 1e-4, n_theta)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    loop_phases = []
    for theta in thetas:
        pts = np.stack(
            [
                np.sin(theta) * np.cos(phis),
                np.sin(theta) * np.sin(phis),
                np.full_like(phis, np.cos(theta)),
            ],
            axis=1,
        )
        vals, vecs = np.linalg.eigh(field.evaluate_batch(pts))
        frames = [vecs[k][:, vals[k] < fermi] for k in range(n_phi)]
        product = 1.0 + 0.0j
        for k in range(n_phi):
            overlap = frames[k].conj().T @ frames[(k + 1) % n_phi]
            product *= np.linalg.det(overlap)
        loop_phases.append(np.angle(product))
    drift = np.unwrap(np.array(loop_phases))
    return int(np.rint((drift[-1] - drift[0]) / (2 * np.pi)))


def fd_winding3_oracle(field, n=24, step=1e-6):
    """S^3 winding with centered finite differences instead of exact derivatives."""
    grid = sphere_grid(3, n)
    u = field.evaluate_batch(grid.nodes)
    uinv = np.linalg.inv(u)
    ls = []
    for a in range(3):
        plus = grid.nodes + step * grid.dx_dparam[:, a, :]
        minus = grid.nodes - step * grid.dx_dparam[:, a, :]
        d = (field.evaluate_batch(plus) - field.evaluate_batch(minus)) / (2 * step)
        ls.append(uinv @ d)
    t123 = np.einsum("mij,mjk,mki->m", ls[0], ls[1], ls[2])
    t132 = np.einsum("mij,mjk,mki->m", ls[0], ls[2], ls[1])
    total = np.sum(grid.weights * 3.0 * (t123 - t132))
    return float(np.real(-total / (24.0 * np.pi**2)))


# -- grids ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "dim,n,area,tol",
    [
        (1, 8, 2 * np.pi, 1e-14),
        (1, 256, 2 * np.pi, 1e-12),
        (2, 8, 4 * np.pi, 1e-12),
        (2, 64, 4 * np.pi, 1e-12),
        (3, 12, 2 * np.pi**2, 1e-10),
        (3, 24, 2 * np.pi**2, 1e-10),
    ],
)
def test_grid_weight_sums(dim, n, area, tol):
    # The parameter-domain weights integrate the Gram density sqrt(det(J J^T))
    # of the tangents J = dx_dparam to the sphere area.
    grid = sphere_grid(dim, n)
    gram = grid.dx_dparam @ grid.dx_dparam.transpose(0, 2, 1)
    assert abs(np.sum(grid.weights * np.sqrt(np.linalg.det(gram))) - area) < tol


def test_grid_nodes_on_sphere():
    for dim in (1, 2, 3):
        grid = sphere_grid(dim, 16)
        assert np.max(np.abs(np.linalg.norm(grid.nodes, axis=1) - 1.0)) < 1e-14


def test_grid_s1_equispaced():
    grid = sphere_grid(1, 8)
    theta = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0]) % (2 * np.pi)
    assert np.allclose(theta, 2 * np.pi * np.arange(8) / 8)
    assert np.allclose(grid.weights, 2 * np.pi / 8)


def closed_form_grid(dim, n):
    """Nodes, tangents and parameter-domain weights of the direct angle
    parametrization: theta on S^1, (theta, phi) on S^2 with cos theta at the
    Gauss-Legendre nodes, and (psi, theta, phi) on S^3 with psi Gauss-Legendre."""
    if dim == 1:
        th = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
        tangents = np.stack([-np.sin(th), np.cos(th)], axis=1)[:, None]
        return nodes, tangents, np.full(n, 2.0 * np.pi / n)
    u, wu = np.polynomial.legendre.leggauss(n)
    phi = 2.0 * np.pi * np.arange(2 * n) / (2 * n)
    if dim == 2:
        th, ph = (a.reshape(-1) for a in np.meshgrid(np.arccos(u), phi, indexing="ij"))
        sth, cth, sph, cph = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        nodes = np.stack([sth * cph, sth * sph, cth], axis=1)
        tangents = np.stack(
            [
                np.stack([cth * cph, cth * sph, -sth], axis=1),
                np.stack([-sth * sph, sth * cph, np.zeros_like(th)], axis=1),
            ],
            axis=1,
        )
        w = (wu / np.sqrt(1.0 - u**2))[:, None] * np.full((1, 2 * n), np.pi / n)
        return nodes, tangents, w.reshape(-1)
    psi = 0.5 * np.pi * (u + 1.0)
    ps, th, ph = (a.reshape(-1) for a in np.meshgrid(psi, np.arccos(u), phi, indexing="ij"))
    sps, cps = np.sin(ps), np.cos(ps)
    sth, cth = np.sin(th), np.cos(th)
    sph, cph = np.sin(ph), np.cos(ph)
    zero = np.zeros_like(ps)
    nodes = np.stack([sps * sth * cph, sps * sth * sph, sps * cth, cps], axis=1)
    tangents = np.stack(
        [
            np.stack([cps * sth * cph, cps * sth * sph, cps * cth, -sps], axis=1),
            np.stack([sps * cth * cph, sps * cth * sph, -sps * sth, zero], axis=1),
            np.stack([-sps * sth * sph, sps * sth * cph, zero, zero], axis=1),
        ],
        axis=1,
    )
    w = (
        (0.5 * np.pi * wu)[:, None, None]
        * (wu / np.sqrt(1.0 - u**2))[None, :, None]
        * np.full((1, 1, 2 * n), np.pi / n)
    )
    return nodes, tangents, w.reshape(-1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 7, 12])
def test_grid_matches_closed_form(dim, n):
    # The suspension against the direct angle parametrization of each sphere.
    grid = sphere_grid(dim, n)
    nodes, tangents, weights = closed_form_grid(dim, n)
    assert np.max(np.abs(grid.nodes - nodes)) <= 1e-15
    assert np.max(np.abs(grid.dx_dparam - tangents)) <= 1e-15
    assert np.max(np.abs(grid.weights - weights)) <= 1e-15


def test_grid_argument_validation():
    with pytest.raises(UnsupportedDimensionError):
        sphere_grid(4, 8)
    with pytest.raises(ValueError):
        sphere_grid(2, 3)


@pytest.mark.parametrize("n", [4, 5, 24, 64, 512, 1024])
def test_gauss_legendre_rule_matches_leggauss(n):
    x, w = charge._gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 1e-14
    # leggauss's own weights next to +-1 are off by up to 1.5e-14 at n = 1024
    # (against a 50-digit reference, where this rule is within 1e-16).
    assert np.max(np.abs(w - wr)) <= (1e-14 if n < 1024 else 2e-14)
    # Exact, to rounding, on the Legendre polynomials of degree < 2n.
    moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
    assert np.max(np.abs(moments - np.eye(1, 2 * n)[0] * 2.0)) <= 2e-15
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_memory_is_linear_in_n():
    # leggauss(2048) builds a 2048 x 2048 companion matrix, 32 MiB.
    tracemalloc.start()
    try:
        charge._gauss_legendre(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def reference_sphere_grid(dim, n):
    """The suspension built from tiled and concatenated copies of the inner grid,
    down to the circle built from all n angles at once, on the kernels'
    Gauss-Legendre rule (checked against ``leggauss`` on its own above)."""
    if dim == 1:
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dx = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        return charge.SphereGrid(1, nodes, np.full(n, 2.0 * np.pi / n), dx)
    inner = reference_sphere_grid(1, 2 * n) if dim == 2 else reference_sphere_grid(2, n)
    x, w = charge._gauss_legendre(n)
    if dim == 2:
        psi = np.arccos(x)
        w_psi = w / np.sin(psi)
    else:
        psi = 0.5 * np.pi * (x + 1.0)
        w_psi = 0.5 * np.pi * w
    m_in = len(inner.nodes)
    s = np.repeat(np.sin(psi), m_in)[:, None]
    c = np.repeat(np.cos(psi), m_in)[:, None]
    y = np.tile(inner.nodes, (n, 1))
    dy = np.tile(inner.dx_dparam, (n, 1, 1))
    nodes = np.hstack([s * y, c])
    d_psi = np.hstack([c * y, -s])
    d_inner = np.concatenate([s[:, None] * dy, np.zeros(dy.shape[:2] + (1,))], axis=2)
    dx = np.concatenate([d_psi[:, None], d_inner], axis=1)
    weights = np.repeat(w_psi, m_in) * np.tile(inner.weights, n)
    return charge.SphereGrid(dim, nodes, weights, dx)


GRID_ARRAYS = ("nodes", "weights", "dx_dparam")


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [4, 7, 12])
def test_grid_suspension_matches_tiled_construction(dim, n):
    # Each entry is the same elementwise product as in the tiled inner grid,
    # so every array is bit-identical, signed zeros included: at n = 7,
    # dx_dparam holds 10 negative zeros on S^2 and 91 on S^3.
    grid, ref = sphere_grid(dim, n), reference_sphere_grid(dim, n)
    for name in GRID_ARRAYS:
        assert getattr(grid, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize(
    "dim,n,chunk",
    [
        (1, 257, 100),
        (1, 8192, _linalg.CHUNK),
        (2, 7, 7),  # half a psi block of 14 rows
        (2, 7, 30),  # part of a block, whole blocks, part of another
        (3, 7, 150),
        (3, 7, _linalg.CHUNK),  # one chunk of 686 rows
        (3, 48, _linalg.CHUNK),  # 4,608 inner rows: chunks straddle two blocks
        (3, 48, 10_000),
    ],
)
def test_chunk_rows_match_the_whole_grid(dim, n, chunk):
    # Rows generated chunk by chunk into one reused buffer, as the kernels take
    # them, are byte for byte the rows of sphere_grid and of the tiled grid.
    rows = charge._grid_rows(dim, n)
    buffer = charge._chunk_block(dim, 1, min(chunk, rows.size))[0]
    parts = {name: [] for name in GRID_ARRAYS}
    for start in range(0, rows.size, chunk):
        part = rows.rows(start, min(start + chunk, rows.size), buffer)
        for name in GRID_ARRAYS:
            parts[name].append(getattr(part, name).tobytes())
    whole, ref = sphere_grid(dim, n), reference_sphere_grid(dim, n)
    for name in GRID_ARRAYS:
        chunked = b"".join(parts[name])
        assert chunked == getattr(whole, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_rows_are_coordinate_major(dim):
    # sphere_grid returns the rows as the kernels hold them, not C-contiguous
    # copies: nodes are the transpose of a (dim + 1, M) array and tangents a
    # view of (dim + 1, M, dim), one contiguous (M, dim) block per ambient
    # coordinate.  A chunk's rows in the kernels' block have the same layout.
    grid = sphere_grid(dim, 6)
    chunk = charge._grid_rows(dim, 6).rows(3, 40, charge._chunk_block(dim, 2, 64)[0])
    for rows in (grid, chunk):
        assert rows.nodes.T.flags.c_contiguous == (rows is grid)
        assert all(rows.nodes.T[j].flags.c_contiguous for j in range(dim + 1))
        assert all(rows.dx_dparam.transpose(2, 0, 1)[j].flags.c_contiguous
                   for j in range(dim + 1))
        assert rows.weights.flags.c_contiguous
    assert not grid.nodes.flags.c_contiguous and not grid.dx_dparam.flags.c_contiguous
    assert grid.dx_dparam.transpose(2, 0, 1).flags.c_contiguous


# -- winding on the circle -------------------------------------------------------


def test_winding_circle_generator():
    result = winding_1(dirac1())
    assert result.charge == 1
    assert result.residual < 1e-8
    assert result.converged
    assert det_winding_oracle(dirac1()) == 1


def test_winding_constant_identity():
    field = MatrixPolyField(2, 2, {(0, 0): np.eye(2)})
    result = winding_1(field)
    assert result.charge == 0
    assert result.residual < 1e-12


def test_winding_conjugate_generator():
    conj = MatrixPolyField(2, 1, {(1, 0): [[1.0]], (0, 1): [[-1j]]})
    result = winding_1(conj)
    assert result.charge == -1
    assert det_winding_oracle(conj) == -1


def test_winding_gap_closed():
    field = MatrixPolyField(2, 1, {(1, 0): [[1.0]]})  # vanishes at x1 = 0
    with pytest.raises(GapClosedError):
        winding_1(field)


@pytest.mark.parametrize("ambient", [2, 4])
@pytest.mark.parametrize("constant", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
def test_winding_singular_constant_is_gap_closed(ambient, constant):
    # inv refuses these matrices outright; the SVD gives the usual error.
    field = MatrixPolyField(ambient, 2, {(0,) * ambient: constant})
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(field.evaluate_batch(sphere_grid(ambient - 1, 4).nodes))
    winding = winding_1 if ambient == 2 else winding_3
    with pytest.raises(GapClosedError, match="min singular value"):
        winding(field)


def test_winding_exact_zero_pivot_is_gap_closed():
    # sigma_min = 5.7e-8 clears GAP_MIN, but det(U / s) = 2.8e-17 is rounding
    # noise (LU meets an exact zero pivot there), so the closed form refuses
    # the field as inv does, with the SVD's sigma_min.
    constant = [[3e9, 1e9], [1e9, (1e9 / 3e9) * 1e9]]
    with pytest.raises(GapClosedError, match="min singular value 5.6"):
        winding_1(MatrixPolyField(2, 2, {(0, 0): constant}))


def scaled(field, factor):
    return dataclasses.replace(field, terms={a: factor * m for a, m in field.terms.items()})


def counting(monkeypatch, *names):
    """Calls to the named ``numpy.linalg`` functions, in order."""
    calls = []

    def spy(name, real):
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in names:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


def dense_unitary(n):
    """The n x n Fourier matrix over sqrt(n): unitary, with no zero entry, so a
    direct sum conjugated by it is one sector."""
    return np.fft.fft(np.eye(n)) / np.sqrt(n)


def test_winding_svd_runs_only_where_the_frobenius_bound_fails(monkeypatch):
    # dirac1 + 1.25 dirac1 + 1.5 dirac1, mixed into one 3 x 3 sector, has
    # U*U = W* diag(1, 1.5625, 2.25) W |x|^2, so it takes inv.  Every singular
    # value of the scaled field is at least 1.2e-8 > GAP_MIN, but the bound
    # 1 / ||U^-1||_F = 1.2e-8 / sqrt(2.08) is not, so each of the two grids
    # takes the SVD and the charge survives.  Unscaled fields never call the SVD.
    calls = counting(monkeypatch, "svd")
    mixed = dirac1().direct_sum(scaled(dirac1(), 1.25)).direct_sum(scaled(dirac1(), 1.5))
    mixed = mixed.conjugated_by(dense_unitary(3))
    assert [s.size for s in mixed.sectors] == [3]
    result = winding_1(scaled(mixed, 1.2e-8))
    assert (result.charge, result.converged, len(calls)) == (3, True, 2)
    calls.clear()
    assert winding_1(mixed).charge == 3
    assert winding_1(dirac1().direct_sum(dirac1())).charge == 2
    assert winding_3(dirac3(), resolution=16).converged
    assert len(calls) == 0


def test_winding_closed_form_needs_no_svd_or_inv(monkeypatch):
    # Sectors of size 1 and 2 take the closed form, whose sigma_min is exact:
    # at this scale sigma_min = 1.2e-8, with no Frobenius bound to miss and no
    # inverse to form, whether U*U is a multiple of I (the doubled phase) or
    # not (dirac1 + 1.25 dirac1 mixed into one 2 x 2 sector).
    calls = counting(monkeypatch, "svd", "inv")
    double = dirac1().direct_sum(dirac1())
    mixed = dirac1().direct_sum(scaled(dirac1(), 1.25)).conjugated_by(dense_unitary(2))
    assert [s.size for s in mixed.sectors] == [2]
    for field in (double, mixed):
        result = winding_1(scaled(field, 1.2e-8))
        assert (result.charge, result.converged, calls) == (2, True, [])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_model_that_overflows_on_the_unit_sphere_is_refused_as_on_an_enclosure():
    # Finite coefficients whose values overflow at some nodes of the unit
    # sphere: a 1 x 1 phase and a 2 x 2 Hermitian field, both on closed forms.
    # The chunk that holds them is refused before any gate reads it, as on the
    # same sphere given as an enclosure.
    s1, s3 = clifford.SIGMA_1, clifford.SIGMA_3
    phase = MatrixPolyField(2, 1, {(1, 0): [[1.5e308 * (1 - 1j)]], (0, 1): [[1.5e308 * (1 + 1j)]]})
    bands = MatrixPolyField(
        3, 2, {(1, 0, 0): 1.5e308 * s3, (0, 1, 0): 1.5e308 * s3, (0, 0, 1): 1.5e308 * s1}
    )
    for fn, field in ((winding_1, phase), (chern_2, bands)):
        with pytest.raises(ModelOverflowError, match="not finite on the unit sphere"):
            fn(field)
        origin = [0.0] * field.ambient_dim
        with pytest.raises(ModelOverflowError, match=r"not finite on the sphere of radius 1.0"):
            fn(field, center=origin, radius=1.0)


def test_a_zero_pivot_in_inv_is_gap_closed(monkeypatch):
    # (x0 - 1) A + x1 B, for dense random 3 x 3 A and B, is one 3 x 3 sector,
    # so it takes inv, and it is exactly 0 at the grid node (1, 0): inv raises
    # LinAlgError on that chunk, and the SVD names sigma_min.
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    field = MatrixPolyField(2, 3, {(0, 0): -a, (1, 0): a, (0, 1): b})
    assert [s.size for s in field.sectors] == [3]
    raised, inv = [], np.linalg.inv

    def spied_inv(u):
        try:
            return inv(u)
        except np.linalg.LinAlgError:
            raised.append(len(u))
            raise

    monkeypatch.setattr(np.linalg, "inv", spied_inv)
    with pytest.raises(GapClosedError, match="min singular value 0.0"):
        winding_1(field)
    assert len(raised) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_values_of_a_large_sector_never_reach_lapack(monkeypatch):
    # 1.5e308 (1 + x0^2 + x1^2 + x2^2) A, with A = F diag(1, 2, 3) F* scaled to
    # a largest entry of 1 (F the 3 x 3 Fourier matrix), has finite
    # coefficients and one 3 x 3 sector, whose values overflow at every node
    # of the unit sphere.  They are refused chunk by chunk before eigh, which
    # misreads values that are not finite.
    f = dense_unitary(3)
    a = f @ np.diag([1.0, 2.0, 3.0]) @ f.conj().T
    a *= 1.5e308 / np.max(np.abs(a))
    terms = {alpha: a for alpha in ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))}
    field = MatrixPolyField(3, 3, terms)
    assert [s.size for s in field.sectors] == [3]
    calls = counting(monkeypatch, "eigh")
    with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
        chern_2(field)
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sector_whose_derivatives_overflow_is_refused():
    # c x0^4 s3 + x1 s1 + x2 s2 is gapped, and its values stay below c on the
    # unit sphere; its derivatives along the tangents reach about 1.3 c, which
    # is finite at c = 1e308 and not at 1.7e308.  The 2 x 2 sector is then
    # refused before any gate reads it.
    def field(c):
        terms = {(4, 0, 0): c * clifford.SIGMA_3, (0, 1, 0): clifford.SIGMA_1,
                 (0, 0, 1): clifford.SIGMA_2}
        return MatrixPolyField(3, 2, terms)

    assert chern_2(field(1e308)).convergence_pair == (0.0, 0.0)
    with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
        chern_2(field(1.7e308))


def test_a_closed_gap_stops_the_kernel_at_the_failing_chunk(monkeypatch):
    # x2 diag(1, -1) is two 1 x 1 sectors.  The band count of the first one
    # changes at the equator, inside the second of the two chunks of the
    # default S^2 grid: its kernel stops there, and nothing is evaluated again.
    field = MatrixPolyField(3, 2, {(0, 0, 1): np.diag([1.0, -1.0])})
    assert [s.size for s in field.sectors] == [1, 1]
    calls, evaluate = [], MatrixPolyField.evaluate_batch

    def spied(self, *args, **kwargs):
        calls.append(len(args[0]))
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(MatrixPolyField, "evaluate_batch", spied)
    with pytest.raises(GapClosedError, match=r"bands below fermi varies .*\(0 to 1\)"):
        chern_2(field)
    assert calls == [_linalg.CHUNK] * 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_integrand_that_overflows_on_finite_values_is_refused():
    # c x1 s1 + c (x2 - r) s2 + eps s3, with c = 2^500, eps = 1e-5 and r the x2
    # of the node (sin psi, 0, cos psi) at phi = 0, is finite and gapped (s >=
    # eps), and exactly eps s3 at that node.  There both derivatives are about
    # c, so the closed-form integrand, of order (c / eps)^2, overflows.
    n = 8
    r = sphere_grid(2, n).nodes[0, 2]
    c, eps = 2.0**500, 1e-5
    terms = {(0, 1, 0): c * clifford.SIGMA_1, (0, 0, 1): c * clifford.SIGMA_2,
             (0, 0, 0): -c * r * clifford.SIGMA_2 + eps * clifford.SIGMA_3}
    field = MatrixPolyField(3, 2, terms)
    with pytest.raises(ModelOverflowError, match="charge integrand is not finite on the unit"):
        chern_2(field, resolution=n)


@pytest.mark.parametrize("winding, ambient", [(winding_1, 2), (winding_3, 4)])
def test_winding_nan_field_raises(winding, ambient):
    # Refused where the field is made, so no winding, whichever path its
    # sector would take, ever sees it.
    for size in (1, 2, 4):
        for bad in (np.nan, np.inf):
            terms = {(0,) * ambient: np.diag([bad] * size), (1,) + (0,) * (ambient - 1): np.eye(size)}
            with pytest.raises(ModelFormatError, match=r"coefficient of \(0, .*\) is not finite"):
                winding(MatrixPolyField(ambient, size, terms))


def test_chern_nan_field_raises():
    # A NaN or inf coefficient is refused where the field is made: on a 4 x 4
    # sector eigh would not converge, and NaN bands would leave none below fermi.
    pair = weyl2().direct_sum(weyl2()).conjugated_by(dense_unitary(4))
    for field in (weyl2(), pair):
        n = field.size
        for bad in (np.nan, np.inf):
            with pytest.raises(ModelFormatError, match=r"coefficient of \(0, 0, 0\) is not finite"):
                shift = MatrixPolyField(3, n, {(0, 0, 0): np.diag([bad] * n)})
                chern_2(field.plus(shift), resolution=8)


# -- Chern number on the 2-sphere -------------------------------------------------


def test_chern_sign_convention_constant():
    sign = chern_sign_weyl()
    assert sign in (-1, 1)


def test_chern_weyl_matches_wilson_loop_oracle():
    field = weyl2()
    result = chern_2(field, fermi=0.0, resolution=64)
    assert abs(result.charge) == 1
    assert result.residual < 1e-6
    assert result.converged
    assert result.charge == chern_sign_weyl()
    assert wilson_loop_chern_oracle(field) == result.charge


def test_chern_constant_field_is_trivial():
    field = MatrixPolyField(
        3, 2, {(0, 0, 0): np.diag([1.0, -1.0])}
    )
    result = chern_2(field)
    assert result.charge == 0
    assert result.residual < 1e-12


def test_chern_flipped_rep_negates():
    flipped = generators.weyl_field(2, clifford.flip_first(clifford.build_rep(3, clifford.LEFT)))
    result = chern_2(flipped)
    assert result.charge == -chern_sign_weyl()
    assert wilson_loop_chern_oracle(flipped) == result.charge


def test_chern_fermi_level_shifts_band():
    # With fermi below both bands the projection is empty: charge 0.
    field = weyl2()
    result = chern_2(field, fermi=-2.0)
    assert result.charge == 0


def test_chern_requires_selfadjoint():
    with pytest.raises(ValueError):
        chern_2(MatrixPolyField(3, 1, {(1, 0, 0): [[1j]]}))


def test_chern_on_an_enclosing_sphere_is_the_chern_of_the_pullback():
    # The enclosure form evaluates the field on the moved grid, and matches
    # the recomposed field a caller would form bit for bit; Hermiticity is
    # judged on the field itself.
    field = generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT))
    center = np.array([0.1, -0.2, 0.05])
    direct = chern_2(field.affine_pullback(center, 0.5), resolution=16)
    assert chern_2(field, resolution=16, center=center, radius=0.5) == direct
    with pytest.raises(ValueError, match="self-adjoint"):
        chern_2(MatrixPolyField(3, 1, {(1, 0, 0): [[1j]]}), center=center, radius=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chern_enclosure_refuses_a_bad_center_and_an_overflowing_sphere():
    field = generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT))
    with pytest.raises(DimensionMismatchError, match="center must match"):
        chern_2(field, center=[0.0, 0.0], radius=0.5)
    # |x|^2 of the moved nodes overflows: refused as bad input, not as a closed gap.
    square = MatrixPolyField(3, 2, {(2, 0, 0): np.eye(2), (0, 0, 0): -np.eye(2)})
    with pytest.raises(ValueError, match=r"not finite on the sphere of radius 1e\+200"):
        chern_2(square.plus(field), center=[0.0, 0.0, 0.0], radius=1e200)


BAD_RADIUS = "enclosure radius must be finite and positive"


@pytest.mark.parametrize(
    "charge_fn, field, dim",
    [(chern_2, weyl2, 3), (winding_1, dirac1, 2)],
    ids=["chern_2", "winding_1"],
)
@pytest.mark.parametrize(
    "center, radius, message",
    [
        ("origin", -0.5, BAD_RADIUS),
        ("origin", 0.0, BAD_RADIUS),
        ("origin", np.nan, BAD_RADIUS),
        ("origin", np.inf, BAD_RADIUS),
        ("origin", -np.inf, BAD_RADIUS),
        (np.nan, 0.5, "center must be finite"),
        (np.inf, 0.5, "center must be finite"),
        ("short", 0.5, "center must match the ambient dimension"),
        (None, 0.1, "needs a center"),
    ],
    ids=["negative", "zero", "nan", "inf", "-inf", "nan-center", "inf-center", "short-center",
         "no-center"],
)
def test_enclosure_refuses_a_bad_sphere(charge_fn, field, dim, center, radius, message):
    # A sphere that is not one is refused before any grid is built, rather than
    # charged with the opposite orientation (radius < 0), as 0 (radius 0), as
    # the unit sphere (no center) or as an overflowing model (NaN).
    if center == "origin":
        center = [0.0] * dim
    elif center == "short":
        center = [0.0] * (dim - 1)
    elif center is not None:
        center = [center] + [0.0] * (dim - 1)
    with pytest.raises(ValueError, match=message):
        charge_fn(field(), center=center, radius=radius)


def test_chern_gap_closed():
    # Fermi level sitting exactly on a band closes the gap at every node.
    field = MatrixPolyField(
        3, 2, {(0, 0, 0): np.diag([1.0, -1.0]).astype(complex)}
    )
    with pytest.raises(GapClosedError):
        chern_2(field, fermi=1.0)


@pytest.mark.parametrize("fermi", [np.nan, np.inf, -np.inf])
def test_chern_rejects_non_finite_fermi(fermi):
    # NaN compares false with every eigenvalue and +-inf puts all bands on one
    # side; either used to give charge 0 with converged=True.
    with pytest.raises(ValueError, match="finite"):
        chern_2(weyl2(), fermi=fermi)


def test_chern_gap_closing_between_nodes():
    # Weyl + 2 x3 I has eigenvalues +-1 + 2 x3 on the sphere, so the number of
    # bands below 0.5 changes with x3: the gap closes between the nodes, not at
    # them.  Reading the occupied set node by node gave raw -0.49 here.
    shift = MatrixPolyField(3, 2, {(0, 0, 1): 2.0 * np.eye(2)})
    field = weyl2().plus(shift)
    grid = sphere_grid(2, 64)
    vals = np.linalg.eigvalsh(field.evaluate_batch(grid.nodes))
    assert np.min(np.abs(vals - 0.5)) > charge.GAP_MIN
    with pytest.raises(GapClosedError, match="number of bands below fermi"):
        chern_2(field, fermi=0.5, resolution=64)


def test_chern_of_a_sector_whose_gap_closes_is_refused():
    # x3 diag(1, -1) squares to x3^2 I, so as one field its bands are +-|x3|,
    # one below 0 at every node: it read as charge 0, converged.  Its sectors
    # x3 and -x3 each cross 0 on the equator, between the nodes.
    field = MatrixPolyField(3, 2, {(0, 0, 1): np.diag([1.0, -1.0])})
    with pytest.raises(GapClosedError, match="number of bands below fermi varies"):
        chern_2(field)


# -- winding on the 3-sphere ------------------------------------------------------


def test_winding3_generator():
    result = winding_3(dirac3(), resolution=24)
    assert abs(result.charge) == 1
    assert result.residual < 1e-4
    assert result.converged
    # Finite-difference variant of the quadrature agrees.
    fd_raw = fd_winding3_oracle(dirac3())
    assert abs(fd_raw - result.charge) < 1e-3


def test_winding3_constant():
    field = MatrixPolyField(4, 2, {(0, 0, 0, 0): np.eye(2)})
    assert winding_3(field, resolution=12).charge == 0


def test_winding3_direct_sum_cancels():
    field = dirac3()
    cancel = field.direct_sum(field.reflect(0))
    result = winding_3(cancel, resolution=16)
    assert result.charge == 0
    assert result.residual < 1e-4


# -- charge algebra ----------------------------------------------------------------


def test_additivity_direct_sum():
    w1 = winding_1(dirac1()).charge
    double = dirac1().direct_sum(dirac1())
    assert winding_1(double).charge == 2 * w1

    c = chern_2(weyl2()).charge
    double2 = weyl2().direct_sum(weyl2())
    assert chern_2(double2).charge == 2 * c

    w3 = winding_3(dirac3(), resolution=16).charge
    double3 = dirac3().direct_sum(dirac3())
    assert winding_3(double3, resolution=16).charge == 2 * w3


def test_reflection_negates_charge():
    assert winding_1(dirac1().reflect(0)).charge == -winding_1(dirac1()).charge
    assert chern_2(weyl2().reflect(0)).charge == -chern_2(weyl2()).charge
    assert (
        winding_3(dirac3().reflect(0), resolution=16).charge
        == -winding_3(dirac3(), resolution=16).charge
    )


def test_conjugation_invariance():
    rng = np.random.default_rng(9)
    for field, fn, kwargs in (
        (dirac1(), winding_1, {}),
        (weyl2(), chern_2, {}),
        (dirac3(), winding_3, {"resolution": 16}),
    ):
        n = field.size
        w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert fn(field.conjugated_by(w), **kwargs).charge == fn(field, **kwargs).charge


def random_hermitian_perturbation(rng, ambient, size, scale):
    """Degree-1 Hermitian polynomial with sup norm on the sphere <= scale."""
    terms = {}
    alphas = [tuple(0 for _ in range(ambient))]
    for j in range(ambient):
        alpha = [0] * ambient
        alpha[j] = 1
        alphas.append(tuple(alpha))
    for alpha in alphas:
        mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        terms[alpha] = 0.5 * (mat + mat.conj().T)
    bound = sum(np.linalg.norm(m, 2) for m in terms.values())
    return {alpha: scale * m / bound for alpha, m in terms.items()}


def test_perturbation_stability_winding():
    rng = np.random.default_rng(10)
    base = dirac1()
    for _ in range(20):
        terms = random_hermitian_perturbation(rng, 2, 1, 0.1)
        bump = MatrixPolyField(2, 1, terms)
        assert winding_1(base.plus(bump)).charge == 1


def test_perturbation_stability_chern():
    rng = np.random.default_rng(11)
    base = weyl2()
    sign = chern_sign_weyl()
    for _ in range(20):
        terms = random_hermitian_perturbation(rng, 3, 2, 0.1)
        bump = MatrixPolyField(3, 2, terms)
        assert chern_2(base.plus(bump)).charge == sign


def test_perturbation_stability_winding3():
    rng = np.random.default_rng(12)
    base = dirac3()
    expected = winding_3(base, resolution=16).charge
    for _ in range(3):
        terms = random_hermitian_perturbation(rng, 4, 2, 0.1)
        bump = MatrixPolyField(4, 2, terms)
        assert winding_3(base.plus(bump), resolution=16).charge == expected


def test_convergence_improves_with_resolution():
    for field, fn, kwargs in (
        (dirac1(), winding_1, {}),
        (weyl2(), chern_2, {}),
        (dirac3(), winding_3, {"resolution": 16}),
    ):
        result = fn(field, **kwargs)
        raw_n, raw_2n = result.convergence_pair
        assert abs(raw_2n - result.charge) <= abs(raw_n - result.charge) + 1e-9


# -- argument checks ---------------------------------------------------------------


def test_charge_ambient_dimension_check():
    with pytest.raises(DimensionMismatchError):
        winding_1(dirac3())


def test_charge_needs_a_polynomial_field():
    # The kernels integrate exact derivatives, which an EvaluableField lacks.
    with pytest.raises(TypeError, match="exact derivatives"):
        winding_1(generators.bounded_transform(dirac1()))


@pytest.mark.parametrize(
    "fn, make", [(winding_1, dirac1), (chern_2, weyl2), (winding_3, dirac3)]
)
@pytest.mark.parametrize("resolution", [0, 2, -5])
def test_resolution_below_four_is_refused(fn, make, resolution):
    # Only None selects the default; 0 used to fall back to it silently.
    with pytest.raises(ValueError, match="resolution must be an integer >= 4"):
        fn(make(), resolution=resolution)


@pytest.mark.parametrize(
    "fn, make, in_use, largest",
    [(winding_1, dirac1, 4096, 2**23), (chern_2, weyl2, 512, 1448), (winding_3, dirac3, 48, 101)],
)
def test_a_resolution_past_the_grid_bound_is_refused(monkeypatch, fn, make, in_use, largest):
    # The grid at 2n has 2n, 8 n^2 and 16 n^3 nodes on S^1, S^2 and S^3.  The
    # largest resolutions in use (the benchmark's 4,096 on S^1, 512 and 48 in
    # the tests) and the largest n within MAX_GRID_NODES pass the check; the
    # next one is refused before any grid factor or Gauss-Legendre rule is built.
    dim = {winding_1: 1, chern_2: 2, winding_3: 3}[fn]
    for n in (in_use, largest, np.int64(largest)):
        charge.check_resolution(n, dim)

    def no_grid(*args):
        raise AssertionError("a grid was built for a refused resolution")

    monkeypatch.setattr(charge, "_build_grid_rows", no_grid)
    monkeypatch.setattr(charge, "_cached_grid_rows", no_grid)
    monkeypatch.setattr(charge, "_gauss_legendre", no_grid)
    for n in (largest + 1, np.int64(2**62), 10**30):
        with pytest.raises(ValueError, match=f"more than MAX_GRID_NODES = {2**24}"):
            fn(make(), resolution=n)
        with pytest.raises(ValueError, match="MAX_GRID_NODES"):
            sphere_grid(dim, n)


def test_charge_result_payload_keys():
    result = winding_1(dirac1())
    payload = result.to_payload()
    assert set(payload) == {"raw", "charge", "residual", "resolution", "convergence_pair",
                            "converged"}
    assert payload["convergence_pair"] == list(result.convergence_pair)
    assert payload["convergence_pair"][0] == payload["raw"]


# -- kernels against the projector and two-einsum forms -------------------------


def reference_tangent_derivatives(field, grid):
    """Tangent derivatives from the stacked ambient partials, contracted at once."""
    partials = np.stack(
        [field.derivative(i).evaluate_batch(grid.nodes) for i in range(field.ambient_dim)],
        axis=1,
    )
    return np.einsum("mai,mijk->majk", grid.dx_dparam, partials, optimize=True)


def reference_chern_raw(field, fermi, grid):
    """Chern integrand tr(P [dP_0, dP_1]) with P and dP rotated back to the full basis."""
    vals, vecs = np.linalg.eigh(field.evaluate_batch(grid.nodes))
    occ = vals < fermi
    d = reference_tangent_derivatives(field, grid)
    vecs_d = vecs.conj().transpose(0, 2, 1)
    pair = occ[:, :, None] & ~occ[:, None, :]
    safe = np.where(pair, vals[:, :, None] - vals[:, None, :], 1.0)
    dp = []
    for a in (0, 1):
        k = np.where(pair, (vecs_d @ d[:, a] @ vecs) / safe, 0.0)
        k = k + k.conj().transpose(0, 2, 1)
        dp.append(vecs @ k @ vecs_d)
    p = np.einsum("mik,mk,mjk->mij", vecs, occ.astype(float), vecs.conj(), optimize=True)
    comm = dp[0] @ dp[1] - dp[1] @ dp[0]
    integrand = np.einsum("mij,mji->m", p, comm, optimize=True)
    total = np.sum(grid.weights * integrand)
    return float(np.real(total / (2.0j * np.pi)))


def reference_winding3_raw(field, grid):
    """S^3 integrand as the two ordered triple traces tr(l1 l2 l3) - tr(l1 l3 l2)."""
    uinv = np.linalg.inv(field.evaluate_batch(grid.nodes))
    d = reference_tangent_derivatives(field, grid)
    l1, l2, l3 = (uinv @ d[:, a] for a in range(3))
    t123 = np.einsum("mij,mjk,mki->m", l1, l2, l3, optimize=True)
    t132 = np.einsum("mij,mjk,mki->m", l1, l3, l2, optimize=True)
    total = np.sum(grid.weights * 3.0 * (t123 - t132))
    return float(np.real(-total / (24.0 * np.pi**2)))


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def random_linear_terms(rng, ambient, size, scale):
    """Complex degree-1 polynomial with sup norm on the sphere <= scale."""
    terms = {}
    for j in range(-1, ambient):
        alpha = tuple(int(k == j) for k in range(ambient))
        terms[alpha] = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    bound = sum(np.linalg.norm(m, 2) for m in terms.values())
    return {alpha: scale * m / bound for alpha, m in terms.items()}


def random_gapped_weyl(rng, size):
    """Weyl block (eigenvalues +-1) plus flat bands at +-(1.5..2.5), mixed by a
    unitary and bumped by at most 0.3: the gap at any |fermi| <= 0.4 stays >= 0.3."""
    flat = rng.choice([-1.0, 1.0], size - 2) * rng.uniform(1.5, 2.5, size - 2)
    base = weyl2().direct_sum(
        MatrixPolyField(3, size - 2, {(0, 0, 0): np.diag(flat)})
    )
    bump = random_hermitian_perturbation(rng, 3, size, 0.3)
    return base.conjugated_by(random_unitary(rng, size)).plus(
        MatrixPolyField(3, size, bump)
    )


def random_invertible_phase(rng, base, size):
    """Unitary Dirac phase (plus identity padding) mixed by unitaries and bumped
    by a complex linear term of sup norm <= 0.3: singular values stay >= 0.7."""
    m = base.ambient_dim
    if size > base.size:
        pad = MatrixPolyField(m, size - base.size, {(0,) * m: np.eye(size - base.size)})
        base = base.direct_sum(pad)
    return base.conjugated_by(random_unitary(rng, size)).plus(
        MatrixPolyField(m, size, random_linear_terms(rng, m, size, 0.3))
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(3, 4),
    fermi=st.floats(0.05, 0.4) | st.floats(-0.4, -0.05),
    n=st.sampled_from([4, 6, 9]),
)
def test_chern_kernel_matches_projector_form(seed, size, fermi, n):
    field = random_gapped_weyl(np.random.default_rng(seed), size)
    new = charge._chern_raw(field.shifted(fermi), charge._grid_rows(2, n))
    assert abs(new - reference_chern_raw(field, fermi, sphere_grid(2, n))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 4),
    n=st.sampled_from([4, 5, 7]),
)
def test_winding3_kernel_matches_two_einsum_form(seed, size, n):
    field = random_invertible_phase(np.random.default_rng(seed), dirac3(), size)
    new = charge._winding_raw(field, charge._grid_rows(3, n))
    assert abs(new - reference_winding3_raw(field, sphere_grid(3, n))) <= 1e-12


def reference_winding1_raw(field, grid):
    """S^1 integrand tr(U^-1 dU) over the whole grid at once."""
    uinv = np.linalg.inv(field.evaluate_batch(grid.nodes))
    d = reference_tangent_derivatives(field, grid)
    total = np.sum(grid.weights * np.einsum("mij,mji->m", uinv, d[:, 0]))
    return float(np.real(total / (2.0j * np.pi)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 3), n=st.sampled_from([4, 5]))
def test_chunked_kernels_match_single_batch_forms(seed, size, n):
    # Seven-node chunks split every ring of every grid, so each kernel carries
    # its running sum (and the Chern band count) across many chunk boundaries,
    # on the unit sphere and on an enclosing one, whose reference is the
    # pulled-back field's.  The 2 x 2 phases take the determinant forms.
    rng = np.random.default_rng(seed)
    s1 = random_invertible_phase(rng, dirac1(), size)
    s2 = random_gapped_weyl(rng, size + 1)
    s3 = random_invertible_phase(rng, dirac3(), size + 1)
    s3_closed = random_invertible_phase(rng, dirac3(), 2)
    fermi = float(rng.uniform(-0.4, 0.4))
    center, radius = np.array([0.05, -0.1, 0.02]), 1.1
    rows = {dim: charge._grid_rows(dim, n) for dim in (1, 2, 3)}
    grids = {dim: sphere_grid(dim, n) for dim in (1, 2, 3)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linalg, "CHUNK", 7)
        raws = (
            charge._winding_raw(s1, rows[1]),
            charge._chern_raw(s2.shifted(fermi), rows[2]),
            charge._chern_raw(s2.shifted(fermi), rows[2], center, radius),
            charge._winding_raw(s3, rows[3]),
            charge._winding_raw(s3_closed, rows[3]),
        )
    refs = (
        reference_winding1_raw(s1, grids[1]),
        reference_chern_raw(s2, fermi, grids[2]),
        reference_chern_raw(s2.affine_pullback(center, radius), fermi, grids[2]),
        reference_winding3_raw(s3, grids[3]),
        reference_winding3_raw(s3_closed, grids[3]),
    )
    assert np.max(np.abs(np.subtract(raws, refs))) <= 1e-12


def test_chunked_chern_sees_band_count_change_in_a_later_chunk(monkeypatch):
    # Weyl + 2 x3 I at fermi 0.5: two bands lie below fermi near the south pole
    # (the first node) and fewer from x3 = -0.25 on.  With one eight-node
    # latitude ring per chunk every chunk is uniform, so only the count carried
    # from the first chunk shows the change.
    monkeypatch.setattr(_linalg, "CHUNK", 8)
    shift = MatrixPolyField(3, 2, {(0, 0, 1): 2.0 * np.eye(2)})
    field = weyl2().plus(shift)
    grid = sphere_grid(2, 4)
    counts = np.count_nonzero(np.linalg.eigvalsh(field.evaluate_batch(grid.nodes)) < 0.5, axis=1)
    assert np.array_equal(counts, np.repeat([2, 2, 1, 0], 8))
    with pytest.raises(GapClosedError, match=r"number of bands below fermi varies .*\(1 to 2\)"):
        charge._chern_raw(field.shifted(0.5), charge._grid_rows(2, 4))


def test_kernel_memory_bounded_by_the_chunk():
    # The S^3 grid at n = 48 has 221,184 nodes; the kernel's working set is one
    # chunk of them, and the grid itself is built without tiled temporaries.
    # The 2 x 2 field takes the determinant form, whose node-last rows are in
    # the kernel's block; the 4 x 4 one, passed whole, inv and the products.
    fields = (dirac3(), dirac3().direct_sum(dirac3().reflect(0)))
    kernel_peaks = []
    tracemalloc.start()
    try:
        grid = sphere_grid(3, 48)
        grid_peak = tracemalloc.get_traced_memory()[1]
        rows = charge._grid_rows(3, 48)
        for field in fields:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            charge._winding_raw(field, rows)
            kernel_peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    grid_bytes = sum(getattr(grid, name).nbytes for name in ("nodes", "weights", "dx_dparam"))
    assert grid_peak <= 1.25 * grid_bytes
    assert max(kernel_peaks) < 32 * 2**20


def test_charge_memory_does_not_grow_with_the_resolution():
    # The kernels generate each chunk's rows from the cached factors, so a whole
    # winding_3 call (rows at n and 2n, factors built afresh) stays far below
    # the 28.7 MiB of sphere_grid(3, 48), and the peak of chern_2 at
    # resolution 256 (2n = 512: 1,048,576 nodes) is that at 64.
    charge._cached_grid_rows.cache_clear()
    tracemalloc.start()
    try:
        winding_3(dirac3())
        winding_peak = tracemalloc.get_traced_memory()[1]
        chern_peaks = []
        for resolution in (64, 256):
            charge._cached_grid_rows.cache_clear()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            chern_2(weyl2(), resolution=resolution)
            chern_peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert winding_peak < 8 * 2**20
    assert chern_peaks[1] < chern_peaks[0] + 2**20


def test_one_chunk_block_serves_every_sector_at_both_resolutions(monkeypatch):
    # A mixed 4 x 4 sector (products), a 2 x 2 one (determinant form) and a
    # 1 x 1 one share the block made for the largest, and each sector's raw
    # is the one it gets in a block of its own.
    rng = np.random.default_rng(11)
    dirac = dirac3()
    mixed = dirac.direct_sum(dirac.reflect(1)).conjugated_by(random_unitary(rng, 4))
    scalar = MatrixPolyField(4, 1, {(0, 0, 0, 0): [[3.0]], (1, 0, 0, 0): [[1j]]})
    field = mixed.direct_sum(dirac.conjugated_by(random_unitary(rng, 2))).direct_sum(scalar)
    assert [s.size for s in field.sectors] == [4, 2, 1]
    alone = [sum(charge._winding_raw(s, charge._grid_rows(3, n)) for s in field.sectors)
             for n in (6, 12)]
    made = []
    real_block = charge._chunk_block
    monkeypatch.setattr(charge, "_chunk_block", lambda *a: made.append(a) or real_block(*a))
    result = winding_3(field, 6)
    assert made == [(3, 4, min(_linalg.CHUNK, charge._grid_rows(3, 12).size))]
    assert np.max(np.abs(np.subtract(result.convergence_pair, alone))) <= 1e-15
    assert (result.charge, result.converged) == (1, True)


def copies(field, k, rng):
    """The direct sum of k copies of ``field``, mixed by a random unitary."""
    total = field
    for _ in range(k - 1):
        total = total.direct_sum(field)
    return total.conjugated_by(random_unitary(rng, total.size))


@pytest.mark.parametrize("size", [2, 4, 6])
def test_node_last_products_match_the_stacked_ones(monkeypatch, size):
    # PLANAR_MAX pinned to 0 sends every size through the stacked ``@`` path and
    # pinned to ``size`` through the node-last one, 6 x 6 included; the default
    # sends 4 x 4 node-last and 6 x 6 stacked.  The 2 x 2 fields take the
    # determinant forms, which use no products, so their raws must not move
    # with PLANAR_MAX; the larger winding fields take inv and the products,
    # and the larger Chern fields eigh.
    rng = np.random.default_rng(size)
    gram = copies(dirac3(), size // 2, rng)
    general = random_invertible_phase(rng, dirac3(), size)
    bands = copies(weyl2(), size // 2, rng)
    s2, s3 = charge._grid_rows(2, 8), charge._grid_rows(3, 6)
    raws = []
    for planar_max in (0, _linalg.PLANAR_MAX, size):
        monkeypatch.setattr(_linalg, "PLANAR_MAX", planar_max)
        raws.append([
            charge._winding_raw(gram, s3),
            charge._winding_raw(general, s3),
            charge._chern_raw(bands, s2),
        ])
    k = size // 2
    expected = [k * winding_3(dirac3(), 6).raw, k * chern_sign_weyl()]
    assert np.allclose([raws[0][0], raws[0][2]], expected, atol=1e-6)
    assert np.max(np.abs(np.subtract(raws[1:], raws[0]))) <= 1e-12


# -- charge algebra as properties -------------------------------------------------

# Each charge with its generator: summands are one or two copies of it (2 x 2
# or 4 x 4 on S^2 and S^3), so sums of two run from 4 x 4 to 8 x 8 and cross
# PLANAR_MAX.  Chern sectors of two mixed copies are 4 x 4 and take eigh.
CHARGES = {"winding_1": (winding_1, dirac1), "chern_2": (chern_2, weyl2),
           "winding_3": (winding_3, dirac3)}

summands = st.tuples(st.integers(1, 2), st.booleans(), st.sampled_from([1.0, 2.0]))
algebra = dict(
    kind=st.sampled_from(sorted(CHARGES)),
    seed=st.integers(0, 2**32 - 1),
    first=summands,
    second=summands,
    resolution=st.integers(8, 12),
)


def summand(base, spec, rng):
    count, reflected, velocity = spec
    field = scaled(base.reflect(0) if reflected else base, velocity)
    return copies(field, count, rng)


def draw(kind, seed, first, second):
    fn, base = CHARGES[kind]
    rng = np.random.default_rng(seed)
    return fn, rng, summand(base(), first, rng), summand(base(), second, rng)


@settings(max_examples=15, deadline=None)
@given(**algebra)
def test_charges_add_under_direct_sums(kind, seed, first, second, resolution):
    fn, _, a, b = draw(kind, seed, first, second)
    ra, rb, rsum = (fn(f, resolution=resolution) for f in (a, b, a.direct_sum(b)))
    assert ra.converged and rb.converged and rsum.converged
    assert rsum.charge == ra.charge + rb.charge
    assert np.allclose(rsum.convergence_pair, np.add(ra.convergence_pair, rb.convergence_pair),
                       rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(**algebra, axis=st.integers(0, 3))
def test_reflection_flips_the_charge(kind, seed, first, second, resolution, axis):
    fn, _, a, b = draw(kind, seed, first, second)
    field = a.direct_sum(b)
    axis %= field.ambient_dim
    result = fn(field, resolution=resolution)
    mirrored = fn(field.reflect(axis), resolution=resolution)
    assert result.converged and mirrored.converged
    assert mirrored.charge == -result.charge


@settings(max_examples=15, deadline=None)
@given(**algebra)
def test_conjugation_leaves_the_charge(kind, seed, first, second, resolution):
    fn, rng, a, b = draw(kind, seed, first, second)
    field = a.direct_sum(b)
    result = fn(field, resolution=resolution)
    turned = fn(field.conjugated_by(random_unitary(rng, field.size)), resolution=resolution)
    assert result.converged and turned.converged
    assert turned.charge == result.charge
    assert np.allclose(turned.convergence_pair, result.convergence_pair, rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(**algebra)
def test_sectors_charge_as_the_mixed_sum(kind, seed, first, second, resolution):
    # P*(A + B)P is split into A and B; W*(A + B)W, for a dense unitary W, is
    # one sector.  The same charge either way.
    fn, rng, a, b = draw(kind, seed, first, second)
    field = a.direct_sum(b)
    permuted = field.conjugated_by(np.eye(field.size)[rng.permutation(field.size)])
    mixed = field.conjugated_by(random_unitary(rng, field.size))
    assert (len(permuted.sectors), len(mixed.sectors)) == (2, 1)
    split, whole = (fn(f, resolution=resolution) for f in (permuted, mixed))
    assert (split.charge, split.converged) == (whole.charge, whole.converged)
    assert np.allclose(split.convergence_pair, whole.convergence_pair, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", [*sorted(CHARGES), "constant"])
def test_a_one_sector_field_keeps_the_bits_of_its_kernels(kind):
    # The sector sum starts from the first raw, so a raw of -0.0 stays -0.0.
    if kind == "constant":
        fn, field = winding_3, MatrixPolyField(4, 2, {(0, 0, 0, 0): dense_unitary(2)})
    else:
        fn, base = CHARGES[kind]
        field = copies(base(), 2, np.random.default_rng(7))
    assert len(field.sectors) == 1 and field.sectors[0] is field
    dim = field.ambient_dim - 1
    if fn is chern_2:
        raws = [charge._chern_raw(field, charge._grid_rows(dim, n)) for n in (8, 16)]
    else:
        raws = [charge._winding_raw(field, charge._grid_rows(dim, n)) for n in (8, 16)]
    pair = fn(field, resolution=8).convergence_pair
    assert list(map(repr, pair)) == list(map(repr, raws))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: the gap closes at (0, 1, +-1)/sqrt(2) on the sphere, "
    "between the grid nodes, and the quadrature reports charge 0, converged",
)
def test_a_gap_closing_between_the_nodes_is_not_a_charge():
    # The 1e7 x0 term keeps the gap large at every node; the sectors
    # 1e7 x0 s3 + (x1 +- x2) s1 close where x0 = 0 and x1 = -+x2 on the sphere.
    s1, s3, i2 = clifford.SIGMA_1, clifford.SIGMA_3, np.eye(2)
    terms = {(1, 0, 0): 1e7 * np.kron(s3, i2), (0, 1, 0): np.kron(s1, i2),
             (0, 0, 1): np.kron(s1, s3)}
    try:
        result = chern_2(MatrixPolyField(3, 4, terms), 0.0)
    except GapClosedError:
        return
    assert not result.converged, result
