"""Charts, connecting maps, deformation scan, and the identity suites."""

import numpy as np
import pytest

from kgen import clifford, generators, kmaps
from kgen.errors import DomainError, LiftInvalidError, PoleError
from kgen.fields import DISC, EvaluableField, MatrixPolyField
from kgen.sampling import ball_points


def scalar_field(terms, ambient=2):
    return MatrixPolyField(ambient, 1, {a: np.array([[c]]) for a, c in terms.items()}, DISC)


def disc_dirac_lift(d):
    rep = clifford.build_rep(d, clifford.LEFT)
    return generators.dirac_phase_field(d, rep, domain=DISC)


def disc_weyl_lift(d):
    rep = clifford.build_rep(d + 1, clifford.LEFT)
    return generators.weyl_field(d, rep, domain=DISC)


# -- charts ------------------------------------------------------------------


def test_chart_center_maps_to_south_pole():
    point = kmaps.chart(np.zeros(2))
    assert np.allclose(point.euclid_z, 0.0)
    assert np.allclose(point.sphere_x, [0.0, 0.0, -1.0])


def test_chart_equator():
    y = np.array([1.0, 0.0]) / np.sqrt(2.0)
    point = kmaps.chart(y)
    assert abs(point.sphere_x[-1]) < 1e-15
    assert np.allclose(point.sphere_x, [1.0, 0.0, 0.0])


def test_chart_composite_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = ball_points(3, 1, rng, max_norm=0.999)[0]
        point = kmaps.chart(y)
        r2 = np.dot(y, y)
        expected = np.concatenate([2.0 * y * np.sqrt(1.0 - r2), [2.0 * r2 - 1.0]])
        assert np.allclose(point.sphere_x, expected, atol=1e-14)
        assert abs(np.linalg.norm(point.sphere_x) - 1.0) < 1e-13
        assert np.allclose(point.euclid_z, y / np.sqrt(1.0 - r2), atol=1e-12)
        # Two-step route: rescale to z, then inverse stereographic projection.
        z = point.euclid_z
        z2 = np.dot(z, z)
        two_step = np.concatenate([2.0 * z / (1.0 + z2), [(z2 - 1.0) / (1.0 + z2)]])
        assert np.allclose(point.sphere_x, two_step, atol=1e-12)


def test_chart_round_trip():
    rng = np.random.default_rng(1)
    ys = ball_points(4, 10_000, rng, max_norm=0.999)
    xs = np.empty((len(ys), 5))
    for k, y in enumerate(ys):
        xs[k] = kmaps.chart(y).sphere_x
        back = kmaps.chart_inverse(xs[k])
        assert np.max(np.abs(back.disc_y - y)) < 1e-12
    # The stacked call acts row by row with the same results.
    stacked = kmaps.chart_inverse(xs)
    assert stacked.disc_y.shape == (len(ys), 4)
    assert np.max(np.abs(stacked.disc_y - ys)) < 1e-12
    for k in range(0, len(ys), 997):
        single = kmaps.chart_inverse(xs[k])
        assert np.array_equal(stacked.disc_y[k], single.disc_y)
        assert np.array_equal(stacked.euclid_z[k], single.euclid_z)
    # chart acts on the last axis too, with the per-row results to the last bit.
    batch = kmaps.chart(ys)
    assert batch.sphere_x.shape == (len(ys), 5)
    assert np.array_equal(batch.sphere_x, xs)
    assert np.max(np.abs(np.linalg.norm(batch.sphere_x, axis=1) - 1.0)) < 1e-13
    for k in range(0, len(ys), 997):
        assert np.array_equal(batch.euclid_z[k], kmaps.chart(ys[k]).euclid_z)
    assert np.max(np.abs(kmaps.chart_inverse(batch.sphere_x).disc_y - ys)) < 1e-12


def test_chart_domain_errors():
    with pytest.raises(DomainError):
        kmaps.chart([1.0, 0.0])
    with pytest.raises(DomainError, match=r"\|\|y\|\| = 3.0"):
        kmaps.chart([[0.1, 0.0], [0.0, 3.0], [0.2, 0.2]])
    with pytest.raises(DomainError):
        kmaps.chart_inverse([0.5, 0.0, 0.0])  # not a unit vector
    with pytest.raises(PoleError):
        kmaps.chart_inverse([0.0, 0.0, 1.0])
    with pytest.raises(PoleError):
        kmaps.chart_inverse([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DomainError):
        kmaps.chart_inverse([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])


# -- index map -----------------------------------------------------------------


def test_index_map_of_zero_lift():
    b = scalar_field({(0, 0): 0.0})
    v = kmaps.index_map(b)
    expected = np.diag([-1.0, 1.0]).astype(complex)
    rng = np.random.default_rng(2)
    for y in ball_points(2, 10, rng):
        assert np.allclose(v.evaluate(y), expected, atol=1e-15)


def test_index_map_of_circle_generator():
    # B(y) = y1 + i y2 on the closed disc lifts the scalar winding generator.
    b = scalar_field({(1, 0): 1.0, (0, 1): 1j})
    v = kmaps.index_map(b)
    assert np.allclose(v.evaluate([0.0, 0.0]), np.diag([-1.0, 1.0]), atol=1e-15)
    # At y = (1/sqrt2, 0) the chart lands at x = (1, 0, 0) and V is sigma_1.
    y = np.array([1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(v.evaluate(y), [[0, 1], [1, 0]], atol=1e-14)
    assert np.allclose(kmaps.chart(y).sphere_x, [1.0, 0.0, 0.0])


def test_index_map_output_is_hermitian_unitary():
    v = kmaps.index_map(disc_dirac_lift(3))
    rng = np.random.default_rng(3)
    ys = ball_points(4, 50, rng)
    batch = v.evaluate_batch(ys)
    for y, from_batch in zip(ys, batch):
        mat = v.evaluate(y)
        assert np.allclose(from_batch, mat, atol=1e-15)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-11
        assert np.max(np.abs(mat @ mat - np.eye(4))) < 1e-11


def test_index_map_boundary_form():
    # Exact boundary points give exact values; generic boundary points pick up
    # sqrt(eps) noise from the infinite slope of sqrt(1 - b^2) at b = +-1.
    v = kmaps.index_map(disc_dirac_lift(1))
    for y in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
        assert np.allclose(v.evaluate(y), np.diag([1.0, -1.0]), atol=1e-15)
    rng = np.random.default_rng(4)
    for theta in rng.uniform(0, 2 * np.pi, 10):
        y = np.array([np.cos(theta), np.sin(theta)])
        assert np.allclose(v.evaluate(y), np.diag([1.0, -1.0]), atol=1e-7)


def test_index_map_rejects_non_contraction():
    b = scalar_field({(1, 0): 2.0, (0, 1): 2j})
    with pytest.raises(LiftInvalidError):
        kmaps.index_map(b)


@pytest.mark.parametrize("d", [3, 5])
def test_index_map_off_diagonal_blocks_are_exact_adjoints(d):
    v = kmaps.index_map(disc_dirac_lift(d))
    n = v.size // 2
    values = v.evaluate_batch(ball_points(d + 1, 50, np.random.default_rng(7)))
    assert np.array_equal(values[:, n:, :n], values[:, :n, n:].conj().swapaxes(-1, -2))


# -- exponential map -----------------------------------------------------------


def test_exp_map_of_zero_lift():
    b = scalar_field({(0, 0, 0): 0.0}, ambient=3)
    adjoint_image = kmaps.exp_map(b, convention="adjoint")
    forward_image = kmaps.exp_map(b, convention="forward")
    y = np.array([0.1, 0.2, 0.0])
    assert np.allclose(adjoint_image.evaluate(y), [[1j]], atol=1e-15)
    assert np.allclose(forward_image.evaluate(y), [[-1j]], atol=1e-15)


def test_exp_map_along_axis():
    image = kmaps.exp_map(disc_weyl_lift(2), convention="forward")
    rep = clifford.build_rep(3, clifford.LEFT)
    sigma3 = rep.gammas[2]
    for t in np.linspace(-0.95, 0.95, 11):
        y = np.array([0.0, 0.0, t])
        expected = sigma3 * (t * np.sqrt(1 - t * t)) + 1j * (2 * t * t - 1) * np.eye(2)
        assert np.allclose(image.evaluate(y), expected, atol=1e-13)


def test_exp_map_eigenvalue_modulus_identity():
    # The image is invertible, not unitary: with B^2 = ||y||^2 its
    # normality gives M*M = (3 r^4 - 3 r^2 + 1) * identity exactly.
    image = kmaps.exp_map(disc_weyl_lift(2), convention="forward")
    rng = np.random.default_rng(5)
    ys = ball_points(3, 200, rng)
    batch = image.evaluate_batch(ys)
    for y, from_batch in zip(ys, batch):
        m = image.evaluate(y)
        assert np.allclose(from_batch, m, atol=1e-15)
        r2 = float(np.dot(y, y))
        expected = (3 * r2 * r2 - 3 * r2 + 1) * np.eye(2)
        assert np.max(np.abs(m.conj().T @ m - expected)) < 1e-13
        assert np.linalg.svd(m, compute_uv=False)[-1] >= 0.5 - 1e-12


def test_exp_map_boundary_values():
    # sqrt(eps) tolerance: boundary eigenvalues b = +-1 sit at the infinite
    # slope of sqrt(1 - b^2), so 1e-16 eigenvalue noise surfaces as ~1e-8.
    forward_image = kmaps.exp_map(disc_weyl_lift(2), convention="forward")
    adjoint_image = kmaps.exp_map(disc_weyl_lift(2), convention="adjoint")
    rng = np.random.default_rng(6)
    for _ in range(10):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        assert np.allclose(forward_image.evaluate(y), 1j * np.eye(2), atol=1e-7)
        assert np.allclose(adjoint_image.evaluate(y), -1j * np.eye(2), atol=1e-7)
    assert np.allclose(
        kmaps.exp_map(disc_weyl_lift(2), "forward").evaluate([0.0, 0.0, 1.0]),
        1j * np.eye(2),
        atol=1e-15,
    )


def test_exp_map_rejects_non_selfadjoint():
    with pytest.raises(LiftInvalidError):
        kmaps.exp_map(disc_dirac_lift(1))


def test_exp_map_checks_contraction_on_the_boundary():
    # 0.5 I inside the ball and 1.5 I on the unit sphere: only the boundary
    # sample shows that this lift is not a contraction.
    def evaluator(points):
        on_sphere = np.abs(np.linalg.norm(points, axis=1) - 1.0) < 1e-12
        return np.where(on_sphere, 1.5, 0.5)[:, None, None] * np.eye(2)

    with pytest.raises(LiftInvalidError, match="not a contraction"):
        kmaps.exp_map(EvaluableField(3, 2, evaluator))


def test_exp_map_unknown_convention():
    with pytest.raises(ValueError):
        kmaps.exp_map(disc_weyl_lift(2), convention="other")


# -- deformation ----------------------------------------------------------------


def test_homotopy_endpoint_t1_is_unitary():
    lift = disc_weyl_lift(2)
    rng = np.random.default_rng(7)
    for y in ball_points(3, 20, rng):
        a1 = kmaps.homotopy_at(lift, 1.0, y)
        b = lift.evaluate(y)
        expected = -funcm_cos(b) + 1j * funcm_sin(b)
        assert np.allclose(a1, expected, atol=1e-13)
        sv = np.linalg.svd(a1, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) < 1e-12


def funcm_cos(b):
    vals, vecs = np.linalg.eigh(b)
    return (vecs * np.cos(np.pi * vals)) @ vecs.conj().T


def funcm_sin(b):
    vals, vecs = np.linalg.eigh(b)
    return (vecs * np.sin(np.pi * vals)) @ vecs.conj().T


def test_homotopy_t0_zero_lift():
    b = scalar_field({(0, 0, 0): 0.0}, ambient=3)
    a0 = kmaps.homotopy_at(b, 0.0, [0.2, 0.1, 0.0])
    assert np.allclose(a0, [[-1.0]], atol=1e-15)
    assert np.linalg.svd(a0, compute_uv=False)[-1] == pytest.approx(1.0)


def test_homotopy_scan_stays_invertible():
    report = kmaps.homotopy_scan(d=2, samples=500, seed=0)
    assert report["pass"]
    assert report["min_singular_value"] > 1e-3
    assert report["max_residual"] == 0.0


# -- identity suites -------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 3])
def test_index_identity(d):
    report = kmaps.verify_index_identity(d, samples=1000, seed=0)
    assert report["pass"]
    assert report["max_residual"] < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_index_identity_residual_is_the_identity_alone(d, seed):
    # The suite compares at chart(y) for ball points y, with no chart round trip.
    report = kmaps.verify_index_identity(d, seed=seed)
    assert report["samples"] == 1000
    assert report["max_residual"] <= 1e-14


def test_index_identity_d5_smoke():
    report = kmaps.verify_index_identity(5, samples=200, seed=0)
    assert report["pass"]


def test_index_identity_rejects_even():
    with pytest.raises(ValueError):
        kmaps.verify_index_identity(2)


@pytest.mark.parametrize("d,tol", [(2, 1e-12), (4, 1e-11)])
def test_exp_identity(d, tol):
    report = kmaps.verify_exp_identity(d, samples=1000, seed=0)
    assert report["pass"]
    assert report["max_residual"] < tol


def test_exp_identity_zero_point():
    # Both sides equal -i at the ball center.
    rep = clifford.build_rep(3, clifford.LEFT)
    image = kmaps.exp_map(generators.weyl_field(2, rep, domain=DISC), "forward")
    dirac = generators.dirac_phase_field(3, rep)
    lhs = image.evaluate(np.zeros(3))
    rhs = dirac.evaluate([0.0, 0.0, 0.0, -1.0])
    assert np.allclose(lhs, -1j * np.eye(2), atol=1e-15)
    assert np.allclose(rhs, -1j * np.eye(2), atol=1e-15)


# -- K-group table ----------------------------------------------------------------


@pytest.mark.parametrize(
    "d,k0,k1,red",
    [
        (1, "0", "Z", "0"),
        (2, "Z+Z", "0", "Z"),
        (3, "0", "Z", "0"),
        (4, "Z+Z", "0", "Z"),
    ],
)
def test_kgroup_table(d, k0, k1, red):
    table = kmaps.kgroup_table(d)
    assert (table.k0, table.k1, table.reduced_k0) == (k0, k1, red)


def test_kgroup_table_rejects_bad_d():
    with pytest.raises(ValueError):
        kmaps.kgroup_table(0)
