"""Charts, connecting maps, deformation scan, and the identity suites."""

import tracemalloc

import re

import numpy as np
import pytest

from kgen import clifford, generators, kmaps
from kgen._linalg import CHUNK, func_of_hermitian
from kgen.errors import DomainError, LiftInvalidError, PoleError
from kgen.fields import EvaluableField, MatrixPolyField
from kgen.sampling import ball_points


def scalar_field(terms, ambient=2):
    return MatrixPolyField(ambient, 1, {a: np.array([[c]]) for a, c in terms.items()})


def disc_dirac_lift(d):
    rep = clifford.build_rep(d, clifford.LEFT)
    return generators.dirac_phase_field(d, rep)


def disc_weyl_lift(d):
    rep = clifford.build_rep(d + 1, clifford.LEFT)
    return generators.weyl_field(d, rep)


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


@pytest.mark.parametrize("scale, named", [(1j, "not self-adjoint"), (1.5, "not a contraction")])
def test_lift_check_blocks_keep_the_message_of_one_batch(monkeypatch, scale, named):
    # At 64 x 64 the lift points go four to a block; the worst residual or
    # norm, and so the message, is the one of a single batch of all of them.
    lift = disc_weyl_lift(12)
    bad = EvaluableField(lift.ambient_dim, lift.size, lambda p: scale * lift.evaluate_batch(p))
    messages = []
    for chunk in (CHUNK, 10**9):
        monkeypatch.setattr(kmaps, "CHUNK", chunk)
        with pytest.raises(LiftInvalidError, match=named) as excinfo:
            kmaps.exp_map(bad)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_exp_identity_memory_is_bounded_at_the_largest_level():
    # The lift check walks the same blocks as the suite; in one batch its
    # 180 points of 64 x 64 took the peak to 36 MiB.
    kmaps.verify_exp_identity(12, samples=1)  # builds and caches the representations
    tracemalloc.start()
    try:
        assert kmaps.verify_exp_identity(12, samples=250)["pass"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


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


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("d", [0, 2, 4])
def test_homotopy_scan_minimum_matches_a_per_point_loop(d, seed):
    samples = 150
    lift = disc_weyl_lift(d)
    points = ball_points(d + 1, samples, np.random.default_rng(seed))
    expected = min(
        np.linalg.svd(kmaps.homotopy_at(lift, float(t), y), compute_uv=False)[-1]
        for t in np.linspace(0.0, 1.0, kmaps.HOMOTOPY_T_POINTS)
        for y in points
    )
    report = kmaps.homotopy_scan(d, samples=samples, seed=seed)
    assert report["min_singular_value"].hex() == float(expected).hex()


def clip_power_homotopy(b, t):
    """A_t by np.clip and **, term for term as homotopy_at wrote it before."""

    def f(vals):
        vals = np.clip(vals, -1.0, 1.0)
        real = -t * np.cos(np.pi * vals) + (1.0 - t * t) * (2.0 * vals**2 - 1.0)
        imag = t * np.sin(np.pi * vals) + (1.0 - t * t) * vals * np.sqrt(1.0 - vals**2)
        return real + 1j * imag

    return func_of_hermitian(b, f)


@pytest.mark.parametrize("seed", range(4))
def test_homotopy_at_keeps_the_bits_of_the_clip_and_power_formula(seed):
    # Random Hermitian contractions of the sizes the homotopy levels reach,
    # with eigenvalues at +-1 and one rounding beyond, where the clip acts
    # (at n = 1, one of the two).
    edges = np.array([1.0, -1.0 - 2.0**-52])
    for n in (1, 2, 4, 64):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        vals = np.concatenate([edges, rng.uniform(-1.0, 1.0, n - 2)]) if n > 1 else edges[seed % 2:][:1]
        b = (q * vals) @ q.conj().T
        b = 0.5 * (b + b.conj().T)
        lift = MatrixPolyField(3, n, {(0, 0, 0): b})
        y = rng.uniform(-0.5, 0.5, 3)
        for t in np.linspace(0.0, 1.0, 11):
            got = kmaps.homotopy_at(lift, float(t), y)
            assert got.tobytes() == clip_power_homotopy(lift.evaluate(y), float(t)).tobytes(), n


def test_homotopy_at_never_serves_a_stale_spectrum():
    # homotopy_at keeps the last eigendecomposition it made.  Whatever field
    # and point came before, each call must give the bits of a fresh one.
    rep = clifford.build_rep(3, clifford.LEFT)
    lift, twin = generators.weyl_field(2, rep), generators.weyl_field(2, rep)
    flipped = generators.weyl_field(2, clifford.flip_first(rep))
    # The lift's values at y and nudged differ, and so do their spectra; its
    # values at zero and negative_zero do not, so a field that reads the sign
    # of zero stands in for one whose spectra would.
    signed = EvaluableField(3, 1, lambda p: np.copysign(0.5, p[:, 2])[:, None, None])
    y = np.array([0.1, -0.2, 0.6])
    nudged = np.array([0.1, -0.2, np.nextafter(0.6, 1.0)])
    zero, negative_zero = np.array([0.3, -0.2, 0.0]), np.array([0.3, -0.2, -0.0])
    calls = [(lift, y), (twin, y), (lift, y), (flipped, y), (lift, y), (lift, nudged), (lift, y),
             (lift, zero), (lift, negative_zero), (lift, zero),
             (signed, zero), (signed, negative_zero), (signed, zero)]

    def check(field, point, t):
        got = kmaps.homotopy_at(field, t, point)
        assert got.tobytes() == clip_power_homotopy(field.evaluate(point), t).tobytes()

    for t in np.linspace(0.0, 1.0, kmaps.HOMOTOPY_T_POINTS).tolist():
        for field, point in calls:
            check(field, point, t)
        # Each field is dropped before the next is made, so they may share an id.
        for c in (0.1, 0.2, 0.3):
            check(MatrixPolyField(3, 1, {(0, 0, 0): np.array([[c]])}), y, t)


@pytest.mark.parametrize("d", kmaps._LEVELS["homotopy"])
def test_homotopy_at_matches_the_closed_form_on_the_weyl_lift(d):
    # The Weyl lift has B(y)^2 = r^2 I with r = ||y||, so with no
    # eigendecomposition A_t = alpha I + i beta B, where
    # alpha = -t cos(pi r) + (1 - t^2)(2 r^2 - 1) and
    # beta = t sin(pi r) / r + (1 - t^2) sqrt(1 - r^2).
    lift = disc_weyl_lift(d)
    eye = np.eye(lift.size)
    for y in ball_points(d + 1, 4, np.random.default_rng(d)):
        r = float(np.linalg.norm(y))
        assert r > 0.0
        b = lift.evaluate(y)
        for t in np.linspace(0.0, 1.0, kmaps.HOMOTOPY_T_POINTS).tolist():
            alpha = -t * np.cos(np.pi * r) + (1.0 - t * t) * (2.0 * r * r - 1.0)
            beta = t * np.sin(np.pi * r) / r + (1.0 - t * t) * np.sqrt(1.0 - r * r)
            got = kmaps.homotopy_at(lift, t, y)
            assert np.max(np.abs(got - (alpha * eye + 1j * beta * b))) <= 1e-13, (t, r)


@pytest.mark.parametrize(
    "t, y, named",
    [
        (np.nan, [0.1, 0.2, 0.3], "finite t, got nan"),
        (-np.inf, [0.1, 0.2, 0.3], "finite t, got -inf"),
        (0.5, [0.1, np.nan, 0.3], "finite y, got [0.1, nan, 0.3]"),
        (0.5, [np.inf, 0.2, 0.3], "finite y, got [inf, 0.2, 0.3]"),
    ],
)
def test_homotopy_at_refuses_a_non_finite_t_or_y(t, y, named):
    # Evaluated, either one gives an all-NaN matrix.
    with pytest.raises(DomainError) as excinfo:
        kmaps.homotopy_at(disc_weyl_lift(2), t, y)
    assert named in str(excinfo.value)


def spy_svd(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_homotopy_scan_takes_one_svd_call_per_t(monkeypatch):
    shapes = spy_svd(monkeypatch)
    assert kmaps.homotopy_scan(2, samples=500, seed=0)["pass"]
    assert shapes == [(500, 2, 2)] * kmaps.HOMOTOPY_T_POINTS


def test_homotopy_scan_bounds_the_entries_of_each_svd_call(monkeypatch):
    shapes = spy_svd(monkeypatch)
    assert kmaps.homotopy_scan(12, samples=9, seed=0)["pass"]
    assert len(shapes) == 3 * kmaps.HOMOTOPY_T_POINTS
    assert sum(s[0] for s in shapes) == 9 * kmaps.HOMOTOPY_T_POINTS
    assert max(np.prod(s) for s in shapes) <= 4 * CHUNK


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_suites_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    suites = (lambda s: kmaps.verify_index_identity(1, samples=2, seed=s),
              lambda s: kmaps.verify_exp_identity(2, samples=2, seed=s),
              lambda s: kmaps.homotopy_scan(2, samples=2, seed=s),
              lambda s: generators.verify_fredholm(samples=2, seed=s))
    for suite in suites:
        with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got {seed!r}")):
            suite(seed)
        assert suite(np.int64(3)) == suite(3)


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


@pytest.mark.parametrize(
    "verify, d",
    [(kmaps.verify_index_identity, d) for d in (7, 9, 11)]
    + [(kmaps.verify_exp_identity, d) for d in (6, 8, 10, 12)],
)
def test_identities_hold_at_every_level_up_to_max_d(verify, d):
    report = verify(d, samples=50, seed=0)
    assert report["pass"]
    assert report["max_residual"] <= 1e-13


@pytest.mark.parametrize(
    "verify, d, samples",
    [
        (kmaps.verify_index_identity, 5, 1000),
        (kmaps.verify_index_identity, clifford.MAX_D - 2, 200),
        (kmaps.verify_exp_identity, 10, 200),
        (kmaps.verify_exp_identity, clifford.MAX_D - 1, 200),
    ],
)
def test_identity_blocks_keep_the_bits_of_one_batch(monkeypatch, verify, d, samples):
    # Index d = 5 takes 256 points per block, exp d = 10 takes 16 and the
    # 64 x 64 levels take 4; one block of all points must give the same bits.
    blocked = verify(d, samples=samples, seed=3)
    monkeypatch.setattr(kmaps, "CHUNK", 10**9)
    assert verify(d, samples=samples, seed=3)["max_residual"].hex() == blocked["max_residual"].hex()


@pytest.mark.parametrize("d,tol", [(2, 1e-12), (4, 1e-11)])
def test_exp_identity(d, tol):
    report = kmaps.verify_exp_identity(d, samples=1000, seed=0)
    assert report["pass"]
    assert report["max_residual"] < tol


def test_exp_identity_zero_point():
    # Both sides equal -i at the ball center.
    rep = clifford.build_rep(3, clifford.LEFT)
    image = kmaps.exp_map(generators.weyl_field(2, rep), "forward")
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
