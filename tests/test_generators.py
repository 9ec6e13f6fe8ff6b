"""Generator fields: Weyl, Dirac phase, chiral form, bounded transform."""

import numpy as np
import pytest

from kgen import charge, clifford, generators
from kgen.errors import DimensionMismatchError, NotChiralError
from kgen.fields import MatrixPolyField, unit_index
from kgen.sampling import sphere_points

SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_weyl_field_at_third_axis():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    assert np.array_equal(field.evaluate([0.0, 0.0, 1.0]), SIGMA_3)


def test_weyl_field_matrix_form_and_spectrum():
    # The right-handed rep is the plain Pauli triple, giving the familiar
    # [[x3, x1 + i x2], [x1 - i x2, -x3]] matrix; eigenvalues are +-||x||.
    rep = clifford.build_rep(3, clifford.RIGHT)
    field = generators.weyl_field(2, rep)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(3)
        h = field.evaluate(x)
        expected = np.array(
            [[x[2], x[0] + 1j * x[1]], [x[0] - 1j * x[1], -x[2]]]
        )
        assert np.allclose(h, expected, atol=1e-15)
        r = np.linalg.norm(x)
        assert np.allclose(np.linalg.eigvalsh(h), [-r, r], atol=1e-13)


def test_weyl_field_unitary_on_sphere():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    rng = np.random.default_rng(1)
    pts = sphere_points(3, 1000, rng)
    vals = field.evaluate_batch(pts)
    residual = np.max(np.abs(vals @ vals - np.eye(2)))
    assert residual < 1e-14


def test_weyl_square_identity_large_sample():
    rep = clifford.build_rep(5, clifford.LEFT)
    field = generators.weyl_field(4, rep)
    rng = np.random.default_rng(2)
    pts = sphere_points(5, 10_000, rng)
    vals = field.evaluate_batch(pts)
    residual = np.max(np.abs(vals @ vals - np.eye(4)))
    assert residual < 1e-13


def test_weyl_parity_guard():
    # An odd d is refused whether a representation or a handedness is given.
    for rep in (clifford.build_rep(4), clifford.LEFT):
        with pytest.raises(DimensionMismatchError, match="Weyl field requires even d, got 3"):
            generators.weyl_field(3, rep)
    # The sum x_j Gamma_j over d + 1 = 4 generators is the chiral Dirac Hamiltonian.
    field, _ = generators.dirac_hamiltonian_field(3, clifford.LEFT)
    gammas = clifford.build_rep(4, clifford.LEFT).gammas
    assert field.ambient_dim == 4
    assert set(field.terms) == {unit_index(j, 4) for j in range(4)}
    for j, gamma in enumerate(gammas):
        assert np.array_equal(field.terms[unit_index(j, 4)], gamma)


def test_weyl_rep_size_guard():
    rep = clifford.build_rep(3, clifford.LEFT)
    with pytest.raises(DimensionMismatchError):
        generators.weyl_field(4, rep)


def test_dirac_phase_scalar_case():
    rep = clifford.build_rep(1, clifford.LEFT)
    field = generators.dirac_phase_field(1, rep)
    value = field.evaluate([0.6, 0.8])
    assert np.allclose(value, [[0.6 + 0.8j]], atol=1e-15)


def test_dirac_phase_north_pole():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.dirac_phase_field(3, rep)
    assert np.array_equal(field.evaluate([0, 0, 0, 1.0]), 1j * np.eye(2))


def test_dirac_phase_unitary_on_sphere():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.dirac_phase_field(3, rep)
    rng = np.random.default_rng(3)
    pts = sphere_points(4, 1000, rng)
    vals = field.evaluate_batch(pts)
    herm = vals.conj().transpose(0, 2, 1)
    assert np.max(np.abs(herm @ vals - np.eye(2))) < 1e-14
    assert np.max(np.abs(vals @ herm - np.eye(2))) < 1e-14


def test_dirac_hamiltonian_chiral_structure_d1():
    rep = clifford.build_rep(2)
    field, grading = generators.dirac_hamiltonian_field(1, rep)
    assert np.array_equal(grading.matrix, SIGMA_3)
    block = generators.chiral_lower_block(field, grading.matrix)
    assert block.size == 1
    # Lower-left block of [[0, x1 + i x2], [x1 - i x2, 0]].
    assert np.allclose(block.evaluate([0.3, 0.4]), [[0.3 - 0.4j]], atol=1e-15)
    assert np.allclose(block.evaluate([1.0, 0.0]), [[1.0]], atol=1e-15)
    # Unit modulus on the circle and winding of magnitude one.
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.max(np.abs(np.abs(block.evaluate_batch(pts)) - 1.0)) < 1e-14
    result = charge.winding_1(block)
    assert abs(result.charge) == 1
    # Its adjoint partner sits in the upper-right block, with opposite winding.
    phase = generators.dirac_phase_field(1, clifford.build_rep(1, clifford.LEFT))
    assert charge.winding_1(phase).charge == -result.charge


def test_dirac_hamiltonian_coefficient_anticommutation_exact():
    rep = clifford.build_rep(4)
    field, grading = generators.dirac_hamiltonian_field(3, rep)
    for mat in field.terms.values():
        anti = grading.matrix @ mat + mat @ grading.matrix
        assert np.array_equal(anti, np.zeros_like(anti))


def test_dirac_hamiltonian_block_unitary_on_sphere():
    rep = clifford.build_rep(4)
    field, grading = generators.dirac_hamiltonian_field(3, rep)
    block = generators.chiral_lower_block(field, grading.matrix)
    assert block.size == 2
    rng = np.random.default_rng(4)
    pts = sphere_points(4, 500, rng)
    vals = block.evaluate_batch(pts)
    herm = vals.conj().transpose(0, 2, 1)
    assert np.max(np.abs(herm @ vals - np.eye(2))) < 1e-13


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11])
def test_chiral_block_of_a_diagonal_grading_is_the_lower_left_slice(d):
    # The product grading is exactly diag(1, .., 1, -1, .., -1); the eigenbasis
    # rotation then moves no bit of any coefficient's lower-left block.
    field, grading = generators.dirac_hamiltonian_field(d, clifford.build_rep(d + 1))
    half = field.size // 2
    block = generators.chiral_lower_block(field, grading.matrix)
    for alpha, mat in field.terms.items():
        assert np.array_equal(block.terms[alpha], mat[half:, :half]), alpha


def test_chiral_block_rejects_commuting_perturbation():
    rep = clifford.build_rep(2)
    field, grading = generators.dirac_hamiltonian_field(1, rep)
    mass = MatrixPolyField(2, 2, {(0, 0): 0.1 * SIGMA_3})
    perturbed = field.plus(mass)
    with pytest.raises(NotChiralError):
        generators.chiral_lower_block(perturbed, grading.matrix)


@pytest.mark.parametrize(
    "size, j, error, message",
    [
        (2, np.eye(3), DimensionMismatchError, r"chiral matrix has shape \(3, 3\), expected"),
        (3, np.diag([1.0, 1.0, -1.0]), NotChiralError, "eigenspaces have sizes 2 and 1"),
        (3, np.diag([1.0, 0.0, -1.0]), NotChiralError, r"eigenvalues \[-1.0, 0.0, 1.0\]"),
        (2, np.zeros((2, 2)), NotChiralError, r"eigenvalues \[0.0, 0.0\], not all \+-1"),
        (2, np.full((2, 2), np.nan), NotChiralError, "chiral matrix is not finite"),
        (2, np.array([[1.0, 1.0], [0.0, -1.0]]), NotChiralError, "not Hermitian"),
    ],
    ids=["wrong-size", "unequal-eigenspaces", "kernel", "zero", "nan", "not-hermitian"],
)
def test_chiral_block_refuses_a_grading_without_a_square_block(size, j, error, message):
    # [[0, 0, 1], [0, 0, 0], [1, 0, 0]] anti-commutes with diag(1, 1, -1) and
    # with diag(1, 0, -1), whose kernel a 1 x 1 block would drop; [[0, 1],
    # [1, 0]] anti-commutes with 0.
    mat = np.zeros((size, size))
    mat[0, -1] = mat[-1, 0] = 1.0
    field = MatrixPolyField(2, size, {(1, 0): mat})
    with pytest.raises(error, match=message):
        generators.chiral_lower_block(field, j)


def test_bounded_transform_point_values():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    transform = generators.bounded_transform(field)
    f = transform.evaluate([3.0, 4.0, 0.0])
    # ||x|| = 5, so eigenvalues are +-5 / sqrt(26).
    assert np.allclose(np.linalg.eigvalsh(f), [-5 / np.sqrt(26), 5 / np.sqrt(26)], atol=1e-13)
    assert np.array_equal(transform.evaluate([0.0, 0.0, 0.0]), np.zeros((2, 2)))


def test_bounded_transform_closed_form():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    transform = generators.bounded_transform(field)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = 4.0 * rng.standard_normal(3)
        expected = field.evaluate(x) / np.sqrt(1.0 + np.dot(x, x))
        assert np.allclose(transform.evaluate(x), expected, atol=1e-12)


def test_bounded_transform_defect_identity():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    transform = generators.bounded_transform(field)
    x = np.array([10.0, 0.0, 0.0]) / np.sqrt(1.0)
    x = x * (10.0 / np.linalg.norm(x))
    f = transform.evaluate(x)
    defect = np.linalg.norm(np.eye(2) - f.conj().T @ f, 2)
    assert abs(defect - 1.0 / 101.0) < 1e-12


def test_compact_resolvent_profile_values():
    rep = clifford.build_rep(3, clifford.LEFT)
    field = generators.weyl_field(2, rep)
    profile = generators.compact_resolvent_profile(field, [0.0, 1.0, 7.0])
    expected = {0.0: 1.0, 1.0: 0.5, 7.0: 1.0 / 50.0}
    for r, value in profile:
        assert abs(value - expected[r]) < 1e-12
    values = [v for _, v in profile]
    assert values == sorted(values, reverse=True)


def test_compact_resolvent_profile_refuses_a_negative_radius():
    field = generators.weyl_field(2, clifford.build_rep(3, clifford.LEFT))
    with pytest.raises(ValueError, match="radii must be nonnegative, got -1.0"):
        generators.compact_resolvent_profile(field, [0.0, -1.0])


def test_compact_resolvent_profile_scalar_dirac():
    rep = clifford.build_rep(1, clifford.LEFT)
    field = generators.dirac_phase_field(1, rep)
    profile = generators.compact_resolvent_profile(field, [0.0, 1.0, 7.0])
    for r, value in profile:
        assert abs(value - 1.0 / (1.0 + r * r)) < 1e-12


def test_verify_fredholm_suite_passes():
    report = generators.verify_fredholm(samples=40, seed=0)
    assert report["pass"]
    assert report["max_residual"] < 1e-12
