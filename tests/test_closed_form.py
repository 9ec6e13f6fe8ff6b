"""Closed-form spectra of Clifford-linear fields against the general path.

A field whose traceless part squares to a multiple of I (``scalar_square``)
has its gaps and Berry curvature from two traces per node; one whose Gram
matrix U*U is a multiple of I (``scalar_gram``) is inverted as U* / q.  The
general path (``eigvalsh``, ``eigh``, ``inv``) is the reference: the same
field with its cached flag overridden to False on every sector takes it.
"""

import contextlib
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import bandscan, clifford, generators
from kgen.charge import chern_2, chern_sign_weyl, winding_1, winding_3
from kgen.errors import GapClosedError
from kgen.fields import SPHERE, MatrixPolyField

GAMMA_SETS = {
    "pauli": (clifford.SIGMA_1, clifford.SIGMA_2, clifford.SIGMA_3),
    "rep3": clifford.build_rep(3, clifford.LEFT).gammas,
    "rep5": clifford.build_rep(5, clifford.LEFT).gammas[:3],
}


def monomials(m):
    """Multi-indices of degree <= 2 in m variables."""
    return [a for a in itertools.product(range(3), repeat=m) if sum(a) <= 2]


def clifford_field(rng, gammas, m, scale, phase=False):
    """sum_j f_j(x) Gamma_j + f0(x) I, conjugated by a random unitary.

    Each of f_1, ..., f_k, f0 is x_j, for its place j among the m variables
    (none for f0 when j = m), plus a random polynomial of degree <= 2 whose
    coefficients sum to ``scale`` in modulus.  With ``phase`` the identity
    term is i f0, so the field is a Dirac phase with a scalar Gram matrix;
    otherwise it is Hermitian.
    """
    n = gammas[0].shape[0]
    alphas = monomials(m)
    mats = list(gammas[: min(len(gammas), m)])
    terms = {}
    for j, g in enumerate(mats + [(1j if phase else 1.0) * np.eye(n)]):
        coeffs = rng.standard_normal(len(alphas))
        poly = dict(zip(alphas, coeffs * scale / np.sum(np.abs(coeffs))))
        if j < m:
            poly[tuple(int(k == j) for k in range(m))] += 1.0
        for a, c in poly.items():
            terms[a] = terms.get(a, 0) + c * g
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return MatrixPolyField(m, n, terms, SPHERE, selfadjoint=not phase).conjugated_by(q)


def general(field, flag):
    """The same field with its cached ``flag`` forced to False on every sector."""
    copy = dataclasses.replace(field)
    for sector in copy.sectors:
        sector.__dict__[flag] = False
    return copy


@contextlib.contextmanager
def spying(*names):
    """Calls to the named ``numpy.linalg`` functions made inside the block."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            real = getattr(np.linalg, name)
            mp.setattr(
                np.linalg, name, lambda *a, _n=name, _r=real, **k: calls.append(_n) or _r(*a, **k)
            )
        yield calls


def dense_unitary(n):
    """The n x n Fourier matrix over sqrt(n): unitary, with no zero entry."""
    return np.fft.fft(np.eye(n)) / np.sqrt(n)


def missed_by(field, rel):
    """field + field', where field' scales the x1 coefficient by 1 + rel, mixed
    by a dense unitary into one sector: each summand keeps the Clifford
    property, their sum misses it by about rel."""
    x1 = tuple(int(k == 0) for k in range(field.ambient_dim))
    bumped = dataclasses.replace(
        field, terms={a: (1.0 + rel) * m if a == x1 else m for a, m in field.terms.items()}
    )
    return field.direct_sum(bumped).conjugated_by(dense_unitary(2 * field.size))


def outcome(fn, *args, **kwargs):
    """(raw_n, raw_2n) of a charge, or the error type it raised."""
    try:
        return fn(*args, **kwargs).convergence_pair
    except GapClosedError:
        return GapClosedError


def assert_same(closed, reference):
    if reference is GapClosedError or closed is GapClosedError:
        assert closed is reference
    else:
        assert np.max(np.abs(np.subtract(closed, reference))) <= 1e-12


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    gammas=st.sampled_from(sorted(GAMMA_SETS)),
    scale=st.sampled_from([0.3, 3.0]),
    doubled=st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(**cases)
def test_gaps_match_eigvalsh(seed, gammas, scale, doubled):
    rng = np.random.default_rng(seed)
    field = clifford_field(rng, GAMMA_SETS[gammas], 3, scale)
    if doubled:
        field = field.direct_sum(field)
    model = bandscan.BandModel.from_field(field, fermi=float(rng.uniform(-1.0, 1.0)))
    points = rng.uniform(-1.5, 1.5, (64, 3))
    assert model.field.scalar_square
    vals = np.linalg.eigvalsh(model.field.evaluate_batch(points))
    reference = np.min(np.abs(vals - model.fermi), axis=1)
    scale_at = np.max(np.abs(vals), axis=1) + abs(model.fermi)
    gaps = bandscan._gap_batch(model, points)
    assert np.all(np.abs(gaps - reference) <= 1e-12 * scale_at)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1e150, 1e160, 1e300])
def test_gaps_do_not_overflow_before_eigvalsh_does(r):
    # ||A||_F^2 overflows from entries of about 1e154 on; the gap need not.
    model = bandscan.BandModel.from_field(generators.weyl_field(2, clifford.LEFT))
    point = np.array([[r, r / 3, -r / 7]])
    reference = np.min(np.abs(np.linalg.eigvalsh(model.field.evaluate_batch(point))))
    assert abs(bandscan._gap_batch(model, point)[0] - reference) <= 1e-12 * reference


@settings(max_examples=25, deadline=None)
@given(**cases, fermi=st.floats(-0.5, 0.5))
def test_chern_raws_match_the_general_path(seed, gammas, scale, doubled, fermi):
    field = clifford_field(np.random.default_rng(seed), GAMMA_SETS[gammas], 3, scale)
    if doubled:
        field = field.direct_sum(field)
    assert field.scalar_square
    with spying("eigh") as calls:
        reference = outcome(chern_2, general(field, "scalar_square"), fermi, resolution=4)
    assert calls
    assert_same(outcome(chern_2, field, fermi, resolution=4), reference)


@settings(max_examples=25, deadline=None)
@given(**cases, dim=st.sampled_from([1, 3]))
def test_winding_raws_match_the_general_path(seed, gammas, scale, doubled, dim):
    field = clifford_field(np.random.default_rng(seed), GAMMA_SETS[gammas], dim + 1, scale, True)
    if doubled:
        field = field.direct_sum(field)
    assert field.scalar_gram
    winding = winding_1 if dim == 1 else winding_3
    with spying("inv") as calls:
        reference = outcome(winding, general(field, "scalar_gram"), resolution=4)
    assert calls
    assert_same(outcome(winding, field, resolution=4), reference)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gammas=st.sampled_from(sorted(GAMMA_SETS)))
def test_a_near_miss_takes_the_general_path(seed, gammas):
    rng = np.random.default_rng(seed)
    hermitian = missed_by(clifford_field(rng, GAMMA_SETS[gammas], 3, 0.3), 1e-9)
    phase = missed_by(clifford_field(rng, GAMMA_SETS[gammas], 2, 0.3, True), 1e-9)
    assert len(hermitian.sectors) == len(phase.sectors) == 1
    assert not hermitian.scalar_square
    assert not phase.scalar_gram
    model = bandscan.BandModel.from_field(hermitian)
    with spying("eigh", "eigvalsh", "inv") as calls:
        bandscan._gap_batch(model, rng.uniform(-1.0, 1.0, (8, 3)))
        outcome(chern_2, hermitian, resolution=4)
        outcome(winding_1, phase, resolution=4)
    assert {"eigh", "eigvalsh", "inv"} <= set(calls)


def test_a_false_scalar_square_verdict_is_split_away():
    # 1e7 x0 (s3 x I) + x1 (s1 x I) + x2 (s1 x s3) passes the coefficient test,
    # so as one field its gap at (0, 1, 1) / sqrt(2) read 1.0.  Its sectors
    # 1e7 x0 s3 + (x1 +- x2) s1 are 2 x 2, where the closed form is exact.
    s1, s3, i2 = clifford.SIGMA_1, clifford.SIGMA_3, np.eye(2)
    terms = {(1, 0, 0): 1e7 * np.kron(s3, i2), (0, 1, 0): np.kron(s1, i2),
             (0, 0, 1): np.kron(s1, s3)}
    model = bandscan.BandModel.from_field(MatrixPolyField(3, 4, terms))
    point = np.array([[0.0, 1.0, 1.0]]) / np.sqrt(2.0)
    assert model.field.scalar_square
    assert np.min(np.abs(np.linalg.eigvalsh(model.field.evaluate_batch(point)))) < 1e-15
    assert bandscan._gap_batch(model, point)[0] == 0.0


def scaled(field, factor):
    return dataclasses.replace(field, terms={a: factor * m for a, m in field.terms.items()})


def test_the_structure_survives_conjugation_reflection_and_equal_direct_sums():
    rng = np.random.default_rng(5)
    weyl = generators.weyl_field(2, clifford.LEFT)
    dirac = generators.dirac_phase_field(3, clifford.LEFT)
    for field, flag in ((weyl, "scalar_square"), (dirac, "scalar_gram")):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = np.linalg.qr(z)[0]
        for variant in (field, field.conjugated_by(w), field.reflect(0), field.direct_sum(field)):
            assert getattr(variant, flag)
    # Unequal squares, an odd size, a Gram matrix that is not scalar.
    assert not weyl.direct_sum(scaled(weyl, 2.0)).scalar_square
    assert not MatrixPolyField(3, 1, {(1, 0, 0): [[1.0]]}, selfadjoint=True).scalar_square
    assert not MatrixPolyField(2, 2, {(0, 0): np.diag([1.0, 0.0])}).scalar_gram


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e6])
def test_the_verdict_does_not_depend_on_the_scale(factor):
    weyl = generators.weyl_field(2, clifford.LEFT)
    assert scaled(weyl, factor).scalar_square
    assert not scaled(missed_by(weyl, 1e-9), factor).scalar_square


def offset(field, f0):
    """field + f0 I."""
    shift = {(0,) * field.ambient_dim: f0 * np.eye(field.size)}
    return field.plus(MatrixPolyField(field.ambient_dim, field.size, shift, SPHERE, True))


def test_a_large_term_does_not_loosen_the_verdict():
    # Squares |x|^2 and 16 |x|^2: their mismatch is 1.5e-13 of (1e7)^2, but a
    # scalar term leaves the spectrum's structure alone and must not hide it.
    weyl = generators.weyl_field(2, clifford.LEFT)
    assert not offset(weyl.direct_sum(scaled(weyl, 4.0)), 1e7).scalar_square
    assert offset(weyl.direct_sum(weyl), 1e7).scalar_square
    # i c x0 I pairs to zero with each Hermitian term; the Gram test holds the
    # others to their own sizes.
    blocks = []
    for v in (1.0, 4.0):
        terms = {(0,) + a: v * m for a, m in weyl.terms.items()}
        terms[(1, 0, 0, 0)] = 1e7j * np.eye(2)
        blocks.append(MatrixPolyField(4, 2, terms, SPHERE))
    assert not blocks[0].direct_sum(blocks[1]).scalar_gram
    assert blocks[0].direct_sum(blocks[0]).scalar_gram


def test_an_offset_crossing_pulled_back_takes_the_general_path():
    # At a crossing the pulled-back constant term is about 1000 I, while the
    # traceless terms shrink with the enclosure's radius.  Weyl fields with
    # velocities 1 and 3 are mixed into one sector, which has no scalar square,
    # by (H x H) / 2: the mixed coefficients are (2 I - X) x sigma', whose
    # entries are 0, +-1 or +-2 (times 1 or i), so the moved grid and the
    # pullback round alike and the raws agree to the bit.
    weyl = generators.weyl_field(2, clifford.LEFT)
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    mixed = weyl.direct_sum(scaled(weyl, 3.0)).conjugated_by(np.kron(h, h) / 2)
    field = offset(mixed, 1000.0)
    center, radius = np.zeros(3), 5e-4
    pulled = field.affine_pullback(center, radius)
    assert len(pulled.sectors) == 1 and not pulled.scalar_square
    result = chern_2(field, fermi=1000.0, center=center, radius=radius)
    assert result.charge == 2 * chern_sign_weyl()
    reference = chern_2(general(pulled, "scalar_square"), fermi=1000.0)
    assert result.convergence_pair == reference.convergence_pair


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e103, 1e160, 1e300])
def test_closed_form_charges_do_not_overflow(factor):
    # ||U||_F^2, s^3 and the triple trace overflow from entries of about
    # 1e103 or 1e154 on; each closed form divides before it multiplies.
    dirac1 = generators.dirac_phase_field(1, clifford.LEFT)
    dirac3 = generators.dirac_phase_field(3, clifford.LEFT)
    weyl = generators.weyl_field(2, clifford.LEFT)
    for charge, field in (
        (winding_1, dirac1.direct_sum(dirac1)),
        (winding_3, dirac3),
        (chern_2, weyl.direct_sum(weyl)),
    ):
        big = scaled(field, factor)
        assert big.scalar_square or big.scalar_gram
        assert_same(outcome(charge, big, resolution=8), outcome(charge, field, resolution=8))
    assert winding_1(scaled(dirac1.direct_sum(dirac1), factor)).charge == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("winding, d, resolution", [(winding_1, 1, None), (winding_3, 3, 8)])
def test_general_path_gate_does_not_overflow(winding, d, resolution):
    # The bound 1 / ||U^-1||_F squares the entries of U^-1: at scale 1e200 they
    # underflow (the bound is inf, and right), at 1e-200 they overflow (the
    # bound is 0, and the SVD refuses the field).  Neither may warn.
    dirac = generators.dirac_phase_field(d, clifford.LEFT)
    double = dirac.direct_sum(dirac)
    big, small = (general(scaled(double, f), "scalar_gram") for f in (1e200, 1e-200))
    assert winding(big, resolution=resolution).charge == 2
    with pytest.raises(GapClosedError, match="min singular value"):
        winding(small, resolution=resolution)


# -- gates on the closed-form path ---------------------------------------------


def weyl_shifted():
    """Weyl + 2 x3 I: bands +-1 + 2 x3 on the sphere."""
    shift = MatrixPolyField(3, 2, {(0, 0, 1): 2.0 * np.eye(2)}, SPHERE, selfadjoint=True)
    return generators.weyl_field(2, clifford.LEFT).plus(shift)


def test_gap_gates_run_on_the_closed_form_path():
    # The fields of the gate tests in test_charge.py take the closed form.
    closed = MatrixPolyField(3, 2, {(0, 0, 0): np.diag([1.0, -1.0])}, SPHERE, selfadjoint=True)
    assert closed.scalar_square and weyl_shifted().scalar_square
    with pytest.raises(GapClosedError, match=r"min \|eig - fermi\| = 0.0"):
        chern_2(closed, fermi=1.0)
    with pytest.raises(GapClosedError, match=r"number of bands below fermi varies .*\(1 to 2\)"):
        chern_2(weyl_shifted(), fermi=0.5, resolution=64)
    zero = MatrixPolyField(2, 2, {(0, 0): np.zeros((2, 2))}, SPHERE)
    assert zero.scalar_gram
    with pytest.raises(GapClosedError, match="min singular value 0.0"):
        winding_1(zero)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_coefficients_fail_the_tests_and_the_closed_form_gates():
    nan = MatrixPolyField(3, 2, {(0, 0, 0): np.nan * np.eye(2)}, SPHERE, selfadjoint=True)
    hermitian = generators.weyl_field(2, clifford.LEFT).plus(nan)
    phase = generators.dirac_phase_field(1, clifford.LEFT).plus(
        MatrixPolyField(2, 1, {(0, 0): [[np.nan]]}, SPHERE)
    )
    assert not hermitian.scalar_square and not phase.scalar_gram
    # Forced onto the closed form, each is refused before any division.
    hermitian.__dict__["scalar_square"] = True
    phase.__dict__["scalar_gram"] = True
    with pytest.raises(GapClosedError, match=r"min \|eig - fermi\| = nan"):
        chern_2(hermitian, resolution=8)
    with pytest.raises(GapClosedError, match="min singular value nan"):
        winding_1(phase, resolution=8)
    model = bandscan.BandModel.from_field(generators.weyl_field(2, clifford.LEFT))
    assert model.field.scalar_square
    with pytest.raises(ValueError, match="gap is not finite"):
        bandscan._gap_batch(model, np.array([[np.nan, 0.0, 0.0]]))
