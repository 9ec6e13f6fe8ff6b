"""Closed-form spectra and windings against the general path.

A 1 x 1 or 2 x 2 Hermitian sector h = f0 I + a . sigma has the bands f0 +- s,
s = |a| (0 on 1 x 1), so its gaps and Berry curvature come from its Pauli
coordinates (``_linalg.pauli_split``).  A 1 x 1 or 2 x 2 winding sector is
gated from V = U / s, whose |det V| gives its smallest singular value, and
its integrands on S^1 and S^3 are ratios of determinants of V and dU / s.
Both are exact at those sizes, so every such sector takes them, and larger
ones take ``eigvalsh``, ``eigh`` and ``inv``.  The references are
``eigvalsh``, ``inv`` and the SVD, and the projector-form
``reference_chern_raw`` and ``inv``-based winding kernels of test_charge.py.
"""

import contextlib
import dataclasses
import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen import _linalg, bandscan, charge, clifford, generators
from kgen.charge import chern_2, chern_sign_weyl, sphere_grid, winding_1, winding_3
from kgen.cli import main
from kgen.errors import GapClosedError, ModelFormatError, ModelOverflowError
from kgen.fields import SPHERE, MatrixPolyField

# The oracles of test_charge.py, loaded by path: test modules are not a package.
_spec = importlib.util.spec_from_file_location(
    "charge_oracles", Path(__file__).resolve().with_name("test_charge.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

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
    return MatrixPolyField(m, n, terms, SPHERE).conjugated_by(q)


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


def two_band(rng, scale):
    """x . sigma mixed by a random unitary, plus a random 2 x 2 Hermitian
    polynomial of degree <= 2 with sup norm <= ``scale`` on the unit sphere:
    its coefficients carry no Clifford structure."""
    bump = {}
    for a in monomials(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bump[a] = z + z.conj().T
    bound = sum(np.linalg.norm(m, 2) for m in bump.values())
    bump = MatrixPolyField(3, 2, {a: scale * m / bound for a, m in bump.items()}, SPHERE)
    weyl = generators.weyl_field(2, clifford.LEFT)
    return weyl.conjugated_by(oracles.random_unitary(rng, 2)).plus(bump)


def reference_outcome(field, fermi, grid):
    """``reference_chern_raw``, or GapClosedError where ``eigvalsh`` puts an
    eigenvalue of a sector within GAP_MIN of fermi or the count below it of
    one sector varies over the grid."""
    for sector in field.sectors:
        vals = np.linalg.eigvalsh(sector.evaluate_batch(grid.nodes))
        counts = np.count_nonzero(vals < fermi, axis=1)
        if np.min(np.abs(vals - fermi)) <= charge.GAP_MIN or np.ptp(counts):
            return GapClosedError
    return oracles.reference_chern_raw(field, fermi, grid)


def raw_outcome(field, fermi, grid):
    try:
        return charge._chern_raw(field.shifted(fermi), grid)
    except GapClosedError:
        return GapClosedError


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.3, 3.0, 10.0]),
    fermi=st.floats(-0.5, 0.5),
    n=st.sampled_from([4, 5, 7]),
)
def test_two_band_polynomials_match_the_references(seed, scale, fermi, n):
    rng = np.random.default_rng(seed)
    field = two_band(rng, scale)
    model = bandscan.BandModel.from_field(field, fermi=fermi)
    points = rng.uniform(-1.5, 1.5, (64, 3))
    vals = np.linalg.eigvalsh(field.evaluate_batch(points))
    reference = np.min(np.abs(vals - fermi), axis=1)
    scale_at = np.max(np.abs(vals), axis=1) + abs(fermi)
    grid, rows = sphere_grid(2, n), charge._grid_rows(2, n)
    with spying("eigh", "eigvalsh") as calls:
        gaps = bandscan._gap_batch(model, points)
        raw = raw_outcome(field, fermi, rows)
    assert calls == []
    assert np.all(np.abs(gaps - reference) <= 1e-12 * scale_at)
    assert_same(raw, reference_outcome(field, fermi, grid))


@settings(max_examples=25, deadline=None)
@given(**cases, fermi=st.floats(-0.5, 0.5))
def test_chern_raws_match_the_general_path(seed, gammas, scale, doubled, fermi):
    field = clifford_field(np.random.default_rng(seed), GAMMA_SETS[gammas], 3, scale)
    if doubled:
        field = field.direct_sum(field)
    reference = tuple(reference_outcome(field, fermi, sphere_grid(2, n)) for n in (4, 8))
    if GapClosedError in reference:
        reference = GapClosedError
    assert_same(outcome(chern_2, field, fermi, resolution=4), reference)


def reference_winding_outcome(field, grid):
    """The ``inv``-based reference raw of test_charge.py, or GapClosedError
    where the SVD puts a singular value at or below GAP_MIN."""
    if np.linalg.svd(field.evaluate_batch(grid.nodes), compute_uv=False).min() <= charge.GAP_MIN:
        return GapClosedError
    if grid.dim == 1:
        return oracles.reference_winding1_raw(field, grid)
    return oracles.reference_winding3_raw(field, grid)


def winding_reference(field, dim):
    """(raw_n, raw_2n) of :func:`reference_winding_outcome` at resolution 4,
    or GapClosedError."""
    reference = tuple(reference_winding_outcome(field, sphere_grid(dim, n)) for n in (4, 8))
    return GapClosedError if GapClosedError in reference else reference


@settings(max_examples=25, deadline=None)
@given(**cases, dim=st.sampled_from([1, 3]))
def test_winding_raws_match_the_general_path(seed, gammas, scale, doubled, dim):
    # Sectors of the Pauli and rep3 fields are 2 x 2 and take the closed form;
    # those of rep5 are 4 x 4 and take inv.
    field = clifford_field(np.random.default_rng(seed), GAMMA_SETS[gammas], dim + 1, scale, True)
    if doubled:
        field = field.direct_sum(field)
    winding = winding_1 if dim == 1 else winding_3
    with spying("inv") as calls:
        closed = outcome(winding, field, resolution=4)
    assert bool(calls) == (gammas == "rep5")
    assert_same(closed, winding_reference(field, dim))


def small_phase(rng, base, size, scale):
    """``base``, padded by I to ``size`` and mixed by a random unitary, plus a
    random complex polynomial of degree <= 2 with sup norm <= ``scale`` on the
    unit sphere: no Clifford structure, and sigma_min >= 1 - scale there."""
    m = base.ambient_dim
    if size > base.size:
        pad = np.eye(size - base.size)
        base = base.direct_sum(MatrixPolyField(m, size - base.size, {(0,) * m: pad}, SPHERE))
    bump = {a: rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            for a in monomials(m)}
    bound = sum(np.linalg.norm(b, 2) for b in bump.values())
    bump = MatrixPolyField(m, size, {a: scale * b / bound for a, b in bump.items()}, SPHERE)
    return base.conjugated_by(oracles.random_unitary(rng, size)).plus(bump)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim_size=st.sampled_from([(1, 1), (1, 2), (3, 2)]),
    scale=st.sampled_from([0.3, 0.9]),
    n=st.sampled_from([4, 5, 7]),
)
def test_small_phases_match_inv_the_svd_and_the_reference_kernels(seed, dim_size, scale, n):
    dim, size = dim_size
    rng = np.random.default_rng(seed)
    field = small_phase(rng, generators.dirac_phase_field(dim, clifford.LEFT), size, scale)
    assert [s.size for s in field.sectors] == [size]
    grid = sphere_grid(dim, n)
    u = field.evaluate_batch(grid.nodes)
    with spying("inv", "svd") as calls:
        raw = charge._winding_raw(field, charge._grid_rows(dim, n))
    assert calls == []
    assert abs(raw - reference_winding_outcome(field, grid)) <= 1e-12
    # The gate sigma_min > GAP_MIN clears each node scaled to a sigma_min of
    # GAP_MIN (1 + 1e-12) and refuses it at GAP_MIN (1 - 1e-12).
    sv_min = np.linalg.svd(u, compute_uv=False)[:, -1]
    v = np.empty((size * size, 1), dtype=complex)
    for node, sv in zip(u, sv_min):
        charge._closed_gate(node[None] * (charge.GAP_MIN * (1 + 1e-12) / sv), v)
        with pytest.raises(GapClosedError, match="min singular value"):
            charge._closed_gate(node[None] * (charge.GAP_MIN * (1 - 1e-12) / sv), v)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gammas=st.sampled_from(sorted(GAMMA_SETS)))
def test_a_near_miss_takes_the_general_path(seed, gammas):
    # Two Clifford fields whose sum misses the Clifford property by 1e-9, or
    # by 1e-13, within the coefficient tolerance of earlier versions, mixed
    # into one sector of at least 4 x 4.
    rng = np.random.default_rng(seed)
    for rel in (1e-9, 1e-13):
        hermitian = missed_by(clifford_field(rng, GAMMA_SETS[gammas], 3, 0.3), rel)
        phase = missed_by(clifford_field(rng, GAMMA_SETS[gammas], 2, 0.3, True), rel)
        assert len(hermitian.sectors) == len(phase.sectors) == 1
        assert min(hermitian.size, phase.size) >= 4
        model = bandscan.BandModel.from_field(hermitian)
        with spying("eigh", "eigvalsh", "inv") as calls:
            bandscan._gap_batch(model, rng.uniform(-1.0, 1.0, (8, 3)))
            outcome(chern_2, hermitian, resolution=4)
            winding = outcome(winding_1, phase, resolution=4)
        assert {"eigh", "eigvalsh", "inv"} <= set(calls)
        assert_same(winding, winding_reference(phase, 1))


def test_a_four_band_field_gets_the_eigvalsh_gap_split_or_mixed():
    # 1e7 x0 (s3 x I) + x1 (s1 x I) + x2 (s1 x s3) passed a coefficient test of
    # the Clifford structure within a tolerance, so as one field its gap at
    # (0, 1, 1) / sqrt(2) read 1.0.  Its sectors 1e7 x0 s3 + (x1 +- x2) s1 are
    # 2 x 2, where the closed form is exact; mixed by a dense unitary it is one
    # 4 x 4 sector, which goes to eigvalsh.
    s1, s3, i2 = clifford.SIGMA_1, clifford.SIGMA_3, np.eye(2)
    terms = {(1, 0, 0): 1e7 * np.kron(s3, i2), (0, 1, 0): np.kron(s1, i2),
             (0, 0, 1): np.kron(s1, s3)}
    split = MatrixPolyField(3, 4, terms, SPHERE)
    mixed = split.conjugated_by(dense_unitary(4))
    assert [len(f.sectors) for f in (split, mixed)] == [2, 1]
    point = np.array([[0.0, 1.0, 1.0]]) / np.sqrt(2.0)
    for field in (split, mixed):
        vals = np.linalg.eigvalsh(field.evaluate_batch(point))
        gap = bandscan._gap_batch(bandscan.BandModel.from_field(field), point)[0]
        assert gap <= np.min(np.abs(vals)) < 1e-15
    # The same spectrum everywhere: the same gates, and charges within rounding.
    center = np.array([1.0, 0.0, 0.0])
    for kwargs in (dict(fermi=0.5), dict(center=center, radius=0.5)):
        assert_same(outcome(chern_2, mixed, **kwargs), outcome(chern_2, split, **kwargs))


def test_one_by_one_sectors_need_no_eigensolver():
    # x0 s3 + x1 I + 0.5 x2 s3 is diagonal: two 1 x 1 sectors, each its own
    # band, so each gap is |h_ii - fermi|.  In weyl + [2 + 0.5 x3] the 1 x 1
    # sector has no band below 0 on the sphere, and adds nothing to the charge.
    s3 = clifford.SIGMA_3
    diagonal = MatrixPolyField(3, 2, {(1, 0, 0): s3, (0, 1, 0): np.eye(2), (0, 0, 1): 0.5 * s3},
                               SPHERE)
    model = bandscan.BandModel.from_field(diagonal, fermi=0.25)
    points = np.random.default_rng(7).standard_normal((1000, 3))
    bands = np.diagonal(diagonal.evaluate_batch(points), axis1=1, axis2=2).real
    weyl = generators.weyl_field(2, clifford.LEFT)
    flat = weyl.direct_sum(MatrixPolyField(3, 1, {(0, 0, 0): [[2.0]], (0, 0, 1): [[0.5]]}, SPHERE))
    assert [[f.size for f in g.sectors] for g in (diagonal, flat)] == [[1, 1], [2, 1]]
    reference = chern_2(weyl)
    with spying("eigh", "eigvalsh") as calls:
        gaps = bandscan._gap_batch(model, points)
        result = chern_2(flat)
    assert calls == []
    assert np.array_equal(gaps, np.min(np.abs(bands - 0.25), axis=1))
    assert result == reference


def scaled(field, factor):
    return dataclasses.replace(field, terms={a: factor * m for a, m in field.terms.items()})


def test_the_structure_survives_conjugation_reflection_and_equal_direct_sums():
    # Each variant of the Dirac phase, and its sum with twice itself (whose
    # Gram matrix is not scalar), splits into 2 x 2 sectors, which take the
    # closed form with no inv or SVD and match the inv-based reference.
    rng = np.random.default_rng(5)
    dirac = generators.dirac_phase_field(3, clifford.LEFT)
    w = oracles.random_unitary(rng, 2)
    for variant in (dirac, dirac.conjugated_by(w), dirac.reflect(0), dirac.direct_sum(dirac),
                    dirac.direct_sum(scaled(dirac, 2.0))):
        assert {s.size for s in variant.sectors} == {2}
        with spying("inv", "svd") as calls:
            closed = outcome(winding_3, variant, resolution=4)
        assert calls == []
        assert_same(closed, winding_reference(variant, 3))


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_winding_determinant_form_matches_the_products_node_by_node(seed):
    # At each node, random U in GL(2, C) or GL(1, C), neither unitary nor
    # Clifford, and random d_a U, against l_a = U^-1 d_a U from inv and
    # products.  On S^1, tr(l) against d(det V) / det V, and |tr(l)| <=
    # ||U^-1|| ||dU|| sets the scale.  On S^3, 3 (tr(l1 l2 l3) - tr(l1 l3 l2))
    # against -3 det[U, d_1 U, d_2 U, d_3 U] / (det U)^2, and |tr(l1 l2 l3)|
    # <= ||l1|| ||l2|| ||l3|| sets it.
    rng = np.random.default_rng(seed)
    m = 4000
    u = complex_normal(rng, m, 2, 2) * 10.0 ** rng.uniform(-3, 3, (m, 1, 1))  # s is divided out
    for n in (1, 2):
        un, du = u[:, :n, :n], complex_normal(rng, m, 1, n, n)
        uinv = np.linalg.inv(un)
        reference = np.trace(uinv @ du[:, 0], axis1=1, axis2=2)
        scale = np.linalg.norm(uinv, axis=(1, 2)) * np.linalg.norm(du[:, 0], axis=(1, 2))
        closed = charge._winding_closed(un, du, np.empty(2 * n * n * m, dtype=complex))
        assert np.all(np.abs(closed - reference) <= 1e-12 * scale)
    d = complex_normal(rng, m, 3, 2, 2)
    l1, l2, l3 = np.moveaxis(np.linalg.inv(u)[:, None] @ d, 1, 0)
    products = 3.0 * (np.einsum("mij,mjk,mki->m", l1, l2, l3)
                      - np.einsum("mij,mjk,mki->m", l1, l3, l2))
    scale = 3.0 * np.prod([np.linalg.norm(l, axis=(1, 2)) for l in (l1, l2, l3)], axis=0)
    closed = charge._winding_closed(u, d, np.empty(16 * m, dtype=complex))
    assert np.all(np.abs(closed - products) <= 1e-12 * scale)
    assert charge._winding_closed(u[:, :1, :1], d[:, :, :1, :1], np.empty(4 * m, complex)) is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_two_band_curvature_matches_the_products_node_by_node(seed):
    # At each node, random Hermitian h and d_a h: the bands f0 +- s against
    # eigvalsh, and -(1/2) (a / s) . (d_0 a / s x d_1 a / s) against
    # Im tr(P [d_0 P, d_1 P]) = -Im tr(A d_0 h d_1 h) / (4 s^3), A = h - f0 I,
    # formed with matrix products; |tr(A d_0 h d_1 h)| / s^3 is at most
    # ||d_0 h|| ||d_1 h|| / s^2 up to a constant, which sets the scale.
    rng = np.random.default_rng(seed)
    m = 4000
    h, d = complex_normal(rng, m, 2, 2), complex_normal(rng, m, 2, 2, 2)
    h, d = h + h.conj().swapaxes(-1, -2), d + d.conj().swapaxes(-1, -2)
    h *= 10.0 ** rng.uniform(-3, 3, (m, 1, 1))
    vals = np.linalg.eigvalsh(h)
    f0 = np.trace(h, axis1=1, axis2=2).real / 2
    a_matrix = h - f0[:, None, None] * np.eye(2)
    s_ref = np.max(np.abs(vals - f0[:, None]), axis=1)
    triple = np.einsum("mij,mjk,mki->m", a_matrix, d[:, 0], d[:, 1])
    products = -triple.imag / (4.0 * s_ref**3)
    scale = np.prod(np.linalg.norm(d, axis=(2, 3)), axis=1) / s_ref**2
    f0_closed, a, s = _linalg.pauli_split((h, d), np.empty(12 * m))
    assert np.all(np.abs(np.stack([f0_closed - s, f0_closed + s], axis=1) - vals)
                  <= 1e-12 * np.max(np.abs(vals), axis=1, keepdims=True))
    assert np.all(np.abs(charge._two_band_curvature(a, s) - products) <= 1e-12 * scale)


def test_two_by_two_sectors_take_no_inverse_eigensolver_or_products():
    # winding_1, winding_3, chern_2 and the gap map on 1 x 1 and 2 x 2
    # sectors with and without a Clifford structure, conjugated, reflected,
    # summed: no inv, svd, eigh or eigvalsh, no _gated_inverse, and none of
    # the matrix products of _linalg.
    rng = np.random.default_rng(3)
    circle = generators.dirac_phase_field(1, clifford.LEFT)
    loops = (circle, circle.direct_sum(circle.reflect(0)),
             circle.direct_sum(circle).conjugated_by(oracles.random_unitary(rng, 2)),
             small_phase(rng, circle, 2, 0.3))
    dirac = generators.dirac_phase_field(3, clifford.LEFT)
    phases = (dirac.conjugated_by(oracles.random_unitary(rng, 2)),
              dirac.direct_sum(dirac.reflect(0)),
              small_phase(rng, dirac, 2, 0.3))
    weyl = generators.weyl_field(2, clifford.LEFT)
    pair = weyl.direct_sum(weyl).conjugated_by(np.kron(np.eye(2), oracles.random_unitary(rng, 2)))
    flat = weyl.direct_sum(MatrixPolyField(3, 1, {(0, 0, 0): [[2.0]]}, SPHERE))
    bands = (pair, two_band(rng, 0.3), flat)
    assert [[s.size for s in f.sectors] for f in loops] == [[1], [1, 1], [2], [2]]
    assert {s.size for f in phases + bands[:2] for s in f.sectors} == {2}
    assert [s.size for s in flat.sectors] == [2, 1]
    points = rng.uniform(-1.5, 1.5, (64, 3))
    helpers = []
    with spying("inv", "svd", "eigh", "eigvalsh") as calls, pytest.MonkeyPatch.context() as mp:
        for module in (charge, _linalg):
            for name in ("products", "_planar_matmul", "_planar_trace3", "_stacked_trace3",
                         "_nodes_last", "_nodes_first", "_gated_inverse"):
                if hasattr(module, name):
                    mp.setattr(module, name, lambda *a, _n=name, **k: helpers.append(_n))
        results = [winding_1(f, resolution=8) for f in loops]
        results += [winding_3(f, resolution=8) for f in phases]
        results += [chern_2(f, resolution=8) for f in bands]
        for field in bands:
            bandscan._gap_batch(bandscan.BandModel.from_field(field), points)
    assert calls == [] and helpers == []
    sign = chern_sign_weyl()
    assert [r.charge for r in results] == [1, 0, 2, 1] + [1, 0, 1] + [2 * sign, sign, sign]


def offset(field, f0):
    """field + f0 I."""
    shift = {(0,) * field.ambient_dim: f0 * np.eye(field.size)}
    return field.plus(MatrixPolyField(field.ambient_dim, field.size, shift, SPHERE))


def test_an_offset_crossing_pulled_back_takes_the_general_path():
    # At a crossing the pulled-back constant term is about 1000 I, while the
    # traceless terms shrink with the enclosure's radius.  Weyl fields with
    # velocities 1 and 3 are mixed into one 4 x 4 sector by (H x H) / 2: the
    # mixed coefficients are (2 I - X) x sigma', whose entries are 0, +-1 or
    # +-2 (times 1 or i), so the moved grid and the pullback round alike and
    # the raws agree to the bit.
    weyl = generators.weyl_field(2, clifford.LEFT)
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    mixed = weyl.direct_sum(scaled(weyl, 3.0)).conjugated_by(np.kron(h, h) / 2)
    field = offset(mixed, 1000.0)
    center, radius = np.zeros(3), 5e-4
    pulled = field.affine_pullback(center, radius)
    assert len(pulled.sectors) == 1 and pulled.size == 4
    result = chern_2(field, fermi=1000.0, center=center, radius=radius)
    assert result.charge == 2 * chern_sign_weyl()
    reference = chern_2(pulled, fermi=1000.0)
    assert result.convergence_pair == reference.convergence_pair


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor", [1e103, 1e160, 1e300, 1.3e308, 1.7e308])
def test_closed_form_charges_do_not_overflow(factor):
    # ||U||_F^2, s^3 and the triple trace overflow from entries of about
    # 1e103 or 1e154 on; each closed form divides before it multiplies.  From
    # 1.3e308 on, ||U||_F and det V s overflow too, though s does not.
    dirac1 = generators.dirac_phase_field(1, clifford.LEFT)
    dirac3 = generators.dirac_phase_field(3, clifford.LEFT)
    weyl = generators.weyl_field(2, clifford.LEFT)
    for fn, field in (
        (winding_1, dirac1.direct_sum(dirac1)),
        (winding_3, dirac3),
        (chern_2, weyl.direct_sum(weyl)),
    ):
        big = scaled(field, factor)
        assert max(s.size for s in big.sectors) <= 2  # closed forms throughout
        assert_same(outcome(fn, big, resolution=8), outcome(fn, field, resolution=8))
    assert winding_1(scaled(dirac1.direct_sum(dirac1), factor)).charge == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_large_scalar_part_does_not_overflow(tmp_path, capsys):
    # 1e308 I + 5e307 Weyl at fermi 1e308: every entry is at most 1.5e308 on
    # the unit sphere, and the gap is 5e307, but the trace, the sum of the
    # diagonal, overflows; f0 divides each entry by 2 before the sum.
    weyl = generators.weyl_field(2, clifford.LEFT)
    shift = MatrixPolyField(3, 2, {(0, 0, 0): 1e308 * np.eye(2)}, SPHERE)
    field = scaled(weyl, 5e307).plus(shift)
    result = chern_2(field, fermi=1e308)
    assert (result.charge, result.converged) == (chern_sign_weyl(), True)
    model = bandscan.BandModel.from_field(field, fermi=1e308)
    assert abs(bandscan.gap_at(model, [0.6, 0.0, 0.8]) - 5e307) <= 1e-15 * 5e307
    path = str(tmp_path / "f0.json")
    bandscan.save_model(model, path)
    assert main(["charge", path, "--center", "0", "0", "0", "--radius", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["charge"], payload["converged"]) == (chern_sign_weyl(), True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("winding, d, resolution", [(winding_1, 1, None), (winding_3, 3, 8)])
def test_general_path_gate_does_not_overflow(winding, d, resolution):
    # The bound 1 / ||U^-1||_F squares the entries of U^-1: at scale 1e200 they
    # underflow (the bound is inf, and right), at 1e-200 they overflow (the
    # bound is 0, and the SVD refuses the field).  Neither may warn.  Copies of
    # the Dirac phase at velocities 1, 2, ..., mixed into one sector larger
    # than 2 x 2, take inv.
    dirac = generators.dirac_phase_field(d, clifford.LEFT)
    copies = dirac
    while copies.size <= 2:
        copies = copies.direct_sum(scaled(dirac, copies.size // dirac.size + 1))
    copies = copies.conjugated_by(dense_unitary(copies.size))
    assert len(copies.sectors) == 1
    big, small = (scaled(copies, f) for f in (1e200, 1e-200))
    assert winding(big, resolution=resolution).charge == copies.size // dirac.size
    with pytest.raises(GapClosedError, match="min singular value"):
        winding(small, resolution=resolution)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_chern_path_does_not_overflow():
    # Weyl beside twice itself, mixed by the 4 x 4 Fourier matrix into one
    # sector, takes eigh.  Scaled by 5e307 its values are finite (the largest
    # coefficient is 7.5e307), but a band difference E_o - E_u reaches 2e308.
    weyl = generators.weyl_field(2, clifford.LEFT)
    mixed = weyl.direct_sum(scaled(weyl, 2.0)).conjugated_by(dense_unitary(4))
    assert [s.size for s in mixed.sectors] == [4]
    big = scaled(mixed, 5e307)
    assert_same(outcome(chern_2, big, resolution=8), outcome(chern_2, mixed, resolution=8))
    result = chern_2(big)
    assert (result.charge, result.converged) == (2 * chern_sign_weyl(), True)


def test_general_chern_path_takes_a_node_where_the_field_is_zero():
    # (x0 - 1) A, for a dense positive A, is one 3 x 3 sector that is exactly 0
    # at the node (1, 0, 0) of the grid at resolution 5, and whose bands all
    # lie below fermi 0.5: gapped, charge 0.  There the scale s is 0, and h / s
    # would be NaN.
    f = dense_unitary(3)
    a = f @ np.diag([1.0, 2.0, 3.0]) @ f.conj().T
    field = MatrixPolyField(3, 3, {(0, 0, 0): -a, (1, 0, 0): a}, SPHERE)
    assert [s.size for s in field.sectors] == [3]
    values = field.evaluate_batch(sphere_grid(2, 5).nodes)
    assert np.count_nonzero(np.all(values == 0, axis=(1, 2))) == 1
    result = chern_2(field, fermi=0.5, resolution=5)
    assert (result.charge, result.converged, result.convergence_pair) == (0, True, (0.0, 0.0))


# -- gates on the closed-form path ---------------------------------------------


def weyl_shifted():
    """Weyl + 2 x3 I: bands +-1 + 2 x3 on the sphere."""
    shift = MatrixPolyField(3, 2, {(0, 0, 1): 2.0 * np.eye(2)}, SPHERE)
    return generators.weyl_field(2, clifford.LEFT).plus(shift)


def test_gap_gates_run_on_the_closed_form_path():
    # The fields of the gate tests in test_charge.py take the closed form.
    closed = MatrixPolyField(3, 2, {(0, 0, 0): np.diag([1.0, -1.0])}, SPHERE)
    assert closed.size == weyl_shifted().size == 2
    with pytest.raises(GapClosedError, match=r"min \|eig - fermi\| = 0.0"):
        chern_2(closed, fermi=1.0)
    with pytest.raises(GapClosedError, match=r"number of bands below fermi varies .*\(1 to 2\)"):
        chern_2(weyl_shifted(), fermi=0.5, resolution=64)
    zero = MatrixPolyField(2, 2, {(0, 0): np.zeros((2, 2))}, SPHERE)
    with pytest.raises(GapClosedError, match="min singular value 0.0"):
        winding_1(zero)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_coefficients_fail_the_tests_and_the_closed_form_gates():
    # No field holds a NaN coefficient: the constructor refuses it.
    with pytest.raises(ModelFormatError, match="not finite"):
        MatrixPolyField(3, 2, {(0, 0, 0): np.nan * np.eye(2)}, SPHERE)
    with pytest.raises(ModelFormatError, match="not finite"):
        MatrixPolyField(2, 1, {(0, 0): [[np.nan]]}, SPHERE)
    # Finite coefficients can still overflow at a node, here where x0 + x1 >
    # 1.06.  The kernels refuse such a chunk before any gate reads it, and the
    # closed-form winding gate refuses NaN itself before any division.  Their
    # one caller, _assemble, runs them under this errstate, since evaluation
    # warns of the overflow.
    big = {(1, 0, 0): 1.7e308 * np.eye(2), (0, 1, 0): 1.7e308 * np.eye(2)}
    hermitian = generators.weyl_field(2, clifford.LEFT).plus(
        MatrixPolyField(3, 2, big, SPHERE)
    )
    phase = generators.dirac_phase_field(1, clifford.LEFT).plus(
        MatrixPolyField(2, 1, {(1, 0): [[1.7e308]], (0, 1): [[1.7e308]]}, SPHERE)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
            charge._chern_raw(hermitian, charge._grid_rows(2, 8))
        with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
            charge._winding_raw(phase, charge._grid_rows(1, 8))
    for size in (1, 2):
        with pytest.raises(GapClosedError, match="min singular value nan"):
            charge._closed_gate(np.full((3, size, size), np.nan, dtype=complex),
                                np.empty((size * size, 3), dtype=complex))
    # A NaN point, on a 2 x 2 sector and on a 4 x 4 one.
    weyl = generators.weyl_field(2, clifford.LEFT)
    for field in (weyl, weyl.direct_sum(weyl).conjugated_by(dense_unitary(4))):
        model = bandscan.BandModel.from_field(field)
        with pytest.raises(ValueError, match="gap is not finite"):
            bandscan._gap_batch(model, np.array([[np.nan, 0.0, 0.0]]))
