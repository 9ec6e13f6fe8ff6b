"""Closed-form spectra and inverses against the general path.

A 2 x 2 Hermitian sector has the bands f0 +- s (Cayley-Hamilton), so its gaps
and Berry curvature come from two traces per node.  A 1 x 1 or 2 x 2 winding
sector is inverted as adj(V) / (det V s) with V = U / s, and its smallest
singular value follows from |det V|.  Both are exact at those sizes, so every
such sector takes them, and larger ones take ``eigvalsh``, ``eigh`` and
``inv``.  The references are ``eigvalsh``, ``inv`` and the SVD, and the
projector-form ``reference_chern_raw`` and ``inv``-based winding kernels of
test_charge.py.
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

from kgen import bandscan, charge, clifford, generators
from kgen.charge import chern_2, chern_sign_weyl, sphere_grid, winding_1, winding_3
from kgen.cli import main
from kgen.errors import GapClosedError, ModelOverflowError
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
    return MatrixPolyField(m, n, terms, SPHERE, selfadjoint=not phase).conjugated_by(q)


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
    bump = MatrixPolyField(3, 2, {a: scale * m / bound for a, m in bump.items()}, SPHERE, True)
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
        return charge._chern_raw(field, fermi, grid)
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
    # Gauss-Legendre nodes come from eigvalsh, so both grids are built first.
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
        uinv = charge._gated_inverse(u)
        raw = charge._winding_raw(field, charge._grid_rows(dim, n))
    assert calls == []
    reference = np.linalg.inv(u)
    assert np.max(np.abs(uinv - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert abs(raw - reference_winding_outcome(field, grid)) <= 1e-12
    # The gate sigma_min > GAP_MIN clears each node scaled to a sigma_min of
    # GAP_MIN (1 + 1e-12) and refuses it at GAP_MIN (1 - 1e-12).
    sv_min = np.linalg.svd(u, compute_uv=False)[:, -1]
    for node, sv in zip(u, sv_min):
        charge._gated_inverse(node[None] * (charge.GAP_MIN * (1 + 1e-12) / sv))
        with pytest.raises(GapClosedError, match="min singular value"):
            charge._gated_inverse(node[None] * (charge.GAP_MIN * (1 - 1e-12) / sv))


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
    split = MatrixPolyField(3, 4, terms, SPHERE, selfadjoint=True)
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


def offset(field, f0):
    """field + f0 I."""
    shift = {(0,) * field.ambient_dim: f0 * np.eye(field.size)}
    return field.plus(MatrixPolyField(field.ambient_dim, field.size, shift, SPHERE, True))


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
    shift = MatrixPolyField(3, 2, {(0, 0, 0): 1e308 * np.eye(2)}, SPHERE, selfadjoint=True)
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
    field = MatrixPolyField(3, 3, {(0, 0, 0): -a, (1, 0, 0): a}, SPHERE, selfadjoint=True)
    assert [s.size for s in field.sectors] == [3]
    values = field.evaluate_batch(sphere_grid(2, 5).nodes)
    assert np.count_nonzero(np.all(values == 0, axis=(1, 2))) == 1
    result = chern_2(field, fermi=0.5, resolution=5)
    assert (result.charge, result.converged, result.convergence_pair) == (0, True, (0.0, 0.0))


# -- gates on the closed-form path ---------------------------------------------


def weyl_shifted():
    """Weyl + 2 x3 I: bands +-1 + 2 x3 on the sphere."""
    shift = MatrixPolyField(3, 2, {(0, 0, 1): 2.0 * np.eye(2)}, SPHERE, selfadjoint=True)
    return generators.weyl_field(2, clifford.LEFT).plus(shift)


def test_gap_gates_run_on_the_closed_form_path():
    # The fields of the gate tests in test_charge.py take the closed form.
    closed = MatrixPolyField(3, 2, {(0, 0, 0): np.diag([1.0, -1.0])}, SPHERE, selfadjoint=True)
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
    nan = MatrixPolyField(3, 2, {(0, 0, 0): np.nan * np.eye(2)}, SPHERE, selfadjoint=True)
    hermitian = generators.weyl_field(2, clifford.LEFT).plus(nan)
    phase = generators.dirac_phase_field(1, clifford.LEFT).plus(
        MatrixPolyField(2, 1, {(0, 0): [[np.nan]]}, SPHERE)
    )
    # The charges refuse such coefficients up front; the kernels, given their
    # NaN values, refuse each chunk before any gate reads it, and the
    # closed-form winding gate refuses NaN itself before any division.
    for fn, field in ((chern_2, hermitian), (winding_1, phase)):
        with pytest.raises(ValueError, match="field coefficients must be finite"):
            fn(field, resolution=8)
    with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
        charge._chern_raw(hermitian, 0.0, charge._grid_rows(2, 8))
    with pytest.raises(ModelOverflowError, match="field is not finite on the unit sphere"):
        charge._winding_raw(phase, charge._grid_rows(1, 8))
    for size in (1, 2):
        with pytest.raises(GapClosedError, match="min singular value nan"):
            charge._gated_inverse(np.full((3, size, size), np.nan, dtype=complex))
    # A NaN point, on a 2 x 2 sector and on a 4 x 4 one.
    weyl = generators.weyl_field(2, clifford.LEFT)
    for field in (weyl, weyl.direct_sum(weyl).conjugated_by(dense_unitary(4))):
        model = bandscan.BandModel.from_field(field)
        with pytest.raises(ValueError, match="gap is not finite"):
            bandscan._gap_batch(model, np.array([[np.nan, 0.0, 0.0]]))
