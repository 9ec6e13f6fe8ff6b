"""Generator fields built from Clifford representations.

The two families are the self-adjoint Weyl field  sum_j x_j Gamma_j  and the
Dirac phase  sum_j x_j Gamma_j + i x_(d+1).  Restricted to the unit sphere the
first is a Hermitian unitary and the second a unitary; on Euclidean space they
are the unbounded representatives whose bounded transform and resolvent decay
are computed at the end of this module.
"""

from __future__ import annotations

import numpy as np

from . import clifford
from ._linalg import dagger, func_of_hermitian, max_abs, operator_norm, sq_norms
from .errors import ChiralSymmetryError, DimensionMismatchError
from .fields import COEFFICIENT_TOL, EUCLIDEAN, SPHERE, EvaluableField, MatrixPolyField, unit_index
from .sampling import check_samples, sphere_points
from .serialize import suite_report

# Seeded sphere directions sampled by compact_resolvent_profile.
PROFILE_DIRECTIONS = 64
PROFILE_SEED = 7


def _representation(rep: clifford.CliffordRep | str, count: int, d: int) -> clifford.CliffordRep:
    """``rep``, checked to have ``count`` generators; a handedness in place of
    ``rep`` builds that representation, and a refusal from
    :func:`clifford.build_rep` then names the field's own ``d``."""
    if isinstance(rep, str):
        try:
            rep = clifford.build_rep(count, rep)
        except ValueError as err:
            need = f"d = {d} needs a representation with {count} generators"
            raise ValueError(f"{need}: {err}") from None
    if rep.d != count:
        raise DimensionMismatchError(f"need a representation with {count} generators, got {rep.d}")
    return rep


def weyl_field(d: int, rep: clifford.CliffordRep | str, domain: str = SPHERE) -> MatrixPolyField:
    """Weyl Hamiltonian field sum_{j=1}^{d+1} x_j Gamma_j.

    With the sphere tag this is the even-d generator (a self-adjoint unitary
    on S^d, since its square is ||x||^2); with the Euclidean tag the same
    formula is the unbounded representative and d may have either parity.
    ``rep`` is a :class:`clifford.CliffordRep` with d + 1 generators or a
    handedness to build one with, after the parity check.
    """
    if domain == SPHERE and d % 2 != 0:
        raise DimensionMismatchError(f"sphere-restricted Weyl field requires even d, got {d}")
    return _gamma_sum(_representation(rep, d + 1, d), domain)


def _gamma_sum(rep: clifford.CliffordRep, domain: str) -> MatrixPolyField:
    """sum_j x_j Gamma_j over all generators of ``rep``, in as many variables."""
    terms = {unit_index(j, rep.d): gamma for j, gamma in enumerate(rep.gammas)}
    return MatrixPolyField(rep.d, rep.N, terms, domain)


def dirac_phase_field(
    d: int, rep: clifford.CliffordRep | str, domain: str = SPHERE
) -> MatrixPolyField:
    """Dirac phase field sum_{j=1}^{d} x_j Gamma_j + i x_(d+1).

    Unitary on the sphere for odd d; the Euclidean variant is the non-self-
    adjoint unbounded representative.  ``rep`` is a representation with d
    generators or a handedness, as for :func:`weyl_field`.
    """
    if d % 2 != 1:
        raise DimensionMismatchError(f"Dirac phase requires odd d, got {d}")
    rep = _representation(rep, d, d)
    m = d + 1
    terms = {unit_index(j, m): rep.gammas[j] for j in range(d)}
    terms[unit_index(d, m)] = 1j * np.eye(rep.N, dtype=complex)
    return MatrixPolyField(m, rep.N, terms, domain)


def dirac_hamiltonian_field(d: int, rep: clifford.CliffordRep | str):
    """Chiral self-adjoint form of the odd generator.

    Uses d+1 generators (an even count), so the product grading exists and
    anti-commutes with the field; in the grading eigenbasis the field is block
    off-diagonal and ``chiral_lower_block(field, grading.matrix)`` extracts
    the unitary block.  ``rep`` is a representation with d + 1 generators or a
    handedness, as for :func:`weyl_field`.  Returns ``(field, grading)``.
    """
    if d % 2 != 1:
        raise DimensionMismatchError(f"chiral Dirac Hamiltonian requires odd d, got {d}")
    rep = _representation(rep, d + 1, d)
    grading = clifford.grading_of(rep)
    return _gamma_sum(rep, SPHERE), grading


def grading_eigenvectors(field: MatrixPolyField, j: np.ndarray):
    """The +1 and -1 eigenvectors of the chiral matrix ``j`` (of the field's
    size), as the columns of two arrays, once it is checked to grade ``field``:
    finite, Hermitian with every eigenvalue +-1 within COEFFICIENT_TOL, and
    anti-commuting with every coefficient (``field.failing_terms``).  The one
    check of a chiral matrix, for band models and chiral blocks alike; a
    residual past float range fails without a numpy warning."""
    if not np.isfinite(j).all():
        raise ChiralSymmetryError("chiral matrix is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if not max_abs(j - dagger(j)) <= COEFFICIENT_TOL:
            raise ChiralSymmetryError("chiral matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(j)
    if not np.all(np.abs(np.abs(vals) - 1.0) <= COEFFICIENT_TOL):
        raise ChiralSymmetryError(f"chiral matrix has eigenvalues {vals.tolist()}, not all +-1")
    bad = field.failing_terms(lambda mat: max_abs(j @ mat + mat @ j))
    if bad:
        raise ChiralSymmetryError(
            f"coefficients at multi-indices {bad} do not anti-commute with the chiral matrix"
        )
    return vecs[:, vals > 0], vecs[:, vals < 0]


def chiral_lower_block(field: MatrixPolyField, j_matrix) -> MatrixPolyField:
    """Lower-left block of a field in the basis where ``j_matrix`` is diag(1, -1),
    minus^* M plus for each coefficient M; ``j_matrix`` must have the field's
    size and pass :func:`grading_eigenvectors`, with +1 and -1 eigenspaces of
    equal size, so that the block is square."""
    n, j = field.size, np.asarray(j_matrix, dtype=complex)
    if j.shape != (n, n):
        raise DimensionMismatchError(f"chiral matrix has shape {j.shape}, expected {(n, n)}")
    plus, minus = grading_eigenvectors(field, j)
    if plus.shape[1] != minus.shape[1]:
        raise ChiralSymmetryError(
            f"chiral eigenspaces have sizes {plus.shape[1]} and {minus.shape[1]}; "
            "off-diagonal block is not square"
        )
    terms = {alpha: dagger(minus) @ mat @ plus for alpha, mat in field.terms.items()}
    return MatrixPolyField(field.ambient_dim, plus.shape[1], terms, field.domain)


def bounded_transform(field: MatrixPolyField) -> EvaluableField:
    """Pointwise bounded transform  T -> T (1 + T*T)^(-1/2).

    The result is a strict contraction everywhere and commutes with T when T
    is self-adjoint.  1 + T*T >= 1, so the inverse square root is safe.
    """

    def evaluator(points):
        t = field.evaluate_batch(points)
        one_plus = np.eye(field.size, dtype=complex) + dagger(t) @ t
        return t @ func_of_hermitian(one_plus, lambda v: 1.0 / np.sqrt(v))

    return EvaluableField(field.ambient_dim, field.size, evaluator)


def compact_resolvent_profile(field: MatrixPolyField, radii):
    """Decay profile r -> sup over directions of ||(1 + T*T)^(-1)|| at ||x|| = r.

    For the generator fields T*T = ||x||^2 so the profile equals 1/(1 + r^2)
    exactly; a profile that fails to decay flags a field without compact
    resolvent.  Directions are PROFILE_DIRECTIONS points of a fixed seeded
    sample plus the coordinate axes.
    """
    rng = np.random.default_rng(PROFILE_SEED)
    m = field.ambient_dim
    axes = np.eye(m)
    dirs = np.vstack([sphere_points(m, PROFILE_DIRECTIONS, rng), axes, -axes])

    profile = []
    for r in radii:
        if r < 0:
            raise ValueError(f"radii must be nonnegative, got {r}")
        t = field.evaluate_batch(r * dirs)
        lam_min = np.linalg.eigvalsh(dagger(t) @ t)[:, 0]
        worst = float(np.max(1.0 / (1.0 + np.maximum(lam_min, 0.0))))
        profile.append((float(r), worst))
    return profile


def verify_fredholm(samples: int = 1000, seed: int = 0) -> dict:
    """Resolvent-decay and bounded-transform identities for the two unbounded
    generator fields (the even Weyl field in three variables and the scalar
    Dirac representative in two).

    Checks ||(1 + T*T)^(-1)|| = 1/(1 + r^2) at r in {0, 1, 7} and
    ||1 - F*F|| = 1/(1 + ||x||^2) for the bounded transform F on random
    probes.  PASS requires agreement to 1e-12.
    """
    check_samples(samples)
    rng = np.random.default_rng(seed)
    radii = (0.0, 1.0, 7.0)

    weyl = weyl_field(2, clifford.build_rep(3, clifford.LEFT), domain=EUCLIDEAN)
    dirac = dirac_phase_field(1, clifford.build_rep(1, clifford.LEFT), domain=EUCLIDEAN)

    worst = 0.0
    for fld in (weyl, dirac):
        for r, value in compact_resolvent_profile(fld, radii):
            worst = max(worst, abs(value - 1.0 / (1.0 + r * r)))
        probes = rng.standard_normal((samples, fld.ambient_dim)) * 3.0
        f = bounded_transform(fld).evaluate_batch(probes)
        # The defect identity being positive already forces ||F|| < 1.
        defect = operator_norm(np.eye(fld.size) - dagger(f) @ f)
        expected = 1.0 / (1.0 + sq_norms(probes))
        worst = max(worst, max_abs(defect - expected))
        if fld.selfadjoint:
            t = fld.evaluate_batch(probes)
            worst = max(worst, max_abs(f @ t - t @ f))

    tol = 1e-12
    return suite_report(
        "fredholm", None, samples, worst, worst < tol, tolerance=tol, seed=int(seed)
    )

