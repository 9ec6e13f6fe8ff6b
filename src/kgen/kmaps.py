"""Coordinate charts and the two K-theory connecting maps as matrix formulas.

The chart composes a radial rescaling of the open unit ball with the inverse
stereographic projection, giving the closed form

    x = (2 y sqrt(1 - ||y||^2), 2 ||y||^2 - 1)        for ||y|| < 1.

The index map sends a unitary boundary value with contraction lift B to the
Hermitian unitary

    V = [[2 B B* - 1,        2 B sqrt(1 - B*B)],
         [2 B* sqrt(1 - BB*), 1 - 2 B*B      ]],

and the exponential map sends a self-adjoint unitary boundary value with
self-adjoint contraction lift B to the invertible field
B sqrt(1 - B^2) + i (1 - 2 B^2) (or its opposite-phase variant; see
:func:`exp_map`).  The verification suites check that these formulas applied
to the generator fields reproduce the generator one dimension up, pointwise
and to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford, generators
from ._linalg import CHUNK, dagger, func_of_hermitian, func_of_spectrum, max_abs, operator_norm
from ._linalg import sq_norms, sqrt_psd
from .errors import DomainError, LiftInvalidError, PoleError
from .fields import EvaluableField
from .sampling import ball_points, check_samples, seeded_rng, sphere_points
from .serialize import suite_report

# Admissibility tolerance for contraction/self-adjointness of lifts, and the
# pass threshold of the pointwise identity suites.
LIFT_TOL = 1e-10
IDENTITY_TOL = 1e-10

# Chart-based comparisons stay inside ||y|| <= BALL_CUTOFF, away from the
# conditioning loss of sqrt(1 - ||y||^2) at the boundary.
BALL_CUTOFF = 0.999

# Invertibility threshold for the deformation scan, and its number of
# equispaced t-values in [0, 1].
HOMOTOPY_SV_MIN = 1e-3
HOMOTOPY_T_POINTS = 11

# Interior points on which a lift's admissibility is checked (half as many
# boundary points are added).
LIFT_SAMPLES = 120

# The levels d of each suite: one parity, up to the last whose representations
# fit clifford.MAX_D (index builds d + 2 generators, exp and homotopy d + 1).
_LEVELS = {"index": range(1, clifford.MAX_D - 1, 2), "exp": range(2, clifford.MAX_D, 2),
           "homotopy": range(0, clifford.MAX_D, 2)}


def _check_level(suite: str, d: int) -> None:
    """Refuse a d outside the ``suite``'s levels, naming it."""
    levels = _LEVELS[suite]
    if d not in levels:
        parity, first, last = ("even", "odd")[levels.start % 2], levels.start, levels[-1]
        raise ValueError(f"the {suite} suite needs an {parity} d from {first} to {last}, got {d}")


def _blocks(points: np.ndarray, size: int):
    """Consecutive blocks of ``points`` whose ``size`` x ``size`` matrices hold
    at most 4 x CHUNK entries, so a suite's memory does not grow with its samples."""
    per_block = 4 * CHUNK // size**2
    return (points[start:start + per_block] for start in range(0, len(points), per_block))


@dataclass(frozen=True)
class ChartPoint:
    """One point in all three coordinate systems: open ball, Euclidean space,
    and the sphere one dimension up (minus its north pole)."""

    disc_y: np.ndarray
    euclid_z: np.ndarray
    sphere_x: np.ndarray


@dataclass(frozen=True)
class KGroupTable:
    """Complex K-groups of the d-sphere."""

    d: int
    k0: str
    k1: str
    reduced_k0: str


def chart(y) -> ChartPoint:
    """Map points of the open unit ball to the punctured sphere.

    z = y / sqrt(1 - ||y||^2), then x is the inverse stereographic image of z;
    the composition is x = (2 y sqrt(1 - ||y||^2), 2 ||y||^2 - 1).  Acts on the
    last axis, as :func:`chart_inverse` does, so an (M, m) array of ball points
    gives a :class:`ChartPoint` whose fields are (M, ...) arrays.
    """
    y = np.asarray(y, dtype=float)
    r2 = sq_norms(y)[..., None]
    if np.any(r2 >= 1.0):
        raise DomainError(f"chart requires ||y|| < 1, got ||y|| = {np.sqrt(np.max(r2))}")
    s = np.sqrt(1.0 - r2)
    z = y / s
    x = np.concatenate([2.0 * y * s, 2.0 * r2 - 1.0], axis=-1)
    return ChartPoint(disc_y=y, euclid_z=z, sphere_x=x)


def chart_inverse(x) -> ChartPoint:
    """Invert :func:`chart`; defined away from the north pole (0, ..., 0, 1).

    Acts on the last axis, so an (M, m + 1) array of sphere points gives a
    :class:`ChartPoint` whose fields are (M, ...) arrays.
    """
    x = np.asarray(x, dtype=float)
    off = np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0), initial=0.0)
    if off > 1e-9:
        raise DomainError(f"chart_inverse requires unit vectors; ||x|| is off 1 by {off}")
    last = x[..., -1:]
    if np.any(last >= 1.0 - 1e-15):
        raise PoleError("chart_inverse is undefined at the north pole")
    y = x[..., :-1] / np.sqrt(2.0 * (1.0 - last))
    z = x[..., :-1] / (1.0 - last)
    return ChartPoint(disc_y=y, euclid_z=z, sphere_x=x)


def _check_lift(b_field, selfadjoint: bool) -> None:
    """Refuse a lift that is not a contraction, or not self-adjoint when
    ``selfadjoint`` is set, on a fixed sample of the closed ball: LIFT_SAMPLES
    interior points and half as many on the boundary sphere, block by block
    (:func:`_blocks`)."""
    rng = np.random.default_rng(2024)
    m = b_field.ambient_dim
    points = np.vstack([ball_points(m, LIFT_SAMPLES, rng), sphere_points(m, LIFT_SAMPLES // 2, rng)])
    residuals, norms = [0.0], []
    for block in _blocks(points, b_field.size):
        b = b_field.evaluate_batch(block)
        if selfadjoint:
            residuals.append(max_abs(b - dagger(b)))
        norms.append(np.max(operator_norm(b)))
    # np.max, not max: a NaN in any block reaches the worst value, as in one batch.
    worst = float(np.max(residuals))
    if worst > LIFT_TOL:
        raise LiftInvalidError(f"lift is not self-adjoint: residual {worst}")
    worst = float(np.max(norms))
    if worst > 1.0 + LIFT_TOL:
        raise LiftInvalidError(f"lift is not a contraction: max norm {worst}")


def index_map(b_field) -> EvaluableField:
    """Image of a unitary boundary value under the index map.

    ``b_field`` must be a contraction on the closed ball (checked on a fixed
    sample set); for the output to represent a class relative to the boundary,
    its boundary values must in addition be unitary, which is the caller's
    responsibility.  The output V(y) is a Hermitian unitary of doubled size
    that degenerates to diag(1, -1) wherever B is unitary.  Since
    B* sqrt(1 - BB*) = sqrt(1 - B*B) B*, the lower-left block is built as the
    adjoint of the upper-right one, with one square root per point.
    """
    n = b_field.size
    eye = np.eye(n, dtype=complex)
    _check_lift(b_field, selfadjoint=False)

    def evaluator(points):
        b = b_field.evaluate_batch(points)
        bd = dagger(b)
        upper = 2.0 * b @ sqrt_psd(eye - bd @ b)
        return np.block([[2.0 * b @ bd - eye, upper], [dagger(upper), eye - 2.0 * bd @ b]])

    return EvaluableField(b_field.ambient_dim, 2 * n, evaluator)


def exp_map(b_field, convention: str = "forward") -> EvaluableField:
    """Image of a self-adjoint unitary boundary value under the exponential map.

    Two sign conventions of the image are in circulation; they are pointwise
    adjoints of each other, represent inverse classes, and both are exposed:

      * ``"forward"``:  B sqrt(1 - B^2) + i (2 B^2 - 1)   (default)
      * ``"adjoint"``:  B sqrt(1 - B^2) + i (1 - 2 B^2)

    Only the default reproduces the Dirac phase one dimension up on the nose
    (see :func:`verify_exp_identity`).  The image is invertible everywhere and
    unitary exactly where B^2 is 0 or 1; with b an eigenvalue of B(y), the
    eigenvalue moduli are sqrt(3 b^4 - 3 b^2 + 1) >= 1/2.
    """
    if convention not in ("forward", "adjoint"):
        raise ValueError(f"unknown convention {convention!r}")
    sign = 1.0 if convention == "adjoint" else -1.0
    _check_lift(b_field, selfadjoint=True)

    def f(vals):
        vals = np.clip(vals, -1.0, 1.0)
        return vals * np.sqrt(1.0 - vals**2) + 1j * sign * (1.0 - 2.0 * vals**2)

    def evaluator(points):
        return func_of_hermitian(b_field.evaluate_batch(points), f)

    return EvaluableField(b_field.ambient_dim, b_field.size, evaluator)


# The last (field, (shape, bytes) of y, eigh of B(y)) that homotopy_at
# decomposed.  It is replaced by one assignment, so a reader sees a whole
# tuple, and it holds the field itself, so no other field can take its id.
_last_spectrum = (None, None, None)


def homotopy_at(b_field, t: float, y) -> np.ndarray:
    """Deformation between the exponential-map unitary and its algebraic form.

    A_t = (-t cos(pi B) + (1 - t^2)(2 B^2 - 1))
          + i (t sin(pi B) + (1 - t^2) B sqrt(1 - B^2)),

    evaluated by functional calculus of the Hermitian contraction B(y).  At
    t = 1 this is the unitary -cos(pi B) + i sin(pi B); invertibility along the
    whole path is what :func:`homotopy_scan` samples via singular values.

    The eigendecomposition of B(y) does not depend on t, so the last one is
    kept: a call with the same field object (``is``) and a y of the same
    shape and float bytes reuses it, and any other call evaluates B(y),
    decomposes it and replaces it.  This assumes that a field is a function
    of its point, as every kgen field is.  Calls that run through the t-values
    at one point, as :func:`homotopy_scan` makes them, decompose each B(y) once.

    The scalar function runs once per eigenvalue of B(y), on Python floats
    with :mod:`math` (a numpy ufunc on a few eigenvalues costs more in call
    overhead than in arithmetic).  It rounds the same operations in the same
    order as the numpy ufunc formula (clip to [-1, 1], then the terms above),
    whose cos, sin and sqrt agree with :mod:`math`'s to the bit, so each
    matrix keeps that formula's bits.  A non-finite t or y is refused.
    """
    global _last_spectrum
    t, y = float(t), np.asarray(y, dtype=float)
    if not math.isfinite(t):
        raise DomainError(f"homotopy_at needs a finite t, got {t}")
    if not all(map(math.isfinite, y.ravel().tolist())):
        raise DomainError(f"homotopy_at needs a finite y, got {y.tolist()}")
    key = (y.shape, y.tobytes())
    field, point, spectrum = _last_spectrum
    if field is not b_field or point != key:
        spectrum = np.linalg.eigh(b_field.evaluate(y))
        _last_spectrum = (b_field, key, spectrum)
    one_minus_t2 = 1.0 - t * t

    def f(vals):
        out = []
        for v in vals.tolist():
            v = min(max(v, -1.0), 1.0)
            sq = v * v
            real = -t * math.cos(math.pi * v) + one_minus_t2 * (2.0 * sq - 1.0)
            imag = t * math.sin(math.pi * v) + one_minus_t2 * v * math.sqrt(1.0 - sq)
            # 0.0 + imag, as numpy's real + 1j * imag rounds it: -0.0 becomes 0.0.
            out.append(complex(real, 0.0 + imag))
        return np.array(out)

    return func_of_spectrum(spectrum, f)


def homotopy_scan(d: int = 2, samples: int = 1000, seed: int = 0) -> dict:
    """Minimum singular value of the deformation over the grid of
    HOMOTOPY_T_POINTS t-values and ``samples`` points y.

    Uses the Weyl contraction lift in d+1 ball variables.  PASS means the
    smallest singular value over the whole grid stays above 1e-3, i.e. the
    deformation never leaves the invertibles.  Each matrix comes from
    :func:`homotopy_at`, point by point within each block of :func:`_blocks`
    with t as the inner loop, so one eigendecomposition of B(y) serves all
    t-values; each t-value's matrices of a block then go to one batched SVD
    call.
    """
    _check_level("homotopy", d)
    check_samples(samples)
    rep = clifford.build_rep(d + 1, clifford.LEFT)
    lift = generators.weyl_field(d, rep)
    points = ball_points(d + 1, samples, seeded_rng(seed))
    ts = np.linspace(0.0, 1.0, HOMOTOPY_T_POINTS).tolist()
    min_sv = np.inf
    blocks = list(_blocks(points, lift.size))
    # Allocated once and reused by every block; row k is the k-th t-value's stack.
    stacks = np.empty((len(ts), len(blocks[0]), lift.size, lift.size), dtype=complex)
    for block in blocks:
        for i, y in enumerate(block):
            for k, t in enumerate(ts):
                stacks[k, i] = homotopy_at(lift, t, y)
        for stack in stacks[:, :len(block)]:
            smallest = np.linalg.svd(stack, compute_uv=False)[:, -1]
            min_sv = min(min_sv, float(np.min(smallest)))
    return suite_report(
        "homotopy",
        d,
        samples,
        max(0.0, HOMOTOPY_SV_MIN - min_sv),
        min_sv > HOMOTOPY_SV_MIN,
        t_points=HOMOTOPY_T_POINTS,
        min_singular_value=float(min_sv),
        threshold=HOMOTOPY_SV_MIN,
        seed=int(seed),
    )


def _identity_report(suite: str, d: int, image, target, to_target, samples: int, seed: int) -> dict:
    """Report of a pointwise identity: ``image`` at seeded points y of the ball
    ||y|| <= BALL_CUTOFF against ``target`` at ``to_target(y)``, entrywise,
    block by block (:func:`_blocks`)."""
    points = ball_points(image.ambient_dim, samples, seeded_rng(seed), max_norm=BALL_CUTOFF)
    pairs = zip(_blocks(points, image.size), _blocks(to_target(points), image.size))
    worst = max(max_abs(image.evaluate_batch(y) - target.evaluate_batch(x)) for y, x in pairs)
    return suite_report(
        suite, d, samples, worst, worst < IDENTITY_TOL, tolerance=IDENTITY_TOL, seed=int(seed)
    )


def verify_index_identity(d: int = 1, samples: int = 1000, seed: int = 0) -> dict:
    """Pointwise check that the index map sends the odd generator to the even one.

    The Dirac phase in d+1 ball variables is fed through the index-map formula;
    at each ball sample y it must reproduce, entrywise, the Weyl field of the
    doubled representation at the sphere point ``chart(y)``.  The residual
    therefore measures the identity alone, with no chart round trip.
    """
    _check_level("index", d)
    check_samples(samples)
    rep = clifford.build_rep(d, clifford.LEFT)
    lift = generators.dirac_phase_field(d, rep)
    v_field = index_map(lift)
    extended = clifford.extend(rep)
    weyl = generators.weyl_field(d + 1, extended)
    return _identity_report("index", d, v_field, weyl, lambda y: chart(y).sphere_x, samples, seed)


def _exp_point(y: np.ndarray) -> np.ndarray:
    """x = (y sqrt(1 - ||y||^2), 2 ||y||^2 - 1) for (M, m) ball points y."""
    r2 = sq_norms(y)[:, None]
    return np.hstack([y * np.sqrt(1.0 - r2), 2.0 * r2 - 1.0])


def verify_exp_identity(d: int = 2, samples: int = 1000, seed: int = 0) -> dict:
    """Pointwise check that the exponential map sends the even generator to the
    odd one.

    The Weyl contraction lift in d+1 ball variables goes through
    :func:`exp_map` (default convention); substituting
    x = (y sqrt(1 - ||y||^2), 2 ||y||^2 - 1) into the Dirac phase of the same
    representation must agree entrywise.
    """
    _check_level("exp", d)
    check_samples(samples)
    rep = clifford.build_rep(d + 1, clifford.LEFT)
    lift = generators.weyl_field(d, rep)
    image = exp_map(lift, convention="forward")
    dirac = generators.dirac_phase_field(d + 1, rep)
    return _identity_report("exp", d, image, dirac, _exp_point, samples, seed)


def kgroup_table(d: int) -> KGroupTable:
    """K-groups of the d-sphere: K0 is Z+Z for even d (one summand trivial),
    K1 is Z for odd d, and the reduced K0 keeps only the nontrivial part."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"sphere dimension must be a positive integer, got {d!r}")
    if d % 2 == 0:
        return KGroupTable(d=d, k0="Z+Z", k1="0", reduced_k0="Z")
    return KGroupTable(d=d, k0="0", k1="Z", reduced_k0="0")
