"""Irreducible matrix representations of the complex Clifford algebras.

A representation with d generators consists of d Hermitian unitary N x N
matrices satisfying Gamma_i Gamma_j + Gamma_j Gamma_i = 2 delta_ij, with
N = 2^floor(d/2).  For odd d the product Gamma_1 ... Gamma_d is a scalar
lambda with lambda = +i^((d-1)/2) ("left") or -i^((d-1)/2) ("right"); the two
signs label the two inequivalent irreducible representations.

The constructions here start from the Pauli matrices and double the dimension
two generators at a time.  All matrix entries stay in {0, +-1, +-i}, so every
structural identity holds exactly in floating point, not just to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from ._linalg import dagger, max_abs
from .errors import InconsistentRepresentationError, ModelFormatError, NotIrreducibleError
from .serialize import matrix_from_json, matrix_to_json, suite_report

LEFT = "left"
RIGHT = "right"

# Largest supported generator count; N = 2^floor(13/2) = 64 keeps everything
# at desk scale (dense products of 64 x 64 matrices).
MAX_D = 13

# Residual thresholds: structural invariants in verify_rep, and the
# scalar-product test deciding irreducibility/handedness.
INVARIANT_TOL = 1e-12
SCALAR_TOL = 1e-10

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
# Upper-right entry +i; the opposite sign is equally common in the physics
# literature, and the handedness labels below are always computed from the
# generator product rather than assumed.
SIGMA_2 = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _frozen(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CliffordRep:
    """Ordered generators of a Clifford algebra representation."""

    d: int
    gammas: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(_frozen(g) for g in self.gammas))
        if len(self.gammas) != self.d:
            raise ValueError(f"expected {self.d} generators, got {len(self.gammas)}")

    @property
    def N(self) -> int:
        return self.gammas[0].shape[0]

    @cached_property
    def handedness(self) -> str | None:
        """:func:`handedness_of` the generators for odd d; None for even d,
        where the representation is unique up to unitary equivalence."""
        return handedness_of(self) if self.d % 2 else None

    def to_payload(self) -> dict:
        return {
            "d": self.d,
            "handedness": self.handedness,
            "gammas": [matrix_to_json(g) for g in self.gammas],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CliffordRep":
        """Representation from :meth:`to_payload` output.  A missing key or a
        ``d`` that is not a JSON integer is a ModelFormatError, and a
        ``handedness`` other than its generators' an
        InconsistentRepresentationError."""
        for key in ("d", "handedness", "gammas"):
            if key not in payload:
                raise ModelFormatError(f"representation is missing the {key!r} key")
        d = payload["d"]
        # type() rather than int(), which would take "1", true and 1.9 for 1.
        if type(d) is not int:
            raise ModelFormatError(f"'d' must be an integer, got {d!r}")
        rep = cls(d=d, gammas=tuple(matrix_from_json(g) for g in payload["gammas"]))
        if payload["handedness"] != rep.handedness:
            raise InconsistentRepresentationError(
                f"label says {payload['handedness']!r}, the generators give {rep.handedness!r}"
            )
        return rep


@dataclass(frozen=True)
class Grading:
    """Hermitian unitary anti-commuting with every generator of an even-d rep.

    ``matrix`` equals ``phase * Gamma_1 ... Gamma_d``; the phase is the unique
    fourth root of unity making the product Hermitian and normalized as in
    :func:`grading_of`.
    """

    matrix: np.ndarray
    phase: complex

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))


@dataclass(frozen=True)
class Violation:
    kind: str
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_residual(self) -> float:
        return max((v.residual for v in self.violations), default=0.0)


def _handedness_scalar(d: int) -> complex:
    """Reference scalar i^((d-1)/2) of the left-handed convention, odd d."""
    return 1j ** ((d - 1) // 2)


def _generator_product(rep: CliffordRep) -> np.ndarray:
    return reduce(np.matmul, rep.gammas)


def _product_scalar(rep: CliffordRep) -> tuple:
    """``(lam, residual)``: the generator product's top-left entry and its distance from lam I."""
    prod = _generator_product(rep)
    lam = prod[0, 0]
    return lam, max_abs(prod - lam * np.eye(rep.N, dtype=complex))


def build_rep(d: int, handedness: str = LEFT) -> CliffordRep:
    """Construct the irreducible representation with ``d`` generators.

    Base cases are the 1 x 1 representation (+1) and the Pauli matrices; higher
    dimensions come from :func:`extend`, and even d truncates the odd chain.
    Each level of that chain is built once per process and shared, as its
    generators are read-only.  For odd d the requested handedness is enforced
    by flipping the sign of the first generator when needed.  ``handedness``
    is ignored for even d.
    """
    # Checked before the cache, which would take 3.0 for 3.
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"generator count must be a positive integer, got {d!r}")
    if d > MAX_D:
        raise ValueError(f"d = {d} exceeds the supported maximum {MAX_D} (N <= 64)")
    if handedness not in (LEFT, RIGHT):
        raise ValueError(f"handedness must be 'left' or 'right', got {handedness!r}")

    rep = _odd_chain(d | 1)
    if d % 2 == 0:
        return CliffordRep(d=d, gammas=rep.gammas[:d])
    if rep.handedness != handedness:
        rep = flip_first(rep)
    return rep


@lru_cache(maxsize=None)
def _odd_chain(k: int) -> CliffordRep:
    """Level k (odd) of the chain: the 1 x 1 representation (+1), extended
    (k - 1) / 2 times."""
    if k == 1:
        return CliffordRep(d=1, gammas=(np.array([[1.0]], dtype=complex),))
    return extend(_odd_chain(k - 2))


def extend(rep: CliffordRep) -> CliffordRep:
    """Double the representation: d odd generators of size N become d+2 of size 2N.

    The first d generators are placed off-diagonally, and two new ones are
    appended:

        Gamma_i     = [[0, s_i], [s_i, 0]]      (i <= d)
        Gamma_(d+1) = [[0, i],   [-i, 0 ]]
        Gamma_(d+2) = [[1, 0],   [0, -1 ]]

    Truncating the result to its first d+1 matrices yields a representation
    with d+1 generators.
    """
    if rep.d % 2 == 0:
        raise ValueError(f"extend requires an odd generator count, got d = {rep.d}")
    if rep.d + 2 > MAX_D:
        raise ValueError(f"extension to d = {rep.d + 2} exceeds the maximum {MAX_D}")
    eye = np.eye(rep.N, dtype=complex)
    gammas = [np.kron(SIGMA_1, g) for g in rep.gammas]
    gammas.append(np.kron(SIGMA_2, eye))
    gammas.append(np.kron(SIGMA_3, eye))
    return CliffordRep(d=rep.d + 2, gammas=tuple(gammas))


def verify_rep(rep: CliffordRep) -> ValidationReport:
    """Check all representation invariants; residuals are max entry deviations."""
    violations = []
    n = rep.N
    eye = np.eye(n, dtype=complex)

    expected_n = 2 ** (rep.d // 2)
    if n != expected_n:
        violations.append(
            Violation("dimension", float(abs(n - expected_n)), f"N = {n}, expected {expected_n}")
        )
    for j, g in enumerate(rep.gammas):
        if g.shape != (n, n):
            violations.append(Violation("shape", 0.0, f"generator {j + 1} has shape {g.shape}"))
            return ValidationReport(tuple(violations))
        r = max_abs(g - dagger(g))
        if r > INVARIANT_TOL:
            violations.append(Violation("hermiticity", r, f"generator {j + 1}"))
        r = max_abs(g @ g - eye)
        if r > INVARIANT_TOL:
            violations.append(Violation("unitarity", r, f"generator {j + 1} squared"))
    for i in range(rep.d):
        for j in range(i + 1, rep.d):
            r = max_abs(rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i])
            if r > INVARIANT_TOL:
                violations.append(
                    Violation("anti-commutation", r, f"generators {i + 1}, {j + 1}")
                )

    if rep.d % 2 == 1 and not violations:
        lam, r = _product_scalar(rep)
        if r > INVARIANT_TOL:
            violations.append(Violation("scalar-product", r, "generator product not scalar"))
        else:
            ref = _handedness_scalar(rep.d)
            r = min(abs(lam - ref), abs(lam + ref))
            if r > INVARIANT_TOL:
                violations.append(Violation("handedness-scalar", float(r), f"lambda = {lam}"))
    return ValidationReport(tuple(violations))


def verify_reps(d: int = 9) -> dict:
    """Suite report of :func:`verify_rep` on every representation with 1 to
    ``d`` generators, both handednesses for odd counts; ``samples`` counts the
    representations and PASS needs every residual to be exactly 0."""
    if d < 1:
        raise ValueError(f"the clifford suite needs d >= 1, got {d}")
    residuals = [verify_rep(build_rep(k, hand)).max_residual
                 for k in range(1, d + 1) for hand in ((LEFT, RIGHT) if k % 2 else (LEFT,))]
    return suite_report("clifford", d, len(residuals), max(residuals), max(residuals) == 0.0)


def handedness_of(rep: CliffordRep) -> str:
    """Label the representation by the scalar value of its generator product."""
    if rep.d % 2 == 0:
        raise ValueError("handedness is defined only for odd generator counts")
    lam, r = _product_scalar(rep)
    if r > SCALAR_TOL:
        raise NotIrreducibleError(
            "generator product is not scalar; representation is not irreducible"
        )
    ref = _handedness_scalar(rep.d)
    if abs(lam - ref) <= SCALAR_TOL:
        return LEFT
    if abs(lam + ref) <= SCALAR_TOL:
        return RIGHT
    raise InconsistentRepresentationError(
        f"product scalar {lam} differs from both +-i^((d-1)/2) = +-{ref}"
    )


def flip_first(rep: CliffordRep) -> CliffordRep:
    """Negate the first generator; toggles the handedness for odd d."""
    return CliffordRep(d=rep.d, gammas=(-rep.gammas[0],) + rep.gammas[1:])


def grading_of(rep: CliffordRep) -> Grading:
    """Hermitian unitary grading of an even-d representation.

    Returns ``phase * Gamma_1 ... Gamma_d``.  The product of Hermitian
    generators is Hermitian or anti-Hermitian, so one test decides between the
    phases +-1 and +-i; the sign is chosen so that representations built by
    :func:`build_rep`/:func:`extend` and their truncations yield the block
    matrix diag(1, -1).
    """
    if rep.d % 2 != 0:
        raise ValueError("grading is defined for even generator counts")
    prod = _generator_product(rep)
    phase = 1 if max_abs(prod - dagger(prod)) <= SCALAR_TOL else 1j
    mat = phase * prod
    if max_abs(mat - dagger(mat)) > SCALAR_TOL or max_abs(mat @ mat - np.eye(rep.N)) > SCALAR_TOL:
        raise InconsistentRepresentationError(
            "no fourth root of unity makes the generator product a Hermitian unitary"
        )

    def _score(mat):
        # First significant diagonal entry (real for Hermitian matrices), or
        # failing that the first significant entry in row-major order.
        diag = np.real(np.diagonal(mat))
        significant = diag[np.abs(diag) > 1e-9]
        if significant.size:
            return (float(significant[0]), 0.0)
        flat = mat.ravel()
        entry = flat[np.abs(flat) > 1e-9][0]
        return (float(entry.real), float(entry.imag))

    if _score(-mat) > _score(mat):
        phase, mat = -phase, -phase * prod

    for j, g in enumerate(rep.gammas):
        if max_abs(mat @ g + g @ mat) > SCALAR_TOL:
            raise InconsistentRepresentationError(
                f"grading does not anti-commute with generator {j + 1}"
            )
    return Grading(matrix=mat, phase=complex(phase))
