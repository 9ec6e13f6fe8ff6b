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

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations

import numpy as np

from ._linalg import dagger, max_abs
from .errors import InconsistentRepresentationError, ModelFormatError, NotIrreducibleError
from .serialize import matrix_from_json, matrix_to_json, suite_report

LEFT = "left"
RIGHT = "right"

# Largest supported generator count; N = 2^floor(13/2) = 64 keeps everything
# at desk scale (dense products of 64 x 64 matrices).
MAX_D = 13

# Residual thresholds: the Clifford relations (verify_rep, grading_of and
# from_payload), and the scalar-product test of handedness_of.
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
        # The one check of the generator schema: d >= 1 finite N x N matrices.
        try:  # index() refuses 3.0, which would be written to JSON as 3.0
            d = operator.index(self.d)
        except TypeError:
            raise ModelFormatError(f"a representation needs an integer d, got {self.d!r}") from None
        if d < 1:
            raise ModelFormatError(f"a representation needs d >= 1, got {d}")
        gammas = tuple(_frozen(g) for g in self.gammas)
        if len(gammas) != d:
            raise ModelFormatError(f"expected {d} generators, got {len(gammas)}")
        # (N, N), N the first generator's row count, or 1 for a scalar
        square = (gammas[0].shape[:1] or (1,)) * 2
        for j, g in enumerate(gammas, 1):
            if g.ndim != 2 or g.shape != square:
                raise ModelFormatError(f"generator {j} has shape {g.shape}, expected {square}")
            if not np.isfinite(g).all():
                raise ModelFormatError(f"generator {j} is not finite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gammas", gammas)

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
        """Representation from :meth:`to_payload` output.  A missing key, a
        ``d`` that is not a JSON integer, ``gammas`` that are not a list or a
        refusal of the constructor is a ModelFormatError; generators that fail
        :func:`verify_rep`, and then a ``handedness`` other than theirs, are an
        InconsistentRepresentationError."""
        for key in ("d", "handedness", "gammas"):
            if key not in payload:
                raise ModelFormatError(f"representation is missing the {key!r} key")
        d = payload["d"]
        # type() rather than index(), which would take JSON's true for 1.
        if type(d) is not int:
            raise ModelFormatError(f"'d' must be an integer, got {d!r}")
        gammas = payload["gammas"]
        if type(gammas) is not list:
            raise ModelFormatError(f"'gammas' must be a list, got {type(gammas).__name__}")
        rep = cls(d=d, gammas=tuple(matrix_from_json(g) for g in gammas))
        _refuse_violation(verify_rep(rep).violations)
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


def _relation_violations(rep: CliffordRep) -> list:
    """Violations of the Clifford relations, the one statement of them: every
    generator a Hermitian unitary, and Gamma_i Gamma_j + Gamma_j Gamma_i = 0
    for i != j.  A residual that is not at most INVARIANT_TOL, NaN included,
    is a violation."""
    herm, unit, anti = _relation_residuals(rep.gammas, rep.N)
    violations = []
    for j in range(rep.d):
        if not herm[j] <= INVARIANT_TOL:
            violations.append(Violation("hermiticity", herm[j], f"generator {j + 1}"))
        if not unit[j] <= INVARIANT_TOL:
            violations.append(Violation("unitarity", unit[j], f"generator {j + 1} squared"))
    for (i, j), r in zip(combinations(range(rep.d), 2), anti):
        if not r <= INVARIANT_TOL:
            violations.append(Violation("anti-commutation", r, f"generators {i + 1}, {j + 1}"))
    return violations


def _relation_residuals(gammas, n: int) -> tuple:
    """Max entry deviations of the N x N ``gammas``: the Hermiticity and the
    unitarity residual of each generator, and the anti-commutation residual of
    each pair i < j in :func:`itertools.combinations` order.

    When every generator is a signed permutation (:func:`_signed_permutation`)
    they come from that form in O(d^2 N).  Each entry of a product is then one
    product of two entries, so the residuals have the dense products' bits
    whenever those are exact, as for entries in {0, +-1, +-i}.  Any other
    input, such as a representation mixed by a dense unitary, takes the dense
    products.  A product that overflows gives an inf or NaN residual, not a
    warning."""
    forms = [_signed_permutation(g) for g in gammas]
    with np.errstate(over="ignore", invalid="ignore"):
        if None not in forms:
            return _permutation_residuals(np.stack([p for p, _ in forms]), np.stack([v for _, v in forms]))
        eye = np.eye(n, dtype=complex)
        return ([max_abs(g - dagger(g)) for g in gammas],
                [max_abs(g @ g - eye) for g in gammas],
                [max_abs(a @ b + b @ a) for a, b in combinations(gammas, 2)])


def _signed_permutation(g: np.ndarray):
    """(perm, vals) with g[r, perm[r]] = vals[r] the only nonzero entries, when
    g has exactly one nonzero entry in each row and each column; None
    otherwise."""
    rows, perm = np.nonzero(g)
    if rows.tolist() != list(range(len(g))) or sorted(perm.tolist()) != rows.tolist():
        return None
    return perm, g[rows, perm]


def _permutation_residuals(perms: np.ndarray, vals: np.ndarray) -> tuple:
    """:func:`_relation_residuals` of the d signed permutations (perms[k],
    vals[k]), given as two (d, N) arrays, with no array larger than (d, N)."""
    d, n = perms.shape
    rows = np.arange(n)
    # The adjoint holds conj(vals[r]) at (perm[r], r).
    inv = np.empty_like(perms)
    inv[np.arange(d)[:, None], perms] = rows
    herm = _difference(perms, vals, inv, np.take_along_axis(vals, inv, 1).conj())
    # A A holds vals[r] vals[perm[r]] at (r, perm[perm[r]]).
    squared = np.take_along_axis(perms, perms, 1), vals * np.take_along_axis(vals, perms, 1)
    unit = _difference(*squared, rows, 1.0)
    anti = []
    for i, (perm, val) in enumerate(zip(perms[:-1], vals[:-1])):
        # For each j > i, A_i A_j holds val[r] vals_j[perm[r]] at
        # (r, perm_j[perm[r]]), and A_j A_i holds vals_j[r] val[perm_j[r]] at
        # (r, perm[perm_j[r]]).
        later_perms, later_vals = perms[i + 1:], vals[i + 1:]
        anti += _difference(later_perms[:, perm], val * later_vals[:, perm],
                            perm[later_perms], -(later_vals * val[later_perms])).tolist()
    return herm.tolist(), unit.tolist(), anti


def _difference(perm_a, vals_a, perm_b, vals_b) -> np.ndarray:
    """max_abs(A - B) of signed permutations, over the last axis: |a - b| on
    a row where they share a column, else the larger of |a| and |b|, since
    every other entry of A - B is 0 - 0; 0.0 for N = 0."""
    shared = np.abs(vals_a - vals_b)
    apart = np.maximum(np.abs(vals_a), np.abs(vals_b))
    return np.where(perm_a == perm_b, shared, apart).max(axis=-1, initial=0.0)


def _refuse_violation(violations) -> None:
    """Raise InconsistentRepresentationError naming the first violation, if any."""
    if violations:
        v = violations[0]
        raise InconsistentRepresentationError(
            f"not a Clifford representation: {v.kind} ({v.detail}), residual {v.residual:.3g}"
        )


def verify_rep(rep: CliffordRep) -> ValidationReport:
    """Check the dimension N = 2^floor(d/2) and the Clifford relations;
    residuals are max entry deviations.  Together they make the
    representation irreducible, so for odd d the generator product is
    +-i^((d-1)/2) I and needs no check of its own."""
    n, expected_n = rep.N, 2 ** (rep.d // 2)
    violations = [] if n == expected_n else [
        Violation("dimension", float(abs(n - expected_n)), f"N = {n}, expected {expected_n}")
    ]
    return ValidationReport(tuple(violations + _relation_violations(rep)))


def verify_reps(d: int = 9) -> dict:
    """Suite report of :func:`verify_rep` on every representation with 1 to
    ``d`` generators, both handednesses for odd counts; ``samples`` counts the
    representations.  PASS means that none has a violation: every residual is
    at most INVARIANT_TOL, and ``max_residual`` is 0.0 when there is none."""
    if d < 1:
        raise ValueError(f"the clifford suite needs d >= 1, got {d}")
    residuals = [verify_rep(build_rep(k, hand)).max_residual
                 for k in range(1, d + 1) for hand in ((LEFT, RIGHT) if k % 2 else (LEFT,))]
    return suite_report("clifford", d, len(residuals), max(residuals), max(residuals) == 0.0)


def handedness_of(rep: CliffordRep) -> str:
    """Label the representation by the scalar value of its generator product,
    +i^((d-1)/2) (left) or -i^((d-1)/2) (right); the product is tested here,
    as nothing requires ``rep`` to pass :func:`verify_rep`."""
    if rep.d % 2 == 0:
        raise ValueError("handedness is defined only for odd generator counts")
    if rep.N == 0:  # the constructor accepts 0 x 0 generators; no product scalar to read
        raise InconsistentRepresentationError(
            "a representation of size N = 0 has no generator product scalar"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        prod = reduce(np.matmul, rep.gammas)
        lam = prod[0, 0]
        off_scalar = max_abs(prod - lam * np.eye(rep.N, dtype=complex))
    if off_scalar > SCALAR_TOL:
        raise NotIrreducibleError(
            "generator product is not scalar; representation is not irreducible"
        )
    ref = 1j ** ((rep.d - 1) // 2)
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

    Returns ``phase * Gamma_1 ... Gamma_d``; generators that fail the
    Clifford relations are an InconsistentRepresentationError.  The relations
    alone, reducible representations included, make the product P
    anti-commute with every generator, with P^dagger = s P and P^2 = s I for
    s = (-1)^(d(d-1)/2); so the phase is +-1 for s = 1 and +-i for s = -1.
    The sign is chosen so that representations built by
    :func:`build_rep`/:func:`extend` and their truncations yield the block
    matrix diag(1, -1).
    """
    if rep.d % 2 != 0:
        raise ValueError("grading is defined for even generator counts")
    _refuse_violation(_relation_violations(rep))
    prod = reduce(np.matmul, rep.gammas)
    phase = 1j if rep.d * (rep.d - 1) // 2 % 2 else 1
    mat = phase * prod

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
    return Grading(matrix=mat, phase=complex(phase))
