"""Matrix-valued fields on R^m.

:class:`MatrixPolyField` stores a matrix polynomial as a map from multi-indices
to coefficient matrices.  Evaluation and partial derivatives are exact, which
is what lets the charge quadratures downstream avoid numerical
differentiation altogether.  :class:`EvaluableField` wraps an arbitrary
batch evaluator for the non-polynomial objects (bounded transforms,
connecting-map images).  A field is its coefficients or its evaluator alone:
it is restricted to a sphere or a ball only where a caller samples it (the
charge grids, the verify suites' points).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from ._linalg import dagger, max_abs
from .errors import DimensionMismatchError, HermiticityError, ModelFormatError
from .serialize import poly_from_json, terms_to_json

# A coefficient identity (Hermiticity, anti-commutation with a grading) holds
# when its residual is at most this times the largest coefficient entry of
# the field, so rescaling a field never changes the verdict.
COEFFICIENT_TOL = 1e-12


def unit_index(j: int, m: int) -> tuple:
    """Multi-index of the monomial x_j (0-based j) in m variables."""
    alpha = [0] * m
    alpha[j] = 1
    return tuple(alpha)


def check_point(x, ambient_dim: int) -> np.ndarray:
    """``x`` as a float array of shape (ambient_dim,), the one point that a
    field's ``evaluate`` takes; any other shape is refused, by name."""
    point = np.asarray(x, dtype=float)
    if point.shape != (ambient_dim,):
        raise DimensionMismatchError(f"a point must have shape {(ambient_dim,)}, got {point.shape}")
    return point


@dataclass(frozen=True)
class MatrixPolyField:
    """Polynomial field  x -> sum_alpha x^alpha M_alpha  with N x N coefficients."""

    ambient_dim: int
    size: int
    terms: dict

    def __post_init__(self):
        # The one check of the coefficient schema, for read and derived fields alike.
        try:  # index() refuses 3.0, which would be written to JSON as 3.0
            ambient_dim, n = operator.index(self.ambient_dim), operator.index(self.size)
        except TypeError:
            raise ModelFormatError(f"'dimension' and 'size' must be integers, "
                                   f"got {self.ambient_dim!r} and {self.size!r}") from None
        if ambient_dim < 1 or n < 1:
            raise ModelFormatError(f"'dimension' and 'size' must be >= 1, got {ambient_dim} and {n}")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "size", n)
        frozen = {}
        for key, mat in self.terms.items():
            try:  # index() refuses 1.5 and "2", which int() would truncate or parse
                alpha = tuple(map(operator.index, key))
            except TypeError:
                alpha = ()  # refused just below: the dimension is at least 1
            if len(alpha) != self.ambient_dim or any(a < 0 for a in alpha):
                raise ModelFormatError(f"bad multi-index {key} for dimension {self.ambient_dim}")
            if max(alpha, default=0) > np.iinfo(np.int64).max:  # numpy's power exponent
                raise ModelFormatError("powers must fit a signed 64-bit integer (below 2^63)")
            mat = np.array(mat, dtype=complex)
            if mat.shape != (n, n):
                raise ModelFormatError(
                    f"coefficient of {alpha} has shape {mat.shape}, expected {(n, n)}"
                )
            if not np.isfinite(mat).all():
                raise ModelFormatError(f"coefficient of {alpha} is not finite")
            mat.setflags(write=False)
            frozen[alpha] = mat
        object.__setattr__(self, "terms", MappingProxyType(frozen))
        # Coefficients as real rows (T, 2 N^2): evaluation is then a real GEMM.
        stacked = np.array(list(frozen.values()), dtype=complex).view(float)
        object.__setattr__(self, "_stacked", stacked.reshape(len(frozen), 2 * n**2))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_batch(check_point(x, self.ambient_dim)[None])[0]

    def evaluate_batch(self, points, tangents=None, out=None):
        """Values (M, N, N) at (M, m) points; with tangents (M, k, m), the pair
        ``(values, derivatives)``, the derivatives along the tangents (M, k, N, N),
        written into ``out`` when it is given: a pair of C-contiguous complex
        arrays of exactly those shapes (any other ``out`` is refused).

        One pass over the terms builds the monomials as (T, M) rows and their
        product-rule derivatives as (T, M, k), from each coordinate's column
        of the points and (M, k) block of the tangents; each is multiplied once
        by the stacked coefficients, as the transposed operand of a real GEMM,
        so the results come out node-first.  The columns and blocks are
        contiguous runs for the coordinate-major grid rows of the charge
        kernels, and any layout gives the same bits.  A power of 1 skips
        x ** 1, x ** 0 and the products by 1, which are exact, so a linear
        term's derivative is its tangent component, added to 0.0.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"points must have shape (M, {self.ambient_dim}), got {pts.shape}"
            )
        n_terms, n, m = len(self.terms), self.size, len(pts)
        if tangents is None:
            if out is not None:
                raise ValueError("out holds values and derivatives; pass the tangents too")
        else:
            tan = np.asarray(tangents, dtype=float)
            if tan.ndim != 3 or (tan.shape[0], tan.shape[2]) != pts.shape:
                raise DimensionMismatchError(
                    f"tangents must have shape ({m}, k, {self.ambient_dim}), got {tan.shape}"
                )
            k = tan.shape[1]
            out = _checked_out(out, ((m, n, n), (m, k, n, n)))
            dmono = np.zeros((n_terms, m, k))
        mono = np.empty((n_terms, m))
        for t, alpha in enumerate(self.terms):
            powers = {j: pts[:, j] if p == 1 else pts[:, j] ** p for j, p in enumerate(alpha) if p}
            value = _product(powers.values())
            mono[t] = 1.0 if value is None else value
            if tangents is None:
                continue
            for j in powers:
                slope = _product(v for i, v in powers.items() if i != j)
                if alpha[j] > 1:
                    factor = alpha[j] * pts[:, j] ** (alpha[j] - 1)
                    slope = factor if slope is None else factor * slope
                dmono[t] += tan[:, :, j] if slope is None else tan[:, :, j] * slope[:, None]
        if tangents is None:
            return (mono.T @ self._stacked).view(complex).reshape(m, n, n)
        for rows, result in zip((mono, dmono.reshape(n_terms, m * k)), out):
            np.matmul(rows.T, self._stacked, out=result.view(float).reshape(rows.shape[1], 2 * n * n))
        return out

    # -- algebra ------------------------------------------------------------

    def derivative(self, j: int) -> "MatrixPolyField":
        """Exact partial derivative with respect to x_j (0-based)."""
        if not 0 <= j < self.ambient_dim:
            raise ValueError(f"axis {j} out of range")
        new_terms: dict = {}
        for alpha, mat in self.terms.items():
            if alpha[j]:
                beta = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                new_terms[beta] = new_terms.get(beta, 0) + alpha[j] * mat
        return replace(self, terms=new_terms)

    def direct_sum(self, other: "MatrixPolyField") -> "MatrixPolyField":
        """Block-diagonal sum; charges of the summands add."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("direct sum requires matching ambient dimensions")
        n = self.size
        new_terms: dict = {}
        for alpha in {**self.terms, **other.terms}:
            block = new_terms[alpha] = np.zeros((n + other.size,) * 2, dtype=complex)
            block[:n, :n] = self.terms.get(alpha, 0)
            block[n:, n:] = other.terms.get(alpha, 0)
        return replace(self, size=n + other.size, terms=new_terms)

    def reflect(self, j: int) -> "MatrixPolyField":
        """Compose with the coordinate reflection x_j -> -x_j."""
        new_terms = {alpha: (-mat if alpha[j] % 2 else mat) for alpha, mat in self.terms.items()}
        return replace(self, terms=new_terms)

    def conjugated_by(self, w) -> "MatrixPolyField":
        """Pointwise conjugation W* F(x) W by a constant matrix W."""
        w = np.asarray(w, dtype=complex)
        wd = w.conj().T
        return replace(self, terms={alpha: wd @ mat @ w for alpha, mat in self.terms.items()})

    def plus(self, other: "MatrixPolyField") -> "MatrixPolyField":
        if (other.ambient_dim, other.size) != (self.ambient_dim, self.size):
            raise DimensionMismatchError("sum requires matching shapes")
        new_terms = dict(self.terms)
        for alpha, mat in other.terms.items():
            new_terms[alpha] = new_terms.get(alpha, 0) + mat
        return replace(self, terms=new_terms)

    def shifted(self, c: float) -> "MatrixPolyField":
        """The field x -> F(x) - c I, the one home of the Fermi fold: -c I is
        folded into the constant coefficient, so that c cancels before
        evaluation rounds.  The field itself when c is 0; a sum that overflows
        is refused by the constructor, as not finite."""
        if not c:
            return self
        minus = {(0,) * self.ambient_dim: -c * np.eye(self.size)}
        with np.errstate(over="ignore"):
            return self.plus(replace(self, terms=minus))

    def affine_pullback(self, center, radius: float) -> "MatrixPolyField":
        """Exact recomposition under x = center + radius * u.

        Its values at unit vectors u are the field's on the sphere
        |x - center| = radius.  The charge kernels do not use it: they evaluate
        the field itself on the moved grid.  A coefficient that overflows is
        refused by the constructor, as not finite.
        """
        center = np.asarray(center, dtype=float)
        if center.shape != (self.ambient_dim,):
            raise DimensionMismatchError("center must match the ambient dimension")
        radius = np.float64(radius)  # its powers then overflow to inf, not OverflowError
        new_terms: dict = {}
        with np.errstate(over="ignore", invalid="ignore"):  # replace() refuses inf and NaN
            for alpha, mat in self.terms.items():
                for ks in itertools.product(*[range(a + 1) for a in alpha]):
                    coeff = 1.0
                    for a, k, c in zip(alpha, ks, center):
                        coeff *= math.comb(a, k) * c ** (a - k) * radius**k
                    if coeff == 0.0:
                        continue
                    new_terms[ks] = new_terms.get(ks, 0) + coeff * mat
        return replace(self, terms=new_terms)

    # -- decoupled sectors ----------------------------------------------------

    @cached_property
    def sectors(self) -> tuple:
        """The field split into its decoupled blocks: one sub-field per
        connected component of the indices, where i and j are joined when some
        coefficient has M[i, j] or M[j, i] nonzero, with the sub-blocks M[b, b]
        as coefficients, in order of their lowest index.  ``(self,)`` when
        there is one component.

        The field is unitarily a direct sum of these, so its spectrum and
        singular values are the union of theirs, and its charges the sum of
        theirs.  The charge kernels and the gap scan take exact closed forms on
        the bands and the inverse of a sector of size at most 2."""
        coupled = np.any(self._stacked.reshape(-1, self.size, self.size, 2) != 0, axis=(0, 3))
        reach = coupled | coupled.T | np.eye(self.size, dtype=bool)
        # Each boolean square doubles the path length that reach covers.
        for _ in range((self.size - 1).bit_length()):
            reach = reach @ reach
        blocks = sorted({tuple(np.flatnonzero(row)) for row in reach})
        if len(blocks) == 1:
            return (self,)
        return tuple(
            replace(self, size=len(b), terms={a: m[np.ix_(b, b)] for a, m in self.terms.items()})
            for b in blocks
        )

    # -- checks and serialization -------------------------------------------

    def failing_terms(self, residual) -> list:
        """Sorted multi-indices alpha whose ``residual(M_alpha)`` exceeds
        COEFFICIENT_TOL times the largest coefficient entry of the field.  A
        residual past float range is inf, which fails, and warns nothing."""
        bound = COEFFICIENT_TOL * max((max_abs(m) for m in self.terms.values()), default=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            return sorted(alpha for alpha, mat in self.terms.items() if residual(mat) > bound)

    def non_hermitian_terms(self) -> list:
        """The :meth:`failing_terms` of Hermiticity, M_alpha = M_alpha^*."""
        return self.failing_terms(lambda mat: max_abs(mat - dagger(mat)))

    @cached_property
    def selfadjoint(self) -> bool:
        """Whether every coefficient is Hermitian (no :meth:`non_hermitian_terms`)."""
        return not self.non_hermitian_terms()

    def to_payload(self) -> dict:
        return {
            "dimension": self.ambient_dim,
            "size": self.size,
            "selfadjoint": self.selfadjoint,
            "terms": terms_to_json(dict(self.terms)),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MatrixPolyField":
        """Field from :meth:`to_payload` output; a flag it cannot hold is a
        ModelFormatError, and ``selfadjoint: true`` needs Hermitian coefficients.
        With ``false`` the field still reports what its coefficients say.  Other
        keys are ignored: the ``"name"`` that ``kgen generator`` writes, and the
        ``"domain"`` tag of older files."""
        ambient, size, terms = poly_from_json(payload)
        selfadjoint = payload.get("selfadjoint", False)
        if not isinstance(selfadjoint, bool):
            raise ModelFormatError(f"'selfadjoint' must be true or false, got {selfadjoint!r}")
        field = cls(ambient, size, terms)
        if selfadjoint and not field.selfadjoint:
            raise HermiticityError(f"'selfadjoint' is true but the coefficients at multi-indices "
                                   f"{field.non_hermitian_terms()} are not Hermitian")
        return field


def _checked_out(out, shapes):
    """``out`` as the pair of C-contiguous complex arrays of ``shapes`` that
    :meth:`MatrixPolyField.evaluate_batch` writes into (fresh when None); any
    other pair is refused, since the GEMM would write into a reshaped copy of
    a strided one, or fail on a wrong size."""
    if out is None:
        return tuple(np.empty(shape, dtype=complex) for shape in shapes)
    if not (isinstance(out, (tuple, list)) and len(out) == 2 and all(
            isinstance(a, np.ndarray) and a.dtype == complex and a.shape == shape
            and a.flags.c_contiguous and a.flags.writeable for a, shape in zip(out, shapes))):
        raise DimensionMismatchError(
            f"out must be a pair of C-contiguous, writeable complex arrays of shapes "
            f"{shapes[0]} and {shapes[1]}"
        )
    return out


def _product(factors):
    """The factors multiplied left to right, None when there are none.  Unlike
    ``math.prod`` it does not start from 1, whose product is exact but costs a
    pass over the nodes."""
    factors = iter(factors)
    first = next(factors, None)
    return None if first is None else reduce(operator.mul, factors, first)


@dataclass(frozen=True)
class EvaluableField:
    """General matrix-valued function given by a batch evaluator.

    ``evaluator`` maps an (M, ambient_dim) array of points to the (M, size,
    size) stack of values at those points.
    """

    ambient_dim: int
    size: int
    evaluator: object = field(repr=False)

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_batch(check_point(x, self.ambient_dim)[None])[0]

    def evaluate_batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"points must have shape (M, {self.ambient_dim}), got {pts.shape}"
            )
        out = np.asarray(self.evaluator(pts), dtype=complex)
        if out.shape != (pts.shape[0], self.size, self.size):
            raise DimensionMismatchError(
                f"evaluator returned shape {out.shape} for {pts.shape[0]} points"
            )
        return out
