"""Band-crossing detection and charging for momentum-space models.

A model is a Hermitian matrix polynomial h(x) on R^m (m = 2 or 3) with an
optional chiral symmetry J (a Hermitian unitary anti-commuting with h) and a
Fermi level.  Crossings are points where the spectral gap at the Fermi level
closes; each isolated crossing is enclosed by a small sphere and assigned the
integer charge of the restricted field: the S^2 Chern number for m = 3, or the
winding of the chiral off-diagonal block on the enclosing circle for m = 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import charge as charge_mod
from . import generators
from ._linalg import chunks, pauli_split
from .errors import (
    ChiralSymmetryError,
    EnclosureInvalidError,
    GapClosedError,
    HermiticityError,
    KgenError,
    MissingChiralError,
    ModelFormatError,
    ModelOverflowError,
)
from .fields import MatrixPolyField
from .serialize import json_text, matrix_from_json, matrix_to_json, poly_from_json, terms_to_json

# A refined gap minimum below GAP_TOL is a crossing, crossings within
# MERGE_RADIUS of each other are merged, and enclosures are at most MAX_RADIUS.
GAP_TOL = 1e-8
MERGE_RADIUS = 1e-3
MAX_RADIUS = 0.5

# The pattern search stops after SEARCH_MAX_ITER polls or below SEARCH_MIN_STEP.
SEARCH_MAX_ITER = 200
SEARCH_MIN_STEP = 1e-12

WEYL = "weyl"
DIRAC_CHIRAL = "dirac-chiral"
TRIVIAL = "trivial"
UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class BandModel:
    """Validated momentum-space Hamiltonian."""

    field: MatrixPolyField
    chiral: np.ndarray | None = None
    fermi: float = 0.0
    name: str | None = None
    comment: str | None = None

    def __post_init__(self):
        if self.field.ambient_dim not in (2, 3):
            raise ModelFormatError(
                f"supported model dimensions are 2 and 3, got {self.field.ambient_dim}"
            )
        if not np.isfinite(self.fermi):
            raise ModelFormatError(f"Fermi level must be finite, got {self.fermi}")
        for key, value in (("name", self.name), ("comment", self.comment)):
            if value is not None and not isinstance(value, str):
                raise ModelFormatError(f"{key!r} must be a string or null, got {value!r}")
        if not self.field.selfadjoint:
            bad = self.field.non_hermitian_terms()
            raise HermiticityError(f"non-Hermitian coefficients at multi-indices {bad}")

        if self.chiral is not None:
            j = np.array(self.chiral, dtype=complex)
            j.setflags(write=False)
            object.__setattr__(self, "chiral", j)
            n = self.field.size
            if j.shape != (n, n):
                raise ChiralSymmetryError(f"chiral matrix has shape {j.shape}, expected {(n, n)}")
            if self.dimension == 2:
                # The winding charges zeros of h, so a crossing at fermi != 0
                # would be a Fermi line read as points; chirality pins them at 0.
                if self.fermi:
                    raise ChiralSymmetryError(
                        f"a two-dimensional chiral model has its crossings at energy 0; "
                        f"fermi must be 0, got {self.fermi}"
                    )
                self.chiral_block  # built once, here; chiral_lower_block checks J
            else:
                generators.grading_eigenvectors(self.field, j)
        # h - fermi I, the field the gap and the Chern number read.
        object.__setattr__(self, "_shifted", self.field.shifted(self.fermi))

    @property
    def dimension(self) -> int:
        return self.field.ambient_dim

    @property
    def size(self) -> int:
        return self.field.size

    @property
    def terms(self):
        return self.field.terms

    @cached_property
    def chiral_block(self) -> MatrixPolyField:
        """Lower-left block of the field in the eigenbasis of the chiral matrix,
        whose winding is the charge of a two-dimensional crossing; a
        two-dimensional model builds it when it is constructed."""
        if self.chiral is None:
            raise MissingChiralError(
                "two-dimensional charges need a chiral symmetry; model has none"
            )
        return generators.chiral_lower_block(self.field, self.chiral)

    def to_payload(self) -> dict:
        return {
            "dimension": self.dimension,
            "size": self.size,
            "fermi": float(self.fermi),
            "terms": terms_to_json(dict(self.field.terms)),
            "chiral": None if self.chiral is None else matrix_to_json(self.chiral),
            "name": self.name,
            "comment": self.comment,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BandModel":
        fld = MatrixPolyField(*poly_from_json(payload))
        chiral = payload.get("chiral")
        if chiral is not None:
            chiral = matrix_from_json(chiral)
        fermi = payload.get("fermi", 0.0)
        # type() rather than float(), which would take JSON's true and "0.25" for numbers.
        if type(fermi) not in (int, float):
            raise ModelFormatError(f"'fermi' must be a number, got {fermi!r}")
        try:
            fermi = float(fermi)
        except OverflowError:  # an integer literal beyond float range
            raise ModelFormatError("'fermi' is an integer beyond float range") from None
        return cls(
            field=fld,
            chiral=chiral,
            fermi=fermi,
            name=payload.get("name"),
            comment=payload.get("comment"),
        )


@dataclass(frozen=True)
class CrossingReport:
    location: tuple
    gap_at_location: float
    enclosure_radius: float | None
    charge: charge_mod.ChargeResult | None
    classification: str
    radius_capped: bool = False
    error: str | None = None

    def to_payload(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "gap_at_location": float(self.gap_at_location),
            "enclosure_radius": None
            if self.enclosure_radius is None
            else float(self.enclosure_radius),
            "charge": None if self.charge is None else self.charge.to_payload(),
            "classification": self.classification,
            "radius_capped": bool(self.radius_capped),
            "error": self.error,
        }


def load_model(path) -> BandModel:
    """Read and validate a band-model JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from None
    return BandModel.from_payload(payload)


def save_model(model: BandModel, path) -> None:
    text = json_text(model.to_payload())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def gap_at(model: BandModel, x) -> float:
    """Distance of the spectrum of h(x) to the Fermi level; ``x`` must be a
    finite point of R^m."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dimension,):
        raise ValueError(f"point must have shape ({model.dimension},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point must be finite, got {x.tolist()}")
    return float(_gap_batch(model, x[None, :])[0])


def _gap_batch(model: BandModel, points: np.ndarray) -> np.ndarray:
    """Gaps at (M, m) points, at most one ``_linalg.chunks`` run of them; a
    point where the model overflows is refused with ModelOverflowError.

    The gap is the smallest over the sectors of h - fermi I
    (``MatrixPolyField.sectors``), whose spectra make up that of the field.
    A 2 x 2 sector has the bands f0 - s and f0 + s at each point, and a 1 x 1
    one the band f0, with s = 0 (``_linalg.pauli_split``), so its gap is
    ||f0| - s| with no eigensolver; larger sectors go to ``eigvalsh``.  A
    sector's values, which can overflow, are tested once for all points, since
    ``eigvalsh`` does not converge on inf or NaN: the first point where they
    are not finite is named.  When they are, the gap is tested, and the first
    point where it is not finite is named.  On the Pauli path the gap of finite
    values is finite (its sums are halved and its norm falls back to
    ``hypot``); on the ``eigvalsh`` path it overflows with an eigenvalue past
    float range.
    """
    gaps = np.full(len(points), np.inf)
    coords = np.empty(4 * len(points))  # room for pauli_split
    for field in model._shifted.sectors:
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            h = field.evaluate_batch(points)
            values = h.view(float).reshape(len(points), -1)
            if not np.isfinite(values).all():
                finite = np.isfinite(values).all(axis=1)
            else:
                if field.size <= 2:
                    f0, _, s = pauli_split((h,), coords)
                    gap = np.abs(np.abs(f0) - s)
                else:
                    gap = np.min(np.abs(np.linalg.eigvalsh(h)), axis=1)
                finite = np.isfinite(gap)
        if not finite.all():
            where = points[np.argmin(finite)].tolist()
            raise ModelOverflowError(f"gap is not finite at {where}; the model overflows there")
        np.minimum(gaps, gap, out=gaps)
    return gaps


def _box_grid(box, dim: int, n: int):
    """Validated box and the n values of each of its axes, ``(box, axes)``;
    no point array (:func:`_grid_gaps` builds the points chunk by chunk).  A
    grid of more than ``charge.MAX_GRID_NODES`` nodes is refused before
    anything is allocated."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != dim:
        raise ValueError(f"box must have {dim} (lo, hi) pairs")
    if not np.all(np.isfinite(box)):
        raise ValueError(f"box bounds must be finite, got {box}")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box intervals must be nondegenerate")
    nodes = int(n) ** dim  # a Python int, which cannot wrap as numpy's int64 would
    if nodes > charge_mod.MAX_GRID_NODES:
        raise ValueError(f"grid {n} is too fine: its box grid in {dim}-D has {nodes} nodes, "
                         f"more than MAX_GRID_NODES = {charge_mod.MAX_GRID_NODES}")
    return box, [np.linspace(lo, hi, n) for lo, hi in box]


def _grid_gaps(model: BandModel, axes) -> np.ndarray:
    """Gaps on the grid of ``axes`` as one ``(n,) * dim`` array: one float per
    node, plus the points of one ``_linalg.chunks`` run of the C-order grid at
    a time, built from the axes."""
    gaps = np.empty(tuple(axis.size for axis in axes))
    flat = gaps.reshape(-1)
    for sl in chunks(flat.size):
        index = np.unravel_index(np.arange(sl.start, min(sl.stop, flat.size)), gaps.shape)
        flat[sl] = _gap_batch(model, np.column_stack([a[i] for a, i in zip(axes, index)]))
    return gaps


def _pattern_search(func, start, step0, box, target=None):
    """Derivative-free compass descent with shrinking steps, clipped to the box.

    ``func`` maps an ``(M, m)`` array of points to their ``M`` objective
    values.  The objective (a spectral gap) is non-smooth at its zeros, which
    rules out gradient descent; each step polls the 2m compass moves
    +x0, -x0, +x1, ... in one batch, takes the first best move if it strictly
    improves, and halves the step otherwise.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    fx = float(func(x[None, :])[0])
    rows = np.arange(2 * x.size)
    axes = rows // 2
    signs = np.where(rows % 2 == 0, 1.0, -1.0)
    step = float(step0)
    for _ in range(SEARCH_MAX_ITER):
        if target is not None and fx < target:
            break
        if step < SEARCH_MIN_STEP:
            break
        cands = np.repeat(x[None, :], rows.size, axis=0)
        cands[rows, axes] = np.clip(x[axes] + signs * step, lo[axes], hi[axes])
        values = func(cands)
        best = int(np.argmin(values))
        if values[best] < fx:
            x, fx = cands[best], float(values[best])
        else:
            step *= 0.5
    return x, fx


def _coarse_minima(gaps: np.ndarray) -> list:
    """Indices of grid points that are local minima of the gap array.

    A point must lie strictly below its earlier neighbour on each axis and no
    higher than its later one, so a flat plateau yields only its corner nodes
    (one for a box-shaped plateau such as a constant gap), not every node.
    Beyond the grid's edge the gap counts as +inf; neighbours are read
    through shifted slices, so only boolean masks are allocated.
    """
    is_min = gaps < np.inf
    for axis in range(gaps.ndim):
        # Along this axis, node i of ``hi`` is node i + 1 of ``lo``.
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        is_min[hi] &= gaps[hi] < gaps[lo]
        is_min[lo] &= gaps[lo] <= gaps[hi]
    return list(zip(*np.nonzero(is_min)))


def _refined_minima(model: BandModel, box, coarse_n: int, target=None) -> list:
    """Pattern-search refinements ``(point, gap)`` of every local minimum of
    the gap on the coarse box grid, in grid order."""
    box, axes = _box_grid(box, model.dimension, coarse_n)
    gaps = _grid_gaps(model, axes)
    spacing = max((hi - lo) / (coarse_n - 1) for lo, hi in box)
    return [
        _pattern_search(
            lambda pts: _gap_batch(model, pts),
            np.array([axis[i] for axis, i in zip(axes, idx)]),
            spacing,
            box,
            target=target,
        )
        for idx in _coarse_minima(gaps)
    ]


def find_crossings(model: BandModel, box, coarse_n: int = 16) -> list:
    """Locate points where the gap closes, to high precision.

    A coarse grid scan finds candidate local minima of the gap; each candidate
    is refined by pattern search, and refined points are kept only if their gap
    falls below ``GAP_TOL``.  Nearby duplicates (within ``MERGE_RADIUS``) are
    merged, keeping the deepest representative.
    """
    if coarse_n < 8:
        raise ValueError(f"coarse grid must have at least 8 points per axis, got {coarse_n}")
    candidates = sorted(
        (value, tuple(refined))
        for refined, value in _refined_minima(model, box, coarse_n, target=GAP_TOL * 0.1)
        if value < GAP_TOL
    )
    kept: list = []
    for value, point in candidates:
        if all(
            np.linalg.norm(np.subtract(point, other)) > MERGE_RADIUS for other in kept
        ):
            kept.append(point)
    kept.sort()
    return [np.array(p) for p in kept]


def min_gap(model: BandModel, box, coarse_n: int = 16):
    """Global minimum of the gap over the box, via the same refinement.

    Returns ``(value, location)``.  Unlike :func:`find_crossings` the result is
    kept even when the gap does not close; used to measure mass gaps.
    """
    best_val, best_loc = np.inf, None
    for refined, value in _refined_minima(model, box, coarse_n):
        if value < best_val:
            best_val, best_loc = value, refined
    return float(best_val), best_loc


def charge_crossing(
    model: BandModel, point, radius: float, resolution: int | None = None
) -> CrossingReport:
    """Assign an integer charge to a crossing by enclosing it with a sphere.

    m = 3: ``charge.chern_2`` of the model on the enclosing sphere.
    m = 2: ``charge.winding_1`` of ``model.chiral_block`` on the enclosing
    circle.  The point is checked by :func:`gap_at` and the sphere by the
    charge layer; a kernel's GapClosedError at the enclosure's quadrature
    nodes is raised as EnclosureInvalidError.
    """
    gap = gap_at(model, point)
    try:
        if model.dimension == 3:
            result = charge_mod.chern_2(model._shifted, 0.0, resolution, point, radius)
            positive = WEYL
        else:
            result = charge_mod.winding_1(model.chiral_block, resolution, point, radius)
            positive = DIRAC_CHIRAL
    except GapClosedError as exc:
        raise EnclosureInvalidError(
            f"gap closes on the enclosing sphere ({exc}); adjust the radius"
        ) from exc

    if not result.converged:
        classification = UNCLASSIFIED
    elif abs(result.charge) >= 1:
        classification = positive
    else:
        classification = TRIVIAL
    return CrossingReport(
        location=tuple(float(v) for v in point),
        gap_at_location=gap,
        enclosure_radius=float(radius),
        charge=result,
        classification=classification,
    )


def scan(model: BandModel, box, coarse_n: int = 16, resolution: int | None = None) -> list:
    """Find all crossings in the box and charge each one.

    The enclosure radius is half the distance to the nearest other crossing,
    capped by ``MAX_RADIUS`` (the cap is flagged in the report).
    Charging errors are collected per crossing rather than aborting the scan;
    reports come back sorted by location, the order of :func:`find_crossings`.
    """
    if resolution is not None:
        charge_mod.check_resolution(resolution, model.dimension - 1)
    crossings = find_crossings(model, box, coarse_n)
    reports = []
    for i, point in enumerate(crossings):
        nearest = min(
            (float(np.linalg.norm(point - other)) for j, other in enumerate(crossings) if j != i),
            default=np.inf,
        )
        capped = 0.5 * nearest >= MAX_RADIUS
        radius = MAX_RADIUS if capped else 0.5 * nearest
        try:
            report = charge_crossing(model, point, radius, resolution=resolution)
        except KgenError as exc:
            report = CrossingReport(
                location=tuple(float(v) for v in point),
                gap_at_location=gap_at(model, point),
                enclosure_radius=float(radius),
                charge=None,
                classification=UNCLASSIFIED,
                error=f"{type(exc).__name__}: {exc}",
            )
        reports.append(replace(report, radius_capped=capped))
    return reports


def gap_map(model: BandModel, box, n: int):
    """Gap on the regular n-per-axis grid of the box as ``(axes, gaps)``: node
    ``gaps[i_1, ..., i_m]`` lies at ``(axes[0][i_1], ..., axes[m - 1][i_m])``.
    One float per node, as :func:`_grid_gaps`; no point or row array."""
    _, axes = _box_grid(box, model.dimension, n)
    return axes, _grid_gaps(model, axes)
