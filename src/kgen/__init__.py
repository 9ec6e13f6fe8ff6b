"""Numerical toolkit for Clifford representations, generator fields on
spheres, K-theory connecting maps, and topological charges of band models."""

from . import bandscan, charge, clifford, fields, generators, kmaps
from .bandscan import BandModel, CrossingReport, load_model, save_model, scan
from .charge import ChargeResult, chern_2, chern_sign_weyl, winding_1, winding_3
from .clifford import CliffordRep, Grading, build_rep, extend, flip_first, grading_of, handedness_of, verify_rep
from .fields import EvaluableField, MatrixPolyField
from .generators import (
    bounded_transform,
    compact_resolvent_profile,
    dirac_hamiltonian_field,
    dirac_phase_field,
    weyl_field,
)
from .kmaps import chart, chart_inverse, exp_map, homotopy_at, index_map, kgroup_table

__version__ = "0.1.0"

__all__ = [
    "BandModel",
    "ChargeResult",
    "CliffordRep",
    "CrossingReport",
    "EvaluableField",
    "Grading",
    "MatrixPolyField",
    "bandscan",
    "bounded_transform",
    "build_rep",
    "charge",
    "chart",
    "chart_inverse",
    "chern_2",
    "chern_sign_weyl",
    "clifford",
    "compact_resolvent_profile",
    "dirac_hamiltonian_field",
    "dirac_phase_field",
    "exp_map",
    "extend",
    "fields",
    "flip_first",
    "generators",
    "grading_of",
    "handedness_of",
    "homotopy_at",
    "index_map",
    "kgroup_table",
    "kmaps",
    "load_model",
    "save_model",
    "scan",
    "verify_rep",
    "weyl_field",
    "winding_1",
    "winding_3",
]
