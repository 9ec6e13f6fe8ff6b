"""Deterministic random point sets on spheres and balls.

All verification suites draw their probe points through these helpers with an
explicit seed so that reports are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np


def check_samples(samples: int) -> None:
    """Refuse a sample count below one, so no suite passes over zero samples."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a suite's ``seed``, refused with a ValueError naming it
    unless it is a non-negative integer (numpy's own refusal names no seed)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def sphere_points(ambient_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere in R^ambient_dim, shape (count, ambient_dim)."""
    pts = rng.standard_normal((count, ambient_dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # Resample the (measure-zero) degenerate draws rather than dividing by ~0.
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        pts[bad] = rng.standard_normal((int(bad.sum()), ambient_dim))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return pts / norms


def ball_points(
    dim: int, count: int, rng: np.random.Generator, max_norm: float = 1.0
) -> np.ndarray:
    """Uniform points in the ball of radius ``max_norm``, shape (count, dim)."""
    directions = sphere_points(dim, count, rng)
    radii = max_norm * rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]
