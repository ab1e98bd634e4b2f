"""How coloring cost grows with mesh size.

Times only the coloring itself (generation and I/O excluded) and fits
log-log slopes of wall time and of greedy conflict count against the
surface count.  Slopes near 1 are the point; absolute times depend on
the machine and are not asserted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import ColoringConfig, color
from .generators import GeneratorSpec, generate


@dataclass(frozen=True)
class ScalingPoint:
    """One mesh size in a series."""

    cells: int
    n_elements: int
    n_surfaces: int
    n_colors: int
    greedy_conflicts: int
    swaps: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "cells": self.cells,
            "n_elements": self.n_elements,
            "n_surfaces": self.n_surfaces,
            "n_colors": self.n_colors,
            "greedy_conflicts": self.greedy_conflicts,
            "swaps": self.swaps,
            "seconds": f"{self.seconds:.6f}",
        }


@dataclass(frozen=True)
class ScalingSeries:
    family: str
    seed: int
    points: tuple[ScalingPoint, ...]

    @property
    def time_slope(self) -> float | None:
        return fit_loglog_slope(
            [p.n_surfaces for p in self.points],
            [p.seconds for p in self.points],
        )

    @property
    def conflict_slope(self) -> float | None:
        return fit_loglog_slope(
            [p.n_surfaces for p in self.points],
            [p.greedy_conflicts for p in self.points],
        )


def fit_loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log(y) vs log(x); None when the fit is
    impossible (fewer than two points, or nonpositive values)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or (xs <= 0).any() or (ys <= 0).any():
        return None
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(slope)


def run_series(family: str, sizes, seed: int = 0) -> ScalingSeries:
    """Color one mesh per size and record its conflicts, swaps and
    ``color`` seconds.

    ``sizes`` are linear cell counts: size n means an n-by-n grid, or
    n-by-n-by-n for tet meshes.  They must increase strictly.  The
    coloring visits the mesh in its geometric sweep order, so the
    generators' element numbering does not affect the counts.
    """
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    points = []
    for n in sizes:
        nz = n if family == "tet_prism" else 1
        mesh = generate(GeneratorSpec(family=family, nx=n, ny=n, nz=nz))
        _, report = color(mesh, ColoringConfig(rng_seed=seed))
        points.append(ScalingPoint(
            cells=n,
            n_elements=mesh.n_elements,
            n_surfaces=mesh.n_surfaces,
            n_colors=report.n_colors,
            greedy_conflicts=report.greedy_conflicts,
            swaps=report.swaps,
            seconds=report.total_seconds,
        ))
    return ScalingSeries(family=family, seed=seed, points=tuple(points))
