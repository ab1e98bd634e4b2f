"""Renumbering elements and surfaces so parallel sweeps touch memory
in order.

Surfaces are regrouped by color, color 1 first.  The left element of
the k-th color-1 surface becomes element k, and for interior color-1
surfaces the right element becomes N1 + k, so workers walking the
color-1 block read and write consecutive element slots.  Within color 1
interior surfaces come before boundary ones to keep the right ids
contiguous; every later color group is sorted by its new left element
ids, which are distinct inside a group because a valid coloring gives
an element at most one surface per color.

This covers every element exactly once when each element has a color-1
surface, which minimal colorings of single-kind meshes guarantee.  When
some element lacks one (hybrid meshes, oversized baseline palettes) the
plan falls back to a first-occurrence sweep across all color groups and
says so in ``used_fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import SurfaceColoring, verify_coloring
from .errors import PlanMeshMismatchError
from .mesh import Mesh, relabel


@dataclass(frozen=True)
class ReorderingPlan:
    """Old-to-new id maps plus the color group layout they produce.

    ``group_bounds[c]`` is the first new surface id after color c's
    block, so color c occupies ``[group_bounds[c-1], group_bounds[c])``.
    ``n_interior_first`` is the number I1 of interior color-1 surfaces,
    placed at the head of the color-1 block.
    """

    element_perm: np.ndarray
    surface_perm: np.ndarray
    group_bounds: tuple[int, ...]
    n_interior_first: int
    used_fallback: bool

    def __post_init__(self):
        self.element_perm.setflags(write=False)
        self.surface_perm.setflags(write=False)

    def group_range(self, color: int) -> tuple[int, int]:
        return self.group_bounds[color - 1], self.group_bounds[color]


def _check_coloring(mesh: Mesh, coloring: SurfaceColoring) -> None:
    if len(coloring.colors) != mesh.n_surfaces:
        raise ValueError("coloring does not match the mesh")
    if not coloring.is_complete:
        raise ValueError("reordering needs a complete coloring")
    if verify_coloring(mesh, coloring):
        raise ValueError("reordering needs a valid coloring")


def build_plan(mesh: Mesh, coloring: SurfaceColoring) -> ReorderingPlan:
    """Plan the renumbering induced by a complete valid coloring."""
    _check_coloring(mesh, coloring)
    colors = coloring.colors
    n_colors = coloring.n_colors
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]

    ones = np.nonzero(colors == 1)[0]
    covered = np.zeros(mesh.n_elements, dtype=bool)
    covered[left[ones]] = True
    interior_ones = ones[right[ones] >= 0]
    covered[right[interior_ones]] = True
    fallback = not covered.all()

    element_perm = np.full(mesh.n_elements, -1, dtype=np.int64)
    if fallback:
        # number elements by first occurrence over the surfaces in
        # color order, id order within a color, left end first
        sids = np.flatnonzero(colors <= n_colors)
        sids = sids[np.argsort(colors[sids], kind="stable")]
        ends = mesh.surf_elems[sids].ravel()
        seen, first = np.unique(ends[ends >= 0], return_index=True)
        if len(seen) != mesh.n_elements:
            raise AssertionError("element not reachable from any surface")
        element_perm[seen[np.argsort(first)]] = np.arange(len(seen))
    else:
        boundary_ones = ones[right[ones] < 0]
        order1 = np.concatenate([interior_ones, boundary_ones])
        element_perm[left[order1]] = np.arange(len(order1))
        element_perm[right[interior_ones]] = (
            len(order1) + np.arange(len(interior_ones))
        )

    group_sizes = [0] * (n_colors + 1)
    surface_perm = np.empty(mesh.n_surfaces, dtype=np.int64)
    nxt = 0
    for c in range(1, n_colors + 1):
        sids = np.nonzero(colors == c)[0]
        group_sizes[c] = len(sids)
        if c == 1 and not fallback:
            sids = np.concatenate([interior_ones, boundary_ones])
        else:
            sids = sids[np.argsort(element_perm[left[sids]],
                                   kind="stable")]
        surface_perm[sids] = nxt + np.arange(len(sids))
        nxt += len(sids)

    return ReorderingPlan(
        element_perm=element_perm,
        surface_perm=surface_perm,
        group_bounds=tuple(np.cumsum(group_sizes).tolist()),
        n_interior_first=len(interior_ones),
        used_fallback=fallback,
    )


def apply_plan(mesh: Mesh, coloring: SurfaceColoring,
               plan: ReorderingPlan) -> tuple[Mesh, SurfaceColoring]:
    """Relabel elements and surfaces according to a plan.

    Left/right roles are preserved, not recomputed, so the color-1
    block keeps its (k, N1+k) shape.  Topology and coloring are
    otherwise untouched; verifying the result gives the same answer as
    verifying the input.
    """
    ep = plan.element_perm
    sp = plan.surface_perm
    if len(ep) != mesh.n_elements or len(sp) != mesh.n_surfaces:
        raise PlanMeshMismatchError(
            "plan was built for a different mesh"
        )
    for perm, n in ((ep, mesh.n_elements), (sp, mesh.n_surfaces)):
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise PlanMeshMismatchError("permutation is not a bijection")
    if len(coloring.colors) != mesh.n_surfaces:
        raise PlanMeshMismatchError(
            "coloring does not match the mesh"
        )

    new_colors = np.empty_like(coloring.colors)
    new_colors[sp] = coloring.colors
    return (relabel(mesh, ep, sp),
            SurfaceColoring(new_colors, coloring.n_colors))


def invert_plan(plan: ReorderingPlan) -> ReorderingPlan:
    """The plan that undoes this one."""
    ep = np.empty_like(plan.element_perm)
    ep[plan.element_perm] = np.arange(len(plan.element_perm))
    sp = np.empty_like(plan.surface_perm)
    sp[plan.surface_perm] = np.arange(len(plan.surface_perm))
    return ReorderingPlan(
        element_perm=ep,
        surface_perm=sp,
        group_bounds=plan.group_bounds,
        n_interior_first=plan.n_interior_first,
        used_fallback=plan.used_fallback,
    )


@dataclass(frozen=True)
class CoalescingReport:
    """Fraction of neighbor surface pairs, within each color group in
    current id order, whose left (right) elements are consecutive
    integers.  ``aggregate`` pools left and right over all groups."""

    per_color: tuple[tuple[int, float, float], ...]
    aggregate: float


def coalescing_metric(mesh: Mesh,
                      coloring: SurfaceColoring) -> CoalescingReport:
    if not coloring.is_complete:
        raise ValueError("metric needs a complete coloring")
    colors = coloring.colors
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]
    rows = []
    hits = 0
    pairs = 0
    for c in range(1, coloring.n_colors + 1):
        sids = np.nonzero(colors == c)[0]
        n_pairs = max(len(sids) - 1, 0)
        if n_pairs == 0:
            rows.append((c, 0.0, 0.0))
            continue
        a, b = sids[:-1], sids[1:]
        left_hits = int((left[b] == left[a] + 1).sum())
        right_ok = (right[a] >= 0) & (right[b] >= 0)
        right_hits = int((right_ok & (right[b] == right[a] + 1)).sum())
        rows.append((c, left_hits / n_pairs, right_hits / n_pairs))
        hits += left_hits + right_hits
        pairs += 2 * n_pairs
    return CoalescingReport(
        per_color=tuple(rows),
        aggregate=hits / pairs if pairs else 0.0,
    )
