"""Renumbering elements and surfaces so parallel sweeps touch memory
in order.

Surfaces are regrouped by color, color 1 first.  The left element of
the k-th color-1 surface becomes element k, and for interior color-1
surfaces the right element becomes N1 + k, so workers walking the
color-1 block read and write consecutive element slots.  Within color 1
interior surfaces come before boundary ones to keep the right ids
contiguous; every later color group is ordered by its new left element
ids.  A valid coloring gives an element at most one surface per color,
so those ids are distinct inside a group: scattering the group's
surfaces into an element-sized slot array at their new left ids and
reading the slots back in order sorts the group exactly, in linear time.

Every element that no color-1 surface touches (hybrid and refined
meshes, oversized palettes) follows the block in id order, so planning
a reordered mesh gives the identity plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import SurfaceColoring, _require_palette, _require_valid
from .errors import PlanMeshMismatchError
from .mesh import Mesh, is_bijection, relabel


@dataclass(frozen=True)
class ReorderingPlan:
    """Old-to-new id maps plus the color group layout they produce.

    ``group_bounds[c]`` is the first new surface id after color c's
    block, so color c occupies ``[group_bounds[c-1], group_bounds[c])``.
    ``n_interior_first`` is the number I1 of interior color-1 surfaces,
    placed at the head of the color-1 block.  ``used_fallback`` says
    whether some element follows the block, touched by no color-1
    surface.
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


def build_plan(mesh: Mesh, coloring: SurfaceColoring) -> ReorderingPlan:
    """Plan the renumbering induced by a complete valid coloring: the
    color-1 block's left ends take 0..N1-1, its interior right ends N1
    onwards, every other element follows in id order, and each later
    color group is sorted by its new left ids.  Any other coloring
    raises ``ValueError`` naming the first diagnostic ``verify_coloring``
    reports."""
    _require_valid(mesh, coloring, "reordering")
    colors = coloring.colors
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]
    classes = [np.flatnonzero(colors == c)
               for c in range(1, coloring.n_colors + 1)]

    ones = classes[0]
    interior_ones = ones[right[ones] >= 0]
    classes[0] = np.concatenate([interior_ones, ones[right[ones] < 0]])
    n_block = len(ones) + len(interior_ones)
    element_perm = np.full(mesh.n_elements, -1, dtype=np.int64)
    element_perm[left[classes[0]]] = np.arange(len(ones))
    element_perm[right[interior_ones]] = np.arange(len(ones), n_block)
    tail = np.flatnonzero(element_perm < 0)
    element_perm[tail] = np.arange(n_block, mesh.n_elements)

    slot = np.full(mesh.n_elements, -1, dtype=np.int64)
    surface_perm = np.empty(mesh.n_surfaces, dtype=np.int64)
    nxt = 0
    for c, sids in enumerate(classes, 1):
        if c > 1:
            # the new left ids are distinct within a class, so reading
            # the slots back in order sorts the class by them
            new_left = element_perm[left[sids]]
            slot[new_left] = sids
            sids = slot[slot >= 0]
            slot[new_left] = -1
        surface_perm[sids] = np.arange(nxt, nxt + len(sids))
        nxt += len(sids)

    return ReorderingPlan(
        element_perm=element_perm,
        surface_perm=surface_perm,
        group_bounds=tuple(
            np.cumsum([0] + [len(sids) for sids in classes]).tolist()),
        n_interior_first=len(interior_ones),
        used_fallback=len(tail) > 0,
    )


def apply_plan(mesh: Mesh, coloring: SurfaceColoring,
               plan: ReorderingPlan) -> tuple[Mesh, SurfaceColoring]:
    """Relabel elements and surfaces according to a plan.

    Left/right roles are preserved, not recomputed, so the color-1
    block keeps its (k, N1+k) shape.  Topology and coloring are
    otherwise untouched; verifying the result gives the same answer as
    verifying the input.  The result records the plan's maps, composed
    with any renumbering ``mesh`` records (``relabel``), and
    ``write_native`` writes them as its PERMUTATIONS.
    """
    ep = plan.element_perm
    sp = plan.surface_perm
    if len(ep) != mesh.n_elements or len(sp) != mesh.n_surfaces:
        raise PlanMeshMismatchError(
            "plan was built for a different mesh"
        )
    if not (is_bijection(ep, mesh.n_elements)
            and is_bijection(sp, mesh.n_surfaces)):
        raise PlanMeshMismatchError("permutation is not a bijection")
    if len(coloring.colors) != mesh.n_surfaces:
        raise PlanMeshMismatchError(
            "coloring does not match the mesh"
        )

    new_colors = np.empty_like(coloring.colors)
    new_colors[sp] = coloring.colors
    return (relabel(mesh, ep, sp),
            SurfaceColoring(new_colors, coloring.n_colors))


@dataclass(frozen=True)
class CoalescingReport:
    """Fraction of neighbor surface pairs, within each color group in
    current id order, whose left (right) elements are consecutive
    integers.  ``aggregate`` pools left and right over all groups."""

    per_color: tuple[tuple[int, float, float], ...]
    aggregate: float


def coalescing_metric(mesh: Mesh,
                      coloring: SurfaceColoring) -> CoalescingReport:
    if len(coloring.colors) != mesh.n_surfaces:
        raise ValueError("coloring does not match the mesh")
    if not coloring.is_complete:
        raise ValueError("metric needs a complete coloring")
    _require_palette(coloring, "metric")
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
