"""Color-preserving 1:4 triangle refinement and its inverse.

Refining a triangle adds a midpoint to each edge and connects them,
producing three corner children plus one interior child.  Each parent
edge splits into two half edges; the half containing the parent edge's
lower-numbered endpoint keeps the parent color ``c`` and the other half
takes ``c + 3``.  Anchoring the rule at the lower global vertex id makes
the two elements flanking a shared edge agree on the split without any
communication, so the whole propagation is per-element independent.
Each of the three interior edges copies the color of the parent edge it
runs parallel to.

Three colors in, six colors out, and every element, coarse or fine,
still sees pairwise distinct colors on its own surfaces: a corner child
sees two halves of differently colored parent edges (distinct mod 3)
plus an interior copy of the third color, and the interior child sees
all three parent colors.

The split is one fixed rule applied to whole arrays.  The midpoint of
split base surface ``s`` is fine vertex ``n_base_vertices + rank(s)``,
counting split surfaces in id order.  A parent ``(v0, v1, v2)`` with
midpoints ``(m01, m12, m20)`` has children ``_CHILD_TEMPLATE`` over
``(v0, v1, v2, m01, m12, m20)``: corner children ``(v0, m01, m20)``,
``(v1, m12, m01)``, ``(v2, m20, m12)``, then ``(m01, m12, m20)``.
Side k of child t is then, by the fixed tables ``_SIDE_ORIGIN`` and
``_SIDE_PARENT``, either a half of parent side j (the half through the
child's corner) or the interior edge parallel to parent side j, so
every fine surface is classified from its element side slots.

Coarsening reads the parent's edge colors back off the fine surfaces
(the whole edge, or the half containing the lower endpoint) and
requires every fine color, interior edges included, to follow from
them, so refine followed by coarsen over the same element set is an
exact identity on both topology and coloring.

Only one level of refinement is supported: refining a refinement child
raises LevelConstraintError.  Interfaces between a refined and an
unrefined element are nonconforming; the coarse side keeps its full
edge as a surface record (with no element on the other side) while the
fine side contributes the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .coloring import SurfaceColoring, _require_valid
from .errors import (
    ElementFaultError,
    LevelConstraintError,
    MalformedSectionError,
    PartialFamilyError,
    UnrefinableKindError,
)
from .mesh import KIND_TO_CODE, MAX_ELEM_VERTS, ElementKind, Mesh, assemble

# Interior child side k runs parallel to parent side _PARALLEL[k].
_PARALLEL = (2, 0, 1)

# Child t lists these positions of (v0, v1, v2, m01, m12, m20).
_CHILD_TEMPLATE = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
# Side k of child t is a half (1) or the interior edge parallel (2) to
# parent side _SIDE_PARENT[t, k]; the values are ``surf_origin`` codes.
_SIDE_ORIGIN = np.array([[1, 2, 1], [1, 2, 1], [1, 2, 1], [2, 2, 2]],
                        dtype=np.int8)
_SIDE_PARENT = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], _PARALLEL])

_TRIANGLE = KIND_TO_CODE[ElementKind.TRIANGLE]

FINE_PALETTE = 6


def child_color(color, half):
    """Color of half ``half`` (1 or 2) of a parent edge colored ``color``.

    Half 1 is the one containing the parent edge's lower-numbered
    endpoint; it keeps the parent color.  Half 2 is shifted by three.
    Works on ints and, elementwise, on integer arrays.
    """
    return (color + 3 * half - 4) % 6 + 1


@dataclass(frozen=True, eq=False)
class RefinementMap:
    """Which elements were refined.

    ``refined`` lists the parents in ascending order; the children of
    ``refined[i]`` are fine elements ``first_child + 4 i`` onwards.
    """

    refined: tuple[int, ...]
    first_child: int


@dataclass(frozen=True, eq=False)
class RefinedMesh:
    """A base mesh, its refined counterpart, and the bookkeeping
    linking the two.

    The fine elements are the unrefined base elements in id order, then
    four children per refined parent in ascending parent order, built
    from the child template in the module docstring.  ``origin`` maps
    each fine element to the base element it came from (itself for
    unrefined copies); ``child_slot`` is -1 for unrefined copies and
    0..3 for children, interior child last.  ``surf_origin`` classifies
    each fine surface: 0 = a base edge kept whole, 1 = half of a split
    base edge, 2 = interior edge of a refined parent.  ``base_surface``
    names the related base edge in all three cases (the parallel one
    for interior edges) and ``half_index`` is 1 or 2 for halves, 0
    otherwise.  All three are read off the side slots: an unrefined
    copy's sides through ``base.elem_surfs``, a child's through the
    side tables ``_SIDE_ORIGIN`` and ``_SIDE_PARENT``.

    ``fine_colors`` is the fine coloring that ``refine``, ``coarsen``
    or ``reconstruct_refinement`` derived or proved for this refinement,
    or None; it is set by them only, on an array whose memory cannot be
    written.  A coloring that holds this very array is known to follow
    from its base colors and is not derived again.
    """

    base: Mesh
    mesh: Mesh
    origin: np.ndarray
    child_slot: np.ndarray
    map: RefinementMap
    surf_origin: np.ndarray
    base_surface: np.ndarray
    half_index: np.ndarray
    fine_colors: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        for arr in (self.origin, self.child_slot, self.surf_origin,
                    self.base_surface, self.half_index):
            arr.setflags(write=False)

    @property
    def parents(self) -> np.ndarray:
        """Per fine element: parent base id, or -1 for unrefined copies."""
        return np.where(self.child_slot >= 0, self.origin, -1)


def _derive_fine_colors(refined: RefinedMesh,
                        base_colors: np.ndarray) -> np.ndarray:
    colors = base_colors[refined.base_surface].astype(np.int32)
    halves = refined.surf_origin == 1
    colors[halves] = child_color(colors[halves], refined.half_index[halves])
    return colors


def _unrefined(n_elements: int, refined: np.ndarray) -> np.ndarray:
    keep = np.ones(n_elements, dtype=bool)
    keep[refined] = False
    return np.flatnonzero(keep)


def _fine_elements(base: Mesh, refined: np.ndarray):
    """Fine vertices, kind codes and vertex rows of the refinement of
    ``base`` at the sorted, distinct parent ids ``refined``: the
    unrefined elements in id order, then ``_CHILD_TEMPLATE``'s four
    children per parent."""
    unrefined = _unrefined(base.n_elements, refined)
    nu, nr = len(unrefined), len(refined)

    psurfs = base.elem_surfs[refined, :3]
    split = np.zeros(base.n_surfaces, dtype=bool)
    split[psurfs] = True
    mid = base.n_vertices - 1 + np.cumsum(split)
    ends = base.surf_verts[split]
    vertices = np.vstack([base.vertices, 0.5 * (base.vertices[ends[:, 0]]
                                                + base.vertices[ends[:, 1]])])

    six = np.hstack([base.elem_verts[refined, :3], mid[psurfs]])
    elem_verts = np.full((nu + 4 * nr, MAX_ELEM_VERTS), -1, dtype=np.int64)
    elem_verts[:nu] = base.elem_verts[unrefined]
    elem_verts[nu:, :3] = six[:, _CHILD_TEMPLATE].reshape(-1, 3)
    kinds = np.concatenate([base.elem_kind[unrefined],
                            np.full(4 * nr, _TRIANGLE, dtype=np.int8)])
    return vertices, kinds, elem_verts


def _classify(base: Mesh, refined: np.ndarray, fine: Mesh) -> RefinedMesh:
    """The refinement of ``base`` at ``refined`` over ``fine``, a mesh
    with ``_fine_elements``' elements and any surface numbering; each
    fine surface is classified from the side slots that list it."""
    unrefined = _unrefined(base.n_elements, refined)
    nu, nr = len(unrefined), len(refined)
    psurfs = base.elem_surfs[refined, :3]
    ns = fine.n_surfaces
    surf_origin = np.zeros(ns, dtype=np.int8)
    base_surface = np.empty(ns, dtype=np.int64)
    half_index = np.zeros(ns, dtype=np.int8)
    copies = fine.elem_surfs[:nu]
    sides = copies >= 0
    base_surface[copies[sides]] = base.elem_surfs[unrefined][sides]
    kids = fine.elem_surfs[nu:, :3].reshape(nr, 4, 3)
    related = psurfs[:, _SIDE_PARENT]
    surf_origin[kids] = _SIDE_ORIGIN
    base_surface[kids] = related
    # a corner child's halves pass through its corner, child vertex 0
    is_half = _SIDE_ORIGIN[:3] == 1
    corners = base.elem_verts[refined, :3]
    lower = base.surf_verts[related[:, :3], 0] == corners[:, :, None]
    half_index[kids[:, :3][:, is_half]] = np.where(lower, 1, 2)[:, is_half]

    return RefinedMesh(
        base=base,
        mesh=fine,
        origin=np.concatenate([unrefined, np.repeat(refined, 4)]),
        child_slot=np.concatenate([
            np.full(nu, -1, dtype=np.int8),
            np.tile(np.arange(4, dtype=np.int8), nr),
        ]),
        map=RefinementMap(refined=tuple(refined.tolist()), first_child=nu),
        surf_origin=surf_origin,
        base_surface=base_surface,
        half_index=half_index,
    )


def _materialize(base: Mesh, refined: np.ndarray) -> RefinedMesh:
    """Build and classify the fine mesh for the sorted, distinct parent
    ids ``refined``."""
    return _classify(base, refined, assemble(*_fine_elements(base, refined)))


def _proven(refined: RefinedMesh,
            fine_colors) -> tuple[RefinedMesh, SurfaceColoring]:
    """A copy of the refinement carrying ``fine_colors``, which follow
    from its base colors, and the coloring of them.

    The colors are copied into immutable ``bytes``, so the array can
    never be made writable and still holds what was proved.
    """
    refined = replace(refined)
    colors = np.frombuffer(
        np.asarray(fine_colors, dtype=np.int32).tobytes(), dtype=np.int32)
    object.__setattr__(refined, "fine_colors", colors)
    return refined, SurfaceColoring(colors, FINE_PALETTE)


def _with_colors(
    refined: RefinedMesh, base_colors: np.ndarray
) -> tuple[RefinedMesh, SurfaceColoring]:
    """The refinement and the fine coloring it derives from
    ``base_colors``."""
    return _proven(refined, _derive_fine_colors(refined, base_colors))


def _recover_base_colors(refined: RefinedMesh,
                         coloring: SurfaceColoring) -> np.ndarray:
    """Read the base coloring back out of a fine coloring.

    Each base edge reads the fine surface that is the whole edge or
    its half containing the lower endpoint, which carries the parent
    color unchanged.  Those colors must lie in the base palette, and
    every fine color, halves and interior edges included, must follow
    from them; a ``ValueError`` names the first fine surface that does
    not, with its left element and that element's parent.  Colors that
    are ``refined.fine_colors`` itself are known to follow.
    """
    fc = np.asarray(coloring.colors)
    if len(fc) != refined.mesh.n_surfaces:
        raise ValueError("coloring does not match the fine mesh")
    keep = np.flatnonzero((refined.surf_origin == 0)
                          | (refined.half_index == 1))
    out = np.full(refined.base.n_surfaces, -1, dtype=np.int32)
    out[refined.base_surface[keep]] = fc[keep]
    if fc is refined.fine_colors:
        return out
    bad = keep[(fc[keep] < 1) | (fc[keep] > 3)]
    if not bad.size:
        bad = np.flatnonzero(_derive_fine_colors(refined, out) != fc)
    if bad.size:
        s = int(bad[0])
        e = int(refined.mesh.surf_elems[s, 0])
        raise ValueError(
            f"coloring was not produced by this refinement: fine surface "
            f"{s} of element {e} (parent {refined.parents[e]}) has color "
            f"{fc[s]}"
        )
    return out


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  ``np.unique`` hashes integer input, and
    on numpy 2.4 that is about 100 times slower than this sort."""
    ids = np.sort(ids)
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return ids[first]


def _element_ids(elements, n_elements: int) -> np.ndarray:
    """Sorted distinct ids, each checked to name an element."""
    ids = _distinct(np.fromiter(elements, dtype=np.int64))
    bad = ids[(ids < 0) | (ids >= n_elements)]
    if bad.size:
        raise ValueError(f"no element {bad[0]} in the mesh")
    return ids


def refine(source, coloring: SurfaceColoring,
           elements) -> tuple[RefinedMesh, SurfaceColoring]:
    """Refine the given elements 1:4 and propagate colors.

    ``source`` is a conforming triangle mesh with a complete, valid
    3-coloring, or an existing RefinedMesh (with its 6-coloring) whose
    unrefined elements may be refined further.  Returns the refined
    mesh and a complete, valid coloring over at most six colors.  A
    base coloring that ``verify_coloring`` faults raises ``ValueError``
    naming its first diagnostic, as does one that uses a fourth color.
    """
    if isinstance(source, RefinedMesh):
        ids = _element_ids(elements, source.mesh.n_elements)
        children = ids[source.child_slot[ids] >= 0]
        if children.size:
            raise LevelConstraintError(
                f"element {children[0]} is already a refinement child; "
                f"adjacent elements may differ by one level only"
            )
        base_colors = _recover_base_colors(source, coloring)
        parents = source.origin[source.map.first_child::4]
        grown = _distinct(np.concatenate([parents, source.origin[ids]]))
        return _with_colors(_materialize(source.base, grown), base_colors)

    mesh: Mesh = source
    if mesh.element_kind_profile != {ElementKind.TRIANGLE}:
        raise UnrefinableKindError(
            "1:4 refinement is defined for triangle meshes only"
        )
    ids = _element_ids(elements, mesh.n_elements)
    _require_valid(mesh, coloring, "refinement")
    if coloring.colors.max() > 3:
        raise ValueError("refinement needs a three-color base coloring")
    return _with_colors(_materialize(mesh, ids), coloring.colors)


def coarsen(refined: RefinedMesh, coloring: SurfaceColoring,
            parents) -> tuple[Mesh | RefinedMesh, SurfaceColoring]:
    """Merge each listed parent's four children back into the parent.

    Parent edge colors are read back off the fine coloring, which must
    be the one this refinement derives from them.  Returns the base
    mesh and its 3-coloring when nothing stays refined, else a
    RefinedMesh over the remaining set with its 6-coloring.
    """
    ps = _distinct(np.fromiter(parents, dtype=np.int64))
    current = refined.origin[refined.map.first_child::4]
    missing = ps[~np.isin(ps, current)]
    if missing.size:
        raise PartialFamilyError(
            f"element {missing[0]} has no complete refinement family"
        )
    base_colors = _recover_base_colors(refined, coloring)
    remaining = current[~np.isin(current, ps)]
    if not remaining.size:
        return refined.base, SurfaceColoring(base_colors, 3)
    return _with_colors(_materialize(refined.base, remaining), base_colors)


def check_parent_layout(parents, n_elements: int) -> np.ndarray:
    """Check that a parent table has the canonical layout and return
    the refined parent ids in ascending order.

    The layout is the one ``refine`` writes: ``n_elements`` entries,
    -1 for each unrefined element first, then four consecutive entries
    per refined parent in ascending parent order, every parent id
    naming a base element.  Raises ``PartialFamilyError`` for a parent
    without exactly four children and ``MalformedSectionError`` for
    anything else; each names the parent or element at fault.
    """
    parents = np.asarray(parents, dtype=np.int64)
    if parents.shape != (n_elements,):
        raise MalformedSectionError("parent table length mismatch")
    ids, first, counts = np.unique(parents[parents >= 0], return_index=True,
                                   return_counts=True)
    partial = np.flatnonzero(counts != 4)
    if partial.size:
        i = partial[np.argmin(first[partial])]
        raise PartialFamilyError(
            f"parent {ids[i]} has {counts[i]} children, expected 4"
        )
    n_base = n_elements - 3 * len(ids)
    if ids.size and ids[-1] >= n_base:
        raise MalformedSectionError(
            f"parent id out of range: parent {ids[ids >= n_base][0]} in a "
            f"base mesh of {n_base} elements"
        )
    expected = np.concatenate([np.full(n_elements - 4 * len(ids), -1),
                               np.repeat(ids, 4)])
    wrong = np.flatnonzero(parents != expected)
    if wrong.size:
        e = wrong[0]
        raise MalformedSectionError(
            f"parent table is not in canonical order: element {e} has "
            f"parent {parents[e]}, expected {expected[e]}"
        )
    return ids


def reconstruct_refinement(
    fine: Mesh, parents, coloring: SurfaceColoring
) -> tuple[RefinedMesh, SurfaceColoring]:
    """Rebuild a RefinedMesh from serialized (mesh, parents, colors).

    Only the canonical layout ``check_parent_layout`` describes is
    accepted.  The base corners are vertex 0 of each parent's children
    0-2, and the base mesh is assembled from them and the unrefined
    elements.  Re-refining that base must give ``fine``'s vertices,
    element kinds and element vertex rows exactly; the surfaces are not
    compared, since a ``Mesh``'s surfaces follow from its elements, and
    ``fine``'s own are classified.  The colors must then be the ones
    this refinement derives from a base 3-coloring; they are returned as
    checked, not derived again.  Anything else
    raises ``MalformedSectionError`` (or ``PartialFamilyError`` for a
    family of the wrong size), naming the first fine element or surface
    at fault and its parent.
    """
    parents = np.asarray(parents, dtype=np.int64)
    refined = check_parent_layout(parents, fine.n_elements)

    nu = fine.n_elements - 4 * len(refined)
    is_refined = np.zeros(nu + len(refined), dtype=bool)
    is_refined[refined] = True
    kinds = np.full(len(is_refined), _TRIANGLE, dtype=np.int8)
    kinds[~is_refined] = fine.elem_kind[:nu]
    verts = np.full((len(is_refined), MAX_ELEM_VERTS), -1, dtype=np.int64)
    verts[~is_refined] = fine.elem_verts[:nu]
    verts[refined, :3] = fine.elem_verts[nu:, 0].reshape(-1, 4)[:, :3]
    # the base ends at the first midpoint; its last vertices may be unused
    first_mid = fine.elem_verts[nu + 3::4, :3].min(initial=fine.n_vertices)
    n_base = max(verts.max() + 1, first_mid)
    try:
        base = assemble(fine.vertices[:n_base], kinds, verts)
    except (ElementFaultError, ValueError) as exc:
        raise MalformedSectionError(
            f"could not reassemble the base mesh: {exc}"
        ) from None

    vertices, kinds, elem_verts = _fine_elements(base, refined)
    # a vertex the rebuilt mesh lacks counts as moved; the extra last
    # slot is where the -1 padding looks
    moved = np.ones(fine.n_vertices + 1, dtype=bool)
    n = min(len(vertices), fine.n_vertices)
    moved[:n] = (vertices[:n] != fine.vertices[:n]).any(axis=1)
    moved[-1] = False
    bad = np.flatnonzero((kinds != fine.elem_kind)
                         | (elem_verts != fine.elem_verts).any(axis=1)
                         | moved[fine.elem_verts].any(axis=1))
    if bad.size or moved.any() or len(vertices) != fine.n_vertices:
        if bad.size:
            where = (f"fine element {bad[0]} (parent {parents[bad[0]]}) "
                     f"differs from its rebuilt counterpart")
        else:
            # past the shorter list, the first vertex one side lacks
            first = np.flatnonzero(moved[:n])
            where = (f"it has {fine.n_vertices} vertices where the rebuilt "
                     f"refinement has {len(vertices)}; the first at fault "
                     f"is vertex {first[0] if first.size else n}")
        raise MalformedSectionError(
            f"mesh is not a canonical single-level refinement: {where}"
        )
    rebuilt = _classify(base, refined, fine)
    try:
        _recover_base_colors(rebuilt, coloring)
    except ValueError as exc:
        raise MalformedSectionError(str(exc)) from None
    return _proven(rebuilt, coloring.colors)
