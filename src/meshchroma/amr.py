"""Color-preserving 1:4 triangle refinement and its inverse.

Refining a triangle adds a midpoint to each edge and connects them,
producing three corner children plus one interior child.  The midpoint
of split base surface ``s`` is fine vertex ``n_base_vertices + rank(s)``,
counting split surfaces in the order they are first met over the base's
element sides, element by element in id order: a surface is first met
in the smaller of its elements.  For a mesh ``assemble`` built that is
surface id order; a renumbered mesh numbers its midpoints as the mesh
assembled from its elements would.  A parent ``(v0, v1, v2)`` with
midpoints ``(m01, m12, m20)`` has children ``_CHILD_TEMPLATE`` over
``(v0, v1, v2, m01, m12, m20)``: corner children ``(v0, m01, m20)``,
``(v1, m12, m01)``, ``(v2, m20, m12)``, then ``(m01, m12, m20)``.

Colors follow one element side at a time.  A side of an unrefined
element keeps its base color ``c``.  A side of a child is, by the fixed
tables ``_SIDE_ORIGIN`` and ``_SIDE_PARENT``, either the half of a
parent side through the child's corner or the interior edge parallel to
a parent side.  The half containing the parent side's lower-numbered
endpoint keeps ``c``, the other half takes ``c + 3``, and an interior
edge keeps ``c``.  Anchoring the rule at the lower global vertex id
makes the two elements flanking a shared edge agree on the split
without any communication, so the fine coloring is just the side
colors written through the fine mesh's side slots.

Three colors in, six colors out, and every element, coarse or fine,
still sees pairwise distinct colors on its own surfaces: a corner child
sees two halves of differently colored parent edges (distinct mod 3)
plus an interior copy of the third color, and the interior child sees
all three parent colors.

Coarsening reads each parent edge's color back off the whole edge or
its half containing the lower endpoint, and requires every fine color
to follow from them, so refine followed by coarsen over the same
element set is an exact identity on both topology and coloring.  The
colors are derived in int32 from base colors already known to lie in
1..3: a half through its parent edge's upper endpoint takes ``c + 3``
and every other side takes ``c``.

A serialized refinement is checked by ``reconstruct_refinement``.  The
unrefined elements and the base vertices are read straight into the
base mesh, so only what refining adds is rebuilt and compared: the
midpoint numbering and coordinates, and the children's rows.

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
from .mesh import (
    KIND_TO_CODE,
    MAX_ELEM_VERTS,
    MAX_SIDES,
    ElementKind,
    Mesh,
    assemble,
)

# Interior child side k runs parallel to parent side _PARALLEL[k].
_PARALLEL = (2, 0, 1)

# Child t lists these positions of (v0, v1, v2, m01, m12, m20).
_CHILD_TEMPLATE = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
# Side k of child t is a half (1) or the interior edge parallel (2) to
# parent side _SIDE_PARENT[t, k].
_SIDE_ORIGIN = np.array([[1, 2, 1], [1, 2, 1], [1, 2, 1], [2, 2, 2]],
                        dtype=np.int8)
_SIDE_PARENT = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], _PARALLEL])
# Both tables over a parent's 16 child side slots, four per child: the
# fourth slot of a triangle lists no surface.  Child t's corner is
# parent vertex t, the interior child has no half, and parent side p
# runs from vertex p to vertex p + 1, so a half is the one through its
# side's first vertex exactly where the side is numbered as the corner.
_SLOT_PARENT = np.pad(_SIDE_PARENT, ((0, 0), (0, 1))).ravel()
_SLOT_HALF = np.pad(_SIDE_ORIGIN == 1, ((0, 0), (0, 1))).ravel()
_SLOT_FIRST = _SLOT_HALF & (_SLOT_PARENT == np.repeat(np.arange(4), 4))
# The slot of parent side p's half through its first vertex (row 0) and
# through its second (row 1): side 0 of child p, and side 2 of child
# p + 1.
_HALF_SLOT = np.array([[0, 4, 8], [6, 10, 2]])

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
    """A base mesh and its refinement at ``map.refined``.

    The fine elements of ``mesh`` are the unrefined base elements in id
    order, then four children per refined parent in ascending parent
    order, built from the child template in the module docstring.  That
    layout is all that links the two meshes: fine colors follow from
    base colors through each fine element's side slots.

    ``fine_colors`` is the fine coloring that ``refine``, ``coarsen``
    or ``reconstruct_refinement`` derived or proved for this refinement,
    or None; it is set by them only, on an array whose memory cannot be
    written.  A coloring that holds this very array is known to follow
    from its base colors and is not derived again.
    """

    base: Mesh
    mesh: Mesh
    map: RefinementMap
    fine_colors: np.ndarray | None = field(default=None, init=False)

    @property
    def parents(self) -> np.ndarray:
        """Per fine element: parent base id, or -1 for unrefined copies."""
        return np.concatenate([np.full(self.map.first_child, -1),
                               np.repeat(_parent_ids(self), 4)])


def _parent_ids(refined: RefinedMesh) -> np.ndarray:
    return np.fromiter(refined.map.refined, dtype=np.int64)


def _unrefined(n_elements: int, refined: np.ndarray) -> np.ndarray:
    keep = np.ones(n_elements, dtype=bool)
    keep[refined] = False
    return np.flatnonzero(keep)


def _base_sides(base: Mesh, refined: np.ndarray):
    """The base surfaces the fine side slots stand for, given the sorted
    parent ids ``refined``: the side rows of the unrefined elements in
    id order, the three sides of each parent, shaped (parent, 3), and
    whether each parent side's first vertex is its lower one (side p
    runs from parent vertex p to vertex p + 1)."""
    rows = np.take(base.elem_verts, refined, axis=0)
    return (np.take(base.elem_surfs, _unrefined(base.n_elements, refined),
                    axis=0),
            np.take(base.elem_surfs, refined, axis=0)[:, :3],
            rows[:, :3] < np.take(rows, (1, 2, 0), axis=1))


def _derive_fine_colors(refined: RefinedMesh, base_colors: np.ndarray,
                        sides=None) -> np.ndarray:
    """The fine coloring ``base_colors`` gives: every side slot of every
    fine element takes its color by the per-side rule, and the slots
    write it to the fine surfaces they list, in element order.

    Every caller passes base colors in 1..3, so the rule is worked in
    int32 as: a child's half through its parent side's upper endpoint
    takes ``c + 3``, and every other slot takes ``c``, which is what
    ``child_color`` gives there.  ``sides`` is ``_base_sides`` of the
    refined parents, if already at hand.
    """
    fine, nu = refined.mesh, refined.map.first_child
    copied, psurfs, rising = (_base_sides(refined.base, _parent_ids(refined))
                              if sides is None else sides)
    base_colors = np.asarray(base_colors, dtype=np.int32)
    # an empty slot (-1) writes to the spare last entry
    colors = np.empty(fine.n_surfaces + 1, dtype=np.int32)
    colors[fine.elem_surfs[:nu]] = np.append(base_colors, 0)[copied]
    slots = base_colors[psurfs][:, _SLOT_PARENT]
    upper = rising[:, _SLOT_PARENT]
    upper ^= _SLOT_FIRST
    upper &= _SLOT_HALF
    np.add(slots, 3, out=slots, where=upper)
    colors[fine.elem_surfs[nu:].reshape(-1, 16)] = slots
    return colors[:-1]


def _midpoints(base: Mesh, refined: np.ndarray):
    """The midpoints that refining ``base`` at the sorted, distinct
    parent ids ``refined`` adds: per parent, the fine vertex ids of its
    side midpoints ``(m01, m12, m20)``, and the coordinates of the new
    vertices ``base.n_vertices`` onwards."""
    psurfs = np.take(base.elem_surfs, refined, axis=0)[:, :3]
    split = np.zeros(base.n_surfaces, dtype=bool)
    split[psurfs] = True
    # each split surface's first slot is its side in the smaller of its
    # elements (a boundary's -1 is the largest id read unsigned).  The
    # slots are distinct, so marking them and reading the marked slots
    # back in order lists the surfaces as they are met.
    sids = np.flatnonzero(split)
    left, right = np.take(base.surf_elems, sids, axis=0).view(np.uint64).T
    first = np.minimum(left, right).view(np.int64)
    sides = np.take(base.elem_surfs, first, axis=0) == sids[:, None]
    met = np.zeros(base.elem_surfs.size, dtype=bool)
    met[first * MAX_SIDES + np.flatnonzero(sides) % MAX_SIDES] = True
    met = base.elem_surfs.ravel()[met]
    mid = np.empty(base.n_surfaces, dtype=np.int64)
    mid[met] = base.n_vertices + np.arange(len(met))
    ends = np.take(base.vertices, np.take(base.surf_verts, met, axis=0),
                   axis=0)
    return mid[psurfs], 0.5 * (ends[:, 0] + ends[:, 1])


def _child_rows(base: Mesh, refined: np.ndarray, mids: np.ndarray):
    """The vertex rows, -1 padded, of the children of the parents
    ``refined``, four per parent, over their corners and ``_midpoints``'
    ids ``mids``."""
    six = np.hstack([np.take(base.elem_verts, refined, axis=0)[:, :3], mids])
    rows = np.full((4 * len(refined), MAX_ELEM_VERTS), -1, dtype=np.int64)
    rows[:, :3] = six[:, _CHILD_TEMPLATE].reshape(-1, 3)
    return rows


def _fine_elements(base: Mesh, refined: np.ndarray):
    """Fine vertices, kind codes and vertex rows of the refinement of
    ``base`` at the sorted, distinct parent ids ``refined``: the
    unrefined elements in id order, then ``_CHILD_TEMPLATE``'s four
    children per parent."""
    unrefined = _unrefined(base.n_elements, refined)
    mids, coords = _midpoints(base, refined)
    elem_verts = np.concatenate([np.take(base.elem_verts, unrefined, axis=0),
                                 _child_rows(base, refined, mids)])
    kinds = np.concatenate([base.elem_kind[unrefined],
                            np.full(4 * len(refined), _TRIANGLE,
                                    dtype=np.int8)])
    return np.vstack([base.vertices, coords]), kinds, elem_verts


def _materialize(base: Mesh, refined: np.ndarray,
                 fine: Mesh | None = None) -> RefinedMesh:
    """The refinement of ``base`` at the sorted, distinct parent ids
    ``refined``, over ``fine`` (``_fine_elements``' elements, surfaces
    in any order) or else over the mesh assembled from them."""
    if fine is None:
        fine = assemble(*_fine_elements(base, refined))
    return RefinedMesh(base, fine, RefinementMap(
        tuple(refined.tolist()), base.n_elements - len(refined)))


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
    """The refinement and the fine coloring ``base_colors`` gives."""
    return _proven(refined, _derive_fine_colors(refined, base_colors))


def _recover_base_colors(refined: RefinedMesh,
                         coloring: SurfaceColoring) -> np.ndarray:
    """Read the base coloring back out of a fine coloring.

    Each base edge reads its whole edge on an unrefined element, or its
    half containing the lower endpoint, which wins where both exist;
    either carries the base color unchanged.  Colors that are
    ``refined.fine_colors`` itself are known to follow.  Otherwise those
    whole edges and halves must lie in the base palette, and every fine
    color must be the one they give; a ``ValueError`` names the first
    fine surface that breaks either rule, in that order, with its left
    element and that element's parent.
    """
    base, fine, nu = refined.base, refined.mesh, refined.map.first_child
    fc = np.asarray(coloring.colors)
    if len(fc) != fine.n_surfaces:
        raise ValueError("coloring does not match the fine mesh")
    sides = copied, psurfs, rising = _base_sides(base, _parent_ids(refined))
    copies = fine.elem_surfs[:nu]
    # each parent side's half through its lower endpoint, the first
    # vertex where the side rises
    halves = np.take_along_axis(
        fine.elem_surfs[nu:].reshape(-1, 16),
        np.where(rising, _HALF_SLOT[0], _HALF_SLOT[1]), axis=1)
    # an empty slot (-1) writes to the spare last entry
    out = np.empty(base.n_surfaces + 1, dtype=np.int32)
    out[copied] = fc[copies]
    out = out[:-1]
    out[psurfs] = fc[halves]
    if fc is refined.fine_colors:
        return out
    keep = np.concatenate([copies[copies >= 0], halves.ravel()])
    bad = keep[(fc[keep] < 1) | (fc[keep] > 3)]
    if not bad.size:
        bad = np.flatnonzero(_derive_fine_colors(refined, out, sides) != fc)
    if bad.size:
        s = int(bad.min())
        e = int(fine.surf_elems[s, 0])
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


def _ids(values) -> np.ndarray:
    """Sorted distinct ids; the first value that is not an integer, a
    bool included, raises ``ValueError`` naming it.  A 1-D integer array
    and a list of plain ints are each taken in one conversion."""
    if (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in "iu"
            and np.can_cast(values.dtype, np.int64)):
        return _distinct(values.astype(np.int64, copy=False))
    values = (values.tolist() if isinstance(values, np.ndarray)
              else list(values))
    if not set(map(type, values)) <= {int}:
        for v in values:
            if type(v) is bool or not isinstance(v, (int, np.integer)):
                raise ValueError(f"id {v!r} is not an integer")
    return _distinct(np.fromiter(values, dtype=np.int64, count=len(values)))


def _element_ids(elements, n_elements: int) -> np.ndarray:
    """Sorted distinct ids, each checked to name an element."""
    ids = _ids(elements)
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
    naming its first diagnostic, as does one that uses a fourth color,
    and so does an element id that is not an integer.
    """
    if isinstance(source, RefinedMesh):
        ids = _element_ids(elements, source.mesh.n_elements)
        children = ids[ids >= source.map.first_child]
        if children.size:
            raise LevelConstraintError(
                f"element {children[0]} is already a refinement child; "
                f"adjacent elements may differ by one level only"
            )
        base_colors = _recover_base_colors(source, coloring)
        parents = _parent_ids(source)
        unrefined = _unrefined(source.base.n_elements, parents)
        grown = _distinct(np.concatenate([parents, unrefined[ids]]))
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
    RefinedMesh over the remaining set with its 6-coloring.  A parent
    id that is not an integer raises ``ValueError``.
    """
    ps = _ids(parents)
    current = _parent_ids(refined)
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


def _base_of(fine: Mesh, refined: np.ndarray) -> Mesh:
    """The base mesh of ``fine`` refined at ``refined``: the unrefined
    elements, each parent over vertex 0 of its children 0-2, and
    ``fine``'s vertices up to the first midpoint."""
    nu = fine.n_elements - 4 * len(refined)
    unrefined = _unrefined(nu + len(refined), refined)
    kinds = np.full(nu + len(refined), _TRIANGLE, dtype=np.int8)
    kinds[unrefined] = fine.elem_kind[:nu]
    verts = np.full((len(kinds), MAX_ELEM_VERTS), -1, dtype=np.int64)
    verts[unrefined] = fine.elem_verts[:nu]
    verts[refined, :3] = fine.elem_verts[nu:, 0].reshape(-1, 4)[:, :3]
    # the base ends at the first midpoint; its last vertices may be unused
    first_mid = fine.elem_verts[nu + 3::4, :3].min(initial=fine.n_vertices)
    n_base = max(verts.max() + 1, first_mid)
    try:
        return assemble(fine.vertices[:n_base], kinds, verts)
    except (ElementFaultError, ValueError) as exc:
        raise MalformedSectionError(
            f"could not reassemble the base mesh: {exc}"
        ) from None


def _check_children(fine: Mesh, base: Mesh, refined: np.ndarray,
                    parents: np.ndarray) -> None:
    """Check what refining ``base`` at ``refined`` adds to it against
    ``fine``: the midpoint coordinates, the vertex count and each
    child's vertex row.  The unrefined elements and the base vertices
    are ``fine``'s own, so they cannot differ."""
    nu = fine.n_elements - 4 * len(refined)
    mids, coords = _midpoints(base, refined)
    nb, n_rebuilt = base.n_vertices, base.n_vertices + len(coords)
    n = min(n_rebuilt, fine.n_vertices)
    # the extra last slot is where the -1 padding looks
    moved = np.zeros(fine.n_vertices + 1, dtype=bool)
    off = np.flatnonzero(coords[:n - nb] != fine.vertices[nb:n])
    moved[nb + off // fine.vertices.shape[1]] = True
    # a child of another kind has a fourth vertex, so its row differs
    kids = fine.elem_verts[nu:]
    differs = kids != _child_rows(base, refined, mids)
    differs |= moved[kids]
    bad = np.flatnonzero(differs)
    if bad.size:
        e = nu + bad[0] // MAX_ELEM_VERTS
        where = (f"fine element {e} (parent {parents[e]}) differs from its "
                 f"rebuilt counterpart")
    elif n_rebuilt != fine.n_vertices:
        # each midpoint is in a child row, and all of them match, so
        # the first vertex at fault is the first one a side lacks
        where = (f"it has {fine.n_vertices} vertices where the rebuilt "
                 f"refinement has {n_rebuilt}; the first at fault is "
                 f"vertex {n}")
    else:
        return
    raise MalformedSectionError(
        f"mesh is not a canonical single-level refinement: {where}")


def reconstruct_refinement(
    fine: Mesh, parents, coloring: SurfaceColoring
) -> tuple[RefinedMesh, SurfaceColoring]:
    """Rebuild a RefinedMesh from serialized (mesh, parents, colors).

    Only the canonical layout ``check_parent_layout`` describes is
    accepted.  The base corners are vertex 0 of each parent's children
    0-2, and the base mesh is assembled from them, the unrefined
    elements and ``fine``'s vertices up to the first midpoint.  Only
    what refining that base adds is rebuilt and compared with ``fine``:
    the midpoint coordinates, the vertex count and the vertex rows of
    the four children of each parent.  The unrefined elements and
    the base vertices are copied from ``fine``, and the surfaces follow
    from the elements, so neither is compared.  The colors, read
    through ``fine``'s own side slots, must then be the ones this
    refinement derives from a base 3-coloring; they are returned as
    checked, not derived again.  Anything else raises
    ``MalformedSectionError`` (or ``PartialFamilyError`` for a family
    of the wrong size), naming the first fine element or surface at
    fault and its parent.
    """
    parents = np.asarray(parents, dtype=np.int64)
    refined = check_parent_layout(parents, fine.n_elements)

    base = _base_of(fine, refined)
    _check_children(fine, base, refined, parents)
    rebuilt = _materialize(base, refined, fine)
    try:
        _recover_base_colors(rebuilt, coloring)
    except ValueError as exc:
        raise MalformedSectionError(str(exc)) from None
    return _proven(rebuilt, coloring.colors)
