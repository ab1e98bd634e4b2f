"""Mesh containers and element/surface incidence.

A mesh stores flat numpy arrays so that million-surface inputs stay cheap
to build and traverse.  ``assemble`` is the one public way to build a
``Mesh``: it derives the surfaces from the elements, so every mesh holds
exactly the surfaces its elements imply, and ``relabel`` renumbers one.
A renumbered mesh records its renumbering, so it can always be rebuilt
from its elements: ``assemble`` them in their old order and relabel.

Conventions:

* surfaces are identified by their sorted vertex-id tuple, created in
  first-encounter order while sweeping elements in id order and each
  element's sides in local order,
* the *left* element of a surface is the incident element with the
  smaller original id: the old id a renumbered mesh records, the id
  itself otherwise; boundary surfaces have no right element,
* local sides follow the vertex list: a triangle ``(v0, v1, v2)`` has
  sides ``(v0,v1), (v1,v2), (v2,v0)``, a quad adds ``(v3,v0)``, and a
  tetrahedron has faces ``(012), (013), (023), (123)``.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from .errors import (
    DanglingVertexError,
    MixedKindsError,
    NonManifoldError,
    RepeatedVertexError,
)


class ElementKind(enum.Enum):
    TRIANGLE = "tri"
    QUAD = "quad"
    TET = "tet"

    @property
    def n_vertices(self) -> int:
        return _KIND_NV[self]

    @property
    def n_sides(self) -> int:
        return len(_SIDE_POSITIONS[self])

    @property
    def surface_width(self) -> int:
        """Vertices per surface: 2 for edges, 3 for tet faces."""
        return 3 if self is ElementKind.TET else 2


_KIND_NV = {ElementKind.TRIANGLE: 3, ElementKind.QUAD: 4, ElementKind.TET: 4}

_SIDE_POSITIONS = {
    ElementKind.TRIANGLE: ((0, 1), (1, 2), (2, 0)),
    ElementKind.QUAD: ((0, 1), (1, 2), (2, 3), (3, 0)),
    ElementKind.TET: ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
}

CODE_TO_KIND = (ElementKind.TRIANGLE, ElementKind.QUAD, ElementKind.TET)
KIND_TO_CODE = {k: i for i, k in enumerate(CODE_TO_KIND)}

MAX_SIDES = 4
MAX_ELEM_VERTS = 4


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a check, naming the element or surface at fault."""

    code: str
    message: str
    element_id: int | None = None
    surface_id: int | None = None


# passed by assemble and relabel alone, so no other call builds a Mesh
_BUILDER = object()


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable mesh with derived surface incidence, built only by
    ``assemble`` (or renumbered by ``relabel``); a direct call or a
    ``dataclasses.replace`` raises ``TypeError``.

    Arrays are padded with -1 where an element has fewer than four
    vertices or sides, and in ``surf_elems`` a right entry of -1 marks
    a boundary surface.

    ``element_perm`` and ``surface_perm`` map the ids of the mesh
    ``assemble`` built to the ids here (old id -> new id): None for that
    mesh itself and for a mesh ``relabel`` renumbers back to it, set by
    ``relabel`` alone.
    """

    vertices: np.ndarray  # (nv, 2|3) float64
    elem_kind: np.ndarray  # (ne,) int8 codes into CODE_TO_KIND
    elem_verts: np.ndarray  # (ne, 4) int64, -1 padded
    elem_surfs: np.ndarray  # (ne, 4) int64, -1 padded
    surf_verts: np.ndarray  # (ns, 2|3) int64, each row sorted
    surf_elems: np.ndarray  # (ns, 2) int64, right = -1 on the boundary
    _: KW_ONLY
    element_perm: np.ndarray | None = None  # (ne,) int64
    surface_perm: np.ndarray | None = None  # (ns,) int64
    builder: InitVar[object] = None

    def __post_init__(self, builder):
        if builder is not _BUILDER:
            raise TypeError("a Mesh is built from its elements by "
                            "meshchroma.mesh.assemble(vertices, kinds, "
                            "elem_verts)")
        for a in (self.vertices, self.elem_kind, self.elem_verts,
                  self.elem_surfs, self.surf_verts, self.surf_elems,
                  self.element_perm, self.surface_perm):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elem_kind)

    @property
    def n_surfaces(self) -> int:
        return len(self.surf_verts)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def element_kind_profile(self) -> frozenset[ElementKind]:
        return frozenset(CODE_TO_KIND[c] for c in np.unique(self.elem_kind))


def _sort_within_rows(a: np.ndarray) -> np.ndarray:
    """Sort each row of an (n, 2|3) array in place and return it, by
    compare-exchange on whole columns: several times faster than
    ``np.sort(a, axis=1)`` on rows this short."""
    for i, j in ((0, 1), (1, 2), (0, 1))[: 1 if a.shape[1] == 2 else 3]:
        low = np.minimum(a[:, i], a[:, j])
        np.maximum(a[:, i], a[:, j], out=a[:, j])
        a[:, i] = low
    return a


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and their count."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, len(distinct)


def _pack(key: np.ndarray, bound: int, column: np.ndarray,
          n_values: int) -> tuple[np.ndarray, int]:
    """``key * n_values + column`` and its bound, for ``key`` in
    ``[0, bound)`` and ``column`` in ``[0, n_values)``: the packed keys
    sort as the (key, column) pairs do.  ``key`` is packed in place,
    unless the bound would pass 2**63: it is then first replaced by its
    dense rank, and if that is not enough, ``column`` too."""
    if bound * n_values > 2**63:
        key, bound = _dense_rank(key)
        if bound * n_values > 2**63:
            column, n_values = _dense_rank(column)
    key *= n_values
    key += column
    return key, bound * n_values


def _stable_sort(columns, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Sort items by int64 ``columns``, the first primary, column c in
    ``[0, bounds[c])``, with one default-kind ``np.sort`` of one key per
    item: its columns packed (``_pack``), then its index in a field a
    power of two wide.  Returns the sorted keys, equal where the items'
    columns are, and ``order``, which sorts the items, ties by index.
    The key is packed and split in place, so at most one item-sized
    array lives beside it."""
    key, bound = np.array(columns[0], dtype=np.int64), bounds[0]
    for column, n_values in zip(columns[1:], bounds[1:]):
        key, bound = _pack(key, bound, column, n_values)
    n = len(key)
    shift = max(n - 1, 0).bit_length()
    key = _pack(key, bound, np.arange(n), 1 << shift)[0]
    key.sort()
    order = key & ((1 << shift) - 1)
    key >>= shift
    return key, order


def _row_groups(rows: np.ndarray,
                n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an (n, w) int64 array, every value in
    ``[0, n_values)``, into runs of equal rows with one ``_stable_sort``.
    Returns ``order``, a permutation of the row indices that puts equal
    rows next to each other, the rows of a run in index order, and
    ``starts``, the positions in ``order`` where each run begins.
    """
    key, order = _stable_sort(rows.T, [n_values] * rows.shape[1])
    new_run = np.empty(len(key), dtype=bool)
    new_run[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    return order, np.flatnonzero(new_run)


def _non_manifold(rows, n_slots, order, starts,
                  run_len) -> NonManifoldError:
    """The error for runs of three or more equal side rows, naming the
    first five such surfaces in first-encounter order; row c is a side
    of element ``c // n_slots``."""
    big = sorted(np.flatnonzero(run_len > 2).tolist(),
                 key=lambda r: order[starts[r]])
    detail = []
    named = []
    for r in big[:5]:
        slots = order[starts[r]:starts[r] + run_len[r]]
        elems = (slots // n_slots).tolist()
        named.extend(elems)
        detail.append(
            f"surface {tuple(rows[slots[0]].tolist())} shared by elements "
            f"{elems}"
        )
    return NonManifoldError("; ".join(detail), named)


def _check_vertex_ids(kind_codes: np.ndarray, elem_verts: np.ndarray,
                      nv: int) -> None:
    """Range and distinctness checks of the vertex ids; a negative id
    reads as one past the range, and a triangle's fourth vertex slot is
    padding.  A function of its own, so that its column copy of
    ``elem_verts`` is freed before ``assemble`` builds the side rows,
    which keeps the peak of live arrays down."""
    quad_or_tet = kind_codes != KIND_TO_CODE[ElementKind.TRIANGLE]
    v = np.ascontiguousarray(elem_verts.T)
    out = v.view(np.uint64) >= nv
    out[3] &= quad_or_tet
    if out.any():
        elems = np.flatnonzero(out.any(axis=0))[:10]
        raise DanglingVertexError(
            f"vertex ids out of range [0, {nv}) in elements {elems.tolist()}",
            elems)
    dup = (v[0] == v[1]) | (v[0] == v[2]) | (v[1] == v[2])
    dup |= ((v[3] == v[0]) | (v[3] == v[1]) | (v[3] == v[2])) & quad_or_tet
    if dup.any():
        elems = np.flatnonzero(dup)[:10]
        raise RepeatedVertexError(
            f"repeated vertex ids in elements {elems.tolist()}", elems)


def assemble(vertices, kind_codes: np.ndarray, elem_verts: np.ndarray) -> Mesh:
    """Build a mesh from its elements, deriving the unique surface list
    and incidence.

    ``vertices`` is an (n, 2) or (n, 3) coordinate array, ``kind_codes``
    holds one code into ``CODE_TO_KIND`` per element and ``elem_verts``
    its vertex ids, -1 padded to four columns.  An input that already
    has the dtype and a C layout is kept, not copied, and made read-only.

    Raises ``DanglingVertexError`` for out-of-range vertex ids,
    ``RepeatedVertexError`` (a ``ValueError``) for repeated vertices
    inside an element, ``MixedKindsError`` (a ``ValueError``) for mixed
    2D/3D element kinds, and ``NonManifoldError`` when a surface would
    be shared by more than two elements; each lists the elements it
    names.  Other malformed input raises ``ValueError``.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
        raise ValueError("vertices must be an (n, 2) or (n, 3) array")
    kind_codes = np.ascontiguousarray(kind_codes, dtype=np.int8)
    elem_verts = np.ascontiguousarray(elem_verts, dtype=np.int64)
    ne = len(kind_codes)
    if ne == 0:
        raise ValueError("a mesh needs at least one element")
    if elem_verts.shape != (ne, MAX_ELEM_VERTS):
        raise ValueError("elem_verts must have shape (n_elements, 4)")

    counts = np.bincount(kind_codes, minlength=len(CODE_TO_KIND))
    present = [CODE_TO_KIND[c] for c in np.flatnonzero(counts)]
    widths = {k.surface_width for k in present}
    if len(widths) != 1:
        # name the elements of the rarer dimension
        is_3d = kind_codes == KIND_TO_CODE[ElementKind.TET]
        rare_3d = 2 * int(is_3d.sum()) <= ne
        ids = np.flatnonzero(is_3d == rare_3d)[:10]
        raise MixedKindsError(
            "cannot mix 2D and 3D element kinds in one mesh; the "
            f"{3 if rare_3d else 2}D ones are elements {ids.tolist()}", ids)
    width = widths.pop()
    if width == 3 and vertices.shape[1] != 3:
        raise ValueError("tetrahedral meshes need 3D vertex coordinates")

    nv = len(vertices)
    _check_vertex_ids(kind_codes, elem_verts, nv)

    # every element side as a sorted vertex row: row e * n_slots + j is
    # side j of element e.  Each kind's sides are one gather of its
    # _SIDE_POSITIONS columns, the kind with most sides over all elements
    # first.  An empty slot (a triangle's fourth, among quads) reads
    # (nv, nv), past every real row.
    widest, *others = sorted(present, key=lambda k: -k.n_sides)
    n_slots = widest.n_sides
    rows = np.take(elem_verts, np.ravel(_SIDE_POSITIONS[widest]), axis=1)
    for kind in others:
        mine = np.flatnonzero(kind_codes == KIND_TO_CODE[kind])
        cols = np.ravel(_SIDE_POSITIONS[kind])
        rows[mine, len(cols):] = nv
        rows[mine, :len(cols)] = np.take(elem_verts, mine, axis=0)[:, cols]
    rows = _sort_within_rows(rows.reshape(-1, width))
    n_rows = len(rows)
    n_real = sum(counts[KIND_TO_CODE[k]] * k.n_sides for k in present)

    # a surface is a run of equal rows, one or two slots long.  The sort
    # is stable and slots are element-major, so a run's first slot lies
    # in its left (smaller) element and its last in the right one.  The
    # empty slots sort last, as one run, and are dropped.  Each slot-
    # sized array is deleted once used, to keep the peak of live arrays
    # down: this runs for every file a command reads.
    order, starts = _row_groups(rows, nv + 1)
    starts = starts[:np.searchsorted(starts, n_real)]
    run_len = np.diff(starts, append=n_real)
    if (run_len > 2).any():
        raise _non_manifold(rows, n_slots, order, starts, run_len)
    lo = order[starts]
    starts += run_len
    starts -= 1
    hi = order[starts]
    sid = np.empty(n_rows, dtype=np.int64)
    sid[order[n_real:]] = -1
    del order, starts, run_len

    # surface ids follow each run's first slot: first-encounter order
    first = np.zeros(n_rows, dtype=bool)
    first[lo] = True
    first_slot = np.flatnonzero(first)
    del first
    surf_verts = np.take(rows, first_slot, axis=0)
    del rows
    ns = len(first_slot)
    sid[first_slot] = np.arange(ns)
    run_sid = sid[lo]
    del lo
    sid[hi] = run_sid
    # first and last slot of each surface, then their elements; a
    # boundary surface's run is one slot long
    surf_elems = np.empty((ns, 2), dtype=np.int64)
    surf_elems[:, 0] = first_slot
    surf_elems[run_sid, 1] = hi
    del first_slot, run_sid, hi
    boundary = surf_elems[:, 1] == surf_elems[:, 0]
    surf_elems //= n_slots
    surf_elems[boundary, 1] = -1

    elem_surfs = np.full((ne, MAX_SIDES), -1, dtype=np.int64)
    elem_surfs[:, :n_slots] = sid.reshape(ne, n_slots)

    return Mesh(vertices, kind_codes, elem_verts, elem_surfs,
                surf_verts, surf_elems, builder=_BUILDER)


def is_bijection(perm: np.ndarray, n: int) -> bool:
    """Whether ``perm`` is a bijection of ``0..n-1``, by one boolean
    scatter.  The range is checked first: a negative id would wrap in
    the scatter and an id of n or more would raise."""
    perm = np.asarray(perm)
    if len(perm) != n:
        return False
    if n == 0:
        return True
    if perm.min() < 0 or perm.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    return bool(seen.all())


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """The inverse of the bijection ``perm`` of ``0..len(perm)-1``, by
    one scatter; an ``argsort`` would sort to find it."""
    perm = np.asarray(perm)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    return inverse


def relabel(mesh: Mesh, element_perm: np.ndarray,
            surface_perm: np.ndarray) -> Mesh:
    """Renumber elements and surfaces by old-id -> new-id bijections.

    Pure relabeling: left/right roles and local side order are kept, so
    the result describes the same topology.  New row i is old row
    ``inverse[i]``, gathered with ``np.take``.  Vertices keep their ids,
    so the result shares ``mesh``'s read-only vertex array.  The result
    records the maps, composed with those ``mesh`` records, in arrays
    of its own: the caller's stay as they were.  Maps composed to the
    identity are recorded as None, so a mesh relabeled back to its
    assembled order is, array for array, the mesh ``assemble`` builds.
    The caller checks that both maps are bijections of the right length.
    """
    # -1 (an empty side slot, or no right element) indexes the -1
    # appended to each map
    ep = np.append(np.asarray(element_perm, dtype=np.int64), -1)
    sp = np.append(np.asarray(surface_perm, dtype=np.int64), -1)
    old = inverse_permutation(ep[:-1])
    elem_kind = np.take(mesh.elem_kind, old)
    elem_verts = np.take(mesh.elem_verts, old, axis=0)
    elem_surfs = sp[np.take(mesh.elem_surfs, old, axis=0)]
    old = inverse_permutation(sp[:-1])
    surf_verts = np.take(mesh.surf_verts, old, axis=0)
    surf_elems = ep[np.take(mesh.surf_elems, old, axis=0)]
    if mesh.element_perm is None:
        ep, sp = ep[:-1], sp[:-1]
    else:
        ep, sp = ep[mesh.element_perm], sp[mesh.surface_perm]
        if ((ep == np.arange(len(ep))).all()
                and (sp == np.arange(len(sp))).all()):
            ep = sp = None
    return Mesh(mesh.vertices, elem_kind, elem_verts, elem_surfs,
                surf_verts, surf_elems, element_perm=ep, surface_perm=sp,
                builder=_BUILDER)


def vizing_bound(mesh: Mesh) -> int:
    """Edge-chromatic upper bound of the element connectivity graph, one
    node per element and one line per interior surface: the largest
    number of interior surfaces of one element, plus one."""
    interior = mesh.surf_elems[mesh.surf_elems[:, 1] >= 0]
    return int(np.bincount(interior.ravel(),
                           minlength=mesh.n_elements).max()) + 1
