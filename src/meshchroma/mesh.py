"""Mesh containers and element/surface incidence.

A mesh stores flat numpy arrays so that million-surface inputs stay cheap
to build and traverse.  ``Element`` and ``Surface`` are light views used
for construction input and spot inspection; the arrays are the truth.

Conventions:

* surfaces are identified by their sorted vertex-id tuple, created in
  first-encounter order while sweeping elements in id order and each
  element's sides in local order,
* the *left* element of a surface is the incident element with the
  smaller original id; boundary surfaces have no right element,
* local sides follow the vertex list: a triangle ``(v0, v1, v2)`` has
  sides ``(v0,v1), (v1,v2), (v2,v0)``, a quad adds ``(v3,v0)``, and a
  tetrahedron has faces ``(012), (013), (023), (123)``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingVertexError,
    ElementFaultError,
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
class Element:
    """One element: its kind, vertex ids, and (once built) surface ids."""

    kind: ElementKind
    vertex_ids: tuple[int, ...]
    surface_ids: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Surface:
    """One edge or face: sorted vertex ids plus incident elements."""

    vertex_ids: tuple[int, ...]
    left_element: int
    right_element: int | None = None

    @property
    def is_boundary(self) -> bool:
        return self.right_element is None


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a validation pass."""

    code: str
    message: str
    element_id: int | None = None
    surface_id: int | None = None


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable mesh with derived surface incidence.

    Arrays are padded with -1 where an element has fewer than four
    vertices or sides, and in ``surf_elems`` a right entry of -1 marks
    a boundary surface.
    """

    vertices: np.ndarray  # (nv, 2|3) float64
    elem_kind: np.ndarray  # (ne,) int8 codes into CODE_TO_KIND
    elem_verts: np.ndarray  # (ne, 4) int64, -1 padded
    elem_surfs: np.ndarray  # (ne, 4) int64, -1 padded
    surf_verts: np.ndarray  # (ns, 2|3) int64, each row sorted
    surf_elems: np.ndarray  # (ns, 2) int64, right = -1 on the boundary

    def __post_init__(self):
        for a in (self.vertices, self.elem_kind, self.elem_verts,
                  self.elem_surfs, self.surf_verts, self.surf_elems):
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

    def kind_of(self, i: int) -> ElementKind:
        return CODE_TO_KIND[self.elem_kind[i]]

    def element(self, i: int) -> Element:
        kind = self.kind_of(i)
        return Element(
            kind,
            tuple(int(v) for v in self.elem_verts[i, : kind.n_vertices]),
            tuple(int(s) for s in self.elem_surfs[i, : kind.n_sides]),
        )

    def surface(self, k: int) -> Surface:
        row = self.surf_verts[k]
        left, right = self.surf_elems[k]
        return Surface(
            tuple(int(v) for v in row[row >= 0]),
            int(left),
            None if right < 0 else int(right),
        )

    def interior_mask(self) -> np.ndarray:
        return self.surf_elems[:, 1] >= 0

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask().sum())


def _normalize_elements(elements) -> tuple[np.ndarray, np.ndarray]:
    """Turn an element sequence into (kind codes, padded vertex array)."""
    kinds = np.empty(len(elements), dtype=np.int8)
    verts = np.full((len(elements), MAX_ELEM_VERTS), -1, dtype=np.int64)
    for i, e in enumerate(elements):
        if isinstance(e, Element):
            kind, vids = e.kind, e.vertex_ids
        else:
            kind, vids = e
        if not isinstance(kind, ElementKind):
            kind = ElementKind(kind)
        if len(vids) != kind.n_vertices:
            raise ValueError(
                f"element {i}: {kind.value} needs {kind.n_vertices} vertices, "
                f"got {len(vids)}"
            )
        kinds[i] = KIND_TO_CODE[kind]
        verts[i, : len(vids)] = vids
    return kinds, verts


def build_surfaces(vertices, elements) -> Mesh:
    """Assemble a mesh, deriving the unique surface list and incidence.

    ``vertices`` is an (n, 2) or (n, 3) coordinate array; ``elements``
    is a sequence of ``Element`` or ``(kind, vertex_ids)`` pairs.

    Raises ``DanglingVertexError`` for out-of-range vertex ids,
    ``RepeatedVertexError`` (a ``ValueError``) for repeated vertices
    inside an element, ``MixedKindsError`` (a ``ValueError``) for mixed
    2D/3D element kinds, and ``NonManifoldError`` when a surface would
    be shared by more than two elements.
    """
    kinds, elem_verts = _normalize_elements(list(elements))
    return assemble(vertices, kinds, elem_verts)


def _sort_within_rows(a: np.ndarray) -> np.ndarray:
    """Sort each row of an (n, 2|3) array in place and return it, by
    compare-exchange on whole columns: several times faster than
    ``np.sort(a, axis=1)`` on rows this short."""
    for i, j in ((0, 1), (1, 2), (0, 1))[: 1 if a.shape[1] == 2 else 3]:
        low = np.minimum(a[:, i], a[:, j])
        np.maximum(a[:, i], a[:, j], out=a[:, j])
        a[:, i] = low
    return a


# pairs of values below this bound pack into one int64
_PAIR_LIMIT = math.isqrt(np.iinfo(np.int64).max)


def _row_groups(rows: np.ndarray,
                n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an (n, w) integer array into runs of equal rows.

    Precondition: ``rows`` is int64 and every value lies in
    ``[0, n_values)``.

    Key: each row is packed into one int64 and the keys get one
    default-kind ``np.argsort``.  A width-2 row's key is
    ``v0 * n_values + v1``.  Each further column c makes the key
    ``rank * n_values + v_c``, where ``rank`` is the dense rank of the
    key of the columns before c, so that key stays below
    ``n_rows * n_values``; a tet face's key is the dense rank of its
    ``(v0, v1)`` prefix times ``n_values``, plus ``v2``.  Should a pair
    of values not fit in int64 (``n_values`` above ``_PAIR_LIMIT``), the
    values are first replaced by their dense rank.

    Returns ``order``, a permutation of the row indices that puts equal
    rows next to each other, and ``starts``, the positions in ``order``
    where each run begins.

    Ties: the sort is unstable, so the rows of one run come in no set
    order.  A caller that needs a run's first row takes the smallest
    index in it; for a run of at most two rows that is the minimum of
    its two ends, ``order[start]`` and ``order[end]``.
    """
    if n_values > _PAIR_LIMIT:
        _, ranks = np.unique(rows, return_inverse=True)
        rows, n_values = ranks.reshape(rows.shape), rows.size
    key = rows[:, 0]
    for c in range(1, rows.shape[1]):
        if c > 1:
            key = np.unique(key, return_inverse=True)[1]
        key = key * n_values + rows[:, c]
    order = np.argsort(key)
    key = key[order]
    new_run = np.empty(len(key), dtype=bool)
    new_run[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    return order, np.flatnonzero(new_run)


def _run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """The length of each run of a sequence of ``n`` items whose runs
    begin at ``starts``."""
    run_len = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=run_len[:-1])
    run_len[-1:] = n - starts[-1:]
    return run_len


def _non_manifold(rows, slot_elem, order, starts,
                  run_len) -> NonManifoldError:
    """The error for runs of three or more equal side rows, naming the
    first five such surfaces in first-encounter order."""
    big = np.flatnonzero(run_len > 2)
    firsts = np.minimum.reduceat(order, starts)[big]
    detail = []
    named = []
    for r in big[np.argsort(firsts)[:5]]:
        slots = np.sort(order[starts[r]:starts[r] + run_len[r]])
        elems = slot_elem[slots]
        named.extend(elems.tolist())
        detail.append(
            f"surface {tuple(rows[slots[0]].tolist())} shared by elements "
            f"{elems.tolist()}"
        )
    return NonManifoldError("; ".join(detail), named)


def assemble(vertices, kind_codes: np.ndarray, elem_verts: np.ndarray) -> Mesh:
    """Array-level mesh assembly; the fast path used by the generators
    and the native reader.  Raises as ``build_surfaces`` does; each
    ``ElementFaultError`` lists the elements it names."""
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

    present = [CODE_TO_KIND[c] for c in np.unique(kind_codes)]
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
    # vertex-slot validity per kind, then range and distinctness checks
    nvert = np.array([_KIND_NV[CODE_TO_KIND[c]] for c in range(3)])[kind_codes]
    slot_valid = np.arange(MAX_ELEM_VERTS)[None, :] < nvert[:, None]
    used_ids = elem_verts[slot_valid]
    if used_ids.size and (used_ids.min() < 0 or used_ids.max() >= nv):
        bad = np.flatnonzero(
            ((elem_verts < 0) | (elem_verts >= nv)) & slot_valid
        )
        elems = np.unique(bad // MAX_ELEM_VERTS)[:10]
        raise DanglingVertexError(
            f"vertex ids out of range [0, {nv}) in elements {elems.tolist()}",
            elems)
    for kind in present:
        rows = np.flatnonzero(kind_codes == KIND_TO_CODE[kind])
        vv = elem_verts[rows].T
        dup = np.zeros(len(rows), dtype=bool)
        for i, j in itertools.combinations(range(kind.n_vertices), 2):
            dup |= vv[i] == vv[j]
        if dup.any():
            elems = rows[dup][:10]
            raise RepeatedVertexError(
                f"repeated vertex ids in elements {elems.tolist()}", elems)

    # collect every element side in element-major, side-minor order;
    # side j of element e has slot e * MAX_SIDES + j.  np.take is several
    # times faster than fancy indexing at gathering whole rows.
    sides_all = np.full((ne, MAX_SIDES, width), -1, dtype=np.int64)
    for kind in present:
        rows = np.flatnonzero(kind_codes == KIND_TO_CODE[kind])
        pos = np.array(_SIDE_POSITIONS[kind], dtype=np.int64)
        sides_all[rows, : len(pos)] = np.take(elem_verts, rows, axis=0)[:, pos]
    slot = np.flatnonzero(sides_all[:, :, 0] >= 0)
    slot_elem = slot // MAX_SIDES
    rows = _sort_within_rows(np.take(sides_all.reshape(-1, width), slot,
                                     axis=0))
    del sides_all

    # a surface is a run of equal rows, one or two slots long; slots
    # are element-major, so the smaller slot of a run holds the smaller
    # element id, the left
    order, starts = _row_groups(rows, nv)
    run_len = _run_lengths(starts, len(rows))
    if (run_len > 2).any():
        raise _non_manifold(rows, slot_elem, order, starts, run_len)
    ends = order[starts + run_len - 1]
    lo = np.minimum(order[starts], ends)
    hi = np.maximum(order[starts], ends)

    # surface ids follow each run's smaller slot: first-encounter order
    first = np.zeros(len(rows), dtype=bool)
    first[lo] = True
    sid = np.cumsum(first) - 1
    sid[hi] = sid[lo]
    first_slot = np.flatnonzero(first)
    surf_verts = np.take(rows, first_slot, axis=0)
    surf_elems = np.full((len(first_slot), 2), -1, dtype=np.int64)
    surf_elems[:, 0] = slot_elem[first_slot]
    inner = hi != lo
    surf_elems[sid[hi[inner]], 1] = slot_elem[hi[inner]]

    elem_surfs = np.full((ne, MAX_SIDES), -1, dtype=np.int64)
    elem_surfs.reshape(-1)[slot] = sid

    return Mesh(vertices, kind_codes, elem_verts, elem_surfs,
                surf_verts, surf_elems)


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
    ``inverse[i]``, gathered with ``np.take``.  The caller checks that
    both maps are bijections of the right length.
    """
    ep = np.asarray(element_perm, dtype=np.int64)
    sp = np.asarray(surface_perm, dtype=np.int64)
    old_elem = inverse_permutation(ep)
    old_surf = inverse_permutation(sp)
    elem_surfs = np.take(mesh.elem_surfs, old_elem, axis=0)
    surf_elems = np.take(mesh.surf_elems, old_surf, axis=0)
    return Mesh(
        vertices=mesh.vertices.copy(),
        elem_kind=np.take(mesh.elem_kind, old_elem),
        elem_verts=np.take(mesh.elem_verts, old_elem, axis=0),
        elem_surfs=np.where(elem_surfs >= 0, sp[elem_surfs], -1),
        surf_verts=np.take(mesh.surf_verts, old_surf, axis=0),
        surf_elems=np.where(surf_elems >= 0, ep[surf_elems], -1),
    )


@dataclass(frozen=True)
class ConnectivityGraph:
    """Element connectivity: one node per element, one line per
    interior surface."""

    n_nodes: int
    lines: np.ndarray  # (n_lines, 2) element id pairs
    degrees: np.ndarray  # (n_nodes,)


def connectivity_graph(mesh: Mesh) -> ConnectivityGraph:
    """Build the element-connectivity graph.

    Boundary surfaces touch a single element and contribute no line.
    """
    interior = mesh.surf_elems[mesh.interior_mask()]
    degrees = np.bincount(
        interior.reshape(-1), minlength=mesh.n_elements
    ).astype(np.int64)
    return ConnectivityGraph(mesh.n_elements, interior.copy(), degrees)


def vizing_bound(graph: ConnectivityGraph) -> int:
    """Edge-chromatic upper bound: maximum node degree plus one."""
    if graph.n_nodes == 0:
        return 0
    if len(graph.degrees) == 0:
        return 1
    return int(graph.degrees.max()) + 1


def stored_surface_ids(mesh: Mesh, canon: Mesh) -> np.ndarray:
    """Stored id of each of ``canon``'s surfaces, read off the side slots.

    ``canon`` is ``assemble`` of ``mesh``'s own elements, so both list
    each element's sides in the same slots: the slot that holds
    canonical id k in ``canon`` holds k's stored id in ``mesh``.  Where
    the slots of one surface disagree one of them wins; ``validate``
    reports the disagreement.
    """
    sides = canon.elem_surfs >= 0
    stored = np.full(canon.n_surfaces, -1, dtype=np.int64)
    stored[canon.elem_surfs[sides]] = mesh.elem_surfs[sides]
    return stored


def _value_codes(rows: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """``rows`` with each value outside ``[0, n)`` replaced by ``n`` plus
    its dense rank among those values, and the bound of the result; equal
    values stay equal and distinct ones distinct."""
    rows = np.asarray(rows, dtype=np.int64)
    out = (rows < 0) | (rows >= n)
    if not out.any():
        return rows, n
    extra, ranks = np.unique(rows[out], return_inverse=True)
    rows = rows.copy()
    rows[out] = n + ranks
    return rows, n + len(extra)


def validate(mesh: Mesh) -> list[Diagnostic]:
    """Check that ``mesh`` holds exactly the surfaces its elements imply.

    The invariant: ``assemble(vertices, elem_kind, elem_verts)`` succeeds,
    and ``mesh`` equals it up to a renumbering of the surfaces.  The
    renumbering, read off the element side slots by
    ``stored_surface_ids``, must be a bijection onto the stored ids.
    Under it each stored surface has the canonical vertex row and the
    canonical element pair with a left element; the pair may be swapped,
    since ``relabel`` keeps left/right roles when it renumbers elements.
    No two stored vertex rows repeat.  Returns the findings, each naming
    the element or surface at fault; never raises.
    """
    try:
        canon = assemble(mesh.vertices, mesh.elem_kind, mesh.elem_verts)
    except ElementFaultError as exc:
        return [Diagnostic(exc.code, str(exc),
                           element_id=next(iter(exc.element_ids), None))]
    except ValueError as exc:
        return [Diagnostic("malformed", str(exc))]
    diags: list[Diagnostic] = []
    ns = mesh.n_surfaces
    sides = canon.elem_surfs >= 0
    listed = (mesh.elem_surfs >= 0).sum(axis=1)
    for e in np.flatnonzero(listed != sides.sum(axis=1)):
        diags.append(Diagnostic(
            "side_count", f"element {e} lists {listed[e]} surfaces, "
            f"expected {mesh.kind_of(e).n_sides}", element_id=int(e)))

    stored = stored_surface_ids(mesh, canon)
    slot = np.flatnonzero(sides)
    ids = mesh.elem_surfs.reshape(-1)[slot]
    other = stored[canon.elem_surfs.reshape(-1)[slot]]
    bad = (ids < 0) | (ids >= ns) | (ids != other)
    for e, j, s, t in zip(*np.divmod(slot[bad], MAX_SIDES), ids[bad],
                          other[bad]):
        why = (f"outside [0, {ns})" if not 0 <= s < ns else
               f"but another slot gives that side surface {t}")
        diags.append(Diagnostic(
            "incidence", f"element {e} side {j} lists surface {s}, {why}",
            element_id=int(e)))
    mapped = np.flatnonzero((stored >= 0) & (stored < ns))
    uses = np.bincount(stored[mapped], minlength=ns)
    for s in np.flatnonzero(uses != 1):
        diags.append(Diagnostic(
            "incidence", f"surface {s} stands for {uses[s]} of the "
            f"surfaces the elements imply, expected 1", surface_id=int(s)))

    order, starts = _row_groups(*_value_codes(mesh.surf_verts,
                                              mesh.n_vertices))
    run_len = _run_lengths(starts, ns)
    repeats = []
    for r in np.flatnonzero(run_len > 1):
        run = np.sort(order[starts[r]:starts[r] + run_len[r]]).tolist()
        repeats.extend((s, run[0]) for s in run[1:])
    for s, f in sorted(repeats):
        diags.append(Diagnostic(
            "duplicate_surface", f"surfaces {f} and {s} share "
            f"vertex set {mesh.surf_verts[s].tolist()}", surface_id=s))

    sid = stored[mapped]
    l, r = np.take(mesh.surf_elems, sid, axis=0).T
    cl, cr = np.take(canon.surf_elems, mapped, axis=0).T
    same_pair = ((l == cl) & (r == cr)) | ((l == cr) & (r == cl))
    wrong = (l < 0) | ~same_pair
    differs = (np.take(mesh.surf_verts, sid, axis=0)
               != np.take(canon.surf_verts, mapped, axis=0))
    for column in differs.T:  # numpy reduces short rows slowly
        wrong |= column
    for k, s in zip(mapped[wrong], sid[wrong]):
        diags.append(Diagnostic(
            "incidence", f"surface {s} has vertices "
            f"{mesh.surf_verts[s].tolist()} and elements "
            f"{mesh.surf_elems[s].tolist()}; its elements imply "
            f"{canon.surf_verts[k].tolist()} and "
            f"{canon.surf_elems[k].tolist()}", surface_id=int(s)))
    return diags
