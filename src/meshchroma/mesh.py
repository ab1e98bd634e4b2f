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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DanglingVertexError, NonManifoldError


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

    def elements(self) -> Iterable[Element]:
        return (self.element(i) for i in range(self.n_elements))

    def surfaces(self) -> Iterable[Surface]:
        return (self.surface(k) for k in range(self.n_surfaces))


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
    ``ValueError`` for repeated vertices inside an element or mixed
    2D/3D element kinds, and ``NonManifoldError`` when a surface would
    be shared by more than two elements.
    """
    kinds, elem_verts = _normalize_elements(list(elements))
    return assemble(vertices, kinds, elem_verts)


def assemble(vertices, kind_codes: np.ndarray, elem_verts: np.ndarray) -> Mesh:
    """Array-level mesh assembly; the fast path used by the generators."""
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
        raise ValueError("cannot mix 2D and 3D element kinds in one mesh")
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
        elems = sorted(set(int(b) // MAX_ELEM_VERTS for b in bad))
        raise DanglingVertexError(
            f"vertex ids out of range [0, {nv}) in elements {elems[:10]}"
        )
    for kind in present:
        rows = np.flatnonzero(kind_codes == KIND_TO_CODE[kind])
        vv = np.sort(elem_verts[rows][:, : kind.n_vertices], axis=1)
        dup = (vv[:, 1:] == vv[:, :-1]).any(axis=1)
        if dup.any():
            raise ValueError(
                f"repeated vertex ids in elements {rows[dup][:10].tolist()}"
            )

    # collect every element side in element-major, side-minor order
    sides_all = np.full((ne, MAX_SIDES, width), -1, dtype=np.int64)
    for kind in present:
        rows = np.flatnonzero(kind_codes == KIND_TO_CODE[kind])
        pos = np.array(_SIDE_POSITIONS[kind], dtype=np.int64)
        sides_all[rows[:, None], np.arange(len(pos))[None, :], :] = (
            elem_verts[rows][:, pos]
        )
    valid = sides_all[:, :, 0] >= 0
    flat_valid = valid.reshape(-1)
    rows = np.sort(sides_all.reshape(-1, width)[flat_valid], axis=1)
    slot_elem = np.repeat(np.arange(ne, dtype=np.int64), MAX_SIDES)[flat_valid]
    slot_side = np.tile(np.arange(MAX_SIDES, dtype=np.int64), ne)[flat_valid]

    uniq, first_idx, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    sid = rank[inverse]
    surf_verts = uniq[order]

    counts = np.bincount(sid, minlength=len(uniq))
    if (counts > 2).any():
        offenders = np.flatnonzero(counts > 2)[:5]
        detail = []
        for s in offenders:
            elems = slot_elem[sid == s]
            detail.append(
                f"surface {tuple(surf_verts[s])} shared by elements "
                f"{elems.tolist()}"
            )
        raise NonManifoldError("; ".join(detail))

    # slots are element-major, so within one surface the first slot holds
    # the smaller element id: that element becomes the left
    by_sid = np.argsort(sid, kind="stable")
    starts = np.searchsorted(sid[by_sid], np.arange(len(uniq)))
    left = slot_elem[by_sid[starts]]
    right = np.full(len(uniq), -1, dtype=np.int64)
    two = counts == 2
    right[two] = slot_elem[by_sid[starts[two] + 1]]
    surf_elems = np.stack([left, right], axis=1)

    elem_surfs = np.full((ne, MAX_SIDES), -1, dtype=np.int64)
    elem_surfs[slot_elem, slot_side] = sid

    return Mesh(vertices, kind_codes, elem_verts, elem_surfs,
                surf_verts, surf_elems)


def relabel(mesh: Mesh, element_perm: np.ndarray,
            surface_perm: np.ndarray) -> Mesh:
    """Renumber elements and surfaces by old-id -> new-id bijections.

    Pure relabeling: left/right roles and local side order are kept, so
    the result describes the same topology.  The caller checks that both
    maps are bijections of the right length.
    """
    ep = np.asarray(element_perm)
    sp = np.asarray(surface_perm)
    elem_kind = np.empty_like(mesh.elem_kind)
    elem_kind[ep] = mesh.elem_kind
    elem_verts = np.empty_like(mesh.elem_verts)
    elem_verts[ep] = mesh.elem_verts
    elem_surfs = np.empty_like(mesh.elem_surfs)
    elem_surfs[ep] = np.where(mesh.elem_surfs >= 0,
                              sp[mesh.elem_surfs], -1)
    surf_verts = np.empty_like(mesh.surf_verts)
    surf_verts[sp] = mesh.surf_verts
    surf_elems = np.empty_like(mesh.surf_elems)
    surf_elems[sp] = np.where(mesh.surf_elems >= 0,
                              ep[mesh.surf_elems], -1)
    return Mesh(
        vertices=mesh.vertices.copy(),
        elem_kind=elem_kind,
        elem_verts=elem_verts,
        elem_surfs=elem_surfs,
        surf_verts=surf_verts,
        surf_elems=surf_elems,
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
    except DanglingVertexError as exc:
        return [Diagnostic("dangling_vertex", str(exc))]
    except NonManifoldError as exc:
        return [Diagnostic("non_manifold", str(exc))]
    except ValueError as exc:
        return [Diagnostic("repeated_vertex", str(exc))]
    diags: list[Diagnostic] = []
    ns = mesh.n_surfaces
    sides = canon.elem_surfs >= 0
    listed = (mesh.elem_surfs >= 0).sum(axis=1)
    for e in np.flatnonzero(listed != sides.sum(axis=1)):
        diags.append(Diagnostic(
            "side_count", f"element {e} lists {listed[e]} surfaces, "
            f"expected {mesh.kind_of(e).n_sides}", element_id=int(e)))

    stored = stored_surface_ids(mesh, canon)
    slot_elem, slot_side = np.nonzero(sides)
    ids = mesh.elem_surfs[sides]
    other = stored[canon.elem_surfs[sides]]
    bad = (ids < 0) | (ids >= ns) | (ids != other)
    for e, j, s, t in zip(slot_elem[bad], slot_side[bad], ids[bad],
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

    _, first, inverse = np.unique(mesh.surf_verts, axis=0,
                                  return_index=True, return_inverse=True)
    first = first[inverse.reshape(-1)]
    for s in np.flatnonzero(first != np.arange(ns)):
        diags.append(Diagnostic(
            "duplicate_surface", f"surfaces {first[s]} and {s} share "
            f"vertex set {mesh.surf_verts[s].tolist()}", surface_id=int(s)))

    sid = stored[mapped]
    (l, r), (cl, cr) = mesh.surf_elems[sid].T, canon.surf_elems[mapped].T
    same_pair = ((l == cl) & (r == cr)) | ((l == cr) & (r == cl))
    wrong = ((mesh.surf_verts[sid] != canon.surf_verts[mapped]).any(axis=1)
             | (l < 0) | ~same_pair)
    for k, s in zip(mapped[wrong], sid[wrong]):
        diags.append(Diagnostic(
            "incidence", f"surface {s} has vertices "
            f"{mesh.surf_verts[s].tolist()} and elements "
            f"{mesh.surf_elems[s].tolist()}; its elements imply "
            f"{canon.surf_verts[k].tolist()} and "
            f"{canon.surf_elems[k].tolist()}", surface_id=int(s)))
    return diags
