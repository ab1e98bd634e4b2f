"""Structured mesh generators for triangles, quads, and tetrahedra.

Rectangular patches with optional periodic wraparound per axis.  A fully
periodic patch has no boundary surfaces, which stands in for closed
(sphere-like) meshes in tests and benchmarks.

Periodic axes need at least 3 cells: with 2, distinct cell interfaces
collapse onto the same vertex pair and the mesh stops being manifold
under vertex-set surface identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ElementKind, KIND_TO_CODE, MAX_ELEM_VERTS, Mesh, assemble

FAMILIES = ("tri_rect", "quad_rect", "tet_prism", "tri_closed")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one generated mesh."""

    family: str
    nx: int
    ny: int
    nz: int = 1
    # wrap both axes (tri_rect / quad_rect)
    periodic: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def generate(spec: GeneratorSpec) -> Mesh:
    if spec.family == "tri_rect":
        return gen_tri_rect(spec.nx, spec.ny, spec.periodic)
    if spec.family == "tri_closed":
        return gen_tri_rect(spec.nx, spec.ny, (True, True))
    if spec.family == "quad_rect":
        return gen_quad_rect(spec.nx, spec.ny, spec.periodic)
    return gen_tet_prism(spec.nx, spec.ny, spec.nz)


def _axis_checks(name: str, n: int, periodic: bool) -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if periodic and n < 3:
        raise ValueError(
            f"periodic {name} needs at least 3 cells, got {n}"
        )


def _periodic_pair(periodic) -> tuple[bool, bool]:
    if isinstance(periodic, bool):
        return periodic, periodic
    px, py = periodic
    return bool(px), bool(py)


def _grid(nx: int, ny: int, px: bool, py: bool):
    """Vertex coordinates plus an (ny+1, nx+1) id lookup with wraparound."""
    ncx = nx if px else nx + 1
    ncy = ny if py else ny + 1
    xs, ys = np.meshgrid(np.arange(ncx), np.arange(ncy))
    verts = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
    ii = np.arange(nx + 1) % ncx if px else np.arange(nx + 1)
    jj = np.arange(ny + 1) % ncy if py else np.arange(ny + 1)
    vid = jj[:, None] * ncx + ii[None, :]
    return verts, vid


def gen_tri_rect(nx: int, ny: int, periodic=False) -> Mesh:
    """Rectangle of right triangles, two per cell.

    The splitting diagonal alternates with cell parity so the pattern
    has no global bias.  ``periodic`` is a bool for both axes or a
    ``(periodic_x, periodic_y)`` pair.
    """
    px, py = _periodic_pair(periodic)
    _axis_checks("nx", nx, px)
    _axis_checks("ny", ny, py)
    verts, vid = _grid(nx, ny, px, py)

    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    a = vid[j, i]
    b = vid[j, i + 1]
    c = vid[j + 1, i + 1]
    d = vid[j + 1, i]
    even = (i + j) % 2 == 0

    ev = np.full((ny, nx, 2, MAX_ELEM_VERTS), -1, dtype=np.int64)
    # even cells split along a-c, odd cells along b-d; all CCW
    ev[..., 0, 0] = a
    ev[..., 0, 1] = b
    ev[..., 0, 2] = np.where(even, c, d)
    ev[..., 1, 0] = np.where(even, a, b)
    ev[..., 1, 1] = c
    ev[..., 1, 2] = d
    elem_verts = ev.reshape(-1, MAX_ELEM_VERTS)
    kinds = np.full(len(elem_verts), KIND_TO_CODE[ElementKind.TRIANGLE],
                    dtype=np.int8)
    return assemble(verts, kinds, elem_verts)


def gen_quad_rect(nx: int, ny: int, periodic=False) -> Mesh:
    """Rectangle of unit quads, one per cell.

    Fully periodic patches with an odd cell count on either axis have no
    valid 4-coloring at all: the element adjacency graph is then a torus
    grid with an odd cycle, and such grids are not 4-edge-colorable.
    ``color`` on those meshes exhausts its budget and raises.  Use even
    counts when wrapping both axes.
    """
    px, py = _periodic_pair(periodic)
    _axis_checks("nx", nx, px)
    _axis_checks("ny", ny, py)
    verts, vid = _grid(nx, ny, px, py)

    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    ev = np.full((ny, nx, MAX_ELEM_VERTS), -1, dtype=np.int64)
    ev[..., 0] = vid[j, i]
    ev[..., 1] = vid[j, i + 1]
    ev[..., 2] = vid[j + 1, i + 1]
    ev[..., 3] = vid[j + 1, i]
    elem_verts = ev.reshape(-1, MAX_ELEM_VERTS)
    kinds = np.full(len(elem_verts), KIND_TO_CODE[ElementKind.QUAD],
                    dtype=np.int8)
    return assemble(verts, kinds, elem_verts)


# Six tetrahedra per hex cell, all sharing the main diagonal v0-v7.
# Every cell uses the same split, so neighboring cells agree on the
# face diagonals and the mesh is conforming.
_HEX_TETS = (
    (0, 1, 3, 7),
    (0, 1, 7, 5),
    (0, 5, 7, 4),
    (0, 3, 2, 7),
    (0, 6, 4, 7),
    (0, 2, 6, 7),
)


def gen_tet_prism(nx: int, ny: int, nz: int) -> Mesh:
    """Box of hex cells, each split into six tetrahedra."""
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        _axis_checks(name, n, False)
    xs = np.arange(nx + 1)
    ys = np.arange(ny + 1)
    zs = np.arange(nz + 1)
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    verts = np.stack(
        [gx.reshape(-1), gy.reshape(-1), gz.reshape(-1)], axis=1
    ).astype(float)

    def vid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                          indexing="ij")
    corners = [
        vid(i, j, k), vid(i + 1, j, k), vid(i, j + 1, k),
        vid(i + 1, j + 1, k), vid(i, j, k + 1), vid(i + 1, j, k + 1),
        vid(i, j + 1, k + 1), vid(i + 1, j + 1, k + 1),
    ]
    n_cells = nx * ny * nz
    ev = np.full((n_cells, 6, MAX_ELEM_VERTS), -1, dtype=np.int64)
    flat = [c.reshape(-1) for c in corners]
    for t, tet in enumerate(_HEX_TETS):
        for s, corner in enumerate(tet):
            ev[:, t, s] = flat[corner]
    elem_verts = ev.reshape(-1, MAX_ELEM_VERTS)
    kinds = np.full(len(elem_verts), KIND_TO_CODE[ElementKind.TET],
                    dtype=np.int8)
    return assemble(verts, kinds, elem_verts)


def shuffle_elements(mesh: Mesh, seed: int) -> Mesh:
    """Rebuild ``mesh`` with element ids permuted at random.

    Grid generators number elements coherently; meshes from real mesh
    generators carry no such order.  Shuffling gives a mesh of that
    character for the layers that see the numbering: the reorder plan,
    the sweeps and the file.  The coloring does not, since it visits the
    mesh in a geometric order.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(mesh.n_elements)
    return assemble(mesh.vertices, mesh.elem_kind[order],
                    mesh.elem_verts[order])
