"""Shared fixtures and brute-force oracles.

The oracles here recompute counts and colorability the slow, obvious
way so the fast implementations have something independent to answer
to.
"""

from __future__ import annotations

import numpy as np
import pytest

from meshchroma import SurfaceColoring
from meshchroma.mesh import assemble

_SIDES = {
    "tri": ((0, 1), (1, 2), (2, 0)),
    "quad": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "tet": ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
}


def brute_surface_count(elements):
    """Count distinct surfaces by enumerating element sides as
    sorted vertex tuples."""
    seen = set()
    for kind, vids in elements:
        for side in _SIDES[kind]:
            seen.add(tuple(sorted(vids[p] for p in side)))
    return len(seen)


def brute_interior_count(elements):
    """Surfaces listed by exactly two elements."""
    hits = {}
    for kind, vids in elements:
        for side in _SIDES[kind]:
            key = tuple(sorted(vids[p] for p in side))
            hits[key] = hits.get(key, 0) + 1
    return sum(1 for n in hits.values() if n == 2)


def mesh_elements(mesh):
    """Back-convert a Mesh to (kind, vids) pairs for the oracles."""
    kinds = ("tri", "quad", "tet")
    return [(kinds[k], [v for v in vids if v >= 0])
            for k, vids in zip(mesh.elem_kind.tolist(),
                               mesh.elem_verts.tolist())]


def stored_ids(mesh, canon):
    """Each of ``canon``'s surfaces' id in ``mesh``, read off the side
    slots: ``canon`` is ``assemble`` of ``mesh``'s own elements, so the
    slot that holds id k in ``canon`` holds k's id in ``mesh``."""
    sides = canon.elem_surfs >= 0
    stored = np.full(canon.n_surfaces, -1, dtype=np.int64)
    stored[canon.elem_surfs[sides]] = mesh.elem_surfs[sides]
    return stored


def assert_matches_assembly(mesh):
    """``mesh`` holds exactly the surfaces its elements imply: it equals
    ``assemble`` of its own elements up to a renumbering of surfaces,
    with each element pair possibly swapped left/right."""
    canon = assemble(mesh.vertices, mesh.elem_kind, mesh.elem_verts)
    stored = stored_ids(mesh, canon)
    assert sorted(stored.tolist()) == list(range(mesh.n_surfaces))
    assert np.array_equal(mesh.surf_verts[stored], canon.surf_verts)
    pairs, want = mesh.surf_elems[stored], canon.surf_elems
    assert (pairs[:, 0] >= 0).all()
    assert (np.all(pairs == want, axis=1)
            | np.all(pairs == want[:, ::-1], axis=1)).all()


def colorable_with(mesh, limit):
    """Exact backtracking: does a complete valid coloring with at most
    ``limit`` colors exist?  Only for small meshes."""
    ns = mesh.n_surfaces
    left = mesh.surf_elems[:, 0].tolist()
    right = mesh.surf_elems[:, 1].tolist()
    used = [0] * mesh.n_elements
    order = sorted(range(ns), key=lambda s: min(left[s], right[s]) if right[s] >= 0 else left[s])

    def bt(i):
        if i == ns:
            return True
        s = order[i]
        l, r = left[s], right[s]
        mask = used[l] | (used[r] if r >= 0 else 0)
        for c in range(1, limit + 1):
            bit = 1 << c
            if mask & bit:
                continue
            used[l] |= bit
            if r >= 0:
                used[r] |= bit
            if bt(i + 1):
                return True
            used[l] &= ~bit
            if r >= 0:
                used[r] &= ~bit
        return False

    return bt(0)


def hybrid_patch(nx, ny):
    """Conforming mix of quads and triangles on an nx-by-ny grid.

    Cells with even i+j are split along their diagonal, odd cells stay
    quads.  Splits are interior to cells so every shared edge matches.
    """
    verts = [(i, j) for j in range(ny + 1) for i in range(nx + 1)]

    def vid(i, j):
        return j * (nx + 1) + i

    kinds, elems = [], []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                kinds += [0, 0]
                elems += [(a, b, c, -1), (a, c, d, -1)]
            else:
                kinds.append(1)
                elems.append((a, b, c, d))
    return assemble(np.asarray(verts, dtype=float), kinds, elems)


def random_diagonal_tri(nx, ny, seed):
    """nx-by-ny grid of cells, each split along a random diagonal.

    Interior vertices of odd degree close odd cycles in the element
    graph, so unlike the generated families this mesh is not bipartite.
    """
    flip = np.random.default_rng(seed).random((ny, nx)) < 0.5
    xs, ys = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    verts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    vid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    a, b = vid[j, i], vid[j, i + 1]
    c, d = vid[j + 1, i + 1], vid[j + 1, i]
    ev = np.full((ny, nx, 2, 4), -1, dtype=np.int64)
    ev[..., 0, :3] = np.stack([a, b, np.where(flip, c, d)], axis=-1)
    ev[..., 1, :3] = np.stack([np.where(flip, a, b), c, d], axis=-1)
    ev = ev.reshape(-1, 4)
    return assemble(verts, np.zeros(len(ev), dtype=np.int8), ev)


def naive_greedy(mesh):
    """First-fit greedy with an unbounded palette.

    Baseline only: it needs up to 5 colors on triangles and 7 on quads
    or tets, which is what the fixed-palette pipeline exists to avoid.
    """
    if mesh.n_surfaces == 0:
        raise ValueError("mesh has no surfaces")
    left = mesh.surf_elems[:, 0].tolist()
    right = mesh.surf_elems[:, 1].tolist()
    used = [0] * mesh.n_elements
    colors = [0] * mesh.n_surfaces
    top = 0
    for k in range(mesh.n_surfaces):
        l = left[k]
        r = right[k]
        m = used[l] | (used[r] if r >= 0 else 0)
        c = 1
        while (m >> c) & 1:
            c += 1
        colors[k] = c
        if c > top:
            top = c
        b = 1 << c
        used[l] |= b
        if r >= 0:
            used[r] |= b
    return SurfaceColoring(np.asarray(colors, dtype=np.int32), top)


def fine_edge(ref, s):
    """Base surface ``s`` of the refinement ``ref`` as fine surfaces,
    found from vertex pairs alone: ``(whole, lower, upper, mid)``.

    ``whole`` joins the edge's two ends; ``lower`` and ``upper`` are
    its halves through the lower and the upper endpoint, and ``mid`` is
    the fine vertex they share.  Each is None where the refinement has
    no such surface or vertex.
    """
    u, w = ref.base.surf_verts[s].tolist()
    ids = {tuple(v): i for i, v in enumerate(ref.mesh.surf_verts.tolist())}
    # a midpoint is a new vertex joined to both ends
    mids = [m for m in range(ref.base.n_vertices, ref.mesh.n_vertices)
            if (u, m) in ids and (w, m) in ids]
    assert len(mids) <= 1
    mid = mids[0] if mids else None
    return (ids.get((u, w)), ids.get((u, mid)), ids.get((w, mid)), mid)


@pytest.fixture
def two_tri():
    """Two triangles sharing one edge; 5 surfaces."""
    return assemble([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                    [0, 0], [(0, 1, 2, -1), (0, 2, 3, -1)])


@pytest.fixture
def single_quad():
    return assemble([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                    [1], [(0, 1, 2, 3)])


@pytest.fixture
def single_tet():
    return assemble([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                     (0.0, 0.0, 1.0)], [2], [(0, 1, 2, 3)])
