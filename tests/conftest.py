"""Shared fixtures and brute-force oracles.

The oracles here recompute counts and colorability the slow, obvious
way so the fast implementations have something independent to answer
to.
"""

from __future__ import annotations

import sys
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from meshchroma import (
    ElementFaultError,
    MalformedSectionError,
    NativeMesh,
    SurfaceColoring,
    UnsupportedVersionError,
    child_color,
)
from meshchroma.amr import check_parent_layout
from meshchroma.mesh import MAX_ELEM_VERTS, assemble, relabel

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


def traced_peak(call) -> float:
    """tracemalloc peak of ``call()`` in MiB, after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# The fixed refinement tables, restated from ``amr``.
_CHILD_TEMPLATE = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
_SLOT_PARENT = np.pad([[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 0, 1]],
                      ((0, 0), (0, 1))).ravel()
_SLOT_HALF = np.pad([[True, False, True]] * 3 + [[False] * 3],
                    ((0, 0), (0, 1))).ravel()
_SLOT_CORNER = np.repeat(np.arange(4), 4)


def reference_reconstruct(fine, parents, coloring):
    """``reconstruct_refinement`` by a full rebuild: refine the base
    again, compare every fine vertex, kind and element row with the
    rebuilt ones, and read the base colors back out of the fine ones.

    Returns the base mesh and the refined parent ids, or raises what
    ``reconstruct_refinement`` raises, with the same message.  Only the
    parent table check is shared with it.
    """
    parents = np.asarray(parents, dtype=np.int64)
    refined = check_parent_layout(parents, fine.n_elements)
    nu, nr = fine.n_elements - 4 * len(refined), len(refined)
    keep = np.ones(nu + nr, dtype=bool)
    keep[refined] = False
    unrefined = np.flatnonzero(keep)
    kinds = np.zeros(nu + nr, dtype=np.int8)
    kinds[unrefined] = fine.elem_kind[:nu]
    verts = np.full((nu + nr, MAX_ELEM_VERTS), -1, dtype=np.int64)
    verts[unrefined] = fine.elem_verts[:nu]
    verts[refined, :3] = fine.elem_verts[nu:, 0].reshape(-1, 4)[:, :3]
    first_mid = fine.elem_verts[nu + 3::4, :3].min(initial=fine.n_vertices)
    n_base = max(verts.max() + 1, first_mid)
    try:
        base = assemble(fine.vertices[:n_base], kinds, verts)
    except (ElementFaultError, ValueError) as exc:
        raise MalformedSectionError(
            f"could not reassemble the base mesh: {exc}") from None

    # the full refinement of the base, midpoints numbered as they are
    # first met over the element sides
    psurfs = base.elem_surfs[refined, :3]
    split = np.zeros(base.n_surfaces, dtype=bool)
    split[psurfs] = True
    met = [s for s in base.elem_surfs.ravel().tolist() if s >= 0 and split[s]]
    met = list(dict.fromkeys(met))
    mid = np.empty(base.n_surfaces, dtype=np.int64)
    mid[met] = base.n_vertices + np.arange(len(met))
    ends = base.surf_verts[met]
    vertices = np.vstack([base.vertices, 0.5 * (base.vertices[ends[:, 0]]
                                                + base.vertices[ends[:, 1]])])
    six = np.hstack([base.elem_verts[refined, :3], mid[psurfs]])
    elem_verts = np.full((nu + 4 * nr, MAX_ELEM_VERTS), -1, dtype=np.int64)
    elem_verts[:nu] = base.elem_verts[unrefined]
    elem_verts[nu:, :3] = six[:, _CHILD_TEMPLATE].reshape(-1, 3)
    kinds = np.concatenate([base.elem_kind[unrefined],
                            np.zeros(4 * nr, dtype=np.int8)])

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
            first = np.flatnonzero(moved[:n])
            where = (f"it has {fine.n_vertices} vertices where the rebuilt "
                     f"refinement has {len(vertices)}; the first at fault "
                     f"is vertex {first[0] if first.size else n}")
        raise MalformedSectionError(
            f"mesh is not a canonical single-level refinement: {where}")

    fc = np.asarray(coloring.colors)
    if len(fc) != fine.n_surfaces:
        raise MalformedSectionError("coloring does not match the fine mesh")
    related = base.elem_surfs[refined][:, _SLOT_PARENT]
    corner = base.elem_verts[refined][:, _SLOT_CORNER]
    upper = (base.surf_verts[:, 0][related] != corner) & _SLOT_HALF
    lower = _SLOT_HALF & ~upper
    copies = fine.elem_surfs[:nu]
    halves = fine.elem_surfs[nu:].reshape(-1, 16)[lower]
    # each base edge reads its whole edge, or its half through the lower
    # endpoint where there is one
    out = np.empty(base.n_surfaces + 1, dtype=np.int32)
    out[base.elem_surfs[unrefined]] = fc[copies]
    out = out[:-1]
    out[related[lower]] = fc[halves]
    keep = np.concatenate([copies[copies >= 0], halves])
    bad = keep[(fc[keep] < 1) | (fc[keep] > 3)]
    if not bad.size:
        slots = np.empty(fine.elem_surfs.shape, dtype=np.int32)
        slots[:nu] = np.append(out, 0)[base.elem_surfs[unrefined]]
        slots[nu:] = child_color(out[related], 1 + upper).reshape(-1, 4)
        derived = np.empty(fine.n_surfaces + 1, dtype=np.int32)
        derived[fine.elem_surfs] = slots
        bad = np.flatnonzero(derived[:-1] != fc)
    if bad.size:
        s = int(bad.min())
        e = int(fine.surf_elems[s, 0])
        raise MalformedSectionError(
            f"coloring was not produced by this refinement: fine surface "
            f"{s} of element {e} (parent {parents[e]}) has color {fc[s]}")
    return base, refined


# The native format's names, restated from ``meshio``.
_KINDS = {"tri": 0, "quad": 1, "tet": 2}
_N_IDS = {"tri": 3, "quad": 4, "tet": 4}
_TAIL = ("PARENTS", "COLORS", "PERMUTATIONS")
_INT64 = np.iinfo(np.int64)


def _content_lines(path):
    """The lines of a UTF-8 text file with universal newlines, each cut
    at ``#`` and stripped; blank lines are dropped."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                yield line


def _ref_vertices(lines, path):
    rows = []
    width = None
    for line in lines:
        parts = line.split()
        if width is None:
            width = len(parts)
            if width not in (2, 3):
                raise MalformedSectionError(
                    f"{path}: vertices must have 2 or 3 coordinates")
        elif len(parts) != width:
            raise MalformedSectionError(f"{path}: inconsistent vertex width")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad vertex line {' '.join(parts)!r}") from None
    return np.array(rows, dtype=np.float64)


def _ref_elements(lines, path):
    verts = np.full((len(lines), MAX_ELEM_VERTS), -1, dtype=np.int64)
    codes = np.empty(len(lines), dtype=np.int8)
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] not in _KINDS:
            raise MalformedSectionError(
                f"{path}: unknown element kind {parts[0]!r}")
        n = _N_IDS[parts[0]]
        if len(parts) != 1 + n:
            raise MalformedSectionError(
                f"{path}: {parts[0]} element needs {n} vertex ids")
        try:
            vids = [int(p) for p in parts[1:]]
            verts[i, :n] = vids
        except (ValueError, OverflowError):
            raise MalformedSectionError(f"{path}: bad element line") from None
        codes[i] = _KINDS[parts[0]]
    return codes, verts


def _ref_ints(lines, what, path):
    values = []
    for tok in lines:
        try:
            value = int(tok)
        except ValueError:
            value = None
        if value is None or not _INT64.min <= value <= _INT64.max:
            raise MalformedSectionError(
                f"{path}: bad integer {tok!r} in {what}")
        values.append(value)
    return np.array(values, dtype=np.int64)


def _ref_body_length(name, counts, ne, path):
    if name in ("VERTICES", "ELEMENTS"):
        if len(counts) != 1:
            raise MalformedSectionError(f"{path}: expected {name} <n>")
        if counts[0] < 1:
            raise MalformedSectionError(f"{path}: {name} count must be >= 1")
    elif name == "PARENTS":
        if counts != [ne]:
            raise MalformedSectionError(
                f"{path}: PARENTS count must equal n_elements")
    elif name == "COLORS":
        if len(counts) != 1 or counts[0] < 0:
            raise MalformedSectionError(
                f"{path}: expected COLORS <n_surfaces>")
    elif len(counts) != 2 or counts[0] != ne or counts[1] < 0:
        raise MalformedSectionError(
            f"{path}: PERMUTATIONS counts must be <n_elements> <n_surfaces>")
    return sum(counts)


def reference_read_native(path):
    """``read_native`` by the line parser it replaced: one content line
    at a time, every token read by Python's ``int`` or ``float``, each
    check made as its line is read, and the first fault named.

    Returns a ``NativeMesh`` without body bytes, or raises what
    ``read_native`` raises, with the same message.  It shares only
    ``assemble`` and ``relabel`` with the library.
    """
    lines = _content_lines(path)

    def take(what):
        line = next(lines, None)
        if line is None:
            raise MalformedSectionError(f"{path}: file ends before {what}")
        return line

    def header(line):
        name, *counts = line.split()
        try:
            return name, [int(c) for c in counts]
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad section header {line!r}") from None

    def body(n, what, decode):
        # a bad line is reported before the missing ones
        got = list(islice(lines, min(n, sys.maxsize)))
        values = decode(got)
        if len(got) < n:
            raise MalformedSectionError(f"{path}: file ends before {what}")
        return values

    magic = take("the format header").split()
    if len(magic) != 2 or magic[0] != "MESHCHROMA":
        raise UnsupportedVersionError(f"{path}: not a MESHCHROMA file")
    if magic[1] != "1":
        raise UnsupportedVersionError(f"{path}: unsupported version {magic[1]}")
    name, counts = header(take("VERTICES"))
    if name != "VERTICES":
        raise MalformedSectionError(f"{path}: expected VERTICES <n>")
    coords = body(_ref_body_length(name, counts, 0, path), "a vertex line",
                  lambda got: _ref_vertices(got, path))
    if not np.isfinite(coords).all():
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        raise MalformedSectionError(
            f"{path}: non-finite coordinates at vertices {bad[:10].tolist()}")
    name, counts = header(take("ELEMENTS"))
    if name != "ELEMENTS":
        raise MalformedSectionError(f"{path}: expected ELEMENTS <n>")
    kinds, verts = body(_ref_body_length(name, counts, 0, path),
                        "an element line", lambda got: _ref_elements(got, path))
    ne = len(kinds)
    tail = {}
    for line in lines:
        name, counts = header(line)
        if tail and name.lstrip("-").isdigit():
            raise MalformedSectionError(
                f"{path}: {list(tail)[-1]} has more values than its "
                f"header count")
        if name not in _TAIL or name in tail:
            raise MalformedSectionError(f"{path}: unexpected section {name!r}")
        values = tail[name] = body(_ref_body_length(name, counts, ne, path),
                                   name, lambda got: _ref_ints(got, name, path))
        if name == "PARENTS" and (values < -1).any():
            i = np.flatnonzero(values < -1)[0]
            raise MalformedSectionError(
                f"{path}: PARENTS value {values[i]} for element {i} is "
                f"below -1")
        if name == "COLORS" and ((values < -1) | (values == 0)).any():
            raise MalformedSectionError(f"{path}: colors must be -1 or >= 1")

    parents = tail.get("PARENTS")
    colors = tail.get("COLORS")
    perms = tail.get("PERMUTATIONS")
    if perms is None:
        mesh = assemble(coords, kinds, verts)
    else:
        element_perm, surface_perm = perms[:ne], perms[ne:]
        if sorted(element_perm.tolist()) != list(range(ne)):
            raise MalformedSectionError(
                f"{path}: permutation is not a bijection")
        # old element i is file element element_perm[i]
        mesh = assemble(coords, kinds[element_perm], verts[element_perm])
    ns = mesh.n_surfaces
    if colors is not None and len(colors) != ns:
        raise MalformedSectionError(
            f"{path}: COLORS count {len(colors)} does not match {ns} "
            f"surfaces")
    if perms is not None:
        if len(surface_perm) != ns:
            raise MalformedSectionError(
                f"{path}: PERMUTATIONS counts must be <n_elements> "
                f"<n_surfaces>")
        if sorted(surface_perm.tolist()) != list(range(ns)):
            raise MalformedSectionError(
                f"{path}: permutation is not a bijection")
        mesh = relabel(mesh, element_perm, surface_perm)
    refined = parents is not None and bool((parents >= 0).any())
    if refined and set(mesh.elem_kind.tolist()) != {0}:
        raise MalformedSectionError(
            f"{path}: PARENTS has refined entries, but only triangle "
            f"meshes refine")
    coloring = None
    if colors is not None:
        palette = (3 if set(mesh.elem_kind.tolist()) == {0} else 4)
        palette *= 1 + refined
        if colors.max() > palette:
            raise MalformedSectionError(
                f"{path}: COLORS value {colors.max()} is above the palette "
                f"of {palette} colors")
        coloring = SurfaceColoring(colors.astype(np.int32), palette)
    return NativeMesh(mesh, coloring, parents)


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
