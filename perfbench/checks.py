"""Checks of the program's outputs, made apart from the program.

Nothing here imports ``meshchroma``.  Native files are read with a parser
of their own, and surfaces are derived from the documented convention
(``meshchroma.mesh``): a surface is the sorted vertex tuple of an element
side, surfaces are numbered in first-encounter order while sweeping
elements in id order and each element's sides in local order, and the
left element is the one that meets the surface first.  A failed check
raises ``CheckFailed`` with a message that names what failed.
"""

from __future__ import annotations

import functools
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIDES = {
    "tri": ((0, 1), (1, 2), (2, 0)),
    "quad": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "tet": ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
}


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class MeshFile:
    """The sections of one native file, as written."""

    n_vertices: int
    elements: tuple[tuple[str, tuple[int, ...]], ...]
    parents: np.ndarray | None
    colors: np.ndarray | None
    element_perm: np.ndarray | None
    surface_perm: np.ndarray | None

    def original_elements(self):
        """Elements in their order before the renumbering the file
        records: old element i is file element ``element_perm[i]``."""
        if self.element_perm is None:
            return self.elements
        return tuple(self.elements[j] for j in self.element_perm)

    def original_colors(self):
        """Colors on the surface ids before the renumbering."""
        if self.surface_perm is None:
            return self.colors
        return self.colors[self.surface_perm]

    def original_parents(self):
        if self.element_perm is None:
            return self.parents
        return self.parents[self.element_perm]


def read_mesh_file(path) -> MeshFile:
    lines = Path(path).read_text().splitlines()
    require(lines and lines[0] == "MESHCHROMA 1",
            f"{path}: header is not 'MESHCHROMA 1'")
    pos = 1

    def section(name):
        nonlocal pos
        require(pos < len(lines), f"{path}: file ends before {name}")
        head = lines[pos].split()
        require(head[0] == name, f"{path}: expected {name}, got {head[0]}")
        pos += 1
        return [int(c) for c in head[1:]]

    def body(n):
        nonlocal pos
        rows = lines[pos:pos + n]
        require(len(rows) == n, f"{path}: section ends early")
        pos += n
        return rows

    def ints(n):
        return np.array(body(n), dtype=np.int64)

    (nv,) = section("VERTICES")
    body(nv)
    (ne,) = section("ELEMENTS")
    elements = []
    for row in body(ne):
        kind, *vids = row.split()
        require(kind in SIDES, f"{path}: unknown element kind {kind!r}")
        elements.append((kind, tuple(int(v) for v in vids)))
    parents = colors = element_perm = surface_perm = None
    while pos < len(lines):
        name = lines[pos].split()[0]
        if name == "PARENTS":
            (n,) = section(name)
            parents = ints(n)
        elif name == "COLORS":
            (n,) = section(name)
            colors = ints(n)
        else:
            n_elem, n_surf = section("PERMUTATIONS")
            perms = ints(n_elem + n_surf)
            element_perm, surface_perm = perms[:n_elem], perms[n_elem:]
    return MeshFile(nv, tuple(elements), parents, colors,
                    element_perm, surface_perm)


@dataclass(frozen=True)
class Surfaces:
    """Surfaces derived from an element list by the convention."""

    verts: tuple[tuple[int, ...], ...]
    left: np.ndarray
    right: np.ndarray  # -1 on the boundary
    elem_surfs: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.verts)


def derive_surfaces(elements) -> Surfaces:
    index: dict[tuple[int, ...], int] = {}
    verts: list[tuple[int, ...]] = []
    left: list[int] = []
    right: list[int] = []
    elem_surfs = []
    for e, (kind, vids) in enumerate(elements):
        row = []
        for side in SIDES[kind]:
            key = tuple(sorted(vids[p] for p in side))
            s = index.get(key)
            if s is None:
                s = index[key] = len(verts)
                verts.append(key)
                left.append(e)
                right.append(-1)
            else:
                require(right[s] < 0,
                        f"surface {key} is shared by more than two elements")
                right[s] = e
            row.append(s)
        elem_surfs.append(tuple(row))
    return Surfaces(tuple(verts), np.array(left, dtype=np.int64),
                    np.array(right, dtype=np.int64), tuple(elem_surfs))


def closed_form_surfaces(family: str, nx: int, ny: int) -> int:
    """Surface count of a non-periodic nx-by-ny patch."""
    per_cell = {"tri_rect": 3, "quad_rect": 2}[family]
    return per_cell * nx * ny + nx + ny


def check_distinct_colors(surfaces: Surfaces, colors, palette: int,
                          what: str) -> None:
    """Every surface colored within the palette, and no element sees
    one color twice."""
    colors = np.asarray(colors)
    require(len(colors) == len(surfaces),
            f"{what}: {len(colors)} colors for {len(surfaces)} surfaces")
    require(colors.min() >= 1 and colors.max() <= palette,
            f"{what}: colors outside 1..{palette}")
    width = max(len(row) for row in surfaces.elem_surfs)
    table = np.full((len(surfaces.elem_surfs), width), -1, dtype=np.int64)
    for e, row in enumerate(surfaces.elem_surfs):
        table[e, :len(row)] = colors[list(row)]
    table.sort(axis=1)
    repeats = (table[:, 1:] == table[:, :-1]) & (table[:, 1:] >= 1)
    bad = np.flatnonzero(repeats.any(axis=1))
    require(bad.size == 0,
            f"{what}: element {bad[:1].tolist()} sees a color twice")


@functools.lru_cache(maxsize=4)
def payload(n_surfaces: int) -> np.ndarray:
    """The sweep payload of ``meshchroma.sweeps``: the top 20 bits of
    the k-th splitmix64 output from state 0, shifted to be signed."""
    mask = (1 << 64) - 1
    out = np.empty(n_surfaces, dtype=np.int64)
    for k in range(n_surfaces):
        z = ((k + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out[k] = (z >> 44) - (1 << 19)
    return out


def sweep_checksum(mf: MeshFile, surfaces: Surfaces,
                   values: np.ndarray) -> int:
    """Checksum of the surface sweep on a file's own numbering.

    ``surfaces`` are derived on ``mf.original_elements()``; they are
    mapped to the file's numbering through its PERMUTATIONS.  Each
    surface adds its payload to its left element and subtracts it from
    its right one, accumulated with ``np.add.at``.
    """
    ne = len(mf.elements)
    left, right = surfaces.left, surfaces.right
    sid = np.arange(len(surfaces))
    if mf.element_perm is not None:
        left = mf.element_perm[left]
        right = np.where(right >= 0, mf.element_perm[right], -1)
        sid = mf.surface_perm[sid]
    value = values[sid]
    totals = np.zeros(ne, dtype=np.int64)
    np.add.at(totals, left, value)
    inner = right >= 0
    np.add.at(totals, right[inner], -value[inner])
    require(totals.sum() == value[~inner].sum(),
            "element totals do not sum to the boundary payloads")
    return zlib.crc32(totals.astype("<i8").tobytes())


def report_lines(stdout: str) -> dict[str, str]:
    """``key value`` lines of a command's report."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def check_verify(stdout: str, palette: int) -> None:
    want = f"complete valid coloring with {palette} colors"
    require(stdout.strip().splitlines()[-1:] == [want],
            f"verify printed {stdout.strip()!r}, expected {want!r}")


def check_reorder(before: MeshFile, after: MeshFile, stdout: str) -> None:
    """The renumbering keeps the elements, and keeps elements, colors
    and parents on their ids as mapped through PERMUTATIONS; it raises
    the coalescing fraction."""
    require(after.element_perm is not None,
            "reorder output has no PERMUTATIONS")
    require(sorted(tuple(sorted(v)) for _, v in before.elements)
            == sorted(tuple(sorted(v)) for _, v in after.elements),
            "reorder changed the multiset of elements")
    require(after.original_elements() == before.original_elements(),
            "reorder moved elements against its element_perm")
    require(np.array_equal(after.original_colors(),
                           before.original_colors()),
            "reorder moved colors against its surface_perm")
    if before.parents is not None:
        require(np.array_equal(after.original_parents(),
                               before.original_parents()),
                "reorder moved parents against its element_perm")
    report = report_lines(stdout)
    require(float(report["aggregate_after"])
            > float(report["aggregate_before"]),
            f"reorder did not raise coalescing: {report}")


def check_race(stdout: str, checksum: int) -> None:
    report = report_lines(stdout)
    sums = {report.get(k) for k in ("sequential_checksum",
                                    "colored_checksum",
                                    "buffered_checksum")}
    require(sums == {str(checksum)},
            f"race-check checksums {sorted(sums)} != own {checksum}")
    require(report.get("result") == "PASS", "race-check did not PASS")


_REFINED = re.compile(r"refined (\d+) elements; (\d+) elements")


def check_refine(base: MeshFile, base_surfaces: Surfaces,
                 fine: MeshFile, chosen, stdout: str) -> None:
    """k refined parents add 3k elements and one midpoint per distinct
    parent edge, and every fine parent id is one of the chosen."""
    k = len(chosen)
    edges = {s for p in chosen for s in base_surfaces.elem_surfs[p]}
    require(len(fine.elements) == len(base.elements) + 3 * k,
            f"refine made {len(fine.elements)} elements, expected "
            f"{len(base.elements)} + 3*{k}")
    require(fine.n_vertices == base.n_vertices + len(edges),
            f"refine made {fine.n_vertices} vertices, expected "
            f"{base.n_vertices} + {len(edges)} midpoints")
    kids = fine.parents[fine.parents >= 0]
    require(np.array_equal(np.unique(kids, return_counts=True)[1],
                           np.full(k, 4))
            and set(kids.tolist()) == set(chosen),
            "refine PARENTS do not list four children per chosen parent")
    match = _REFINED.search(stdout)
    require(match and int(match.group(1)) == k
            and int(match.group(2)) == len(fine.elements),
            f"refine printed {stdout.strip()!r}")


def hanging_interfaces(base_surfaces: Surfaces, chosen) -> int:
    """Interior base edges with exactly one refined neighbor."""
    refined = np.zeros(len(base_surfaces.elem_surfs), dtype=bool)
    refined[list(chosen)] = True
    right = base_surfaces.right
    inner = right >= 0
    left_r = refined[base_surfaces.left[inner]]
    right_r = refined[right[inner]]
    return int((left_r != right_r).sum())
