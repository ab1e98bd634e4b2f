"""Reading and writing mesh files.

Native format, one logical record per line, ``#`` starts a comment:

    MESHCHROMA 1
    VERTICES <n>
    x y [z]
    ELEMENTS <n>
    kind v0 v1 v2 [v3]        # kind is tri, quad, or tet
    PARENTS <n_elements>      # optional, parent element id or -1
    COLORS <n_surfaces>       # optional, color per surface or -1
    PERMUTATIONS <n_elements> <n_surfaces>   # optional, old id -> new id

Surfaces are never serialized; they are rebuilt from the element list,
which is deterministic, so colors and surface permutations stay aligned
across a round trip.

``PERMUTATIONS`` records a renumbering (see ``reorder.apply_plan``):
entry i of each list is the new id of old element (surface) i.  The
ELEMENTS, PARENTS and COLORS sections are already in new order.  The
reader maps the elements back to their old order (old element i is
file element ``element_perm[i]``), assembles the surfaces once there,
and relabels elements and surfaces with the stored maps.  That
reproduces the renumbered mesh array for array, left/right roles
included, so the COLORS rows land on the surfaces they were written
for.

Writes go through a temp file plus rename so a crash cannot leave a
half-written mesh behind.

Also here: a reader for MSH 2.2 ASCII (element types 2, 3, 4; points
and lines skipped) and a key/value report writer.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .coloring import ColoringReport, SurfaceColoring, color_set_size
from .errors import MalformedSectionError, UnsupportedVersionError
from .mesh import ElementKind, Mesh, build_surfaces, relabel

FORMAT_NAME = "MESHCHROMA"
FORMAT_VERSION = 1

_KIND_TOKEN = {
    ElementKind.TRIANGLE: "tri",
    ElementKind.QUAD: "quad",
    ElementKind.TET: "tet",
}
_TOKEN_KIND = {v: k for k, v in _KIND_TOKEN.items()}

_MSH_KIND = {2: ElementKind.TRIANGLE, 3: ElementKind.QUAD,
             4: ElementKind.TET}
_MSH_SKIP = {1, 15}  # lines and points carry no surface work

_TAIL_SECTIONS = ("PARENTS", "COLORS", "PERMUTATIONS")


@dataclass(frozen=True)
class NativeMesh:
    """Everything a native file can hold."""

    mesh: Mesh
    coloring: SurfaceColoring | None = None
    parents: np.ndarray | None = None
    element_perm: np.ndarray | None = None
    surface_perm: np.ndarray | None = None


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_native(path, mesh: Mesh,
                 coloring: SurfaceColoring | None = None,
                 parents: np.ndarray | None = None,
                 element_perm: np.ndarray | None = None,
                 surface_perm: np.ndarray | None = None) -> None:
    """Serialize a mesh and its optional coloring, parent table, and
    reordering permutations."""
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    out.append(f"VERTICES {mesh.n_vertices}")
    for row in mesh.vertices:
        out.append(" ".join(repr(float(x)) for x in row))
    out.append(f"ELEMENTS {mesh.n_elements}")
    for i in range(mesh.n_elements):
        kind = mesh.kind_of(i)
        vids = mesh.elem_verts[i, : kind.n_vertices]
        out.append(f"{_KIND_TOKEN[kind]} " + " ".join(str(v) for v in vids))
    if parents is not None:
        if len(parents) != mesh.n_elements:
            raise ValueError("parents must list one entry per element")
        out.append(f"PARENTS {mesh.n_elements}")
        out.extend(str(int(p)) for p in parents)
    if coloring is not None:
        if len(coloring.colors) != mesh.n_surfaces:
            raise ValueError("coloring must list one entry per surface")
        out.append(f"COLORS {mesh.n_surfaces}")
        out.extend(str(int(c)) for c in coloring.colors)
    if (element_perm is None) != (surface_perm is None):
        raise ValueError("element and surface permutations come together")
    if element_perm is not None:
        if (len(element_perm) != mesh.n_elements
                or len(surface_perm) != mesh.n_surfaces):
            raise ValueError("permutation lengths do not match the mesh")
        out.append(
            f"PERMUTATIONS {mesh.n_elements} {mesh.n_surfaces}"
        )
        out.extend(str(int(p)) for p in element_perm)
        out.extend(str(int(p)) for p in surface_perm)
    _atomic_write(path, "\n".join(out) + "\n")


def _content_lines(path) -> Iterator[tuple[int, str]]:
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


class _Scanner:
    def __init__(self, path):
        self._it = _content_lines(path)
        self.path = path

    def next(self, what: str) -> str:
        for _, line in self._it:
            return line
        raise MalformedSectionError(
            f"{self.path}: file ends before {what}"
        )

    def maybe_next(self) -> str | None:
        for _, line in self._it:
            return line
        return None


def _section_header(line: str, path) -> tuple[str, list[int]]:
    parts = line.split()
    name = parts[0]
    try:
        counts = [int(p) for p in parts[1:]]
    except ValueError:
        raise MalformedSectionError(
            f"{path}: bad section header {line!r}"
        ) from None
    return name, counts


def _finite(coords: np.ndarray, path) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        raise MalformedSectionError(
            f"{path}: non-finite coordinates at vertices {bad[:10].tolist()}"
        )
    return coords


def _check_bijection(perm: np.ndarray, n: int, path) -> None:
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise MalformedSectionError(
            f"{path}: permutation is not a bijection"
        )


def read_native(path) -> NativeMesh:
    """Parse a native file back into a mesh plus its optional extras."""
    sc = _Scanner(path)
    header = sc.next("the format header").split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise UnsupportedVersionError(
            f"{path}: not a {FORMAT_NAME} file"
        )
    if header[1] != str(FORMAT_VERSION):
        raise UnsupportedVersionError(
            f"{path}: unsupported version {header[1]}"
        )

    name, counts = _section_header(sc.next("VERTICES"), path)
    if name != "VERTICES" or len(counts) != 1:
        raise MalformedSectionError(f"{path}: expected VERTICES <n>")
    nv = counts[0]
    if nv < 1:
        raise MalformedSectionError(f"{path}: VERTICES count must be >= 1")
    coords = []
    width = None
    for _ in range(nv):
        parts = sc.next("a vertex line").split()
        if width is None:
            width = len(parts)
            if width not in (2, 3):
                raise MalformedSectionError(
                    f"{path}: vertices must have 2 or 3 coordinates"
                )
        elif len(parts) != width:
            raise MalformedSectionError(
                f"{path}: inconsistent vertex width"
            )
        try:
            coords.append([float(p) for p in parts])
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad vertex line {' '.join(parts)!r}"
            ) from None
    coords = _finite(np.array(coords, dtype=np.float64), path)

    name, counts = _section_header(sc.next("ELEMENTS"), path)
    if name != "ELEMENTS" or len(counts) != 1:
        raise MalformedSectionError(f"{path}: expected ELEMENTS <n>")
    if counts[0] < 1:
        raise MalformedSectionError(f"{path}: ELEMENTS count must be >= 1")
    elements = []
    for _ in range(counts[0]):
        parts = sc.next("an element line").split()
        kind = _TOKEN_KIND.get(parts[0])
        if kind is None:
            raise MalformedSectionError(
                f"{path}: unknown element kind {parts[0]!r}"
            )
        if len(parts) != 1 + kind.n_vertices:
            raise MalformedSectionError(
                f"{path}: {parts[0]} element needs {kind.n_vertices} "
                f"vertex ids"
            )
        try:
            elements.append((kind, tuple(int(p) for p in parts[1:])))
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad element line"
            ) from None

    def _ints(n, what):
        vals = []
        for _ in range(n):
            tok = sc.next(what)
            try:
                vals.append(int(tok))
            except ValueError:
                raise MalformedSectionError(
                    f"{path}: bad integer {tok!r} in {what}"
                ) from None
        return np.asarray(vals, dtype=np.int64)

    # Counts that involve n_surfaces can only be checked once the
    # surfaces exist, and the surfaces can only be built once
    # PERMUTATIONS is known, so the trailing sections are read first.
    ne = len(elements)
    parents = None
    colors = None
    perms = None
    seen = []
    while True:
        line = sc.maybe_next()
        if line is None:
            break
        name, counts = _section_header(line, path)
        if seen and name.lstrip("-").isdigit():
            raise MalformedSectionError(
                f"{path}: {seen[-1]} has more values than its header count"
            )
        if name not in _TAIL_SECTIONS or name in seen:
            raise MalformedSectionError(
                f"{path}: unexpected section {name!r}"
            )
        seen.append(name)
        if name == "PARENTS":
            if counts != [ne]:
                raise MalformedSectionError(
                    f"{path}: PARENTS count must equal n_elements"
                )
            parents = _ints(ne, "PARENTS")
        elif name == "COLORS":
            if len(counts) != 1 or counts[0] < 0:
                raise MalformedSectionError(
                    f"{path}: expected COLORS <n_surfaces>"
                )
            colors = _ints(counts[0], "COLORS")
            if ((colors < -1) | (colors == 0)).any():
                raise MalformedSectionError(
                    f"{path}: colors must be -1 or >= 1"
                )
        else:
            if len(counts) != 2 or counts[0] != ne or counts[1] < 0:
                raise MalformedSectionError(
                    f"{path}: PERMUTATIONS counts must be "
                    f"<n_elements> <n_surfaces>"
                )
            perms = _ints(ne + counts[1], "PERMUTATIONS")

    element_perm = surface_perm = None
    if perms is not None:
        element_perm, surface_perm = perms[:ne], perms[ne:]
        _check_bijection(element_perm, ne, path)
        # original element i is file element element_perm[i]
        elements = [elements[j] for j in element_perm]
    mesh = build_surfaces(coords, elements)
    ns = mesh.n_surfaces
    if colors is not None and len(colors) != ns:
        raise MalformedSectionError(
            f"{path}: COLORS count {len(colors)} does not match "
            f"{ns} surfaces"
        )
    if perms is not None:
        if len(surface_perm) != ns:
            raise MalformedSectionError(
                f"{path}: PERMUTATIONS counts must be "
                f"<n_elements> <n_surfaces>"
            )
        _check_bijection(surface_perm, ns, path)
        mesh = relabel(mesh, element_perm, surface_perm)

    coloring = None
    if colors is not None:
        base = color_set_size(mesh)
        if parents is not None and (parents >= 0).any():
            base = 2 * base
        if colors.max() > base:
            raise MalformedSectionError(
                f"{path}: COLORS value {colors.max()} is above the "
                f"palette of {base} colors"
            )
        coloring = SurfaceColoring(colors.astype(np.int32), base)
    return NativeMesh(mesh, coloring, parents, element_perm, surface_perm)


def read_msh(path) -> Mesh:
    """Read an MSH 2.2 ASCII file.

    Element types 2 (triangle), 3 (quad), and 4 (tet) become mesh
    elements; types 1 and 15 (lines, points) are skipped; anything else
    is rejected.  Coordinates keep z only when tets are present.
    """
    sc = _Scanner(path)
    line = sc.next("$MeshFormat")
    if line != "$MeshFormat":
        raise MalformedSectionError(f"{path}: expected $MeshFormat first")
    parts = sc.next("the format line").split()
    if not parts or parts[0] != "2.2":
        version = parts[0] if parts else "?"
        raise UnsupportedVersionError(
            f"{path}: MSH version {version} is not supported, need 2.2"
        )
    if sc.next("$EndMeshFormat") != "$EndMeshFormat":
        raise MalformedSectionError(f"{path}: unterminated $MeshFormat")

    nodes: dict[int, tuple[float, float, float]] = {}
    raw_elements: list[tuple[ElementKind, tuple[int, ...]]] = []
    while True:
        line = sc.maybe_next()
        if line is None:
            break
        if line == "$Nodes":
            try:
                n = int(sc.next("the node count"))
            except ValueError:
                raise MalformedSectionError(
                    f"{path}: bad node count"
                ) from None
            for _ in range(n):
                parts = sc.next("a node line").split()
                if len(parts) != 4:
                    raise MalformedSectionError(
                        f"{path}: node lines need id x y z"
                    )
                try:
                    nodes[int(parts[0])] = (
                        float(parts[1]), float(parts[2]), float(parts[3])
                    )
                except ValueError:
                    raise MalformedSectionError(
                        f"{path}: bad node line"
                    ) from None
            if sc.next("$EndNodes") != "$EndNodes":
                raise MalformedSectionError(
                    f"{path}: unterminated $Nodes"
                )
        elif line == "$Elements":
            try:
                n = int(sc.next("the element count"))
            except ValueError:
                raise MalformedSectionError(
                    f"{path}: bad element count"
                ) from None
            for _ in range(n):
                parts = sc.next("an element line").split()
                try:
                    etype = int(parts[1])
                    ntags = int(parts[2])
                    node_ids = tuple(int(p) for p in parts[3 + ntags:])
                except (IndexError, ValueError):
                    raise MalformedSectionError(
                        f"{path}: bad element line"
                    ) from None
                if etype in _MSH_SKIP:
                    continue
                kind = _MSH_KIND.get(etype)
                if kind is None:
                    raise MalformedSectionError(
                        f"{path}: element type {etype} is not supported"
                    )
                if len(node_ids) != kind.n_vertices:
                    raise MalformedSectionError(
                        f"{path}: type {etype} element with "
                        f"{len(node_ids)} nodes"
                    )
                raw_elements.append((kind, node_ids))
            if sc.next("$EndElements") != "$EndElements":
                raise MalformedSectionError(
                    f"{path}: unterminated $Elements"
                )
        elif line.startswith("$") and not line.startswith("$End"):
            end = "$End" + line[1:]
            while True:
                skip = sc.next(end)
                if skip == end:
                    break
        else:
            raise MalformedSectionError(
                f"{path}: unexpected line {line!r}"
            )

    if not raw_elements:
        raise MalformedSectionError(f"{path}: no usable elements")
    id_map = {nid: i for i, nid in enumerate(sorted(nodes))}
    keep_z = any(kind is ElementKind.TET for kind, _ in raw_elements)
    width = 3 if keep_z else 2
    coords = np.array(
        [nodes[nid][:width] for nid in sorted(nodes)], dtype=np.float64
    )
    try:
        elements = [
            (kind, tuple(id_map[n] for n in node_ids))
            for kind, node_ids in raw_elements
        ]
    except KeyError as exc:
        raise MalformedSectionError(
            f"{path}: element references unknown node {exc.args[0]}"
        ) from None
    return build_surfaces(_finite(coords, path), elements)


def write_report(report: ColoringReport | Mapping, path=None) -> None:
    """Write ``key value`` lines; ``path=None`` prints to stdout."""
    if isinstance(report, ColoringReport):
        items = report.as_dict()
    else:
        items = dict(report)
    text = "\n".join(f"{k} {v}" for k, v in items.items()) + "\n"
    if path is None:
        sys.stdout.write(text)
    elif hasattr(path, "write"):
        path.write(text)
    else:
        _atomic_write(path, text)
