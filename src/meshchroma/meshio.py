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
for.  The writer therefore refuses a pair of maps under which its mesh
would not reload that way.

Both readers take their lines from one source, ``_Lines``: it reads the
file in blocks of about 64k characters, cuts each line at ``#``, strips
it and drops blank lines, so neither the file nor a section is ever
held as one list of lines.  The native reader takes each section in
chunks of up to 4096 lines and converts a whole chunk with numpy: the
integer sections with one ``np.array(lines, dtype=np.int64)``, the
VERTICES and ELEMENTS chunks by one split of the chunk's joined text
when every line of it is single-spaced and, for ELEMENTS, of one kind.
Any other chunk, and any chunk numpy cannot convert, is parsed again
one line at a time, which names the first bad line.  The element chunks
go straight into kind codes and a padded vertex array for
``mesh.assemble``.  The writer formats each section with one ``%``
operation over the section's values.

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
from itertools import repeat
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .coloring import ColoringReport, SurfaceColoring, color_set_size
from .errors import MalformedSectionError, UnsupportedVersionError
from .mesh import (
    CODE_TO_KIND,
    KIND_TO_CODE,
    MAX_ELEM_VERTS,
    ElementKind,
    Mesh,
    assemble,
    build_surfaces,
    relabel,
)

FORMAT_NAME = "MESHCHROMA"
FORMAT_VERSION = 1

_KIND_TOKEN = {
    ElementKind.TRIANGLE: "tri",
    ElementKind.QUAD: "quad",
    ElementKind.TET: "tet",
}
_TOKEN_KIND = {v: k for k, v in _KIND_TOKEN.items()}
# one element line per kind code, and the vertex slots each code uses
_ELEMENT_FORMAT = tuple(
    _KIND_TOKEN[k] + " %d" * k.n_vertices + "\n" for k in CODE_TO_KIND
)
_USED_SLOTS = np.arange(MAX_ELEM_VERTS)[None, :] < np.array(
    [k.n_vertices for k in CODE_TO_KIND]
)[:, None]

_MSH_KIND = {2: ElementKind.TRIANGLE, 3: ElementKind.QUAD,
             4: ElementKind.TET}
_MSH_SKIP = {1, 15}  # lines and points carry no surface work

_TAIL_SECTIONS = ("PARENTS", "COLORS", "PERMUTATIONS")

_BLOCK_CHARS = 1 << 16
_CHUNK_LINES = 4096
_INT64 = np.iinfo(np.int64)


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


def _is_bijection(perm: np.ndarray, n: int) -> bool:
    return np.array_equal(np.sort(perm), np.arange(n))


def _check_permutations(mesh: Mesh, element_perm, surface_perm) -> None:
    """Raise ``ValueError`` unless ``mesh`` reloads from a file that
    carries these maps.

    The reader assembles the elements in their old order and relabels
    the result with the maps.  For a mesh that passes ``validate`` this
    gives back ``mesh`` exactly when, in the old numbering, the surface
    ids follow their first encounter over the element sides (element
    by element, side by side) and each interior surface's left element
    is the smaller id, which is how ``assemble`` numbers them.
    """
    ep, sp = np.asarray(element_perm), np.asarray(surface_perm)
    if not (_is_bijection(ep, mesh.n_elements)
            and _is_bijection(sp, mesh.n_surfaces)):
        raise ValueError("permutations must be bijections")
    old_element, old_surface = np.argsort(ep), np.argsort(sp)
    slots = mesh.elem_surfs[ep]  # rows in old element order
    _, first = np.unique(old_surface[slots[slots >= 0]], return_index=True)
    left, right = mesh.surf_elems[sp].T  # rows in old surface order
    left = old_element[left]
    right = np.where(right >= 0, old_element[right], -1)
    if not (len(first) == mesh.n_surfaces and np.all(np.diff(first) > 0)
            and np.all((right < 0) | (left < right))):
        raise ValueError(
            "element and surface permutations do not describe this mesh: "
            "it would reload with other surface numbering"
        )


def _int_rows(values) -> str:
    values = np.asarray(values, dtype=np.int64)
    return ("%d\n" * len(values)) % tuple(values.tolist())


def write_native(path, mesh: Mesh,
                 coloring: SurfaceColoring | None = None,
                 parents: np.ndarray | None = None,
                 element_perm: np.ndarray | None = None,
                 surface_perm: np.ndarray | None = None) -> None:
    """Serialize a mesh and its optional coloring, parent table, and
    reordering permutations.

    Raises ``ValueError`` when an extra does not fit the mesh, including
    permutations under which the mesh would reload with other surface
    numbering.
    """
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}\nVERTICES {mesh.n_vertices}\n",
           ("%r" + " %r" * (mesh.dim - 1) + "\n") * mesh.n_vertices
           % tuple(mesh.vertices.ravel().tolist()),
           f"ELEMENTS {mesh.n_elements}\n",
           "".join(map(_ELEMENT_FORMAT.__getitem__, mesh.elem_kind.tolist()))
           % tuple(mesh.elem_verts[_USED_SLOTS[mesh.elem_kind]].tolist())]
    if parents is not None:
        if len(parents) != mesh.n_elements:
            raise ValueError("parents must list one entry per element")
        out += [f"PARENTS {mesh.n_elements}\n", _int_rows(parents)]
    if coloring is not None:
        if len(coloring.colors) != mesh.n_surfaces:
            raise ValueError("coloring must list one entry per surface")
        out += [f"COLORS {mesh.n_surfaces}\n", _int_rows(coloring.colors)]
    if (element_perm is None) != (surface_perm is None):
        raise ValueError("element and surface permutations come together")
    if element_perm is not None:
        if (len(element_perm) != mesh.n_elements
                or len(surface_perm) != mesh.n_surfaces):
            raise ValueError("permutation lengths do not match the mesh")
        _check_permutations(mesh, element_perm, surface_perm)
        out += [f"PERMUTATIONS {mesh.n_elements} {mesh.n_surfaces}\n",
                _int_rows(element_perm), _int_rows(surface_perm)]
    _atomic_write(path, "".join(out))


class _Lines:
    """The content lines of an open text file, read in blocks: each line
    is cut at ``#`` and stripped, and blank lines are dropped."""

    def __init__(self, fh, path):
        self._fh = fh
        self.path = path
        self._buf: list[str] = []
        self._pos = 0

    def _fill(self) -> bool:
        text = self._fh.read(_BLOCK_CHARS)
        if not text:
            return False
        text += self._fh.readline()
        lines = text.split("\n")
        if "#" in text:
            lines = [line.split("#", 1)[0] for line in lines]
        self._buf = list(filter(None, map(str.strip, lines)))
        self._pos = 0
        return True

    def take(self, n: int) -> list[str]:
        """The next ``n`` lines, or fewer where the file ends first."""
        out = self._buf[self._pos:self._pos + n]
        self._pos += len(out)
        while len(out) < n and self._fill():
            more = self._buf[:n - len(out)]
            self._pos = len(more)
            out += more
        return out

    def maybe_next(self) -> str | None:
        line = self.take(1)
        return line[0] if line else None

    def next(self, what: str) -> str:
        line = self.maybe_next()
        if line is None:
            raise MalformedSectionError(
                f"{self.path}: file ends before {what}"
            )
        return line

    def chunks(self, n: int, what: str) -> Iterator[list[str]]:
        """The next ``n`` lines in lists of at most ``_CHUNK_LINES``.
        Where the file ends first, raises after yielding what it holds,
        so a bad line is reported before the missing ones."""
        while n > 0:
            want = min(n, _CHUNK_LINES)
            chunk = self.take(want)
            if chunk:
                yield chunk
            if len(chunk) < want:
                raise MalformedSectionError(
                    f"{self.path}: file ends before {what}"
                )
            n -= want


def _single_spaced(lines: list[str]) -> tuple[list[str], list[int]] | None:
    """The tokens of ``lines`` and each line's count of spaces, when
    every gap between tokens is one space; None otherwise."""
    text = " ".join(lines)
    tokens = text.split()
    if len(tokens) != text.count(" ") + 1:
        return None
    return tokens, list(map(str.count, lines, repeat(" ")))


def _vertex_chunk(lines: list[str], width: int | None,
                  path) -> np.ndarray:
    """Coordinates of a chunk of vertex lines; ``width`` is the one set
    by the section's first line, or None for the first chunk."""
    split = _single_spaced(lines)
    if split is not None:
        tokens, gaps = split
        w = gaps[0] + 1 if width is None else width
        if w in (2, 3) and gaps.count(w - 1) == len(gaps):
            try:
                return np.array(tokens, dtype=np.float64).reshape(-1, w)
            except ValueError:
                pass
    rows = []
    for line in lines:
        parts = line.split()
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
            rows.append([float(p) for p in parts])
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad vertex line {' '.join(parts)!r}"
            ) from None
    return np.array(rows, dtype=np.float64)


def _element_chunk(lines: list[str], path) -> tuple[np.ndarray, np.ndarray]:
    """Kind codes and -1 padded vertex ids of a chunk of element lines."""
    n = len(lines)
    verts = np.full((n, MAX_ELEM_VERTS), -1, dtype=np.int64)
    split = _single_spaced(lines)
    if split is not None:
        tokens, gaps = split
        width = gaps[0] + 1
        kinds = tokens[::width]
        kind = _TOKEN_KIND.get(kinds[0])
        if (kind is not None and width == 1 + kind.n_vertices
                and gaps.count(width - 1) == n
                and kinds.count(kinds[0]) == n):
            del tokens[::width]
            try:
                verts[:, : width - 1] = np.array(
                    tokens, dtype=np.int64).reshape(n, width - 1)
            except (ValueError, OverflowError):
                pass
            else:
                return np.full(n, KIND_TO_CODE[kind], dtype=np.int8), verts
    codes = np.empty(n, dtype=np.int8)
    for i, line in enumerate(lines):
        parts = line.split()
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
            vids = [int(p) for p in parts[1:]]
            verts[i, : len(vids)] = vids
        except (ValueError, OverflowError):
            raise MalformedSectionError(
                f"{path}: bad element line"
            ) from None
        codes[i] = KIND_TO_CODE[kind]
    return codes, verts


def _int_chunk(lines: list[str], what: str, path) -> np.ndarray:
    try:
        return np.array(lines, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    values = []
    for tok in lines:
        try:
            value = int(tok)
        except ValueError:
            value = None
        if value is None or not _INT64.min <= value <= _INT64.max:
            raise MalformedSectionError(
                f"{path}: bad integer {tok!r} in {what}"
            )
        values.append(value)
    return np.array(values, dtype=np.int64)


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


def read_native(path) -> NativeMesh:
    """Parse a native file back into a mesh plus its optional extras."""
    with open(path) as fh:
        return _read_native(_Lines(fh, path), path)


def _read_native(src: _Lines, path) -> NativeMesh:
    header = src.next("the format header").split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise UnsupportedVersionError(
            f"{path}: not a {FORMAT_NAME} file"
        )
    if header[1] != str(FORMAT_VERSION):
        raise UnsupportedVersionError(
            f"{path}: unsupported version {header[1]}"
        )

    name, counts = _section_header(src.next("VERTICES"), path)
    if name != "VERTICES" or len(counts) != 1:
        raise MalformedSectionError(f"{path}: expected VERTICES <n>")
    if counts[0] < 1:
        raise MalformedSectionError(f"{path}: VERTICES count must be >= 1")
    parts = []
    for lines in src.chunks(counts[0], "a vertex line"):
        parts.append(_vertex_chunk(
            lines, parts[0].shape[1] if parts else None, path))
    coords = _finite(np.concatenate(parts), path)

    name, counts = _section_header(src.next("ELEMENTS"), path)
    if name != "ELEMENTS" or len(counts) != 1:
        raise MalformedSectionError(f"{path}: expected ELEMENTS <n>")
    if counts[0] < 1:
        raise MalformedSectionError(f"{path}: ELEMENTS count must be >= 1")
    parts = [_element_chunk(lines, path)
             for lines in src.chunks(counts[0], "an element line")]
    kinds = np.concatenate([p[0] for p in parts])
    verts = np.concatenate([p[1] for p in parts])

    def _ints(n, what):
        return np.concatenate([np.empty(0, dtype=np.int64)] + [
            _int_chunk(lines, what, path) for lines in src.chunks(n, what)
        ])

    # Counts that involve n_surfaces can only be checked once the
    # surfaces exist, and the surfaces can only be built once
    # PERMUTATIONS is known, so the trailing sections are read first.
    ne = len(kinds)
    parents = None
    colors = None
    perms = None
    seen = []
    while True:
        line = src.maybe_next()
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
            below = np.flatnonzero(parents < -1)
            if below.size:
                raise MalformedSectionError(
                    f"{path}: PARENTS value {parents[below[0]]} for "
                    f"element {below[0]} is below -1"
                )
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
    if perms is None:
        mesh = assemble(coords, kinds, verts)
    else:
        element_perm, surface_perm = perms[:ne], perms[ne:]
        if not _is_bijection(element_perm, ne):
            raise MalformedSectionError(
                f"{path}: permutation is not a bijection"
            )
        # old element i is file element element_perm[i]
        mesh = assemble(coords, kinds[element_perm], verts[element_perm])
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
        if not _is_bijection(surface_perm, ns):
            raise MalformedSectionError(
                f"{path}: permutation is not a bijection"
            )
        mesh = relabel(mesh, element_perm, surface_perm)

    refined = parents is not None and bool((parents >= 0).any())
    if refined and mesh.element_kind_profile != {ElementKind.TRIANGLE}:
        raise MalformedSectionError(
            f"{path}: PARENTS has refined entries, but only triangle "
            f"meshes refine"
        )
    coloring = None
    if colors is not None:
        base = color_set_size(mesh)
        if refined:
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
    with open(path) as fh:
        return _read_msh(_Lines(fh, path), path)


def _read_msh(sc: _Lines, path) -> Mesh:
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
