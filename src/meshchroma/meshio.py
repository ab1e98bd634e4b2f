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

``read_native`` reads the file once as bytes.  When the file is in
the form the writer produces (only letters, digits, ``.+-``, single
spaces and newlines, one element kind, one integer per line in the
trailing sections, integers short enough not to overflow), numpy finds
the newline and space positions once, which give every line's token
count, and each section is converted with one ``np.fromstring`` call.
Any other file, so every file with a malformed line, goes to the line
parser ``_read_native``: the reference the bulk path is tested
against, the path for hand-edited files with comments or other
spacing, and the one that names the first bad line.  It takes its
lines from ``_Lines``, which reads the file in blocks of about 64k
characters, cuts each line at ``#``, strips it and drops blank lines,
and it parses each section in chunks of up to 4096 lines, so neither
the file nor a section is held as one list of lines.  Both paths apply
the same value checks (finite coordinates, PARENTS and COLORS ranges)
and end in ``_finish``, which assembles the mesh from kind codes and a
padded vertex array (``mesh.assemble``) and checks the trailing
sections against it.  The MSH reader shares ``_Lines`` and builds the
same two arrays for ``assemble``.  The writer formats each section with
one ``%`` operation over the section's values.

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
from .mesh import (
    CODE_TO_KIND,
    KIND_TO_CODE,
    MAX_ELEM_VERTS,
    ElementKind,
    Mesh,
    assemble,
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
# the bytes a written file holds; any other sends a file to the line parser
_FORM_BYTES = (b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
               b"0123456789.+- \n")
# an integer of at most 18 characters is below 10**18 < 2**63 in
# magnitude; np.fromstring saturates silently where one overflows
_MAX_INT_CHARS = 18


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


def _vertex_chunk(lines: list[str], width: int | None,
                  path) -> np.ndarray:
    """Coordinates of a chunk of vertex lines; ``width`` is the one set
    by the section's first line, or None for the first chunk."""
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
    """Parse a native file back into a mesh plus its optional extras.

    A file in the writer's form is converted with one numpy call per
    section (``_bulk_sections``).  Any other file, one with a malformed
    line included, is read by the line parser, which names the fault.
    """
    with open(path, "rb") as fh:
        sections = _bulk_sections(fh.read())
    if sections is None:
        with open(path) as fh:
            return _read_native(_Lines(fh, path), path)
    coords, kinds, verts, tail = sections
    _finite(coords, path)
    for name, values in tail.items():
        _check_tail(name, values, path)
    return _finish(path, coords, kinds, verts, tail)


class _OtherForm(Exception):
    """A file that ``_bulk_sections`` leaves to the line parser."""


def _need(ok) -> None:
    if not ok:
        raise _OtherForm


def _body_length(name: str, counts: list[int], ne: int, path) -> int:
    """Body lines of section ``name`` under its header's ``counts``,
    ``ne`` being the element count; raises for counts the format
    forbids."""
    if name in ("VERTICES", "ELEMENTS"):
        if len(counts) != 1:
            raise MalformedSectionError(f"{path}: expected {name} <n>")
        if counts[0] < 1:
            raise MalformedSectionError(
                f"{path}: {name} count must be >= 1")
    elif name == "PARENTS":
        if counts != [ne]:
            raise MalformedSectionError(
                f"{path}: PARENTS count must equal n_elements"
            )
    elif name == "COLORS":
        if len(counts) != 1 or counts[0] < 0:
            raise MalformedSectionError(
                f"{path}: expected COLORS <n_surfaces>"
            )
    elif len(counts) != 2 or counts[0] != ne or counts[1] < 0:
        raise MalformedSectionError(
            f"{path}: PERMUTATIONS counts must be "
            f"<n_elements> <n_surfaces>"
        )
    return sum(counts)


def _bulk_sections(data: bytes):
    """The sections of a file in the writer's form, or None.

    Returns the coordinates, kind codes, padded vertex ids and a dict of
    the trailing sections in file order.  The form: only bytes of
    ``_FORM_BYTES``, single spaces, no space at either end of a line,
    no blank line, a final newline, headers the line parser accepts,
    one vertex width of 2 or 3, one element kind whose token starts
    every element line, and one integer per line in the trailing
    sections.  Integer tokens are ``-?[0-9]+`` (unsigned in ELEMENTS)
    and at most ``_MAX_INT_CHARS`` long, since ``np.fromstring``
    saturates where an integer overflows; each section must give one
    value per token.  Any other file gives None.
    """
    if not data.endswith(b"\n") or data.translate(None, _FORM_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf <= 32)  # the space or newline after a token
    size = np.diff(ends, prepend=-1) - 1  # each token's length
    last = buf[ends - 1]
    # an empty token is a doubled space, a space at a line's end or start
    # or a blank line; no token of any section ends in a sign
    if size.min() < 1 or ((last == 43) | (last == 45)).any():
        return None
    line_end = np.flatnonzero(buf[ends] == 10)  # the tokens ending lines
    nl = ends[line_end]

    def line(i):
        return data[nl[i - 1] + 1 if i else 0:nl[i]].decode()

    def body(a, b):  # lines a..b-1, each with its newline
        return data[nl[a - 1] + 1:nl[b - 1] + 1]

    def widths(a, b):  # tokens per line
        return np.diff(line_end[a - 1:b])

    def longest(a, b):  # longest token
        return int(size[line_end[a - 1] + 1:line_end[b - 1] + 1].max(
            initial=0))

    def section(at, names, ne):
        _need(at < len(nl))
        name, counts = _section_header(line(at), None)
        _need(name in names)
        n = _body_length(name, counts, ne, None)
        _need(at + 1 + n <= len(nl))
        return name, at + 1, at + 1 + n

    def vertices(a, b):
        text, w = body(a, b), widths(a, b)
        _need(w[0] in (2, 3) and (w == w[0]).all()
              # digits, signs, points, exponents, inf and nan
              and not text.translate(None, b"0123456789.+-eEinfa \n"))
        values = np.fromstring(text, sep=" ")
        _need(values.size == w.sum())
        return values.reshape(-1, w[0])

    def elements(a, b):
        token = line(a).split(" ", 1)[0]
        kind = _TOKEN_KIND.get(token)
        _need(kind is not None and (widths(a, b) == 1 + kind.n_vertices).all())
        prefix = (token + " ").encode()
        starts = nl[a - 1:b - 1] + 1
        _need(all((buf[starts + j] == c).all() for j, c in enumerate(prefix)))
        ids = body(a, b).replace(prefix, b"")
        _need(not ids.translate(None, b"0123456789 \n")
              and longest(a, b) <= _MAX_INT_CHARS)
        values = np.fromstring(ids, dtype=np.int64, sep=" ")
        nv = kind.n_vertices
        _need(values.size == (b - a) * nv)
        verts = np.full((b - a, MAX_ELEM_VERTS), -1, dtype=np.int64)
        verts[:, :nv] = values.reshape(-1, nv)
        return np.full(b - a, KIND_TO_CODE[kind], dtype=np.int8), verts

    def integers(a, b):
        text = data[nl[a - 1]:nl[b - 1] + 1]  # from the header's newline
        _need(not text.translate(None, b"0123456789-\n")
              and b"-" not in text.replace(b"\n-", b"\n")
              and longest(a, b) <= _MAX_INT_CHARS)
        values = np.fromstring(text, dtype=np.int64, sep=" ")
        _need(values.size == b - a)
        return values

    try:
        _need(line(0) == f"{FORMAT_NAME} {FORMAT_VERSION}")
        _, a, b = section(1, ("VERTICES",), 0)
        coords = vertices(a, b)
        _, a, b = section(b, ("ELEMENTS",), 0)
        kinds, verts = elements(a, b)
        tail: dict[str, np.ndarray] = {}
        while b < len(nl):
            name, a, b = section(
                b, [s for s in _TAIL_SECTIONS if s not in tail], len(kinds))
            tail[name] = integers(a, b)
    # ValueError: a token np.fromstring cannot read.  A bad header is
    # reported again, with the file's path, by the line parser.
    except (_OtherForm, MalformedSectionError, ValueError):
        return None
    return coords, kinds, verts, tail


def _check_tail(name: str, values: np.ndarray, path) -> None:
    """The value rules of the trailing sections, applied as each one is
    read."""
    if name == "PARENTS":
        below = np.flatnonzero(values < -1)
        if below.size:
            raise MalformedSectionError(
                f"{path}: PARENTS value {values[below[0]]} for "
                f"element {below[0]} is below -1"
            )
    elif name == "COLORS" and ((values < -1) | (values == 0)).any():
        raise MalformedSectionError(f"{path}: colors must be -1 or >= 1")


def _read_native(src: _Lines, path) -> NativeMesh:
    """The line parser: reads every file ``read_native`` accepts, one
    line at a time, and names the first fault of one it rejects."""
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
    if name != "VERTICES":
        raise MalformedSectionError(f"{path}: expected VERTICES <n>")
    parts = []
    for lines in src.chunks(_body_length(name, counts, 0, path),
                            "a vertex line"):
        parts.append(_vertex_chunk(
            lines, parts[0].shape[1] if parts else None, path))
    coords = _finite(np.concatenate(parts), path)

    name, counts = _section_header(src.next("ELEMENTS"), path)
    if name != "ELEMENTS":
        raise MalformedSectionError(f"{path}: expected ELEMENTS <n>")
    parts = [_element_chunk(lines, path) for lines in src.chunks(
        _body_length(name, counts, 0, path), "an element line")]
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
    tail: dict[str, np.ndarray] = {}
    while True:
        line = src.maybe_next()
        if line is None:
            break
        name, counts = _section_header(line, path)
        if tail and name.lstrip("-").isdigit():
            raise MalformedSectionError(
                f"{path}: {list(tail)[-1]} has more values than its "
                f"header count"
            )
        if name not in _TAIL_SECTIONS or name in tail:
            raise MalformedSectionError(
                f"{path}: unexpected section {name!r}"
            )
        tail[name] = _ints(_body_length(name, counts, ne, path), name)
        _check_tail(name, tail[name], path)
    return _finish(path, coords, kinds, verts, tail)


def _finish(path, coords: np.ndarray, kinds: np.ndarray, verts: np.ndarray,
            tail: dict[str, np.ndarray]) -> NativeMesh:
    """Assemble the mesh both parsers read and check the trailing
    sections against it."""
    ne = len(kinds)
    parents = tail.get("PARENTS")
    colors = tail.get("COLORS")
    perms = tail.get("PERMUTATIONS")
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
    codes: list[int] = []
    node_ids: list[int] = []  # every element's node ids, one after another
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
                    ids = [int(p) for p in parts[3 + ntags:]]
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
                if len(ids) != kind.n_vertices:
                    raise MalformedSectionError(
                        f"{path}: type {etype} element with "
                        f"{len(ids)} nodes"
                    )
                codes.append(KIND_TO_CODE[kind])
                node_ids += ids
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

    if not codes:
        raise MalformedSectionError(f"{path}: no usable elements")
    id_map = {nid: i for i, nid in enumerate(sorted(nodes))}
    kinds = np.array(codes, dtype=np.int8)
    width = 3 if (kinds == KIND_TO_CODE[ElementKind.TET]).any() else 2
    coords = np.array(
        [nodes[nid][:width] for nid in sorted(nodes)], dtype=np.float64
    )
    try:
        vids = [id_map[n] for n in node_ids]
    except KeyError as exc:
        raise MalformedSectionError(
            f"{path}: element references unknown node {exc.args[0]}"
        ) from None
    verts = np.full((len(kinds), MAX_ELEM_VERTS), -1, dtype=np.int64)
    verts[_USED_SLOTS[kinds]] = vids
    return assemble(_finite(coords, path), kinds, verts)


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
