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

``PERMUTATIONS`` records the renumbering a mesh carries
(``Mesh.element_perm`` and ``surface_perm``, set by ``relabel``, as
``reorder.apply_plan`` does): entry i of each list is the new id of old
element (surface) i.  The ELEMENTS, PARENTS and COLORS sections are
already in new order.  The reader maps the elements back to their old
order (old element i is file element ``element_perm[i]``), assembles
the surfaces once there, and relabels elements and surfaces with the
stored maps.  A mesh is built only by ``assemble`` or ``relabel``, so
that reproduces it array for array, maps and left/right roles
included, and the COLORS rows land on the surfaces they were written
for.

``read_native`` reads the file once as bytes.  When the file is in
the form the writer produces (only letters, digits, ``.+-``, single
spaces and newlines, one element kind, one integer per line in the
trailing sections, integers short enough not to overflow), numpy finds
the newline and space positions once, which give every token's end and
length and every line's token count.  The integers of ELEMENTS and of
the trailing sections are then summed from digit columns of the byte
buffer at those token ends (``_token_values``).  A VERTICES body in
fixed notation, every token ``-?[0-9]+.[0-9]+`` with at most 15
digits, is decoded from the same digit columns on each side of the
point and divided by the power of ten of each token's fraction digits
(``_fixed_values``), which rounds once, as ``np.fromstring`` does; any
other body, exponents and longer tokens included, goes to one
``np.fromstring`` call.  The bulk path keeps the VERTICES and ELEMENTS
body bytes as ``NativeMesh.vertex_text`` and ``element_text``.  Any
other file, so every file with a malformed line, goes to the line
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
same two arrays for ``assemble``.

The writer formats every integer section with ``_int_lines``, the
reverse of ``_token_values``: it counts each token's bytes, places the
tokens with one ``cumsum`` over the lines and writes their digits a
column at a time into one byte buffer (``_digit_columns``).  VERTICES
rows are written as ``%r`` text, the shortest that reads back exactly.
When every value of the rows to format is one whose ``%r`` is fixed
notation of at most 15 digits, the tokens ``_fixed_values`` decodes,
``_fixed_lines`` writes that text from the same digit columns, the
whole part and the fraction digits of each value as two tokens; any
other block, a jittered mesh or 17-digit values, is formatted with one
``%r`` operation.  Rows are formatted except the longest run of
leading rows that are bit for bit the leading vertices of the
``source`` file the mesh came from: those are written as the bytes
that file held, so ``refine`` formats only its midpoints and
``coarsen`` nothing.  ELEMENTS is written as the bytes of ``source``
when the mesh's kinds and vertex rows are exactly the source's, so
``color`` formats none, and formatted whole otherwise: the element
count and the last row are compared first, and the body is never cut.
The bytes of a file the writer produced are its ``%r`` and ``%d``
text, so they come out unchanged; a hand-written token such as
``0.50`` or an element id ``007`` is written back as it was read
wherever its row is passed through.

Writes go through a temp file plus rename so a crash cannot leave a
half-written mesh behind.

Also here: a reader for MSH 2.2 ASCII (element types 2, 3, 4; points
and lines skipped) and a key/value report writer.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import dataclass, field
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
    is_bijection,
    relabel,
)

FORMAT_NAME = "MESHCHROMA"
FORMAT_VERSION = 1

_TOKEN_KIND = {k.value: k for k in ElementKind}
# per kind code: the head of its element lines, its vertex ids per line
# and the vertex slots those use
_HEADS = tuple(k.value.encode() + b" " for k in CODE_TO_KIND)
_HEAD_BYTES = np.array([len(h) for h in _HEADS], dtype=np.uint8)
_N_IDS = np.array([k.n_vertices for k in CODE_TO_KIND])
_USED_SLOTS = np.arange(MAX_ELEM_VERTS)[None, :] < _N_IDS[:, None]

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
# magnitude, so its digit sum cannot overflow an int64
_MAX_INT_CHARS = 18
# a fixed-notation VERTICES token of at most 15 digits has a mantissa
# below 10**15 < 2**53, an exact double; the reader decodes such tokens
# from digit columns, and the writer writes a value so when its ``%r``
# is one
_MAX_FIXED_DIGITS = 15
# 10**k for every fraction length of such a token; each is exact too
_POW10 = 10 ** np.arange(_MAX_FIXED_DIGITS, dtype=np.int64)
_POW10F = _POW10.astype(np.float64)


@dataclass(frozen=True)
class NativeMesh:
    """Everything a native file can hold; PERMUTATIONS is the
    renumbering ``mesh`` records."""

    mesh: Mesh
    coloring: SurfaceColoring | None = None
    parents: np.ndarray | None = None
    # the VERTICES and ELEMENTS body bytes the bulk reader decoded
    # ``mesh.vertices`` and the element rows from; None from the line
    # parser and the MSH reader
    vertex_text: bytes | None = field(default=None, repr=False)
    element_text: bytes | None = field(default=None, repr=False)


def _atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` in order to a temp file beside
    ``path``, then rename it over ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _int_lines(tokens, kinds: np.ndarray | None = None) -> np.ndarray:
    """The bytes ``%d`` formatting gives int64 ``tokens``: one per line,
    a row per line for an (n, w) array, or, given element kind codes,
    the ELEMENTS lines of flat ``tokens``, line i being ``_HEADS[c]``
    and the next ``_N_IDS[c]`` tokens for ``c = kinds[i]``.

    The reverse of ``_token_values``.  Each token's digits are counted
    by comparing its magnitude with powers of ten; with its sign, its
    line's head and the space or newline after it, that gives its
    bytes, from which ``_digit_columns`` places the tokens and writes
    their digits.  Magnitudes are the tokens' unsigned wrap, negated
    where the token is negative, which is exact for -2**63 as well.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if not tokens.size:
        return np.empty(0, dtype=np.uint8)
    if kinds is None:
        per_line = tokens.shape[1] if tokens.ndim == 2 else 1
    else:
        per_line = _N_IDS[kinds]
        if (per_line == per_line[0]).all():
            per_line = int(per_line[0])
    tokens = tokens.ravel()
    if isinstance(per_line, int):
        first = slice(0, None, per_line)  # each line's first token
        last = slice(per_line - 1, None, per_line)  # and its last
        lines = (-1, per_line)
    else:  # lines of two lengths are placed as lines of one token
        last = np.cumsum(per_line) - 1
        first = last - (per_line - 1)
        lines = (-1, 1)
    top = max(int(tokens.max()), -int(tokens.min()))
    longest = len(str(top))
    mag = tokens.astype(np.uint32 if top < 2**32 else np.uint64)
    neg = tokens < 0
    np.negative(mag, out=mag, where=neg)
    size = neg.astype(np.uint8)  # sign and digits
    size += 1
    for k in range(1, longest):
        size += mag >= 10**k
    span = size + 1  # each token's bytes, the separator after it included
    if kinds is not None:
        heads = _HEAD_BYTES[kinds]
        span[first] += heads
    buf, at = _digit_columns(mag, span.reshape(lines), longest)
    del mag, span
    if kinds is None and per_line == 1:
        buf[at] = 10
    else:
        buf[at] = 32
        buf[at[last]] = 10
    if neg.any():
        buf[at[neg] - size[neg]] = 45
    if kinds is not None:
        start = at[first] - size[first]
        start -= heads
        for code, head in enumerate(_HEADS):
            mine = start[kinds == code]
            for j, byte in enumerate(head):
                buf[mine + j] = byte
    return buf[longest:]


def _digit_columns(mag: np.ndarray, span: np.ndarray,
                   longest: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay tokens out in one byte buffer and write the ``longest`` low
    decimal digits of each unsigned ``mag[i]`` (consumed) right-aligned
    before its separator.  ``span`` is (lines, tokens per line), each
    token's bytes with the separator after it; ``mag`` lists the same
    tokens flat.  Returns the buffer, whose first ``longest`` bytes are
    spare, and every token's separator position in it; the caller
    writes the separators, signs and heads.

    Each token's end is the sum of the spans before it in its line plus
    the ``cumsum`` of the line lengths, which is one accumulation per
    line rather than per token.  Digit columns are then written for all
    tokens at once, the longest token's first column first.  A column
    past a short token's first digit lands on a byte of an earlier
    token that a later column, or the bytes the caller writes last,
    overwrites, so no column needs a mask.
    """
    at = span.astype(np.int64)
    for j in range(1, at.shape[1]):
        at[:, j] += at[:, j - 1]
    ends = np.cumsum(at[:, -1])  # each line's end
    for j in range(at.shape[1] - 1):
        at[1:, j] += ends[:-1]
    at[:, -1] = ends
    at = at.ravel()  # each token's end
    # ``longest`` bytes before the text catch the first tokens' columns
    buf = np.empty(longest + int(at[-1]), dtype=np.uint8)
    at -= 1  # column ``longest`` of every token, in ``buf``
    digit = np.empty_like(mag)
    for k in range(longest - 1, -1, -1):
        np.floor_divide(mag, 10**k, out=digit)
        buf[at] = digit.astype(np.uint8)
        digit *= 10**k
        mag -= digit
        at += 1
    buf += 48
    return buf, at  # ``at`` now holds each token's separator


def _fixed_lines(rows: np.ndarray) -> np.ndarray | None:
    """The ``%r`` text of the rows of the float array ``rows``, a line
    per row, when every value's is fixed notation of at most
    ``_MAX_FIXED_DIGITS`` digits, the tokens ``_fixed_values`` decodes;
    otherwise None.

    Membership takes one pass, no search.  With kmax = 15 - (digits of
    floor|v|) and m = rint(|v| * 10**kmax), v is such a value when
    kmax >= 1, m / 10**kmax == |v|, and |v| >= 1e-4 or v == 0, as
    ``%r`` turns to exponents below 1e-4.  m and 10**kmax are exact
    doubles and the division rounds once (Clinger), so |v| is then the
    double nearest to a decimal of at most 15 digits.  Two such
    decimals never round to the same double, so that decimal, with its
    trailing zeros dropped past the first fraction digit, is the
    shortest text that reads back: ``%r``'s.  Its k fraction digits are
    then found as the first k at which |v| is the double nearest to a
    decimal of k fraction digits, trying only the values not yet
    placed, so a block of integers or halves takes one pass.

    Each value is written as two tokens for ``_digit_columns``: the
    whole part, after a ``-`` where the sign bit is set (so -0.0 keeps
    its sign) and before a point, and the fraction digits zero-padded
    to k, before a space or the newline.
    """
    values = rows.ravel()
    if not values.size:
        return np.empty(0, dtype=np.uint8)
    mag = np.abs(values)
    top = mag.max()
    if not top < _POW10F[-1]:  # no fraction digit left, or nan
        return None
    digits = len(str(int(top)))
    whole = np.zeros(mag.shape, dtype=np.uint8)  # digits of floor|v|, less 1
    for p in _POW10F[1:digits]:
        whole += mag >= p
    scale = np.take(_POW10F[::-1], whole)  # 10**kmax
    m = mag * scale
    np.rint(m, out=m)
    if (m / scale != mag).any() or mag[mag < 1e-4].any():
        return None
    k = np.ones(mag.shape, dtype=np.uint8)
    m = mag * 10.0
    np.rint(m, out=m)
    todo = np.flatnonzero(m / 10.0 != mag)
    for j in range(2, _MAX_FIXED_DIGITS):
        if not todo.size:
            break
        sub = mag[todo]
        tried = sub * _POW10F[j]
        np.rint(tried, out=tried)
        hit = tried / _POW10F[j] == sub
        placed = todo[hit]
        m[placed] = tried[hit]
        k[placed] = j
        todo = todo[~hit]
    np.floor(mag, out=mag)
    m -= mag * np.take(_POW10F, k)  # the fraction digits
    longest = max(digits, int(k.max()))
    parts = np.empty((values.size, 2),
                     dtype=np.uint32 if longest <= 9 else np.uint64)
    parts[:, 0] = mag
    parts[:, 1] = m
    neg = np.signbit(values)
    size = np.empty(parts.shape, dtype=np.uint8)  # sign and digits
    np.add(whole, neg, out=size[:, 0])
    size[:, 0] += 1
    size[:, 1] = k
    lines = (len(rows), -1)
    buf, at = _digit_columns(parts.ravel(), (size + 1).reshape(lines),
                             longest)
    # a point after each whole part, a space or the newline after each
    # fraction
    buf[at.reshape(lines)] = np.frombuffer(
        b". " * (rows.shape[1] - 1) + b".\n", dtype=np.uint8)
    if neg.any():
        buf[at[::2][neg] - size[neg, 0]] = 45
    return buf[longest:]


def _vertex_rows(mesh: Mesh, source: NativeMesh | None) -> list[bytes]:
    """The VERTICES body: the bytes of ``source.vertex_text`` for the
    longest run of leading rows that are ``source.mesh.vertices`` bit
    for bit (so -0.0 is not 0.0), and ``%r`` text for every other row,
    written from digit columns by ``_fixed_lines`` when it takes those
    rows and with one ``%`` operation otherwise."""
    kept = b""
    rows = mesh.vertices
    if source is not None and source.vertex_text is not None:
        old = source.mesh.vertices
        n = min(len(old), len(rows)) if old.shape[1] == mesh.dim else 0
        same = (rows[:n].view(np.int64) == old[:n].view(np.int64)).all(1)
        n = n if same.all() else int(same.argmin())
        kept = source.vertex_text
        if n < len(old):  # cut after the newline of row n - 1
            lines = np.flatnonzero(np.frombuffer(kept, dtype=np.uint8) == 10)
            kept = kept[:lines[n - 1] + 1] if n else b""
        rows = rows[n:]
    text = _fixed_lines(rows)
    if text is None:
        text = (("%r" + " %r" * (mesh.dim - 1) + "\n") * len(rows)
                % tuple(rows.ravel().tolist())).encode()
    return [kept, text]


def _element_rows(mesh: Mesh, source: NativeMesh | None):
    """The ELEMENTS body: ``source.element_text`` when ``mesh`` has the
    kinds and vertex rows of ``source.mesh`` exactly, else every row
    formatted.  The count and the last row are compared before the
    rest, so a mesh with other elements is turned away cheaply."""
    if source is not None and source.element_text is not None:
        old = source.mesh
        if (old.n_elements == mesh.n_elements
                and old.elem_kind[-1] == mesh.elem_kind[-1]
                and (old.elem_verts[-1] == mesh.elem_verts[-1]).all()
                and np.array_equal(old.elem_kind, mesh.elem_kind)
                and np.array_equal(old.elem_verts, mesh.elem_verts)):
            return source.element_text
    kinds = mesh.elem_kind
    if len(kinds) and (kinds == kinds[0]).all():
        # one kind: its slots are the leading columns
        tokens = mesh.elem_verts[:, :_N_IDS[kinds[0]]].ravel()
    else:
        tokens = mesh.elem_verts[_USED_SLOTS[kinds]]
    return _int_lines(tokens, kinds)


def write_native(path, mesh: Mesh,
                 coloring: SurfaceColoring | None = None,
                 parents: np.ndarray | None = None, *,
                 source: NativeMesh | None = None) -> None:
    """Serialize a mesh, the renumbering it records, and its optional
    coloring and parent table.

    Coordinates are written as their ``%r`` text, from digit columns
    when every formatted one is short fixed notation, and integers as
    their ``%d`` text.

    ``source`` is the file the mesh was read from, if any: leading
    vertex rows bit for bit equal to its leading vertices are written
    as the bytes it held, not formatted again, and so is its ELEMENTS
    body when the mesh has exactly its element kinds and rows.

    Raises ``ValueError`` when an extra does not fit the mesh.
    """
    if parents is not None and len(parents) != mesh.n_elements:
        raise ValueError("parents must list one entry per element")
    if coloring is not None and len(coloring.colors) != mesh.n_surfaces:
        raise ValueError("coloring must list one entry per surface")
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}\nVERTICES {mesh.n_vertices}\n"
           .encode(),
           *_vertex_rows(mesh, source),
           f"ELEMENTS {mesh.n_elements}\n".encode(),
           _element_rows(mesh, source)]
    if parents is not None:
        out += [f"PARENTS {mesh.n_elements}\n".encode(), _int_lines(parents)]
    if coloring is not None:
        out += [f"COLORS {mesh.n_surfaces}\n".encode(),
                _int_lines(coloring.colors)]
    if mesh.element_perm is not None:
        out += [f"PERMUTATIONS {mesh.n_elements} {mesh.n_surfaces}\n"
                .encode(), _int_lines(mesh.element_perm),
                _int_lines(mesh.surface_perm)]
    _atomic_write(path, out)


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
    """``coords``, or an error naming the first vertices that are not
    finite; they are only looked for once one is known to exist."""
    if not np.isfinite(coords).all():
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        raise MalformedSectionError(
            f"{path}: non-finite coordinates at vertices {bad[:10].tolist()}"
        )
    return coords


def read_native(path) -> NativeMesh:
    """Parse a native file back into a mesh plus its optional extras.

    A file in the writer's form is converted with array operations over
    its bytes (``_bulk_sections``).  Any other file, one with a malformed
    line included, is read by the line parser, which names the fault.
    """
    with open(path, "rb") as fh:
        sections = _bulk_sections(fh.read())
    if sections is None:
        with open(path) as fh:
            return _read_native(_Lines(fh, path), path)
    coords, vertex_text, kinds, verts, element_text, tail = sections
    _finite(coords, path)
    for name, values in tail.items():
        _check_tail(name, values, path)
    return _finish(path, coords, kinds, verts, tail, vertex_text,
                   element_text)


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


def _token_values(buf: np.ndarray, ends: np.ndarray, seps: np.ndarray,
                  signed: bool) -> np.ndarray:
    """The integers of the tokens of ``buf`` that lie between the
    separators at ``seps`` and ``ends``.  Column k holds the byte k
    places before every token's end; the columns are summed by Horner's
    rule from the longest token's first digit, with 0 where a token has
    fewer digits.  A ``-`` first gives the sign where ``signed``; any
    other byte that is not a digit, or a token longer than
    ``_MAX_INT_CHARS``, raises ``_OtherForm``.  A sign is never a whole
    token (``_bulk_sections`` checks that no token ends in one)."""
    at = ends - seps  # each token's length plus one
    _need(at.max(initial=0) <= _MAX_INT_CHARS + 1)
    digits = at.astype(np.uint8)
    digits -= 1
    if signed:
        neg = np.take(buf[1:], seps) == 45  # each token's first byte
        digits -= neg
    longest = int(digits.max(initial=0))
    values = np.zeros(ends.shape, dtype=np.int64)
    np.subtract(ends, longest, out=at)  # column k, from k = longest
    for k in range(longest, 0, -1):
        d = np.take(buf, at)
        at += 1
        d -= 48
        d *= digits >= k  # 0 where a token has fewer digits
        _need(d.max() <= 9)
        values *= 10
        values += d
    if signed:
        np.negative(values, out=values, where=neg)
    return values


def _fixed_values(buf: np.ndarray, ends: np.ndarray,
                  seps: np.ndarray) -> np.ndarray | None:
    """The doubles of the tokens of ``buf`` between the separators at
    ``seps`` and ``ends`` when every token is in fixed notation,
    ``-?[0-9]+.[0-9]+``, with at most ``_MAX_FIXED_DIGITS`` digits;
    otherwise None.

    The checks cost little next to ``np.fromstring`` and come before
    any digit column is read: the token lengths first (the 17 digits
    of most ``%r`` text fail there), then one pass over the body for a
    letter (exponents, ``inf``, ``nan``) and one for the points.  Each
    token holds exactly one point when the sorted points of the body
    lie one inside each token, between two digits.  ``_token_values``
    then sums the digit columns on each side of the point, the whole
    part w and the k fraction digits f, and m is w * 10**k + f.  The
    value is m / 10**k: m < 10**15 < 2**53 and 10**k are exact doubles
    and one IEEE division rounds once, so the result is the correctly
    rounded one ``np.fromstring`` gives (Clinger's fast path), -0.0
    included.
    """
    neg = np.take(buf, seps + 1) == 45
    before = seps + neg  # the byte before each token's first digit
    # a token's digits, when it has one point, are ends - before - 2
    if (ends - before).max() > _MAX_FIXED_DIGITS + 2:
        return None
    body = buf[seps[0]:ends[-1]]
    if body.max() > 57:  # a byte above '9'
        return None
    points = np.flatnonzero(body == 46)
    if len(points) != len(ends):
        return None
    points += seps[0]
    k = ends - 1 - points
    if not ((points > before + 1) & (k > 0)).all():
        return None
    try:
        mantissa = _token_values(buf, points, before, signed=False)
        mantissa *= _POW10[k]
        mantissa += _token_values(buf, ends, points, signed=False)
    except _OtherForm:  # a sign or a point where a digit should be
        return None
    values = mantissa / _POW10[k]
    np.negative(values, out=values, where=neg)
    return values


def _bulk_sections(data: bytes):
    """The sections of a file in the writer's form, or None.

    Returns the coordinates, the VERTICES body bytes, kind codes, padded
    vertex ids, the ELEMENTS body bytes and a dict of the trailing
    sections in file order.  The form: only bytes of ``_FORM_BYTES``,
    single spaces, no space at either end of a line, no blank line, a
    final newline, headers the line parser accepts, one vertex width of
    2 or 3, one element kind whose token starts every element line, and
    one integer per line in the trailing sections.  Integer tokens are
    ``-?[0-9]+`` (unsigned in ELEMENTS) and at most ``_MAX_INT_CHARS``
    long; they are decoded from the token table by ``_token_values``.  A
    VERTICES body in fixed notation is decoded from the same table by
    ``_fixed_values``; any other body goes through ``np.fromstring``,
    which must give one value per token.  Any other file gives None.
    """
    if not data.endswith(b"\n") or data.translate(None, _FORM_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf <= 32)  # the space or newline after a token
    # an empty token is a doubled space, a space at a line's end or start
    # or a blank line, so the byte before its end is one too; no token
    # of any section ends in a sign
    last = np.take(buf, ends - 1)
    if ends[0] == 0 or ((last <= 32) | (last == 43) | (last == 45)).any():
        return None
    del last
    line_end = np.flatnonzero(buf[ends] == 10)  # the tokens ending lines

    def nl(i):  # the newline of line i
        return int(ends[line_end[i]])

    def line(i):
        return data[nl(i - 1) + 1 if i else 0:nl(i)].decode()

    def body(a, b):  # lines a..b-1, each with its newline
        return data[nl(a - 1) + 1:nl(b - 1) + 1]

    def widths(a, b):  # tokens per line
        return np.diff(line_end[a - 1:b])

    def tokens(a, b):  # the tokens of lines a..b-1
        return slice(line_end[a - 1] + 1, line_end[b - 1] + 1)

    def section(at, names, ne):
        _need(at < len(line_end))
        name, counts = _section_header(line(at), None)
        _need(name in names)
        n = _body_length(name, counts, ne, None)
        _need(at + 1 + n <= len(line_end))
        return name, at + 1, at + 1 + n

    def vertices(a, b):
        text, w, t = body(a, b), widths(a, b), tokens(a, b)
        _need(w[0] in (2, 3) and (w == w[0]).all())
        values = _fixed_values(buf, ends[t], ends[t.start - 1:t.stop - 1])
        if values is None:
            # digits, signs, points, exponents, inf and nan
            _need(not text.translate(None, b"0123456789.+-eEinfa \n"))
            values = np.fromstring(text, sep=" ")
            _need(values.size == w.sum())
        return values.reshape(-1, w[0]), text

    def elements(a, b):
        token = line(a).split(" ", 1)[0]
        kind = _TOKEN_KIND.get(token)
        _need(kind is not None and (widths(a, b) == 1 + kind.n_vertices).all())
        nv = kind.n_vertices
        # each line's token ends; the vertex ids follow the kind
        table = ends[tokens(a, b)].reshape(b - a, 1 + nv)
        starts = table[:, 0] - len(token)  # and where the kind starts
        _need(all((buf[starts + j] == c).all()
                  for j, c in enumerate(b"\n" + token.encode(), -1)))
        verts = np.full((b - a, MAX_ELEM_VERTS), -1, dtype=np.int64)
        verts[:, :nv] = _token_values(buf, table[:, 1:], table[:, :-1],
                                      signed=False)
        return (np.full(b - a, KIND_TO_CODE[kind], dtype=np.int8), verts,
                body(a, b))

    def integers(a, b):
        t = tokens(a, b)
        _need(t.stop - t.start == b - a)  # one token per line
        return _token_values(buf, ends[t], ends[t.start - 1:t.stop - 1],
                             signed=True)

    try:
        _need(line(0) == f"{FORMAT_NAME} {FORMAT_VERSION}")
        _, a, b = section(1, ("VERTICES",), 0)
        coords, vertex_text = vertices(a, b)
        _, a, b = section(b, ("ELEMENTS",), 0)
        kinds, verts, element_text = elements(a, b)
        tail: dict[str, np.ndarray] = {}
        while b < len(line_end):
            name, a, b = section(
                b, [s for s in _TAIL_SECTIONS if s not in tail], len(kinds))
            tail[name] = integers(a, b)
    # ValueError: a vertex token np.fromstring cannot read.  A bad header
    # is reported again, with the file's path, by the line parser.
    except (_OtherForm, MalformedSectionError, ValueError):
        return None
    return coords, vertex_text, kinds, verts, element_text, tail


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
            tail: dict[str, np.ndarray],
            vertex_text: bytes | None = None,
            element_text: bytes | None = None) -> NativeMesh:
    """Assemble the mesh both parsers read and check the trailing
    sections against it."""
    ne = len(kinds)
    parents = tail.get("PARENTS")
    colors = tail.get("COLORS")
    perms = tail.get("PERMUTATIONS")
    if perms is None:
        mesh = assemble(coords, kinds, verts)
    else:
        element_perm, surface_perm = perms[:ne], perms[ne:]
        if not is_bijection(element_perm, ne):
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
        if not is_bijection(surface_perm, ns):
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
    return NativeMesh(mesh, coloring, parents, vertex_text, element_text)


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
                    nid = int(parts[0])
                    xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
                except ValueError:
                    raise MalformedSectionError(
                        f"{path}: bad node line"
                    ) from None
                if nid in nodes:
                    raise MalformedSectionError(
                        f"{path}: node {nid} is listed twice"
                    )
                nodes[nid] = xyz
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
        _atomic_write(path, [text.encode()])
