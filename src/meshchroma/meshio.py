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

``read_native`` reads the file once, as bytes, and has one parser,
``_sections``.  A file in the form the writer produces (only letters,
digits, ``.+-``, single spaces and newlines, a final newline) is parsed
as it is.  Any other is first normalized into that form
(``_normalized``): ``_content_lines`` reads it as UTF-8 text with
universal newlines, in blocks of about 64k characters, cuts each line
at ``#``, strips it and drops blank lines, and each line's tokens are
joined by single spaces.  The whole file is normalized before any
section is parsed, so a file that is not UTF-8 is refused with the
offset of its first bad byte ahead of any fault in its sections.

numpy finds the newline and space positions once, which give every
token's end and length and every line's token count.  The integers of
ELEMENTS and of the trailing sections are summed from digit columns of
the byte buffer at those token ends (``_token_values``).  A VERTICES
body in fixed notation, every token ``-?[0-9]+.[0-9]+`` with at most
15 digits, is decoded from the same digit columns on each side of the
point and divided by the power of ten of each token's fraction digits
(``_fixed_values``), which rounds once, as ``np.fromstring`` does; any
other body, exponents and longer tokens included, goes to one
``np.fromstring`` call.  A section those refuse, one holding a ``+3``,
a 19-digit id or a malformed token for instance, is decoded from its
lines as the file holds them by Python's ``int`` and ``float``
(``_decode_vertices``, ``_decode_elements``, ``_decode_ints``), which
name its first bad line.  Each section is checked as it is read
(finite coordinates, PARENTS and COLORS ranges) before the next one is
looked at, so the fault named is the first one in the file.  A file
that needed neither normalizing nor a token decode keeps its VERTICES
and ELEMENTS body bytes as ``NativeMesh.vertex_text`` and
``element_text``.  ``_finish`` assembles the mesh from kind codes and
a padded vertex array (``mesh.assemble``) and checks the trailing
sections against it.  The MSH reader takes its lines from
``_content_lines`` too and builds the same two arrays for
``assemble``.

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

import io
import os
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import chain, islice
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
_INT64 = np.iinfo(np.int64)
# the bytes a written file holds; a file of any other is normalized
# before it is read
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
    # the VERTICES and ELEMENTS body bytes ``mesh.vertices`` and the
    # element rows were decoded from; None for a file that was
    # normalized or needed the token decoder, and from the MSH reader
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


def _content_lines(data: bytes, path) -> Iterator[list[str]]:
    """The content lines of ``data`` read as UTF-8 text with universal
    newlines, in blocks of about ``_BLOCK_CHARS`` characters that end at
    a line's end: each line is cut at ``#`` and stripped, and blank
    lines are dropped."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        while block := text.read(_BLOCK_CHARS):
            block += text.readline()
            lines = block.split("\n")
            if "#" in block:
                lines = [line.split("#", 1)[0] for line in lines]
            yield list(filter(None, map(str.strip, lines)))
    except UnicodeDecodeError:
        try:  # decoded whole, the error gives the offset in the file
            data.decode()
        except UnicodeDecodeError as exc:
            raise MalformedSectionError(
                f"{path}: byte {exc.start} is not UTF-8 text") from None
        raise


def _normalized(data: bytes, path) -> bytes:
    """``data`` spaced as the writer spaces it: the lines of
    ``_content_lines``, each with its tokens joined by single spaces
    and a newline after it."""
    return b"".join(
        "".join(" ".join(line.split()) + "\n" for line in block).encode()
        for block in _content_lines(data, path))


def _decode_vertices(lines: list[str], path) -> np.ndarray:
    """Coordinates of vertex lines; the first line sets the width."""
    rows = []
    width = None
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


def _decode_elements(lines: list[str], path) -> tuple[np.ndarray, np.ndarray]:
    """Kind codes and -1 padded vertex ids of element lines."""
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


def _decode_ints(lines: list[str], what: str, path) -> np.ndarray:
    """The integers of lines holding one each, in section ``what``."""
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

    The file is read once, as bytes, and its sections are converted with
    array operations over them (``_sections``).  A malformed file raises
    ``MalformedSectionError`` or ``UnsupportedVersionError``, naming its
    first fault; a byte that is not UTF-8 is named before any fault of
    the sections, wherever it lies in the file.
    """
    with open(path, "rb") as fh:
        sections = _sections(fh.read(), path)
    return _finish(path, *sections)


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
                  signed: bool) -> np.ndarray | None:
    """The integers of the tokens of ``buf`` that lie between the
    separators at ``seps`` and ``ends``.  Column k holds the byte k
    places before every token's end; the columns are summed by Horner's
    rule from the longest token's first digit, with 0 where a token has
    fewer digits.  A ``-`` first gives the sign where ``signed``; any
    other byte that is not a digit, or a token longer than
    ``_MAX_INT_CHARS``, gives None.  A sign is never a whole token
    (``_sections`` decodes no token that ends in one)."""
    at = ends - seps  # each token's length plus one
    if at.max(initial=0) > _MAX_INT_CHARS + 1:
        return None
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
        if d.max() > 9:
            return None
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
    mantissa = _token_values(buf, points, before, signed=False)
    fraction = _token_values(buf, ends, points, signed=False)
    if mantissa is None or fraction is None:  # a sign or a point where
        return None                           # a digit should be
    mantissa *= _POW10[k]
    mantissa += fraction
    values = mantissa / _POW10[k]
    np.negative(values, out=values, where=neg)
    return values


def _sections(data: bytes, path):
    """The sections of the native file whose bytes are ``data``, each
    checked as it is read, before the next one is looked at.

    Returns the coordinates, kind codes, padded vertex ids, a dict of
    the trailing sections in file order, and the VERTICES and ELEMENTS
    body bytes.  A file in the writer's form (only bytes of
    ``_FORM_BYTES``, single spaces, no space at either end of a line,
    no blank line, a final newline) is read as it is; any other is
    first rewritten in that form by ``_normalized``.  Section bodies
    are decoded from the token table: integers by ``_token_values``,
    VERTICES in fixed notation by ``_fixed_values`` and in any other
    notation by ``np.fromstring``, which must give one value per token.
    A body those refuse, a hand-written ``+3`` or 19-digit id for
    instance, is decoded by ``_decode_vertices``, ``_decode_elements``
    or ``_decode_ints`` from its lines as the file holds them, which
    name its first bad line.  The body bytes are None for a normalized
    file and for one with a token-decoded section, so the writer formats
    every row of those again rather than pass a hand-edited token
    through.
    """
    source = data
    plain = data.endswith(b"\n") and not data.translate(None, _FORM_BYTES)
    if plain:
        buf = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(buf <= 32)  # the space or newline after a token
        # an empty token is a doubled space, a space at a line's end or
        # start or a blank line, so the byte before its end is one too
        last = np.take(buf, ends - 1)
        plain = ends[0] != 0 and not (last <= 32).any()
    if not plain:
        data = _normalized(data, path)
        buf = np.frombuffer(data, dtype=np.uint8)
        # a control byte that is not white space stays in its token
        ends = np.flatnonzero((buf == 32) | (buf == 10))
        last = np.take(buf, ends - 1)
    signs = (last == 43) | (last == 45)  # the tokens that end in a sign
    del last
    line_end = np.flatnonzero(buf[ends] == 10)  # the tokens ending lines
    n_lines = len(line_end)
    exact = plain  # and every body decoded from the token table

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

    def signless(t):  # no token of ``t`` ends in a sign
        return not signs[t].any()

    def text_lines(a, b):  # lines a..b-1 as the file holds them
        return list(islice(chain.from_iterable(_content_lines(source, path)),
                           a, b))

    def header(i, what):
        if i >= n_lines:
            raise MalformedSectionError(f"{path}: file ends before {what}")
        name, *counts = line(i).split()
        try:
            return name, [int(c) for c in counts]
        except ValueError:
            raise MalformedSectionError(
                f"{path}: bad section header {text_lines(i, i + 1)[0]!r}"
            ) from None

    def read(a, b, what, bulk, decode):
        """Lines a..b-1 decoded by ``bulk``, or where it refuses them or
        the file ends first, by ``decode``; a bad line is reported
        before the missing ones."""
        nonlocal exact
        got = bulk(a, b) if b <= n_lines else None
        if got is None:
            exact = False
            got = decode(text_lines(a, min(b, n_lines)))
            if b > n_lines:
                raise MalformedSectionError(
                    f"{path}: file ends before {what}")
        return got

    def vertices(a, b):
        w, t = widths(a, b), tokens(a, b)
        if not (w[0] in (2, 3) and (w == w[0]).all() and signless(t)):
            return None
        values = _fixed_values(buf, ends[t], ends[t.start - 1:t.stop - 1])
        if values is None:
            text = body(a, b)
            # digits, signs, points, exponents, inf and nan
            if text.translate(None, b"0123456789.+-eEinfa \n"):
                return None
            try:
                values = np.fromstring(text, sep=" ")
            except ValueError:  # a token np.fromstring cannot read
                return None
            if values.size != w.sum():
                return None
        return values.reshape(-1, w[0])

    def elements(a, b):
        starts = ends[line_end[a - 1:b - 1]] + 1  # each line's first byte
        codes = np.full(b - a, -1, dtype=np.int8)
        for code, head in enumerate(_HEADS):
            hit = np.take(buf, starts, mode="clip") == head[0]
            for j, byte in enumerate(head[1:], 1):
                hit &= np.take(buf, starts + j, mode="clip") == byte
            codes[hit] = code
            if (codes >= 0).all():
                break
        else:
            return None
        nv = _N_IDS[codes]
        if (widths(a, b) != 1 + nv).any():
            return None
        t = tokens(a, b)
        verts = np.full((b - a, MAX_ELEM_VERTS), -1, dtype=np.int64)
        # lines of one width form a table, whose ids are read and stored
        # about 0.4 ms faster than by the general case at 12,800 triangles
        if (nv == nv[0]).all():
            table = ends[t].reshape(b - a, 1 + nv[0])
            ids = _token_values(buf, table[:, 1:], table[:, :-1],
                                signed=False)
            if ids is None:
                return None
            verts[:, :nv[0]] = ids
        else:  # every token but each line's first
            at = np.ones(t.stop - t.start, dtype=bool)
            at[line_end[a - 1:b - 1] + 1 - t.start] = False
            at = np.flatnonzero(at) + t.start
            ids = _token_values(buf, ends[at], ends[at - 1], signed=False)
            if ids is None:
                return None
            verts[_USED_SLOTS[codes]] = ids
        return codes, verts

    def integers(a, b):
        t = tokens(a, b)
        if t.stop - t.start != b - a or not signless(t):  # one per line
            return None
        return _token_values(buf, ends[t], ends[t.start - 1:t.stop - 1],
                             signed=True)

    if not n_lines:
        raise MalformedSectionError(
            f"{path}: file ends before the format header")
    magic = line(0).split()
    if len(magic) != 2 or magic[0] != FORMAT_NAME:
        raise UnsupportedVersionError(f"{path}: not a {FORMAT_NAME} file")
    if magic[1] != str(FORMAT_VERSION):
        raise UnsupportedVersionError(
            f"{path}: unsupported version {magic[1]}")

    name, counts = header(1, "VERTICES")
    if name != "VERTICES":
        raise MalformedSectionError(f"{path}: expected VERTICES <n>")
    ve = 2 + _body_length(name, counts, 0, path)  # VERTICES ends
    coords = _finite(read(2, ve, "a vertex line", vertices,
                          lambda lines: _decode_vertices(lines, path)), path)

    name, counts = header(ve, "ELEMENTS")
    if name != "ELEMENTS":
        raise MalformedSectionError(f"{path}: expected ELEMENTS <n>")
    b = ee = ve + 1 + _body_length(name, counts, 0, path)  # ELEMENTS ends
    kinds, verts = read(ve + 1, ee, "an element line", elements,
                        lambda lines: _decode_elements(lines, path))

    # Counts that involve n_surfaces can only be checked once the
    # surfaces exist, and the surfaces can only be built once
    # PERMUTATIONS is known, so the trailing sections are read first.
    tail: dict[str, np.ndarray] = {}
    while b < n_lines:
        name, counts = header(b, None)
        if tail and name.lstrip("-").isdigit():
            raise MalformedSectionError(
                f"{path}: {list(tail)[-1]} has more values than its "
                f"header count"
            )
        if name not in _TAIL_SECTIONS or name in tail:
            raise MalformedSectionError(
                f"{path}: unexpected section {name!r}"
            )
        a, b = b + 1, b + 1 + _body_length(name, counts, len(kinds), path)
        tail[name] = read(a, b, name, integers,
                          lambda lines: _decode_ints(lines, name, path))
        _check_tail(name, tail[name], path)
    if not exact:
        return coords, kinds, verts, tail, None, None
    return coords, kinds, verts, tail, body(2, ve), body(ve + 1, ee)


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


def _finish(path, coords: np.ndarray, kinds: np.ndarray, verts: np.ndarray,
            tail: dict[str, np.ndarray],
            vertex_text: bytes | None = None,
            element_text: bytes | None = None) -> NativeMesh:
    """Assemble the mesh ``_sections`` read and check the trailing
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
        mesh = assemble(coords, np.take(kinds, element_perm),
                        np.take(verts, element_perm, axis=0))
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
    with open(path, "rb") as fh:
        lines = chain.from_iterable(_content_lines(fh.read(), path))

    def take(what: str) -> str:
        line = next(lines, None)
        if line is None:
            raise MalformedSectionError(f"{path}: file ends before {what}")
        return line

    line = take("$MeshFormat")
    if line != "$MeshFormat":
        raise MalformedSectionError(f"{path}: expected $MeshFormat first")
    parts = take("the format line").split()
    if not parts or parts[0] != "2.2":
        version = parts[0] if parts else "?"
        raise UnsupportedVersionError(
            f"{path}: MSH version {version} is not supported, need 2.2"
        )
    if take("$EndMeshFormat") != "$EndMeshFormat":
        raise MalformedSectionError(f"{path}: unterminated $MeshFormat")

    nodes: dict[int, tuple[float, float, float]] = {}
    codes: list[int] = []
    node_ids: list[int] = []  # every element's node ids, one after another
    while True:
        line = next(lines, None)
        if line is None:
            break
        if line == "$Nodes":
            try:
                n = int(take("the node count"))
            except ValueError:
                raise MalformedSectionError(
                    f"{path}: bad node count"
                ) from None
            for _ in range(n):
                parts = take("a node line").split()
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
            if take("$EndNodes") != "$EndNodes":
                raise MalformedSectionError(
                    f"{path}: unterminated $Nodes"
                )
        elif line == "$Elements":
            try:
                n = int(take("the element count"))
            except ValueError:
                raise MalformedSectionError(
                    f"{path}: bad element count"
                ) from None
            for _ in range(n):
                parts = take("an element line").split()
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
            if take("$EndElements") != "$EndElements":
                raise MalformedSectionError(
                    f"{path}: unterminated $Elements"
                )
        elif line.startswith("$") and not line.startswith("$End"):
            end = "$End" + line[1:]
            while True:
                skip = take(end)
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
