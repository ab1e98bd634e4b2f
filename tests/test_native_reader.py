"""The native reader against the line parser it replaced.

``read_native`` normalizes a file that is not in the writer's form into
it, then converts every section with array operations over its bytes,
and decodes a section those refuse with Python's ``int`` and ``float``.
``reference_read_native`` in ``conftest.py`` is the line parser that
read such files before.  Whatever the bytes, both must agree: the same
arrays and dtypes, or the same exception type and message.  The
writer's fixed-notation encoder is checked here too, against ``%r`` and
against the decoder that reads its text back.
"""

import re
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    MalformedSectionError,
    apply_plan,
    build_plan,
    color,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    read_native,
    refine,
    shuffle_elements,
    write_native,
)
from meshchroma import meshio
from meshchroma.cli import main
from meshchroma.meshio import _MAX_INT_CHARS, _fixed_lines, _fixed_values
from conftest import hybrid_patch, reference_read_native

MESH_FIELDS = ("vertices", "elem_kind", "elem_verts", "elem_surfs",
               "surf_verts", "surf_elems")
EXTRAS = ("parents", "mesh.element_perm", "mesh.surface_perm")


def _written(tmp_path, kind, parents, colors, perms):
    """The text ``write_native`` gives for a small mesh of ``kind``
    with the chosen extras."""
    make = {"tri": lambda: gen_tri_rect(3, 2),
            "quad": lambda: gen_quad_rect(3, 2),
            "tet": lambda: gen_tet_prism(1, 1, 2),
            "hybrid": lambda: hybrid_patch(3, 2)}[kind]
    mesh = shuffle_elements(make(), seed=2)
    coloring, _ = color(mesh)
    table = np.full(mesh.n_elements, -1, dtype=np.int64)
    if kind == "tri" and parents:  # a refined palette needs PARENTS
        refined, coloring = refine(mesh, coloring, [0, 3])
        mesh, table = refined.mesh, refined.parents
    if perms:
        plan = build_plan(mesh, coloring)
        mesh, coloring = apply_plan(mesh, coloring, plan)
        moved = np.empty_like(table)
        moved[plan.element_perm] = table
        table = moved
    path = tmp_path / f"{kind}{int(parents)}{int(colors)}{int(perms)}.mesh"
    write_native(path, mesh, coloring if colors else None,
                 parents=table if parents else None)
    return path.read_text()


_KEYS = [(kind, p, c, q) for kind in ("tri", "quad", "tet", "hybrid")
         for p in (False, True) for c in (False, True) for q in (False, True)]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("base")
    return {key: _written(tmp, *key) for key in _KEYS}


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in MESH_FIELDS:
        a, b = getattr(got.mesh, name), getattr(want.mesh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.coloring is None) == (want.coloring is None)
    if want.coloring is not None:
        assert got.coloring.n_colors == want.coloring.n_colors
        assert got.coloring.colors.dtype == want.coloring.colors.dtype
        assert np.array_equal(got.coloring.colors, want.coloring.colors)
    for name in EXTRAS:
        a, b = attrgetter(name)(got), attrgetter(name)(want)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# tokens put in place of one token of a line
TOKENS = ("+3", "007", "1_0", "inf", "1e400", "- 1", "-1", "0", "-0",
          "3.5", "1e5", "nan", "+0.5", "12345678901234567890",
          "123456789012345678", "1234567890123456789", "tri", "quad", "",
          "-", "+", "--5", "5-5", "1a", "9" * 18, "-" + "9" * 17)


def _sections(lines):
    """(header line, end line) of each section; headers start with an
    upper-case letter, element kinds are lowercase."""
    heads = [i for i, line in enumerate(lines) if line[:1].isupper()]
    return list(zip(heads, heads[1:] + [len(lines)]))


def mutate(text, how, r):
    """``text`` changed by mutation ``how``.  ``r`` picks where: a
    section (the magic line counts as one), then a line in it, header
    included, then a token in that line."""
    lines = text.split("\n")[:-1]  # the writer ends every line
    sections = _sections(lines)
    start, end = sections[r % len(sections)]
    i = start + (r // 8) % (end - start)
    line = lines[i]
    tokens = line.split(" ")
    if how == "double_space":
        lines[i] = line.replace(" ", "  ", 1)
    elif how == "tab":
        lines[i] = line.replace(" ", "\t", 1)
    elif how == "cr_line":
        lines[i] = line + "\r"
    elif how == "lone_cr":  # ends the line in text mode
        at = (r // 64) % (len(line) + 1)
        lines[i] = line[:at] + "\r" + line[at:]
    elif how == "unicode_space":  # white space to str.split
        lines[i] = line.replace(" ", "\xa0\x1c"[(r // 64) % 2], 1)
    elif how == "control_byte":  # not white space: it joins two tokens
        lines[i] = line.replace(" ", "\x01", 1)
    elif how == "cr_file":
        return text.replace("\n", "\r\n")
    elif how == "comment":
        lines[i] = line + " # note"
    elif how == "comment_line":
        lines.insert(i, "# note")
    elif how == "blank_line":
        lines.insert(i, "")
    elif how == "trailing_space":
        lines[i] = line + " "
    elif how == "leading_space":
        lines[i] = " " + line
    elif how == "no_final_newline":
        return text[:-1]
    elif how == "unterminated_tail":
        return text + line
    elif how == "move_token":  # line widths change, the token count not
        j = (i + 1 + r // 64) % len(lines)
        if len(tokens) > 1 and j != i:
            lines[i] = " ".join(tokens[:-1])
            lines[j] += " " + tokens[-1]
    elif how.startswith("token:"):
        tokens[(r // 64) % len(tokens)] = how[6:]
        lines[i] = " ".join(tokens)
    elif how == "kind_mid_line":
        if len(tokens) > 2:
            tokens[1], tokens[0] = tokens[0], tokens[1]
            lines[i] = " ".join(tokens)
    elif how == "kind_twice":
        lines[i] = line + " " + tokens[0]
    elif how == "mixed_kinds":  # a tri line turns quad, any other tri
        if tokens[0] == "tri":
            lines[i] = "quad " + " ".join(tokens[1:] + tokens[1:2])
        elif tokens[0] in ("quad", "tet"):
            lines[i] = "tri " + " ".join(tokens[1:4])
    elif how == "truncate_section":
        del lines[i + 1:end]
    elif how == "truncate_file":
        del lines[i:]
    elif how == "duplicate_section":
        lines[end:end] = lines[start:end]
    elif how == "drop_line":
        del lines[i]
    elif how == "non_ascii":
        lines[i] = line + "é"
    return "".join(line + "\n" for line in lines)


MUTATIONS = (
    "none", "double_space", "tab", "cr_line", "lone_cr", "unicode_space",
    "control_byte", "cr_file", "comment",
    "comment_line", "blank_line", "trailing_space", "leading_space",
    "no_final_newline", "unterminated_tail", "move_token", "kind_mid_line",
    "kind_twice", "mixed_kinds", "truncate_section", "truncate_file",
    "duplicate_section", "drop_line", "non_ascii",
) + tuple(f"token:{t}" for t in TOKENS)


@pytest.mark.parametrize("key", _KEYS,
                         ids=["-".join(map(str, k)) for k in _KEYS])
def test_writer_output_takes_the_bulk_path(bases, tmp_path, monkeypatch,
                                           key):
    text = bases[key]
    path = tmp_path / "m.mesh"
    path.write_text(text)
    want = reference_read_native(path)

    def unused(*args):
        raise AssertionError("normalized or token-decoded")

    for name in ("_normalized", "_decode_vertices", "_decode_elements",
                 "_decode_ints"):
        monkeypatch.setattr(meshio, name, unused)
    got = read_native(path)
    assert got.vertex_text is not None and got.element_text is not None
    assert_same(got, want)


def _agree(path, text):
    path.write_bytes(text.encode())
    assert_same(_outcome(read_native, path),
                _outcome(reference_read_native, path))


@pytest.mark.parametrize("how", MUTATIONS)
def test_each_mutation_in_each_section(bases, tmp_path, how):
    # 26 places spread over every section of a refined, colored,
    # reordered triangle file, at varied lines and tokens
    text = bases[("tri", True, True, True)]
    for r in range(0, 24 * 64, 61):
        _agree(tmp_path / "m.mesh", mutate(text, how, r))


@settings(deadline=None, max_examples=300)
@given(key=st.sampled_from(_KEYS), how=st.sampled_from(MUTATIONS),
       where=st.integers(min_value=0, max_value=10**6),
       again=st.sampled_from((None,) * 4 + MUTATIONS),
       where2=st.integers(min_value=0, max_value=10**6))
def test_bulk_reader_agrees_with_line_parser(bases, tmp_path_factory, key,
                                             how, where, again, where2):
    text = mutate(bases[key], how, where)
    if again is not None and text.endswith("\n") and text.count("\n") > 1:
        text = mutate(text, again, where2)
    _agree(tmp_path_factory.mktemp("d") / "m.mesh", text)


def _tiny(tmp_path, elements="tri 0 1 2\n", tail=""):
    path = tmp_path / "t.mesh"
    path.write_text("MESHCHROMA 1\nVERTICES 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                    f"ELEMENTS 1\n{elements}{tail}")
    return path


@pytest.mark.parametrize("rows, fault", [
    (["0.0", "1.0", "0.5"], "vertices must have 2 or 3 coordinates"),
    (["0.0 0.0 0.0 0.0"] * 3, "vertices must have 2 or 3 coordinates"),
    (["0.0 0.0", "1.0 0.0 0.0", "0.0 1.0"], "inconsistent vertex width"),
], ids=["one", "four", "mixed"])
def test_vertex_lines_hold_two_or_three_coordinates(tmp_path, rows, fault):
    path = tmp_path / "t.mesh"
    path.write_text("MESHCHROMA 1\nVERTICES 3\n" + "\n".join(rows)
                    + "\nELEMENTS 1\ntri 0 1 2\n")
    want = _outcome(reference_read_native, path)
    assert want == (MalformedSectionError, f"{path}: {fault}")
    assert _outcome(read_native, path) == want


def test_twenty_digit_vertex_id_is_a_bad_element_line(tmp_path, capsys):
    # 20 digits overflow an int64, so the token decoder names the line
    path = _tiny(tmp_path, "tri 0 1 99999999999999999999\n")
    with pytest.raises(MalformedSectionError) as err:
        read_native(path)
    assert str(err.value) == f"{path}: bad element line"
    assert main(["verify", "-i", str(path)]) == 4
    assert "bad element line" in capsys.readouterr().err


def test_twenty_digit_color_is_a_bad_integer(tmp_path, capsys):
    path = _tiny(tmp_path, tail="COLORS 3\n1\n2\n99999999999999999999\n")
    with pytest.raises(MalformedSectionError) as err:
        read_native(path)
    assert str(err.value) == (
        f"{path}: bad integer '99999999999999999999' in COLORS")
    assert main(["verify", "-i", str(path)]) == 4
    assert "bad integer" in capsys.readouterr().err


def test_longest_integers_the_bulk_path_takes(tmp_path, monkeypatch):
    # 18 characters convert in bulk; 19 go to the token decoder, which
    # reads them as well while they fit an int64
    decoded = []
    token_decoder = meshio._decode_ints
    monkeypatch.setattr(meshio, "_decode_ints", lambda *args: (
        decoded.append(args), token_decoder(*args))[1])
    for tail, bulk in (("COLORS 3\n1\n2\n-00000000000000003\n", True),
                       ("COLORS 3\n1\n2\n000000000000000003\n", True),
                       ("COLORS 3\n1\n2\n0000000000000000003\n", False)):
        path = _tiny(tmp_path, tail=tail)
        decoded.clear()
        got = _outcome(read_native, path)
        assert_same(got, _outcome(reference_read_native, path))
        assert (not decoded) == bulk
        # a token-decoded section keeps no body bytes
        if not isinstance(got, tuple):
            assert (got.vertex_text is not None) == bulk
    path = _tiny(tmp_path, tail="COLORS 3\n1\n2\n0000000000000000003\n")
    assert read_native(path).coloring.colors.tolist() == [1, 2, 3]


def test_a_normalized_file_quotes_its_lines_as_written(tmp_path):
    # the tokens are read from the normalized text, but a quoted line is
    # the one the file holds, cut at '#' and stripped
    for tail, quote in (("COLORS\t3x # c\n", "bad section header "
                         "'COLORS\\t3x'"),
                        ("COLORS 3\n1\n2\t 3\r\n", "bad integer '2\\t 3' in "
                         "COLORS")):
        path = _tiny(tmp_path, tail=tail)
        want = _outcome(reference_read_native, path)
        assert want == (MalformedSectionError, f"{path}: {quote}")
        assert _outcome(read_native, path) == want


@st.composite
def _parent_tokens(draw):
    """A value in [-1, 10**18) and its token: zero padded to a drawn
    width of at most ``_MAX_INT_CHARS`` characters."""
    value = draw(st.integers(min_value=-1, max_value=10**18 - 1))
    digits = str(abs(value))
    room = _MAX_INT_CHARS - len(digits) - (value < 0)
    pad = draw(st.integers(min_value=0, max_value=room))
    return value, "-" * (value < 0) + "0" * pad + digits


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_parents_of_every_width_take_the_bulk_path(bases, tmp_path_factory,
                                                   data):
    text = bases[("tri", False, False, False)]
    ne = int(text.split("ELEMENTS ", 1)[1].split("\n", 1)[0])
    drawn = data.draw(st.lists(_parent_tokens(), min_size=ne, max_size=ne))
    text += f"PARENTS {ne}\n" + "".join(f"{t}\n" for _, t in drawn)
    path = tmp_path_factory.mktemp("p") / "m.mesh"
    path.write_text(text)
    got = read_native(path)
    assert got.vertex_text is not None
    assert_same(got, reference_read_native(path))
    assert got.parents.tolist() == [v for v, _ in drawn]


def _fixed(tokens):
    """``_fixed_values`` of ``tokens`` as one VERTICES line."""
    buf = np.frombuffer(("\n" + " ".join(tokens) + "\n").encode(),
                        dtype=np.uint8)
    seps = np.flatnonzero(buf <= 32)
    return _fixed_values(buf, seps[1:], seps[:-1])


def _decodes_fixed(token) -> bool:
    """Whether ``token`` is in fixed notation with at most 15 digits,
    the tokens ``_fixed_values`` converts."""
    digits = token.lstrip("-").replace(".", "")
    return (re.fullmatch(r"-?[0-9]+\.[0-9]+", token) is not None
            and len(digits) <= 15)


def _assert_decodes_as_fromstring(tokens):
    got = _fixed(tokens)
    want = np.fromstring(" ".join(tokens), sep=" ")
    assert (got is not None) == all(map(_decodes_fixed, tokens)), tokens
    if got is not None:  # bit for bit, so -0.0 is not 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# 0, magnitudes where %r turns to exponents, and mantissas of 15, 16
# and 17 digits
_EDGE_FLOATS = [0.0, 1e-4, float(np.nextafter(1e-4, 0)),
                float(np.nextafter(1e16, 0)), 1e16, 0.1 + 0.2, 1 / 3,
                123456789012345.0, 0.12345678901234, 2.0**53 / 1e3,
                (2.0**53 - 1) / 1e3, 9007199254740.993, 0.1234567890123456]


# floats whose %r is in either notation, with any number of digits
_REPR_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]),
    st.floats(-1e16, 1e16), st.floats(-1, 1))


@settings(deadline=None, max_examples=300)
@given(st.lists(_REPR_FLOATS, min_size=1, max_size=12))
def test_fixed_decoder_matches_fromstring_on_repr(values):
    _assert_decodes_as_fromstring([repr(v) for v in values])


@st.composite
def _fixed_tokens(draw):
    """Fixed-notation text of up to 19 digits, leading and trailing
    zeros included: ``0.50``, ``007.25``, ``-0.000``."""
    n = draw(st.integers(min_value=2, max_value=19))
    digits = str(draw(st.integers(0, 10**n - 1))).zfill(n)
    point = draw(st.integers(min_value=1, max_value=n - 1))
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[:point]}.{digits[point:]}"


@settings(deadline=None, max_examples=300)
@given(st.lists(_fixed_tokens(), min_size=1, max_size=12))
def test_fixed_decoder_matches_fromstring_on_fixed_text(tokens):
    _assert_decodes_as_fromstring(tokens)


# the values of fixed-notation text, most of which %r writes in
# fixed notation again
_FIXED_FLOATS = _fixed_tokens().map(float)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.lists(_REPR_FLOATS, min_size=3, max_size=12),
                 st.lists(_FIXED_FLOATS, min_size=3, max_size=12),
                 st.lists(st.one_of(_REPR_FLOATS, _FIXED_FLOATS),
                          min_size=3, max_size=12)),
       st.sampled_from((2, 3)))
def test_fixed_encoder_writes_percent_r_that_reads_back(values, width):
    rows = np.array(values[:len(values) // width * width]).reshape(-1, width)
    tokens = [repr(v) for v in rows.ravel().tolist()]
    text = _fixed_lines(rows)
    # digit-written exactly when the decoder takes every token
    assert (text is not None) == all(map(_decodes_fixed, tokens)), tokens
    if text is not None:
        want = "".join(" ".join(tokens[i:i + width]) + "\n"
                       for i in range(0, len(tokens), width))
        assert text.tobytes().decode() == want
        got = _fixed(text.tobytes().decode().split())
        assert got is not None
        # bit for bit, so -0.0 is not 0.0
        assert np.array_equal(got.view(np.int64), rows.ravel().view(np.int64))


def test_fixed_encoder_turns_other_blocks_away_before_the_digit_columns(
        monkeypatch):
    def unwritten(*args, **kwargs):
        raise AssertionError("digit columns written")

    monkeypatch.setattr(meshio, "_digit_columns", unwritten)
    for row in ([1.0, 0.1 + 0.2], [0.5, 1.5e-05], [123456789012345.0, 0.5],
                [0.5, float(np.nextafter(1e-4, 0))], [0.5, float("nan")]):
        assert _fixed_lines(np.array([row])) is None, row


def test_fixed_decoder_examples():
    for tokens in (["0.50", "007.25"], ["-0.0", "0.0"], ["1.0"] * 3,
                   ["999999999999.999", "-0.00000000000001"]):
        _assert_decodes_as_fromstring(tokens)
        assert _fixed(tokens) is not None
    # 16 digits, exponents, and tokens that are not fixed notation
    for tokens in (["1.0", "0.000000000000001"], ["1.0", "1e5"],
                   ["1.5e-05"], ["-.5", "1.0"], ["5.", "1.0"], ["+1.0"],
                   ["1.2.3", "1.0"], ["1.0", "1.0.", "5"]):
        assert _fixed(tokens) is None, tokens


def test_fixed_decoder_rejects_other_bodies_before_the_digit_columns(
        monkeypatch):
    # a body of %r text that is not fixed notation costs a few passes,
    # not a decode that is thrown away
    def unread(*args, **kwargs):
        raise AssertionError("digit columns read")

    monkeypatch.setattr(meshio, "_token_values", unread)
    for tokens in (["1.0", repr(1 / 7)], ["1.0", repr(9.007199254740993)],
                   ["0.5", "1.5e-05"], ["1.0", "nan"], ["0.5", "5"]):
        assert _fixed(tokens) is None, tokens


# a vertex token -> what read_native gives for it (a coordinate or the
# error after the path) and verify's exit code, as np.fromstring and
# the line parser decided before the fixed-notation decoder existed
MALFORMED_VERTEX = {
    "-.5": (-0.5, 0),
    "5.": (5.0, 0),
    "+1.0": (1.0, 0),
    "1.2.3": ("bad vertex line '1.0 1.2.3'", 4),
    "--1": ("bad vertex line '1.0 --1'", 4),
    "1-2": ("bad vertex line '1.0 1-2'", 4),
    "1e999": ("non-finite coordinates at vertices [1]", 4),
    "nan": ("non-finite coordinates at vertices [1]", 4),
    "-0.0": (-0.0, 0),
    "007.25": (7.25, 0),
}


@pytest.mark.parametrize("token", MALFORMED_VERTEX)
def test_vertex_tokens_keep_their_verdicts(tmp_path, capsys, token):
    path = tmp_path / "t.mesh"
    path.write_text(f"MESHCHROMA 1\nVERTICES 3\n0.0 0.0\n1.0 {token}\n"
                    "0.0 1.0\nELEMENTS 1\ntri 0 1 2\n")
    want, code = MALFORMED_VERTEX[token]
    if isinstance(want, str):
        with pytest.raises(MalformedSectionError) as err:
            read_native(path)
        assert str(err.value) == f"{path}: {want}"
    else:
        y = read_native(path).mesh.vertices[1, 1]
        assert y == want and np.signbit(y) == np.signbit(want)
    assert_same(_outcome(read_native, path),
                _outcome(reference_read_native, path))
    assert main(["verify", "-i", str(path)]) == code
    capsys.readouterr()
