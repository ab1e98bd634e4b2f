"""The bulk native reader against the line parser it stands in for.

``read_native`` converts a file in the writer's form with one numpy call
per section and hands any other file to the line parser
``_read_native``.  Whatever the bytes, both must agree: the same arrays
and dtypes, or the same exception type and message.
"""

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
from meshchroma.cli import main
from meshchroma.meshio import _bulk_sections, _Lines, _read_native

MESH_FIELDS = ("vertices", "elem_kind", "elem_verts", "elem_surfs",
               "surf_verts", "surf_elems")
EXTRAS = ("parents", "element_perm", "surface_perm")


def _written(tmp_path, kind, parents, colors, perms):
    """The text ``write_native`` gives for a small mesh of ``kind``
    with the chosen extras."""
    make = {"tri": lambda: gen_tri_rect(3, 2),
            "quad": lambda: gen_quad_rect(3, 2),
            "tet": lambda: gen_tet_prism(1, 1, 2)}[kind]
    mesh = shuffle_elements(make(), seed=2)
    coloring, _ = color(mesh)
    table = np.full(mesh.n_elements, -1, dtype=np.int64)
    if kind == "tri" and parents:  # a refined palette needs PARENTS
        refined, coloring = refine(mesh, coloring, [0, 3])
        mesh, table = refined.mesh, refined.parents
    extra = {}
    if perms:
        plan = build_plan(mesh, coloring)
        mesh, coloring = apply_plan(mesh, coloring, plan)
        moved = np.empty_like(table)
        moved[plan.element_perm] = table
        table = moved
        extra = {"element_perm": plan.element_perm,
                 "surface_perm": plan.surface_perm}
    path = tmp_path / f"{kind}{int(parents)}{int(colors)}{int(perms)}.mesh"
    write_native(path, mesh, coloring if colors else None,
                 parents=table if parents else None, **extra)
    return path.read_text()


_KEYS = [(kind, p, c, q) for kind in ("tri", "quad", "tet")
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


def _line_parser(path):
    with open(path) as fh:
        return _read_native(_Lines(fh, path), path)


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
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# tokens put in place of one token of a line
TOKENS = ("+3", "007", "1_0", "inf", "1e400", "- 1", "-1", "0", "-0",
          "3.5", "1e5", "nan", "+0.5", "12345678901234567890",
          "123456789012345678", "1234567890123456789", "tri", "quad", "",
          "-", "+", "--5", "5-5")


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
    "none", "double_space", "tab", "cr_line", "cr_file", "comment",
    "comment_line", "blank_line", "trailing_space", "leading_space",
    "no_final_newline", "unterminated_tail", "move_token", "kind_mid_line",
    "kind_twice", "mixed_kinds", "truncate_section", "truncate_file",
    "duplicate_section", "drop_line", "non_ascii",
) + tuple(f"token:{t}" for t in TOKENS)


@pytest.mark.parametrize("key", _KEYS,
                         ids=["-".join(map(str, k)) for k in _KEYS])
def test_writer_output_takes_the_bulk_path(bases, tmp_path, key):
    text = bases[key]
    assert _bulk_sections(text.encode()) is not None
    path = tmp_path / "m.mesh"
    path.write_text(text)
    assert_same(read_native(path), _line_parser(path))


def _agree(path, text):
    path.write_bytes(text.encode())
    assert_same(_outcome(read_native, path), _outcome(_line_parser, path))


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


def test_twenty_digit_vertex_id_is_a_bad_element_line(tmp_path, capsys):
    # np.fromstring would saturate it to 2**63 - 1, an id out of range
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


def test_longest_integers_the_bulk_path_takes(tmp_path):
    # 18 characters convert in bulk; 19 go to the line parser, which
    # reads them as well while they fit an int64
    for tail, bulk in (("COLORS 3\n1\n2\n-00000000000000003\n", True),
                       ("COLORS 3\n1\n2\n000000000000000003\n", True),
                       ("COLORS 3\n1\n2\n0000000000000000003\n", False)):
        path = _tiny(tmp_path, tail=tail)
        assert (_bulk_sections(path.read_bytes()) is not None) == bulk
        assert_same(_outcome(read_native, path), _outcome(_line_parser, path))
    path = _tiny(tmp_path, tail="COLORS 3\n1\n2\n0000000000000000003\n")
    assert read_native(path).coloring.colors.tolist() == [1, 2, 3]
