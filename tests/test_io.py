"""Native format round trips and the MSH 2.2 reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    MalformedSectionError,
    SurfaceColoring,
    UnsupportedVersionError,
    apply_plan,
    build_plan,
    coarsen,
    color,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    read_msh,
    read_native,
    refine,
    shuffle_elements,
    verify_coloring,
    write_native,
    write_report,
)
from meshchroma.cli import main
from meshchroma.mesh import CODE_TO_KIND, KIND_TO_CODE, ElementKind, assemble
from meshchroma.meshio import _BLOCK_CHARS, _N_IDS, _int_lines
from conftest import assert_matches_assembly, hybrid_patch, traced_peak

MESH_FIELDS = ("vertices", "elem_kind", "elem_verts", "elem_surfs",
               "surf_verts", "surf_elems")


def test_mesh_round_trip(tmp_path):
    mesh = gen_tri_rect(3, 2)
    path = tmp_path / "m.mesh"
    write_native(path, mesh)
    back = read_native(path)
    assert back.coloring is None
    assert back.parents is None
    assert (back.mesh.elem_verts == mesh.elem_verts).all()
    assert (back.mesh.surf_verts == mesh.surf_verts).all()
    assert np.allclose(back.mesh.vertices, mesh.vertices)


def test_coloring_round_trip(tmp_path):
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    path = tmp_path / "c.mesh"
    write_native(path, mesh, coloring)
    back = read_native(path)
    assert back.coloring.n_colors == 3
    assert (back.coloring.colors == coloring.colors).all()


def test_parents_and_permutations_round_trip(tmp_path):
    mesh = gen_tri_rect(2, 2)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    new_mesh, _ = apply_plan(mesh, coloring, plan)
    parents = np.full(mesh.n_elements, -1, dtype=np.int64)
    parents[0] = 2
    path = tmp_path / "p.mesh"
    write_native(path, new_mesh, parents=parents)
    back = read_native(path)
    assert (back.parents == parents).all()
    assert (back.mesh.element_perm == plan.element_perm).all()
    assert (back.mesh.surface_perm == plan.surface_perm).all()


@pytest.mark.parametrize("make", [
    lambda: gen_tri_rect(5, 4),
    lambda: gen_quad_rect(4, 5),
    lambda: gen_tet_prism(2, 2, 2),
], ids=["tri_rect", "quad_rect", "tet_prism"])
def test_reordered_mesh_round_trip(tmp_path, make):
    # shuffled ids make the plan move every surface, not just a few
    mesh = shuffle_elements(make(), seed=3)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    new_mesh, new_coloring = apply_plan(mesh, coloring, plan)
    path = tmp_path / "r.mesh"
    write_native(path, new_mesh, new_coloring)
    back = read_native(path)
    for name in ("elem_kind", "elem_verts", "elem_surfs",
                 "surf_verts", "surf_elems"):
        assert np.array_equal(getattr(back.mesh, name),
                              getattr(new_mesh, name)), name
    assert np.array_equal(back.coloring.colors, new_coloring.colors)
    assert back.coloring.n_colors == new_coloring.n_colors
    assert verify_coloring(back.mesh, back.coloring) == []


_FAMILIES = {
    "tri_rect": lambda n: gen_tri_rect(n, n + 1),
    "quad_rect": lambda n: gen_quad_rect(n + 1, n),
    "tet_prism": lambda n: gen_tet_prism(n, 2, 2),
    "tri_closed": lambda n: gen_tri_rect(3 * n, 3 * n, (True, True)),
}


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(sorted(_FAMILIES)),
       n=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16),
       refine_some=st.booleans(), reorders=st.integers(0, 2))
def test_native_round_trip_is_exact(tmp_path_factory, family, n, seed,
                                    refine_some, reorders):
    # a renumbered mesh carries its maps, so the writer is passed none;
    # a second reorder composes them with the first
    mesh = shuffle_elements(_FAMILIES[family](n), seed=seed)
    coloring, _ = color(mesh)
    parents = None
    if refine_some and family == "tri_rect":
        refined, coloring = refine(mesh, coloring,
                                   range(0, mesh.n_elements, 3))
        mesh, parents = refined.mesh, refined.parents
    for _ in range(reorders):
        plan = build_plan(mesh, coloring)
        mesh, coloring = apply_plan(mesh, coloring, plan)
        if parents is not None:
            moved = np.empty_like(parents)
            moved[plan.element_perm] = parents
            parents = moved
    tmp = tmp_path_factory.mktemp("rt")
    first, second = tmp / "a.mesh", tmp / "b.mesh"
    write_native(first, mesh, coloring, parents=parents)
    back = read_native(first)
    for name in MESH_FIELDS + ("element_perm", "surface_perm"):
        got, want = getattr(back.mesh, name), getattr(mesh, name)
        if want is None:
            assert got is None and not reorders, name
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(back.coloring.colors, coloring.colors)
    assert back.coloring.n_colors == coloring.n_colors
    assert ((back.parents is None) if parents is None
            else np.array_equal(back.parents, parents))
    write_native(second, back.mesh, back.coloring, parents=back.parents)
    assert first.read_bytes() == second.read_bytes()


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(sorted(_FAMILIES)),
       n=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_bijective_permutations_read_back_valid(tmp_path_factory,
                                                    family, n, seed):
    # whatever bijections a PERMUTATIONS section holds, the reader
    # assembles the elements and relabels, so the mesh keeps the
    # surfaces they imply and is written back as it was read
    mesh = _FAMILIES[family](n)
    rng = np.random.default_rng(seed)
    ep = rng.permutation(mesh.n_elements)
    sp = rng.permutation(mesh.n_surfaces)
    path = tmp_path_factory.mktemp("perm") / "p.mesh"
    write_native(path, mesh)
    with open(path, "a") as fh:
        fh.write(f"PERMUTATIONS {mesh.n_elements} {mesh.n_surfaces}\n")
        fh.write("".join(f"{i}\n" for i in np.concatenate([ep, sp])))
    back = read_native(path)
    assert np.array_equal(back.mesh.element_perm, ep)
    assert np.array_equal(back.mesh.surface_perm, sp)
    assert_matches_assembly(back.mesh)
    again = path.with_suffix(".again")
    write_native(again, back.mesh)
    assert again.read_bytes() == path.read_bytes()


# written by the line-per-call writer this one replaced; re-frozen when
# coloring moved to the sweep order, with bytes equal to those of the
# one-format-per-section writer on the same coloring, and again when
# the plan put the color-1 block first on every mesh
GOLDEN = (
    "MESHCHROMA 1\nVERTICES 9\n0.0 0.0\n1.0 0.0\n2.0 0.0\n0.0 1.0\n"
    "1.0 1.0\n2.0 1.0\n0.5 0.0\n1.0 0.5\n0.5 0.5\nELEMENTS 7\n"
    "tri 1 7 6\ntri 2 5 4\ntri 0 4 3\ntri 1 2 4\ntri 0 6 8\ntri 6 7 8\n"
    "tri 4 8 7\nPARENTS 7\n1\n-1\n-1\n-1\n1\n1\n1\nCOLORS 17\n"
    + "".join(f"{c}\n" for c in (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3,
                                  4, 5, 6))
    + "PERMUTATIONS 7 17\n"
    + "".join(f"{p}\n" for p in (1, 2, 3, 4, 0, 6, 5,
                                  6, 1, 10, 2, 7, 11, 3, 8, 12, 9, 4, 5,
                                  0, 16, 14, 13, 15))
)


def test_writer_bytes_are_pinned(tmp_path):
    mesh = shuffle_elements(gen_tri_rect(2, 1), seed=4)
    coloring, _ = color(mesh)
    refined, fine = refine(mesh, coloring, [1])
    plan = build_plan(refined.mesh, fine)
    new_mesh, new_coloring = apply_plan(refined.mesh, fine, plan)
    parents = np.empty_like(refined.parents)
    parents[plan.element_perm] = refined.parents
    path = tmp_path / "g.mesh"
    write_native(path, new_mesh, new_coloring, parents=parents)
    assert path.read_text() == GOLDEN


def _one_format_file(mesh, colors):
    """The ELEMENTS and COLORS sections as one ``%`` over the whole
    section formats them: the writer's output before it looked colors
    up in a table."""
    fmt = {"tri": "tri %d %d %d\n", "quad": "quad %d %d %d %d\n",
           "tet": "tet %d %d %d %d\n"}
    kinds = [CODE_TO_KIND[c] for c in mesh.elem_kind.tolist()]
    rows = [v for i, k in enumerate(kinds)
            for v in mesh.elem_verts[i, :k.n_vertices].tolist()]
    return (f"ELEMENTS {mesh.n_elements}\n"
            + "".join(fmt[k.value] for k in kinds) % tuple(rows)
            + f"COLORS {mesh.n_surfaces}\n"
            + ("%d\n" * len(colors)) % tuple(colors.tolist()))


@pytest.mark.parametrize("build", [
    lambda: shuffle_elements(gen_tri_rect(5, 4), 2),
    lambda: gen_quad_rect(4, 3),
    lambda: shuffle_elements(gen_tet_prism(2, 2, 2), 1),
    lambda: hybrid_patch(3, 3),
], ids=["tri", "quad", "tet", "mixed"])
@pytest.mark.parametrize("coloring", ["complete", "holes", "wide"])
def test_writer_sections_match_one_format_per_section(tmp_path, build,
                                                      coloring):
    mesh = build()
    if coloring == "complete":
        colors = color(mesh)[0].colors
    elif coloring == "holes":
        colors = color(mesh)[0].colors.copy()
        colors[::3] = -1
    else:  # more distinct values than the writer's lookup table spans
        colors = (np.arange(mesh.n_surfaces, dtype=np.int32) * 7) - 1
    path = tmp_path / "w.mesh"
    write_native(path, mesh, SurfaceColoring(colors, 4))
    text = path.read_text()
    assert text[text.index("ELEMENTS"):] == _one_format_file(mesh, colors)


# magnitudes where a digit count changes, and the int64 ends
_EDGE_INTS = sorted({s * v for k in range(19) for v in (10**k, 10**k - 1)
                     for s in (1, -1)} | {-2**63, 2**63 - 1})
_INTS = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_EDGE_INTS),
                  st.integers(-1, 20))


@settings(deadline=None, max_examples=200)
@given(st.lists(_INTS, max_size=48), st.integers(1, 4))
def test_int_lines_match_percent_d(values, width):
    rows = np.array(values[:len(values) // width * width],
                    dtype=np.int64).reshape(-1, width)
    want = "".join(" ".join("%d" % v for v in row) + "\n"
                   for row in rows.tolist())
    assert _int_lines(rows).tobytes() == want.encode()
    if width == 1:
        assert _int_lines(rows.ravel()).tobytes() == want.encode()


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, len(CODE_TO_KIND) - 1),
                          st.lists(_INTS, min_size=4, max_size=4)),
                max_size=24))
def test_int_lines_of_element_lines(lines):
    kinds = np.array([k for k, _ in lines], dtype=np.int8)
    ids = [row[:_N_IDS[k]] for k, row in lines]
    want = "".join(CODE_TO_KIND[k].value + "".join(" %d" % v for v in row)
                   + "\n" for (k, _), row in zip(lines, ids))
    tokens = np.array([v for row in ids for v in row], dtype=np.int64)
    assert _int_lines(tokens, kinds).tobytes() == want.encode()


def _percent_file(mesh, parents, colors, element_perm, surface_perm):
    """A native file as the writer that formatted every section with
    ``%`` wrote it."""
    lines = ["MESHCHROMA 1", f"VERTICES {mesh.n_vertices}"]
    lines += [" ".join(map(repr, row)) for row in mesh.vertices.tolist()]
    lines.append(f"ELEMENTS {mesh.n_elements}")
    for code, row in zip(mesh.elem_kind.tolist(), mesh.elem_verts.tolist()):
        kind = CODE_TO_KIND[code]
        lines.append(kind.value + " %d" * kind.n_vertices
                     % tuple(row[:kind.n_vertices]))
    lines += [f"PARENTS {len(parents)}"] + ["%d" % p for p in parents]
    lines += [f"COLORS {len(colors)}"] + ["%d" % c for c in colors]
    lines.append(f"PERMUTATIONS {len(element_perm)} {len(surface_perm)}")
    lines += ["%d" % p for p in list(element_perm) + list(surface_perm)]
    return "\n".join(lines) + "\n"


def _colored(mesh):
    return mesh, color(mesh)[0]


def _refined_tri():
    """A shuffled triangle patch with four elements refined, and the
    coloring ``refine`` gives it: the midpoints end its vertex rows."""
    mesh = shuffle_elements(gen_tri_rect(6, 5), 3)
    refined, fine = refine(mesh, color(mesh)[0], [0, 4, 7, 8])
    return refined.mesh, fine


def test_mixed_file_matches_percent_formatting(tmp_path):
    mixed = hybrid_patch(5, 4)
    assert len(mixed.element_kind_profile) == 2
    # and each kind of VERTICES block the writer formats: generated
    # grids of every family, a shuffled mesh, refine's midpoints, and a
    # jittered mesh whose rows are written with ``%r``
    cases = {"mixed": _colored(mixed),
             "tri_rect": _colored(gen_tri_rect(7, 5)),
             "tri_closed": _colored(gen_tri_rect(6, 4, periodic=True)),
             "quad_rect": _colored(gen_quad_rect(6, 5)),
             "tet_prism": _colored(gen_tet_prism(3, 2, 2)),
             "shuffled": _colored(shuffle_elements(gen_tri_rect(9, 8), 5)),
             "refined": _refined_tri(),
             "jittered": _colored(_jittered_tri(5, 4))}
    for name, (mesh, coloring) in cases.items():
        plan = build_plan(mesh, coloring)
        new_mesh, new_coloring = apply_plan(mesh, coloring, plan)
        # -1, single digits and wider values, as refined files hold
        parents = np.arange(new_mesh.n_elements) * 37 % 1201 - 1
        path = tmp_path / f"{name}.mesh"
        write_native(path, new_mesh, new_coloring, parents=parents)
        assert path.read_text() == _percent_file(
            new_mesh, parents.tolist(), new_coloring.colors.tolist(),
            plan.element_perm.tolist(), plan.surface_perm.tolist()), name


def test_sections_longer_than_one_chunk(tmp_path):
    # each section is longer than the chunks a line-at-a-time reader
    # takes them in
    chunk_lines = 4096
    mesh = gen_tri_rect(70, 70)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    new_mesh, new_coloring = apply_plan(mesh, coloring, plan)
    path = tmp_path / "big.mesh"
    write_native(path, new_mesh, new_coloring,
                 parents=np.full(mesh.n_elements, -1))
    want = read_native(path)
    lines = path.read_text().split("\n")
    # section name -> (first body line, body length); kinds are lowercase
    sections = {}
    for i, line in enumerate(lines[1:], start=1):
        if line[:1].isupper():
            name, *counts = line.split()
            sections[name] = (i + 1, sum(int(c) for c in counts))
    assert min(n for _, n in sections.values()) > chunk_lines

    # a trailing comment on a chunk's last line, then a comment line and
    # a blank line where the next chunk starts
    edited = list(lines)
    for start, _ in sorted(sections.values(), reverse=True):
        edited[start + chunk_lines - 1] += "  # end of a chunk"
        edited[start + chunk_lines:start + chunk_lines] = ["# next", ""]
    # and a comment from before the end of the first block of text the
    # reader normalizes to past it
    at = 0
    for i, line in enumerate(edited):
        if at + len(line) >= _BLOCK_CHARS:
            edited[i - 1] += " # " + "c" * (_BLOCK_CHARS - at + 40)
            break
        at += len(line) + 1
    path.write_text("\n".join(edited))
    back = read_native(path)
    for name in MESH_FIELDS:
        assert np.array_equal(getattr(back.mesh, name),
                              getattr(want.mesh, name)), name
    assert np.array_equal(back.coloring.colors, want.coloring.colors)
    assert np.array_equal(back.parents, want.parents)
    assert np.array_equal(back.mesh.surface_perm, want.mesh.surface_perm)

    # a bad token on a section's last line
    for name, (start, n) in sections.items():
        edited = list(lines)
        last = start + n - 1
        edited[last] += "x"
        path.write_text("\n".join(edited))
        expected = {
            "VERTICES": f"bad vertex line {edited[last]!r}",
            "ELEMENTS": "bad element line",
        }.get(name, f"bad integer {edited[last]!r} in {name}")
        with pytest.raises(MalformedSectionError) as err:
            read_native(path)
        assert str(err.value) == f"{path}: {expected}", name


@pytest.fixture
def reordered_60():
    """A reordered shuffled 60x60 tri_rect mesh, its coloring and plan."""
    mesh = shuffle_elements(gen_tri_rect(60, 60), seed=7)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    return (*apply_plan(mesh, coloring, plan), plan)


def test_read_native_memory_peak(tmp_path, reordered_60):
    # tracemalloc peak of one read, in MiB: the reader that parsed one
    # token per call peaked at 5.19 on this file and this one at 2.62
    # (CPython 3.11, numpy 2.4).  The bound is the old peak; a change
    # that spends memory for speed crosses it.
    new_mesh, new_coloring, _ = reordered_60
    path = tmp_path / "m.mesh"
    write_native(path, new_mesh, new_coloring)
    assert traced_peak(lambda: read_native(path)) <= 5.19
    # the same file tab-spaced, with a comment and a CRLF ending every
    # line: the line parser that read such files peaked at 3.09 on it,
    # and this reader, which normalizes it first, at 2.49
    edited = tmp_path / "e.mesh"
    edited.write_bytes(path.read_bytes().replace(b" ", b"\t")
                       .replace(b"\n", b"\t# note\r\n"))
    assert traced_peak(lambda: read_native(edited)) <= 3.09


def test_assemble_memory_peak(reordered_60):
    # in MiB: the bound is the peak while every slot-sized array lived
    # to the end of assemble; deleting each once used brought it to 0.99
    mesh = reordered_60[0]
    peak = traced_peak(
        lambda: assemble(mesh.vertices, mesh.elem_kind, mesh.elem_verts))
    assert peak <= 1.82


def test_write_native_memory_peak(tmp_path, reordered_60):
    # in MiB: the bound is the peak of the writer that formatted each
    # section with one ``%`` and then checked the permutations; the
    # digit-column writer peaked at 1.12 while it checked them first,
    # and at 0.80 once the mesh carried its own
    new_mesh, new_coloring, _ = reordered_60
    path = tmp_path / "m.mesh"
    peak = traced_peak(lambda: write_native(path, new_mesh, new_coloring))
    assert peak <= 1.30


def test_refined_parents_need_a_triangle_mesh(tmp_path):
    # only triangles refine, so a quad file has no doubled palette
    mesh = gen_quad_rect(2, 2)
    coloring, _ = color(mesh)
    colors = coloring.colors.copy()
    colors[0] = 7
    parents = np.full(mesh.n_elements, -1, dtype=np.int64)
    parents[1] = 0
    path = tmp_path / "q.mesh"
    write_native(path, mesh, SurfaceColoring(colors, 8), parents=parents)
    with pytest.raises(MalformedSectionError,
                       match="only triangle meshes refine"):
        read_native(path)


def test_palette_doubles_when_parents_present(tmp_path):
    mesh = gen_tri_rect(2, 2)
    colors = np.full(mesh.n_surfaces, 1, dtype=np.int32)
    colors[0] = 5  # a refined-half color
    parents = np.full(mesh.n_elements, -1, dtype=np.int64)
    parents[1] = 0
    path = tmp_path / "r.mesh"
    write_native(path, mesh, SurfaceColoring(colors, 6), parents=parents)
    assert read_native(path).coloring.n_colors == 6


def test_writes_are_byte_identical(tmp_path):
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    a, b = tmp_path / "a.mesh", tmp_path / "b.mesh"
    write_native(a, mesh, coloring)
    write_native(b, mesh, coloring)
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp*"))


def test_float_coordinates_survive(tmp_path):
    verts = [(0.1 + 0.2, 0.0), (1.0 / 3.0, 0.0), (0.5, np.pi)]
    mesh = assemble(verts, [0], [(0, 1, 2, -1)])
    path = tmp_path / "f.mesh"
    write_native(path, mesh)
    back = read_native(path).mesh
    assert (back.vertices == mesh.vertices).all()


def _jittered_tri(nx, ny):
    """A shuffled triangle patch whose coordinates print with up to 17
    digits, in exponent notation near 0."""
    mesh = shuffle_elements(gen_tri_rect(nx, ny), seed=3)
    rng = np.random.default_rng(5)
    vertices = mesh.vertices + rng.normal(scale=1e-3,
                                          size=mesh.vertices.shape)
    vertices[0] = (3e-7, -2e-5)
    return assemble(vertices, mesh.elem_kind, mesh.elem_verts)


@pytest.mark.parametrize("build", [
    lambda: shuffle_elements(gen_tri_rect(5, 4), 2),
    lambda: gen_quad_rect(4, 3),
    lambda: shuffle_elements(gen_tet_prism(2, 2, 2), 1),
    lambda: _jittered_tri(5, 4),
    lambda: hybrid_patch(3, 3),
], ids=["tri", "quad", "tet", "jittered", "mixed"])
def test_writing_with_source_gives_the_same_bytes(tmp_path, build):
    mesh = build()
    coloring, _ = color(mesh)
    path = tmp_path / "c.mesh"
    write_native(path, mesh, coloring)
    nm = read_native(path)
    assert nm.vertex_text is not None
    data = path.read_bytes()
    head = f"ELEMENTS {mesh.n_elements}\n".encode()
    start = data.index(head) + len(head)
    assert data[start:start + len(nm.element_text) + 7] == (
        nm.element_text + b"COLORS ")

    def written(name, *args, source=nm, **kwargs):
        """The bytes written with ``source``, checked against the bytes
        written without it."""
        got, want = tmp_path / f"{name}.src", tmp_path / f"{name}.fmt"
        write_native(got, *args, source=source, **kwargs)
        write_native(want, *args, **kwargs)
        assert got.read_bytes() == want.read_bytes(), name
        return got.read_bytes()

    assert written("same", nm.mesh, nm.coloring) == path.read_bytes()
    plan = build_plan(nm.mesh, nm.coloring)
    new_mesh, new_coloring = apply_plan(nm.mesh, nm.coloring, plan)
    written("reordered", new_mesh, new_coloring)
    # a file with PERMUTATIONS holds its rows in file order, so coloring
    # it again keeps every row
    re_nm = read_native(tmp_path / "reordered.src")
    assert np.array_equal(re_nm.mesh.elem_verts, new_mesh.elem_verts)
    recolored, _ = color(re_nm.mesh, 1)
    written("recolored", re_nm.mesh, recolored, source=re_nm)
    if mesh.element_kind_profile == {ElementKind.TRIANGLE}:
        refined, fine = refine(nm.mesh, nm.coloring, [0, 3])
        assert refined.mesh.n_vertices > mesh.n_vertices
        written("refined", refined.mesh, fine, parents=refined.parents)
        fine_nm = read_native(tmp_path / "refined.src")
        # fewer rows than the source: its leading rows are cut from it
        partial, coloring = coarsen(refined, fine, [0])
        written("partial", partial.mesh, coloring, parents=partial.parents,
                source=fine_nm)
        base, coloring = coarsen(refined, fine, [0, 3])
        assert written("base", base, coloring,
                       source=fine_nm) == path.read_bytes()


def test_source_rows_must_match_bit_for_bit(tmp_path):
    mesh = gen_tri_rect(2, 1)
    path = tmp_path / "a.mesh"
    write_native(path, mesh)
    nm = read_native(path)
    flipped = mesh.vertices.copy()
    flipped[0, 1] = -0.0  # equal to 0.0, but not the same bits
    moved = assemble(flipped, mesh.elem_kind, mesh.elem_verts)
    got, want = tmp_path / "b.mesh", tmp_path / "c.mesh"
    write_native(got, moved, source=nm)
    write_native(want, moved)
    assert got.read_bytes() == want.read_bytes()
    assert b"VERTICES 6\n0.0 -0.0\n" in got.read_bytes()

    # ELEMENTS is passed through whole or not at all: the source's ids
    # carry leading zeros, and a mesh whose last row differs from the
    # source's in its kind or in one vertex id has every row formatted
    write_native(path, gen_quad_rect(2, 1))
    path.write_text(path.read_text().replace("quad ", "quad 0"))
    nm = read_native(path)
    assert nm.element_text == b"quad 00 1 4 3\nquad 01 2 5 4\n"
    write_native(got, nm.mesh, source=nm)
    assert got.read_bytes() == path.read_bytes()
    kinds, verts = nm.mesh.elem_kind.copy(), nm.mesh.elem_verts.copy()
    kinds[-1] = KIND_TO_CODE[ElementKind.TRIANGLE]
    verts[-1, 3] = -1
    other_kind = assemble(nm.mesh.vertices, kinds, verts)
    verts = nm.mesh.elem_verts.copy()
    verts[-1, 3] = 3
    other_vertex = assemble(nm.mesh.vertices, nm.mesh.elem_kind, verts)
    for moved in (other_kind, other_vertex):
        write_native(got, moved, source=nm)
        write_native(want, moved)
        assert got.read_bytes() == want.read_bytes()
        assert b"quad 0 1 4 3\n" in got.read_bytes()


def test_hand_written_ids_pass_through_in_a_hybrid_file(tmp_path):
    # a file of two kinds keeps its ELEMENTS bytes as a file of one kind
    # does, so color writes an id such as 001 back as it was read
    path = tmp_path / "in.mesh"
    write_native(path, hybrid_patch(2, 2))
    text = path.read_text().replace("quad ", "quad 00")
    path.write_text(text)
    assert read_native(path).element_text is not None
    out = tmp_path / "c.mesh"
    assert main(["color", "-i", str(path), "-o", str(out)]) == 0
    got = out.read_text()
    assert "quad 00" in got
    assert got[got.index("ELEMENTS"):got.index("COLORS")] == (
        text[text.index("ELEMENTS"):])


@pytest.mark.parametrize("rows", [
    ["0.00 0.0", "0.50 00.0", "1.000 0.0", "0.0 0.50", "0.5 0.500",
     "001.0 0.50"],
    ["0e0 +0.0", "5e-1 0", "1E0 -0.0", ".0 .5", "0.5 5.0e-1", "1. 0.5"],
], ids=["fixed", "other"])
def test_hand_written_coordinates_pass_through(tmp_path, capsys, rows):
    # the commands keep the bytes a coordinate was read from: a token
    # such as 0.50 is not rewritten as 0.5
    path = tmp_path / "in.mesh"
    write_native(path, gen_tri_rect(2, 1))
    lines = path.read_text().split("\n")
    lines[2:8] = rows
    path.write_text("\n".join(lines))
    text = "".join(row + "\n" for row in rows).encode()
    want = read_native(path)
    assert want.vertex_text == text
    colored, fine, reordered, coarse, partial = (
        str(tmp_path / f"{name}.mesh") for name in ("c", "f", "r", "b", "p"))
    assert main(["color", "-i", str(path), "-o", colored]) == 0
    assert main(["reorder", "-i", colored, "-o", reordered]) == 0
    assert main(["refine", "-i", colored, "-o", fine, "--all"]) == 0
    assert main(["coarsen", "-i", fine, "-o", coarse,
                 "--parents", "0,1,2,3"]) == 0
    with open(colored, "rb") as a, open(coarse, "rb") as b:
        assert a.read() == b.read()
    # the base rows lead; the midpoints that stay differ from the fine ones
    assert main(["coarsen", "-i", fine, "-o", partial,
                 "--parents", "0,2"]) == 0
    for name in (colored, reordered, fine, partial):
        back = read_native(name)
        assert back.vertex_text.startswith(text)
        assert np.array_equal(back.mesh.vertices[:6].view(np.int64),
                              want.mesh.vertices.view(np.int64))
        assert main(["verify", "-i", name]) == 0
    # element ids with leading zeros: color keeps every element and so
    # the bytes, reorder renumbers the elements and formats them
    lines[9] = "tri 000 01 4"
    path.write_text("\n".join(lines))
    assert main(["color", "-i", str(path), "-o", colored]) == 0
    assert main(["reorder", "-i", colored, "-o", reordered]) == 0
    with open(colored, "rb") as a, open(reordered, "rb") as b:
        assert b"\ntri 000 01 4\n" in a.read()
        assert b" 000 " not in b.read()
    for name in (colored, reordered):
        assert main(["verify", "-i", name]) == 0
    capsys.readouterr()


def test_wrong_length_coloring_rejected(tmp_path):
    mesh = gen_tri_rect(2, 2)
    with pytest.raises(ValueError):
        write_native(tmp_path / "x.mesh", mesh,
                     SurfaceColoring(np.ones(3, dtype=np.int32), 3))


def _write(tmp_path, text):
    p = tmp_path / "in.mesh"
    p.write_text(text)
    return p


def test_bad_magic_and_version(tmp_path):
    with pytest.raises(UnsupportedVersionError):
        read_native(_write(tmp_path, "NOTAMESH 1\n"))
    with pytest.raises(UnsupportedVersionError):
        read_native(_write(tmp_path, "MESHCHROMA 9\n"))


def test_native_section_errors(tmp_path):
    # count mismatch
    bad = "MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n"
    with pytest.raises(MalformedSectionError):
        read_native(_write(tmp_path, bad))
    # colors before elements
    bad = "MESHCHROMA 1\nVERTICES 1\n0 0\nCOLORS 0\n"
    with pytest.raises(MalformedSectionError):
        read_native(_write(tmp_path, bad))
    # zero is not a color
    bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\nCOLORS 3\n1\n0\n2\n")
    with pytest.raises(MalformedSectionError):
        read_native(_write(tmp_path, bad))
    # COLORS count disagrees with the surface count
    bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\nCOLORS 2\n1\n2\n")
    with pytest.raises(MalformedSectionError, match="does not match"):
        read_native(_write(tmp_path, bad))
    # COLORS count disagrees with its own body
    bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\nCOLORS 2\n1\n2\n3\n")
    with pytest.raises(MalformedSectionError, match="more values"):
        read_native(_write(tmp_path, bad))
    # permutation is not a bijection: a repeated id, a negative id and
    # an id equal to n, in the surface map and in the element map
    for perms in ("0\n1\n1\n2", "0\n-1\n1\n2", "0\n3\n1\n2",
                  "-1\n0\n1\n2", "1\n0\n1\n2"):
        bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
               f"ELEMENTS 1\ntri 0 1 2\nPERMUTATIONS 1 3\n{perms}\n")
        with pytest.raises(MalformedSectionError, match="not a bijection"):
            read_native(_write(tmp_path, bad))
    # a color above the palette of 3 for triangles
    bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\nCOLORS 3\n1\n2\n9\n")
    with pytest.raises(MalformedSectionError, match="palette"):
        read_native(_write(tmp_path, bad))
    # a non-finite coordinate
    bad = ("MESHCHROMA 1\nVERTICES 3\nnan 0.0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\n")
    with pytest.raises(MalformedSectionError, match="non-finite"):
        read_native(_write(tmp_path, bad))
    # counts below 1
    bad = "MESHCHROMA 1\nVERTICES -5\nELEMENTS 1\ntri 0 1 2\n"
    with pytest.raises(MalformedSectionError, match="VERTICES"):
        read_native(_write(tmp_path, bad))
    bad = "MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\nELEMENTS 0\n"
    with pytest.raises(MalformedSectionError, match="ELEMENTS"):
        read_native(_write(tmp_path, bad))
    # a parent id below -1
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    parents = np.full(mesh.n_elements, -1)
    parents[5] = -7
    path = tmp_path / "parents.mesh"
    write_native(path, mesh, coloring, parents=parents)
    with pytest.raises(MalformedSectionError,
                       match="PARENTS value -7 for element 5"):
        read_native(path)


def test_native_comments_and_blank_lines(tmp_path):
    text = (
        "# a banner\nMESHCHROMA 1\n\n"
        "VERTICES 3  # three corners\n0 0\n1 0\n0 1\n"
        "ELEMENTS 1\ntri 0 1 2\n"
    )
    mesh = read_native(_write(tmp_path, text)).mesh
    assert mesh.n_elements == 1
    assert mesh.n_surfaces == 3


MSH_TRI = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Comment
anything at all
$EndComment
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
4
1 15 2 0 1 1
2 1 2 0 1 1 2
3 2 2 0 1 1 2 3
4 2 2 0 1 1 3 4
$EndElements
"""


def test_read_msh_triangles(tmp_path):
    p = tmp_path / "t.msh"
    p.write_text(MSH_TRI)
    mesh = read_msh(p)
    assert mesh.n_elements == 2  # points and lines are skipped
    assert mesh.n_surfaces == 5
    assert mesh.vertices.shape == (4, 2)  # z dropped for a 2D mesh


MSH_TET = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 0 1 1 2 3 4
$EndElements
"""


def test_read_msh_tet_keeps_z(tmp_path):
    p = tmp_path / "t.msh"
    p.write_text(MSH_TET)
    mesh = read_msh(p)
    assert mesh.n_elements == 1
    assert mesh.vertices.shape == (4, 3)


def test_read_msh_version_gate(tmp_path):
    p = tmp_path / "t.msh"
    p.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(UnsupportedVersionError):
        read_msh(p)


def test_read_msh_rejects_non_finite_coordinates(tmp_path):
    p = tmp_path / "t.msh"
    p.write_text(MSH_TRI.replace("3 1 1 0", "3 1 inf 0"))
    with pytest.raises(MalformedSectionError, match="non-finite"):
        read_msh(p)


def test_read_msh_unknown_node(tmp_path):
    p = tmp_path / "t.msh"
    p.write_text(MSH_TRI.replace("3 2 2 0 1 1 2 3", "3 2 2 0 1 1 2 99"))
    with pytest.raises(MalformedSectionError) as err:
        read_msh(p)
    assert "99" in str(err.value)


def test_read_msh_rejects_a_repeated_node_id(tmp_path, capsys):
    # node 2 listed again with other coordinates, which a later line
    # must not silently replace
    p = tmp_path / "t.msh"
    p.write_text(MSH_TRI.replace("4 0 1 0", "2 5 5 0")
                 .replace("4 2 2 0 1 1 3 4\n", "").replace("$Elements\n4",
                                                          "$Elements\n3"))
    with pytest.raises(MalformedSectionError, match="node 2 is listed twice"):
        read_msh(p)
    out = tmp_path / "c.mm"
    assert main(["color", "-i", str(p), "-o", str(out)]) == 4
    assert "node 2 is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["header", "comment"])
@pytest.mark.parametrize("name", ["t.mesh", "t.msh"])
def test_a_file_that_is_not_utf8_names_its_offset(tmp_path, capsys, name,
                                                  where):
    # one Latin-1 byte is an I/O fault, named by its offset in the file
    if name == "t.msh":
        text = MSH_TRI.encode()
        text = text.replace(b"$Nodes", b"$Nod\xe9s" if where == "header"
                            else b"# caf\xe9\n$Nodes")
    else:
        text = _tiny_text().encode()
        text = text.replace(b"ELEMENTS", b"EL\xe9MENTS" if where == "header"
                            else b"# caf\xe9\nELEMENTS")
    path = tmp_path / name
    path.write_bytes(text)
    reader = read_msh if name == "t.msh" else read_native
    with pytest.raises(MalformedSectionError) as err:
        reader(path)
    message = f"{path}: byte {text.index(0xe9)} is not UTF-8 text"
    assert str(err.value) == message
    assert main(["verify", "-i", str(path)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_late_bad_byte_is_named_before_an_earlier_fault(tmp_path):
    # a file is normalized whole before its sections are parsed, so a
    # Latin-1 byte past the first block is named ahead of a bad header
    text = (_tiny_text().replace("VERTICES 3", "VERTICES x").encode()
            + b"# padding\n" * (_BLOCK_CHARS // 10) + b"# caf\xe9\n")
    path = tmp_path / "t.mesh"
    path.write_bytes(text)
    with pytest.raises(MalformedSectionError) as err:
        read_native(path)
    assert str(err.value) == (
        f"{path}: byte {text.index(0xe9)} is not UTF-8 text")
    path.write_bytes(text.replace(b"\xe9", b"e"))
    with pytest.raises(MalformedSectionError,
                       match="bad section header 'VERTICES x'"):
        read_native(path)


def _tiny_text():
    return ("MESHCHROMA 1\nVERTICES 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
            "ELEMENTS 1\ntri 0 1 2\n")


def test_write_report_stdout_and_file(tmp_path, capsys):
    mesh = gen_tri_rect(2, 2)
    _, report = color(mesh)
    write_report(report)
    out = capsys.readouterr().out
    assert "n_colors 3" in out
    path = tmp_path / "report.txt"
    write_report({"alpha": 1, "beta": "two"}, path)
    assert path.read_text() == "alpha 1\nbeta two\n"
