"""Native format round trips and the MSH 2.2 reader."""

import numpy as np
import pytest

from meshchroma import (
    MalformedSectionError,
    SurfaceColoring,
    UnsupportedVersionError,
    apply_plan,
    build_plan,
    color,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    read_msh,
    read_native,
    shuffle_elements,
    verify_coloring,
    write_native,
    write_report,
)


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
    parents = np.full(mesh.n_elements, -1, dtype=np.int64)
    parents[0] = 2
    eperm = np.arange(mesh.n_elements)[::-1].copy()
    sperm = np.roll(np.arange(mesh.n_surfaces), 3)
    path = tmp_path / "p.mesh"
    write_native(path, mesh, parents=parents,
                 element_perm=eperm, surface_perm=sperm)
    back = read_native(path)
    assert (back.parents == parents).all()
    assert (back.element_perm == eperm).all()
    assert (back.surface_perm == sperm).all()


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
    write_native(path, new_mesh, new_coloring,
                 element_perm=plan.element_perm,
                 surface_perm=plan.surface_perm)
    back = read_native(path)
    for name in ("elem_kind", "elem_verts", "elem_surfs",
                 "surf_verts", "surf_elems"):
        assert np.array_equal(getattr(back.mesh, name),
                              getattr(new_mesh, name)), name
    assert np.array_equal(back.coloring.colors, new_coloring.colors)
    assert back.coloring.n_colors == new_coloring.n_colors
    assert verify_coloring(back.mesh, back.coloring) == []


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
    from meshchroma import build_surfaces

    verts = [(0.1 + 0.2, 0.0), (1.0 / 3.0, 0.0), (0.5, np.pi)]
    mesh = build_surfaces(verts, [("tri", (0, 1, 2))])
    path = tmp_path / "f.mesh"
    write_native(path, mesh)
    back = read_native(path).mesh
    assert (back.vertices == mesh.vertices).all()


def test_perms_must_come_together(tmp_path):
    mesh = gen_tri_rect(2, 2)
    with pytest.raises(ValueError):
        write_native(tmp_path / "x.mesh", mesh,
                     element_perm=np.arange(mesh.n_elements))


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
    # permutation is not a bijection
    bad = ("MESHCHROMA 1\nVERTICES 3\n0 0\n1 0\n0 1\n"
           "ELEMENTS 1\ntri 0 1 2\nPERMUTATIONS 1 3\n0\n1\n1\n2\n")
    with pytest.raises(MalformedSectionError):
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


def test_write_report_stdout_and_file(tmp_path, capsys):
    mesh = gen_tri_rect(2, 2)
    _, report = color(mesh)
    write_report(report)
    out = capsys.readouterr().out
    assert "n_colors 3" in out
    path = tmp_path / "report.txt"
    write_report({"alpha": 1, "beta": "two"}, path)
    assert path.read_text() == "alpha 1\nbeta two\n"
