"""Mesh assembly, incidence, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    DanglingVertexError,
    ElementKind,
    NonManifoldError,
    apply_plan,
    build_plan,
    build_surfaces,
    color,
    connectivity_graph,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    refine,
    shuffle_elements,
    validate,
    vizing_bound,
)
from conftest import brute_surface_count, mesh_elements


def test_two_triangles_share_one_edge(two_tri):
    assert two_tri.n_elements == 2
    assert two_tri.n_surfaces == 5
    shared = [k for k in range(5) if two_tri.surf_elems[k, 1] >= 0]
    assert len(shared) == 1
    s = two_tri.surface(shared[0])
    assert {s.left_element, s.right_element} == {0, 1}
    assert s.vertex_ids == (0, 2)


def test_element_accessor(two_tri):
    e = two_tri.element(0)
    assert e.kind is ElementKind.TRIANGLE
    assert e.vertex_ids == (0, 1, 2)
    assert len(e.surface_ids) == 3


def test_boundary_surface_has_no_right(single_quad):
    assert single_quad.n_surfaces == 4
    for k in range(4):
        s = single_quad.surface(k)
        assert s.left_element == 0
        assert s.right_element is None


def test_surf_verts_rows_sorted(two_tri):
    sv = two_tri.surf_verts
    assert (np.sort(sv, axis=1) == sv).all()


def test_tet_has_triangle_faces(single_tet):
    assert single_tet.n_surfaces == 4
    assert single_tet.surf_verts.shape[1] == 3


def test_dangling_vertex_rejected():
    with pytest.raises(DanglingVertexError):
        build_surfaces([(0.0, 0.0), (1.0, 0.0)], [("tri", (0, 1, 7))])


def test_repeated_vertex_rejected():
    with pytest.raises(ValueError):
        build_surfaces(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
            [("tri", (0, 1, 1))],
        )


def test_mixed_dimensionality_rejected():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
             (0.0, 0.0, 1.0), (1.0, 1.0, 0.0)]
    with pytest.raises(ValueError):
        build_surfaces(verts, [
            ("tet", (0, 1, 2, 3)),
            ("tri", (0, 1, 4)),
        ])


def test_three_elements_on_one_edge_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (2.0, 0.5)]
    with pytest.raises(NonManifoldError):
        build_surfaces(verts, [
            ("tri", (0, 1, 2)),
            ("tri", (0, 1, 3)),
            ("tri", (0, 1, 4)),
        ])


def _refined():
    mesh = gen_tri_rect(4, 4)
    return refine(mesh, color(mesh)[0], [0, 5, 9])[0].mesh


def _reordered():
    # shuffled ids make the plan swap left/right roles on some surfaces
    mesh = shuffle_elements(gen_tri_rect(5, 4), seed=3)
    coloring, _ = color(mesh)
    return apply_plan(mesh, coloring, build_plan(mesh, coloring))[0]


def test_validate_clean_on_generated_meshes():
    for mesh in (
        gen_tri_rect(3, 4),
        gen_tri_rect(4, 4, (True, True)),
        gen_quad_rect(3, 3),
        gen_tet_prism(2, 2, 2),
        _refined(),
        _reordered(),
    ):
        assert validate(mesh) == []


def _tampered(mesh, **swaps):
    from meshchroma import Mesh

    fields = {
        "vertices": mesh.vertices, "elem_kind": mesh.elem_kind,
        "elem_verts": mesh.elem_verts, "elem_surfs": mesh.elem_surfs,
        "surf_verts": mesh.surf_verts, "surf_elems": mesh.surf_elems,
    }
    for name, edit in swaps.items():
        arr = fields[name].copy()
        edit(arr)
        fields[name] = arr
    return Mesh(**fields)


def test_validate_reports_tampered_incidence(two_tri):
    def flip(a):
        a[0, 0] = 1 - a[0, 0]

    bad = _tampered(two_tri, surf_elems=flip)
    codes = {d.code for d in validate(bad)}
    assert "incidence" in codes


def test_validate_reports_duplicate_surface(two_tri):
    def dup(a):
        a[1] = a[0]

    bad = _tampered(two_tri, surf_verts=dup)
    codes = {d.code for d in validate(bad)}
    assert "duplicate_surface" in codes


# gen_tri_rect(2, 2): element 3 is (2, 5, 4); surface 1 is the interior
# edge (1, 4) of elements 0 and 2; element 2 lists surfaces (5, 6, 1).
# assemble's own errors name their elements in the message, and the
# diagnostic's element_id is the first of them.
@pytest.mark.parametrize(
    "field, index, value, code, element_id, surface_id, named", [
        ("elem_verts", (3, 1), 99, "dangling_vertex", 3, None,
         "elements [3]"),
        ("elem_verts", (3, 1), 2, "repeated_vertex", 3, None,
         "elements [3]"),
        ("elem_verts", (3, 0), 1, "non_manifold", 0, None,
         "surface (1, 4) shared by elements [0, 2, 3]"),
        ("elem_kind", 0, 2, "mixed_kinds", 0, None,
         "3D ones are elements [0]"),
        ("elem_surfs", (2, 1), -1, "side_count", 2, None, "element 2"),
        ("elem_surfs", (2, 1), 99, "incidence", 2, None, "surface 99"),
        ("elem_surfs", (2, 1), 2, "incidence", 2, None, "surface 6"),
        ("elem_surfs", (0, 0), 1, "incidence", None, 0,
         "surface 0 stands for 0"),
        ("surf_elems", (1, 1), -1, "incidence", None, 1, "surface 1"),
        ("surf_verts", 0, [0, 2], "incidence", None, 0, "surface 0"),
        ("surf_verts", 1, [0, 1], "duplicate_surface", None, 1,
         "surfaces 0 and 1"),
    ], ids=["dangling_vertex", "repeated_vertex", "non_manifold",
            "mixed_kinds", "side_count", "slot_out_of_range", "slots_disagree",
            "surface_unused",
            "dropped_right_element", "wrong_vertices", "duplicate_surface"])
def test_validate_names_planted_faults(field, index, value, code,
                                       element_id, surface_id, named):
    def plant(a):
        a[index] = value

    diags = validate(_tampered(gen_tri_rect(2, 2), **{field: plant}))
    assert any(d.code == code and d.element_id == element_id
               and d.surface_id == surface_id and named in d.message
               for d in diags), diags


def test_validate_reports_other_assembly_errors_as_malformed():
    from meshchroma import Mesh

    mesh = gen_tet_prism(1, 1, 1)
    flat = Mesh(mesh.vertices[:, :2].copy(), mesh.elem_kind, mesh.elem_verts,
                mesh.elem_surfs, mesh.surf_verts, mesh.surf_elems)
    diags = validate(flat)
    assert [d.code for d in diags] == ["malformed"]
    assert "3D vertex coordinates" in diags[0].message


def test_connectivity_graph_two_tri(two_tri):
    g = connectivity_graph(two_tri)
    assert g.n_nodes == 2
    assert g.lines.tolist() == [[0, 1]]
    assert g.degrees.tolist() == [1, 1]
    assert vizing_bound(g) == 2


def test_vizing_bound_interior_tri():
    mesh = gen_tri_rect(4, 4)
    g = connectivity_graph(mesh)
    assert g.degrees.max() == 3
    assert vizing_bound(g) == 4


@settings(deadline=None, max_examples=25)
@given(
    nx=st.integers(min_value=1, max_value=5),
    ny=st.integers(min_value=1, max_value=5),
    fam=st.sampled_from(["tri", "quad"]),
)
def test_surface_count_matches_brute_force(nx, ny, fam):
    gen = gen_tri_rect if fam == "tri" else gen_quad_rect
    mesh = gen(nx, ny)
    assert mesh.n_surfaces == brute_surface_count(mesh_elements(mesh))


@settings(deadline=None, max_examples=10)
@given(
    nx=st.integers(min_value=1, max_value=3),
    ny=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=1, max_value=3),
)
def test_tet_surface_count_matches_brute_force(nx, ny, nz):
    mesh = gen_tet_prism(nx, ny, nz)
    assert mesh.n_surfaces == brute_surface_count(mesh_elements(mesh))
