"""Generator counts against hand enumeration and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    FAMILIES,
    GeneratorSpec,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    generate,
    shuffle_elements,
)
from conftest import (assert_matches_assembly, brute_interior_count,
                      brute_surface_count, mesh_elements)

# counts frozen from hand enumeration before the generators were written
FROZEN = [
    (lambda: gen_tri_rect(1, 1), 2, 5),
    (lambda: gen_tri_rect(2, 2), 8, 16),
    (lambda: gen_tri_rect(4, 4, (True, True)), 32, 48),
    (lambda: gen_quad_rect(1, 1), 1, 4),
    (lambda: gen_quad_rect(2, 2), 4, 12),
    (lambda: gen_quad_rect(3, 3, (True, True)), 9, 18),
    (lambda: gen_tet_prism(1, 1, 1), 6, 18),
    (lambda: gen_tet_prism(2, 1, 1), 12, 34),
]


@pytest.mark.parametrize("build,ne,ns", FROZEN)
def test_frozen_counts(build, ne, ns):
    mesh = build()
    assert mesh.n_elements == ne
    assert mesh.n_surfaces == ns


def test_unit_tet_box_interior_faces():
    # 6 tets around the main diagonal: 18 faces, 12 on the boundary
    mesh = gen_tet_prism(1, 1, 1)
    assert brute_interior_count(mesh_elements(mesh)) == 6
    boundary = int((mesh.surf_elems[:, 1] < 0).sum())
    assert boundary == 12


def test_open_counts_follow_closed_forms():
    for nx, ny in ((1, 1), (3, 2), (5, 7)):
        tri = gen_tri_rect(nx, ny)
        assert tri.n_elements == 2 * nx * ny
        assert tri.n_surfaces == 3 * nx * ny + nx + ny
        quad = gen_quad_rect(nx, ny)
        assert quad.n_elements == nx * ny
        assert quad.n_surfaces == 2 * nx * ny + nx + ny


def test_tet_box_face_count_closed_form():
    for nx, ny, nz in ((1, 1, 1), (2, 3, 1), (2, 2, 2)):
        mesh = gen_tet_prism(nx, ny, nz)
        assert mesh.n_elements == 6 * nx * ny * nz
        expected = 12 * nx * ny * nz + 2 * (nx * ny + ny * nz + nx * nz)
        assert mesh.n_surfaces == expected


def test_fully_periodic_tri_is_closed():
    mesh = gen_tri_rect(4, 4, (True, True))
    assert (mesh.surf_elems[:, 1] >= 0).all()
    assert 2 * mesh.n_surfaces == 3 * mesh.n_elements


def test_single_periodic_axis_counts_match_brute_force():
    for periodic in ((True, False), (False, True)):
        mesh = gen_tri_rect(4, 3, periodic)
        assert mesh.n_surfaces == brute_surface_count(mesh_elements(mesh))
        mesh = gen_quad_rect(3, 4, periodic)
        assert mesh.n_surfaces == brute_surface_count(mesh_elements(mesh))


def test_axis_bounds():
    with pytest.raises(ValueError):
        gen_tri_rect(0, 1)
    with pytest.raises(ValueError):
        gen_quad_rect(3, -1)
    with pytest.raises(ValueError):
        gen_tet_prism(1, 0, 1)


def test_periodic_needs_three_cells():
    # two wrapped cells would put distinct interfaces on one vertex pair
    with pytest.raises(ValueError):
        gen_tri_rect(2, 4, (True, False))
    with pytest.raises(ValueError):
        gen_quad_rect(4, 2, (False, True))
    gen_quad_rect(3, 2, (True, False))  # 3 is enough on the wrapped axis


def test_spec_roundtrip_and_family_check():
    mesh = generate(GeneratorSpec(family="tri_rect", nx=2, ny=3))
    assert mesh.n_elements == 12
    closed = generate(GeneratorSpec(family="tri_closed", nx=4, ny=4))
    assert (closed.surf_elems[:, 1] >= 0).all()
    for family, gen in (("tri_rect", gen_tri_rect),
                        ("quad_rect", gen_quad_rect)):
        wrapped = generate(GeneratorSpec(family=family, nx=4, ny=3,
                                         periodic=True))
        want = gen(4, 3, (True, True))
        assert np.array_equal(wrapped.elem_verts, want.elem_verts)
        assert (wrapped.surf_elems[:, 1] >= 0).all()
    with pytest.raises(ValueError):
        GeneratorSpec(family="hexes", nx=1, ny=1)
    assert "tri_closed" in FAMILIES


def test_shuffle_elements_permutes_without_changing_the_mesh():
    mesh = gen_tri_rect(5, 4)
    shuf = shuffle_elements(mesh, seed=3)
    assert shuf.n_elements == mesh.n_elements
    assert shuf.n_surfaces == mesh.n_surfaces
    assert_matches_assembly(shuf)
    a = sorted(map(tuple, np.sort(mesh.elem_verts, axis=1).tolist()))
    b = sorted(map(tuple, np.sort(shuf.elem_verts, axis=1).tolist()))
    assert a == b
    assert (shuffle_elements(mesh, seed=3).elem_verts == shuf.elem_verts).all()
    assert not (shuffle_elements(mesh, seed=4).elem_verts == shuf.elem_verts).all()


@settings(deadline=None, max_examples=20)
@given(
    nx=st.integers(min_value=3, max_value=6),
    ny=st.integers(min_value=3, max_value=6),
    px=st.booleans(),
    py=st.booleans(),
)
def test_generated_meshes_validate_clean(nx, ny, px, py):
    for gen in (gen_tri_rect, gen_quad_rect):
        mesh = gen(nx, ny, (px, py))
        assert_matches_assembly(mesh)
        assert mesh.n_surfaces == brute_surface_count(mesh_elements(mesh))
