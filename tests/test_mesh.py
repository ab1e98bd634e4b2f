"""Mesh assembly, incidence, and validation."""

import math
from unittest import mock

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
from meshchroma import mesh as mesh_module
from meshchroma.mesh import _PAIR_LIMIT, _row_groups, assemble
from conftest import _SIDES, brute_surface_count, mesh_elements


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


# Plain-Python references for the grouping that assemble and validate do
# with packed int64 keys.

def _reference_assembly(vertices, elem_kind, elem_verts):
    """All six Mesh arrays, numbering surfaces by first encounter over
    the elements in id order and each element's sides in local order."""
    ids = {}
    rows, pairs, slots = [], [], []
    for e, (kind, vids) in enumerate(zip(elem_kind.tolist(),
                                         elem_verts.tolist())):
        listed = []
        for side in _SIDES[("tri", "quad", "tet")[kind]]:
            key = tuple(sorted(vids[p] for p in side))
            if key not in ids:
                ids[key] = len(rows)
                rows.append(key)
                pairs.append([e, -1])
            else:
                pairs[ids[key]][1] = e
            listed.append(ids[key])
        slots.append(listed + [-1] * (4 - len(listed)))
    return (np.asarray(vertices, dtype=np.float64),
            np.asarray(elem_kind, dtype=np.int8),
            np.asarray(elem_verts, dtype=np.int64),
            np.array(slots, dtype=np.int64),
            np.array(rows, dtype=np.int64),
            np.array(pairs, dtype=np.int64))


def _mixed_tri_quad(nx, ny):
    """A quad grid with every third quad split into two triangles."""
    quads = gen_quad_rect(nx, ny)
    kinds, verts = quads.elem_kind.copy(), quads.elem_verts.copy()
    extra = []
    for e in range(0, quads.n_elements, 3):
        a, b, c, d = verts[e].tolist()
        kinds[e] = 0
        verts[e] = [a, b, c, -1]
        extra.append([a, c, d, -1])
    return (quads.vertices,
            np.concatenate([kinds, np.zeros(len(extra), dtype=np.int8)]),
            np.concatenate([verts, np.array(extra, dtype=np.int64)]))


_GROUPED_MESHES = {
    "tri": lambda n: gen_tri_rect(n, n + 2),
    "quad": lambda n: gen_quad_rect(n + 1, n),
    "tet": lambda n: gen_tet_prism(n, 2, n),
    "tri_periodic": lambda n: gen_tri_rect(n + 2, n + 3, (True, True)),
    "quad_periodic": lambda n: gen_quad_rect(n + 2, 3, (True, False)),
}


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from(sorted(_GROUPED_MESHES) + ["mixed"]),
       n=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_assemble_matches_the_first_encounter_reference(family, n, seed):
    if family == "mixed":
        vertices, kinds, verts = _mixed_tri_quad(n + 1, n + 2)
    else:
        mesh = _GROUPED_MESHES[family](n)
        vertices, kinds, verts = mesh.vertices, mesh.elem_kind, mesh.elem_verts
    order = np.random.default_rng(seed).permutation(len(kinds))
    kinds, verts = kinds[order], verts[order]
    got = assemble(vertices, kinds, verts)
    fields = ("vertices", "elem_kind", "elem_verts", "elem_surfs",
              "surf_verts", "surf_elems")
    for name, want in zip(fields, _reference_assembly(vertices, kinds, verts)):
        have = getattr(got, name)
        assert have.dtype == want.dtype, name
        assert np.array_equal(have, want), name


def _lexsort_row_groups(rows):
    """The stable grouping validate used before packed keys: a lexsort,
    so equal rows keep index order, and the positions where runs start."""
    order = np.lexsort(rows.T[::-1])
    new_run = np.zeros(len(rows), dtype=bool)
    new_run[:1] = True
    for c in range(rows.shape[1]):
        col = rows[order, c]
        new_run[1:] |= col[1:] != col[:-1]
    return order, np.flatnonzero(new_run)


def _lexsort_duplicates(rows):
    """(first, later) index pairs of repeated rows, by later index."""
    order, starts = _lexsort_row_groups(rows)
    first = np.empty(len(rows), dtype=np.int64)
    first[order] = np.repeat(order[starts], np.diff(starts, append=len(rows)))
    return [(int(first[s]), int(s))
            for s in np.flatnonzero(first != np.arange(len(rows)))]


def _groups(order, starts):
    return sorted(sorted(g.tolist()) for g in np.split(order, starts[1:]))


@settings(deadline=None, max_examples=40)
@given(edits=st.lists(
    st.tuples(st.integers(min_value=0, max_value=55),
              st.sampled_from([-5, -1, 16, 10**12, -2**62, 2**62 + 7]),
              st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=55)),
    min_size=1, max_size=8))
def test_validate_duplicates_match_the_lexsort_reference(edits):
    mesh = gen_tri_rect(4, 4)  # 56 surfaces over 25 vertices
    rows = mesh.surf_verts.copy()
    for s, value, col, copy_to in edits:
        rows[s, col] = value
        rows[copy_to] = rows[s]
    bad = _tampered(mesh, surf_verts=lambda a: a.__setitem__(..., rows))
    found = [(d.surface_id, d.message) for d in validate(bad)
             if d.code == "duplicate_surface"]
    want = [(s, f"surfaces {f} and {s} share vertex set {rows[s].tolist()}")
            for f, s in _lexsort_duplicates(rows)]
    assert found == want


def test_validate_names_three_equal_rows_with_out_of_range_ids():
    mesh = gen_tri_rect(3, 3)
    rows = mesh.surf_verts.copy()
    rows[[9, 2, 20]] = [10**12, -5]
    rows[[4, 11]] = [-5, 10**12]
    bad = _tampered(mesh, surf_verts=lambda a: a.__setitem__(..., rows))
    found = [d.message for d in validate(bad) if d.code == "duplicate_surface"]
    assert found == [
        f"surfaces {f} and {s} share vertex set {rows[s].tolist()}"
        for f, s in _lexsort_duplicates(rows)]
    assert found == [
        "surfaces 2 and 9 share vertex set [1000000000000, -5]",
        "surfaces 4 and 11 share vertex set [-5, 1000000000000]",
        "surfaces 2 and 20 share vertex set [1000000000000, -5]",
    ]


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("n_values", [2**40 + 1, _PAIR_LIMIT, 7])
def test_row_groups_match_lexsort_at_large_values(width, n_values):
    rng = np.random.default_rng(width * 1000 + n_values % 997)
    pool = np.unique(np.r_[0, n_values - 1,
                           rng.integers(0, n_values, 12)])
    rows = rng.choice(pool, size=(400, width))
    rows[200:] = rows[rng.integers(0, 200, 200)]  # plenty of repeats
    if n_values > 2**40:
        # v0 * n_values + v1 wraps to 2**25 for both rows in int64
        rows[:2, :2] = [[2**24, 2**24], [0, 2**25]]
    order, starts = _row_groups(rows, n_values)
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert _groups(order, starts) == _groups(*_lexsort_row_groups(rows))


def _unranked_limit(width, n_rows):
    """The largest ``n_values`` whose rows of ``width`` values, packed
    above a row index, still fit in int64 without ranking."""
    shift = max(n_rows - 1, 0).bit_length()
    m = math.isqrt(2**63 >> shift) if width == 2 else round(
        (2**63 >> shift) ** (1 / 3))
    while m**width << shift > 2**63:
        m -= 1
    while (m + 1)**width << shift <= 2**63:
        m += 1
    return m


@settings(deadline=None, max_examples=80)
@given(width=st.sampled_from([2, 3]),
       n_rows=st.integers(min_value=1, max_value=300),
       n_values=st.sampled_from([7, 2**31, _PAIR_LIMIT, 2**40 + 1, 2**62,
                                 "limit", "limit + 1"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_row_groups_give_the_stable_lexsort_order(width, n_rows, n_values,
                                                  seed):
    limit = _unranked_limit(width, n_rows)
    n_values = {"limit": limit, "limit + 1": limit + 1}.get(n_values,
                                                            n_values)
    rng = np.random.default_rng(seed)
    pool = np.unique(np.r_[0, n_values - 1, rng.integers(0, n_values, 4)])
    rows = rng.choice(pool, size=(n_rows, width))
    repeats = rng.random(n_rows) < 0.5  # plenty of equal rows
    rows[repeats] = rows[rng.integers(0, n_rows, repeats.sum())]
    with mock.patch("meshchroma.mesh._dense_rank",
                    wraps=mesh_module._dense_rank) as ranked:
        order, starts = _row_groups(rows, n_values)
    want_order, want_starts = _lexsort_row_groups(rows)
    assert order.tolist() == want_order.tolist()
    assert starts.tolist() == want_starts.tolist()
    if n_values <= limit:
        assert not ranked.called
    else:
        assert ranked.called
