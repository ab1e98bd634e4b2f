"""Mesh assembly, incidence, and the one way to build a Mesh."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshchroma
from meshchroma import (
    DanglingVertexError,
    ElementKind,
    Mesh,
    MixedKindsError,
    NonManifoldError,
    RepeatedVertexError,
    apply_plan,
    build_plan,
    color,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    refine,
    shuffle_elements,
    vizing_bound,
)
from meshchroma import mesh as mesh_module
from meshchroma.mesh import KIND_TO_CODE, _row_groups, assemble, relabel
from conftest import (_SIDES, assert_matches_assembly, brute_surface_count,
                      mesh_elements)

# the largest bound whose pairs of values always pack into one int64
_PAIR_LIMIT = math.isqrt(2**63 - 1)

_FIELDS = ("vertices", "elem_kind", "elem_verts", "elem_surfs", "surf_verts",
           "surf_elems")


def test_two_triangles_share_one_edge(two_tri):
    assert two_tri.n_elements == 2
    assert two_tri.n_surfaces == 5
    shared = np.flatnonzero(two_tri.surf_elems[:, 1] >= 0)
    assert len(shared) == 1
    assert sorted(two_tri.surf_elems[shared[0]].tolist()) == [0, 1]
    assert two_tri.surf_verts[shared[0]].tolist() == [0, 2]


def test_element_accessor(two_tri):
    # an element is one row of each element array
    assert two_tri.elem_kind[0] == KIND_TO_CODE[ElementKind.TRIANGLE]
    assert two_tri.elem_verts[0].tolist() == [0, 1, 2, -1]
    assert (two_tri.elem_surfs[0] >= 0).tolist() == [True] * 3 + [False]


def test_boundary_surface_has_no_right(single_quad):
    assert single_quad.n_surfaces == 4
    assert single_quad.surf_elems.tolist() == [[0, -1]] * 4


def test_surf_verts_rows_sorted(two_tri):
    sv = two_tri.surf_verts
    assert (np.sort(sv, axis=1) == sv).all()


def test_tet_has_triangle_faces(single_tet):
    assert single_tet.n_surfaces == 4
    assert single_tet.surf_verts.shape[1] == 3


def test_dangling_vertex_rejected():
    with pytest.raises(DanglingVertexError):
        assemble([(0.0, 0.0), (1.0, 0.0)], [0], [(0, 1, 7, -1)])


def test_repeated_vertex_rejected():
    with pytest.raises(ValueError):
        assemble([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [0], [(0, 1, 1, -1)])


def test_mixed_dimensionality_rejected():
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
             (0.0, 0.0, 1.0), (1.0, 1.0, 0.0)]
    with pytest.raises(ValueError):
        assemble(verts, [2, 0], [(0, 1, 2, 3), (0, 1, 4, -1)])


def test_three_elements_on_one_edge_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (2.0, 0.5)]
    with pytest.raises(NonManifoldError):
        assemble(verts, [0, 0, 0],
                 [(0, 1, 2, -1), (0, 1, 3, -1), (0, 1, 4, -1)])


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
        assert_matches_assembly(mesh)


def test_a_mesh_is_built_only_by_assemble_or_relabel(two_tri):
    arrays = {name: getattr(two_tri, name) for name in _FIELDS}
    for build in (lambda: Mesh(**arrays),
                  lambda: Mesh(**arrays, builder=object()),
                  lambda: dataclasses.replace(two_tri)):
        with pytest.raises(TypeError, match=re.escape("mesh.assemble(")):
            build()
    moved = relabel(two_tri, [1, 0], [4, 3, 2, 1, 0])
    assert_matches_assembly(moved)
    assert moved.surf_elems[2].tolist() == [1, 0]  # roles kept


def test_relabel_records_maps_of_its_own(two_tri):
    # the maps the result records are its own arrays: the caller's stay
    # writable, and writing to them reaches no mesh
    ep, sp = np.array([1, 0]), np.array([4, 3, 2, 1, 0])
    moved = relabel(two_tri, ep, sp)
    again = relabel(moved, ep, sp)
    kept = {name: getattr(moved, name).copy()
            for name in _FIELDS + ("element_perm", "surface_perm")}
    assert two_tri.element_perm is None and two_tri.surface_perm is None
    assert ep.flags.writeable and sp.flags.writeable
    ep[:], sp[:] = 0, 0
    for name, want in kept.items():
        assert np.array_equal(getattr(moved, name), want), name
    assert kept["element_perm"].tolist() == [1, 0]
    assert kept["surface_perm"].tolist() == [4, 3, 2, 1, 0]
    # relabeling twice composes the maps, here back to the identity,
    # which is recorded as no maps at all
    assert again.element_perm is None
    assert again.surface_perm is None
    for name in _FIELDS:
        assert np.array_equal(getattr(again, name), getattr(two_tri, name))
    with pytest.raises(ValueError, match="read-only"):
        moved.element_perm[0] = 0


def test_validate_reports_tampered_incidence(two_tri):
    # two rows of surf_elems swapped: a mesh its elements do not imply
    swapped = two_tri.surf_elems[[0, 1, 3, 2, 4]]
    assert not np.array_equal(swapped, two_tri.surf_elems)
    with pytest.raises(TypeError, match="assemble"):
        dataclasses.replace(two_tri, surf_elems=swapped)


def test_validate_reports_duplicate_surface(two_tri):
    with pytest.raises(ValueError, match="read-only"):
        two_tri.surf_verts[1] = two_tri.surf_verts[0]
    arrays = {name: getattr(two_tri, name).copy() for name in _FIELDS}
    arrays["surf_verts"][1] = arrays["surf_verts"][0]
    with pytest.raises(TypeError, match="assemble"):
        Mesh(**arrays)


# gen_tri_rect(2, 2): element 3 is (2, 5, 4); surface 1 is the interior
# edge (1, 4) of elements 0 and 2; element 2 lists surfaces (5, 6, 1).
# A fault in the elements fails assemble, which names the elements at
# fault, the first of them first in ``element_ids``.  A fault in the
# derived arrays needs a hand-built Mesh, and that is refused.
@pytest.mark.parametrize(
    "field, index, value, error, element_id, named", [
        ("elem_verts", (3, 1), 99, DanglingVertexError, 3, "elements [3]"),
        ("elem_verts", (3, 1), 2, RepeatedVertexError, 3, "elements [3]"),
        ("elem_verts", (3, 0), 1, NonManifoldError, 0,
         "surface (1, 4) shared by elements [0, 2, 3]"),
        ("elem_kind", 0, 2, MixedKindsError, 0, "3D ones are elements [0]"),
        ("elem_surfs", (2, 1), -1, TypeError, None, "assemble"),
        ("elem_surfs", (2, 1), 99, TypeError, None, "assemble"),
        ("elem_surfs", (2, 1), 2, TypeError, None, "assemble"),
        ("elem_surfs", (0, 0), 1, TypeError, None, "assemble"),
        ("surf_elems", (1, 1), -1, TypeError, None, "assemble"),
        ("surf_verts", 0, [0, 2], TypeError, None, "assemble"),
        ("surf_verts", 1, [0, 1], TypeError, None, "assemble"),
    ], ids=["dangling_vertex", "repeated_vertex", "non_manifold",
            "mixed_kinds", "side_count", "slot_out_of_range", "slots_disagree",
            "surface_unused",
            "dropped_right_element", "wrong_vertices", "duplicate_surface"])
def test_validate_names_planted_faults(field, index, value, error,
                                       element_id, named):
    mesh = gen_tri_rect(2, 2)
    arrays = {name: getattr(mesh, name).copy() for name in _FIELDS}
    arrays[field][index] = value
    with pytest.raises(error, match=re.escape(named)) as caught:
        if error is TypeError:
            Mesh(**arrays)
        else:
            assemble(arrays["vertices"], arrays["elem_kind"],
                     arrays["elem_verts"])
    if error is TypeError:
        with pytest.raises(TypeError, match=named):
            dataclasses.replace(mesh, **{field: arrays[field]})
    else:
        assert caught.value.element_ids[0] == element_id


def test_validate_reports_other_assembly_errors_as_malformed():
    mesh = gen_tet_prism(1, 1, 1)
    with pytest.raises(ValueError, match="3D vertex coordinates"):
        assemble(mesh.vertices[:, :2], mesh.elem_kind, mesh.elem_verts)


def test_connectivity_graph_two_tri(two_tri):
    # one node per element, one line per interior surface
    lines = two_tri.surf_elems[two_tri.surf_elems[:, 1] >= 0]
    assert lines.tolist() == [[0, 1]]
    assert vizing_bound(two_tri) == 2


def test_vizing_bound_interior_tri():
    mesh = gen_tri_rect(4, 4)
    lines = mesh.surf_elems[mesh.surf_elems[:, 1] >= 0]
    assert np.bincount(lines.ravel()).max() == 3
    assert vizing_bound(mesh) == 4
    lone = assemble([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [0], [(0, 1, 2, -1)])
    assert vizing_bound(lone) == 1  # no interior surface


def test_public_names_are_pinned():
    assert sorted(meshchroma.__all__) == sorted("""
        AccumulationState CoalescingReport ColoringReport
        DanglingVertexError Diagnostic ElementFaultError ElementKind
        FAMILIES GeneratorSpec LevelConstraintError MalformedSectionError
        MemoryEstimate Mesh MeshChromaError MixedKindsError NativeMesh
        NonManifoldError PartialFamilyError PlanMeshMismatchError
        RefinedMesh RefinementMap ReorderingPlan RepeatedVertexError
        RestartsExhaustedError SurfaceColoring
        UnrefinableKindError UnsupportedVersionError WriteConflictError
        apply_plan assert_race_free basis_count build_plan child_color
        coalescing_metric coarsen color color_set_size default_payload
        gen_quad_rect gen_tet_prism gen_tri_rect generate memory_saved
        read_msh read_native reconstruct_refinement refine
        shuffle_elements surface_buffer sweep_buffered
        sweep_colored sweep_sequential verify_coloring vizing_bound
        write_native write_report""".split())
    for name in meshchroma.__all__:
        assert hasattr(meshchroma, name), name


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


# Plain-Python references for the grouping that assemble does with packed
# int64 keys.

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
    """The stable grouping by a lexsort, so equal rows keep index order,
    and the positions where runs start."""
    order = np.lexsort(rows.T[::-1])
    new_run = np.zeros(len(rows), dtype=bool)
    new_run[:1] = True
    for c in range(rows.shape[1]):
        col = rows[order, c]
        new_run[1:] |= col[1:] != col[:-1]
    return order, np.flatnonzero(new_run)


def _groups(order, starts):
    return sorted(sorted(g.tolist()) for g in np.split(order, starts[1:]))


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
