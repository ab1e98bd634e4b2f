"""Renumbering plans: the color-1 block, group ordering, coalescing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    Diagnostic,
    PlanMeshMismatchError,
    SurfaceColoring,
    apply_plan,
    build_plan,
    coalescing_metric,
    color,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    refine,
    shuffle_elements,
    verify_coloring,
)
from meshchroma.mesh import inverse_permutation
from conftest import assert_matches_assembly, hybrid_patch, naive_greedy


def _is_permutation(perm, n):
    return len(perm) == n and sorted(perm.tolist()) == list(range(n))


def _refined_8x8():
    # the refined file of the console-script pipeline
    mesh = gen_tri_rect(8, 8)
    coloring, _ = color(mesh, 0)
    refined, fine = refine(mesh, coloring, [0, 5, 9, 40])
    return refined.mesh, fine


def test_plan_perms_are_bijections():
    mesh = gen_tri_rect(5, 4)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    assert _is_permutation(plan.element_perm, mesh.n_elements)
    assert _is_permutation(plan.surface_perm, mesh.n_surfaces)


def test_group_bounds_match_color_counts():
    mesh = gen_tri_rect(5, 5)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    counts = coloring.color_counts()
    for c in (1, 2, 3):
        lo, hi = plan.group_range(c)
        assert hi - lo == counts[c - 1]
    assert plan.group_bounds[0] == 0
    assert plan.group_bounds[-1] == mesh.n_surfaces


def test_closed_mesh_color_one_block():
    mesh = gen_tri_rect(4, 4, (True, True))
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    assert not plan.used_fallback
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    lo, hi = plan.group_range(1)
    assert lo == 0
    for k in range(lo, hi):
        assert re_mesh.surf_elems[k, 0] == k
        assert re_mesh.surf_elems[k, 1] == hi + k
    assert (re_col.colors[lo:hi] == 1).all()


def test_interior_edges_lead_the_color_one_block():
    # open meshes: color 1 has boundary edges too; the refined one has
    # elements no color-1 edge touches, which follow the block
    open_mesh = gen_tri_rect(5, 4)
    for mesh, coloring in ((open_mesh, color(open_mesh)[0]),
                           _refined_8x8()):
        plan = build_plan(mesh, coloring)
        re_mesh, _ = apply_plan(mesh, coloring, plan)
        lo, hi = plan.group_range(1)
        interior = re_mesh.surf_elems[lo:hi, 1] >= 0
        assert plan.n_interior_first == int(interior.sum())
        assert interior[: plan.n_interior_first].all()
        assert not interior[plan.n_interior_first:].any()
        for k in range(hi):
            assert re_mesh.surf_elems[k, 0] == k
        for k in range(plan.n_interior_first):
            assert re_mesh.surf_elems[k, 1] == hi + k


def test_later_groups_have_ascending_lefts():
    mesh = gen_tri_rect(6, 5)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    for c in range(2, re_col.n_colors + 1):
        lo, hi = plan.group_range(c)
        lefts = re_mesh.surf_elems[lo:hi, 0]
        assert (np.diff(lefts) > 0).all()


def test_apply_plan_preserves_structure_and_coloring():
    mesh = gen_quad_rect(4, 4)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    assert_matches_assembly(re_mesh)
    assert verify_coloring(re_mesh, re_col) == []
    assert re_mesh.n_surfaces == mesh.n_surfaces
    # colors travel with their surfaces
    assert (re_col.colors[plan.surface_perm] == coloring.colors).all()
    # groups are contiguous and ordered 1..n
    assert (np.diff(re_col.colors) >= 0).all()


def test_invert_plan_round_trips():
    mesh = gen_tri_rect(4, 5)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    inverse = replace(plan,
                      element_perm=inverse_permutation(plan.element_perm),
                      surface_perm=inverse_permutation(plan.surface_perm))
    back_mesh, back_col = apply_plan(re_mesh, re_col, inverse)
    assert (back_mesh.elem_verts == mesh.elem_verts).all()
    assert (back_mesh.surf_verts == mesh.surf_verts).all()
    assert (back_col.colors == coloring.colors).all()


def test_missing_color_one_edge_falls_back():
    mesh = shuffle_elements(gen_tri_rect(8, 8), 0)
    baseline = naive_greedy(mesh)
    assert baseline.n_colors == 5  # some element has no color-1 edge
    plan = build_plan(mesh, baseline)
    assert plan.used_fallback
    assert _is_permutation(plan.surface_perm, mesh.n_surfaces)
    re_mesh, re_col = apply_plan(mesh, baseline, plan)
    assert verify_coloring(re_mesh, re_col) == []
    assert (np.diff(re_col.colors) >= 0).all()


def _block_and_tail_loop(mesh, coloring):
    # the element numbering as a plain loop: the left ends of the
    # color-1 surfaces, interior ones first, then the right ends of the
    # interior ones, then every element left over in id order
    ones = np.flatnonzero(coloring.colors == 1).tolist()
    interior = [s for s in ones if mesh.surf_elems[s, 1] >= 0]
    boundary = [s for s in ones if mesh.surf_elems[s, 1] < 0]
    order = ([mesh.surf_elems[s, 0] for s in interior + boundary]
             + [mesh.surf_elems[s, 1] for s in interior])
    order += [e for e in range(mesh.n_elements) if e not in order]
    perm = np.full(mesh.n_elements, -1, dtype=np.int64)
    for new, e in enumerate(order):
        perm[e] = new
    return perm


def test_fallback_plan_matches_the_block_and_tail_loop():
    mesh = shuffle_elements(gen_tri_rect(8, 8), 0)
    coarse, _ = color(mesh)
    refined, fine = refine(mesh, coarse, range(0, mesh.n_elements, 3))
    for m, coloring in ((mesh, naive_greedy(mesh)), (refined.mesh, fine)):
        plan = build_plan(m, coloring)
        assert plan.used_fallback
        assert np.array_equal(plan.element_perm,
                              _block_and_tail_loop(m, coloring))


def test_plan_mesh_mismatch():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    other = gen_tri_rect(5, 5)
    other_col, _ = color(other)
    with pytest.raises(PlanMeshMismatchError):
        apply_plan(other, other_col, plan)
    # a negative id, an id equal to n and a repeated id
    for field in ("element_perm", "surface_perm"):
        perm = getattr(plan, field)
        for bad_id in (-1, len(perm), perm[1]):
            bad_perm = perm.copy()
            bad_perm[0] = bad_id
            bad = replace(plan, **{field: bad_perm})
            with pytest.raises(PlanMeshMismatchError, match="bijection"):
                apply_plan(mesh, coloring, bad)


def test_build_plan_requires_complete_coloring():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    holes = coloring.copy()
    holes.colors[0] = -1
    with pytest.raises(ValueError):
        build_plan(mesh, holes)


def test_reordering_raises_the_coalescing_metric():
    closed = gen_tri_rect(6, 6, (True, True))
    hybrid = hybrid_patch(4, 4)
    shuffled = shuffle_elements(gen_tri_rect(8, 8), 0)
    cases = [(closed, color(closed)[0]), _refined_8x8(),
             (hybrid, color(hybrid)[0]), (shuffled, naive_greedy(shuffled))]
    for mesh, coloring in cases:
        before = coalescing_metric(mesh, coloring).aggregate
        plan = build_plan(mesh, coloring)
        re_mesh, re_col = apply_plan(mesh, coloring, plan)
        after = coalescing_metric(re_mesh, re_col)
        assert after.aggregate > before
        # the color-1 block's left ends are consecutive
        c1 = dict((c, (l, r)) for c, l, r in after.per_color)
        assert c1[1][0] == 1.0
        if mesh is closed:
            # and so are its right ends, with no boundary edge between
            assert c1[1] == (1.0, 1.0)


@settings(deadline=None, max_examples=15)
@given(
    nx=st.integers(min_value=3, max_value=6),
    ny=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_plans_are_always_bijective(nx, ny, seed):
    mesh = gen_tri_rect(nx, ny)
    coloring, _ = color(mesh, seed)
    plan = build_plan(mesh, coloring)
    assert _is_permutation(plan.element_perm, mesh.n_elements)
    assert _is_permutation(plan.surface_perm, mesh.n_surfaces)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    assert verify_coloring(re_mesh, re_col) == []


def test_build_plan_rejects_colors_above_the_palette():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    colors = coloring.colors.copy()
    colors[colors == 3] = 4
    bad = SurfaceColoring(colors, 3)
    diags = verify_coloring(mesh, bad)
    assert [d.surface_id for d in diags] == np.flatnonzero(colors == 4).tolist()
    assert {d.code for d in diags} == {"palette"}
    assert diags[0].message == (
        f"surface {diags[0].surface_id} has color 4, above the palette of 3")
    with pytest.raises(ValueError, match="above the palette of 3"):
        build_plan(mesh, bad)
    # a per-color count or metric would leave those surfaces out
    assert bad.is_complete
    first = (f"surface {diags[0].surface_id} has color 4, above the "
             f"palette of 3$")
    with pytest.raises(ValueError, match=first):
        bad.color_counts()
    with pytest.raises(ValueError, match=first):
        coalescing_metric(mesh, bad)


def _sorting_build_plan(mesh, coloring):
    # the sort-based build_plan, kept as the reference: an argsort of
    # block positions and element ids for the fallback numbering, a
    # stable argsort per class
    colors = coloring.colors
    n_colors = coloring.n_colors
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]

    ones = np.nonzero(colors == 1)[0]
    covered = np.zeros(mesh.n_elements, dtype=bool)
    covered[left[ones]] = True
    interior_ones = ones[right[ones] >= 0]
    covered[right[interior_ones]] = True
    fallback = not covered.all()

    element_perm = np.full(mesh.n_elements, -1, dtype=np.int64)
    if fallback:
        # each element's block position, or its id past the block; the
        # ranks of those keys number it
        key = mesh.n_elements + np.arange(mesh.n_elements)
        order1 = np.concatenate([interior_ones, ones[right[ones] < 0]])
        key[left[order1]] = np.arange(len(order1))
        key[right[interior_ones]] = len(order1) + np.arange(
            len(interior_ones))
        element_perm[np.argsort(key)] = np.arange(mesh.n_elements)
    else:
        boundary_ones = ones[right[ones] < 0]
        order1 = np.concatenate([interior_ones, boundary_ones])
        element_perm[left[order1]] = np.arange(len(order1))
        element_perm[right[interior_ones]] = (
            len(order1) + np.arange(len(interior_ones))
        )

    group_sizes = [0] * (n_colors + 1)
    surface_perm = np.empty(mesh.n_surfaces, dtype=np.int64)
    nxt = 0
    for c in range(1, n_colors + 1):
        sids = np.nonzero(colors == c)[0]
        group_sizes[c] = len(sids)
        if c == 1 and not fallback:
            sids = np.concatenate([interior_ones, boundary_ones])
        else:
            sids = sids[np.argsort(element_perm[left[sids]],
                                   kind="stable")]
        surface_perm[sids] = nxt + np.arange(len(sids))
        nxt += len(sids)
    return (element_perm, surface_perm,
            tuple(np.cumsum(group_sizes).tolist()), len(interior_ones),
            fallback)


def _row_sort_verify_coloring(mesh, coloring):
    # the row-sort verify_coloring, kept as the reference
    colors = np.asarray(coloring.colors)
    diags = []
    gathered = np.full((mesh.n_elements, mesh.elem_surfs.shape[1]), -2,
                       dtype=np.int64)
    has = mesh.elem_surfs >= 0
    gathered[has] = colors[mesh.elem_surfs[has]]
    filled = np.where(gathered >= 1, gathered, -2)
    srt = np.sort(filled, axis=1)
    dup_rows = np.flatnonzero(
        ((srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 1)).any(axis=1)
    )
    for e in dup_rows:
        row = gathered[e]
        vals, counts = np.unique(row[row >= 1], return_counts=True)
        repeated = [int(v) for v in vals[counts > 1]]
        sids = [int(s) for s in mesh.elem_surfs[e]
                if s >= 0 and int(colors[s]) in repeated]
        diags.append(Diagnostic(
            "conflict",
            f"element {e} repeats color(s) {repeated} on surfaces {sids}",
            element_id=int(e),
        ))
    for k in np.flatnonzero(colors < 1):
        diags.append(Diagnostic(
            "uncolored", f"surface {k} has no color", surface_id=int(k),
        ))
    for k in np.flatnonzero(colors > coloring.n_colors):
        diags.append(Diagnostic(
            "palette", f"surface {k} has color {colors[k]}, above the "
            f"palette of {coloring.n_colors}", surface_id=int(k),
        ))
    return diags


@st.composite
def _meshes_and_colorings(draw, faults=True):
    family = draw(st.sampled_from(["tri", "quad", "tet"]))
    if family == "tet":
        mesh = gen_tet_prism(*draw(st.tuples(*[st.integers(1, 3)] * 3)))
    else:
        periodic = draw(st.tuples(st.booleans(), st.booleans()))
        # quad grids closed on an odd cell count have no 4-coloring
        sizes = {(False, "tri"): st.integers(1, 7),
                 (True, "tri"): st.integers(3, 7),
                 (False, "quad"): st.integers(1, 7),
                 (True, "quad"): st.sampled_from([4, 6])}
        nx, ny = (draw(sizes[p, family]) for p in periodic)
        make = gen_tri_rect if family == "tri" else gen_quad_rect
        mesh = make(nx, ny, periodic)
    if draw(st.booleans()):
        mesh = shuffle_elements(mesh, draw(st.integers(0, 9)))
    kind = draw(st.sampled_from(
        ["minimal", "naive"] + (["refined"] if family == "tri" else [])))
    if kind == "naive":
        coloring = naive_greedy(mesh)
    else:
        coloring, _ = color(mesh, draw(st.integers(0, 9)))
    if kind == "refined":
        ids = draw(st.sets(st.integers(0, mesh.n_elements - 1),
                           min_size=1))
        refined, coloring = refine(mesh, coloring, sorted(ids))
        mesh = refined.mesh
    if not faults:
        return mesh, coloring
    # planted faults: a conflict, an uncolored surface or a color above
    # the palette, depending on the value drawn
    colors = coloring.colors.copy()
    for s, c in draw(st.lists(st.tuples(
            st.integers(0, mesh.n_surfaces - 1),
            st.integers(-1, coloring.n_colors + 2)), max_size=3)):
        colors[s] = c
    return mesh, SurfaceColoring(colors, coloring.n_colors)


@settings(deadline=None, max_examples=60)
@given(_meshes_and_colorings())
def test_plans_and_diagnostics_match_the_sorting_references(case):
    mesh, coloring = case
    diags = verify_coloring(mesh, coloring)
    assert diags == _row_sort_verify_coloring(mesh, coloring)
    if diags:
        with pytest.raises(ValueError):
            build_plan(mesh, coloring)
        return
    plan = build_plan(mesh, coloring)
    fields = (plan.element_perm, plan.surface_perm, plan.group_bounds,
              plan.n_interior_first, plan.used_fallback)
    for got, want in zip(fields, _sorting_build_plan(mesh, coloring)):
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)


@settings(deadline=None, max_examples=60)
@given(_meshes_and_colorings(faults=False))
def test_planning_a_reordered_mesh_gives_the_identity_plan(case):
    mesh, coloring = case
    plan = build_plan(mesh, coloring)
    again = build_plan(*apply_plan(mesh, coloring, plan))
    assert np.array_equal(again.element_perm, np.arange(mesh.n_elements))
    assert np.array_equal(again.surface_perm, np.arange(mesh.n_surfaces))
    assert again.group_bounds == plan.group_bounds
    assert again.n_interior_first == plan.n_interior_first
    assert again.used_fallback == plan.used_fallback
