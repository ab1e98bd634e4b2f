"""Renumbering plans: the color-1 block, group ordering, coalescing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    ColoringConfig,
    PlanMeshMismatchError,
    apply_plan,
    build_plan,
    coalescing_metric,
    color,
    gen_quad_rect,
    gen_tri_rect,
    invert_plan,
    naive_greedy,
    refine,
    shuffle_elements,
    verify_coloring,
)


def _is_permutation(perm, n):
    return len(perm) == n and sorted(perm.tolist()) == list(range(n))


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
    mesh = gen_tri_rect(5, 4)  # open: color 1 has boundary edges too
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    if plan.used_fallback:
        pytest.skip("fallback plan; block contract does not apply")
    re_mesh, _ = apply_plan(mesh, coloring, plan)
    lo, hi = plan.group_range(1)
    interior = re_mesh.surf_elems[lo:hi, 1] >= 0
    assert plan.n_interior_first == int(interior.sum())
    assert interior[: plan.n_interior_first].all()
    assert not interior[plan.n_interior_first:].any()
    for k in range(hi):
        assert re_mesh.surf_elems[k, 0] == k


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
    from meshchroma import validate

    assert validate(re_mesh) == []
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
    back_mesh, back_col = apply_plan(re_mesh, re_col, invert_plan(plan))
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


def _first_occurrence_loop(mesh, coloring):
    # the fallback numbering as a plain loop: surfaces by color, then by
    # id, each surface's left end before its right one
    perm = np.full(mesh.n_elements, -1, dtype=np.int64)
    nxt = 0
    for c in range(1, coloring.n_colors + 1):
        for s in np.flatnonzero(coloring.colors == c):
            for e in mesh.surf_elems[s].tolist():
                if e >= 0 and perm[e] < 0:
                    perm[e] = nxt
                    nxt += 1
    return perm


def test_fallback_plan_matches_the_first_occurrence_loop():
    mesh = shuffle_elements(gen_tri_rect(8, 8), 0)
    coarse, _ = color(mesh)
    refined, fine = refine(mesh, coarse, range(0, mesh.n_elements, 3))
    for m, coloring in ((mesh, naive_greedy(mesh)), (refined.mesh, fine)):
        plan = build_plan(m, coloring)
        assert plan.used_fallback
        assert np.array_equal(plan.element_perm,
                              _first_occurrence_loop(m, coloring))


def test_plan_mesh_mismatch():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    plan = build_plan(mesh, coloring)
    other = gen_tri_rect(5, 5)
    other_col, _ = color(other)
    with pytest.raises(PlanMeshMismatchError):
        apply_plan(other, other_col, plan)


def test_build_plan_requires_complete_coloring():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    holes = coloring.copy()
    holes.colors[0] = -1
    with pytest.raises(ValueError):
        build_plan(mesh, holes)


def test_reordering_raises_the_coalescing_metric():
    mesh = gen_tri_rect(6, 6, (True, True))
    coloring, _ = color(mesh)
    before = coalescing_metric(mesh, coloring).aggregate
    plan = build_plan(mesh, coloring)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    after = coalescing_metric(re_mesh, re_col)
    assert after.aggregate > before
    # the color-1 block is perfectly coalesced on both sides
    c1 = dict((c, (l, r)) for c, l, r in after.per_color)
    assert c1[1] == (1.0, 1.0)


@settings(deadline=None, max_examples=15)
@given(
    nx=st.integers(min_value=3, max_value=6),
    ny=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_plans_are_always_bijective(nx, ny, seed):
    mesh = gen_tri_rect(nx, ny)
    coloring, _ = color(mesh, ColoringConfig(rng_seed=seed))
    plan = build_plan(mesh, coloring)
    assert _is_permutation(plan.element_perm, mesh.n_elements)
    assert _is_permutation(plan.surface_perm, mesh.n_surfaces)
    re_mesh, re_col = apply_plan(mesh, coloring, plan)
    assert verify_coloring(re_mesh, re_col) == []
