"""1:4 refinement, color propagation, and the coarsening inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshchroma import (
    ElementFaultError,
    LevelConstraintError,
    MalformedSectionError,
    PartialFamilyError,
    SurfaceColoring,
    UnrefinableKindError,
    apply_plan,
    build_plan,
    child_color,
    coarsen,
    color,
    gen_quad_rect,
    gen_tri_rect,
    read_native,
    reconstruct_refinement,
    refine,
    shuffle_elements,
    verify_coloring,
    write_native,
)
from meshchroma.cli import main
from meshchroma.mesh import assemble
from conftest import (fine_edge, reference_reconstruct, stored_ids,
                      traced_peak)

# the half that contains the lower endpoint keeps the parent color,
# the other half moves up three
CHILD_COLOR_TABLE = {
    (1, 1): 1, (1, 2): 4,
    (2, 1): 2, (2, 2): 5,
    (3, 1): 3, (3, 2): 6,
}


def test_child_color_table():
    for (c, half), expected in CHILD_COLOR_TABLE.items():
        assert child_color(c, half) == expected


def test_child_color_spot_check_parent_color_one():
    # parent edge of color 1: first half keeps 1, second half takes 4
    assert child_color(1, 1) == 1
    assert child_color(1, 2) == 4


def _unit_triangle():
    mesh = assemble([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [0],
                    [(0, 1, 2, -1)])
    colors = np.zeros(3, dtype=np.int32)
    by_verts = {(0, 1): 2, (1, 2): 1, (0, 2): 3}
    for k in range(3):
        colors[k] = by_verts[tuple(mesh.surf_verts[k].tolist())]
    return mesh, SurfaceColoring(colors, 3)


def test_single_triangle_worked_example():
    mesh, coloring = _unit_triangle()
    ref, fine = refine(mesh, coloring, [0])
    assert ref.mesh.n_elements == 4
    assert ref.mesh.n_surfaces == 9
    assert fine.n_colors == 6
    assert verify_coloring(ref.mesh, fine) == []
    sides = mesh.elem_surfs[0, :3]
    assert coloring.colors[sides].tolist() == [2, 1, 3]
    # each parent side's halves, the one through the lower endpoint first
    halves = [fine_edge(ref, s)[1:3] for s in sides]
    assert fine.colors[halves].tolist() == [[2, 5], [1, 4], [3, 6]]
    # interior child edge k runs parallel to parent edge (k+2)%3 and
    # keeps its color
    interior = ref.mesh.elem_surfs[ref.map.first_child + 3, :3]
    assert fine.colors[interior].tolist() == [3, 2, 1]
    assert ref.parents.tolist() == [0, 0, 0, 0]


def test_corner_children_keep_parent_vertices():
    mesh, coloring = _unit_triangle()
    ref, _ = refine(mesh, coloring, [0])
    child_verts = ref.mesh.elem_verts[:4, :3].tolist()
    for v in (0, 1, 2):
        assert any(v in verts for verts in child_verts[:3])
    interior = child_verts[3]
    assert all(v >= 3 for v in interior)  # midpoints only


def test_half_ordering_follows_the_lower_endpoint():
    mesh = gen_tri_rect(2, 2)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0])
    for full, h1, h2 in _hanging_by_loop(ref):
        u, w = ref.mesh.surf_verts[full].tolist()
        c = int(fine.colors[full])
        assert min(u, w) in ref.mesh.surf_verts[h1].tolist()
        assert int(fine.colors[h1]) == c
        assert int(fine.colors[h2]) == c + 3


def test_hanging_interfaces_pair_halves_with_the_full_edge():
    mesh = gen_tri_rect(2, 2)
    coloring, _ = color(mesh)
    ref, _ = refine(mesh, coloring, [0])
    hanging = _hanging_by_loop(ref)
    assert len(hanging) > 0
    for full, h1, h2 in hanging:
        fv = set(ref.mesh.surf_verts[full].tolist())
        v1 = set(ref.mesh.surf_verts[h1].tolist())
        v2 = set(ref.mesh.surf_verts[h2].tolist())
        mid = v1 & v2
        assert len(mid) == 1
        assert (v1 | v2) - mid == fv


def test_refined_coloring_is_always_valid():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0, 4, 7])
    assert fine.n_colors == 6
    assert verify_coloring(ref.mesh, fine) == []
    assert ref.map.first_child == mesh.n_elements - 3
    assert ref.mesh.n_elements == mesh.n_elements - 3 + 12


def test_round_trip_is_bit_exact():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [2, 9, 17, 30])
    back, back_col = coarsen(ref, fine, [2, 9, 17, 30])
    assert type(back).__name__ == "Mesh"
    assert (back.elem_verts == mesh.elem_verts).all()
    assert (back.surf_verts == mesh.surf_verts).all()
    assert (back.vertices == mesh.vertices).all()
    assert (back_col.colors == coloring.colors).all()
    assert back_col.n_colors == 3


def test_partial_coarsen_equals_direct_refine():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    both, both_col = refine(mesh, coloring, [1, 6])
    direct, direct_col = refine(mesh, coloring, [1])
    partial, partial_col = coarsen(both, both_col, [6])
    assert (partial.mesh.elem_verts == direct.mesh.elem_verts).all()
    assert (partial_col.colors == direct_col.colors).all()
    assert partial.map.refined == (1,)


def test_growing_the_refined_set():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref1, fine1 = refine(mesh, coloring, [0])
    target = next(i for i in range(ref1.mesh.n_elements)
                  if ref1.parents[i] < 0)
    ref2, fine2 = refine(ref1, fine1, [target])
    assert len(ref2.map.refined) == 2
    assert verify_coloring(ref2.mesh, fine2) == []
    direct, direct_col = refine(mesh, coloring, list(ref2.map.refined))
    assert (ref2.mesh.elem_verts == direct.mesh.elem_verts).all()
    assert (fine2.colors == direct_col.colors).all()


def test_refining_a_child_is_a_level_violation():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [4])
    child = int(np.flatnonzero(ref.parents >= 0)[0])
    with pytest.raises(LevelConstraintError):
        refine(ref, fine, [child])


def test_only_triangles_refine():
    mesh = gen_quad_rect(2, 2)
    coloring, _ = color(mesh)
    with pytest.raises(UnrefinableKindError):
        refine(mesh, coloring, [0])


def test_refine_bounds_and_bad_coloring():
    mesh = gen_tri_rect(2, 2)
    coloring, _ = color(mesh)
    with pytest.raises(ValueError):
        refine(mesh, coloring, [99])
    holes = coloring.copy()
    holes.colors[0] = -1
    with pytest.raises(ValueError):
        refine(mesh, holes, [0])


def test_ids_that_are_not_integers_are_refused():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    for ids, named in (([1.5], "1.5"), ([0, True], "True")):
        with pytest.raises(ValueError, match=f"id {named} is not"):
            refine(mesh, coloring, ids)
    ref, fine = refine(mesh, coloring, [4])
    with pytest.raises(ValueError, match="id 4.9 is not"):
        coarsen(ref, fine, [4.9])
    # integers of any kind still pass
    grown, _ = refine(ref, fine, np.array([0], dtype=np.int32))
    assert grown.map.refined == (0, 4)
    assert coarsen(ref, fine, [np.int64(4)])[0].n_elements == 18


def test_coarsen_requires_whole_families():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0])
    with pytest.raises(PartialFamilyError):
        coarsen(ref, fine, [3])  # 3 was never refined


def test_six_refined_neighbors_is_the_ceiling():
    mesh = gen_tri_rect(4, 4, (True, True))  # closed: 3 neighbors each
    coloring, _ = color(mesh)
    lines = mesh.surf_elems[mesh.surf_elems[:, 1] >= 0]
    degrees = np.bincount(lines.ravel(), minlength=mesh.n_elements)
    center = int(np.argmax(degrees))
    assert degrees[center] == 3
    neighbors = sorted(
        {int(a) if b == center else int(b)
         for a, b in lines if center in (int(a), int(b))}
    )
    ref, _ = refine(mesh, coloring, neighbors)
    assert _max_refined_neighbors_by_loop(ref) == 6


def test_reconstruct_from_native_file(tmp_path):
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [2, 11])
    path = tmp_path / "fine.mesh"
    write_native(path, ref.mesh, fine, parents=ref.parents)
    data = read_native(path)
    rec, rec_col = reconstruct_refinement(data.mesh, data.parents,
                                          data.coloring)
    assert rec.map.refined == (2, 11)
    assert (rec.mesh.elem_verts == ref.mesh.elem_verts).all()
    assert (rec_col.colors == fine.colors).all()
    back, back_col = coarsen(rec, rec_col, [2, 11])
    assert (back.elem_verts == mesh.elem_verts).all()
    assert (back_col.colors == coloring.colors).all()


@pytest.mark.parametrize("elements", [[0, 5], range(0, 24, 3)],
                         ids=["two", "every_third"])
def test_refining_a_renumbered_mesh(tmp_path, capsys, elements):
    # midpoints are numbered as the split surfaces are first met over
    # the element sides, so a renumbered base refines to the bytes of
    # its elements assembled afresh, colors following their surfaces
    mesh = shuffle_elements(gen_tri_rect(4, 3), 1)
    coloring, _ = color(mesh, 0)
    moved, moved_coloring = apply_plan(mesh, coloring,
                                       build_plan(mesh, coloring))
    canon = assemble(moved.vertices, moved.elem_kind, moved.elem_verts)
    canon_coloring = SurfaceColoring(
        moved_coloring.colors[stored_ids(moved, canon)], 3)
    written = []
    for name, base, base_coloring in (("moved", moved, moved_coloring),
                                      ("canon", canon, canon_coloring)):
        ref, fine = refine(base, base_coloring, elements)
        path = tmp_path / f"{name}.mesh"
        write_native(path, ref.mesh, fine, parents=ref.parents)
        assert main(["verify", "-i", str(path)]) == 0, name
        written.append(path.read_bytes())
    assert written[0] == written[1]
    capsys.readouterr()


def test_reconstruct_rejects_orphan_children():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0])
    parents = ref.parents.copy()
    parents[int(np.flatnonzero(parents >= 0)[0])] = -1  # orphan one child
    with pytest.raises(PartialFamilyError):
        reconstruct_refinement(ref.mesh, parents, fine)


def test_reconstruct_rejects_tampered_colors():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0])
    bad = fine.copy()
    k = fine_edge(ref, ref.base.elem_surfs[0, 0])[1]  # a half
    bad.colors[k] = (int(bad.colors[k]) % 6) + 1
    with pytest.raises((MalformedSectionError, ValueError)):
        reconstruct_refinement(ref.mesh, ref.parents, bad)


@settings(deadline=None, max_examples=30)
@given(st.sets(st.integers(min_value=0, max_value=17), max_size=9),
       st.integers(min_value=0, max_value=9))
def test_random_sets_round_trip(targets, seed):
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh, seed)
    targets = sorted(targets)
    ref, fine = refine(mesh, coloring, targets)
    assert verify_coloring(ref.mesh, fine) == []
    if targets:
        back, back_col = coarsen(ref, fine, targets)
        assert (back.elem_verts == mesh.elem_verts).all()
        assert (back_col.colors == coloring.colors).all()


def _hanging_by_loop(ref):
    out = []
    for s in range(ref.base.n_surfaces):
        whole, lower, upper, _ = fine_edge(ref, s)
        if whole is not None and lower is not None:
            out.append((whole, lower, upper))
    return tuple(sorted(out))


def _max_refined_neighbors_by_loop(ref):
    refined = set(ref.map.refined)
    counts = {}
    for left, right in ref.base.surf_elems.tolist():
        if right >= 0 and (left in refined) != (right in refined):
            coarse = right if left in refined else left
            counts[coarse] = counts.get(coarse, 0) + 2
    return max(counts.values(), default=0)


@settings(deadline=None, max_examples=30)
@given(st.booleans(), st.sets(st.integers(min_value=0, max_value=31)))
def test_interface_counts_hold_for_random_sets(closed, targets):
    # one hanging interface per base edge between a refined and an
    # unrefined element, and at most six children next to any element
    mesh = gen_tri_rect(4, 4, closed)
    coloring, _ = color(mesh)
    ref, _ = refine(mesh, coloring, targets)
    mixed = sum((left in targets) != (right in targets)
                for left, right in mesh.surf_elems.tolist() if right >= 0)
    assert len(_hanging_by_loop(ref)) == mixed
    assert _max_refined_neighbors_by_loop(ref) <= 6


@settings(deadline=None, max_examples=40)
@given(st.booleans(), st.integers(3, 6), st.integers(3, 6), st.data())
def test_fine_colors_follow_the_rule_from_vertex_ids(periodic, nx, ny,
                                                     data):
    # an oracle on coordinates and vertex ids alone: each whole edge,
    # half and interior edge has the color the per-side rule gives
    mesh = gen_tri_rect(nx, ny, periodic)
    coloring, _ = color(mesh, data.draw(st.integers(0, 9)))
    targets = data.draw(st.sets(st.integers(0, mesh.n_elements - 1)))
    ref, fine = refine(mesh, coloring, targets)
    got = dict(zip(map(tuple, ref.mesh.surf_verts.tolist()),
                   fine.colors.tolist()))
    joined = {}
    for u, w in got:
        joined.setdefault(u, set()).add(w)
        joined.setdefault(w, set()).add(u)
    fv = ref.mesh.vertices
    want, mid = {}, {}
    for s, (u, w) in enumerate(mesh.surf_verts.tolist()):
        c = int(coloring.colors[s])
        sides = [e for e in mesh.surf_elems[s].tolist() if e >= 0]
        if any(e not in targets for e in sides):
            want[u, w] = c
        if any(e in targets for e in sides):
            (m,) = [m for m in joined[u] & joined[w]
                    if m >= mesh.n_vertices]
            assert np.array_equal(fv[m], (fv[u] + fv[w]) / 2)
            want[u, m], want[w, m] = c, c + 3  # u < w
            mid[u, w] = m
    color_of = dict(zip(map(tuple, mesh.surf_verts.tolist()),
                        coloring.colors.tolist()))

    def key(p, q):
        return min(p, q), max(p, q)

    for e in targets:
        v0, v1, v2 = mesh.elem_verts[e, :3].tolist()
        for p, q, r in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
            # joining the midpoints of pq and qr runs parallel to rp
            inner = key(mid[key(p, q)], mid[key(q, r)])
            want[inner] = color_of[key(r, p)]
    assert want == got


def _refined_family():
    """gen_tri_rect(3, 3) with element 4 refined, and its first child."""
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [4])
    return ref, fine, int(np.flatnonzero(ref.parents == 4)[0])


def _moved_midpoint(ref, fine, k0):
    mid = ref.mesh.elem_verts[k0, 1]
    verts = ref.mesh.vertices.copy()
    verts[mid] += (0.25, 0.0)
    moved = assemble(verts, ref.mesh.elem_kind, ref.mesh.elem_verts)
    return moved, fine, k0


def _unshared_midpoint(ref, fine, k0):
    # child 1 gets its own copy of the midpoint child 0 uses
    mid = int(ref.mesh.elem_verts[k0, 1])
    copy = ref.mesh.n_vertices
    verts = np.vstack([ref.mesh.vertices, ref.mesh.vertices[mid]])
    elem_verts = ref.mesh.elem_verts.copy()
    elem_verts[k0 + 1, 2] = copy
    split = assemble(verts, ref.mesh.elem_kind, elem_verts)
    by_row = dict(zip(map(tuple, ref.mesh.surf_verts.tolist()),
                      fine.colors.tolist()))
    colors = [by_row[tuple(sorted(mid if v == copy else v for v in row))]
              for row in split.surf_verts.tolist()]
    return split, SurfaceColoring(np.array(colors, dtype=np.int32), 6), k0 + 1


def _half_outside_palette(ref, fine, k0):
    # swap the halves of parent side 0: the lower half then reads c + 3
    _, lower, upper, _ = fine_edge(ref, ref.base.elem_surfs[4, 0])
    colors = fine.colors.copy()
    colors[[lower, upper]] = colors[[upper, lower]]
    return ref.mesh, SurfaceColoring(colors, 6), int(
        ref.mesh.surf_elems[lower, 0])


@pytest.mark.parametrize("plant", [_moved_midpoint, _unshared_midpoint,
                                   _half_outside_palette])
def test_reconstruct_names_the_parent_of_a_planted_fault(plant):
    ref, fine, k0 = _refined_family()
    mesh, coloring, element = plant(ref, fine, k0)
    with pytest.raises(MalformedSectionError,
                       match=rf"element {element} \(parent 4\)"):
        reconstruct_refinement(mesh, ref.parents, coloring)


def test_reconstruct_assembles_the_base_only(monkeypatch):
    import meshchroma.amr as amr_module

    ref, fine, _ = _refined_family()
    calls = []

    def counting(vertices, kinds, elem_verts):
        calls.append(len(kinds))
        return assemble(vertices, kinds, elem_verts)

    monkeypatch.setattr(amr_module, "assemble", counting)
    rec, rec_col = reconstruct_refinement(ref.mesh, ref.parents, fine)
    assert calls == [ref.base.n_elements]
    assert rec.mesh is ref.mesh
    assert np.array_equal(rec_col.colors, fine.colors)


def _edited_refinement(periodic, nx, ny, data):
    """A refinement of ``gen_tri_rect(nx, ny, periodic)`` at a drawn set,
    with up to three drawn edits: a fine color, a vertex coordinate, a
    vertex id in a child row, a PARENTS entry or an appended vertex.
    Returns the fine mesh, parents and coloring, or None where the
    edited elements do not assemble."""
    mesh = gen_tri_rect(nx, ny, periodic)
    coloring, _ = color(mesh, data.draw(st.integers(0, 9)))
    ref, fine = refine(mesh, coloring,
                       data.draw(st.sets(st.integers(0, mesh.n_elements - 1))))
    verts, rows = ref.mesh.vertices.copy(), ref.mesh.elem_verts.copy()
    parents = ref.parents.copy()
    by_row = dict(zip(map(tuple, ref.mesh.surf_verts.tolist()),
                      fine.colors.tolist()))
    nu = ref.map.first_child
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(
            ["color", "coordinate", "row", "parent", "vertex"]))
        if edit == "color":
            key = data.draw(st.sampled_from(sorted(by_row)))
            by_row[key] = data.draw(st.integers(-1, 7))
        elif edit == "coordinate":
            v = data.draw(st.integers(0, len(verts) - 1))
            verts[v, data.draw(st.integers(0, 1))] += data.draw(
                st.sampled_from([0.5, -0.25, 1e-9]))
        elif edit == "row" and nu < len(rows):
            e = data.draw(st.integers(nu, len(rows) - 1))
            others = sorted(set(range(len(verts))) - set(rows[e].tolist()))
            rows[e, data.draw(st.integers(0, 2))] = data.draw(
                st.sampled_from(others))
        elif edit == "parent":
            parents[data.draw(st.integers(0, len(parents) - 1))] = data.draw(
                st.integers(-1, mesh.n_elements))
        elif edit == "vertex":
            at = data.draw(st.integers(0, len(verts) - 1))
            verts = np.vstack([verts, verts[at] + data.draw(
                st.sampled_from([0.0, 0.5]))])
    try:
        edited = assemble(verts, ref.mesh.elem_kind, rows)
    except (ElementFaultError, ValueError):
        return None
    colors = [by_row.get(row, 1) for row in map(tuple, edited.surf_verts.tolist())]
    return edited, parents, SurfaceColoring(np.array(colors, dtype=np.int32), 6)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


@settings(deadline=None, max_examples=200)
@given(st.booleans(), st.integers(3, 6), st.integers(3, 6), st.data())
def test_reconstruct_agrees_with_the_full_rebuild(periodic, nx, ny, data):
    # rebuilding only what refinement adds accepts and refuses exactly
    # what a full rebuild and compare does, naming the same element or
    # surface
    case = _edited_refinement(periodic, nx, ny, data)
    if case is None:
        return
    got = _outcome(lambda: reconstruct_refinement(*case))
    want = _outcome(lambda: reference_reconstruct(*case))
    if isinstance(want[0], type):
        assert got == want
        return
    (rec, rec_col), (base, refined) = got, want
    for name in ("vertices", "elem_kind", "elem_verts", "elem_surfs",
                 "surf_verts", "surf_elems"):
        assert np.array_equal(getattr(rec.base, name), getattr(base, name))
    assert rec.map.refined == tuple(refined.tolist())
    assert rec.mesh is case[0]
    assert np.array_equal(rec_col.colors, case[2].colors)


def test_reconstruct_memory_peak():
    # tracemalloc peak of one check at the benchmark's adaptive size, in
    # MiB: a full rebuild and compare, with int64 color temporaries,
    # peaked at 1.51; rebuilding only the midpoints and children and
    # proving the colors in int32 brings it under 0.8
    mesh = shuffle_elements(gen_tri_rect(40, 40), 1)
    coloring, _ = color(mesh, 0)
    chosen = np.random.default_rng(1).choice(
        mesh.n_elements, round(0.3 * mesh.n_elements), replace=False)
    ref, fine = refine(mesh, coloring, chosen)
    parents = ref.parents
    peak = traced_peak(
        lambda: reconstruct_refinement(ref.mesh, parents, fine))
    assert peak <= 1.2


def test_amr_runs_without_the_element_tuple_path():
    # refine, reconstruct, refine again and coarsen twice: every mesh on
    # the way is built by the array-level assemble or relabel
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    ref, fine = refine(mesh, coloring, [0, 4])
    rec, rec_col = reconstruct_refinement(ref.mesh, ref.parents, fine)
    unrefined = int(np.flatnonzero(rec.parents < 0)[0])
    grown, grown_col = refine(rec, rec_col, [unrefined])
    part, part_col = coarsen(grown, grown_col, [0])
    back, back_col = coarsen(part, part_col, part.map.refined)
    assert (back.elem_verts == mesh.elem_verts).all()
    assert (back_col.colors == coloring.colors).all()


REFINED_GOLDEN = (
    "MESHCHROMA 1|VERTICES 37|0.0 0.0|1.0 0.0|2.0 0.0|3.0 0.0|4.0 0.0|0"
    ".0 1.0|1.0 1.0|2.0 1.0|3.0 1.0|4.0 1.0|0.0 2.0|1.0 2.0|2.0 2.0|3.0"
    " 2.0|4.0 2.0|0.0 3.0|1.0 3.0|2.0 3.0|3.0 3.0|4.0 3.0|0.0 4.0|1.0 4"
    ".0|2.0 4.0|3.0 4.0|4.0 4.0|0.5 0.0|1.0 0.5|0.5 0.5|1.5 0.5|2.0 0.5"
    "|1.5 1.0|2.5 1.0|3.5 0.5|4.0 0.5|3.5 1.0|2.0 1.5|2.5 1.5|ELEMENTS "
    "44|tri 0 6 5|tri 1 2 6|tri 2 3 8|tri 2 8 7|tri 3 4 8|tri 5 6 10|tr"
    "i 6 11 10|tri 6 7 12|tri 6 12 11|tri 8 13 12|tri 8 9 14|tri 8 14 1"
    "3|tri 10 11 16|tri 10 16 15|tri 11 12 16|tri 12 17 16|tri 12 13 18"
    "|tri 12 18 17|tri 13 14 18|tri 14 19 18|tri 15 16 20|tri 16 21 20|"
    "tri 16 17 22|tri 16 22 21|tri 17 18 22|tri 18 23 22|tri 18 19 24|t"
    "ri 18 24 23|tri 0 25 27|tri 1 26 25|tri 6 27 26|tri 25 26 27|tri 2"
    " 29 28|tri 7 30 29|tri 6 28 30|tri 29 30 28|tri 4 33 32|tri 9 34 3"
    "3|tri 8 32 34|tri 33 34 32|tri 7 31 35|tri 8 36 31|tri 12 35 36|tr"
    "i 31 36 35|PARENTS 44|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1"
    "|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|0|0|0|0|3|3|3|3|7|7|7|7|12"
    "|12|12|12|COLORS 90|1|2|3|1|3|2|1|3|2|3|1|1|2|3|1|2|1|2|1|3|1|3|1|"
    "2|3|1|2|1|3|2|3|1|2|1|3|3|2|3|2|3|1|2|1|3|1|1|2|1|2|3|1|3|2|1|3|2|"
    "1|2|1|6|4|3|5|1|2|3|5|3|4|6|1|2|1|3|2|6|2|4|5|1|3|3|2|1|2|1|6|4|3|"
    "5|"
).replace("|", "\n")

REFINED_PERIODIC_GOLDEN = (
    "MESHCHROMA 1|VERTICES 28|0.0 0.0|1.0 0.0|2.0 0.0|3.0 0.0|0.0 1.0|1"
    ".0 1.0|2.0 1.0|3.0 1.0|0.0 2.0|1.0 2.0|2.0 2.0|3.0 2.0|0.0 3.0|1.0"
    " 3.0|2.0 3.0|3.0 3.0|0.5 0.0|1.0 0.5|0.5 0.5|0.0 0.5|1.5 0.5|2.0 0"
    ".5|1.5 1.0|2.5 1.0|1.5 0.5|1.5 1.0|2.0 1.5|2.5 1.5|ELEMENTS 44|tri"
    " 0 5 4|tri 1 2 5|tri 2 3 7|tri 2 7 6|tri 3 0 7|tri 4 5 8|tri 5 9 8"
    "|tri 5 6 10|tri 5 10 9|tri 7 11 10|tri 7 4 8|tri 7 8 11|tri 8 9 13"
    "|tri 8 13 12|tri 9 10 13|tri 10 14 13|tri 10 11 15|tri 10 15 14|tr"
    "i 11 8 15|tri 8 12 15|tri 12 13 0|tri 13 1 0|tri 13 14 2|tri 13 2 "
    "1|tri 14 15 2|tri 15 3 2|tri 15 12 0|tri 15 0 3|tri 0 16 18|tri 1 "
    "17 16|tri 5 18 17|tri 16 17 18|tri 2 21 20|tri 6 22 21|tri 5 20 22"
    "|tri 21 22 20|tri 0 19 24|tri 4 25 19|tri 7 24 25|tri 19 25 24|tri"
    " 6 23 26|tri 7 27 23|tri 10 26 27|tri 23 27 26|PARENTS 44|-1|-1|-1"
    "|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1|-1"
    "|-1|-1|-1|0|0|0|0|3|3|3|3|7|7|7|7|12|12|12|12|COLORS 84|1|2|3|3|1|"
    "2|2|3|1|3|2|1|2|1|3|3|2|3|2|1|2|3|2|1|1|2|1|3|1|2|3|1|2|3|3|1|3|2|"
    "1|1|3|2|3|2|1|1|3|2|3|2|1|2|1|6|4|3|5|2|3|1|6|1|5|4|2|3|3|1|2|1|2|"
    "6|5|3|4|3|1|2|1|2|6|5|3|4|"
).replace("|", "\n")


# color(gen_tri_rect(4, 4, periodic)) at seed 0 under the swap-walk
# repair, frozen so the golden bytes pin refine and the writer alone
BASE_COLORS = {
    False: "32123131213231213312113123112132312133232312131121231321",
    True: "321233123231312113322121322131231233132113221132",
}


@pytest.mark.parametrize("periodic, golden", [
    (False, REFINED_GOLDEN), (True, REFINED_PERIODIC_GOLDEN)])
def test_refined_file_bytes_are_pinned(tmp_path, periodic, golden):
    mesh = gen_tri_rect(4, 4, periodic)
    coloring = SurfaceColoring(
        np.array([int(c) for c in BASE_COLORS[periodic]], dtype=np.int32), 3)
    ref, fine = refine(mesh, coloring, [0, 3, 7, 12])
    path = tmp_path / "r.mesh"
    write_native(path, ref.mesh, fine, parents=ref.parents)
    assert path.read_bytes() == golden.encode()


def test_proved_fine_colors_cannot_be_rewritten_or_passed_in():
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    refined, fine = refine(mesh, coloring, [1, 5])
    assert fine.colors is refined.fine_colors
    with pytest.raises(ValueError):
        fine.colors.setflags(write=True)
    with pytest.raises(ValueError):
        fine.colors[0] = 1
    # a coloring that only equals the proved one is checked again
    coarse, back = coarsen(refined, fine.copy(), [1, 5])
    assert np.array_equal(back.colors, coloring.colors)
    edited = fine.copy()
    edited.colors[fine_edge(refined, refined.base.elem_surfs[0, 0])[0]] = 9
    with pytest.raises(ValueError):
        coarsen(refined, edited, [1])
    with pytest.raises(TypeError):
        type(refined)(refined.base, refined.mesh, refined.map,
                      fine_colors=fine.colors)
