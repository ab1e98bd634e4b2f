"""Sweep equivalence, race detection, and the memory table."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshchroma import (
    SurfaceColoring,
    WriteConflictError,
    apply_plan,
    assert_race_free,
    basis_count,
    build_plan,
    coalescing_metric,
    color,
    default_payload,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    memory_saved,
    refine,
    shuffle_elements,
    surface_buffer,
    sweep_buffered,
    sweep_colored,
    sweep_sequential,
    verify_coloring,
)


def test_three_sweeps_agree_bit_exactly():
    for mesh in (gen_tri_rect(6, 5), gen_quad_rect(5, 5),
                 gen_tet_prism(2, 2, 2)):
        coloring, _ = color(mesh)
        seq = sweep_sequential(mesh)
        par = sweep_colored(mesh, coloring)
        buf = sweep_buffered(mesh)
        assert (seq.totals == par.totals).all()
        assert (seq.totals == buf.totals).all()
        assert seq.checksum() == par.checksum() == buf.checksum()


def test_closed_mesh_totals_vanish():
    mesh = gen_tri_rect(6, 6, (True, True))
    coloring, _ = color(mesh)
    state = sweep_colored(mesh, coloring)
    assert int(state.totals.sum()) == 0
    assert int(sweep_sequential(mesh).totals.sum()) == 0


def test_open_mesh_total_is_the_boundary_sum():
    mesh = gen_tri_rect(5, 4)
    state = sweep_sequential(mesh)
    boundary = mesh.surf_elems[:, 1] < 0
    assert int(state.totals.sum()) == int(state.payload[boundary].sum())


def test_default_payload_shape_and_range():
    pay = default_payload(1000, seed=0)
    assert pay.dtype == np.int64
    assert pay.shape == (1000,)
    assert pay.min() >= -(2 ** 19)
    assert pay.max() < 2 ** 19
    assert (default_payload(1000, seed=0) == pay).all()
    assert not (default_payload(1000, seed=1) == pay).all()


def test_custom_payload_and_validation():
    mesh = gen_tri_rect(3, 3)
    pay = np.arange(mesh.n_surfaces, dtype=np.int64)
    coloring, _ = color(mesh)
    seq = sweep_sequential(mesh, pay)
    par = sweep_colored(mesh, coloring, pay)
    assert (seq.totals == par.totals).all()
    with pytest.raises(ValueError):
        sweep_sequential(mesh, pay[:-1])


def test_surface_buffer_slots():
    mesh = gen_tri_rect(4, 3)
    pay = default_payload(mesh.n_surfaces)
    buf = surface_buffer(mesh, pay)
    assert buf.shape == (2 * mesh.n_surfaces,)
    assert (buf[0::2] == pay).all()
    interior = mesh.surf_elems[:, 1] >= 0
    assert (buf[1::2][interior] == -pay[interior]).all()
    assert (buf[1::2][~interior] == 0).all()


def test_race_free_check_passes_and_fails():
    mesh = gen_tri_rect(5, 5)
    coloring, _ = color(mesh)
    assert_race_free(mesh, coloring)  # no raise
    bad = coloring.copy()
    e = next(i for i in range(mesh.n_elements)
             if (mesh.elem_surfs[i, :3] >= 0).all())
    s0, s1 = mesh.elem_surfs[e, :2]
    bad.colors[s1] = bad.colors[s0]  # element e now repeats a color
    # only class c repeats: the message names it, its smallest repeated
    # element and that element's count
    c = int(bad.colors[s0])
    counts = {}
    for left, right in mesh.surf_elems[bad.colors == c].tolist():
        for el in (left, right):
            if el >= 0:
                counts[el] = counts.get(el, 0) + 1
    first = min(el for el, n in counts.items() if n > 1)
    message = f"color {c} writes element {first} {counts[first]} times"
    with pytest.raises(WriteConflictError, match=f"^{message}$"):
        assert_race_free(mesh, bad)
    with pytest.raises(WriteConflictError, match=f"^{message}$"):
        sweep_colored(mesh, bad)


@pytest.mark.parametrize("check", [assert_race_free, verify_coloring,
                                   coalescing_metric])
@pytest.mark.parametrize("extra", [2, -2])
def test_a_coloring_of_the_wrong_length_is_rejected(check, extra):
    # a longer coloring must not read as complete and valid, and a
    # shorter one must not fail with an IndexError
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    colors = (np.concatenate([coloring.colors, [1, 2]]) if extra > 0
              else coloring.colors[:extra])
    with pytest.raises(ValueError, match="coloring does not match the mesh"):
        check(mesh, SurfaceColoring(colors, 3))


def test_sweep_colored_requires_a_complete_coloring():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    holes = coloring.copy()
    holes.colors[0] = -1
    with pytest.raises(ValueError):
        sweep_colored(mesh, holes)


def test_basis_counts():
    assert [basis_count(p, "tri") for p in (0, 1, 2, 3)] == [1, 3, 6, 10]
    assert [basis_count(p, "quad") for p in (1, 2, 3)] == [4, 9, 16]
    assert [basis_count(p, "tet") for p in (1, 2, 3)] == [4, 10, 20]
    with pytest.raises(ValueError):
        basis_count(-1)
    with pytest.raises(ValueError):
        basis_count(1, "hex")


# buffering both sides of 3,774,165 surfaces at 4 equations, doubles
TABLE = [
    (1, 724_639_680, "0.72"),
    (2, 1_449_279_360, "1.44"),
    (3, 2_415_465_600, "2.41"),  # 2.415... truncates, not rounds
    (4, 3_623_198_400, "3.62"),
    (5, 5_072_477_760, "5.07"),
]


@pytest.mark.parametrize("p,nbytes,gb", TABLE)
def test_memory_table(p, nbytes, gb):
    est = memory_saved(p, n_equations=4, n_surfaces=3_774_165)
    assert est.n_bytes == nbytes
    assert est.gb_truncated == gb
    assert est.n_basis == basis_count(p, "tri")


def test_memory_estimate_other_kinds():
    est = memory_saved(2, n_equations=5, n_surfaces=1000, kind="tet")
    assert est.n_basis == 10
    assert est.n_bytes == 2 * 10 * 5 * 1000 * 8


def reference_totals(mesh, payload) -> np.ndarray:
    """Plain-Python accumulation, surfaces in id order."""
    totals = [0] * mesh.n_elements
    for (left, right), value in zip(mesh.surf_elems.tolist(),
                                    payload.tolist()):
        totals[left] += value
        if right >= 0:
            totals[right] -= value
    return np.asarray(totals, dtype=np.int64)


def _colored_mesh(kind, nx, ny):
    if kind == "quad":
        mesh = gen_quad_rect(nx, ny)
    elif kind == "tet":
        mesh = gen_tet_prism(nx, ny, 2)
    else:
        mesh = shuffle_elements(gen_tri_rect(nx, ny), seed=nx * ny)
    coloring, _ = color(mesh)
    if kind == "refined":
        fine, coloring = refine(mesh, coloring,
                                list(range(0, mesh.n_elements, 3)))
        mesh = fine.mesh
    elif kind == "planned":
        mesh, coloring = apply_plan(mesh, coloring,
                                    build_plan(mesh, coloring))
    return mesh, coloring


@settings(deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["tri", "quad", "tet", "refined", "planned"]),
    nx=st.integers(min_value=2, max_value=6),
    ny=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=20),
)
def test_equivalence_holds_for_any_seeded_payload(kind, nx, ny, seed):
    mesh, coloring = _colored_mesh(kind, nx, ny)
    pay = default_payload(mesh.n_surfaces, seed=seed)
    expected = reference_totals(mesh, pay)
    for state in (sweep_sequential(mesh, pay),
                  sweep_colored(mesh, coloring, pay),
                  sweep_buffered(mesh, pay)):
        assert state.totals.dtype == np.int64
        assert (state.totals == expected).all()


def _expected_conflict(mesh, colors):
    """The first write conflict, classes in color order: per class one
    count of each element's writes over the surfaces' two ends."""
    for c in sorted(set(colors[colors >= 1].tolist())):
        ends = mesh.surf_elems[colors == c].ravel()
        counts = np.bincount(ends[ends >= 0], minlength=mesh.n_elements)
        if counts.max() > 1:
            e = int(np.argmax(counts > 1))
            return f"color {c} writes element {e} {counts[e]} times"
    return None


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["tri", "quad", "tet"]),
    edits=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                             st.integers(min_value=0, max_value=3),
                             st.sampled_from(["repeat", "uncolor", "above"])),
                   max_size=4),
)
@example(kind="tri", edits=[(0, 0, "above")])
@example(kind="quad", edits=[(0, 0, "above"), (0, 1, "repeat")])
def test_race_checks_agree_on_any_coloring(kind, edits):
    # each edit takes side j of an element: "repeat" gives it the color
    # of the element's previous side, "uncolor" -1, "above" a color
    # above the palette
    mesh, coloring = _colored_mesh(kind, 3, 3)
    colors = coloring.colors.copy()
    for pick, j, edit in edits:
        sides = mesh.elem_surfs[pick % mesh.n_elements]
        sides = sides[sides >= 0]
        s = sides[j % len(sides)]
        if edit == "repeat":
            colors[s] = colors[sides[j % len(sides) - 1]]
        elif edit == "uncolor":
            colors[s] = -1
        else:
            colors[s] = coloring.n_colors + 1 + pick % 2
    bad = SurfaceColoring(colors, coloring.n_colors)

    diags = verify_coloring(mesh, bad)
    message = _expected_conflict(mesh, colors)
    assert (message is not None) == any(d.code == "conflict" for d in diags)
    if message is None:
        assert_race_free(mesh, bad)  # no raise
    else:
        with pytest.raises(WriteConflictError, match=f"^{message}$"):
            assert_race_free(mesh, bad)

    payload = default_payload(mesh.n_surfaces)
    try:
        state = sweep_colored(mesh, bad, payload)
    except (ValueError, WriteConflictError):
        assert diags
        return
    assert diags == []
    assert (state.totals == sweep_sequential(mesh, payload).totals).all()
