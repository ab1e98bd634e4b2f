"""Two-stage coloring: greedy pass, conflict repair, verification."""

import random
import re
import zlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshchroma.coloring as coloring_module
from meshchroma import (
    RestartsExhaustedError,
    SurfaceColoring,
    color,
    color_set_size,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    shuffle_elements,
    verify_coloring,
)
from meshchroma.coloring import _MASK_CHOICES, _greedy_pass, _repair, _sweep
from meshchroma.mesh import assemble
from conftest import (colorable_with, hybrid_patch, naive_greedy,
                      random_diagonal_tri)


def test_color_set_size_by_profile(two_tri, single_quad, single_tet):
    assert color_set_size(two_tri) == 3
    assert color_set_size(single_quad) == 4
    assert color_set_size(single_tet) == 4
    assert color_set_size(hybrid_patch(2, 2)) == 4


def assert_complete_valid(mesh, coloring):
    assert coloring.is_complete
    assert verify_coloring(mesh, coloring) == []
    assert coloring.colors.min() >= 1
    assert coloring.colors.max() <= coloring.n_colors


def test_small_meshes_reach_the_exact_optimum():
    for mesh in (gen_tri_rect(3, 3), gen_tri_rect(4, 4, (True, True))):
        assert colorable_with(mesh, 3)
        coloring, _ = color(mesh)
        assert coloring.n_colors == 3
        assert_complete_valid(mesh, coloring)
    for mesh in (gen_quad_rect(3, 3), gen_tet_prism(2, 2, 1)):
        assert colorable_with(mesh, 4)
        coloring, _ = color(mesh)
        assert coloring.n_colors == 4
        assert_complete_valid(mesh, coloring)


def test_hybrid_mesh_colors_with_four():
    mesh = hybrid_patch(4, 4)
    coloring, _ = color(mesh)
    assert coloring.n_colors == 4
    assert_complete_valid(mesh, coloring)


def _element_masks(sweep, colors):
    """Per sweep element, the bitmask of the colors its surfaces carry,
    asserting that none is carried twice."""
    masks = [0] * sweep.mesh.n_elements
    for k, c in enumerate(colors):
        if c < 1:
            continue
        b = 1 << c
        for e in (sweep.left[k], sweep.right[k]):
            if e >= 0:
                assert not masks[e] & b, (
                    f"color {c} repeated on element {sweep.elements[e]}")
                masks[e] |= b
    return masks


def _make_audit(sweep, colors, used):
    """Check after a repair step that no element repeats a color and
    that ``used`` and the carrier table agree with ``colors``; a failure
    names mesh ids."""
    elements, surfaces = sweep.elements, sweep.surfaces

    def audit(carrier):
        seen = _element_masks(sweep, colors)
        for k, c in enumerate(colors):
            for e in (sweep.left[k], sweep.right[k]):
                if c >= 1 and e >= 0:
                    held = carrier[e << 3 | c]
                    assert held == k, (
                        f"carrier of color {c} at element {elements[e]} is "
                        f"{surfaces[held] if held >= 0 else -1}, not "
                        f"surface {surfaces[k]}"
                    )
        assert seen == used, "per-element color masks are stale"
        assert sum(s >= 0 for s in carrier) == sum(
            bin(m).count("1") for m in seen), "carrier table is stale"
    return audit


@contextmanager
def repair_seam(chain_budget=None, audit=False, conflicts=None):
    """Run ``color``'s repair with a swap budget of ``chain_budget`` per
    chain (and ``_TOTAL_CHAINS`` times that in total) in place of the
    default, and with the audit after every step when ``audit`` is set.
    ``conflicts``, a list, gets each repair's greedy conflicts as a set
    of mesh surface ids."""
    def repair(sweep, colors, used, greedy_conflicts, n_colors, rng,
               chain, total):
        if chain_budget is not None:
            chain = chain_budget
            total = coloring_module._TOTAL_CHAINS * chain_budget
        if conflicts is not None:
            conflicts.append(set(sweep.surfaces[greedy_conflicts].tolist()))
        return _repair(sweep, colors, used, greedy_conflicts, n_colors, rng,
                       chain, total,
                       _make_audit(sweep, colors, used) if audit else None)

    with mock.patch.object(coloring_module, "_repair", repair):
        yield


def test_greedy_pass_never_grows_the_palette():
    mesh = random_diagonal_tri(8, 8, 0)
    assert color_set_size(mesh) == 3
    sweep = _sweep(mesh)
    colors, _, conflicts = _greedy_pass(sweep.left, sweep.slots,
                                        mesh.n_elements, 3, random.Random(0))
    partial = SurfaceColoring(sweep.to_mesh(colors), 3)
    assert len(conflicts) > 0
    assert partial.colors.max() <= 3
    assert (partial.colors >= 1).sum() + len(conflicts) == mesh.n_surfaces
    codes = {d.code for d in verify_coloring(mesh, partial)}
    assert "conflict" not in codes  # colored part is valid, only gaps remain


def test_single_swap_chain(two_tri):
    # elem 0 carries {1,2}, elem 1 carries {2,3}: the shared edge is stuck
    # until one single-presence color moves, then a free boundary slot opens
    shared = next(k for k in range(5) if two_tri.surf_elems[k, 1] >= 0)
    colors = np.empty(5, dtype=np.int32)
    e0 = [s for s in two_tri.elem_surfs[0, :3].tolist() if s != shared]
    e1 = [s for s in two_tri.elem_surfs[1, :3].tolist() if s != shared]
    colors[e0[0]], colors[e0[1]] = 1, 2
    colors[e1[0]], colors[e1[1]] = 2, 3
    colors[shared] = -1
    sweep = _sweep(two_tri)
    colors = np.take(colors, sweep.surfaces).tolist()
    used = _element_masks(sweep, colors)
    stats = _repair(sweep, colors, used, [colors.index(-1)], 3,
                    random.Random(0), 50, 250,
                    _make_audit(sweep, colors, used))
    assert_complete_valid(two_tri, SurfaceColoring(sweep.to_mesh(colors), 3))
    assert stats.swaps == 1
    assert stats.resolutions == 1
    assert stats.loop_breaks == 0


GOLDEN = [
    # mesh constructor, conflicts, swaps, Kempe chains, Kempe closures,
    # loop breaks (seed 0, frozen)
    (lambda: gen_tri_rect(8, 8), 0, 0, 0, 0, 0),
    (lambda: gen_tri_rect(8, 8, (True, True)), 11, 96, 8, 0, 0),
    (lambda: gen_tri_rect(6, 6, (True, True)), 5, 34, 3, 0, 0),
    (lambda: gen_tet_prism(3, 3, 3), 4, 9, 4, 0, 0),
    (lambda: random_diagonal_tri(8, 8, 0), 4, 50, 3, 1, 1),
    (lambda: random_diagonal_tri(12, 12, 0), 19, 164, 20, 4, 4),
]


# crc32 of the little-endian int32 colors for seeds 0-3: whole colorings
# that go through repair, so any change to what greedy or repair draws
# or picks shows
COLORING_CRCS = [
    (lambda: random_diagonal_tri(8, 8, 0),
     (0x94784a20, 0x513bd500, 0xe54d2203, 0xdac93b55)),
    (lambda: random_diagonal_tri(12, 12, 0),
     (0x08ffd56d, 0xe42bc841, 0xc8ab9085, 0xebc38499)),
    (lambda: gen_tri_rect(8, 8, (True, True)),
     (0x63af253e, 0xd99f6462, 0xd11283c9, 0x3fafe2fc)),
    (lambda: gen_tet_prism(3, 3, 3),
     (0x6302ea4e, 0xaa6488cb, 0x034f5b74, 0x6692af78)),
]


@pytest.mark.parametrize("build,crcs", COLORING_CRCS,
                         ids=["random_diagonal_8x8", "random_diagonal_12x12",
                              "tri_8x8_periodic", "tet_3x3x3"])
def test_colorings_through_repair_are_pinned(build, crcs):
    mesh = build()
    for seed, want in enumerate(crcs):
        coloring, report = color(mesh, seed)
        assert report.greedy_conflicts > 0
        assert_complete_valid(mesh, coloring)
        got = zlib.crc32(coloring.colors.astype("<i4").tobytes())
        assert got == want, (seed, hex(got))


@pytest.mark.parametrize("build,conflicts,swaps,chains,closures,breaks",
                         GOLDEN,
                         ids=["tri_8x8", "tri_8x8_periodic",
                              "tri_6x6_periodic", "tet_3x3x3",
                              "random_diagonal_8x8", "random_diagonal_12x12"])
def test_repair_goldens(build, conflicts, swaps, chains, closures, breaks):
    mesh = build()
    coloring, report = color(mesh)
    assert_complete_valid(mesh, coloring)
    assert report.greedy_conflicts == conflicts
    assert report.swaps == swaps
    assert report.kempe_chains == chains
    assert report.kempe_closures == closures
    assert report.loop_breaks == breaks
    assert report.resolutions == (report.greedy_conflicts
                                  + report.loop_breaks
                                  + report.no_swap_breaks)


def test_closed_tri_classes_are_balanced():
    mesh = gen_tri_rect(6, 6, (True, True))
    coloring, report = color(mesh)
    assert coloring.color_counts() == (36, 36, 36)
    assert report.color_counts == (36, 36, 36)


def test_same_seed_same_coloring():
    mesh = gen_tri_rect(10, 10)
    a, _ = color(mesh, 7)
    b, _ = color(mesh, 7)
    assert (a.colors == b.colors).all()
    c, _ = color(mesh, 8)
    assert not (a.colors == c.colors).all()


def test_swap_budget_raises():
    # shuffled, so sweep ranks differ from the element ids named
    mesh = shuffle_elements(random_diagonal_tri(8, 8, 0), 3)
    conflicts = []
    with repair_seam(chain_budget=1, conflicts=conflicts), \
            pytest.raises(RestartsExhaustedError) as info:
        color(mesh)
    # the last overrun names its starting surface, the surface's
    # elements and the chain's length
    found = re.fullmatch(
        r"no complete coloring after 6 attempts \(last: conflict chain "
        r"from surface (\d+) \(elements (\d+) and (\d+)\) reached (\d+) "
        r"swaps \(\d+ in total\); the budget is 1 per chain and 5 in "
        r"total\)",
        str(info.value))
    assert found, str(info.value)
    s, l, r, n = (int(g) for g in found.groups())
    assert s in conflicts[-1]
    assert (l, r) == tuple(mesh.surf_elems[s])
    assert n > 1


def test_restarts_exhausted_on_an_impossible_mesh():
    # odd fully periodic quad grids have no 4-coloring at all
    mesh = gen_quad_rect(5, 5, (True, True))
    with repair_seam(chain_budget=60), \
            pytest.raises(RestartsExhaustedError):
        color(mesh)


def test_restarts_exhausted_when_every_attempt_overruns():
    mesh = random_diagonal_tri(8, 8, 0)
    conflicts = []
    with repair_seam(chain_budget=1, conflicts=conflicts), \
            pytest.raises(RestartsExhaustedError,
                          match=r"after 6 attempts \(last: conflict chain"):
        color(mesh)
    assert len(conflicts) == 6


def test_impossible_mesh_is_diagnosed_by_parity():
    # 41 x 41 quads on a torus: every element needs all 4 colors, so each
    # color class would pair off 1681 elements
    with pytest.raises(RestartsExhaustedError,
                       match="pair off all 1681 elements, an odd count"):
        color(gen_quad_rect(41, 41, (True, True)))


def test_audit_mode_runs_clean():
    mesh = gen_tri_rect(8, 8, (True, True))
    conflicts = []
    with repair_seam(audit=True, conflicts=conflicts):
        coloring, _ = color(mesh)
    assert_complete_valid(mesh, coloring)
    assert len(conflicts) == 1 and len(conflicts[0]) == 11


def test_report_as_dict_round_trips_counts():
    mesh = gen_tri_rect(6, 6)
    coloring, report = color(mesh)
    d = report.as_dict()
    assert d["n_surfaces"] == mesh.n_surfaces
    assert d["n_colors"] == 3
    assert sum(report.color_counts) == mesh.n_surfaces
    assert d["color_count_1"] == report.color_counts[0]
    assert report.vizing_bound == 4


def test_report_as_dict_key_order_is_pinned():
    # `color --report` prints these lines in this order; perfbench reads
    # the counters by the same names
    _, report = color(gen_tet_prism(3, 3, 2), 3)
    d = report.as_dict()
    assert list(d) == [
        "n_elements", "n_surfaces", "n_colors", "vizing_bound",
        "greedy_conflicts", "resolutions", "swaps", "kempe_chains",
        "kempe_closures", "loop_breaks", "no_swap_breaks", "forced_reswaps",
        "restarts", "color_count_1", "color_count_2", "color_count_3",
        "color_count_4", "greedy_seconds", "resolve_seconds",
        "total_seconds",
    ]
    assert [d[f"color_count_{i}"] for i in range(1, 5)] == list(
        report.color_counts)
    for key in ("greedy_seconds", "resolve_seconds", "total_seconds"):
        assert d[key] == round(getattr(report, key), 6)


def test_naive_greedy_bounds():
    for mesh, bound in ((gen_tri_rect(10, 10), 5),
                        (gen_quad_rect(8, 8), 7),
                        (gen_tet_prism(3, 3, 3), 7)):
        nv = naive_greedy(mesh)
        assert_complete_valid(mesh, nv)
        assert nv.n_colors <= bound


def test_naive_greedy_overshoots_on_incoherent_numbering():
    mesh = shuffle_elements(gen_tri_rect(16, 16), 0)
    nv = naive_greedy(mesh)
    assert nv.n_colors == 5
    optimal, _ = color(mesh)
    assert optimal.n_colors == 3


def test_verify_flags_planted_conflict(two_tri):
    shared = next(k for k in range(5) if two_tri.surf_elems[k, 1] >= 0)
    colors = np.full(5, -1, dtype=np.int32)
    e0 = [s for s in two_tri.elem_surfs[0, :3].tolist() if s != shared]
    colors[shared] = 1
    colors[e0[0]] = 1  # element 0 now repeats color 1
    colors[e0[1]] = 2
    diags = verify_coloring(two_tri, SurfaceColoring(colors, 3))
    codes = {d.code for d in diags}
    assert "conflict" in codes
    assert "uncolored" in codes


def test_surface_coloring_helpers():
    colors = np.array([1, 2, -1, 3], dtype=np.int32)
    c = SurfaceColoring(colors, 3)
    assert not c.is_complete
    assert c.color_counts() == (1, 1, 1)
    d = c.copy()
    d.colors[2] = 1
    assert c.colors[2] == -1


def test_color_zero_is_listed_as_a_conflict():
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    coloring.colors[0] = 0
    assert not coloring.is_complete
    assert [d.surface_id for d in verify_coloring(mesh, coloring)
            if d.code == "uncolored"] == [0]


@settings(deadline=None, max_examples=20)
@given(
    nx=st.integers(min_value=2, max_value=6),
    ny=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=99),
    fam=st.sampled_from(["tri", "quad"]),
)
def test_color_always_lands_the_minimum_palette(nx, ny, seed, fam):
    gen = gen_tri_rect if fam == "tri" else gen_quad_rect
    mesh = gen(nx, ny)
    coloring, _ = color(mesh, seed)
    assert coloring.n_colors == (3 if fam == "tri" else 4)
    assert_complete_valid(mesh, coloring)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=999))
def test_shuffled_meshes_still_color_optimally(seed):
    mesh = shuffle_elements(gen_tri_rect(6, 6, (True, True)), seed)
    coloring, _ = color(mesh, seed)
    assert coloring.n_colors == 3
    assert_complete_valid(mesh, coloring)


def test_total_seconds_times_the_whole_call(monkeypatch):
    import time

    import meshchroma.coloring as coloring_module

    real = coloring_module.vizing_bound

    def slow(mesh):
        time.sleep(0.05)
        return real(mesh)

    monkeypatch.setattr(coloring_module, "vizing_bound", slow)
    _, report = color(gen_tri_rect(3, 3))
    assert report.total_seconds >= 0.05


def test_odd_cycles_reach_the_swap_walk():
    mesh = random_diagonal_tri(12, 12, 0)
    with repair_seam(audit=True):
        coloring, report = color(mesh)
    assert_complete_valid(mesh, coloring)
    assert report.kempe_closures > 0
    assert report.restarts == 0


FAMILIES = {
    # name -> (builder(seed), element graph is bipartite)
    "tri_rect": (lambda s: shuffle_elements(gen_tri_rect(7, 6), s), True),
    "quad_rect": (lambda s: shuffle_elements(gen_quad_rect(6, 7), s), True),
    "tet_prism": (lambda s: shuffle_elements(gen_tet_prism(3, 3, 2), s),
                  True),
    "random_diagonal": (lambda s: random_diagonal_tri(7, 7, s), False),
}


@settings(deadline=None, max_examples=25)
@given(fam=st.sampled_from(sorted(FAMILIES)),
       mesh_seed=st.integers(min_value=0, max_value=999),
       seed=st.integers(min_value=0, max_value=999))
def test_kempe_repair_completes_every_family(fam, mesh_seed, seed):
    build, bipartite = FAMILIES[fam]
    mesh = build(mesh_seed)
    with repair_seam(audit=True):
        coloring, report = color(mesh, seed)
    assert_complete_valid(mesh, coloring)
    assert coloring.n_colors == color_set_size(mesh)
    assert report.kempe_chains <= report.resolutions
    if bipartite:
        # a chain can only close an odd cycle
        assert report.kempe_closures == 0


def reference_greedy_pass(left, right, n_elements, n_colors, rng):
    """The greedy pass with a boundary test per surface (-1 in
    ``right``), kept as the reference for ``_greedy_pass``."""
    full = ((1 << n_colors) - 1) << 1
    used = [0] * n_elements
    colors = [-1] * len(left)
    conflicts = []
    for k in range(len(left)):
        l = left[k]
        r = right[k]
        ul = used[l]
        ur = used[r] if r >= 0 else 0
        m = full & ~(ul | ur)
        if m:
            t = _MASK_CHOICES[m]
            n = len(t)
            c = t[0] if n == 1 else t[int(rng.random() * n)]
            colors[k] = c
            b = 1 << c
            used[l] = ul | b
            if r >= 0:
                used[r] = ur | b
        else:
            conflicts.append(k)
    return colors, used, conflicts


GREEDY_FAMILIES = {
    **{name: build for name, (build, _) in FAMILIES.items()},
    # no boundary surface at all
    "quad_periodic": lambda s: shuffle_elements(gen_quad_rect(5, 6, True), s),
}


@settings(deadline=None, max_examples=40)
@given(fam=st.sampled_from(sorted(GREEDY_FAMILIES)),
       mesh_seed=st.integers(min_value=0, max_value=999),
       seed=st.integers(min_value=0, max_value=999))
def test_greedy_pass_matches_the_boundary_testing_loop(fam, mesh_seed,
                                                       seed):
    # the random-diagonal and periodic meshes leave conflicts; the same
    # colors, masks and conflicts from the same draws, and the RNG left
    # in the same state for the repair
    mesh = GREEDY_FAMILIES[fam](mesh_seed)
    sweep = _sweep(mesh)
    n_colors = color_set_size(mesh)
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = reference_greedy_pass(sweep.left, sweep.right, mesh.n_elements,
                                 n_colors, want_rng)
    got = _greedy_pass(sweep.left, sweep.slots, mesh.n_elements, n_colors,
                       got_rng)
    assert got == want
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5), (12, 12)])
def test_sweep_of_a_generated_quad_grid_is_the_identity(nx, ny):
    mesh = gen_quad_rect(nx, ny)
    sweep = _sweep(mesh)
    assert np.array_equal(sweep.elements, np.arange(nx * ny))
    assert np.array_equal(sweep.surfaces, np.arange(mesh.n_surfaces))
    assert np.array_equal(np.column_stack([sweep.left_ids, sweep.right_ids]),
                          mesh.surf_elems)


def _sweep_by_loops(mesh):
    """The sweep the slow, obvious way: rank by centroid, then walk the
    ranked elements' sides and number each surface when first met."""
    centroids = [mesh.vertices[[v for v in vids if v >= 0]].mean(axis=0)
                 for vids in mesh.elem_verts.tolist()]
    order = sorted(range(mesh.n_elements),
                   key=lambda e: tuple(centroids[e][::-1]))
    rank = {e: q for q, e in enumerate(order)}
    surfaces = []
    for e in order:
        for s in mesh.elem_surfs[e].tolist():
            if s >= 0 and s not in surfaces:
                surfaces.append(s)
    ends = [sorted(rank[e] for e in mesh.surf_elems[s].tolist() if e >= 0)
            for s in surfaces]
    left = [pair[0] for pair in ends]
    right = [pair[1] if len(pair) == 2 else -1 for pair in ends]
    return order, surfaces, left, right


@pytest.mark.parametrize("build", [
    lambda: shuffle_elements(gen_tri_rect(5, 4), 1),
    lambda: shuffle_elements(gen_quad_rect(4, 5, (True, False)), 2),
    lambda: shuffle_elements(gen_tet_prism(2, 2, 2), 3),
    lambda: shuffle_elements(hybrid_patch(4, 3), 4),
    lambda: random_diagonal_tri(5, 5, 6),
], ids=["tri", "quad_periodic", "tet", "mixed", "random_diagonal"])
def test_sweep_matches_a_per_element_loop(build):
    mesh = build()
    sweep = _sweep(mesh)
    order, surfaces, left, right = _sweep_by_loops(mesh)
    assert sweep.elements.tolist() == order
    assert sweep.surfaces.tolist() == surfaces
    assert sweep.left == left == sweep.left_ids.tolist()
    assert sweep.right == right == sweep.right_ids.tolist()
    boundary = [k for k, r in enumerate(right) if r < 0]
    for i, k in enumerate(boundary):
        right[k] = mesh.n_elements + i
    assert sweep.slots == right


@pytest.mark.parametrize("build", [
    lambda: gen_tri_rect(9, 7),
    lambda: gen_tri_rect(30, 30),
    lambda: gen_quad_rect(8, 11),
    lambda: gen_quad_rect(30, 30),
], ids=["tri_9x7", "tri_30x30", "quad_8x11", "quad_30x30"])
def test_generated_grids_leave_no_greedy_conflicts(build):
    # in any numbering; a periodic grid closes on itself where the sweep
    # meets its seam and keeps a few (see the periodic repair goldens)
    mesh = build()
    for seed in range(4):
        coloring, report = color(shuffle_elements(mesh, seed),
                                 seed)
        assert report.greedy_conflicts == 0


def _by_vertices(mesh, coloring):
    return dict(zip(map(tuple, mesh.surf_verts.tolist()),
                    coloring.colors.tolist()))


@settings(deadline=None, max_examples=25)
@given(fam=st.sampled_from(sorted(FAMILIES)),
       mesh_seed=st.integers(min_value=0, max_value=999),
       shuffle_seed=st.integers(min_value=0, max_value=999),
       seed=st.integers(min_value=0, max_value=999))
def test_coloring_does_not_depend_on_element_numbering(fam, mesh_seed,
                                                       shuffle_seed, seed):
    mesh = FAMILIES[fam][0](mesh_seed)
    want, want_report = color(mesh, seed)
    shuffled = shuffle_elements(mesh, shuffle_seed)
    got, got_report = color(shuffled, seed)
    assert _by_vertices(shuffled, got) == _by_vertices(mesh, want)
    assert got_report.greedy_conflicts == want_report.greedy_conflicts
    assert got_report.swaps == want_report.swaps


def _lexsort_ranking(mesh):
    """The element order the sweep took from ``np.lexsort`` of the
    centroids, last axis primary, before it packed its own keys."""
    slots = np.ascontiguousarray(mesh.elem_verts.T)
    count = np.count_nonzero(slots >= 0, axis=0)
    padded = np.vstack((mesh.vertices, np.zeros(mesh.dim)))
    return np.lexsort(np.take(padded, slots, axis=0).sum(axis=0).T / count)


@settings(deadline=None, max_examples=40)
@given(build=st.sampled_from([
           lambda: gen_tri_rect(3, 2), lambda: hybrid_patch(3, 2),
           lambda: gen_tet_prism(2, 1, 1)]),
       shuffle_seed=st.integers(min_value=0, max_value=99),
       copies=st.lists(st.tuples(st.integers(min_value=0),
                                 st.sampled_from([None, 0.0, -0.0])),
                       min_size=1, max_size=6),
       negate=st.lists(st.booleans(), min_size=3, max_size=3))
def test_sweep_breaks_centroid_ties_as_lexsort_did(build, shuffle_seed,
                                                    copies, negate):
    # a copy of an element on fresh vertex ids ties with it, or, once
    # flattened onto 0.0 or -0.0 along one axis, with the other copies
    # flattened there; negating an axis turns its zeros into -0.0
    mesh = shuffle_elements(build(), shuffle_seed)
    vertices = mesh.vertices * np.where(negate[:mesh.dim], -1.0, 1.0)
    kinds, verts = [mesh.elem_kind], [mesh.elem_verts]
    parts = [vertices]
    nv = len(vertices)
    for e, flat in copies:
        e %= mesh.n_elements
        row = mesh.elem_verts[e]
        used = row[row >= 0]
        moved = vertices[used].copy()
        if flat is not None:
            moved[:, -1] = flat
        parts.append(moved)
        verts.append(np.where(row >= 0, nv + np.cumsum(row >= 0) - 1,
                              -1)[None])
        kinds.append(mesh.elem_kind[e:e + 1])
        nv += len(used)
    tied = assemble(np.vstack(parts), np.concatenate(kinds),
                    np.vstack(verts))
    assert _sweep(tied).elements.tolist() == _lexsort_ranking(tied).tolist()
