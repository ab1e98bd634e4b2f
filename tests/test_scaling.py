"""Series plumbing and slope fitting (bands are asserted in acceptance)."""

import numpy as np
import pytest

from meshchroma import (
    ColoringConfig,
    ScalingSeries,
    color,
    fit_loglog_slope,
    gen_tet_prism,
    run_series,
    shuffle_elements,
)


def test_slope_recovers_a_power_law():
    xs = np.array([10.0, 100.0, 1000.0, 10000.0])
    ys = 3.0 * xs ** 1.5
    assert abs(fit_loglog_slope(xs, ys) - 1.5) < 1e-12


def test_slope_undefined_cases():
    assert fit_loglog_slope([10.0], [1.0]) is None
    assert fit_loglog_slope([], []) is None
    assert fit_loglog_slope([1.0, 2.0], [0.0, 1.0]) is None
    assert fit_loglog_slope([1.0, -2.0], [1.0, 1.0]) is None


def test_run_series_points_are_coherent():
    series = run_series("tri_rect", [4, 8, 16], seed=0)
    assert series.family == "tri_rect"
    assert [p.cells for p in series.points] == [4, 8, 16]
    for p in series.points:
        assert p.n_elements == 2 * p.cells * p.cells
        assert p.n_colors == 3
        assert p.seconds > 0
        assert p.greedy_conflicts >= 0
    d = series.points[0].as_dict()
    assert set(d) == {"cells", "n_elements", "n_surfaces", "n_colors",
                      "greedy_conflicts", "swaps", "seconds"}
    assert "." in d["seconds"]


def test_run_series_is_deterministic_per_seed():
    # tet grids leave conflicts for repair, so the counts say something
    a = run_series("tet_prism", [3, 4], seed=3)
    b = run_series("tet_prism", [3, 4], seed=3)
    assert all(p.greedy_conflicts > 0 and p.swaps > 0 for p in a.points)
    assert [p.greedy_conflicts for p in a.points] == \
        [p.greedy_conflicts for p in b.points]
    assert [p.swaps for p in a.points] == [p.swaps for p in b.points]


def test_series_counts_do_not_depend_on_element_numbering():
    quads = run_series("quad_rect", [8, 16], seed=0)
    assert all(p.greedy_conflicts == 0 for p in quads.points)
    tets = run_series("tet_prism", [3, 4], seed=0)
    assert all(p.greedy_conflicts > 0 for p in tets.points)
    for point in tets.points:
        n = point.cells
        for shuffle_seed in (1, 2):
            mesh = shuffle_elements(gen_tet_prism(n, n, n), shuffle_seed)
            _, report = color(mesh, ColoringConfig(rng_seed=0))
            assert report.greedy_conflicts == point.greedy_conflicts
            assert report.swaps == point.swaps


def test_series_slopes_are_floats():
    # tet grids leave greedy conflicts at every size, so both fits exist
    series = run_series("tet_prism", [2, 3, 4], seed=0)
    assert isinstance(series.conflict_slope, float)
    assert isinstance(series.time_slope, float)
    single = ScalingSeries(family="tet_prism", seed=0,
                           points=series.points[:1])
    assert single.conflict_slope is None


def test_run_series_argument_checks():
    with pytest.raises(ValueError):
        run_series("tri_rect", [8, 8])
    with pytest.raises(ValueError):
        run_series("tri_rect", [16, 8])
    with pytest.raises(ValueError):
        run_series("not_a_family", [4, 8])
