"""Series plumbing and slope fitting (bands are asserted in acceptance)."""

import numpy as np
import pytest

from meshchroma import ScalingSeries, fit_loglog_slope, run_series


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
    a = run_series("tri_rect", [4, 8], seed=3)
    b = run_series("tri_rect", [4, 8], seed=3)
    assert [p.greedy_conflicts for p in a.points] == \
        [p.greedy_conflicts for p in b.points]
    assert [p.swaps for p in a.points] == [p.swaps for p in b.points]


def test_shuffle_restores_quad_conflicts():
    raw = run_series("quad_rect", [8, 16], seed=0, shuffle=False)
    assert all(p.greedy_conflicts == 0 for p in raw.points)
    shuffled = run_series("quad_rect", [8, 16], seed=0)
    assert all(p.greedy_conflicts > 0 for p in shuffled.points)


def test_series_slopes_are_floats():
    series = run_series("tri_rect", [4, 8, 16], seed=0)
    assert isinstance(series.conflict_slope, float)
    assert isinstance(series.time_slope, float)
    single = ScalingSeries(family="tri_rect", seed=0,
                           points=series.points[:1])
    assert single.conflict_slope is None


def test_run_series_argument_checks():
    with pytest.raises(ValueError):
        run_series("tri_rect", [8, 8])
    with pytest.raises(ValueError):
        run_series("tri_rect", [16, 8])
    with pytest.raises(ValueError):
        run_series("not_a_family", [4, 8])
