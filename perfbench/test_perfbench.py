"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meshchroma import cli  # noqa: E402
from meshchroma.coloring import color  # noqa: E402
from meshchroma.generators import (  # noqa: E402
    gen_quad_rect, gen_tet_prism, gen_tri_rect, shuffle_elements)
from meshchroma.meshio import read_native, write_native  # noqa: E402
from meshchroma.sweeps import default_payload  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from timing import (NOMINAL_PROBE_S, SLOWDOWN_EXPONENT,  # noqa: E402
                    Probe, calibrate)

MESHES = {
    "tri": lambda: shuffle_elements(gen_tri_rect(4, 3), seed=2),
    "quad": lambda: gen_quad_rect(4, 3),
    "tet": lambda: shuffle_elements(gen_tet_prism(2, 2, 1), seed=3),
}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@pytest.fixture(params=sorted(MESHES))
def colored(request, tmp_path):
    """A colored file, its reordered copy and the race-check output."""
    mesh = MESHES[request.param]()
    coloring, _ = color(mesh)
    path, reordered = tmp_path / "c.mm", tmp_path / "r.mm"
    write_native(path, mesh, coloring=coloring)
    _cli("reorder", "-i", path, "-o", reordered)
    return mesh, path, reordered, _cli("race-check", "-i", reordered)


def test_surfaces_agree_with_the_program(colored):
    mesh, path, _, _ = colored
    mf = checks.read_mesh_file(path)
    got = checks.derive_surfaces(mf.elements)
    width = mesh.surf_verts.shape[1]
    assert np.array_equal(np.array(got.verts).reshape(-1, width),
                          mesh.surf_verts)
    assert np.array_equal(got.left, mesh.surf_elems[:, 0])
    assert np.array_equal(got.right, mesh.surf_elems[:, 1])
    for e, row in enumerate(got.elem_surfs):
        assert list(row) == [s for s in mesh.elem_surfs[e] if s >= 0]
    checks.check_distinct_colors(got, mf.colors, 4, "colored")


def test_sweep_checksum_agrees_with_race_check(colored):
    _, path, reordered, stdout = colored
    after = checks.read_mesh_file(reordered)
    surfaces = checks.derive_surfaces(after.original_elements())
    values = checks.payload(len(surfaces))
    assert np.array_equal(values, default_payload(len(surfaces)))
    checks.check_race(stdout, checks.sweep_checksum(after, surfaces, values))


def test_closed_form_surface_counts():
    assert checks.closed_form_surfaces("tri_rect", 7, 5) == \
        gen_tri_rect(7, 5).n_surfaces
    assert checks.closed_form_surfaces("quad_rect", 7, 5) == \
        gen_quad_rect(7, 5).n_surfaces


def test_a_planted_repeated_color_is_caught(tmp_path):
    mesh = MESHES["tri"]()
    coloring, _ = color(mesh)
    colors = coloring.colors.copy()
    a, b = mesh.elem_surfs[0, :2]
    colors[a] = colors[b]
    surfaces = checks.derive_surfaces(
        [("tri", tuple(int(v) for v in row[:3])) for row in mesh.elem_verts])
    with pytest.raises(checks.CheckFailed, match="sees a color twice"):
        checks.check_distinct_colors(surfaces, colors, 3, "planted")


def test_a_planted_permutation_swap_is_caught(colored):
    _, path, reordered, stdout = colored
    text = reordered.read_text().splitlines()
    at = next(i for i, line in enumerate(text)
              if line.startswith("PERMUTATIONS"))
    ne = int(text[at].split()[1])
    after = checks.read_mesh_file(reordered)
    # two surfaces of different colors, so colors and checksum both move
    colors = after.original_colors()
    s, t = 0, int(np.flatnonzero(colors != colors[0])[0])
    first = at + 1 + ne
    text[first + s], text[first + t] = text[first + t], text[first + s]
    reordered.write_text("\n".join(text) + "\n")
    planted = checks.read_mesh_file(reordered)
    surfaces = checks.derive_surfaces(planted.original_elements())
    total = checks.sweep_checksum(planted, surfaces,
                                  checks.payload(len(surfaces)))
    with pytest.raises(checks.CheckFailed, match="checksums"):
        checks.check_race(stdout, total)
    with pytest.raises(checks.CheckFailed, match="surface_perm"):
        checks.check_reorder(checks.read_mesh_file(path), planted,
                             "aggregate_before 0.1\naggregate_after 0.2\n")


def test_refine_checks_agree_with_the_program(tmp_path):
    mesh = MESHES["tri"]()
    coloring, _ = color(mesh)
    base_path, fine_path = tmp_path / "c.mm", tmp_path / "f.mm"
    write_native(base_path, mesh, coloring=coloring)
    chosen = [0, 3, 7, 8]
    out = _cli("refine", "-i", base_path, "-o", fine_path,
               "--elements", ",".join(map(str, chosen)))
    base = checks.read_mesh_file(base_path)
    fine = checks.read_mesh_file(fine_path)
    checks.check_refine(base, checks.derive_surfaces(base.elements), fine,
                        chosen, out)
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_refine(base, checks.derive_surfaces(base.elements),
                            fine, chosen[:-1], out)
    program = read_native(fine_path)
    checks.check_distinct_colors(checks.derive_surfaces(fine.elements),
                                 program.coloring.colors, 6, "refined")


def test_calibration_arithmetic():
    assert calibrate(2.0, NOMINAL_PROBE_S) == pytest.approx(2.0)
    # a box on which the probe runs at half speed
    assert calibrate(2.0, 2 * NOMINAL_PROBE_S) == \
        pytest.approx(2.0 / 2 ** SLOWDOWN_EXPONENT)


def test_probe_takes_its_samples_out_of_the_time():
    with Probe() as probe:
        sum(i * i for i in range(300_000))
    inside = probe.samples[1:-1]
    assert len(inside) >= 1
    assert probe.net == pytest.approx(probe.raw - sum(inside))
    assert probe.seconds == pytest.approx(
        calibrate(probe.net, sum(probe.samples) / len(probe.samples)))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_output_line_matches_benchmark_json(trace, section, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "tri_adapt", "--seed", "5",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
