"""Exit codes, file round trips, and output text of the command line."""

import numpy as np
import pytest

from meshchroma import (
    SurfaceColoring,
    color,
    gen_tet_prism,
    gen_tri_rect,
    read_native,
    refine,
    shuffle_elements,
    write_native,
)
from meshchroma.cli import _loglog_slope, _recorded_refinement, main
from meshchroma.mesh import assemble
from conftest import fine_edge

MSH_TRI = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 4
$EndElements
"""


def gen(tmp_path, name="m.mesh", family="tri_rect", nx=4, ny=4,
        periodic=False):
    path = tmp_path / name
    args = ["generate", "--family", family, "--nx", str(nx),
            "--ny", str(ny), "-o", str(path)]
    if periodic:
        args.append("--periodic")
    assert main(args) == 0
    return path


def test_generate_verify_roundtrip(tmp_path, capsys):
    path = gen(tmp_path)
    assert main(["verify", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no coloring" in out or "valid" in out


def test_generate_is_deterministic(tmp_path):
    a = gen(tmp_path, "a.mesh")
    b = gen(tmp_path, "b.mesh")
    assert a.read_bytes() == b.read_bytes()


def test_color_writes_valid_output_and_report(tmp_path, capsys):
    path = gen(tmp_path)
    out = tmp_path / "c.mesh"
    report = tmp_path / "report.txt"
    assert main(["color", "-i", str(path), "-o", str(out),
                 "--report", str(report)]) == 0
    assert main(["verify", "-i", str(out)]) == 0
    text = capsys.readouterr().out
    assert "complete valid coloring with 3 colors" in text
    assert "n_colors 3" in report.read_text()


def test_color_seed_determinism(tmp_path):
    path = gen(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.mesh", "b.mesh", "c.mesh"))
    assert main(["color", "-i", str(path), "-o", str(a), "--seed", "5"]) == 0
    assert main(["color", "-i", str(path), "-o", str(b), "--seed", "5"]) == 0
    assert main(["color", "-i", str(path), "-o", str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_env_var(tmp_path, monkeypatch):
    path = gen(tmp_path)
    a, b = tmp_path / "a.mesh", tmp_path / "b.mesh"
    monkeypatch.setenv("MESHCHROMA_SEED", "5")
    assert main(["color", "-i", str(path), "-o", str(a)]) == 0
    monkeypatch.delenv("MESHCHROMA_SEED")
    assert main(["color", "-i", str(path), "-o", str(b), "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("MESHCHROMA_SEED", "not a number")
    assert main(["color", "-i", str(path), "-o", str(a)]) == 64


def test_refine_coarsen_round_trip_bytes(tmp_path):
    path = gen(tmp_path)
    colored = tmp_path / "c.mesh"
    fine = tmp_path / "fine.mesh"
    back = tmp_path / "back.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,3,7"]) == 0
    data = read_native(fine)
    assert data.parents is not None
    assert data.coloring.n_colors == 6
    assert main(["coarsen", "-i", str(fine), "-o", str(back),
                 "--parents", "0,3,7"]) == 0
    assert back.read_bytes() == colored.read_bytes()


def test_refine_all_and_partial_coarsen(tmp_path):
    path = gen(tmp_path, nx=3, ny=3)
    colored = tmp_path / "c.mesh"
    fine = tmp_path / "fine.mesh"
    part = tmp_path / "part.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--all"]) == 0
    assert read_native(fine).mesh.n_elements == 4 * 18
    assert main(["coarsen", "-i", str(fine), "-o", str(part),
                 "--parents", "0,1"]) == 0
    partial = read_native(part)
    assert partial.parents is not None  # still a refined mesh
    assert main(["verify", "-i", str(part)]) == 0


def test_fine_colors_are_derived_once_per_check(tmp_path, monkeypatch):
    import meshchroma.amr as amr

    path = gen(tmp_path, nx=12, ny=12)
    colored = tmp_path / "c.mesh"
    fine = tmp_path / "fine.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,3,7,40"]) == 0
    calls = []
    real = amr._derive_fine_colors

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(amr, "_derive_fine_colors", counted)
    # verify proves the file's colors once
    assert main(["verify", "-i", str(fine)]) == 0
    assert len(calls) == 1
    # coarsen proves them once and derives the remaining refinement's
    calls.clear()
    assert main(["coarsen", "-i", str(fine), "-o", str(tmp_path / "p.mesh"),
                 "--parents", "0,7"]) == 0
    assert len(calls) <= 2
    calls.clear()
    assert main(["coarsen", "-i", str(fine), "-o", str(tmp_path / "b.mesh"),
                 "--parents", "0,3,7,40"]) == 0
    assert len(calls) == 1
    assert (tmp_path / "b.mesh").read_bytes() == colored.read_bytes()


def test_refining_refined_input_is_a_level_error(tmp_path):
    path = gen(tmp_path)
    colored, fine = tmp_path / "c.mesh", tmp_path / "f.mesh"
    main(["color", "-i", str(path), "-o", str(colored)])
    main(["refine", "-i", str(colored), "-o", str(fine), "--all"])
    assert main(["refine", "-i", str(fine), "-o",
                 str(tmp_path / "x.mesh"), "--all"]) == 3


@pytest.mark.parametrize("reorder", [False, True])
def test_coloring_a_refined_file_is_a_level_error(tmp_path, capsys, reorder):
    path = gen(tmp_path, nx=4, ny=3)
    colored, fine = tmp_path / "c.mesh", tmp_path / "f.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored),
                 "--seed", "1"]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,3,5"]) == 0
    if reorder:
        re = tmp_path / "r.mesh"
        assert main(["reorder", "-i", str(fine), "-o", str(re)]) == 0
        fine = re
    assert main(["verify", "-i", str(fine)]) == 0
    out = tmp_path / "w.mesh"
    capsys.readouterr()
    assert main(["color", "-i", str(fine), "-o", str(out),
                 "--seed", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: input is refined; coarsen it before coloring\n")
    assert not out.exists()


def test_refinement_keeps_a_last_vertex_no_element_uses(tmp_path):
    # the base of a refinement file ends where its midpoints begin, not
    # at the last vertex its elements use
    mesh = gen_tri_rect(4, 3)
    mesh = assemble(np.vstack([mesh.vertices, [[9.0, 9.0]]]),
                    mesh.elem_kind, mesh.elem_verts)
    coloring, _ = color(mesh, 1)
    colored, fine = tmp_path / "c.mesh", tmp_path / "f.mesh"
    back = tmp_path / "b.mesh"
    write_native(colored, mesh, coloring)
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,3,5"]) == 0
    assert main(["verify", "-i", str(fine)]) == 0
    assert main(["coarsen", "-i", str(fine), "-o", str(back),
                 "--parents", "0,3,5"]) == 0
    assert back.read_bytes() == colored.read_bytes()


def test_coarsen_without_parents_fails(tmp_path):
    path = gen(tmp_path)
    colored = tmp_path / "c.mesh"
    main(["color", "-i", str(path), "-o", str(colored)])
    assert main(["coarsen", "-i", str(colored), "-o",
                 str(tmp_path / "x.mesh"), "--parents", "0"]) == 3


def test_uncolorable_input_exits_two(tmp_path):
    # odd fully periodic quad grids cannot be 4-colored
    path = gen(tmp_path, family="quad_rect", nx=5, ny=5, periodic=True)
    assert main(["color", "-i", str(path), "-o",
                 str(tmp_path / "c.mesh")]) == 2


def test_reorder_and_metric(tmp_path, capsys):
    path = gen(tmp_path, nx=6, ny=6)
    colored, re = tmp_path / "c.mesh", tmp_path / "r.mesh"
    main(["color", "-i", str(path), "-o", str(colored)])
    capsys.readouterr()
    assert main(["reorder", "-i", str(colored), "-o", str(re),
                 "--metric"]) == 0
    out = capsys.readouterr().out
    assert "aggregate_before" in out
    assert "aggregate_after" in out
    assert "used_fallback" in out
    data = read_native(re)
    assert data.mesh.element_perm is not None
    assert data.mesh.surface_perm is not None
    assert main(["verify", "-i", str(re)]) == 0


@pytest.mark.parametrize("family",
                         ["tri_rect", "quad_rect", "tet_prism", "tri_closed"])
def test_reordered_files_verify_and_race_check(tmp_path, family):
    path = gen(tmp_path, family=family, nx=5, ny=4)
    colored, re = tmp_path / "c.mesh", tmp_path / "r.mesh"
    again, recolored = tmp_path / "rr.mesh", tmp_path / "rc.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["reorder", "-i", str(colored), "-o", str(re)]) == 0
    assert main(["verify", "-i", str(re)]) == 0
    assert main(["race-check", "-i", str(re)]) == 0
    # a second reorder and a recolor keep the stored renumbering aligned
    assert main(["reorder", "-i", str(re), "-o", str(again)]) == 0
    assert main(["verify", "-i", str(again)]) == 0
    assert main(["color", "-i", str(re), "-o", str(recolored)]) == 0
    assert main(["verify", "-i", str(recolored)]) == 0


def test_reorder_keeps_parents_and_coarsen_undoes_it(tmp_path):
    path = gen(tmp_path)
    colored, fine = tmp_path / "c.mesh", tmp_path / "fine.mesh"
    re, back = tmp_path / "r.mesh", tmp_path / "back.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,3,7"]) == 0
    assert main(["reorder", "-i", str(fine), "-o", str(re)]) == 0
    data = read_native(re)
    assert data.parents is not None
    assert sorted(data.parents.tolist()) == sorted(
        read_native(fine).parents.tolist())
    assert main(["verify", "-i", str(re)]) == 0
    assert main(["coarsen", "-i", str(re), "-o", str(back),
                 "--parents", "0,3,7"]) == 0
    assert back.read_bytes() == colored.read_bytes()


def test_recorded_refinement_of_a_reordered_file_has_no_maps(tmp_path):
    # relabeled back to the order refine wrote, the fine mesh records no
    # renumbering, so it writes the refined file's bytes again
    path = gen(tmp_path, nx=8, ny=8)
    colored, fine = tmp_path / "c.mesh", tmp_path / "f.mesh"
    re, again = tmp_path / "r.mesh", tmp_path / "again.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored),
                 "--seed", "0"]) == 0
    assert main(["refine", "-i", str(colored), "-o", str(fine),
                 "--elements", "0,5,9,40"]) == 0
    assert main(["reorder", "-i", str(fine), "-o", str(re)]) == 0
    rec, fine_coloring = _recorded_refinement(read_native(re))
    assert rec.mesh.element_perm is None and rec.mesh.surface_perm is None
    write_native(again, rec.mesh, fine_coloring, parents=rec.parents)
    assert again.read_bytes() == fine.read_bytes()


def test_reordered_file_refines_and_coarsens_back(tmp_path):
    path = gen(tmp_path)
    colored, re = tmp_path / "c.mesh", tmp_path / "r.mesh"
    fine, back = tmp_path / "fine.mesh", tmp_path / "back.mesh"
    assert main(["color", "-i", str(path), "-o", str(colored)]) == 0
    assert main(["reorder", "-i", str(colored), "-o", str(re)]) == 0
    assert main(["refine", "-i", str(re), "-o", str(fine),
                 "--elements", "0,3,7"]) == 0
    assert main(["verify", "-i", str(fine)]) == 0
    assert main(["coarsen", "-i", str(fine), "-o", str(back),
                 "--parents", "0,3,7"]) == 0
    assert main(["verify", "-i", str(back)]) == 0
    # element ids given to refine and coarsen are the reordered ones
    assert np.array_equal(read_native(back).mesh.elem_verts,
                          read_native(re).mesh.elem_verts)


def test_reorder_requires_colors(tmp_path):
    path = gen(tmp_path)
    assert main(["reorder", "-i", str(path), "-o",
                 str(tmp_path / "r.mesh")]) == 1


def test_race_check_closed_mesh(tmp_path, capsys):
    path = gen(tmp_path, family="tri_closed", nx=6, ny=6)
    colored = tmp_path / "c.mesh"
    main(["color", "-i", str(path), "-o", str(colored)])
    capsys.readouterr()
    assert main(["race-check", "-i", str(colored)]) == 0
    out = capsys.readouterr().out
    assert "result PASS" in out
    assert "accumulator_total 0" in out


def test_race_check_flags_a_planted_conflict(tmp_path, capsys):
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh)
    bad = coloring.copy()
    e = next(i for i in range(mesh.n_elements))
    s0, s1 = mesh.elem_surfs[e, :2]
    bad.colors[s1] = bad.colors[s0]
    path = tmp_path / "bad.mesh"
    write_native(path, mesh, bad)
    capsys.readouterr()
    assert main(["race-check", "-i", str(path)]) == 1
    c = int(bad.colors[s0])
    assert f"color {c} writes element {e} 2 times" in capsys.readouterr().err


def test_memsave_exact_line(capsys):
    assert main(["memsave", "--p", "1", "--neq", "4",
                 "--ns", "3774165"]) == 0
    out = capsys.readouterr().out
    assert "724639680 bytes (0.72 GB)" in out


def _blocks(out):
    """``stats`` output as one dict of strings per printed block."""
    return [dict(line.split(" ", 1) for line in block.splitlines())
            for block in out.split("\n\n")]


def _stats_blocks(capsys, argv):
    assert main(["stats", *argv]) == 0
    return _blocks(capsys.readouterr().out)


def test_stats_reports_points_and_slopes(tmp_path, capsys):
    assert main(["stats", "--family", "tri_rect", "--sizes", "4,8,16",
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("n_surfaces") == 3
    assert "time_slope" in out
    assert "conflict_slope" in out


def test_stats_points_are_coherent(capsys):
    *points, summary = _stats_blocks(
        capsys, ["--family", "tri_rect", "--sizes", "4,8,16", "--seed", "0"])
    assert [p["cells"] for p in points] == ["4", "8", "16"]
    for p in points:
        assert list(p) == ["family", "cells", "n_elements", "n_surfaces",
                           "n_colors", "greedy_conflicts", "swaps",
                           "seconds"]
        assert p["family"] == "tri_rect"
        assert int(p["n_elements"]) == 2 * int(p["cells"]) ** 2
        assert p["n_colors"] == "3"
        assert int(p["greedy_conflicts"]) >= 0
        assert "." in p["seconds"] and float(p["seconds"]) > 0
    assert list(summary) == ["points", "time_slope", "conflict_slope"]
    assert summary["points"] == "3"


def test_stats_is_deterministic_per_seed(capsys):
    # tet grids leave conflicts for repair, so the counts say something
    argv = ["--family", "tet_prism", "--sizes", "3,4", "--seed", "3"]
    runs = [_stats_blocks(capsys, argv) for _ in range(2)]
    for run in runs:
        for p in run[:-1]:
            assert int(p["greedy_conflicts"]) > 0 and int(p["swaps"]) > 0
            del p["seconds"]
        del run[-1]["time_slope"]
    assert runs[0] == runs[1]


def test_stats_counts_do_not_depend_on_element_numbering(capsys):
    quads = _stats_blocks(
        capsys, ["--family", "quad_rect", "--sizes", "8,16", "--seed", "0"])
    assert all(p["greedy_conflicts"] == "0" for p in quads[:-1])
    tets = _stats_blocks(
        capsys, ["--family", "tet_prism", "--sizes", "3,4", "--seed", "0"])
    for point in tets[:-1]:
        assert int(point["greedy_conflicts"]) > 0
        n = int(point["cells"])
        for shuffle_seed in (1, 2):
            mesh = shuffle_elements(gen_tet_prism(n, n, n), shuffle_seed)
            _, report = color(mesh, 0)
            assert report.greedy_conflicts == int(point["greedy_conflicts"])
            assert report.swaps == int(point["swaps"])


def test_stats_slopes(capsys):
    # tet grids leave greedy conflicts at every size, so both fits exist
    *_, summary = _stats_blocks(
        capsys, ["--family", "tet_prism", "--sizes", "2,3,4", "--seed", "0"])
    for key in ("time_slope", "conflict_slope"):
        float(summary[key])  # a fitted number, not "none"
    point, summary = _stats_blocks(
        capsys, ["--family", "tet_prism", "--sizes", "2", "--seed", "0"])
    assert int(point["greedy_conflicts"]) > 0
    assert summary == {"points": "1", "time_slope": "none",
                       "conflict_slope": "none"}


def test_loglog_slope_recovers_a_power_law():
    xs = np.array([10.0, 100.0, 1000.0, 10000.0])
    ys = 3.0 * xs ** 1.5
    assert abs(_loglog_slope(xs, ys) - 1.5) < 1e-12


def test_loglog_slope_undefined_cases():
    assert _loglog_slope([10.0], [1.0]) is None
    assert _loglog_slope([], []) is None
    assert _loglog_slope([1.0, 2.0], [0.0, 1.0]) is None
    assert _loglog_slope([1.0, -2.0], [1.0, 1.0]) is None


def test_stats_argument_checks():
    for family, sizes in (("tri_rect", "8,8"), ("tri_rect", "16,8"),
                          ("not_a_family", "4,8")):
        assert main(["stats", "--family", family, "--sizes", sizes]) == 64


def test_msh_input_by_extension(tmp_path):
    p = tmp_path / "two.msh"
    p.write_text(MSH_TRI)
    out = tmp_path / "c.mesh"
    assert main(["color", "-i", str(p), "-o", str(out)]) == 0
    assert read_native(out).coloring.n_colors == 3


def test_colored_input_commands_need_colors_in_msh(tmp_path, capsys):
    p = tmp_path / "two.msh"
    p.write_text(MSH_TRI)
    out = ["-o", str(tmp_path / "o.mesh")]
    for argv in (["refine"] + out + ["--elements", "0"],
                 ["coarsen"] + out + ["--parents", "0"],
                 ["reorder"] + out, ["race-check"]):
        capsys.readouterr()
        assert main(argv + ["-i", str(p)]) == 1, argv[0]
        assert capsys.readouterr().err == (
            "error: input file has no COLORS section; color it first\n")


def test_io_failures_exit_four(tmp_path):
    missing = tmp_path / "nope.mesh"
    assert main(["color", "-i", str(missing), "-o",
                 str(tmp_path / "c.mesh")]) == 4
    garbled = tmp_path / "bad.mesh"
    garbled.write_text("MESHCHROMA 1\nVERTICES 5\n0 0\n")
    assert main(["verify", "-i", str(garbled)]) == 4
    badmsh = tmp_path / "v4.msh"
    badmsh.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    assert main(["verify", "-i", str(badmsh)]) == 4
    tri = "VERTICES 3\n0 0\n1 0\n0 1\nELEMENTS 1\ntri 0 1 2\n"
    quad = "VERTICES 4\n0 0\n1 0\n1 1\n0 1\nELEMENTS 1\nquad 0 1 2 3\n"
    for body in (tri + "COLORS 3\n1\n2\n9\n",
                 tri.replace("0 0", "nan 0.0"),
                 "VERTICES -5\nELEMENTS 1\ntri 0 1 2\n",
                 tri + "COLORS 3\n1\n2\n99999999999999999999\n",
                 quad + "PARENTS 1\n0\n"):
        garbled.write_text("MESHCHROMA 1\n" + body)
        assert main(["verify", "-i", str(garbled)]) == 4, body
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh)
    parents = np.full(mesh.n_elements, -1)
    parents[5] = -7
    write_native(garbled, mesh, coloring, parents=parents)
    out = str(tmp_path / "out.mesh")
    for argv in (["verify", "-i", str(garbled)],
                 ["refine", "-i", str(garbled), "-o", out, "--elements", "0"],
                 ["coarsen", "-i", str(garbled), "-o", out,
                  "--parents", "0"]):
        assert main(argv) == 4, argv


_SWAPPED = ("coloring was not produced by this refinement: fine surface 31 "
            "of element 17 (parent 4) has color 4")


def test_extra_vertex_in_a_refinement_file_is_named(tmp_path, capsys):
    mesh = gen_tri_rect(4, 4)
    coloring, _ = color(mesh, 0)
    ref, fine = refine(mesh, coloring, [0, 5])
    path = tmp_path / "f.mesh"
    write_native(path, ref.mesh, fine, parents=ref.parents)
    # one unreferenced vertex appended to VERTICES
    lines = path.read_text().split("\n")
    n = ref.mesh.n_vertices
    assert lines[1] == f"VERTICES {n}"
    lines[1] = f"VERTICES {n + 1}"
    lines.insert(2 + n, "9.0 9.0")
    path.write_text("\n".join(lines))
    reason = (f"error: mesh is not a canonical single-level refinement: it "
              f"has {n + 1} vertices where the rebuilt refinement has {n}; "
              f"the first at fault is vertex {n}\n")
    capsys.readouterr()
    for argv in (["verify", "-i", str(path)],
                 ["coarsen", "-i", str(path), "-o", str(tmp_path / "c.mesh"),
                  "--parents", "0"]):
        assert main(argv) == 4, argv[0]
        assert capsys.readouterr().err == reason, argv[0]


@pytest.mark.parametrize("plant, code, reason", [
    ("three_children", 3, "parent 0 has 3 children, expected 4"),
    ("parent_out_of_range", 4, "parent id out of range: parent 99"),
    ("swapped_halves", 4, _SWAPPED),
    ("swapped_halves_reordered", 4, _SWAPPED),
], ids=["three_children", "parent_out_of_range", "swapped_halves",
        "swapped_halves_reordered"])
def test_verify_rejects_parent_tables_coarsen_rejects(tmp_path, capsys,
                                                      plant, code, reason):
    mesh = gen_tri_rect(3, 3)
    coloring, _ = color(mesh, 0)
    path = tmp_path / "p.mesh"
    if plant.startswith("swapped_halves"):
        # a valid 6-coloring, but not the one refining element 4 derives:
        # the two halves of its side 0 trade colors
        ref, fine = refine(mesh, coloring, [4])
        halves = list(fine_edge(ref, ref.base.elem_surfs[4, 0])[1:3])
        colors = fine.colors.copy()
        colors[halves] = colors[halves[::-1]]
        write_native(path, ref.mesh, SurfaceColoring(colors, 6),
                     parents=ref.parents)
        if plant.endswith("reordered"):
            shuffled = tmp_path / "r.mesh"
            assert main(["reorder", "-i", str(path), "-o",
                         str(shuffled)]) == 0
            assert read_native(shuffled).mesh.element_perm is not None
            path = shuffled
    else:
        parents = np.full(mesh.n_elements, -1)
        if plant == "three_children":
            parents[:3] = 0
        else:
            parents[-4:] = 99
        write_native(path, mesh, coloring, parents=parents)
    capsys.readouterr()
    assert main(["coarsen", "-i", str(path), "-o", str(tmp_path / "c.mesh"),
                 "--parents", "0"]) == code
    coarsen_err = capsys.readouterr().err
    assert reason in coarsen_err
    assert main(["verify", "-i", str(path)]) == code
    assert capsys.readouterr().err == coarsen_err


def test_usage_errors_exit_sixtyfour(tmp_path):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["generate", "--family", "tri_rect", "--nx", "4"]) == 64
    assert main(["generate", "--family", "hexes", "--nx", "1",
                 "--ny", "1", "-o", "x.mesh"]) == 64
    assert main(["refine", "-i", "a", "-o", "b",
                 "--elements", "1,two"]) == 64
    assert main(["memsave", "--p", "0", "--neq", "4", "--ns", "10"]) == 64
    assert main(["stats", "--family", "tri_rect", "--sizes", ""]) == 64
    assert main(["stats", "--family", "tri_rect", "--sizes", "0"]) == 64
    assert main(["stats", "--family", "tri_rect", "--sizes", "8,4"]) == 64


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "m.mesh"
    proc = subprocess.run(
        [sys.executable, "-m", "meshchroma.cli", "generate", "--family",
         "tri_rect", "--nx", "2", "--ny", "2", "-o", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert path.exists()


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    from meshchroma.cli import _build_parser

    monkeypatch.delenv("MESHCHROMA_SEED", raising=False)
    path = gen(tmp_path)
    a, b, c = (tmp_path / f"{n}.mesh" for n in "abc")
    parser = _build_parser()
    assert main(["color", "-i", str(path), "-o", str(a), "--seed", "5"]) == 0
    assert main(["color", "-i", str(path), "-o", str(b)]) == 0
    assert main(["color", "-i", str(path), "-o", str(c), "--seed", "0"]) == 0
    assert main(["color", "-i", str(path), "--seed", "x"]) == 64
    assert _build_parser() is parser
    assert b.read_bytes() == c.read_bytes() != a.read_bytes()
