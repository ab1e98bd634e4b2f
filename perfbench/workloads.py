"""The three workloads: their inputs, command sequences and checks.

Every workload runs ``color --seed`` -> ``verify`` -> ``reorder
--metric`` -> ``race-check`` through ``meshchroma.cli.main``; ``tri_adapt``
adds ``refine --elements S`` after ``color`` (so verify, reorder and
race-check see the refined, 6-colored mesh) and ``coarsen --parents S``
at the end.  The benchmark seed shuffles the elements, picks S and sets
the ``color --seed`` of each round; the program only ever sees the
files.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshchroma import cli, generators, meshio

import checks
from checks import require
from timing import Probe
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    family: str
    n: int  # an n-by-n patch
    shuffle: bool  # shuffle element ids, else keep generator order
    refine_share: float  # share of elements refined; 0 skips the AMR steps

    @property
    def base_palette(self) -> int:
        return 3 if self.family == "tri_rect" else 4

    @property
    def palette(self) -> int:
        """Colors after the workload's last coloring step."""
        return 6 if self.refine_share else self.base_palette


WORKLOADS = {
    "tri_shuffled": Workload("tri_rect", 80, True, 0.0),
    "quad_grid": Workload("quad_rect", 100, False, 0.0),
    "tri_adapt": Workload("tri_rect", 40, True, 0.3),
}

INPUT = "input.mm"
# color seeds a run cycles through, one per round: repair is a random
# walk whose swap count varies by ~10% between seeds (more on small
# meshes), so the median over many seeds is steadier than any one seed
COLOR_SEEDS = 16


def make_input(w: Workload, seed: int, path: Path) -> None:
    """Write the workload's input file.  The CLI has no shuffle, so a
    shuffled patch is made and written with the library, through the
    module attributes that a traced set-up wraps."""
    if not w.shuffle:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["generate", "--family", w.family,
                           "--nx", str(w.n), "--ny", str(w.n),
                           "-o", str(path)])
        require(rc == 0, f"generate exited {rc}")
        return
    spec = generators.GeneratorSpec(family=w.family, nx=w.n, ny=w.n)
    mesh = generators.shuffle_elements(generators.generate(spec), seed)
    meshio.write_native(path, mesh)


def run_setup(name: str, seed: int, workdir: str, reps: int,
              trace: bool) -> dict:
    """Make the input ``reps`` times; return the calibrated seconds of
    each and, when traced, per-rep (self seconds, calls) per span."""
    w = WORKLOADS[name]
    path = Path(workdir) / INPUT
    tracer = Tracer()
    seconds = []
    with tracer.installed() if trace else contextlib.nullcontext():
        for rep in range(reps):
            tracer.round = rep
            gc.collect()
            with Probe() as probe, tracer.span("setup"):
                make_input(w, seed, path)
            seconds.append(probe.seconds)
    return {"seconds": seconds,
            "layers": list(tracer.per_round().values()) if trace else []}


def chosen_elements(w: Workload, n_elements: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    k = round(w.refine_share * n_elements)
    return sorted(rng.choice(n_elements, k, replace=False).tolist())


class Pipeline:
    """One workload's command sequence and the checks of its outputs."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.w = w = WORKLOADS[name]
        self.dir = workdir
        self.input = checks.read_mesh_file(workdir / INPUT)
        self.base = checks.derive_surfaces(self.input.elements)
        ns = checks.closed_form_surfaces(w.family, w.n, w.n)
        require(len(self.base) == ns,
                f"input has {len(self.base)} surfaces, closed form {ns}")
        self.chosen = (chosen_elements(w, len(self.input.elements), seed)
                       if w.refine_share else [])
        self._surfaces = {self.input.elements: self.base}
        ids = ",".join(map(str, self.chosen))
        colored = self.path("colored.mm")
        checked = self.path("fine.mm") if w.refine_share else colored
        reordered = self.path("reordered.mm")
        self.checked = checked
        self.seed = seed
        steps = [("color", ["color", "-i", self.path(INPUT), "-o", colored,
                            "--seed", None])]
        if w.refine_share:
            steps.append(("refine", ["refine", "-i", colored, "-o", checked,
                                     "--elements", ids]))
        steps += [
            ("verify", ["verify", "-i", checked]),
            ("reorder", ["reorder", "-i", checked, "-o", reordered,
                         "--metric"]),
            ("race-check", ["race-check", "-i", reordered]),
        ]
        if w.refine_share:
            steps.append(("coarsen", ["coarsen", "-i", reordered, "-o",
                                      self.path("coarsened.mm"),
                                      "--parents", ids]))
        self.steps = steps
        self.outputs = [argv[argv.index("-o") + 1] for _, argv in steps
                        if "-o" in argv]

    def round_steps(self, index: int):
        """The steps of round ``index``, with its color seed filled in."""
        color_seed = str(self.seed * COLOR_SEEDS + index % COLOR_SEEDS)
        return [(step, [color_seed if a is None else a for a in argv])
                for step, argv in self.steps]

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def surfaces(self, elements) -> checks.Surfaces:
        got = self._surfaces.get(elements)
        if got is None:
            got = self._surfaces[elements] = checks.derive_surfaces(elements)
        return got

    @property
    def hanging_interfaces(self) -> int:
        return checks.hanging_interfaces(self.base, self.chosen)

    def check(self, step: str, stdout: str) -> None:
        """Check the output of one step; raise CheckFailed."""
        w = self.w
        read = checks.read_mesh_file
        if step == "color":
            out = read(self.path("colored.mm"))
            require(out.elements == self.input.elements,
                    "color changed the elements")
            report = checks.report_lines(stdout)
            require(report.get("n_colors") == str(w.base_palette)
                    and report.get("n_surfaces") == str(len(self.base)),
                    f"color report disagrees: {report}")
            checks.check_distinct_colors(self.base, out.colors,
                                         w.base_palette, "color")
        elif step == "refine":
            fine = read(self.path("fine.mm"))
            checks.check_refine(self.input, self.base, fine, self.chosen,
                                stdout)
            checks.check_distinct_colors(self.surfaces(fine.elements),
                                         fine.colors, 6, "refine")
        elif step == "verify":
            checks.check_verify(stdout, w.palette)
        elif step == "reorder":
            before = read(self.checked)
            after = read(self.path("reordered.mm"))
            checks.check_reorder(before, after, stdout)
        elif step == "race-check":
            after = read(self.path("reordered.mm"))
            surfaces = self.surfaces(after.original_elements())
            total = checks.sweep_checksum(after, surfaces,
                                          checks.payload(len(surfaces)))
            checks.check_race(stdout, total)
        elif step == "coarsen":
            require(Path(self.path("coarsened.mm")).read_bytes()
                    == Path(self.path("colored.mm")).read_bytes(),
                    "coarsen did not restore the colored file byte for byte")


if __name__ == "__main__":
    name, seed, workdir, reps, trace = sys.argv[1:]
    print(json.dumps(run_setup(name, int(seed), workdir, int(reps),
                               bool(int(trace)))))
