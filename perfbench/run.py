"""Benchmark of the meshchroma CLI pipeline.

    python3 perfbench/run.py --workload tri_shuffled --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and scratch files go to ``.perfbench_runs/``.  The input files
are made in a separate process, so ``peak_rss_mb`` covers the commands
alone.  Commands run in-process through ``meshchroma.cli.main`` in whole
rounds, each timed by ``timing.Probe``; the first round warms up and is
not timed.  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer figures instead.  The last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed, report_lines
from spans import Tracer
from timing import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 15
SETUP_TIMEOUT_S = 60

END_TO_END = {  # metric -> the step it times
    "color_s": "color", "verify_s": "verify", "reorder_s": "reorder",
    "race_check_s": "race-check",
}

# spans reported as <span>_s and <span>_calls; the amr spans run on
# tri_adapt alone, so only their call counts are reported (a time that
# is 0 on two workloads says nothing); their seconds are in the trace
# file and on stderr
TIMED_SPANS = (
    "cli", "meshio.read_native", "meshio.write_native", "mesh.assemble",
    "mesh.build_surfaces", "mesh.validate", "mesh.relabel",
    "coloring.color", "coloring.greedy", "coloring.repair",
    "coloring.verify_coloring", "reorder.build_plan", "reorder.apply_plan",
    "reorder.coalescing_metric", "sweeps.sequential", "sweeps.colored",
    "sweeps.buffered", "sweeps.assert_race_free",
)
COUNTED_SPANS = ("amr.refine", "amr.coarsen", "amr.reconstruct_refinement")
COUNTS = (
    "coloring.greedy_conflicts", "coloring.swaps", "coloring.loop_breaks",
    "coloring.forced_reswaps", "coloring.restarts", "meshio.bytes_read",
    "meshio.bytes_written", "sweeps.buffer_bytes", "amr.refined_parents",
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, pipeline, cli_main):
        self.pipeline = pipeline
        self.cli_main = cli_main
        self.tracer = Tracer()
        self.samples = {step: [] for step, _ in pipeline.steps}
        self.raw_pipeline = {False: [], True: []}  # by traced
        self.probes = []
        self.reorder_report = ""
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def _cli(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli_main(argv)
        return rc, out.getvalue(), err.getvalue()

    def round(self, timed: bool, traced: bool) -> None:
        """Run every step once, then check every output."""
        self.tracer.round = len(self.raw_pipeline[True])
        for path in self.pipeline.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        results = []
        raw_total = 0.0
        with (self.tracer.installed() if traced
              else contextlib.nullcontext()):
            for step, argv in self.pipeline.round_steps(self.rounds):
                gc.collect()
                if traced:
                    t0 = time.perf_counter()
                    with self.tracer.span("cli"):
                        rc, out, err = self._cli(argv)
                    raw_total += time.perf_counter() - t0
                else:
                    with Probe() as probe:
                        rc, out, err = self._cli(argv)
                    if timed:
                        self.samples[step].append(probe.seconds)
                    self.probes.extend(probe.samples)
                    raw_total += probe.net
                results.append((step, rc, out, err))
        self.rounds += 1
        if timed:
            self.raw_pipeline[traced].append(raw_total)
        for step, rc, out, err in results:
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                print(f"{step} exited {rc}: {err.strip()}", file=sys.stderr)
                continue
            try:
                self.pipeline.check(step, out)
            except CheckFailed as exc:
                self.failed += 1
                self.incorrect += 1
                print(f"check failed after {step}: {exc}", file=sys.stderr)
            if step == "reorder":
                self.reorder_report = out


def _setup(workload, seed, workdir, trace) -> dict:
    """Make the input files in a child process, so that the commands'
    peak resident set is measured apart from the set-up's.  The child is
    waited for on every path out, and killed if it overruns."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload,
            str(seed), str(workdir), str(SETUP_REPS), str(int(trace))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _layer_metrics(run: Run, setup: dict) -> dict:
    med = statistics.median
    per_round = list(run.tracer.per_round().values())
    metrics = {}
    for span in TIMED_SPANS:
        name = "cli.self" if span == "cli" else span
        metrics[f"{name}_s"] = _metric(
            med(r.get(span, (0.0, 0))[0] for r in per_round), "s")
        name = "cli." if span == "cli" else f"{span}_"
        metrics[f"{name}calls"] = _metric(
            med(r.get(span, (0.0, 0))[1] for r in per_round), "count")
    for span in COUNTED_SPANS:
        metrics[f"{span}_calls"] = _metric(
            med(r.get(span, (0.0, 0))[1] for r in per_round), "count")
    gen = [r.get("generators.generate", (0.0, 0)) for r in setup["layers"]]
    metrics["generators.generate_s"] = _metric(med(g[0] for g in gen), "s")
    metrics["generators.generate_calls"] = _metric(
        med(g[1] for g in gen), "count")
    counts = [run.tracer.counts[r] for r in sorted(run.tracer.counts)]
    for key in COUNTS:
        unit = "B" if "bytes" in key else "count"
        metrics[key] = _metric(med(c[key] for c in counts), unit)
    swaps = metrics["coloring.swaps"]["value"]
    conflicts = metrics["coloring.greedy_conflicts"]["value"]
    metrics["coloring.swaps_per_conflict"] = _metric(
        swaps / conflicts if conflicts else 0.0, "ratio")
    report = report_lines(run.reorder_report)
    metrics["reorder.coalescing_before"] = _metric(
        float(report["aggregate_before"]), "ratio")
    metrics["reorder.coalescing_after"] = _metric(
        float(report["aggregate_after"]), "ratio")
    metrics["reorder.used_fallback"] = _metric(
        int(report["used_fallback"]), "count")
    metrics["amr.hanging_interfaces"] = _metric(
        run.pipeline.hanging_interfaces, "count")
    metrics["mesh.n_elements"] = _metric(
        len(run.pipeline.input.elements), "count")
    metrics["mesh.n_surfaces"] = _metric(len(run.pipeline.base), "count")
    metrics["bench.probe_s"] = _metric(med(run.probes), "s")
    metrics["bench.wall_s"] = _metric(med(run.raw_pipeline[False]), "s")
    metrics["bench.trace_overhead_s"] = _metric(
        med(run.raw_pipeline[True]) - med(run.raw_pipeline[False]), "s")
    return metrics


def _print_layer_table(run: Run) -> None:
    """Median self seconds and calls of every span, amr included."""
    per_round = list(run.tracer.per_round().values())
    names = sorted({n for r in per_round for n in r})
    for name in names:
        got = [r.get(name, (0.0, 0)) for r in per_round]
        print(f"{name:32s} {statistics.median(g[0] for g in got):10.6f} s "
              f"{statistics.median(g[1] for g in got):6.0f} calls",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meshchroma" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'meshchroma'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meshchroma
    import workloads
    from meshchroma import cli

    if Path(meshchroma.__file__).resolve().parent != SRC / "meshchroma":
        print(f"perfbench: imported meshchroma from {meshchroma.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    runs_dir = ROOT / ".perfbench_runs"
    workdir = runs_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = _setup(args.workload, args.seed, workdir, bool(args.trace))
        pipeline = workloads.Pipeline(args.workload, args.seed, workdir)
        run = Run(pipeline, cli.main)
        run.round(timed=False, traced=False)
        start = time.perf_counter()
        traced = False
        while not (time.perf_counter() - start >= args.seconds
                   and (run.raw_pipeline[True] or not args.trace)):
            run.round(timed=True, traced=traced)
            traced = bool(args.trace) and not traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        run.tracer.write(
            runs_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        _print_layer_table(run)
        metrics = _layer_metrics(run, setup)
    else:
        med = statistics.median
        commands = {step: med(v) for step, v in run.samples.items()}
        metrics = {"setup_s": _metric(med(setup["seconds"]), "s"),
                   "pipeline_s": _metric(sum(commands.values()), "s")}
        for name, step in END_TO_END.items():
            metrics[name] = _metric(commands[step], "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(peak_kib / 1024, "MiB")
        print(" ".join(f"{s}={v:.4f}" for s, v in commands.items())
              + f" rounds={len(run.raw_pipeline[False])}", file=sys.stderr)
    print(json.dumps({"correct": run.incorrect == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
