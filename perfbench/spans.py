"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each function in ``TRACED`` with a
wrapper at every place the package looks it up (the defining module and
every ``meshchroma`` module or namespace that imported the name), and
puts the originals back on exit.  A span is (name, start, end, parent,
round); a layer's self time is its span's duration minus the time its
child spans cover.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, span name).  The two private coloring passes are
# looked up as module globals by ``coloring.color``, so wrapping them
# splits its time into greedy, repair and the rest.
TRACED = (
    ("meshio", "read_native", "meshio.read_native"),
    ("meshio", "write_native", "meshio.write_native"),
    ("mesh", "assemble", "mesh.assemble"),
    ("mesh", "build_surfaces", "mesh.build_surfaces"),
    ("mesh", "validate", "mesh.validate"),
    ("mesh", "relabel", "mesh.relabel"),
    ("coloring", "color", "coloring.color"),
    ("coloring", "_greedy_pass", "coloring.greedy"),
    ("coloring", "_repair", "coloring.repair"),
    ("coloring", "verify_coloring", "coloring.verify_coloring"),
    ("reorder", "build_plan", "reorder.build_plan"),
    ("reorder", "apply_plan", "reorder.apply_plan"),
    ("reorder", "coalescing_metric", "reorder.coalescing_metric"),
    ("sweeps", "sweep_sequential", "sweeps.sequential"),
    ("sweeps", "sweep_colored", "sweeps.colored"),
    ("sweeps", "sweep_buffered", "sweeps.buffered"),
    ("sweeps", "assert_race_free", "sweeps.assert_race_free"),
    ("amr", "refine", "amr.refine"),
    ("amr", "coarsen", "amr.coarsen"),
    ("amr", "reconstruct_refinement", "amr.reconstruct_refinement"),
    ("generators", "generate", "generators.generate"),
)

_REPORT_COUNTS = ("greedy_conflicts", "swaps", "loop_breaks",
                  "forced_reswaps", "restarts")


def _counts(span: str, args, result) -> dict[str, int]:
    """Work counts read off a traced call's arguments or result."""
    if span == "coloring.color":
        report = result[1]
        return {f"coloring.{k}": getattr(report, k) for k in _REPORT_COUNTS}
    if span == "meshio.read_native":
        return {"meshio.bytes_read": os.path.getsize(args[0])}
    if span == "meshio.write_native":
        return {"meshio.bytes_written": os.path.getsize(args[0])}
    if span == "sweeps.buffered":
        return {"sweeps.buffer_bytes": 2 * args[0].n_surfaces * 8}
    if span == "amr.refine":
        return {"amr.refined_parents": len(result[0].map.refined)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.round])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[self.round].update(_counts(name, args, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        packages = [m for n, m in list(sys.modules.items())
                    if n == "meshchroma" or n.startswith("meshchroma.")]
        undo = []
        for module, fname, span in TRACED:
            original = getattr(sys.modules.get(f"meshchroma.{module}"),
                               fname, None)
            if original is None:
                print(f"trace: meshchroma.{module}.{fname} not found; "
                      f"{span} is not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(span, original)
            for mod in packages:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def per_round(self) -> dict[int, dict[str, tuple[float, int]]]:
        """round -> span name -> (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(dict)
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            seconds, calls = out[rnd].get(name, (0.0, 0))
            out[rnd][name] = (seconds + end - start - child[i], calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rnd}) + "\n")
