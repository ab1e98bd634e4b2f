"""Command-line front end tying the pipeline together.

    meshchroma generate --family tri_rect --nx 64 --ny 64 -o mesh.mm
    meshchroma color -i mesh.mm -o colored.mm --seed 0
    meshchroma verify -i colored.mm
    meshchroma reorder -i colored.mm -o final.mm --metric
    meshchroma race-check -i final.mm

Exit codes: 0 success, 1 invalid mesh or coloring, 2 coloring failed,
3 refinement constraint violated, 4 I/O failure, 64 usage error.
``verify`` exits 0 on a valid mesh that carries no coloring yet, and
says so.  On a colored refinement file (refined PARENTS entries) it
applies ``coarsen``'s rule: the file must be a refinement this program
writes, colors included, and when it is not, ``verify`` exits with
``coarsen``'s code and message.
MESHCHROMA_SEED supplies the default seed where --seed is accepted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .amr import (
    RefinedMesh,
    check_parent_layout,
    coarsen,
    reconstruct_refinement,
    refine,
)
from .coloring import SurfaceColoring, color, verify_coloring
from .errors import (
    DanglingVertexError,
    LevelConstraintError,
    MalformedSectionError,
    NonManifoldError,
    PartialFamilyError,
    PlanMeshMismatchError,
    RestartsExhaustedError,
    UnrefinableKindError,
    UnsupportedVersionError,
    WriteConflictError,
)
from .generators import FAMILIES, GeneratorSpec, generate
from .mesh import inverse_permutation, relabel
from .meshio import (
    NativeMesh,
    read_msh,
    read_native,
    write_native,
    write_report,
)
from .reorder import apply_plan, build_plan, coalescing_metric
from .sweeps import (
    default_payload,
    memory_saved,
    sweep_buffered,
    sweep_colored,
    sweep_sequential,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COLORING = 2
EXIT_AMR = 3
EXIT_IO = 4
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _id_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list"
        )


def _size_list(text: str) -> list[int]:
    sizes = _id_list(text)
    if not sizes:
        raise argparse.ArgumentTypeError("at least one size is needed")
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"sizes in {text!r} must be positive"
        )
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(
            f"sizes in {text!r} must increase strictly"
        )
    return sizes


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; ``parse_args``
    leaves it unchanged, so every call of ``main`` shares it."""
    parser = _Parser(
        prog="meshchroma",
        description="Surface coloring, refinement, and reordering "
                    "for race-free parallel mesh sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command", parser_class=_Parser)

    p = sub.add_parser("generate", help="build a structured test mesh")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--nx", required=True, type=_positive)
    p.add_argument("--ny", required=True, type=_positive)
    p.add_argument("--nz", type=_positive, default=1)
    p.add_argument("--periodic", action="store_true",
                   help="wrap both axes (tri_rect / quad_rect)")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("color", help="color all surfaces")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None,
                   help="write the report here instead of stdout")

    p = sub.add_parser("verify",
                       help="check mesh consistency and coloring validity; "
                            "a colored refinement file must pass "
                            "coarsen's check, and fails as coarsen would")
    p.add_argument("-i", "--input", required=True)

    p = sub.add_parser("refine",
                       help="split selected triangles 1:4, keeping "
                            "surfaces race-free under 6 colors")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--elements", type=_id_list,
                       help="comma-separated element ids")
    group.add_argument("--all", action="store_true")

    p = sub.add_parser("coarsen",
                       help="merge refinement families back together")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--parents", required=True, type=_id_list,
                   help="base element ids whose children to merge")

    p = sub.add_parser("reorder",
                       help="renumber elements and surfaces by color")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--metric", action="store_true",
                   help="print coalescing fractions before and after")

    p = sub.add_parser("race-check",
                       help="run all three sweep strategies and compare")
    p.add_argument("-i", "--input", required=True)

    p = sub.add_parser("memsave",
                       help="buffer bytes a colored sweep avoids")
    p.add_argument("--p", required=True, type=_positive,
                   help="polynomial degree of the DG solver, >= 1")
    p.add_argument("--neq", required=True, type=_positive,
                   help="equations per basis function")
    p.add_argument("--ns", required=True, type=_positive,
                   help="surface count")

    p = sub.add_parser("stats", help="coloring scaling study")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--sizes", required=True, type=_size_list,
                   help="comma-separated linear cell counts, positive "
                        "and strictly increasing")
    p.add_argument("--seed", type=int, default=None)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MESHCHROMA_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(
            f"MESHCHROMA_SEED={env!r} is not an integer"
        ) from None


def _read_mesh_file(path) -> NativeMesh:
    if str(path).endswith(".msh"):
        return NativeMesh(mesh=read_msh(path))
    return read_native(path)


def _require_coloring(nm: NativeMesh):
    if nm.coloring is None:
        raise ValueError("input file has no COLORS section; color it first")
    return nm.coloring


def _is_refinement(nm: NativeMesh) -> bool:
    """Whether the file records a refinement: refined PARENTS entries."""
    return nm.parents is not None and bool((nm.parents >= 0).any())


def _recorded_refinement(nm: NativeMesh):
    """The refinement a file with refined PARENTS records, rebuilt on
    the element and surface order before any renumbering the file
    records; raises as ``reconstruct_refinement`` does.  A file without
    colors has only its parent table checked, and gives None."""
    mesh, coloring = nm.mesh, nm.coloring
    ep, sp = mesh.element_perm, mesh.surface_perm
    parents = nm.parents if ep is None else nm.parents[ep]
    if coloring is None:
        check_parent_layout(parents, mesh.n_elements)
        return None
    if ep is not None:
        mesh = relabel(mesh, inverse_permutation(ep), inverse_permutation(sp))
        coloring = SurfaceColoring(coloring.colors[sp], coloring.n_colors)
    return reconstruct_refinement(mesh, parents, coloring)


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(family=args.family, nx=args.nx, ny=args.ny,
                         nz=args.nz, periodic=args.periodic)
    mesh = generate(spec)
    write_native(args.output, mesh)
    print(f"{mesh.n_elements} elements, {mesh.n_surfaces} surfaces "
          f"-> {args.output}")
    return EXIT_OK


def _cmd_color(args) -> int:
    nm = _read_mesh_file(args.input)
    if _is_refinement(nm):
        raise LevelConstraintError(
            "input is refined; coarsen it before coloring")
    coloring, report = color(nm.mesh, _resolve_seed(args))
    write_native(args.output, nm.mesh, coloring=coloring,
                 parents=nm.parents, source=nm)
    write_report(report, args.report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the readers assemble the mesh from its elements, so it holds the
    # surfaces they imply; what is left to check is the refinement and
    # the coloring
    nm = _read_mesh_file(args.input)
    if _is_refinement(nm):
        _recorded_refinement(nm)
    if nm.coloring is None:
        print("mesh has no coloring")
        return EXIT_OK
    diags = verify_coloring(nm.mesh, nm.coloring)
    for diag in diags:
        print(f"{diag.code}: {diag.message}")
    if diags:
        return EXIT_INVALID
    used = np.count_nonzero(np.bincount(nm.coloring.colors))
    print(f"complete valid coloring with {used} colors")
    return EXIT_OK


def _cmd_refine(args) -> int:
    nm = _read_mesh_file(args.input)
    coloring = _require_coloring(nm)
    if _is_refinement(nm):
        raise LevelConstraintError(
            "input is already refined; one level is the maximum"
        )
    ids = (range(nm.mesh.n_elements) if args.all else args.elements)
    refined, fine_coloring = refine(nm.mesh, coloring, ids)
    write_native(args.output, refined.mesh, coloring=fine_coloring,
                 parents=refined.parents, source=nm)
    print(f"refined {len(refined.map.refined)} elements; "
          f"{refined.mesh.n_elements} elements, "
          f"{refined.mesh.n_surfaces} surfaces -> {args.output}")
    return EXIT_OK


def _cmd_coarsen(args) -> int:
    nm = _read_mesh_file(args.input)
    _require_coloring(nm)
    if not _is_refinement(nm):
        raise PartialFamilyError("input has no refinement to coarsen")
    refined, fine_coloring = _recorded_refinement(nm)
    result, out_coloring = coarsen(refined, fine_coloring, args.parents)
    if isinstance(result, RefinedMesh):
        write_native(args.output, result.mesh, coloring=out_coloring,
                     parents=result.parents, source=nm)
        print(f"{len(result.map.refined)} elements stay refined "
              f"-> {args.output}")
    else:
        write_native(args.output, result, coloring=out_coloring, source=nm)
        print(f"fully coarsened -> {args.output}")
    return EXIT_OK


def _cmd_reorder(args) -> int:
    nm = _read_mesh_file(args.input)
    coloring = _require_coloring(nm)
    plan = build_plan(nm.mesh, coloring)
    new_mesh, new_coloring = apply_plan(nm.mesh, coloring, plan)
    parents = None
    if nm.parents is not None:
        parents = np.empty_like(nm.parents)
        parents[plan.element_perm] = nm.parents
    write_native(args.output, new_mesh, coloring=new_coloring,
                 parents=parents, source=nm)
    if args.metric:
        before = coalescing_metric(nm.mesh, coloring)
        after = coalescing_metric(new_mesh, new_coloring)
        write_report({
            "aggregate_before": f"{before.aggregate:.6f}",
            "aggregate_after": f"{after.aggregate:.6f}",
            "used_fallback": int(plan.used_fallback),
        })
    return EXIT_OK


def _cmd_race_check(args) -> int:
    nm = _read_mesh_file(args.input)
    coloring = _require_coloring(nm)
    mesh = nm.mesh
    payload = default_payload(mesh.n_surfaces)
    seq = sweep_sequential(mesh, payload)
    col = sweep_colored(mesh, coloring, payload)
    buf = sweep_buffered(mesh, payload)
    ok = (np.array_equal(seq.totals, col.totals)
          and np.array_equal(seq.totals, buf.totals))
    lines = {
        "sequential_checksum": seq.checksum(),
        "colored_checksum": col.checksum(),
        "buffered_checksum": buf.checksum(),
    }
    closed = bool((mesh.surf_elems[:, 1] >= 0).all())
    if closed:
        total = int(seq.totals.sum())
        lines["accumulator_total"] = total
        ok = ok and total == 0
    lines["result"] = "PASS" if ok else "FAIL"
    write_report(lines)
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_memsave(args) -> int:
    est = memory_saved(args.p, args.neq, args.ns)
    print(f"{est.n_bytes} bytes ({est.gb_truncated} GB)")
    return EXIT_OK


def _loglog_slope(xs, ys) -> float | None:
    """Least-squares slope of log(y) against log(x); None when the fit
    is impossible (fewer than two points, or a value <= 0)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or (xs <= 0).any() or (ys <= 0).any():
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _cmd_stats(args) -> int:
    # how coloring cost grows with the surface count: color one generated
    # mesh per size (n-by-n cells, n-by-n-by-n for tets) and fit log-log
    # slopes of color()'s own seconds and of the greedy conflict count
    seed = _resolve_seed(args)
    reports = []
    for n in args.sizes:
        nz = n if args.family == "tet_prism" else 1
        mesh = generate(GeneratorSpec(family=args.family, nx=n, ny=n,
                                      nz=nz))
        _, report = color(mesh, seed)
        reports.append(report)
        write_report({
            "family": args.family,
            "cells": n,
            "n_elements": report.n_elements,
            "n_surfaces": report.n_surfaces,
            "n_colors": report.n_colors,
            "greedy_conflicts": report.greedy_conflicts,
            "swaps": report.swaps,
            "seconds": f"{report.total_seconds:.6f}",
        })
        print()
    surfaces = [r.n_surfaces for r in reports]
    summary = {"points": len(reports)}
    for key, ys in (("time_slope", [r.total_seconds for r in reports]),
                    ("conflict_slope",
                     [r.greedy_conflicts for r in reports])):
        slope = _loglog_slope(surfaces, ys)
        summary[key] = "none" if slope is None else f"{slope:.4f}"
    write_report(summary)
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "refine": _cmd_refine,
    "coarsen": _cmd_coarsen,
    "reorder": _cmd_reorder,
    "race-check": _cmd_race_check,
    "memsave": _cmd_memsave,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RestartsExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLORING
    except (LevelConstraintError, UnrefinableKindError,
            PartialFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMR
    except (UnsupportedVersionError, MalformedSectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NonManifoldError, DanglingVertexError, WriteConflictError,
            PlanMeshMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
