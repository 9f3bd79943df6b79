"""Command-line entry point.

Subcommands: build, render, complexity, beauty, natural, optimize,
attack, each taking only the options it reads. Reports are
deterministic JSON (or plain text with --format text) so that pipelines
diff cleanly; build and render write layered text, and only optimize
and attack take --seed. Worlds above MAX_RENDER_CELLS are not rendered;
attack refuses a fleet holding more cells than that, and a structure
whose attack grid would. complexity, beauty and natural refuse a
structure of more than synthesis.DEFAULT_CELL_LIMIT cells.
Exit codes: 0 success, 1 negative domain verdict (a structure judged
Artificial), 2 usage error, 3 execution or analysis error. Every build,
walk and witness check a command makes charges at most
vm.MAX_PLACEMENTS placements.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import aesthetics, designer, fleet, naturalness, synthesis, vm
from .errors import DomusError
from .world import ConstraintSet, VoxelStructure, load_constraints

__all__ = ["run", "render", "main"]

# the most cells build, render and optimize write out as layered text:
# 256^3, a 16 MB file
MAX_RENDER_CELLS = 1 << 24


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise DomusError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomusError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_structure(path: str, dims: tuple[int, int, int]) -> VoxelStructure:
    """A .cvm file is built at the given dims; anything else is read as
    the layered text format."""
    text = _read(path)
    if path.endswith(".cvm"):
        return vm.execute(vm.parse(text), dims)
    return VoxelStructure.from_layer_text(text)


def render(s: VoxelStructure) -> str:
    """Layered text, exactly as the structure file format."""
    return s.to_layer_text()


def _check_render_size(args):
    """Rendering costs time and memory in the world's cell count, so a
    world too large to render is refused before anything is read."""
    nx, ny, nz = args.dims
    if nx * ny * nz > MAX_RENDER_CELLS:
        args.parser.error(f"argument --dims: a {nx}x{ny}x{nz} world has more than "
                          f"{MAX_RENDER_CELLS} cells to render")


def _write(args, text: str):
    """The one writer of every command's output: the --out file, or
    else stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    _write(args, out)


def _cmd_build(args) -> int:
    _check_render_size(args)
    program = vm.parse(_read(args.file))
    _write(args, render(vm.execute(program, tuple(args.dims))) + "\n")
    return 0


def _cmd_render(args) -> int:
    if args.file.endswith(".cvm"):  # a structure file's world is its own
        _check_render_size(args)
    _write(args, render(_load_structure(args.file, tuple(args.dims))) + "\n")
    return 0


def _cmd_complexity(args) -> int:
    s = _load_structure(args.file, tuple(args.dims))
    bound = synthesis.synthesize_min(s)
    payload = {
        "length": bound.length,
        "method": bound.method,
        "program_text": vm.serialize(bound.program),
        "cells": len(s.occupied),
    }
    _emit(args, payload, [
        f"length: {bound.length}",
        f"method: {bound.method}",
        f"cells: {len(s.occupied)}",
        "program:",
        vm.serialize(bound.program),
    ])
    return 0


def _cmd_beauty(args) -> int:
    s = _load_structure(args.file, tuple(args.dims))
    dictionary = aesthetics.load_patterns(_read(args.dict))
    score = aesthetics.beauty_score(s, dictionary)
    payload = {
        "D": score.D,
        "N": score.N,
        "r": score.r,
        "score": score.score,
        "placements": [
            {"pattern": pl.pattern, "anchor": list(pl.anchor)}
            for pl in score.cover.placements
        ],
        "residual_cells": [list(c) for c in sorted(score.cover.residual)],
    }
    _emit(args, payload, [
        f"D: {score.D}",
        f"N: {score.N}",
        f"r: {score.r}",
        f"score: {score.score}",
        f"placements: {len(score.cover.placements)}",
        f"residual cells: {len(score.cover.residual)}",
    ])
    return 0


def _cmd_natural(args) -> int:
    s = _load_structure(args.file, tuple(args.dims))
    rep = naturalness.naturalness_report(s, threshold=args.threshold)
    payload = {
        "straightness": rep.straightness,
        "planarity": rep.planarity,
        "symmetry": rep.symmetry,
        "fractal_dimension": rep.fractal_dimension,
        "fit_r2": rep.fit_r2,
        "regularity_index": rep.regularity_index,
        "naturalness": rep.naturalness,
        "label": rep.label,
    }
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0 if rep.label == "Natural" else 1


def _cmd_optimize(args) -> int:
    _check_render_size(args)
    dictionary = aesthetics.load_patterns(_read(args.dict))
    cs: ConstraintSet = load_constraints(_read(args.constraints))
    params = designer.SearchParams(
        seed=args.seed,
        iterations=args.iters,
        initial_temperature=args.temperature,
        cooling=args.cooling,
        dims=tuple(args.dims),
        max_program_bytes=args.max_bytes,
        islands=args.islands,
    )
    try:
        best, trace = designer.optimize(dictionary, cs, params)
    except ValueError as exc:  # raised before the search: a cap below the prelude
        args.parser.error(f"argument --max-bytes: {exc}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "best.cvm").write_text(vm.serialize(best) + "\n", encoding="utf-8")
    built = vm.execute(best, tuple(args.dims))
    (out_dir / "best.vox.txt").write_text(render(built) + "\n", encoding="utf-8")
    (out_dir / "trace.csv").write_text(trace.to_csv(), encoding="utf-8")
    final = trace.records[-1].best_so_far
    payload = {
        "objective": final,
        "iterations": args.iters,
        "program_bytes": vm.program_length(best),
        "out_dir": str(out_dir),
    }
    _emit(args, payload, [f"objective: {final}", f"wrote {out_dir}/best.cvm"])
    return 0


def _cmd_attack(args) -> int:
    program = vm.parse(_read(args.file))
    dims = tuple(args.dims)
    prototype = vm.execute(program, dims)
    # a human member holds its own cells; robots share the prototype's
    held = args.fleet * (len(prototype.occupied) if args.builder == "human" else 1)
    if held > MAX_RENDER_CELLS:
        args.parser.error(f"argument --fleet: {args.fleet} {args.builder} members count as "
                          f"{held} cells, more than {MAX_RENDER_CELLS}")
    # the attack's grid spans the cells' x-y extent times their top z + 1
    box = prototype.bounding_box()
    if box is not None:
        (x0, y0, _), (x1, y1, z1) = box
        if (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 + 1) > MAX_RENDER_CELLS:
            raise DomusError(f"the attack grid of {args.file} spans more than "
                             f"{MAX_RENDER_CELLS} cells")
    atk = fleet.find_attack(prototype, args.k)
    if args.builder == "robot":
        model: fleet.BuilderModel = fleet.RobotBuilder()
    else:
        model = fleet.HumanBuilder(jitter_prob=args.p, seed=args.seed)
    members = fleet.build_fleet(program, args.fleet, model, dims)
    report = fleet.transfer_rate(atk, members, collapse_threshold=args.threshold)
    payload = {
        "attack_cells": [list(c) for c in sorted(atk.removed_cells)],
        "k": atk.k,
        "prototype_collapse": atk.collapse_fraction,
        "n": report.n,
        "distinct_structures": report.distinct_structures,
        "transfer_rate": report.transfer_rate,
    }
    _emit(args, payload, [
        f"attack: {sorted(atk.removed_cells)}",
        f"prototype collapse: {atk.collapse_fraction}",
        f"fleet: {report.n} members, {report.distinct_structures} distinct",
        f"transfer rate: {report.transfer_rate}",
    ])
    return 0


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = _number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _open_fraction(text: str) -> float:
    value = _number(float, text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _probability(text: str) -> float:
    value = _number(float, text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


# argparse keeps no state between parses, and every command copies
# args.dims, so one parser serves every run
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dims", type=_positive_int, nargs=3, default=[64, 64, 64],
                        metavar=("NX", "NY", "NZ"), help="world size (default 64 64 64)")
    common.add_argument("--out", "-o", default=None, help="write output to this file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "text"), default="json")

    p = argparse.ArgumentParser(prog="domus",
                                description="construction VM and analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", parents=[common], help="run a .cvm program")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_build, parser=sp)

    sp = sub.add_parser("render", parents=[common], help="print a structure as layered text")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_render, parser=sp)

    sp = sub.add_parser("complexity", parents=[common, report], help="shortest-program bound")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_complexity)

    sp = sub.add_parser("beauty", parents=[common, report], help="pattern-dictionary beauty score")
    sp.add_argument("file")
    sp.add_argument("--dict", required=True, help="pattern dictionary (.pat)")
    sp.set_defaults(fn=_cmd_beauty)

    sp = sub.add_parser("natural", parents=[common, report], help="regularity and fractal report")
    sp.add_argument("file")
    sp.add_argument("--threshold", type=_finite_float, default=0.5)
    sp.set_defaults(fn=_cmd_natural)

    sp = sub.add_parser("optimize", parents=[common, report], help="anneal a design")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--constraints", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--iters", type=_positive_int, default=1000)
    sp.add_argument("--temperature", type=_positive_float, default=8.0)
    sp.add_argument("--cooling", type=_open_fraction, default=0.999)
    sp.add_argument("--max-bytes", type=int, default=4096)
    sp.add_argument("--islands", type=_positive_int, default=1)
    sp.add_argument("--out-dir", default="design_out")
    sp.set_defaults(fn=_cmd_optimize, parser=sp)

    sp = sub.add_parser("attack", parents=[common, report], help="fleet attack transfer")
    sp.add_argument("file", help="program (.cvm)")
    sp.add_argument("--seed", type=int, default=0, help="human jitter seed")
    sp.add_argument("--fleet", type=_positive_int, default=50)
    sp.add_argument("--builder", choices=("robot", "human"), default="robot")
    sp.add_argument("--p", type=_probability, default=0.2, help="human jitter probability")
    sp.add_argument("--k", type=_positive_int, default=2, help="removal budget")
    sp.add_argument("--threshold", type=_finite_float, default=0.5)
    sp.set_defaults(fn=_cmd_attack, parser=sp)

    return p


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse's usage errors, also those found after parsing
        return int(exc.code) if exc.code else 0
    except (DomusError, OSError) as exc:
        print(f"domus: error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
