#!/usr/bin/env python3
"""The domus benchmark: four closed-loop workloads, every output checked.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --baseline

Run it from the root of a checkout; it builds nothing and imports domus
from `src/`. A run repeats rounds of its workload, one operation after
the other in one process, until the next round would end after
`--seconds` (at least one round). Each round has four timed phases,
reported as `phase1_s` .. `phase4_s`: per phase, the sum over its
operations of each one's median sample, in paced seconds
(`bench/pace.py`). `bench/README.md` maps the phases to the per-command
names (`attack_s`, `enumerate_s`, ...) that the report lines also print.
`setup_s` is the median of five fresh child processes, each timing
`import domus` plus loading the workload's inputs through domus's
loaders.

With `--trace 1` the run does one round untraced, the same round with a
span around every public function of domus, and one more round
untraced, timed in CPU seconds without pacing, and reports the
per-layer metrics and the tracing overhead instead.

`--baseline` times the ROADMAP Baseline rows this benchmark covers, once
each, and prints them as a table.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable

import buildings
from checks import (CheckFailed, carpet, enclosed_volume, read_layers, read_patterns,
                    require, run_program, unsupported)
from pace import REF_NOMINAL_S, Paced, cpu
from tracer import Tracer, layer_metrics, per_layer_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

PHASES = ("phase1_s", "phase2_s", "phase3_s", "phase4_s")
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))

# the reference interpreter runs a witness once a run, however often the
# operation that made it is sampled
rebuild = cache(run_program)


@dataclass
class Op:
    """One timed operation. `key` names it and its inputs; the digest
    of its output is stored under `digest_key` (default: `key`).
    `count` is how many operations one call stands for; `samples` is
    how many times a round runs it."""

    key: str
    phase: int | None  # None: checked, but outside the four phases
    fn: Callable
    check: Callable  # output -> text to digest; raises CheckFailed
    count: int = 1
    digest_key: str | None = None
    samples: int = 1


class Aborted(Exception):
    """An operation raised, so the run cannot go on."""


class Ledger:
    """Samples of every operation, the operations attempted and failed,
    and what changed against the digests in bench/digests.json. Samples
    are in paced seconds, or in CPU seconds without `paced`."""

    def __init__(self, recorded: dict[str, str], paced: bool = True):
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.changed: set[str] = set()
        self.unrecorded: set[str] = set()
        self.ops: dict[str, Op] = {}
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}  # wall seconds
        self.paced = paced
        self.tracer: Tracer | None = None

    def run(self, op: Op):
        gc.collect()  # garbage left by earlier operations is not this one's cost
        try:
            with Paced() if self.paced else Unpaced() as timing:
                out = op.fn()
        except Exception as exc:
            self.attempted += op.count
            self.failed += op.count
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            raise Aborted(op.key) from exc
        self.raw.setdefault(op.key, []).append(timing.wall)
        self.samples.setdefault(op.key, []).append(timing.paced)
        self.ops.setdefault(op.key, op)
        self.attempted += op.count
        self._check(op, out)
        return out

    def phases(self, wall: bool = False) -> list[float]:
        """Per phase, the sum over its operations of their median sample,
        or of their median wall time with `wall`."""
        samples = self.raw if wall else self.samples
        t = [0.0] * 4
        for key, op in self.ops.items():
            if op.phase is not None:
                t[op.phase] += statistics.median(samples[key])
        return t

    def _check(self, op: Op, out):
        key = op.digest_key or op.key
        if self.tracer is not None:
            self.tracer.active = False
        try:
            payload = op.check(out)
        except CheckFailed as exc:
            self.failed += exc.args[1] if len(exc.args) > 1 else 1
            self.failures.append(f"{op.key}: {exc.args[0]}")
            return
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        if self.seen.setdefault(key, digest) != digest:
            self.failed += 1
            self.failures.append(f"{op.key}: output differs between repeats")
        ref = self.recorded.get(key)
        if ref is None:
            self.unrecorded.add(key)
        elif ref != digest:
            self.changed.add(key)


class Unpaced:
    """Times one operation in wall and CPU seconds, like `Paced` without
    its timer signal, so no reading runs inside a traced span."""

    def __enter__(self):
        self._start_wall, self._start_cpu = time.perf_counter(), cpu()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start_wall
        self.paced = cpu() - self._start_cpu
        return False


def drive(work, ledger: Ledger) -> None:
    """One round: run the workload's operations in order, each
    `op.samples` times, sending its last output back to the generator
    that yielded it."""
    ops, out = work.ops(), None
    while True:
        try:
            op = ops.send(out)
        except StopIteration:
            return
        for _ in range(op.samples):
            out = ledger.run(op)


def measure(work, ledger: Ledger, seconds: float) -> int:
    """Rounds until the next one would end after `seconds`, at least
    one. Returns the number of rounds."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        drive(work, ledger)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return len(walls)


def cli(dm, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dm.cli.run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cli_ok(result, codes=(0,)) -> dict:
    code, out, err = result
    require(code in codes, f"exit {code}: {err.strip()}")
    return json.loads(out)


# --- corpus: the criterion-8 pipeline through cli.run ---

PROGRAMS = {
    "row3.cvm": (4, 1, 1),
    "slab4.cvm": (8, 8, 4),
    "pillar.cvm": (4, 4, 10),
    "bridge.cvm": (8, 1, 8),
    "sierpinski2.cvm": (9, 9, 1),
    "sierpinski3.cvm": (27, 27, 1),
    "sierpinski4.cvm": (81, 81, 1),
}

EXPECTED = {
    "row3.cvm": frozenset({(0, 0, 0), (1, 0, 0), (2, 0, 0)}),
    "slab4.cvm": frozenset((x, y, 0) for x in range(4) for y in range(4)),
    "pillar.cvm": frozenset((0, 0, z) for z in range(8)),
    "bridge.cvm": frozenset({(0, 0, z) for z in range(4)} | {(5, 0, z) for z in range(4)}
                            | {(x, 0, 4) for x in range(6)}),
    "sierpinski2.cvm": carpet(2),
    "sierpinski3.cvm": carpet(3),
    "sierpinski4.cvm": carpet(4),
}

ATTACK_ARGS = ["--k", "2", "--seed", "1", "--builder", "human", "--p", "0.2", "--fleet", "20"]
# attack takes most of a round, so a run has one round; the quick
# commands whose times moved most between runs get more samples in it
COMPLEXITY_SAMPLES = 3
NATURAL_SAMPLES = 5


class Corpus:
    """Seven bundled programs at their criterion-8 dims: build, then
    complexity, beauty, natural and attack, in a seeded program order."""

    phases = ("complexity_s", "beauty_s", "natural_s", "attack_s")

    def __init__(self, dm, seed: int, tmp: Path):
        self.dm, self.tmp = dm, tmp
        self.order = sorted(PROGRAMS)
        random.Random(seed).shuffle(self.order)
        self.brick = read_patterns((CORPUS / "brick.pat").read_text(encoding="utf-8"))
        self.results = {"result.bound_bytes": 0}

    def probe_input(self) -> dict:
        return {"programs": self.order}

    def ops(self):
        self.results["result.bound_bytes"] = 0
        for name in self.order:
            yield from self._program_ops(name)

    def _program_ops(self, name: str):
        dm, dims, cells = self.dm, PROGRAMS[name], EXPECTED[name]
        d = [str(v) for v in dims]
        src, vox = CORPUS / name, self.tmp / f"{name}.vox.txt"
        key = f"corpus/{name}/"

        def check_build(res):
            require(res[0] == 0, f"exit {res[0]}: {res[2].strip()}")
            text = vox.read_text(encoding="utf-8")
            require(read_layers(text) == (dims, cells), "built cells differ from the reference")
            return text

        yield Op(key + "build", None, lambda: cli(dm, ["build", src, "--dims", *d, "-o", vox]),
                 check_build)

        def check_complexity(res):
            rep = cli_ok(res)
            text = rep["program_text"]
            require(len(text.encode()) == rep["length"], "length is not the witness's byte length")
            require(rebuild(text, dims) == cells, "witness does not rebuild the input")
            require(rep["cells"] == len(cells), "cell count")
            return res[1]

        res = yield Op(key + "complexity", 0,
                       lambda: cli(dm, ["complexity", vox, "--dims", *d]), check_complexity,
                       samples=COMPLEXITY_SAMPLES)
        self.results["result.bound_bytes"] += json.loads(res[1])["length"]

        def check_beauty(res):
            rep = cli_ok(res)
            covered, dlen = set(), 0
            for pl in rep["placements"]:
                ax, ay, az = pl["anchor"]
                stamp = {(ax + x, ay + y, az + z) for (x, y, z) in self.brick[pl["pattern"]]}
                require(stamp <= cells, f"placement {pl} leaves the structure")
                covered |= stamp
                dlen += len(f"STAMP {pl['pattern']} {ax} {ay} {az}")
            dlen += max(0, len(rep["placements"]) - 1)
            residual = {tuple(c) for c in rep["residual_cells"]}
            require(not covered & residual and covered | residual == cells,
                    "covered plus residual is not the occupied set")
            require(rep["D"] == dlen and rep["N"] == len(self.brick), "D or N")
            require(rep["score"] == rep["D"] * rep["N"] + rep["r"], "score != D*N + r")
            return res[1]

        yield Op(key + "beauty", 1,
                 lambda: cli(dm, ["beauty", vox, "--dict", CORPUS / "brick.pat", "--dims", *d]),
                 check_beauty)

        def check_natural(res):
            rep = cli_ok(res, codes=(0, 1))
            parts = [rep["straightness"], rep["planarity"], rep["symmetry"]]
            require(all(0.0 <= v <= 1.0 for v in parts), "score outside [0, 1]")
            require(abs(rep["regularity_index"] - sum(parts) / 3) < 1e-12, "regularity index")
            require(abs(rep["naturalness"] - (1 - rep["regularity_index"])) < 1e-12, "naturalness")
            natural = rep["naturalness"] >= 0.5
            require(rep["label"] == ("Natural" if natural else "Artificial"), "label")
            require(res[0] == (0 if natural else 1), "exit code does not match the label")
            return res[1]

        yield Op(key + "natural", 2, lambda: cli(dm, ["natural", vox, "--dims", *d]),
                 check_natural, samples=NATURAL_SAMPLES)

        def check_attack(res):
            rep = cli_ok(res)
            removed = frozenset(tuple(c) for c in rep["attack_cells"])
            require(rep["k"] == 2 and len(removed) <= 2, "removal exceeds k")
            require(removed <= cells, "removal outside the structure")
            remaining = cells - removed
            newly = unsupported(remaining) - unsupported(cells)
            frac = len(newly) / len(remaining) if remaining else 0.0
            require(rep["prototype_collapse"] == frac, "collapse differs from the reference")
            require(rep["n"] == 20 and 1 <= rep["distinct_structures"] <= 20, "fleet size")
            require(0.0 <= rep["transfer_rate"] <= 1.0, "transfer rate outside [0, 1]")
            return res[1]

        yield Op(key + "attack", 3, lambda: cli(dm, ["attack", src, "--dims", *d, *ATTACK_ARGS]),
                 check_attack)

    def report(self, t: list[float]) -> list[str]:
        return [f"bound_bytes {self.results['result.bound_bytes']} bytes lower (exact)"]


# --- anneal: designer.optimize at the criterion-6 and criterion-8 settings ---

ANNEAL_ITERS = 1000
ISLAND_ITERS = 150
ISLANDS = 3
ISLAND_SAMPLES = 5  # the island searches are the quickest operations of a round


class Anneal:
    """Single-island annealing at 8^3 with brick.pat and constraints.json
    (seed 7, T0 8.0, cooling 0.999, 1000 iterations), the criterion-8
    island setup with 1 worker and with nproc workers, and the same
    single-island search through `domus optimize`."""

    phases = ("anneal_s", "islands_w1_s", "islands_wN_s", "cli_optimize_s")

    def __init__(self, dm, seed: int, tmp: Path):
        # the iteration rate depends on the search path, so every seed
        # runs the criterion-6 search; --seed does not change the inputs
        self.dm, self.tmp = dm, tmp
        self.dict_path, self.cs_path = CORPUS / "brick.pat", CORPUS / "constraints.json"
        self.dictionary = dm.aesthetics.load_patterns(self.dict_path.read_text(encoding="utf-8"))
        self.cs = dm.world.load_constraints(self.cs_path.read_text(encoding="utf-8"))
        self.single = dm.designer.SearchParams(seed=7, iterations=ANNEAL_ITERS, dims=(8, 8, 8),
                                               initial_temperature=8.0, cooling=0.999)
        self.islands = dm.designer.SearchParams(seed=7, iterations=ISLAND_ITERS, dims=(8, 8, 8),
                                                islands=ISLANDS)
        self.results = {"result.anneal_objective": 0.0}

    def probe_input(self) -> dict:
        return {}

    def _check_search(self, params, result) -> str:
        best, trace = result
        bests = [r.best_so_far for r in trace.records]
        require(len(bests) == params.iterations, "trace length")
        require(all(a >= b for a, b in zip(bests, bests[1:])), "best-so-far increased")
        score = self.dm.designer.objective(best, self.dictionary, self.cs, params.dims)
        require(score == bests[-1], f"re-scored best {score} != trace's final best {bests[-1]}")
        return self.dm.vm.serialize(best) + "\n" + trace.to_csv()

    def ops(self):
        dm = self.dm
        best, trace = yield Op(
            "anneal/single", 0, lambda: dm.designer.optimize(self.dictionary, self.cs, self.single),
            lambda res: self._check_search(self.single, res))
        self.results["result.anneal_objective"] = trace.records[-1].best_so_far
        for phase, workers in ((1, 1), (2, NPROC)):
            # one digest for both: the worker count must not change the result
            yield Op(f"anneal/islands_w{workers}", phase,
                     lambda w=workers: dm.designer.optimize(self.dictionary, self.cs,
                                                            self.islands, workers=w),
                     lambda res: self._check_search(self.islands, res),
                     digest_key="anneal/islands", samples=ISLAND_SAMPLES)
        out_dir = self.tmp / "design"
        want = dm.vm.serialize(best) + "\n" + trace.to_csv()

        def check_cli(res):
            rep = cli_ok(res)
            cvm = (out_dir / "best.cvm").read_text(encoding="utf-8")
            csv = (out_dir / "trace.csv").read_text(encoding="utf-8")
            require(cvm + csv == want, "CLI search differs from the library's")
            require(rep["objective"] == trace.records[-1].best_so_far, "reported objective")
            return cvm + csv + json.dumps(rep["objective"])

        yield Op("anneal/cli", 3, lambda: cli(dm, [
            "optimize", "--dict", self.dict_path, "--constraints", self.cs_path,
            "--dims", "8", "8", "8", "--seed", "7", "--iters", ANNEAL_ITERS,
            "--out-dir", out_dir]), check_cli)

    def report(self, t: list[float]) -> list[str]:
        return [f"anneal_iters_per_s {ANNEAL_ITERS / t[0]:.2f} 1/s higher ({ANNEAL_ITERS} iterations)",
                f"islands_iters_per_s {ISLANDS * ISLAND_ITERS / t[2]:.2f} 1/s higher "
                f"({ISLANDS} x {ISLAND_ITERS} iterations, {NPROC} workers; "
                f"{t[1] / t[2]:.3f}x the 1-worker rate)",
                f"anneal_objective {self.results['result.anneal_objective']} bytes lower (exact)"]


# --- oracle: criterion 1 ---

ORACLE_DIMS = (3, 3, 3)
ORACLE_LEN = 40
# a run has one round, so each operation is sampled more than once in it
TABLE_SAMPLES = 2
BOUNDS_SAMPLES = 2


def classify(cells: frozenset) -> str:
    """Criterion 1's shape classes: single, row, cuboid or other."""
    k = len(cells)
    if k == 0:
        return "other"
    if k == 1:
        return "single"
    axes = [{c[i] for c in cells} for i in range(3)]
    spans = [max(v) - min(v) + 1 for v in axes]
    if spans[0] * spans[1] * spans[2] == k:
        return "cuboid"
    varying = [len(v) > 1 for v in axes]
    if sum(varying) == 1:
        vals = sorted(c[varying.index(True)] for c in cells)
        if vals == list(range(vals[0], vals[0] + k)):
            return "row"
    return "other"


class Oracle:
    """The exhaustive table for 3^3 up to 40 bytes, then synthesize_min on
    every structure of at most 4 cells, in three equal parts (every third
    structure of the enumeration, each part in a seeded order), each
    bound held to the oracle by criterion 1's rules."""

    phases = ("enumerate_s", "bounds_a_s", "bounds_b_s", "bounds_c_s")

    def __init__(self, dm, seed: int, tmp: Path):
        self.dm = dm
        rng = random.Random(seed)
        cells = [(x, y, z) for z in range(3) for y in range(3) for x in range(3)]
        every = [dm.world.VoxelStructure(ORACLE_DIMS, frozenset(c))
                 for k in range(5) for c in combinations(cells, k)]
        self.groups = []  # (phase, structures)
        for phase in (1, 2, 3):
            group = every[phase - 1::3]
            rng.shuffle(group)
            self.groups.append((phase, group))
        self.table = None
        self.results = {}

    def probe_input(self) -> dict:
        return {}

    def _check_table(self, table) -> str:
        lines = []
        for cells, b in table.items():
            text = self.dm.vm.serialize(b.program)
            require(len(text) == b.length <= ORACLE_LEN, "oracle length")
            require(rebuild(text, ORACLE_DIMS) == cells, "oracle witness does not rebuild")
            lines.append(f"{sorted(cells)} {text!r}")
        return "\n".join(sorted(lines))

    def _check_bounds(self, structures, bounds) -> str:
        bad, lines = [], []
        for s, b in zip(structures, bounds):
            cells = s.occupied
            text = self.dm.vm.serialize(b.program)
            oracle = self.table.get(cells)
            shape = classify(cells)
            if len(text) != b.length or rebuild(text, ORACLE_DIMS) != cells:
                bad.append(f"{sorted(cells)}: witness")
            elif shape != "other":
                if oracle is None or b.length != oracle.length:
                    bad.append(f"{shape} {sorted(cells)}: {b.length} vs oracle")
            elif oracle is not None and b.length < oracle.length:
                bad.append(f"{sorted(cells)}: {b.length} beat the oracle")
            elif oracle is None and b.length <= ORACLE_LEN:
                bad.append(f"{sorted(cells)}: {b.length} <= {ORACLE_LEN} but no oracle")
            lines.append(f"{sorted(cells)} {text!r}")
        if bad:
            raise CheckFailed(f"{len(bad)} bounds break criterion 1, e.g. {bad[0]}", len(bad))
        return "\n".join(sorted(lines))

    def ops(self):
        dm = self.dm
        self.table = yield Op(
            "oracle/table", 0, lambda: dm.synthesis.exhaustive_table(ORACLE_DIMS, ORACLE_LEN),
            self._check_table, samples=TABLE_SAMPLES)
        for i, (phase, group) in enumerate(self.groups):
            yield Op(f"oracle/bounds{i}", phase,
                     lambda g=group: [dm.synthesis.synthesize_min(s) for s in g],
                     lambda bounds, g=group: self._check_bounds(g, bounds), count=len(group),
                     samples=BOUNDS_SAMPLES)

    def report(self, t: list[float]) -> list[str]:
        n = sum(len(g) for _, g in self.groups)
        return [f"tiny_bounds_per_s {n / sum(t[1:]):.1f} 1/s higher ({n} structures)"]


# --- fleet: seeded buildings on the 64^3 site ---

FLEET_K = 2
BATCH = 100  # members per build_fleet call
ROBOT_BATCHES = 4
HUMAN_BATCHES = 6
ROBOTS = BATCH * ROBOT_BATCHES
HUMANS = BATCH * HUMAN_BATCHES
JITTER = 0.2
COLLAPSE_THRESHOLD = 0.01  # the attacks take 2-4% of a building


class Fleet:
    """One seeded building per run: a site check through eval_constraints,
    find_attack, then robot and human fleets of BATCH members each, every
    human fleet with its own builder seed, scored by transfer_rate."""

    phases = ("site_check_s", "fleet_attack_s", "robot_fleet_s", "human_fleet_s")

    def __init__(self, dm, seed: int, tmp: Path):
        self.dm, self.seed = dm, seed
        self.text = buildings.building(seed)
        self.site_text = (BENCH / "site.json").read_text(encoding="utf-8")
        self.program = dm.vm.parse(self.text)
        self.cs = dm.world.load_constraints(self.site_text)
        self.cells = run_program(self.text, buildings.SITE)
        self.key = "fleet/" + hashlib.sha256(self.text.encode()).hexdigest()[:12]
        self.penalties = self._expected_penalties()
        self.results = {}

    def probe_input(self) -> dict:
        return {"program": self.text, "site": self.site_text}

    def _expected_penalties(self) -> tuple[float, ...]:
        """The site constraints, evaluated by the reference code."""
        out = []
        for c in json.loads(self.site_text):
            kind, p, w = c["kind"], c["params"], c["weight"]
            if kind == "Stability":
                v = len(unsupported(self.cells, p["max_overhang"]))
            elif kind == "EnclosedVolumeAtLeast":
                v = max(0, p["v_min"] - enclosed_volume(self.cells))
            elif kind == "MaterialAtMost":
                v = max(0, len(self.cells) - p["m_max"])
            else:
                x0, y0, z0, x1, y1, z1 = p["box"]
                v = sum(1 for (x, y, z) in self.cells
                        if not (x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1))
            out.append(w * v)
        return tuple(out)

    def ops(self):
        dm, site, want = self.dm, buildings.SITE, self.penalties

        def site_check():
            proto = dm.vm.execute(self.program, site)
            return proto, dm.world.eval_constraints(proto, self.cs)

        def check_site(res):
            proto, pen = res
            require(proto.occupied == self.cells, "built cells differ from the reference")
            require(pen.penalties == want, f"penalties {pen.penalties} != reference {want}")
            return repr(pen.penalties)

        proto, _ = yield Op(self.key + "/site", 0, site_check, check_site)

        def check_attack(atk):
            removed = atk.removed_cells
            require(atk.k == FLEET_K and len(removed) <= FLEET_K, "removal exceeds k")
            require(removed <= self.cells, "removal outside the building")
            remaining = self.cells - removed
            frac = len(unsupported(remaining) - unsupported(self.cells)) / len(remaining)
            require(atk.collapse_fraction == frac, f"collapse {atk.collapse_fraction} != {frac}")
            return f"{sorted(removed)} {atk.collapse_fraction!r}"

        atk = yield Op(self.key + "/attack", 1, lambda: dm.fleet.find_attack(proto, FLEET_K),
                       check_attack)
        bridge_like = atk.collapse_fraction >= COLLAPSE_THRESHOLD

        def fleet(model, n):
            members = dm.fleet.build_fleet(self.program, n, model, site)
            return members, dm.fleet.transfer_rate(atk, members, COLLAPSE_THRESHOLD)

        def check_robots(res):
            members, rep = res
            require(len(members) == BATCH == rep.n, "fleet size")
            require(all(m == proto for m in members), "robot members differ")
            require(rep.transfer_rate == (1.0 if bridge_like else 0.0),
                    f"robot transfer {rep.transfer_rate} on a structure the attack "
                    f"{'collapses' if bridge_like else 'leaves standing'}")
            return repr(rep)

        for i in range(ROBOT_BATCHES):
            # one digest for all: every robot fleet is the same
            yield Op(f"{self.key}/robots{i}", 2, lambda: fleet(dm.fleet.RobotBuilder(), BATCH),
                     check_robots, count=BATCH, digest_key=self.key + "/robots")

        def check_humans(res):
            members, rep = res
            require(len(members) == BATCH == rep.n, "fleet size")
            require(1 <= rep.distinct_structures <= BATCH, "distinct members")
            require(0.0 <= rep.transfer_rate <= 1.0, "transfer rate outside [0, 1]")
            return repr(rep)

        for i in range(HUMAN_BATCHES):
            builder_seed = self.seed * HUMAN_BATCHES + i
            yield Op(f"{self.key}/humans{builder_seed}", 3,
                     lambda s=builder_seed: fleet(dm.fleet.HumanBuilder(JITTER, s), BATCH),
                     check_humans, count=BATCH)

    def report(self, t: list[float]) -> list[str]:
        members = ROBOTS + HUMANS
        return [f"fleet_members_per_s {members / (t[2] + t[3]):.1f} 1/s higher "
                f"({ROBOTS} robots, {HUMANS} humans in fleets of {BATCH}; members are "
                f"{(t[2] + t[3]) / sum(t):.0%} of the round)"]


WORKLOADS = {"corpus": Corpus, "anneal": Anneal, "oracle": Oracle, "fleet": Fleet}


# --- the run ---

def setup_probe(name: str, probe_input: dict) -> tuple[float, float]:
    """Paced and wall seconds of one fresh import plus input loading, in
    a child process (bench/pace.py)."""
    res = subprocess.run([sys.executable, str(BENCH / "probe.py"), name],
                         input=json.dumps(probe_input), capture_output=True, text=True,
                         cwd=ROOT, timeout=120, check=True)
    wall, used, ref = (float(v) for v in res.stdout.split()[-3:])
    return used * REF_NOMINAL_S / ref, wall


def stamp() -> list[str]:
    import numpy
    return [f"python {platform.python_version()}, numpy {numpy.__version__}, nproc {NPROC}, "
            f"{platform.machine()}"]


def run(args) -> dict:
    import domus as dm
    import domus.cli  # noqa: F401  (not imported by the package itself)

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    ledger = Ledger(recorded, paced=not args.trace)
    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    lines = [f"domus bench: workload {args.workload}, seed {args.seed}, "
             f"seconds {args.seconds:g}, trace {args.trace}"] + stamp()
    try:
        work = WORKLOADS[args.workload](dm, args.seed, tmp)
        try:
            if args.trace:
                metrics = traced(dm, work, ledger, args, lines)
            else:
                metrics = measured(work, ledger, args, lines)
        except Aborted:
            metrics = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines.append(f"ops attempted {ledger.attempted}, failed {ledger.failed}; outputs changed "
                 f"since the stored digests: {len(ledger.changed)} of "
                 f"{len(ledger.seen) - len(ledger.unrecorded)} "
                 f"({len(ledger.unrecorded)} not recorded)")
    lines += [f"FAILED {f}" for f in ledger.failures[:20]]
    for line in lines:
        print("# " + line)
    return {"correct": ledger.failed == 0 and bool(metrics), "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def measured(work, ledger, args, lines) -> dict:
    """The timed run: end-to-end metrics."""
    n = measure(work, ledger, args.seconds)
    probe_input = work.probe_input()
    probes = [setup_probe(args.workload, probe_input) for _ in range(SETUP_PROBES)]
    setup = statistics.median(p[0] for p in probes)
    phases, walls = ledger.phases(), ledger.phases(wall=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"{n} rounds; median sample of each operation, summed per phase, "
                 f"in paced seconds (wall):")
    for slot, name, v, w in zip(PHASES, work.phases, phases, walls):
        lines.append(f"{name} {v:.4f} s lower ({slot}; wall {w:.4f} s)")
    lines += work.report(phases)
    lines.append(f"setup_s {setup:.4f} s lower (wall {statistics.median(p[1] for p in probes):.4f} s)"
                 f"; peak_rss_mb {rss:.1f} MB lower")
    metrics = {"setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    for slot, v in zip(PHASES, phases):
        metrics[slot] = {"value": v, "unit": "s"}
    return metrics


def traced(dm, work, ledger, args, lines) -> dict:
    """The traced run: one round untraced, the same round traced, and
    one more untraced, so warm-up and drift fall on both sides of the
    traced round; the overhead is measured against their mean."""

    def round_time() -> float:
        ledger.samples.clear()
        drive(work, ledger)
        return sum(ledger.phases())

    before = round_time()
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    ledger.tracer = tracer
    tracer.install(dm)
    try:
        spans_time = round_time()
    finally:
        tracer.remove()
        ledger.tracer = None
    plain = (before + round_time()) / 2
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path)
    m = layer_metrics(tracer.spans)
    m.update(work.results)
    m["trace.overhead_s"] = spans_time - plain
    m["trace.overhead_pct"] = 100 * (spans_time - plain) / plain
    m["bench.outputs_changed"] = len(ledger.changed)
    lines.append(f"traced round {spans_time:.3f} s, untraced {plain:.3f} s (mean of two), "
                 f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return {name: {"value": m.get(name, 0), "unit": unit} for name, unit, _ in per_layer_names()}


# --- the ROADMAP Baseline rows ---

def baseline() -> int:
    import domus as dm
    import domus.cli  # noqa: F401

    tmp = OUT / f"baseline-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    rows = []

    def row(what, argv_or_fn, note=""):
        start = time.perf_counter()
        res = argv_or_fn() if callable(argv_or_fn) else cli(dm, argv_or_fn)
        elapsed = time.perf_counter() - start
        if not callable(argv_or_fn) and res[0] != 0:
            raise SystemExit(f"bench: {what} exited {res[0]}: {res[2].strip()}")
        rows.append((what, elapsed, note))

    try:
        s4, vox = CORPUS / "sierpinski4.cvm", tmp / "s4.vox.txt"
        d4 = ["--dims", "81", "81", "1"]
        row("`domus optimize … --iters 5000` (8³, criterion-6 settings)",
            ["optimize", "--dict", CORPUS / "brick.pat", "--constraints",
             CORPUS / "constraints.json", "--dims", "8", "8", "8", "--seed", "7",
             "--iters", "5000", "--out-dir", tmp / "design"], "one `optimize` run of criterion 6")
        cli(dm, ["build", s4, *d4, "-o", vox])
        row("`domus attack sierpinski4 --fleet 20`", ["attack", s4, *d4, *ATTACK_ARGS])
        row("`domus beauty sierpinski4`", ["beauty", vox, "--dict", CORPUS / "brick.pat", *d4])
        row("`domus complexity sierpinski4`", ["complexity", vox, *d4])
        one = dm.world.VoxelStructure((64, 64, 64), frozenset({(32, 32, 0)}))
        row("`enclosed_volume`, one cell in 64³", lambda: dm.world.enclosed_volume(one))

        def criterion_1():
            table = dm.synthesis.exhaustive_table(ORACLE_DIMS, ORACLE_LEN)
            cells = [(x, y, z) for z in range(3) for y in range(3) for x in range(3)]
            for k in range(5):
                for c in combinations(cells, k):
                    dm.synthesis.synthesize_min(dm.world.VoxelStructure(ORACLE_DIMS, frozenset(c)))
            return table

        row("criterion 1 (exhaustive oracle)", criterion_1, "enumeration plus 20,854 bounds")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("Baseline rows, wall time of single runs on " + stamp()[0])
    print()
    print("| what | time | note |")
    print("|---|---|---|")
    for what, elapsed, note in rows:
        print(f"| {what} | {elapsed:.2f} s | {note} |")
    print()
    print("Not timed here: the Tier-1 suite and criterion 8 (pytest runs), and one cell "
          "under 22 nested REPEATs, the hostile-input case of ROADMAP item 5.")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="time the ROADMAP Baseline rows")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "domus" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"bench: no domus source tree (src/domus, corpus) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.baseline:
        return baseline()
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
