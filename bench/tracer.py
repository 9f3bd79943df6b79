"""Spans around the public functions of domus, recorded from outside.

`Tracer.install` replaces every module attribute that binds one of the
traced functions, not only the one in the defining module: `fleet`
imports `check_stability` and `unsupported_cells` by name, and
`designer` imports `cover` and `eval_constraints` by name, so patching
the defining module alone would miss their calls. `Tracer.remove`
puts the originals back.

A span is (id, parent id, name, start, end, thread, run id, note); the
note carries what the layer metrics count, such as the error class of
a failed call or the size of a result. Spans stay in memory until
`write` saves them at the end of the run.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import math
import threading
import time
from collections import defaultdict

MODULES = ("vm", "world", "synthesis", "aesthetics", "naturalness", "designer", "fleet", "cli")

# public functions that some workload calls; exhaustive_min,
# relative_complexity, dump_patterns and cli.main are never called
TRACED = {
    "vm": ("parse", "serialize", "program_length", "execute"),
    "world": ("check_stability", "unsupported_cells", "enclosed_volume",
              "eval_constraints", "load_constraints"),
    "synthesis": ("literal_program", "synthesize_min", "exhaustive_table"),
    "aesthetics": ("cover", "description_length", "beauty_score", "load_patterns"),
    "naturalness": ("straightness_score", "planarity_score", "symmetry_score",
                    "box_counting_dimension", "naturalness_report"),
    "designer": ("objective", "optimize", "compile_stamp", "stamp_prelude"),
    "fleet": ("build_fleet", "collapse_fraction", "find_attack", "transfer_rate"),
    "cli": ("run", "render"),
}

EXEC_ERRORS = ("OutOfBounds", "UnknownName", "BudgetExceeded", "DepthExceeded")


def _note(name: str, args, kwargs, result):
    """What a span records about its result, by function."""
    if name == "vm.execute":
        jitter = kwargs.get("jitter", args[3] if len(args) > 3 else None)
        return ("jitter" if jitter is not None else "det", len(result.occupied))
    if name == "world.unsupported_cells":
        return bool(result)
    if name == "synthesis.synthesize_min":
        return result.length
    if name == "synthesis.exhaustive_table":
        return len(result)
    if name == "aesthetics.cover":
        return len(result.placements)
    if name == "designer.objective":
        return result
    if name == "designer.optimize":
        records = result[1].records
        return (sum(r.accepted for r in records), len(records))
    if name == "fleet.build_fleet":
        return len(result)
    return None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []
        self.active = True  # off while the benchmark checks an output

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the call that is
        # waiting on it in the main thread (the island pool)
        return self._main_stack[-1] if self._main_stack else -1

    def wrap(self, name: str, fn):
        spans, ids = self.spans, self._ids
        run_id = self.run_id

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                spans.append((sid, parent, name, start, end, threading.get_ident(),
                              run_id, ("error", type(exc).__name__)))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans.append((sid, parent, name, start, end, threading.get_ident(),
                          run_id, _note(name, args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, domus):
        modules = [getattr(domus, m) for m in MODULES]
        for short, names in TRACED.items():
            home = getattr(domus, short)
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start", "end", "thread", "run", "note"))
            out.writerows(self.spans)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals; parallel children overlap."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))

    def under(span, target: str) -> bool:
        pid = span[1]
        while pid in by_id:
            if by_id[pid][2] == target:
                return True
            pid = by_id[pid][1]
        return False

    m: dict[str, float] = defaultdict(float)
    for short, names in TRACED.items():
        for fname in names:
            m[f"{short}.{fname}.calls"] = 0
            m[f"{short}.{fname}.self_s"] = 0.0
    accepted = iterations = 0
    stab_calls = useful = 0
    for s in spans:
        sid, _, name, start, end, _, _, note = s
        dur = end - start
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += dur - _covered(children.get(sid, []))
        failed = isinstance(note, tuple) and note[0] == "error"
        if name == "vm.execute":
            if failed:
                key = note[1] if note[1] in EXEC_ERRORS else "other"
                m[f"vm.execute.errors.{key}"] += 1
            else:
                m["vm.execute.cells_out"] += note[1]
                if note[0] == "jitter":
                    m["vm.execute.jitter_calls"] += 1
                    m["vm.execute.jitter_self_s"] += dur
            if under(s, "synthesis.synthesize_min"):
                m["synthesis.verify_s"] += dur
        elif failed:
            continue
        elif name == "world.unsupported_cells" and under(s, "fleet.find_attack"):
            stab_calls += 1
            useful += note
        elif name == "synthesis.synthesize_min":
            m["synthesis.synthesize_min.bytes_out"] += note
        elif name == "synthesis.exhaustive_table":
            m["synthesis.exhaustive_table.entries"] += note
        elif name == "aesthetics.cover":
            m["aesthetics.cover.placements_out"] += note
        elif name == "designer.objective":
            m["designer.objective.inf"] += note == math.inf
        elif name == "designer.optimize":
            accepted += note[0]
            iterations += note[1]
        elif name == "fleet.build_fleet":
            m["fleet.build_fleet.members"] += note
    m["fleet.find_attack.stability_calls"] = stab_calls
    m["fleet.find_attack.useful_ratio"] = useful / stab_calls if stab_calls else 0.0
    m["designer.accept_ratio"] = accepted / iterations if iterations else 0.0
    m["trace.spans"] = len(spans)
    return dict(m)


EXTRA = (
    ("vm.execute.cells_out", "count", "lower"),
    ("vm.execute.jitter_calls", "count", "lower"),
    ("vm.execute.jitter_self_s", "s", "lower"),
    *((f"vm.execute.errors.{e}", "count", "lower") for e in EXEC_ERRORS + ("other",)),
    ("synthesis.synthesize_min.bytes_out", "bytes", "lower"),
    ("synthesis.verify_s", "s", "lower"),
    ("synthesis.exhaustive_table.entries", "count", "higher"),
    ("aesthetics.cover.placements_out", "count", "lower"),
    ("designer.objective.inf", "count", "lower"),
    ("designer.accept_ratio", "ratio", "higher"),
    ("fleet.find_attack.stability_calls", "count", "lower"),
    ("fleet.find_attack.useful_ratio", "ratio", "higher"),
    ("fleet.build_fleet.members", "count", "higher"),
    ("result.bound_bytes", "bytes", "lower"),
    ("result.anneal_objective", "bytes", "lower"),
    ("bench.outputs_changed", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for short, names in TRACED.items():
        for fname in names:
            out += [(f"{short}.{fname}.calls", "count", "lower"),
                    (f"{short}.{fname}.self_s", "s", "lower")]
    return out + list(EXTRA)
