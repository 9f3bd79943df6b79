import math

import pytest

from domus import designer, vm
from domus.aesthetics import Pattern, PatternDictionary
from domus.designer import SearchParams, compile_stamp, objective, optimize, stamp_prelude
from domus.world import ConstraintSet, EnclosedVolumeAtLeast, MaterialAtMost, Stability

BRICK = Pattern("brick", frozenset({(0, 0, 0), (1, 0, 0)}))
DICT1 = PatternDictionary((BRICK,))


def test_stamp_reproduces_pattern_cells():
    corner = Pattern("corner", frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}))
    stamp = compile_stamp(corner, "corner")
    prog = vm.Program((stamp, vm.Call("corner")))
    built = vm.execute(prog, (4, 4, 4))
    assert built.occupied == corner.cells


def test_stamp_prelude_names_are_valid_and_unique():
    odd = PatternDictionary((
        Pattern("Bad Name", frozenset({(0, 0, 0)})),
        Pattern("ok", frozenset({(0, 0, 0), (1, 0, 0)})),
    ))
    prelude = stamp_prelude(odd)
    names = [d.name for d in prelude]
    assert len(set(names)) == 2
    prog = vm.Program(prelude + tuple(vm.Call(n) for n in names))
    vm.execute(prog, (8, 8, 8))  # parses as valid identifiers


def test_objective_ground_stamp_is_zero():
    prelude = stamp_prelude(DICT1)
    prog = vm.Program(prelude + (vm.Call(prelude[0].name),))
    cs = ConstraintSet((Stability(weight=10.0),))
    assert objective(prog, DICT1, cs, (8, 8, 8)) == 0.0


def test_objective_empty_program_vs_volume_constraint():
    cs = ConstraintSet((EnclosedVolumeAtLeast(1, weight=3.0),))
    assert objective(vm.Program(()), DICT1, cs, (8, 8, 8)) == 3.0


def test_objective_floating_unexplained_cell():
    # residual "MOVE Z 1\nPLACE" is 14 bytes, plus one unstable cell at w=10
    cs = ConstraintSet((Stability(weight=10.0),))
    prog = vm.parse("MOVE Z 1 PLACE")
    assert objective(prog, DICT1, cs, (8, 8, 8)) == 24.0


def test_objective_execution_failure_is_inf():
    cs = ConstraintSet((Stability(weight=10.0),))
    assert objective(vm.parse("MOVE X -1 PLACE"), DICT1, cs, (8, 8, 8)) == math.inf


def test_objective_nonnegative():
    cs = ConstraintSet((Stability(weight=10.0), MaterialAtMost(4, weight=1.0)))
    for text in ("", "PLACE", "FILL 3 3 1", "MOVE Z 2 PLACE"):
        assert objective(vm.parse(text), DICT1, cs, (8, 8, 8)) >= 0.0


def _params(**kw):
    base = dict(seed=7, iterations=300, dims=(8, 8, 8),
                initial_temperature=8.0, cooling=0.999)
    base.update(kw)
    return SearchParams(**base)


def test_optimize_trace_shape_and_monotone_best():
    cs = ConstraintSet((Stability(weight=10.0), MaterialAtMost(2, weight=2.0)))
    best, trace = optimize(DICT1, cs, _params())
    assert len(trace.records) == 300
    bests = [r.best_so_far for r in trace.records]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    final = objective(best, DICT1, cs, (8, 8, 8))
    assert final == bests[-1]


def test_optimize_single_iteration():
    cs = ConstraintSet((Stability(weight=1.0),))
    best, trace = optimize(DICT1, cs, _params(iterations=1))
    assert len(trace.records) == 1
    assert objective(best, DICT1, cs, (8, 8, 8)) <= math.inf


def test_optimize_deterministic_given_seed():
    cs = ConstraintSet((Stability(weight=10.0), MaterialAtMost(2, weight=2.0)))
    a_prog, a_trace = optimize(DICT1, cs, _params())
    b_prog, b_trace = optimize(DICT1, cs, _params())
    assert vm.serialize(a_prog) == vm.serialize(b_prog)
    assert a_trace == b_trace


def test_optimize_returns_valid_program():
    cs = ConstraintSet((Stability(weight=10.0),))
    best, _ = optimize(DICT1, cs, _params(iterations=500, seed=3))
    assert vm.parse(vm.serialize(best)).instructions == best.instructions


def test_islands_independent_of_worker_count():
    cs = ConstraintSet((Stability(weight=10.0), MaterialAtMost(2, weight=2.0)))
    p = _params(iterations=120, islands=3)
    a_prog, a_trace = optimize(DICT1, cs, p, workers=1)
    b_prog, b_trace = optimize(DICT1, cs, p, workers=3)
    assert vm.serialize(a_prog) == vm.serialize(b_prog)
    assert a_trace == b_trace


def test_trace_csv_format():
    cs = ConstraintSet((Stability(weight=1.0),))
    _, trace = optimize(DICT1, cs, _params(iterations=3))
    lines = trace.to_csv().splitlines()
    assert lines[0] == "iter,objective,accepted,best"
    assert len(lines) == 4


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(iterations=0)
    with pytest.raises(ValueError):
        SearchParams(cooling=1.5)
    with pytest.raises(ValueError):
        SearchParams(initial_temperature=0)


def test_search_skips_candidates_nested_deeper_than_parse_reads(monkeypatch):
    # each proposal wraps the whole tail in a zero-placement REPEAT, which
    # leaves the objective as it is, so only the nesting cap stops the wraps
    def wrap(self, tail):
        return [vm.Repeat(2, tuple(tail) or (vm.Move("X", 1), vm.Move("X", -1)))]

    monkeypatch.setattr(designer._Editor, "propose", wrap)
    cs = ConstraintSet((Stability(weight=10.0),))
    _, trace = optimize(DICT1, cs, _params(iterations=vm.MAX_BLOCK_DEPTH + 20))
    assert sum(r.accepted for r in trace.records) == vm.MAX_BLOCK_DEPTH
