import hashlib
import math
import sys

import pytest

from domus import designer, synthesis, vm
from domus.aesthetics import Pattern, PatternDictionary, beauty_score, load_patterns
from domus.designer import SearchParams, compile_stamp, objective, optimize, stamp_prelude
from domus.world import ConstraintSet, EnclosedVolumeAtLeast, MaterialAtMost, Stability

from conftest import CORPUS

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


def test_stamp_prelude_renames_a_name_taken_by_a_fallback():
    # "Bad" falls back to p1, which the first pattern holds already
    taken = PatternDictionary((
        Pattern("p1", frozenset({(0, 0, 0)})),
        Pattern("Bad", frozenset({(0, 0, 0), (1, 0, 0)})),
    ))
    assert [d.name for d in stamp_prelude(taken)] == ["p1", "p1_1"]


def test_stamp_prelude_steps_past_a_taken_fallback():
    # "Bad" falls back to p2, then to p2_2, both taken already
    taken = PatternDictionary((
        Pattern("p2", frozenset({(0, 0, 0)})),
        Pattern("p2_2", frozenset({(0, 0, 0), (1, 0, 0)})),
        Pattern("Bad", frozenset({(0, 0, 0), (0, 1, 0)})),
    ))
    assert [d.name for d in stamp_prelude(taken)] == ["p2", "p2_2", "p2_3"]


def test_stamp_of_a_pattern_whose_bound_defines_subroutines_is_literal():
    # a DEF may not nest in a DEF, so the stamp falls back to the literal body
    carpet = vm.execute(vm.parse((CORPUS / "sierpinski3.cvm").read_text()), (27, 27, 1))
    assert len(carpet.occupied) == 512
    assert any(isinstance(ins, vm.Def)
               for ins in synthesis.synthesize_min(carpet).program.instructions)
    pattern = Pattern("carpet", carpet.occupied)
    stamp = compile_stamp(pattern, "carpet")
    assert not any(isinstance(ins, vm.Def) for ins in stamp.body)
    built = vm.execute(vm.Program((stamp, vm.Call("carpet"))), carpet.dims)
    assert built.occupied == pattern.cells


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


CORPUS_CS = ConstraintSet((Stability(weight=10.0), MaterialAtMost(2, weight=2.0)))
# the empty design scores 50 here, and so do stable designs that brick
# stamps cover exactly: the search scores stable non-empty structures
SHELTER_CS = ConstraintSet((EnclosedVolumeAtLeast(1, weight=50.0), Stability(weight=10.0)))

# sha256 of serialize(best) + trace.to_csv(); they move whenever the
# editor's RNG stream or the island seeding changes
GOLDEN_SEARCHES = [
    (CORPUS_CS, dict(), 1, "04904592ac9ad8e1871648d495261296a7a94bac8cc9c7e22c9f8123a81f671b"),
    (CORPUS_CS, dict(iterations=120, islands=3), 1,
     "a245f5a8c981d8e59d692ebe72b0970e41dd2a240893538c8f80658203c93354"),
    (CORPUS_CS, dict(iterations=120, islands=3), 2,
     "a245f5a8c981d8e59d692ebe72b0970e41dd2a240893538c8f80658203c93354"),
    (SHELTER_CS, dict(), 1, "93bfb234a49a1500c49f6aac4a82c85b0be3caad02fea74dde79d7907d17ff30"),
    # long enough that most candidates share chunks with the one before
    (CORPUS_CS, dict(iterations=3000), 1,
     "343736f7dbb56cfc6a8ecfa96ff513a49ce23c7bfb45e281fefa1d238b3cc131"),
]


@pytest.mark.parametrize("cs, kw, workers, digest", GOLDEN_SEARCHES,
                         ids=["single", "islands3-w1", "islands3-w2", "shelter", "long"])
def test_search_is_pinned(cs, kw, workers, digest):
    best, trace = optimize(DICT1, cs, _params(**kw), workers=workers)
    got = hashlib.sha256((vm.serialize(best) + trace.to_csv()).encode()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("cs", [CORPUS_CS, SHELTER_CS], ids=["corpus", "shelter"])
def test_trace_scores_each_candidate_by_the_objective(monkeypatch, cs):
    proposals = []
    propose = designer._Editor.propose

    def recording(self, tail):
        proposals.append(propose(self, tail))
        return proposals[-1]

    monkeypatch.setattr(designer._Editor, "propose", recording)
    params = _params(iterations=200)
    _, trace = optimize(DICT1, cs, params)
    prelude = stamp_prelude(DICT1)
    structures = []
    residual = False
    for record, proposal in zip(trace.records, proposals, strict=True):
        if proposal is None:
            continue
        candidate = vm.Program(prelude + tuple(proposal))
        if vm.program_length(candidate) > params.max_program_bytes:
            continue
        assert record.objective == objective(candidate, DICT1, cs, params.dims)
        if record.objective < math.inf:
            # a candidate that builds nests no deeper than vm.parse reads
            assert vm.parse(vm.serialize(candidate)) == candidate
            built = vm.execute(candidate, params.dims)
            structures.append(built.occupied)
            residual = residual or beauty_score(built, DICT1).r > 0
    # distinct structures, some scored more than once, some with a residual
    assert 1 < len(set(structures)) < len(structures)
    assert residual


@pytest.mark.parametrize("grow", [False, True], ids=["corpus", "grow"])
def test_a_search_keeps_the_summaries_of_its_current_and_best_chunks_only(monkeypatch, grow):
    if grow:
        # each larger structure is a new best, so the best tail changes
        # while it holds many chunks
        monkeypatch.setattr(designer, "_structure_score",
                            lambda built, dictionary, cs: -float(len(built.occupied)))
    # each iteration's candidate tail, None where it proposed nothing
    tails = []
    memos = []
    propose, edited, build = designer._Editor.propose, designer._Tail.edited, vm._build

    def proposing(self, tail):
        tails.append(None)
        return propose(self, tail)

    def editing(self, proposal):
        result = edited(self, proposal)
        tails[-1] = result[0]
        return result

    def building(top, dims, memo):
        # vm.execute builds through here too, each time with a fresh memo
        if sys._getframe(1).f_code is not vm.execute.__code__:
            memos.append(memo)
        return build(top, dims, memo)

    monkeypatch.setattr(designer._Editor, "propose", proposing)
    monkeypatch.setattr(designer._Tail, "edited", editing)
    monkeypatch.setattr(vm, "_build", building)
    params = _params(iterations=2000)
    _, trace = optimize(DICT1, CORPUS_CS, params)
    # the current and best tails, followed through the trace
    current = best = designer._Tail([], None, None, ())
    best_j = objective(vm.Program(stamp_prelude(DICT1)), DICT1, CORPUS_CS, params.dims)
    for record, tail in zip(trace.records, tails, strict=True):
        if record.accepted:
            current = tail
            if record.objective < best_j:
                best, best_j = current, record.objective
    memo = memos[-1]
    assert all(m is memo for m in memos)
    # tails holds every chunk alive, so no other body has a chunk's id
    chunks = {id(p) for t in tails if t is not None for p in t.pieces or ()
              if type(p) is vm._Chunk}
    kept = {id(p) for t in (current, best) for p in t.pieces or () if type(p) is vm._Chunk}
    held = {key[0] for key in memo} & chunks
    assert kept and held == kept


def test_islands_pick_the_lowest_final_best_then_the_lowest_index(monkeypatch):
    finals = {}

    def fake_anneal(dictionary, cs, params, seed, prelude):
        record = designer.TraceRecord(0, finals[seed], True, finals[seed])
        return vm.Program((vm.Move("X", seed),)), designer.SearchTrace((record,))

    monkeypatch.setattr(designer, "_anneal", fake_anneal)
    seeds = [designer._island_seed(7, i) for i in range(4)]
    cs = ConstraintSet(())
    for values, winner in (([5.0, 3.0, 4.0, 3.0], 1), ([math.inf] * 4, 0),
                           ([math.inf, 9.0, 2.0, 2.0], 2)):
        finals = dict(zip(seeds, values))
        best, _ = optimize(DICT1, cs, _params(islands=4))
        assert best.instructions == (vm.Move("X", seeds[winner]),)


def test_cap_below_stamp_prelude_is_refused():
    prelude_bytes = vm.program_length(vm.Program(stamp_prelude(DICT1)))
    cs = ConstraintSet((Stability(weight=1.0),))
    with pytest.raises(ValueError):
        optimize(DICT1, cs, _params(iterations=5, max_program_bytes=prelude_bytes - 1))
    best, _ = optimize(DICT1, cs, _params(iterations=5, max_program_bytes=prelude_bytes))
    assert vm.program_length(best) <= prelude_bytes


def test_trace_csv_format():
    cs = ConstraintSet((Stability(weight=1.0),))
    _, trace = optimize(DICT1, cs, _params(iterations=3))
    lines = trace.to_csv().splitlines()
    assert lines[0] == "iter,objective,accepted,best"
    assert len(lines) == 4


def test_trace_csv_writes_fractional_objectives_as_their_repr():
    # at weight 0.5 the material penalty comes in halves; a whole score
    # is written without ".0", a fractional one as repr writes it, as
    # `domus optimize` does with these settings
    dictionary = load_patterns((CORPUS / "brick.pat").read_text())
    cs = ConstraintSet((MaterialAtMost(0, weight=0.5),))
    _, trace = optimize(dictionary, cs, SearchParams(seed=3, iterations=200, dims=(8, 8, 8)))
    lines = trace.to_csv().splitlines()
    assert lines[:2] == ["iter,objective,accepted,best", "0,2,0,0"]
    assert lines[37:40] == ["36,31.5,0,0", "37,27,1,0", "38,28.5,1,0"]


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(iterations=0)
    with pytest.raises(ValueError):
        SearchParams(cooling=1.5)
    with pytest.raises(ValueError):
        SearchParams(initial_temperature=0)


def test_search_skips_candidates_nested_deeper_than_parse_reads(monkeypatch):
    # each proposal wraps the whole tail in a zero-placement REPEAT, which
    # leaves the objective as it is, so only the nesting limit stops the
    # wraps: a candidate past it fails to build and scores inf
    proposals = []

    def wrap(self, tail):
        proposals.append([vm.Repeat(2, tuple(tail) or (vm.Move("X", 1), vm.Move("X", -1)))])
        return proposals[-1]

    monkeypatch.setattr(designer._Editor, "propose", wrap)
    cs = ConstraintSet((Stability(weight=10.0),))
    best, trace = optimize(DICT1, cs, _params(iterations=vm.MAX_BLOCK_DEPTH + 20))
    accepted = [p for p, r in zip(proposals, trace.records, strict=True) if r.accepted]
    assert len(accepted) == vm.MAX_BLOCK_DEPTH
    assert all(r.objective == math.inf for r in trace.records[vm.MAX_BLOCK_DEPTH:])
    # the deepest design accepted, at the limit, and the best read back
    deepest = vm.Program(stamp_prelude(DICT1) + tuple(accepted[-1]))
    for program in (deepest, best):
        assert vm.parse(vm.serialize(program)) == program


def test_search_records_each_new_best(monkeypatch):
    # each cell built lowers the score, so accepted edits that build
    # more take the improvement branch
    def fewer_for_more(built, dictionary, cs):
        return 100.0 - len(built.occupied)

    monkeypatch.setattr(designer, "_structure_score", fewer_for_more)
    cs = ConstraintSet(())
    params = _params(iterations=200)
    best, trace = optimize(DICT1, cs, params)
    bests = [r.best_so_far for r in trace.records]
    assert sum(a > b for a, b in zip(bests, bests[1:])) >= 1
    assert objective(best, DICT1, cs, params.dims) == bests[-1]
    again, again_trace = optimize(DICT1, cs, params)
    assert vm.serialize(again) == vm.serialize(best) and again_trace == trace
