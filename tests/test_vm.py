import copy
import itertools
import pickle
import re
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from domus import designer, vm
from domus.errors import DomusError
from domus.world import VoxelStructure


# --- parsing ---

def test_parse_single_place():
    assert vm.parse("PLACE").instructions == (vm.Place(),)


def test_parse_repeat():
    p = vm.parse("REPEAT 3 { PLACE MOVE X 1 }")
    assert p.instructions == (vm.Repeat(3, (vm.Place(), vm.Move("X", 1))),)


def test_repeat_keeps_the_dataclass_hash():
    body = (vm.Place(), vm.Repeat(2, (vm.Move("X", 1),)))
    r = vm.Repeat(3, body)
    assert hash(r) == hash((3, body))
    assert r == vm.Repeat(3, body) and r != vm.Repeat(4, body)
    # a pickle rebuilds the hash: string hashes differ between processes
    data = pickle.dumps(r)
    assert b"_hash" not in data
    back = pickle.loads(data)
    assert back == r and hash(back) == hash(r)


def test_parse_def_and_call():
    p = vm.parse("DEF a { PLACE } CALL a 3")
    assert p.instructions == (vm.Def("a", (vm.Place(),)), vm.Call("a", 3))


def test_parse_call_default_scale():
    p = vm.parse("DEF a { PLACE } CALL a")
    assert p.instructions[1] == vm.Call("a", 1)


def test_parse_is_whitespace_insensitive():
    a = vm.parse("PLACE\n\n  MOVE   X \t 1")
    b = vm.parse("PLACE MOVE X 1")
    assert a == b


def test_unknown_name():
    with pytest.raises(vm.UnknownName):
        vm.parse("CALL b")


def test_call_before_def_is_unknown():
    with pytest.raises(vm.UnknownName):
        vm.parse("CALL a DEF a { PLACE }")


def test_recursive_call():
    with pytest.raises(vm.RecursiveCall):
        vm.parse("DEF a { CALL a }")


@pytest.mark.parametrize("text", [
    "REPEAT 1 { PLACE }",
    "FILL 0 1 1",
    "MOVE X 0",
    "DEF a { PLACE } CALL a 0",
])
def test_bad_literals(text):
    with pytest.raises(vm.BadLiteral):
        vm.parse(text)


@pytest.mark.parametrize("text", [
    "MOVE X 01",        # leading zero
    "PLACE }",
    "REPEAT 2 { PLACE",
    "FILL 1 1",
    "MOVE W 1",
    "BOGUS",
    "DEF A { PLACE }",  # uppercase ident
    "REPEAT 2 { DEF a { PLACE } }",
    "DEF a { PLACE } DEF a { PLACE }",
])
def test_syntax_errors(text):
    with pytest.raises(vm.ParseError):
        vm.parse(text)


def test_parse_rejects_deep_nesting():
    depth = vm.MAX_BLOCK_DEPTH
    vm.parse("REPEAT 2 { " * depth + "PLACE" + " }" * depth)
    with pytest.raises(vm.ParseError, match="nested deeper"):
        vm.parse("REPEAT 2 { " * (depth + 1) + "PLACE" + " }" * (depth + 1))
    with pytest.raises(vm.ParseError):
        vm.parse("REPEAT 2 { " * 3000 + "PLACE" + " }" * 3000)


def test_parse_error_carries_position():
    with pytest.raises(vm.ParseError) as exc:
        vm.parse("PLACE\nMOVE Q 1")
    assert exc.value.line == 2


# --- canonical serialization ---

def test_serialize_canonical_forms():
    assert vm.serialize(vm.Program((vm.Place(),))) == "PLACE"
    assert vm.serialize(vm.Program((vm.Place(), vm.Move("X", 1)))) == "PLACE\nMOVE X 1"
    assert (vm.serialize(vm.Program((vm.Repeat(3, (vm.Place(), vm.Move("X", 1))),)))
            == "REPEAT 3 {\nPLACE\nMOVE X 1\n}")


def test_serialize_omits_unit_scale():
    p = vm.Program((vm.Def("a", (vm.Place(),)), vm.Call("a", 1)))
    assert vm.serialize(p).endswith("CALL a")


def test_program_length_examples():
    assert vm.program_length(vm.parse("PLACE")) == 5
    assert vm.program_length(vm.parse("PLACE MOVE X 1 PLACE MOVE X 1 PLACE")) == 35
    assert vm.program_length(vm.parse("FILL 3 1 1")) == 10


def test_empty_program():
    p = vm.parse("")
    assert p.instructions == ()
    assert vm.serialize(p) == ""
    assert vm.program_length(p) == 0
    assert vm.execute(p, (2, 2, 2)).occupied == frozenset()


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)


def _instr(depth: int):
    base = st.one_of(
        st.just(vm.Place()),
        st.builds(vm.Move, st.sampled_from("XYZ"),
                  st.integers(-12, 12).filter(lambda n: n != 0)),
        st.builds(vm.Fill, st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    )
    if depth == 0:
        return base
    body = st.lists(_instr(depth - 1), min_size=1, max_size=4).map(tuple)
    return st.one_of(base, st.builds(vm.Repeat, st.integers(2, 9), body))


@st.composite
def _programs(draw):
    names = draw(st.lists(_ident, min_size=0, max_size=3, unique=True))
    instrs = []
    defined = []
    for name in names:
        body = draw(st.lists(_instr(1), min_size=1, max_size=4))
        body = list(body)
        if defined and draw(st.booleans()):
            body.append(vm.Call(draw(st.sampled_from(defined)),
                                draw(st.integers(1, 3))))
        instrs.append(vm.Def(name, tuple(body)))
        defined.append(name)
    tail = draw(st.lists(_instr(1), min_size=0, max_size=6))
    for ins in tail:
        instrs.append(ins)
        if defined and draw(st.booleans()):
            instrs.append(vm.Call(draw(st.sampled_from(defined)),
                                  draw(st.integers(1, 3))))
    return vm.Program(tuple(instrs))


@given(_programs())
@settings(max_examples=200, deadline=None)
def test_roundtrip_parse_serialize(program):
    text = vm.serialize(program)
    assert vm.parse(text) == program
    assert vm.serialize(vm.parse(text)) == text


@given(_programs())
@settings(max_examples=200, deadline=None)
@example(vm.parse("PLACE"))
@example(vm.parse(""))
@example(vm.parse("MOVE X -12\nFILL 10 1 3"))
@example(vm.parse("REPEAT 3 {\nPLACE\nMOVE X 1\n}"))
@example(vm.parse("REPEAT 2 {\n}"))
@example(vm.parse("DEF a {\n}"))
@example(vm.parse("DEF ab {\nPLACE\n}\nCALL ab 2\nCALL ab"))
@example(vm.parse("DEF a {\nREPEAT 12 {\nMOVE Z -2\nPLACE\n}\n}\nCALL a\nCALL a"))
def test_program_length_matches_serialization(program):
    assert vm.program_length(program) == len(vm.serialize(program))


def _any_tree_instr(depth: int):
    """Instructions that vm.parse may not read: a DEF at any level,
    which rebinds its name for the instructions after it, and CALLs of
    names that may be unbound."""
    base = st.one_of(
        st.just(vm.Place()),
        st.builds(vm.Move, st.sampled_from("XYZ"), st.sampled_from((-10, 1, 2))),
        st.builds(vm.Call, st.sampled_from(("a", "b", "c")), st.integers(1, 12)),
    )
    if depth == 0:
        return base
    body = st.lists(_any_tree_instr(depth - 1), max_size=3).map(tuple)
    return st.one_of(base, st.builds(vm.Repeat, st.integers(2, 12), body),
                     st.builds(vm.Def, st.sampled_from(("a", "b", "c")), body))


def _rebuilt(tree, how):
    if how == "pickle":
        return pickle.loads(pickle.dumps(tree))
    if how == "copy":
        return tuple(copy.copy(ins) for ins in tree)
    return copy.deepcopy(tree)


@given(st.lists(_any_tree_instr(3), max_size=6).map(tuple),
       st.sampled_from(("pickle", "copy", "deepcopy")))
@settings(max_examples=300, deadline=None)
@example((vm.Def("a", (vm.Repeat(2, (vm.Place(),)),)),
          vm.Repeat(2, (vm.Def("a", (vm.Repeat(3, (vm.Repeat(2, ()),)),)), vm.Call("a"))),
          vm.Repeat(2, (vm.Call("a"),))), "pickle")
def test_kept_lengths_match_the_serialization(tree, how):
    # each tree is priced three times over the same block objects, whose
    # lengths are kept from the first pass, then once rebuilt
    for t in (tree, tree[::-1], tree + tree, _rebuilt(tree, how)):
        assert vm.body_length(t) == len(vm.serialize(vm.Program(t)))


# --- execution ---

def test_execute_place_origin():
    s = vm.execute(vm.parse("PLACE"), (3, 3, 3))
    assert s.occupied == {(0, 0, 0)}


def test_execute_repeat_row():
    s = vm.execute(vm.parse("REPEAT 3 { PLACE MOVE X 1 }"), (4, 1, 1))
    assert s.occupied == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}


def test_execute_scaled_stamp():
    s = vm.execute(vm.parse("DEF a { FILL 1 1 1 } CALL a 2"), (4, 4, 4))
    assert s.occupied == {(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)}


def test_execute_out_of_bounds():
    with pytest.raises(vm.OutOfBounds):
        vm.execute(vm.parse("MOVE X -1 PLACE"), (3, 3, 3))


def test_cursor_may_leave_the_box_without_placing():
    s = vm.execute(vm.parse("MOVE X -5 MOVE X 5 PLACE"), (2, 2, 2))
    assert s.occupied == {(0, 0, 0)}


def test_fill_out_of_bounds_aborts():
    with pytest.raises(vm.OutOfBounds):
        vm.execute(vm.parse("FILL 3 1 1"), (2, 2, 2))


def test_call_restores_cursor():
    s = vm.execute(vm.parse("DEF a { MOVE X 3 PLACE } CALL a PLACE"), (8, 1, 1))
    assert s.occupied == {(3, 0, 0), (0, 0, 0)}


def test_scale_composes_multiplicatively():
    nested = vm.parse("DEF b { FILL 1 1 1 } DEF a { CALL b 2 } CALL a 3")
    inlined = vm.parse("FILL 6 6 6")
    assert vm.execute(nested, (8, 8, 8)) == vm.execute(inlined, (8, 8, 8))


def test_scale_multiplies_moves():
    p = vm.parse("DEF a { MOVE X 2 PLACE } CALL a 3")
    s = vm.execute(p, (8, 1, 1))
    assert s.occupied == {(6, 0, 0)}


def test_determinism():
    p = vm.parse("REPEAT 5 { FILL 2 1 1 MOVE Y 2 MOVE X 1 }")
    a = vm.execute(p, (16, 16, 4))
    b = vm.execute(p, (16, 16, 4))
    assert a == b and a.occupied == b.occupied


def test_placement_budget(monkeypatch):
    p = vm.parse("FILL 3 3 3")
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 5)
    with pytest.raises(vm.BudgetExceeded):
        vm.execute(p, (3, 3, 3))
    with pytest.raises(vm.BudgetExceeded, match="placements"):
        vm.walk(p, _no_box)


def test_call_depth_limit(monkeypatch):
    p = vm.parse("DEF a { PLACE } DEF b { CALL a } DEF c { CALL b } CALL c")
    monkeypatch.setattr(vm, "MAX_BLOCK_DEPTH", 3)
    vm.execute(p, (2, 2, 2))
    monkeypatch.setattr(vm, "MAX_BLOCK_DEPTH", 2)
    with pytest.raises(vm.DepthExceeded):
        vm.execute(p, (2, 2, 2))


def _both_engines(program, dims):
    """The structure, or the fault, of each engine's build."""
    return (_outcome(lambda: vm.execute(program, dims)),
            _outcome(lambda: _strict_walk(program, dims)))


def _hand_built_nest(levels: int, body=(vm.Place(),)) -> tuple:
    # vm.parse reads no nest past MAX_BLOCK_DEPTH, so it is built from
    # the dataclasses
    for _ in range(levels):
        body = (vm.Repeat(2, body),)
    return body


def test_a_hand_built_nest_past_the_limit_is_refused_by_both_engines():
    assert _both_engines(vm.Program(_hand_built_nest(2000)), (1, 1, 1)) == (vm.DepthExceeded,) * 2


def test_a_hand_built_nest_past_the_limit_is_priced_and_written():
    # neither recurses: each reckons the nest level by level, and a
    # block that already keeps its length ends the measuring walk
    inner = vm.Program(_hand_built_nest(2000))
    text = "REPEAT 2 {\n" * 2000 + "PLACE" + "\n}" * 2000
    assert vm.program_length(inner) == len(vm.serialize(inner)) == len(text)
    assert vm.serialize(inner) == text
    outer = vm.Program(_hand_built_nest(2000, inner.instructions))
    assert vm.program_length(outer) == len(vm.serialize(outer)) == 2 * len(text) - 5


def test_a_40_deep_call_chain_builds_in_both_engines():
    text = "DEF a0 { PLACE } " + " ".join(f"DEF a{i} {{ CALL a{i - 1} }}" for i in range(1, 40))
    want = VoxelStructure((1, 1, 1), {(0, 0, 0)})
    assert _both_engines(vm.parse(text + " CALL a39"), (1, 1, 1)) == (want, want)


def test_engines_count_each_repeat_body_and_call_as_one_level():
    # a's body nests 99 zero-placement REPEATs, so its DEF is as deep as
    # vm.parse reads; calling it is level 1, and one more CALL or REPEAT
    # around that CALL makes the innermost body level 101
    depth = vm.MAX_BLOCK_DEPTH
    inner = ("DEF a { " + "REPEAT 2 { " * (depth - 1) + "MOVE X 1 MOVE X -1"
             + " }" * (depth - 1) + " } ")
    assert vm.execute(vm.parse(inner + "CALL a"), (1, 1, 1)).occupied == frozenset()
    for text in (inner + "DEF b { CALL a } CALL b", inner + "REPEAT 2 { CALL a }"):
        assert _both_engines(vm.parse(text), (1, 1, 1)) == (vm.DepthExceeded,) * 2


def test_stamp_neutrality():
    base = vm.parse("REPEAT 3 { PLACE MOVE X 1 }")
    unused = vm.Def("zz", (vm.Fill(2, 1, 1), vm.Move("Y", 3)))
    extended = vm.Program(base.instructions + (unused,))
    delta = vm.program_length(extended) - vm.program_length(base)
    assert delta == vm.program_length(vm.Program((unused,))) + 1
    assert vm.execute(base, (5, 5, 5)) == vm.execute(extended, (5, 5, 5))


def test_def_below_top_level_rejected_at_execution():
    bogus = vm.Program((vm.Repeat(2, (vm.Def("a", (vm.Place(),)),)),))
    with pytest.raises(vm.DslError):
        vm.execute(bogus, (2, 2, 2))


_NOT_INSTRUCTIONS = [(vm.Place(),), "PLACE"]


@pytest.mark.parametrize("nested", [False, True], ids=["top", "in REPEAT"])
@pytest.mark.parametrize("bogus", _NOT_INSTRUCTIONS, ids=["tuple", "str"])
@pytest.mark.parametrize("use", [
    lambda p: vm.execute(p, (2, 2, 2)),
    lambda p: vm.walk(p, lambda cur, dx, dy, dz: None),
    vm.serialize,
    lambda p: vm.body_length(p.instructions),
], ids=["execute", "walk", "serialize", "body_length"])
def test_a_non_instruction_is_refused(use, bogus, nested):
    # a bare tuple is no chunk: only the annealer's own chunk type
    # stands in a top level as a run of instructions
    body = (vm.Place(), bogus)
    program = vm.Program((vm.Repeat(2, body),) if nested else body)
    with pytest.raises(TypeError):
        use(program)


# --- the summary engine against the sequential walker ---

def _zero_placement_nest(levels: int) -> vm.Program:
    """PLACE, then REPEAT 2 { MOVE X 1 MOVE X -1 } nested `levels` deep:
    one cell, but 2**levels walker iterations."""
    return vm.parse("PLACE " + "REPEAT 2 { " * levels + "MOVE X 1 MOVE X -1" + " }" * levels)


def test_deep_zero_placement_nest_builds_its_one_cell():
    # the walker would need 2**41 steps; only the summary engine finishes
    assert vm.execute(_zero_placement_nest(40), (2, 1, 1)).occupied == {(0, 0, 0)}


def test_a_block_with_more_cells_than_the_world_is_refused():
    # each REPEAT's translates fit the world, but each level multiplies
    # the cells; the check at each block's end bounds a build's time by
    # the world's volume, where such nests would grow by a factor at
    # every level until the placement budget
    p = vm.parse("REPEAT 8 { REPEAT 8 { REPEAT 8 { PLACE MOVE Y 100 PLACE MOVE Y -100 MOVE X 1 }"
                 " MOVE X -8 MOVE Z 1 } MOVE Z -8 MOVE Y 1 }")
    with pytest.raises(vm.OutOfBounds,
                       match=re.escape("a block places 1024 cells, more than dims (8, 8, 8) hold")):
        vm.execute(p, (8, 8, 8))


def _no_box(cur, dx, dy, dz):
    pass


def test_walker_refuses_a_def_below_top_level():
    # vm.parse reads no such program, so it is built from the dataclasses
    p = vm.Program((vm.Repeat(2, (vm.Def("a", (vm.Place(),)),)),))
    with pytest.raises(vm.DslError, match="top level"):
        vm.walk(p, _no_box)


def test_walker_step_budget_stops_a_jittered_deep_nest():
    # 2**23 - 2 steps, about 6 s of walking without the budget; a human
    # fleet walks the program so
    with pytest.raises(vm.BudgetExceeded, match="steps"):
        vm.walk(_zero_placement_nest(22), _no_box)


def test_walker_step_budget_counts_iterations_and_calls(monkeypatch):
    p = vm.parse("DEF a { PLACE } REPEAT 3 { CALL a }")  # 3 iterations + 3 calls
    monkeypatch.setattr(vm, "MAX_STEPS", 6)
    vm.walk(p, _no_box)
    monkeypatch.setattr(vm, "MAX_STEPS", 5)
    with pytest.raises(vm.BudgetExceeded):
        vm.walk(p, _no_box)


def test_fault_precedence(monkeypatch):
    # each program has two faults; the walker reports the first it meets,
    # execute the first its engine proves, as its docstring gives
    oob_then_unbound = vm.Program((vm.Move("X", -1), vm.Place(), vm.Call("zz")))
    wide_then_unbound = vm.Program((vm.Fill(3, 1, 1), vm.Call("zz")))
    oob_then_budget = vm.parse("MOVE X -1 PLACE MOVE X 1 FILL 2 2 2")
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 4)
    for program, walker_fault, engine_fault in (
            (oob_then_unbound, vm.OutOfBounds, vm.UnknownName),
            (wide_then_unbound, vm.OutOfBounds, vm.OutOfBounds),
            (oob_then_budget, vm.OutOfBounds, vm.BudgetExceeded)):
        with pytest.raises(walker_fault):
            _strict_walk(program, (2, 2, 2))
        with pytest.raises(engine_fault):
            vm.execute(program, (2, 2, 2))


def test_rebinding_a_name_rebinds_its_callers():
    a1, a2 = vm.Def("a", (vm.Place(),)), vm.Def("a", (vm.Move("X", 1), vm.Place()))
    b = vm.Def("b", (vm.Call("a"),))
    p = vm.Program((a1, b, vm.Call("b"), a2, vm.Move("Y", 1), vm.Call("b")))
    assert vm.execute(p, (2, 2, 1)).occupied == {(0, 0, 0), (1, 1, 0)}


@pytest.mark.parametrize("b_body, deepest", [("CALL a", 3), ("REPEAT 2 { CALL a }", 4)],
                         ids=["CALL a", "REPEAT 2 { CALL a }"])
def test_depth_limit_holds_when_a_summary_is_reused_deeper(b_body, deepest, monkeypatch):
    # b is summarised under the first CALL b at level 1, then reused at
    # level 2 under c, where its own CALL a reaches level `deepest`
    p = vm.parse(f"DEF a {{ PLACE }} DEF b {{ {b_body} }} DEF c {{ CALL b }} CALL b CALL c")
    monkeypatch.setattr(vm, "MAX_BLOCK_DEPTH", deepest)
    memo = {}
    built = vm.execute(p, (1, 1, 1))
    assert vm._build(p.instructions, (1, 1, 1), memo) == built
    monkeypatch.setattr(vm, "MAX_BLOCK_DEPTH", deepest - 1)
    with pytest.raises(vm.DepthExceeded):
        vm.execute(p, (1, 1, 1))
    # every summary of the first build is kept, made under the higher cap
    with pytest.raises(vm.DepthExceeded):
        vm._build(p.instructions, (1, 1, 1), memo)


def _in_world(cur, dx, dy, dz, dims) -> bool:
    return all(0 <= c and c + d <= n for c, d, n in zip(cur, (dx, dy, dz), dims))


def _box_cells(cur, dx, dy, dz):
    x, y, z = cur
    return itertools.product(range(x, x + dx), range(y, y + dy), range(z, z + dz))


def _strict_walk(program, dims) -> VoxelStructure:
    """The walker with no jitter: a box that leaves the world raises
    OutOfBounds where the walker meets it."""
    cells = set()

    def box(cur, dx, dy, dz):
        if not _in_world(cur, dx, dy, dz, dims):
            raise vm.OutOfBounds(f"box {(dx, dy, dz)} at {cur} outside dims {dims}")
        cells.update(_box_cells(cur, dx, dy, dz))

    vm.walk(program, box)
    return VoxelStructure(dims, frozenset(cells))


class _FaultLog(vm._Executor):
    """The walker with BudgetExceeded and OutOfBounds recorded, not raised,
    so that it runs on to the first fault of the program text."""

    out_of_bounds = False

    def __init__(self, dims):
        super().__init__(self._box)
        self.dims = dims
        self.cells = set()

    def _step(self):
        self.steps += 1
        if self.steps > 3000:
            reject()  # too slow to walk

    def _charge(self, n):
        self.placements += n

    def _box(self, cur, dx, dy, dz):
        if not _in_world(cur, dx, dy, dz, self.dims):
            self.out_of_bounds = True
        elif self.placements <= vm.MAX_PLACEMENTS:
            self.cells.update(_box_cells(cur, dx, dy, dz))


def _faults(program, dims):
    """The program's faults, and the structure it builds when there are
    none."""
    log = _FaultLog(dims)
    faults = []
    try:
        log.run(program.instructions, (0, 0, 0), 1, 0, {}, top=True)
    except (vm.DslError, vm.DepthExceeded) as exc:
        faults.append(type(exc))
    if log.placements > vm.MAX_PLACEMENTS:
        faults.append(vm.BudgetExceeded)
    if log.out_of_bounds:
        faults.append(vm.OutOfBounds)
    return faults, VoxelStructure(dims, frozenset(log.cells))


def _outcome(fn):
    try:
        return fn()
    except DomusError as exc:
        return type(exc)


_NAMES = ("a", "b", "c")
_any_call = st.builds(vm.Call, st.sampled_from(_NAMES), st.integers(1, 2))


def _any_instr(depth: int):
    base = st.one_of(
        st.just(vm.Place()),
        st.builds(vm.Move, st.sampled_from("XYZ"), st.sampled_from((-2, -1, 1, 2))),
        st.builds(vm.Fill, st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
        _any_call,
    )
    if depth == 0:
        return base
    body = st.lists(_any_instr(depth - 1), min_size=1, max_size=4).map(tuple)
    # counts below 2 do not parse, but execute runs them as the walker does
    return st.one_of(base, st.builds(vm.Repeat, st.integers(0, 3), body))


# DEF bodies call other names often, so that chains of calls form
_any_def = st.builds(vm.Def, st.sampled_from(_NAMES),
                     st.lists(st.one_of(_any_instr(2), _any_call),
                              min_size=1, max_size=4).map(tuple))


@st.composite
def _any_case(draw):
    """A small world, a placement budget, a depth cap, and a program of
    leading DEFs, a move to the world's centre, then instructions and
    DEFs mixed: names may be unbound, rebound, or call themselves."""
    dims = draw(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)))
    budget = draw(st.integers(1, 300))
    depth = draw(st.integers(1, 4))
    centre = tuple(vm.Move(axis, n // 2) for axis, n in zip("XYZ", dims) if n > 1)
    tail = st.lists(st.one_of(_any_instr(2), _any_call, _any_def), min_size=1, max_size=6)
    program = vm.Program(tuple(draw(st.lists(_any_def, max_size=3))) + centre
                         + tuple(draw(tail)))
    return program, dims, budget, depth


@given(_any_case())
@settings(max_examples=600, deadline=None)
def test_summary_engine_matches_walker(case):
    program, dims, budget, depth = case

    with (mock.patch.object(vm, "MAX_BLOCK_DEPTH", depth),
          mock.patch.object(vm, "MAX_PLACEMENTS", budget)):
        faults, built = _faults(program, dims)
        walker = _outcome(lambda: _strict_walk(program, dims))
        engine = _outcome(lambda: vm.execute(program, dims))
    if not faults:
        assert walker == engine == built
    else:
        assert engine in faults
        assert walker in faults


# --- one summary memo over many builds ---

def test_a_shared_summary_is_redone_once_a_name_it_calls_is_rebound():
    loop = vm.Repeat(2, (vm.Call("a"), vm.Move("X", 2)))
    first = vm.Program((vm.Def("a", (vm.Place(),)), loop))
    second = vm.Program((vm.Def("a", (vm.Move("Y", 1), vm.Place())), loop))
    unbound = vm.Program((loop,))
    memo = {}

    def build(program):
        return vm._build(program.instructions, (4, 2, 1), memo)

    assert build(first).occupied == {(0, 0, 0), (2, 0, 0)}
    assert build(second).occupied == {(0, 1, 0), (2, 1, 0)}
    with pytest.raises(vm.UnknownName):
        build(unbound)
    assert build(first).occupied == {(0, 0, 0), (2, 0, 0)}


def test_a_shared_summary_keeps_to_each_builds_budget(monkeypatch):
    # a's FILL is summarised under the larger budget; under the smaller
    # one a fresh build stops at the end of a's body, before CALL zz
    a = vm.Def("a", (vm.Fill(2, 2, 2),))
    memo = {}
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 100)
    vm._build((a, vm.Call("a")), (2, 2, 2), memo)
    program = vm.Program((a, vm.Call("a"), vm.Call("zz")))
    monkeypatch.setattr(vm, "MAX_PLACEMENTS", 5)
    with pytest.raises(vm.BudgetExceeded):
        vm.execute(program, (2, 2, 2))
    with pytest.raises(vm.BudgetExceeded):
        vm._build(program.instructions, (2, 2, 2), memo)


@st.composite
def _any_memo_run(draw):
    """Programs each made from the one before by an edit, as a search
    makes its candidates, so that they share most of their blocks: an
    instruction inserted or deleted (a DEF deleted unbinds its name),
    instructions wrapped in a REPEAT, or a DEF rebound to a body the
    program holds elsewhere. Each program has its own dims out of two,
    placement budget and depth cap; a memo serves one dims, so each dims has its
    own."""
    program, dims, _, _ = draw(_any_case())
    worlds = (dims, draw(st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9))))
    # every name bound at first, so that most CALLs resolve
    instrs = [vm.Def(name, draw(_any_def).body) for name in _NAMES] + list(program.instructions)
    runs = []
    for _ in range(draw(st.integers(2, 10))):
        budget = draw(st.integers(1, 300))
        runs.append((vm.Program(tuple(instrs)), draw(st.sampled_from(worlds)), budget,
                     draw(st.integers(1, 4))))
        edit = draw(st.sampled_from(("insert", "delete", "wrap", "rebind")))
        i = draw(st.integers(0, len(instrs)))
        bodies = [ins.body for ins in instrs if type(ins) in (vm.Repeat, vm.Def)]
        if edit == "insert" or not instrs:
            instrs.insert(i, draw(st.one_of(_any_instr(2), _any_call, _any_def)))
        elif edit == "delete":
            del instrs[min(i, len(instrs) - 1)]
        elif edit == "wrap":
            j = i + draw(st.integers(1, 3))
            if all(type(ins) is not vm.Def for ins in instrs[i:j]):
                instrs[i:j] = [vm.Repeat(draw(st.integers(0, 3)), tuple(instrs[i:j]))]
        elif bodies:
            instrs.insert(i, vm.Def(draw(st.sampled_from(_NAMES)), draw(st.sampled_from(bodies))))
    return runs


_LOOP = vm.Repeat(2, (vm.Call("a"), vm.Move("X", 1)))


@given(_any_memo_run())
@settings(max_examples=300, deadline=None)
@example([(vm.Program((vm.Def("a", (vm.Place(),)), _LOOP)), (2, 2, 1), vm.MAX_PLACEMENTS, 1),
          (vm.Program((vm.Def("a", (vm.Move("Y", 1), vm.Place())), _LOOP)), (2, 2, 1),
           vm.MAX_PLACEMENTS, 1)])
def test_a_shared_memo_builds_what_a_fresh_build_does(runs):
    memos = {}
    for program, dims, budget, depth in runs:
        memo = memos.setdefault(dims, {})
        with (mock.patch.object(vm, "MAX_BLOCK_DEPTH", depth),
              mock.patch.object(vm, "MAX_PLACEMENTS", budget)):
            fresh = _outcome(lambda: vm.execute(program, dims))
            shared = _outcome(lambda: vm._build(program.instructions, dims, memo))
        assert shared == fresh


# --- the annealer's chunked candidates ---

# b's summary, made before a is rebound, must not serve the CALL after it
_REBOUND = vm.Program((vm.Def("a", (vm.Place(),)), vm.Def("b", (vm.Call("a"),)), vm.Call("b"),
                       vm.Def("a", (vm.Move("Y", 1), vm.Place())), vm.Call("b")))


@given(_any_memo_run(), st.integers(1, designer._CHUNK), st.sampled_from((0, designer._FLAT)))
@settings(max_examples=300, deadline=None)
@example([(_REBOUND, (1, 2, 1), vm.MAX_PLACEMENTS, 4)], 1, 0)
def test_chunked_candidates_build_what_their_flat_programs_do(runs, size, flat_max):
    # each program is the tail of a candidate, cut into chunks of at most
    # size as the annealer cuts them, sharing the chunks an edit keeps,
    # or kept whole while it has at most flat_max instructions, and
    # built as the annealer builds it; as when each candidate is
    # accepted, a chunk it replaces is dropped
    memos = {}
    tail = designer._Tail([], None, None, ())
    with (mock.patch.object(designer, "_CHUNK", size),
          mock.patch.object(designer, "_FLAT", flat_max)):
        for program, dims, budget, depth in runs:
            tail, _, replaced = tail.edited(list(program.instructions))
            assert max(sum(tail.sizes) - 1, 0) == vm.program_length(program)
            top = tuple(tail.instrs) if tail.pieces is None else tail.pieces
            memo = memos.setdefault(dims, {})
            with (mock.patch.object(vm, "MAX_BLOCK_DEPTH", depth),
                  mock.patch.object(vm, "MAX_PLACEMENTS", budget)):
                flat = _outcome(lambda: vm.execute(program, dims))
                chunked = _outcome(lambda: vm._build(top, dims, memo))
            if isinstance(flat, VoxelStructure):
                assert chunked == flat
            else:
                assert not isinstance(chunked, VoxelStructure)
            for piece in replaced:
                for memo in memos.values():
                    memo.pop((id(piece), 1), None)
