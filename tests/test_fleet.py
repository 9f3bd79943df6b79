import hashlib
import io
import math
import random
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from domus import cli, fleet, vm, world
from domus.errors import DomusError
from domus.fleet import (
    Attack,
    HumanBuilder,
    RobotBuilder,
    build_fleet,
    collapse_fraction,
    find_attack,
    transfer_rate,
)
from domus.world import VoxelStructure, unsupported_cells
from conftest import CORPUS, S

BRIDGE_DIMS = (8, 1, 8)


def _bridge() -> vm.Program:
    return vm.parse((CORPUS / "bridge.cvm").read_text())


# --- builders ---

def test_robot_fleet_is_identical():
    members = build_fleet(vm.parse("FILL 2 2 1"), 10, RobotBuilder(), (4, 4, 4))
    assert len(members) == 10
    assert len({m.occupied for m in members}) == 1


def test_zero_jitter_equals_robot():
    prog = _bridge()
    humans = build_fleet(prog, 5, HumanBuilder(0.0, 123), BRIDGE_DIMS)
    robots = build_fleet(prog, 5, RobotBuilder(), BRIDGE_DIMS)
    assert humans == robots


def test_human_fleet_varies_and_is_seeded():
    prog = _bridge()
    a = build_fleet(prog, 50, HumanBuilder(0.2, 1), BRIDGE_DIMS)
    b = build_fleet(prog, 50, HumanBuilder(0.2, 1), BRIDGE_DIMS)
    assert a == b
    assert len({m.occupied for m in a}) > 1
    c = build_fleet(prog, 50, HumanBuilder(0.2, 2), BRIDGE_DIMS)
    assert a != c


def test_member_seed_isolation():
    # member i depends on (seed, i) only, not on fleet size
    prog = _bridge()
    short = build_fleet(prog, 3, HumanBuilder(0.3, 9), BRIDGE_DIMS)
    long = build_fleet(prog, 10, HumanBuilder(0.3, 9), BRIDGE_DIMS)
    assert short == long[:3]


def test_jitter_prob_validation():
    with pytest.raises(ValueError):
        HumanBuilder(1.5, 0)


def test_human_members_are_the_checked_structures():
    # build_fleet builds its members without the per-cell dims check,
    # since it clipped every cell; each equals, and hashes like, the
    # structure built the checked way
    p = vm.parse("FILL 3 2 1\nMOVE X 2\nMOVE Y 1\nPLACE\nMOVE Z 1\nFILL 2 2 2")
    members = build_fleet(p, 20, HumanBuilder(0.5, 3), (4, 3, 2))
    # the last FILL reaches past the world's top, so each member is
    # clipped, and jitter clips them differently
    assert len({len(m.occupied) for m in members}) > 1
    for m in members:
        checked = VoxelStructure((4, 3, 2), set(m.occupied))
        assert m == checked and hash(m) == hash(checked)
        assert type(m.occupied) is frozenset
    with pytest.raises(ValueError):
        VoxelStructure._trusted((0, 3, 2), frozenset())


def test_robot_errors_propagate():
    with pytest.raises(vm.OutOfBounds):
        build_fleet(vm.parse("MOVE X -1 PLACE"), 3, RobotBuilder(), (2, 2, 2))


# --- human fleets against a walk per member ---

_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)]


class _MemberWalker:
    """One human member built on its own: the jittered walker as it ran
    before a fleet shared one walk. It consults the jitter once per
    PLACE or FILL and places the box cell by cell, dropping the cells
    that leave the world."""

    def __init__(self, dims, jitter):
        self.nx, self.ny, self.nz = dims
        self.jitter = jitter
        self.cells = set()
        self.placements = 0
        self.steps = 0

    def _charge(self, n):
        self.placements += n
        if self.placements > vm.MAX_PLACEMENTS:
            raise vm.BudgetExceeded(f"more than {vm.MAX_PLACEMENTS} placements")

    def _step(self):
        self.steps += 1
        if self.steps > vm.MAX_STEPS:
            raise vm.BudgetExceeded(f"more than {vm.MAX_STEPS} steps")

    def _in_bounds(self, x, y, z):
        return 0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz

    def _anchor(self, cur):
        off = self.jitter()
        if off is not None:
            return (cur[0] + off[0], cur[1] + off[1], cur[2] + off[2])
        return cur

    def _place(self, cur):
        self._charge(1)
        x, y, z = self._anchor(cur)
        if self._in_bounds(x, y, z):
            self.cells.add((x, y, z))

    def _fill(self, cur, dx, dy, dz):
        self._charge(dx * dy * dz)
        x0, y0, z0 = self._anchor(cur)
        for z in range(z0, z0 + dz):
            for y in range(y0, y0 + dy):
                for x in range(x0, x0 + dx):
                    if self._in_bounds(x, y, z):
                        self.cells.add((x, y, z))

    def run(self, body, cur, scale, depth, env, top=False):
        if depth > vm.MAX_BLOCK_DEPTH:
            raise vm.DepthExceeded(f"REPEATs and CALLs nested deeper than {vm.MAX_BLOCK_DEPTH}")
        for ins in body:
            if isinstance(ins, vm.Place):
                self._place(cur)
            elif isinstance(ins, vm.Fill):
                self._fill(cur, ins.dx * scale, ins.dy * scale, ins.dz * scale)
            elif isinstance(ins, vm.Move):
                d = ins.n * scale
                if ins.axis == "X":
                    cur = (cur[0] + d, cur[1], cur[2])
                elif ins.axis == "Y":
                    cur = (cur[0], cur[1] + d, cur[2])
                else:
                    cur = (cur[0], cur[1], cur[2] + d)
            elif isinstance(ins, vm.Repeat):
                for _ in range(ins.count):
                    self._step()
                    cur = self.run(ins.body, cur, scale, depth + 1, env)
            elif isinstance(ins, vm.Def):
                if not top:
                    raise vm.DslError("DEF is only allowed at top level")
                env[ins.name] = ins.body
            elif isinstance(ins, vm.Call):
                if ins.name not in env:
                    raise vm.UnknownName(f"CALL {ins.name!r} before its DEF")
                self._step()
                self.run(env[ins.name], cur, scale * ins.scale, depth + 1, env)
        return cur


def _fleet_by_member_walks(program, n, model, dims):
    """build_fleet for a human model, one walk per member, each with
    its own stream seeded by (seed, member index)."""
    members = []
    for i in range(n):
        rng = random.Random(model.seed * 1_000_003 + i)

        def jitter():
            if rng.random() < model.jitter_prob:
                return _OFFSETS[rng.randrange(len(_OFFSETS))]
            return None

        walker = _MemberWalker(dims, jitter)
        walker.run(program.instructions, (0, 0, 0), 1, 0, {}, top=True)
        members.append(VoxelStructure(dims, frozenset(walker.cells)))
    return members


def _outcome(fn):
    try:
        return fn()
    except DomusError as exc:
        return type(exc)


_NAMES = ("a", "b", "c")
_calls = st.builds(vm.Call, st.sampled_from(_NAMES), st.integers(1, 3))


def _instructions(depth: int):
    base = st.one_of(
        st.just(vm.Place()),
        st.builds(vm.Move, st.sampled_from("XYZ"), st.sampled_from((-3, -1, 1, 2))),
        st.builds(vm.Fill, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        _calls,
    )
    if depth == 0:
        return base
    body = st.lists(_instructions(depth - 1), min_size=1, max_size=4).map(tuple)
    return st.one_of(base, st.builds(vm.Repeat, st.integers(0, 3), body))


_defs = st.builds(vm.Def, st.sampled_from(_NAMES),
                  st.lists(st.one_of(_instructions(2), _calls), min_size=1,
                           max_size=4).map(tuple))


@st.composite
def _human_fleet_cases(draw):
    """A small world and a program of DEFs, scaled CALLs, REPEATs, FILLs
    and MOVEs that leave it, under small budgets and caps: names may be
    unbound or call themselves, so every fault can occur."""
    dims = draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
    program = vm.Program(tuple(draw(st.lists(st.one_of(_instructions(2), _defs),
                                             min_size=1, max_size=7))))
    budget = draw(st.integers(1, 400))
    model = HumanBuilder(draw(st.sampled_from((0.0, 0.3, 1.0))), draw(st.integers(0, 10**6)))
    caps = draw(st.integers(1, 4)), draw(st.integers(1, 200))
    return program, draw(st.integers(1, 4)), model, dims, budget, caps


_BIG = 10**6


@given(_human_fleet_cases())
@settings(max_examples=400, deadline=None)
# a placement that every jitter pushes outside the world
@example((vm.parse("PLACE"), 3, HumanBuilder(1.0, 5), (1, 1, 1), _BIG, (4, 100)))
# FILLs clipped at the far edge and at the origin
@example((vm.parse("MOVE X 2 FILL 3 2 2 MOVE X -3 MOVE Y -1 FILL 2 3 1"), 4,
          HumanBuilder(0.3, 2), (3, 3, 3), _BIG, (4, 100)))
# a scaled CALL inside a REPEAT
@example((vm.parse("DEF a { FILL 1 1 1 MOVE X 1 } REPEAT 2 { CALL a 2 MOVE Y 1 }"), 4,
          HumanBuilder(0.3, 3), (5, 3, 2), _BIG, (4, 100)))
# faults: the step budget, the placement budget, an unbound name, the depth cap
@example((vm.parse("REPEAT 3 { PLACE }"), 2, HumanBuilder(0.3, 4), (2, 2, 2), _BIG, (4, 2)))
@example((vm.parse("FILL 2 2 2"), 2, HumanBuilder(0.3, 4), (2, 2, 2),
          7, (4, 100)))
@example((vm.Program((vm.Place(), vm.Call("zz"))), 2, HumanBuilder(0.3, 4), (2, 2, 2),
          _BIG, (4, 100)))
@example((vm.parse("DEF a { PLACE } DEF b { CALL a } CALL b"), 2, HumanBuilder(0.3, 4),
          (2, 2, 2), _BIG, (1, 100)))
def test_human_fleet_matches_a_walk_per_member(case):
    program, n, model, dims, budget, (depth, steps) = case
    with mock.patch.object(vm, "MAX_BLOCK_DEPTH", depth), \
            mock.patch.object(vm, "MAX_STEPS", steps), \
            mock.patch.object(vm, "MAX_PLACEMENTS", budget):
        got = _outcome(lambda: build_fleet(program, n, model, dims))
        want = _outcome(lambda: _fleet_by_member_walks(program, n, model, dims))
    assert got == want


def test_human_fleet_is_one_walk(monkeypatch):
    # 3 iterations and 3 calls walked once for the whole fleet
    steps = []
    real = vm._Executor._step
    monkeypatch.setattr(vm._Executor, "_step", lambda self: steps.append(1) or real(self))
    members = build_fleet(vm.parse("DEF a { PLACE } REPEAT 3 { CALL a }"), 50,
                          HumanBuilder(0.5, 1), (2, 2, 2))
    assert len(members) == 50 and len(steps) == 6


def test_human_fleet_step_budget_stops_a_deep_nest():
    # one cell under 22 nested REPEATs: 2**23 - 2 steps, met once per fleet
    nest = vm.parse("PLACE " + "REPEAT 2 { " * 22 + "MOVE X 1 MOVE X -1" + " }" * 22)
    with pytest.raises(vm.BudgetExceeded, match="steps"):
        build_fleet(nest, 100, HumanBuilder(0.2, 1), (2, 1, 1))


# sha256 of the `attack --builder human --p 0.2 --seed 1 --fleet 20`
# JSON of each corpus program at the criterion-8 dims, recorded when
# every member walked the program on its own
CORPUS_HUMAN_ATTACKS = {
    "row3.cvm": ((4, 1, 1),
                 "9037683a34ea023cd02a605c3ce8df1f0969e8173162c580742bca7e9be8c95d"),
    "slab4.cvm": ((8, 8, 4),
                  "f1a6d53ce458618cdb656b4f7f6127c8a7b4a8097fc5a7747352a39b7aecdab5"),
    "pillar.cvm": ((4, 4, 10),
                   "ebb40b6b3b7fcd06f945e0f18093b7d7327752cff09efe3e70c2e3b5d7ecc4d0"),
    "bridge.cvm": ((8, 1, 8),
                   "dd45538fc6d51355177a6b28f739e7ca1362b3bed3ff6286187722b4f3b78816"),
    "sierpinski2.cvm": ((9, 9, 1),
                        "293be3f134fe104f11036a31f278e9aedf55216e07300ae34f648d00b0a6f981"),
    "sierpinski3.cvm": ((27, 27, 1),
                        "293be3f134fe104f11036a31f278e9aedf55216e07300ae34f648d00b0a6f981"),
    "sierpinski4.cvm": ((81, 81, 1),
                        "293be3f134fe104f11036a31f278e9aedf55216e07300ae34f648d00b0a6f981"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_HUMAN_ATTACKS))
def test_corpus_human_attacks_are_pinned(name):
    dims, digest = CORPUS_HUMAN_ATTACKS[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["attack", str(CORPUS / name), "--dims", *map(str, dims),
                        "--builder", "human", "--p", "0.2", "--seed", "1", "--fleet", "20"])
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == (0, digest)


# --- collapse and attacks ---

def test_collapse_vacuous_when_everything_removed():
    s = S((3, 3, 3), {(0, 0, 0)})
    assert collapse_fraction(s, frozenset({(0, 0, 0)})) == 0.0


@st.composite
def _removals(draw):
    """Any structure on a small site, stable or not, and a removal that
    may name cells it does not hold."""
    nx, ny, nz = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    site = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1), st.integers(0, nz - 1))
    cells = draw(st.sets(site, max_size=40))
    held = draw(st.sets(st.sampled_from(sorted(cells)), max_size=5)) if cells else set()
    absent = draw(st.sets(site, max_size=3))
    return S((nx, ny, nz), cells), frozenset(held | absent)


def _towers_beams_and_cells(draw, nx, ny, nz) -> set:
    """Towers, beams and loose cells on an nx x ny x nz site."""
    xs, ys, zs = st.integers(0, nx - 1), st.integers(0, ny - 1), st.integers(0, nz - 1)
    cells = {(x, y, z)
             for (x, y, h) in draw(st.lists(st.tuples(xs, ys, zs), max_size=8))
             for z in range(h + 1)}
    for (x, y, z, along_x, n) in draw(st.lists(
            st.tuples(xs, ys, zs, st.booleans(), st.integers(1, 7)), max_size=4)):
        cells |= {(x + i, y, z) if along_x else (x, y + i, z)
                  for i in range(n) if (x + i < nx if along_x else y + i < ny)}
    cells |= draw(st.sets(st.tuples(xs, ys, zs), max_size=20))
    return cells


@st.composite
def _wide_removals(draw):
    """Bridges (two towers joined by a beam on top), towers, beams and
    loose cells on a site up to 16 wide, wider than the removed cells'
    windows, and a removal of bridge bases, ground cells and at most one
    other cell, which may name cells the structure does not hold. A
    bridge whose towers stand between m and 2m apart holds beam cells
    next to a removed base through the far tower, which only a window
    of 2m sees."""
    nx, ny, nz = draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.integers(1, 5))
    cells = _towers_beams_and_cells(draw, nx, ny, nz)
    bases = []
    for _ in range(draw(st.integers(0, 3))):
        along_x = draw(st.booleans())
        span = nx if along_x else ny
        if span < 2 or nz < 2:
            break
        d = draw(st.integers(1, min(7, span - 1)))
        dx, dy = (d, 0) if along_x else (0, d)
        x, y = draw(st.integers(0, nx - 1 - dx)), draw(st.integers(0, ny - 1 - dy))
        z = draw(st.integers(1, nz - 1))
        cells |= {(x + i * dx // d, y + i * dy // d, z) for i in range(d + 1)}
        cells |= {(x + t * dx, y + t * dy, h) for t in (0, 1) for h in range(z)}
        bases.append((x, y, 0))
    held = draw(st.sets(st.sampled_from(bases), min_size=1, max_size=2)) if bases else set()
    ground = sorted(c for c in cells if c[2] == 0)
    held |= draw(st.sets(st.sampled_from(ground), max_size=1)) if ground else set()
    held |= draw(st.sets(st.sampled_from(sorted(cells)), max_size=1)) if cells else set()
    site = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1), st.integers(0, nz - 1))
    absent = draw(st.sets(site, max_size=2))
    return S((nx, ny, nz), cells), frozenset(held | absent)


@given(st.one_of(_removals(), _wide_removals()), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_collapse_fraction_matches_full_recount(case, m):
    s, removed = case
    rest = s.occupied - removed
    expected = (len(set(unsupported_cells(rest, m)) - set(unsupported_cells(s.occupied, m)))
                / len(rest)) if rest else 0.0
    with mock.patch.object(fleet, "MAX_OVERHANG", m):
        assert collapse_fraction(s, removed) == expected


def _full_recount(s, removed, m) -> float:
    rest = s.occupied - removed
    return (len(set(unsupported_cells(rest, m)) - set(unsupported_cells(s.occupied, m)))
            / len(rest)) if rest else 0.0


@pytest.mark.parametrize("m", range(4))
def test_collapse_fraction_around_the_window_edge(m):
    # a bridge whose near base is removed: beam cells within m of both
    # towers stay up through the far one, which stands outside a window
    # of m around the removed base exactly when it is more than m away
    for d in range(1, 2 * m + 3):
        for along_x in (True, False):
            far = (d, 0) if along_x else (0, d)
            cells = {(i, 0, 2) if along_x else (0, i, 2) for i in range(d + 1)}
            cells |= {(x, y, z) for x, y in ((0, 0), far) for z in range(2)}
            s = S((d + 1, 1, 3) if along_x else (1, d + 1, 3), cells)
            removed = frozenset({(0, 0, 0)})
            with mock.patch.object(fleet, "MAX_OVERHANG", m):
                assert (collapse_fraction(s, removed)
                        == _full_recount(s, removed, m)), (m, d, along_x)


def test_attack_single_ground_cell():
    atk = find_attack(S((3, 3, 3), {(0, 0, 0)}), 1)
    assert atk.removed_cells == {(0, 0, 0)}
    assert atk.collapse_fraction == 0.0


def test_attack_pillar_base():
    pillar = S((1, 1, 4), {(0, 0, z) for z in range(4)})
    atk = find_attack(pillar, 1)
    assert atk.removed_cells == {(0, 0, 0)}
    assert atk.collapse_fraction == 1.0


def test_attack_two_pillars():
    cells = {(0, 0, z) for z in range(4)} | {(3, 0, z) for z in range(4)}
    atk = find_attack(S((4, 1, 4), cells), 1)
    assert atk.collapse_fraction == pytest.approx(3 / 7)
    assert len(atk.removed_cells) == 1


def test_attack_requires_stable_prototype():
    with pytest.raises(fleet.AlreadyUnstable):
        find_attack(S((2, 2, 2), {(0, 0, 1)}), 1)


def test_attack_checks_stability_on_its_own_grid(monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("find_attack called check_stability")

    monkeypatch.setattr(world, "check_stability", no_call)
    monkeypatch.setattr(fleet, "check_stability", no_call, raising=False)
    assert find_attack(S((3, 1, 3), {(0, 0, 0), (0, 0, 1)}), 1).collapse_fraction == 1.0
    with pytest.raises(fleet.AlreadyUnstable, match="^2 cells already unsupported$"):
        find_attack(S((4, 4, 4), {(0, 0, 0), (0, 0, 2), (3, 3, 1)}), 1)


def test_attack_validity():
    s = S((4, 1, 4), {(0, 0, z) for z in range(4)} | {(3, 0, z) for z in range(4)})
    atk = find_attack(s, 2)
    assert atk.removed_cells <= s.occupied
    assert len(atk.removed_cells) <= 2


def test_attack_budget_invariant():
    with pytest.raises(ValueError):
        Attack(frozenset({(0, 0, 0), (1, 0, 0)}), 1, 0.5)


def test_greedy_path_on_larger_structures(monkeypatch):
    monkeypatch.setattr(fleet, "EXHAUSTIVE_CELL_LIMIT", 10)
    cells = {(x, 0, 0) for x in range(30)}
    cells |= {(0, 0, z) for z in range(1, 4)}
    s = S((30, 1, 4), cells)
    atk = find_attack(s, 3)
    assert len(atk.removed_cells) <= 3
    assert atk.collapse_fraction >= 0.0


def _reference_attack(s, k, max_overhang, exhaustive_cell_limit):
    """find_attack by full recount: unsupported_cells on the remaining
    cells of every candidate removal, the same search and tie-breaks."""
    cells = sorted(s.occupied)

    def frac(removal):
        remaining = s.occupied - frozenset(removal)
        if not remaining:
            return 0.0
        return len(unsupported_cells(remaining, max_overhang)) / len(remaining)

    best = (-1.0, frozenset())

    def consider(removal):
        nonlocal best
        fr = frac(removal)
        if fr > best[0]:
            best = (fr, frozenset(removal))

    if k <= 2 and len(cells) <= exhaustive_cell_limit:
        for a in cells:
            consider((a,))
        if k >= 2:
            for i, a in enumerate(cells):
                for b in cells[i + 1:]:
                    consider((a, b))
    else:
        removed = []
        for _ in range(k):
            step = None
            for c in cells:
                if c not in removed:
                    fr = frac(removed + [c])
                    if step is None or fr > step[0]:
                        step = (fr, c)
            if step is None:
                break
            removed.append(step[1])
            consider(tuple(removed))
    return Attack(best[1], k, max(best[0], 0.0))


@st.composite
def _stable_structures(draw, width=7):
    """Towers, beams and loose cells on a site up to width wide, cut to
    their stable part, so that bridges between towers are common."""
    m = draw(st.integers(0, 3))
    nx, ny = draw(st.integers(1, width)), draw(st.integers(1, width))
    nz = draw(st.integers(1, 5))
    cells = _towers_beams_and_cells(draw, nx, ny, nz)
    cells -= set(unsupported_cells(cells, m))
    return S((nx, ny, nz), cells), m


@given(_stable_structures(), st.integers(1, 2))
@settings(max_examples=250, deadline=None)
def test_exhaustive_attack_matches_full_recount(structure, k):
    s, m = structure
    with mock.patch.multiple(fleet, EXHAUSTIVE_CELL_LIMIT=500, MAX_OVERHANG=m):
        assert find_attack(s, k) == _reference_attack(s, k, m, 500)


# sites up to 16 wide hold cells outside a pick's 2m window, and up to
# 8 picks carry gains across several steps
@given(st.one_of(_stable_structures(), _stable_structures(16)), st.integers(1, 8))
@settings(max_examples=250, deadline=None)
def test_greedy_attack_matches_full_recount(structure, k):
    s, m = structure
    with mock.patch.multiple(fleet, EXHAUSTIVE_CELL_LIMIT=0, MAX_OVERHANG=m):
        assert find_attack(s, k) == _reference_attack(s, k, m, 0)


def _check_gains(grid, standing, picks):
    """gains equals a full recount cell by cell on the grid, then again
    after each pick is removed; remove keeps every cell's status exact,
    and removing a pick and putting it back leaves the grid as built."""
    m = grid.m
    with mock.patch.object(fleet, "MAX_OVERHANG", m):
        fresh = fleet._AttackGrid(standing)
    for pick in picks:
        grid.remove(pick)
        grid._set(pick, True)
        assert np.array_equal(grid.occ, fresh.occ)
        assert np.array_equal(grid.unsupported, fresh.unsupported)
    for pick in (None, *picks):
        if pick is not None:
            grid.remove(pick)
            standing.remove(pick)
        before = len(unsupported_cells(standing, m))
        assert grid.gains(standing) == [
            len(unsupported_cells(set(standing) - {c}, m)) - before for c in standing]
        assert np.array_equal(grid.unsupported, world._unsupported_mask(grid.occ, m))


@given(st.one_of(_stable_structures(), _stable_structures(16)), st.data())
@settings(max_examples=200, deadline=None)
def test_gains_match_delta(structure, data):
    s, m = structure
    assume(s.occupied)
    standing = sorted(s.occupied)
    picks = data.draw(st.lists(st.sampled_from(standing), max_size=4, unique=True))
    with mock.patch.object(fleet, "MAX_OVERHANG", m):
        _check_gains(fleet._AttackGrid(standing), standing, picks)


@given(st.one_of(_stable_structures(), _stable_structures(16)), st.integers(1, 3),
       st.data())
@settings(max_examples=200, deadline=None)
def test_gains_match_delta_in_small_batches(structure, per_batch, data):
    # at most per_batch cells a batch (one when the cap is below a
    # slice), so most cell counts leave an uneven last batch
    s, m = structure
    assume(s.occupied)
    standing = sorted(s.occupied)
    picks = data.draw(st.lists(st.sampled_from(standing), max_size=2, unique=True))
    with mock.patch.object(fleet, "MAX_OVERHANG", m):
        grid = fleet._AttackGrid(standing)
    slice_cells = (4 * m + 1) ** 2 * grid.occ.shape[2]
    cap = data.draw(st.sampled_from((1, per_batch * slice_cells)))
    with mock.patch.object(fleet, "_GAIN_BATCH_CELLS", cap):
        _check_gains(grid, standing, picks)


def _mask_calls(proto, k) -> int:
    """_unsupported_mask calls that find_attack(proto, k) makes."""
    calls = 0

    def counted(occ, m):
        nonlocal calls
        calls += 1
        return world._unsupported_mask(occ, m)

    with mock.patch.object(fleet, "_unsupported_mask", counted):
        find_attack(proto, k)
    return calls


def test_gain_table_is_batched():
    # one mask for the grid, ceil(4096 / per_batch) for the gain table,
    # then the pick's windowed remove and one batch for its recounts; a
    # slice of the one-cell-tall carpet holds (4m+1)^2 cells
    proto = vm.execute(vm.parse((CORPUS / "sierpinski4.cvm").read_text()), (81, 81, 1))
    per_batch = fleet._GAIN_BATCH_CELLS // (4 * fleet.MAX_OVERHANG + 1) ** 2
    assert len(proto.occupied) == 4096
    assert _mask_calls(proto, 2) == 1 + math.ceil(4096 / per_batch) + 2 < 10


def test_pair_search_recounts_in_batches():
    # one mask for the grid and one for the gain table, then for each
    # cell its removal, one batch for the later cells near it, and its
    # return: at most 3n + 2 masks
    proto = vm.execute(vm.parse((CORPUS / "sierpinski2.cvm").read_text()), (9, 9, 1))
    n = len(proto.occupied)
    assert n == 64
    assert _mask_calls(proto, 2) <= 3 * n + 2


@pytest.mark.parametrize("m", range(4))
def test_attack_pairs_around_the_window_edge(m):
    # two towers joined by a beam on top: removing both bases collapses
    # beam cells that either tower alone still holds, exactly when the
    # bases lie at most 2m apart
    for d in range(1, 2 * m + 3):
        for along_x in (True, False):
            cells = {(i, 0, 2) if along_x else (0, i, 2) for i in range(d + 1)}
            for z in range(3):
                cells |= {(0, 0, z), (d, 0, z) if along_x else (0, d, z)}
            cells -= set(unsupported_cells(cells, m))
            s = S((d + 1, 1, 3) if along_x else (1, d + 1, 3), cells)
            with mock.patch.object(fleet, "MAX_OVERHANG", m):
                assert (find_attack(s, 2)
                        == _reference_attack(s, 2, m, 500)), (m, d, along_x)


# attack_cells and prototype_collapse of `domus attack --k 2` on the
# corpus at the criterion-8 dims, recorded from the full-recount search
CORPUS_ATTACKS = {
    "row3.cvm": ((4, 1, 1), [(0, 0, 0)], 0.0),
    "slab4.cvm": ((8, 8, 4), [(0, 0, 0)], 0.0),
    "pillar.cvm": ((4, 4, 10), [(0, 0, 0)], 1.0),
    "bridge.cvm": ((8, 1, 8), [(0, 0, 0), (5, 0, 0)], 1.0),
    "sierpinski2.cvm": ((9, 9, 1), [(0, 0, 0)], 0.0),
    "sierpinski3.cvm": ((27, 27, 1), [(0, 0, 0)], 0.0),
    "sierpinski4.cvm": ((81, 81, 1), [(0, 0, 0)], 0.0),
}


@pytest.mark.parametrize("name", sorted(CORPUS_ATTACKS))
def test_corpus_attacks_are_pinned(name):
    dims, cells, collapse = CORPUS_ATTACKS[name]
    proto = vm.execute(vm.parse((CORPUS / name).read_text()), dims)
    atk = find_attack(proto, 2)
    assert sorted(atk.removed_cells) == cells
    assert atk.collapse_fraction == collapse


# --- transfer ---

def test_robot_transfer_is_total():
    prog = _bridge()
    proto = vm.execute(prog, BRIDGE_DIMS)
    atk = find_attack(proto, 2)
    assert atk.collapse_fraction >= 0.5
    members = build_fleet(prog, 50, RobotBuilder(), BRIDGE_DIMS)
    rep = transfer_rate(atk, members)
    assert rep.transfer_rate == 1.0
    assert rep.distinct_structures == 1
    assert rep.n == 50


def test_empty_attack_transfers_nothing():
    members = build_fleet(_bridge(), 5, RobotBuilder(), BRIDGE_DIMS)
    rep = transfer_rate(Attack(frozenset(), 1, 0.0), members)
    assert rep.transfer_rate == 0.0


def test_human_fleet_partial_transfer():
    prog = _bridge()
    proto = vm.execute(prog, BRIDGE_DIMS)
    atk = find_attack(proto, 2)
    members = build_fleet(prog, 50, HumanBuilder(0.2, 1), BRIDGE_DIMS)
    rep = transfer_rate(atk, members)
    assert rep.transfer_rate < 1.0
    assert rep.distinct_structures > 1
    # frozen from the first verified run of this seed
    assert rep.transfer_rate == pytest.approx(0.94)
    assert rep.distinct_structures == 13


def test_transfer_robot_at_least_human():
    prog = _bridge()
    proto = vm.execute(prog, BRIDGE_DIMS)
    atk = find_attack(proto, 2)
    robots = build_fleet(prog, 50, RobotBuilder(), BRIDGE_DIMS)
    humans = build_fleet(prog, 50, HumanBuilder(0.2, 1), BRIDGE_DIMS)
    assert transfer_rate(atk, robots).transfer_rate >= transfer_rate(atk, humans).transfer_rate


def test_transfer_counts_each_distinct_member_once(monkeypatch):
    prog = _bridge()
    proto = vm.execute(prog, BRIDGE_DIMS)
    atk = find_attack(proto, 2)
    members = build_fleet(prog, 50, HumanBuilder(0.2, 1), BRIDGE_DIMS)
    calls = []
    real = fleet.collapse_fraction
    monkeypatch.setattr(fleet, "collapse_fraction",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    rep = transfer_rate(atk, members)
    assert len(calls) == rep.distinct_structures == 13


def test_transfer_requires_fleet():
    with pytest.raises(ValueError):
        transfer_rate(Attack(frozenset(), 1, 0.0), [])
