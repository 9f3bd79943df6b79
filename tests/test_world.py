import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domus import world
from domus.world import (
    ConstraintSet,
    EnclosedVolumeAtLeast,
    MaterialAtMost,
    Stability,
    VoxelStructure,
    WithinBox,
    check_stability,
    enclosed_volume,
    eval_constraints,
    load_constraints,
)

from conftest import S


def test_structure_validation():
    with pytest.raises(ValueError):
        VoxelStructure((2, 2, 2), frozenset({(2, 0, 0)}))
    with pytest.raises(ValueError):
        VoxelStructure((0, 1, 1))


def test_equality_is_cells_and_dims():
    a = S((3, 3, 3), {(0, 0, 0)})
    b = S((3, 3, 3), {(0, 0, 0)})
    c = S((4, 3, 3), {(0, 0, 0)})
    assert a == b and a != c


# --- layered text ---

def test_layer_text_examples():
    assert S((1, 1, 1), set()).to_layer_text() == "DIMS 1 1 1\nLAYER 0\n."
    assert S((1, 1, 1), {(0, 0, 0)}).to_layer_text() == "DIMS 1 1 1\nLAYER 0\n#"
    assert S((2, 1, 1), {(0, 0, 0), (1, 0, 0)}).to_layer_text() == "DIMS 2 1 1\nLAYER 0\n##"


def test_layer_text_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        nx, ny, nz = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        cells = {(rng.randrange(nx), rng.randrange(ny), rng.randrange(nz))
                 for _ in range(rng.randint(0, 20))}
        s = S((nx, ny, nz), cells)
        assert VoxelStructure.from_layer_text(s.to_layer_text()) == s


def test_layer_text_bad_input():
    with pytest.raises(world.FormatError):
        VoxelStructure.from_layer_text("bogus")
    with pytest.raises(world.FormatError):
        VoxelStructure.from_layer_text("DIMS 2 1 1\nLAYER 0\n#")  # short row
    # non-positive DIMS, each otherwise well formed for its layer count
    for text in ("DIMS 2 1 -1", "DIMS 0 1 1\nLAYER 0\n\n", "DIMS 1 0 1\nLAYER 0"):
        with pytest.raises(world.FormatError):
            VoxelStructure.from_layer_text(text)


# --- stability ---

def test_ground_cell_is_stable():
    rep = check_stability(S((3, 3, 3), {(0, 0, 0)}))
    assert rep.stable and rep.supported_count == 1


def test_floating_cell_is_unstable():
    rep = check_stability(S((3, 3, 3), {(0, 0, 1)}))
    assert not rep.stable
    assert rep.unstable_cells == ((0, 0, 1),)


def test_column_with_lateral_overhang():
    cells = {(0, 0, z) for z in range(4)} | {(1, 0, 3)}
    rep = check_stability(S((3, 1, 4), cells), max_overhang=2)
    assert rep.stable


def test_overhang_limit():
    # deck extends 3 steps from the column top: one step too far
    cells = {(0, 0, z) for z in range(2)}
    cells |= {(1, 0, 1), (2, 0, 1), (3, 0, 1)}
    rep = check_stability(S((4, 1, 2), cells), max_overhang=2)
    assert rep.unstable_cells == ((3, 0, 1),)
    assert check_stability(S((4, 1, 2), cells), max_overhang=3).stable


def test_ground_slab_stable_for_any_overhang():
    rng = random.Random(11)
    for overhang in (0, 1, 2, 5):
        cells = {(rng.randrange(8), rng.randrange(8), 0) for _ in range(20)}
        assert check_stability(S((8, 8, 1), cells), overhang).stable


@st.composite
def _grid_stacks(draw):
    """A stack of 1 to 5 random occupancy grids of one shape."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)),
             draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    return np.array(bits, dtype=bool).reshape(shape)


@given(_grid_stacks(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_unsupported_mask_of_a_stack_is_each_grids_mask(stack, m):
    got = world._unsupported_mask(stack, m)
    for grid, mask in zip(stack, got):
        assert np.array_equal(mask, world._unsupported_mask(grid, m))


@pytest.mark.parametrize("m", range(4))
def test_unsupported_mask_of_a_stack_whose_grids_settle_apart(m):
    # a lone column settles after one dilation round; a deck of three
    # cells off a column's top needs three, so the stack runs on past
    # the first grid's fixpoint
    column = np.zeros((4, 1, 2), dtype=bool)
    column[0, 0, :] = True
    deck = column.copy()
    deck[1:, 0, 1] = True
    stack = np.stack([column, deck])
    got = world._unsupported_mask(stack, m)
    assert not got[0].any()
    assert [bool(got[1][x, 0, 1]) for x in range(1, 4)] == [x > m for x in range(1, 4)]
    for grid, mask in zip(stack, got):
        assert np.array_equal(mask, world._unsupported_mask(grid, m))


# --- enclosed volume ---

def test_enclosed_volume_empty_world():
    assert enclosed_volume(S((4, 4, 4), set())) == 0


def test_enclosed_volume_hollow_shell():
    shell = {(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)}
    shell.discard((2, 2, 2))
    s = S((5, 5, 5), shell)
    assert len(s.occupied) == 26
    assert enclosed_volume(s) == 1


def test_enclosed_volume_solid_cube():
    cube = {(x, y, z) for x in range(3) for y in range(3) for z in range(3)}
    assert enclosed_volume(S((3, 3, 3), cube)) == 0


def test_enclosed_volume_translation_invariant():
    shell = {(x, y, z) for x in range(3) for y in range(3) for z in range(3)}
    shell.discard((1, 1, 1))
    a = S((9, 9, 9), {(x + 1, y + 1, z + 1) for (x, y, z) in shell})
    b = S((9, 9, 9), {(x + 4, y + 3, z + 2) for (x, y, z) in shell})
    assert enclosed_volume(a) == enclosed_volume(b) == 1


def _whole_box_enclosed(s):
    """Plain BFS over every cell of the world box from its boundary faces."""
    nx, ny, nz = s.dims
    empty = {c for c in itertools.product(range(nx), range(ny), range(nz))
             if c not in s.occupied}
    seen = {(x, y, z) for (x, y, z) in empty
            if 0 in (x, y, z) or x == nx - 1 or y == ny - 1 or z == nz - 1}
    frontier = list(seen)
    while frontier:
        x, y, z = frontier.pop()
        for c in ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z),
                  (x, y - 1, z), (x, y, z + 1), (x, y, z - 1)):
            if c in empty and c not in seen:
                seen.add(c)
                frontier.append(c)
    return len(empty) - len(seen)


@st.composite
def _pocketed(draw):
    """Random cells at a random density, then a hollow box carved in with
    one wall cell opened toward a chosen face of the world; the box is
    often flush with that face, so the pocket opens onto the boundary."""
    dims = draw(st.tuples(*(st.integers(1, 7),) * 3))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0.0, 1.0))
    cells = {c for c in itertools.product(*map(range, dims)) if rng.random() < density}
    if min(dims) >= 3 and draw(st.booleans()):
        axis, side = draw(st.integers(0, 2)), draw(st.sampled_from((-1, 1)))
        size = [draw(st.integers(3, n)) for n in dims]
        lo = [draw(st.integers(0, n - k)) for n, k in zip(dims, size)]
        if draw(st.booleans()):
            lo[axis] = 0 if side < 0 else dims[axis] - size[axis]
        hi = [a + k - 1 for a, k in zip(lo, size)]
        for c in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            inside = all(a < v < b for v, a, b in zip(c, lo, hi))
            (cells.discard if inside else cells.add)(c)
        hole = [(a + b) // 2 for a, b in zip(lo, hi)]
        hole[axis] = lo[axis] if side < 0 else hi[axis]
        if draw(st.booleans()):
            cells.discard(tuple(hole))
    return S(dims, cells)


@given(_pocketed())
@settings(max_examples=400, deadline=None)
def test_enclosed_volume_matches_whole_box_flood(s):
    assert enclosed_volume(s) == _whole_box_enclosed(s)


def test_enclosed_volume_floods_only_the_occupied_box():
    huge = (1000, 1000, 1000)
    shell = {(x, y, z) for x in range(3) for y in range(3) for z in range(3)} - {(1, 1, 1)}
    start = time.process_time()
    assert enclosed_volume(S(huge, {(500, 500, 500)})) == 0
    assert enclosed_volume(S(huge, {(x + 500, y + 9, z) for (x, y, z) in shell})) == 1
    assert time.process_time() - start < 1.0


# --- constraints ---

def test_stability_penalty():
    cs = ConstraintSet((Stability(weight=10.0),))
    floor = S((4, 4, 2), {(x, y, 0) for x in range(4) for y in range(4)})
    assert eval_constraints(floor, cs).total == 0
    floating = S((4, 4, 2), {(0, 0, 1)})
    assert eval_constraints(floating, cs).total == 10.0


def test_material_hinge():
    cells = {(x, y, 0) for x in range(6) for y in range(5)}  # 30 cells
    cs = ConstraintSet((MaterialAtMost(20, weight=2.0),))
    assert eval_constraints(S((6, 5, 1), cells), cs).total == 20.0


def test_enclosed_volume_hinge():
    cs = ConstraintSet((EnclosedVolumeAtLeast(1, weight=3.0),))
    assert eval_constraints(S((4, 4, 4), set()), cs).total == 3.0


def test_within_box():
    cs = ConstraintSet((WithinBox(lo=(0, 0, 0), hi=(1, 1, 1), weight=1.0),))
    s = S((4, 4, 4), {(0, 0, 0), (1, 1, 1), (3, 3, 3), (2, 0, 0)})
    out = eval_constraints(s, cs)
    assert out.total == 2.0


def test_material_penalty_monotone_in_cells():
    rng = random.Random(3)
    cs = ConstraintSet((MaterialAtMost(10, weight=2.0),))
    cells: set[tuple[int, int, int]] = set()
    prev = 0.0
    for _ in range(40):
        cells.add((rng.randrange(6), rng.randrange(6), rng.randrange(6)))
        now = eval_constraints(S((6, 6, 6), cells), cs).total
        assert now >= prev
        prev = now


def test_total_zero_iff_all_zero():
    rng = random.Random(9)
    cs = ConstraintSet((Stability(weight=5.0), MaterialAtMost(15, weight=1.0)))
    for _ in range(30):
        cells = {(rng.randrange(5), rng.randrange(5), rng.randrange(3))
                 for _ in range(rng.randint(1, 25))}
        out = eval_constraints(S((5, 5, 3), cells), cs)
        assert (out.total == 0) == all(p == 0 for p in out.penalties)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        ConstraintSet((Stability(weight=-1.0),))


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_non_finite_weight_rejected(weight):
    # an infinite weight times a zero violation would price a design at NaN
    with pytest.raises(ValueError):
        ConstraintSet((Stability(weight=weight),))


def test_constraint_json_loader():
    text = """
    [
      {"kind": "Stability", "params": {"max_overhang": 1}, "weight": 10},
      {"kind": "EnclosedVolumeAtLeast", "params": {"v_min": 4}, "weight": 3},
      {"kind": "MaterialAtMost", "params": {"m_max": 20}, "weight": 2},
      {"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, 7, 7]}, "weight": 1}
    ]
    """
    cs = load_constraints(text)
    assert cs.constraints == (
        Stability(weight=10.0, max_overhang=1),
        EnclosedVolumeAtLeast(min_volume=4, weight=3.0),
        MaterialAtMost(max_cells=20, weight=2.0),
        WithinBox(lo=(0, 0, 0), hi=(7, 7, 7), weight=1.0),
    )


@pytest.mark.parametrize("text", [
    "not json",
    "{}",
    '[{"weight": 1}]',
    '[{"kind": "Nope", "weight": 1}]',
    '[{"kind": "MaterialAtMost", "params": {}, "weight": 1}]',
    '[{"kind": "Stability", "weight": -1.0}]',
    '[{"kind": "Stability", "weight": NaN}]',
    '[{"kind": "Stability", "weight": Infinity}]',
    '[{"kind": "Stability", "weight": "heavy"}]',
    '[{"kind": "Stability", "params": null}]',
    '[{"kind": "Stability", "params": [2]}]',
    '[{"kind": "MaterialAtMost", "params": {"m_max": 1e400}}]',
    '[{"kind": "Stability", "params": {"max_overhang": -1e400}}]',
    '[{"kind": "Stability", "params": {"max_overhang": -4}}]',
    '[{"kind": "EnclosedVolumeAtLeast", "params": {"v_min": -1}}]',
    '[{"kind": "MaterialAtMost", "params": {"m_max": -3}}]',
    '[{"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, -1, 7]}}]',
    '[{"kind": "WithinBox", "params": {"box": [5, 0, 0, 4, 7, 7]}}]',
    # each param is a JSON integer, each weight a JSON number
    '[{"kind": "MaterialAtMost", "params": {"m_max": 2.5}}]',
    '[{"kind": "MaterialAtMost", "params": {"m_max": 2.0}}]',
    '[{"kind": "EnclosedVolumeAtLeast", "params": {"v_min": true}}]',
    '[{"kind": "EnclosedVolumeAtLeast", "params": {"v_min": null}}]',
    '[{"kind": "Stability", "params": {"max_overhang": "3"}}]',
    '[{"kind": "Stability", "params": {"max_overhang": false}}]',
    '[{"kind": "WithinBox", "params": {"box": "012345"}}]',
    '[{"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, 7]}}]',
    '[{"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, 7, 7, 7]}}]',
    '[{"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, 7, 7.5]}}]',
    '[{"kind": "WithinBox", "params": {"box": [0, 0, 0, 7, 7, true]}}]',
    '[{"kind": "WithinBox", "params": {"box": {"0": 0}}}]',
    '[{"kind": "Stability", "weight": "2"}]',
    '[{"kind": "Stability", "weight": true}]',
    '[{"kind": "Stability", "weight": null}]',
    '[{"kind": "Stability", "weight": [1]}]',
    '[{"kind": "Stability", "weight": 1' + "0" * 400 + '}]',
    # a key that nothing reads is an error, not a silent default
    '[{"kind": "Stability", "params": {"maxoverhang": 0}, "wieght": 50}]',
    '[{"kind": "MaterialAtMost", "params": {"m_max": 3, "box": [0, 0, 0, 1, 1, 1]}}]',
    '[{"kind": "Stability", "Params": {"max_overhang": 0}}]',
])
def test_constraint_json_errors(text):
    with pytest.raises(world.FormatError):
        load_constraints(text)
