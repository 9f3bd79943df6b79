"""Fleets of buildings and adversarial transfer across them.

A deterministic builder turns one program into n bit-identical
structures, so a weakness found on any one of them is a weakness of
all. The randomized human model perturbs placement anchors with a small
seeded jitter, making members differ in detail. An attack removes a
budgeted set of cells; its quality is the fraction of the remaining
cells that lose static support, and its transfer rate is the fraction
of a fleet it collapses.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from . import vm
from .errors import DomusError
from .world import Cell, VoxelStructure, _dense_grid, _unsupported_mask

# numpy is imported in the functions that use it, so loading this
# module does not load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RobotBuilder",
    "HumanBuilder",
    "BuilderModel",
    "Attack",
    "FleetReport",
    "AlreadyUnstable",
    "build_fleet",
    "collapse_fraction",
    "find_attack",
    "transfer_rate",
]


# find_attack at k = 2 searches every singleton and pair up to this
# many cells, and greedily above it
EXHAUSTIVE_CELL_LIMIT = 500

# the support rule's overhang reach in find_attack, collapse_fraction
# and transfer_rate, so an attack and its transfer use one rule
MAX_OVERHANG = 2

# window cells that one _AttackGrid.gains batch gathers, about 256 KB
# per bool temporary, so that memory stays bounded on a tall world
_GAIN_BATCH_CELLS = 1 << 18


class AlreadyUnstable(DomusError):
    """Attack search needs a stable prototype."""


@dataclass(frozen=True)
class RobotBuilder:
    """Executes the program exactly; every building is identical."""


@dataclass(frozen=True)
class HumanBuilder:
    """Displaces each placement anchor with probability jitter_prob by a
    uniform nonzero offset in {-1,0,1}^3; the stream is seeded per
    building, so member i is reproducible."""

    jitter_prob: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.jitter_prob <= 1.0):
            raise ValueError(f"jitter_prob must be in [0,1], got {self.jitter_prob}")


BuilderModel = RobotBuilder | HumanBuilder

_OFFSETS = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)


def _member_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def build_fleet(program: vm.Program, n: int, model: BuilderModel,
                dims: tuple[int, int, int]) -> list[VoxelStructure]:
    """Build n structures from one program under the given builder model.

    Robot fleets execute once and share the immutable result. A human
    fleet is one walk of the program (vm.walk) that stamps each box into
    every member in index order, each drawing once per box from its own
    stream, seeded by (seed, member index), so member i is what a walk
    of its own would give. A displaced box is shifted and clipped to the
    world: jittered placements that leave it are dropped, not errors.
    The walk's budgets are spent, and a fault is raised, once per fleet.
    """
    if n < 1:
        raise ValueError("fleet size must be >= 1")
    if isinstance(model, RobotBuilder):
        prototype = vm.execute(program, dims)
        return [prototype] * n
    p = model.jitter_prob
    rngs = [random.Random(_member_seed(model.seed, i)) for i in range(n)]
    members: list[set[Cell]] = [set() for _ in rngs]

    def box(cur: Cell, dx: int, dy: int, dz: int):
        x, y, z = cur
        shared = None
        for cells, rng in zip(members, rngs):
            if rng.random() < p:
                ox, oy, oz = _OFFSETS[rng.randrange(len(_OFFSETS))]
                cells.update(_clipped(x + ox, y + oy, z + oz, dx, dy, dz, dims))
            else:
                if shared is None:
                    shared = tuple(_clipped(x, y, z, dx, dy, dz, dims))
                cells.update(shared)

    vm.walk(program, box)
    # every cell was clipped to the world as it was placed
    return [VoxelStructure._trusted(dims, frozenset(cells)) for cells in members]


def _clipped(x: int, y: int, z: int, dx: int, dy: int, dz: int,
             dims: tuple[int, int, int]):
    """The cells of the box at (x, y, z) with extent (dx, dy, dz) that
    lie inside the world."""
    return product(range(max(x, 0), min(x + dx, dims[0])),
                   range(max(y, 0), min(y + dy, dims[1])),
                   range(max(z, 0), min(z + dz, dims[2])))


@dataclass(frozen=True)
class Attack:
    removed_cells: frozenset[Cell]
    k: int
    collapse_fraction: float

    def __post_init__(self):
        if len(self.removed_cells) > self.k:
            raise ValueError("attack exceeds its removal budget")


def collapse_fraction(s: VoxelStructure, removed: frozenset[Cell]) -> float:
    """Fraction of surviving cells that newly lose support when the
    given cells are removed. Cells already unsupported before the
    attack do not count; removing everything collapses nothing.

    Only cells whose columns lie within m = MAX_OVERHANG of a removed
    cell can change status, and their status depends on nothing more
    than m beyond, so the support rule runs before and after on the box
    of columns within 2m of the removed cells only.
    """
    gone = removed & s.occupied
    remaining = len(s.occupied) - len(gone)
    if not gone or not remaining:
        return 0.0
    import numpy as np

    reach = 2 * MAX_OVERHANG
    x0, x1 = min(c[0] for c in gone) - reach, max(c[0] for c in gone) + reach
    y0, y1 = min(c[1] for c in gone) - reach, max(c[1] for c in gone) + reach
    occ, (ox, oy, _) = _dense_grid(
        [c for c in s.occupied if x0 <= c[0] <= x1 and y0 <= c[1] <= y1])
    before = _unsupported_mask(occ, MAX_OVERHANG)
    for x, y, z in gone:
        occ[x - ox, y - oy, z] = False
    after = _unsupported_mask(occ, MAX_OVERHANG)
    return int(np.count_nonzero(after & ~before)) / remaining


class _AttackGrid:
    """Padded dense occupancy of one structure, for windowed support counts.

    Removing cell (x, y, z) changes vertical support only in column
    (x, y) from height z up, and a cell reaches vertical support
    through at most m = MAX_OVERHANG in-layer steps, so only cells whose
    columns lie within m of (x, y) can change status: the inner
    (2m+1)^2 window. Those cells depend on nothing farther than m
    beyond it, so a (4m+1)^2 full-height slice recomputes them exactly.
    gains and remove both rest on this. A cell's gain reads occupancy
    within 2m of its column and status within m, so clearing c changes
    only the gains of cells whose columns lie within 2m of c's. The
    grid is padded by 2m in x and y, so no slice needs clipping.
    """

    def __init__(self, cells):
        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view

        self.m = m = MAX_OVERHANG
        w = 4 * m + 1
        self.occ, self.lo = _dense_grid(cells, pad=2 * m)
        self.unsupported = _unsupported_mask(self.occ, m)
        # views, so they follow the writes that _set makes;
        # slices[x, y] is the slice whose low corner is column (x, y)
        self._slices = np.moveaxis(sliding_window_view(self.occ, (w, w), axis=(0, 1)), 2, -1)
        self._was = sliding_window_view(self.unsupported, (2 * m + 1, 2 * m + 1), axis=(0, 1))

    def gains(self, cells: list[Cell]) -> list[int]:
        """The change in the unsupported count when each cell alone is
        cleared, in a few numpy calls: gather each cell's (4m+1)^2
        full-height slice into a stack, clear its centre cell, run the
        support rule once over the stack and subtract each cell's
        (2m+1)^2 count before. Batches hold at most _GAIN_BATCH_CELLS
        slice cells."""
        import numpy as np

        m, w = self.m, 4 * self.m + 1
        idx = np.array(cells, dtype=np.intp).reshape(-1, 3) - self.lo
        per_batch = max(1, _GAIN_BATCH_CELLS // (w * w * self.occ.shape[2]))
        out: list[int] = []
        for i in range(0, len(idx), per_batch):
            xs, ys, zs = idx[i:i + per_batch].T
            # indexing by arrays copies, so clearing a centre leaves occ as it is
            part = self._slices[xs - 2 * m, ys - 2 * m]
            part[np.arange(len(zs)), 2 * m, 2 * m, zs] = False
            after = _unsupported_mask(part, m)[:, m:3 * m + 1, m:3 * m + 1]
            before = self._was[xs - m, ys - m]
            out += (np.count_nonzero(after, axis=(1, 2, 3))
                    - np.count_nonzero(before, axis=(1, 2, 3))).tolist()
        return out

    def remove(self, c: Cell) -> list[Cell]:
        """Clear c and return the occupied cells whose gain that can
        change, those whose columns lie within 2m of c's, in sorted
        order."""
        import numpy as np

        part = self._set(c, False)
        near = np.argwhere(part) + (c[0] - 2 * self.m, c[1] - 2 * self.m, 0)
        return list(map(tuple, near.tolist()))

    def _set(self, c: Cell, occupied: bool) -> np.ndarray:
        """Set c's occupancy and recount the status of the cells within
        m of its column from the slice within 2m, which it returns."""
        m, (ox, oy, _) = self.m, self.lo
        x, y = c[0] - ox, c[1] - oy
        self.occ[x, y, c[2]] = occupied
        part = self.occ[x - 2 * m:x + 2 * m + 1, y - 2 * m:y + 2 * m + 1]
        self.unsupported[x - m:x + m + 1, y - m:y + m + 1] = (
            _unsupported_mask(part, m)[m:3 * m + 1, m:3 * m + 1])
        return part


def find_attack(s: VoxelStructure, k: int) -> Attack:
    """A removal of at most k cells with a high collapse fraction: the
    best one for k = 1, and for k = 2 on at most EXHAUSTIVE_CELL_LIMIT
    cells; otherwise a greedy one, whose fraction is a lower bound on
    the best (at k = 3 it falls below the exhaustive best on some small
    structures).

    Both searches start from every cell's gain, the change in the
    unsupported count when that cell alone is removed, counted for all
    cells in a few batched numpy calls (_AttackGrid.gains). For k = 2
    on at most EXHAUSTIVE_CELL_LIMIT cells the search is exhaustive
    over singletons, then pairs. Two cells more than 2m apart in x or y
    have disjoint windows, so a pair's count is the sum of its gains.
    A closer pair (a, b) counts a's gain plus b's once a is gone: the
    search removes each a in turn (_AttackGrid.remove), counts the
    gains of the later cells within 2m of it in one batch and puts a
    back. Otherwise it is greedy: each step pops the first maximum
    gain in sorted-cell order off a heap, removes that cell and
    recounts, in one batch, only the gains the removal can change,
    those of cells within 2m of it, pushing each gain that changed.
    Ties keep the first removal in sorted-cell order. Counts
    are exact integers, so the result equals a full recount of every
    candidate.
    """
    if k < 1:
        raise ValueError("attack budget must be >= 1")
    cells = sorted(s.occupied)
    n = len(cells)
    if not cells:
        return Attack(removed_cells=frozenset(), k=k, collapse_fraction=0.0)
    import numpy as np

    grid = _AttackGrid(cells)
    # padding changes no occupied cell's support, so this is the
    # prototype's own unsupported count
    unstable = int(np.count_nonzero(grid.unsupported))
    if unstable:
        raise AlreadyUnstable(f"{unstable} cells already unsupported")
    # the prototype is stable, so each gain is the count its removal collapses
    gains = grid.gains(cells)
    gain = dict(zip(cells, gains))
    best_set: frozenset[Cell] = frozenset()
    best_frac = -1.0

    def consider(removal: tuple[Cell, ...], count: int):
        nonlocal best_set, best_frac
        fr = count / (n - len(removal)) if n > len(removal) else 0.0
        if fr > best_frac:
            best_frac = fr
            best_set = frozenset(removal)

    if k == 2 and n <= EXHAUSTIVE_CELL_LIMIT:
        for a in cells:
            consider((a,), gain[a])
        for i, a in enumerate(cells):
            later = [b for b in grid.remove(a) if b > a]
            # b's gain once a is gone, for the partners within 2m of a
            after_a = dict(zip(later, grid.gains(later)))
            grid._set(a, True)
            for b in cells[i + 1:]:
                consider((a, b), gain[a] + after_a.get(b, gain[b]))
    else:
        # a lazy max-heap: the key i - g * n orders by gain g, highest
        # first, then by sorted-cell index i, so ties pop the first cell in
        # sorted order; a key whose cell is gone or whose gain has changed
        # since it was pushed is stale and skipped
        heap = [i - g * n for i, g in enumerate(gains)]
        heapq.heapify(heap)
        removed: list[Cell] = []
        count = 0
        while True:
            neg, i = divmod(heapq.heappop(heap), n)
            c = cells[i]
            if gain.get(c) != -neg:
                continue
            count += gain.pop(c)
            removed.append(c)
            consider(tuple(removed), count)
            if len(removed) == k or not gain:
                break
            near = grid.remove(c)
            for b, g in zip(near, grid.gains(near)):
                if g != gain[b]:
                    gain[b] = g
                    heapq.heappush(heap, bisect_left(cells, b) - g * n)

    return Attack(removed_cells=best_set, k=k, collapse_fraction=best_frac)


@dataclass(frozen=True)
class FleetReport:
    n: int
    distinct_structures: int
    transfer_rate: float


def transfer_rate(attack: Attack, fleet: list[VoxelStructure],
                  collapse_threshold: float = 0.5) -> FleetReport:
    """Apply one fixed attack to every fleet member.

    Removed cells absent from a member are no-ops. A member counts as
    collapsed when its collapse fraction reaches the threshold.
    """
    if not fleet:
        raise ValueError("fleet must be nonempty")
    # collapse depends only on the occupied cells, so identical members
    # (every robot fleet) share one stability check
    fractions: dict[frozenset[Cell], float] = {}
    collapsed = 0
    for member in fleet:
        fr = fractions.get(member.occupied)
        if fr is None:
            fr = fractions[member.occupied] = collapse_fraction(
                member, attack.removed_cells)
        if fr >= collapse_threshold:
            collapsed += 1
    return FleetReport(
        n=len(fleet),
        distinct_structures=len(fractions),
        transfer_rate=collapsed / len(fleet),
    )
