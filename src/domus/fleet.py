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

import random
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import vm
from .errors import DomusError
from .world import Cell, VoxelStructure, _dense_grid, _unsupported_mask

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
                dims: tuple[int, int, int],
                limits: vm.ExecutionLimits | None = None) -> list[VoxelStructure]:
    """Build n structures from one program under the given builder model.

    Robot fleets execute once and share the immutable result. Human
    fleets are one walk of the program (vm.execute_jittered) with a
    jitter stream per member, seeded by (seed, member index), so member
    i is what a build of its own would give; jittered placements that
    leave the world are dropped, not errors. The walk's step budget is
    spent once per fleet, and a fault is raised once for the fleet.
    """
    if n < 1:
        raise ValueError("fleet size must be >= 1")
    if isinstance(model, RobotBuilder):
        prototype = vm.execute(program, dims, limits)
        return [prototype] * n
    jitters = [_jitter(random.Random(_member_seed(model.seed, i)), model.jitter_prob)
               for i in range(n)]
    return vm.execute_jittered(program, dims, limits, jitters)


def _jitter(rng: random.Random, p: float) -> vm.JitterFn:
    """One member's jitter hook, drawing from its own stream."""

    def jitter():
        if rng.random() < p:
            return _OFFSETS[rng.randrange(len(_OFFSETS))]
        return None

    return jitter


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

    Removing cells only takes support away, so the cells that newly
    lose it number the change in the unsupported count, which
    _AttackGrid counts in the removed cells' windows, plus the removed
    cells that were unsupported already. Only cells whose columns lie
    within 2m of a removed cell (m = MAX_OVERHANG) can change status or
    decide the status of one that does, so the grid holds only the
    cells in the box of those columns, the slice that delta recounts.
    """
    gone = tuple(removed & s.occupied)
    remaining = len(s.occupied) - len(gone)
    if not gone or not remaining:
        return 0.0
    reach = 2 * MAX_OVERHANG
    x0, x1 = min(c[0] for c in gone) - reach, max(c[0] for c in gone) + reach
    y0, y1 = min(c[1] for c in gone) - reach, max(c[1] for c in gone) + reach
    grid = _AttackGrid([c for c in s.occupied if x0 <= c[0] <= x1 and y0 <= c[1] <= y1])
    ox, oy, _ = grid.lo
    was = sum(bool(grid.unsupported[x - ox, y - oy, z]) for x, y, z in gone)
    return (grid.delta(gone) + was) / remaining


class _AttackGrid:
    """Padded dense occupancy of one structure, for windowed support counts.

    Removing cell (x, y, z) changes vertical support only in column
    (x, y) from height z up, and a cell reaches vertical support
    through at most m = MAX_OVERHANG in-layer steps, so only cells whose
    columns lie within m of (x, y) can change status: the inner
    (2m+1)^2 window. Those cells depend on nothing farther than m
    beyond it, so a (4m+1)^2 full-height slice recomputes them exactly.
    delta, gains and remove all rest on this. A cell's delta reads
    occupancy within 2m of its column and status within m, so clearing
    c changes only the deltas of cells whose columns lie within 2m of
    c's. The grid is padded by 2m in x and y, so no slice needs
    clipping.
    """

    def __init__(self, cells):
        self.m = MAX_OVERHANG
        self.occ, self.lo = _dense_grid(cells, pad=2 * self.m)
        self.unsupported = _unsupported_mask(self.occ, self.m)

    def delta(self, removal: tuple[Cell, ...]) -> int:
        """Change in the unsupported count when removal is cleared: the
        recount over the windows of its cells, less the current count
        there. Cells outside those windows keep their status."""
        m, (ox, oy, _) = self.m, self.lo
        xs = [c[0] - ox for c in removal]
        ys = [c[1] - oy for c in removal]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        part = self.occ[x0 - 2 * m:x1 + 2 * m + 1, y0 - 2 * m:y1 + 2 * m + 1].copy()
        for x, y, (_, _, z) in zip(xs, ys, removal):
            part[x - x0 + 2 * m, y - y0 + 2 * m, z] = False
        after = _unsupported_mask(part, m)[m:x1 - x0 + 3 * m + 1, m:y1 - y0 + 3 * m + 1]
        before = self.unsupported[x0 - m:x1 + m + 1, y0 - m:y1 + m + 1]
        return int(np.count_nonzero(after)) - int(np.count_nonzero(before))

    def gains(self, cells: list[Cell]) -> list[int]:
        """delta((c,)) for each cell c, in a few numpy calls: gather
        each cell's (4m+1)^2 full-height slice into a stack, clear its
        centre cell, run the support rule once over the stack and
        subtract each cell's (2m+1)^2 count before. Batches hold at most
        _GAIN_BATCH_CELLS slice cells."""
        m, w = self.m, 4 * self.m + 1
        # slices[x, y] is the slice whose low corner is column (x, y)
        slices = np.moveaxis(sliding_window_view(self.occ, (w, w), axis=(0, 1)), 2, -1)
        was = sliding_window_view(self.unsupported, (2 * m + 1, 2 * m + 1), axis=(0, 1))
        idx = np.array(cells, dtype=np.intp).reshape(-1, 3) - self.lo
        per_batch = max(1, _GAIN_BATCH_CELLS // (w * w * self.occ.shape[2]))
        out: list[int] = []
        for i in range(0, len(idx), per_batch):
            xs, ys, zs = idx[i:i + per_batch].T
            # indexing by arrays copies, so clearing a centre leaves occ as it is
            part = slices[xs - 2 * m, ys - 2 * m]
            part[np.arange(len(zs)), 2 * m, 2 * m, zs] = False
            after = _unsupported_mask(part, m)[:, m:3 * m + 1, m:3 * m + 1]
            before = was[xs - m, ys - m]
            out += (np.count_nonzero(after, axis=(1, 2, 3))
                    - np.count_nonzero(before, axis=(1, 2, 3))).tolist()
        return out

    def remove(self, c: Cell) -> list[Cell]:
        """Clear c, recount the status of the cells within m of it from
        the slice within 2m, and return the occupied cells whose delta
        that can change, those whose columns lie within 2m of c's."""
        m, (ox, oy, _) = self.m, self.lo
        x, y = c[0] - ox, c[1] - oy
        self.occ[x, y, c[2]] = False
        part = self.occ[x - 2 * m:x + 2 * m + 1, y - 2 * m:y + 2 * m + 1]
        self.unsupported[x - m:x + m + 1, y - m:y + m + 1] = (
            _unsupported_mask(part, m)[m:3 * m + 1, m:3 * m + 1])
        near = np.argwhere(part) + (c[0] - 2 * m, c[1] - 2 * m, 0)
        return list(map(tuple, near.tolist()))


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
    have disjoint windows, so a pair's count is the sum of its gains;
    closer pairs are recounted jointly. Otherwise it is greedy: each
    step takes the first maximum gain in sorted-cell order, clears that
    cell in the grid and recounts, in one batch, only the gains the
    removal can change, those of cells within 2m of it. Ties keep the
    first removal in sorted-cell order. Counts are exact integers, so
    the result equals a full recount of every candidate.
    """
    if k < 1:
        raise ValueError("attack budget must be >= 1")
    cells = sorted(s.occupied)
    n = len(cells)
    if not cells:
        return Attack(removed_cells=frozenset(), k=k, collapse_fraction=0.0)
    grid = _AttackGrid(cells)
    # padding changes no occupied cell's support, so this is the
    # prototype's own unsupported count
    unstable = int(np.count_nonzero(grid.unsupported))
    if unstable:
        raise AlreadyUnstable(f"{unstable} cells already unsupported")
    # the prototype is stable, so each gain is the count its removal collapses
    gain = dict(zip(cells, grid.gains(cells)))
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
        reach = 2 * grid.m
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if abs(a[0] - b[0]) > reach or abs(a[1] - b[1]) > reach:
                    consider((a, b), gain[a] + gain[b])
                else:
                    consider((a, b), grid.delta((a, b)))
    else:
        removed: list[Cell] = []
        count = 0
        while True:
            c = max(gain, key=gain.get)
            count += gain.pop(c)
            removed.append(c)
            consider(tuple(removed), count)
            if len(removed) == k or not gain:
                break
            near = grid.remove(c)
            # update keeps the key order, so ties still go to the first cell
            gain.update(zip(near, grid.gains(near)))

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
