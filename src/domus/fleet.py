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


# find_attack searches every singleton and pair up to this many cells
EXHAUSTIVE_CELL_LIMIT = 500


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


def collapse_fraction(s: VoxelStructure, removed: frozenset[Cell],
                      max_overhang: int = 2) -> float:
    """Fraction of surviving cells that newly lose support when the
    given cells are removed. Cells already unsupported before the
    attack do not count; removing everything collapses nothing.

    Removing cells only takes support away, so the cells that newly
    lose it number the change in the unsupported count, which
    _AttackGrid counts in the removed cells' windows, plus the removed
    cells that were unsupported already. Only cells whose columns lie
    within 2m of a removed cell (m = max_overhang) can change status or
    decide the status of one that does, so the grid holds only the
    cells in the box of those columns, the slice that delta recounts.
    """
    gone = tuple(removed & s.occupied)
    remaining = len(s.occupied) - len(gone)
    if not gone or not remaining:
        return 0.0
    reach = 2 * max_overhang
    x0, x1 = min(c[0] for c in gone) - reach, max(c[0] for c in gone) + reach
    y0, y1 = min(c[1] for c in gone) - reach, max(c[1] for c in gone) + reach
    grid = _AttackGrid([c for c in s.occupied if x0 <= c[0] <= x1 and y0 <= c[1] <= y1],
                       max_overhang)
    ox, oy, _ = grid.lo
    was = sum(bool(grid.unsupported[x - ox, y - oy, z]) for x, y, z in gone)
    return (grid.delta(gone) + was) / remaining


class _AttackGrid:
    """Padded dense occupancy of one structure, for windowed support counts.

    Removing cell (x, y, z) changes vertical support only in column
    (x, y) from height z up, and a cell reaches vertical support
    through at most m = max_overhang in-layer steps, so only cells whose
    columns lie within m of (x, y) can change status: the inner
    (2m+1)^2 window. Those cells depend on nothing farther than m
    beyond it, so a (4m+1)^2 full-height slice recomputes them exactly.
    The grid is padded by 2m in x and y, so no slice needs clipping.
    """

    def __init__(self, cells, max_overhang: int):
        self.m = max_overhang
        self.occ, self.lo = _dense_grid(cells, pad=2 * max_overhang)
        self.unsupported = _unsupported_mask(self.occ, max_overhang)

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

    def remove(self, c: Cell):
        ox, oy, _ = self.lo
        self.occ[c[0] - ox, c[1] - oy, c[2]] = False
        self.unsupported = _unsupported_mask(self.occ, self.m)


def find_attack(s: VoxelStructure, k: int, max_overhang: int = 2) -> Attack:
    """Best removal of at most k cells, by collapse fraction.

    Exhaustive over singletons and pairs when k <= 2 and the structure
    has at most EXHAUSTIVE_CELL_LIMIT cells; otherwise greedy, iterating
    the best single removal. Ties keep the first removal in sorted-cell
    order.

    Each candidate is scored locally on one dense grid (see
    _AttackGrid): the collapse count is the current unsupported count
    plus the change inside the removed cells' windows. Two cells more
    than 2m apart in x or y have disjoint windows, so a pair's count is
    the sum of its singletons'; closer pairs are recounted jointly. The
    greedy search clears each pick in the grid and carries its count
    forward. Counts are exact integers, so the result equals a full
    recount of every candidate.
    """
    if k < 1:
        raise ValueError("attack budget must be >= 1")
    cells = sorted(s.occupied)
    n = len(cells)
    best_set: frozenset[Cell] = frozenset()
    best_frac = -1.0
    if not cells:
        return Attack(removed_cells=best_set, k=k, collapse_fraction=0.0)
    grid = _AttackGrid(cells, max_overhang)
    # padding changes no occupied cell's support, so this is the
    # prototype's own unsupported count
    unstable = int(np.count_nonzero(grid.unsupported))
    if unstable:
        raise AlreadyUnstable(f"{unstable} cells already unsupported")

    def fraction(count: int, removed: int) -> float:
        return count / (n - removed) if n > removed else 0.0

    def consider(removal: tuple[Cell, ...], fr: float):
        nonlocal best_set, best_frac
        if fr > best_frac:
            best_frac = fr
            best_set = frozenset(removal)

    if k <= 2 and n <= EXHAUSTIVE_CELL_LIMIT:
        # the prototype is stable, so every count starts from zero
        single = [grid.delta((a,)) for a in cells]
        for a, count in zip(cells, single):
            consider((a,), fraction(count, 1))
        if k >= 2:
            reach = 2 * max_overhang
            for i, a in enumerate(cells):
                for j in range(i + 1, n):
                    b = cells[j]
                    if abs(a[0] - b[0]) > reach or abs(a[1] - b[1]) > reach:
                        count = single[i] + single[j]
                    else:
                        count = grid.delta((a, b))
                    consider((a, b), fraction(count, 2))
    else:
        removed: list[Cell] = []
        gone: set[Cell] = set()
        base = 0
        for _ in range(k):
            step_best = None
            for c in cells:
                if c in gone:
                    continue
                count = base + grid.delta((c,))
                fr = fraction(count, len(removed) + 1)
                if step_best is None or fr > step_best[0]:
                    step_best = (fr, c, count)
            if step_best is None:
                break
            fr, c, base = step_best
            removed.append(c)
            gone.add(c)
            grid.remove(c)
            consider(tuple(removed), fr)

    return Attack(removed_cells=best_set, k=k,
                  collapse_fraction=max(best_frac, 0.0))


@dataclass(frozen=True)
class FleetReport:
    n: int
    distinct_structures: int
    transfer_rate: float


def transfer_rate(attack: Attack, fleet: list[VoxelStructure],
                  collapse_threshold: float = 0.5,
                  max_overhang: int = 2) -> FleetReport:
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
                member, attack.removed_cells, max_overhang)
        if fr >= collapse_threshold:
            collapsed += 1
    return FleetReport(
        n=len(fleet),
        distinct_structures=len(fractions),
        transfer_rate=collapsed / len(fleet),
    )
