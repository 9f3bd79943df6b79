"""Voxel structures and the functional analyses used as design constraints.

A structure is a finite set of occupied integer cells inside a fixed world
box. On top of that sit the checks a candidate building has to pass:
a combinatorial static-support rule, enclosed (roofed-over) volume,
a material budget, and a site box. Each constraint turns its violation
into a weighted penalty so that all penalties are commensurable with
program byte counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from .errors import DomusError

# numpy is imported in the functions that use it, so loading this
# module does not load it
if TYPE_CHECKING:
    import numpy as np

Cell = tuple[int, int, int]

__all__ = [
    "Cell",
    "VoxelStructure",
    "StabilityReport",
    "Stability",
    "EnclosedVolumeAtLeast",
    "MaterialAtMost",
    "WithinBox",
    "ConstraintSet",
    "ConstraintPenalties",
    "FormatError",
    "check_stability",
    "unsupported_cells",
    "enclosed_volume",
    "eval_constraints",
    "load_constraints",
]


class FormatError(DomusError):
    """Malformed structure, pattern, or constraint file."""


def _checked_dims(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    if dims[0] < 1 or dims[1] < 1 or dims[2] < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return dims


@dataclass(frozen=True)
class VoxelStructure:
    """Occupancy grid: world dimensions plus the set of occupied cells.

    Equality is exact (same dims, same occupied set). Instances are
    immutable and hashable, so fleets of identical buildings share one
    object safely.
    """

    dims: tuple[int, int, int]
    occupied: frozenset[Cell] = frozenset()

    def __post_init__(self):
        nx, ny, nz = _checked_dims(self.dims)
        cells = frozenset(self.occupied)
        object.__setattr__(self, "occupied", cells)
        for (x, y, z) in cells:
            if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
                raise ValueError(f"cell {(x, y, z)} outside dims {self.dims}")

    @classmethod
    def _trusted(cls, dims: tuple[int, int, int], cells: frozenset[Cell]) -> "VoxelStructure":
        """The structure of cells that the caller has already clipped to
        dims, built without checking each cell again."""
        s = object.__new__(cls)
        object.__setattr__(s, "dims", dims)
        object.__setattr__(s, "occupied", cells)
        _checked_dims(dims)
        return s

    def bounding_box(self) -> tuple[Cell, Cell] | None:
        """(min corner, max corner), inclusive, or None when empty."""
        if not self.occupied:
            return None
        xs = [c[0] for c in self.occupied]
        ys = [c[1] for c in self.occupied]
        zs = [c[2] for c in self.occupied]
        return (min(xs), min(ys), min(zs)), (max(xs), max(ys), max(zs))

    # --- layered text format (.vox.txt) ---

    def to_layer_text(self) -> str:
        """Render as the layered text format.

        First line "DIMS nx ny nz", then per z-layer a "LAYER z" line
        followed by ny rows of nx characters ('.' empty, '#' occupied),
        row y=0 first. No trailing newline.
        """
        nx, ny, nz = self.dims
        lines = [f"DIMS {nx} {ny} {nz}"]
        for z in range(nz):
            lines.append(f"LAYER {z}")
            for y in range(ny):
                lines.append(
                    "".join("#" if (x, y, z) in self.occupied else "." for x in range(nx))
                )
        return "\n".join(lines)

    @classmethod
    def from_layer_text(cls, text: str) -> "VoxelStructure":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("DIMS "):
            raise FormatError("expected 'DIMS nx ny nz' on line 1")
        try:
            nx, ny, nz = (int(t) for t in lines[0].split()[1:])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad DIMS line: {lines[0]!r}") from exc
        if min(nx, ny, nz) < 1:
            raise FormatError(f"DIMS must be positive: {lines[0]!r}")
        cells = set()
        pos = 1
        for z in range(nz):
            if pos >= len(lines) or lines[pos] != f"LAYER {z}":
                raise FormatError(f"expected 'LAYER {z}' at line {pos + 1}")
            pos += 1
            for y in range(ny):
                if pos >= len(lines):
                    raise FormatError(f"missing row y={y} of layer {z}")
                row = lines[pos]
                if len(row) != nx or any(ch not in ".#" for ch in row):
                    raise FormatError(f"bad row at line {pos + 1}: {row!r}")
                for x, ch in enumerate(row):
                    if ch == "#":
                        cells.add((x, y, z))
                pos += 1
        if pos != len(lines):
            raise FormatError(f"trailing content at line {pos + 1}")
        return cls((nx, ny, nz), frozenset(cells))


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    unstable_cells: tuple[Cell, ...]
    supported_count: int


def _unsupported_mask(occ: np.ndarray, max_overhang: int) -> np.ndarray:
    """Cells of a dense (..., x, y, z) occupancy grid that fail the
    support rule; leading axes, if any, index a stack of grids.

    Each grid's z=0 is the ground. Vertical support is a running AND up
    each column; the overhang rule is max_overhang rounds of 4-neighbor
    dilation within each layer, masked by occupancy, run on all layers
    (and grids) at once. Dilation past its fixpoint changes nothing, so
    the rounds stop early once a round adds no cell to any grid.
    """
    import numpy as np

    seed = np.logical_and.accumulate(occ, axis=-1)
    for _ in range(max_overhang):
        grown = seed.copy()
        grown[..., 1:, :, :] |= seed[..., :-1, :, :]
        grown[..., :-1, :, :] |= seed[..., 1:, :, :]
        grown[..., 1:, :] |= seed[..., :-1, :]
        grown[..., :-1, :] |= seed[..., 1:, :]
        grown &= occ
        if np.array_equal(grown, seed):
            break
        seed = grown
    return occ & ~seed


def _dense_grid(cells, pad: int = 0) -> tuple[np.ndarray, Cell]:
    """Occupancy of a nonempty cell set over its bounding box, anchored
    at z=0 so ground contact stays visible and padded by pad empty cells
    on each side in x and y. Returns the grid and the cell its origin
    stands for."""
    import numpy as np

    idx = np.fromiter(chain.from_iterable(cells), np.int64, 3 * len(cells)).reshape(-1, 3)
    lo = idx.min(axis=0) - (pad, pad, 0)
    lo[2] = 0
    idx -= lo
    occ = np.zeros(tuple(idx.max(axis=0) + 1 + (pad, pad, 0)), dtype=bool)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ, (int(lo[0]), int(lo[1]), 0)


def unsupported_cells(occupied, max_overhang: int = 2) -> tuple[Cell, ...]:
    """Occupied cells failing the support rule, from a bare cell set.

    Vectorized over the bounding box; see check_stability for the rule.
    """
    if not occupied:
        return ()
    import numpy as np

    occ, (x0, y0, _) = _dense_grid(occupied)
    # argwhere walks the grid in C order, which is sorted cell order
    return tuple(
        (int(x) + x0, int(y) + y0, int(z))
        for (x, y, z) in np.argwhere(_unsupported_mask(occ, max_overhang))
    )


def check_stability(s: VoxelStructure, max_overhang: int = 2) -> StabilityReport:
    """Static support check.

    A cell is vertically supported when its whole column down to z=0 is
    occupied. A cell is supported when it is vertically supported or can
    reach a vertically supported occupied cell of the same layer in at
    most ``max_overhang`` face-adjacent occupied steps. Everything else
    is reported unstable.
    """
    unstable = unsupported_cells(s.occupied, max_overhang)
    return StabilityReport(
        stable=not unstable,
        unstable_cells=unstable,
        supported_count=len(s.occupied) - len(unstable),
    )


def enclosed_volume(s: VoxelStructure) -> int:
    """Count empty cells unreachable from the world boundary.

    Reachability is 6-connected flood fill through empty cells from
    every empty cell on a boundary face of the dims box. Only the
    occupied box needs flooding: an empty cell outside it reaches the
    world boundary in a straight line. So the box from _dense_grid is
    padded with an empty shell that stands for the outside, where the
    flood starts from one cell, and then with a wall shell, so no step
    leaves the array. What the flood does not reach is enclosed.
    """
    if not s.occupied:
        return 0
    import numpy as np

    occ, _ = _dense_grid(s.occupied)
    grid = np.pad(np.pad(occ, 1), 1, constant_values=True)
    _, ny, nz = grid.shape
    filled = bytearray(grid.tobytes())
    steps = (ny * nz, -ny * nz, nz, -nz, 1, -1)
    start = ny * nz + nz + 1  # cell (1, 1, 1), a corner of the empty shell
    filled[start] = 1
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for d in steps:
            j = i + d
            if not filled[j]:
                filled[j] = 1
                frontier.append(j)
    return filled.count(0)


# --- constraints ---


@dataclass(frozen=True)
class Stability:
    """Penalize every unsupported cell."""

    weight: float = 1.0
    max_overhang: int = 2


@dataclass(frozen=True)
class EnclosedVolumeAtLeast:
    """Penalize the shortfall below a minimum enclosed volume."""

    min_volume: int
    weight: float = 1.0


@dataclass(frozen=True)
class MaterialAtMost:
    """Penalize occupied cells beyond the material budget."""

    max_cells: int
    weight: float = 1.0


@dataclass(frozen=True)
class WithinBox:
    """Penalize occupied cells outside an inclusive site box."""

    lo: Cell
    hi: Cell
    weight: float = 1.0


Constraint = Stability | EnclosedVolumeAtLeast | MaterialAtMost | WithinBox


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if not 0.0 <= c.weight < math.inf:
                raise ValueError(f"constraint weight must be finite and >= 0: {c}")


@dataclass(frozen=True)
class ConstraintPenalties:
    penalties: tuple[float, ...]
    total: float


def _violation(s: VoxelStructure, c: Constraint) -> float:
    if isinstance(c, Stability):
        return len(check_stability(s, c.max_overhang).unstable_cells)
    if isinstance(c, EnclosedVolumeAtLeast):
        return max(0, c.min_volume - enclosed_volume(s))
    if isinstance(c, MaterialAtMost):
        return max(0, len(s.occupied) - c.max_cells)
    if isinstance(c, WithinBox):
        (x0, y0, z0), (x1, y1, z1) = c.lo, c.hi
        return sum(
            1
            for (x, y, z) in s.occupied
            if not (x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1)
        )
    raise TypeError(f"unknown constraint {c!r}")


def eval_constraints(s: VoxelStructure, cs: ConstraintSet) -> ConstraintPenalties:
    """Weighted hinge penalties, one per constraint, plus their sum."""
    per = tuple(c.weight * _violation(s, c) for c in cs.constraints)
    return ConstraintPenalties(penalties=per, total=sum(per))


def _json_number(value, types):
    """value if it is an instance of types, else TypeError. JSON true
    and false load as bool, a subclass of int, and are no number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return value


def load_constraints(text: str) -> ConstraintSet:
    """Parse the JSON constraint list.

    Format: array of {"kind": ..., "params": {...}, "weight": w}, w a
    JSON number, finite and >= 0 (default 1). Kinds:
    Stability (optional param max_overhang >= 0, default 2),
    EnclosedVolumeAtLeast (param v_min >= 0), MaterialAtMost (param
    m_max >= 0), WithinBox (param box = [x0, y0, z0, x1, y1, z1], a
    list of six, inclusive, with x0 <= x1, y0 <= y1 and z0 <= z1).
    Each param is a JSON integer (not a boolean); a value of another
    type or outside its range is a FormatError. So is an entry key other
    than kind, params and weight, or a param its kind does not read, and
    the message names the key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"constraint file is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise FormatError("constraint file must hold a JSON array")
    out: list[Constraint] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise FormatError(f"constraint #{i} lacks a 'kind'")
        for key in entry:
            if key not in ("kind", "params", "weight"):
                raise FormatError(f"constraint #{i}: unknown key {key!r}")
        kind = entry["kind"]
        weight = entry.get("weight", 1.0)
        try:
            weight = float(_json_number(weight, (int, float)))
        except (TypeError, OverflowError) as exc:
            raise FormatError(f"constraint #{i}: bad weight {weight!r}") from exc
        if not 0.0 <= weight < math.inf:
            raise FormatError(f"constraint #{i}: weight must be finite and >= 0, got {weight}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise FormatError(f"constraint #{i}: params must be a JSON object, got {params!r}")
        unread = dict(params)  # each branch pops the params its kind reads
        try:
            if kind == "Stability":
                c = Stability(weight=weight,
                              max_overhang=_json_number(unread.pop("max_overhang", 2), int))
                in_range = c.max_overhang >= 0
            elif kind == "EnclosedVolumeAtLeast":
                c = EnclosedVolumeAtLeast(min_volume=_json_number(unread.pop("v_min"), int),
                                          weight=weight)
                in_range = c.min_volume >= 0
            elif kind == "MaterialAtMost":
                c = MaterialAtMost(max_cells=_json_number(unread.pop("m_max"), int), weight=weight)
                in_range = c.max_cells >= 0
            elif kind == "WithinBox":
                box = unread.pop("box")
                if not isinstance(box, list) or len(box) != 6:
                    raise TypeError("box must be a list of six integers")
                x0, y0, z0, x1, y1, z1 = (_json_number(v, int) for v in box)
                c = WithinBox(lo=(x0, y0, z0), hi=(x1, y1, z1), weight=weight)
                in_range = x0 <= x1 and y0 <= y1 and z0 <= z1
            else:
                raise FormatError(f"constraint #{i}: unknown kind {kind!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"constraint #{i}: bad params for {kind}: {params!r}") from exc
        if unread:
            raise FormatError(f"constraint #{i}: {kind} reads no param {min(unread)!r}")
        if not in_range:
            raise FormatError(f"constraint #{i}: params out of range for {kind}: {params!r}")
        out.append(c)
    return ConstraintSet(tuple(out))
