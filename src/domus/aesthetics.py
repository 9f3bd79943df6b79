"""Pattern-dictionary perception model and the beauty score.

A perceiver is modeled as a small dictionary of primitive voxel
patterns. A structure is explained by greedily stamping dictionary
patterns over its occupied cells; whatever no stamp covers is the
residual, priced by the synthesis module as the shortest program that
would build just those cells. The beauty score combines the stamp
listing cost D, the dictionary size N, and the residual cost r as
D*N + r; lower means the structure is cheaper to perceive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import synthesis
from .world import Cell, FormatError, VoxelStructure

__all__ = [
    "Pattern",
    "PatternDictionary",
    "Placement",
    "Cover",
    "BeautyScore",
    "cover",
    "description_length",
    "beauty_score",
    "load_patterns",
]


@dataclass(frozen=True)
class Pattern:
    """A named set of cell offsets, normalized so min corner is (0,0,0)."""

    name: str
    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise ValueError(f"pattern {self.name!r} has no cells")
        object.__setattr__(self, "cells", frozenset(self.cells))
        mx = min(c[0] for c in self.cells)
        my = min(c[1] for c in self.cells)
        mz = min(c[2] for c in self.cells)
        if (mx, my, mz) != (0, 0, 0):
            norm = frozenset((x - mx, y - my, z - mz) for (x, y, z) in self.cells)
            object.__setattr__(self, "cells", norm)


@dataclass(frozen=True)
class PatternDictionary:
    patterns: tuple[Pattern, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))
        names = [p.name for p in self.patterns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pattern names: {names}")

    @property
    def size(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class Placement:
    pattern: str
    anchor: Cell


@dataclass(frozen=True)
class Cover:
    """Greedy stamping of a structure: placements plus covered/residual split."""

    placements: tuple[Placement, ...]
    covered: frozenset[Cell]
    residual: frozenset[Cell]


def cover(s: VoxelStructure, dictionary: PatternDictionary) -> Cover:
    """Greedy cover of the occupied cells by dictionary stamps.

    Each round picks the placement (pattern translated to an anchor,
    every cell of which is occupied) that covers the most cells not yet
    covered; ties go to the lowest (pattern index, anchor z, y, x).
    Placements may overlap. Stops when nothing new can be covered.

    The rounds run as lazy greedy (Minoux 1978): a heap keyed on
    (-gain, idx, z, y, x) holds each candidate's gain as of its last
    scoring. Gains only shrink as cells are covered, so every stored
    gain is an upper bound. A popped candidate whose gain is still its
    stored gain beats every candidate below it on the true key, and so
    is the pick a full rescan would make; one that lost gain goes back
    with its new key. The picks and their order are the full rescan's.
    """
    occ = s.occupied
    candidates: list[tuple[Placement, frozenset[Cell]]] = []
    heap: list[tuple[int, int, int, int, int, int]] = []
    for idx, pat in enumerate(dictionary.patterns):
        anchors = None
        for off in pat.cells:
            shifted = {(c[0] - off[0], c[1] - off[1], c[2] - off[2]) for c in occ}
            anchors = shifted if anchors is None else anchors & shifted
            if not anchors:
                break
        for a in anchors or ():
            cells = frozenset((a[0] + o[0], a[1] + o[1], a[2] + o[2]) for o in pat.cells)
            heap.append((-len(cells), idx, a[2], a[1], a[0], len(candidates)))
            candidates.append((Placement(pat.name, a), cells))
    heapq.heapify(heap)

    chosen: list[Placement] = []
    covered: set[Cell] = set()
    while heap:
        key = heapq.heappop(heap)
        pl, cells = candidates[key[-1]]
        gain = len(cells - covered)
        if gain == 0:
            continue
        if gain < -key[0]:
            heapq.heappush(heap, (-gain,) + key[1:])
            continue
        chosen.append(pl)
        covered |= cells
    return Cover(
        placements=tuple(chosen),
        covered=frozenset(covered),
        residual=frozenset(occ - covered),
    )


def description_length(c: Cover) -> int:
    """Bytes to list the stamps: one canonical "STAMP name x y z" line
    per placement, LF-separated."""
    if not c.placements:
        return 0
    total = 0
    for pl in c.placements:
        x, y, z = pl.anchor
        total += len(f"STAMP {pl.pattern} {x} {y} {z}")
    return total + len(c.placements) - 1


@dataclass(frozen=True)
class BeautyScore:
    D: int
    N: int
    r: int
    score: int
    cover: Cover

    def __post_init__(self):
        if self.score != self.D * self.N + self.r:
            raise ValueError("score must equal D*N + r")


def beauty_score(s: VoxelStructure, dictionary: PatternDictionary) -> BeautyScore:
    """Score = D*N + r: stamp listing bytes times dictionary size, plus
    the synthesized program length of the unexplained residual cells.
    Lower is better. A structure over synthesis.DEFAULT_CELL_LIMIT cells
    raises BudgetExceeded before the cover runs."""
    synthesis._check_cell_limit(s)
    c = cover(s, dictionary)
    d = description_length(c)
    residual = VoxelStructure(s.dims, c.residual)
    r = synthesis.synthesize_min(residual).length
    n = dictionary.size
    return BeautyScore(D=d, N=n, r=r, score=d * n + r, cover=c)


# --- pattern file format (.pat) ---


def load_patterns(text: str) -> PatternDictionary:
    """Parse the block format: "PATTERN name" followed by one "x y z"
    offset per line, patterns separated by blank lines."""
    patterns: list[Pattern] = []
    name = None
    cells: set[Cell] = set()

    def flush():
        nonlocal name, cells
        if name is not None:
            if not cells:
                raise FormatError(f"pattern {name!r} has no offsets")
            patterns.append(Pattern(name, frozenset(cells)))
        name, cells = None, set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        parts = line.split()
        if parts[0] == "PATTERN":
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'PATTERN name'")
            flush()
            name = parts[1]
            continue
        if name is None:
            raise FormatError(f"line {lineno}: offset outside a PATTERN block")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'x y z'")
        try:
            cells.add((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad offset {line!r}") from exc
    flush()
    try:
        return PatternDictionary(tuple(patterns))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
