"""Independent reference code for the benchmark's output checks.

Nothing here imports domus. The interpreter, the layer-text reader, the
support rule and the enclosed-volume fill are written from the file
formats and rules stated in the domus README and docstrings, so a
defect in domus cannot hide behind a check that shares its code.
"""

from __future__ import annotations

import re
from itertools import product

import numpy as np

Cell = tuple[int, int, int]


class CheckFailed(Exception):
    """An output of domus disagrees with the reference."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# --- the placement language ---

def run_program(text: str, dims: tuple[int, int, int]) -> frozenset[Cell]:
    """Cells built by a .cvm program, with stamp semantics for CALL and
    the scale multiplying MOVE distances and FILL extents."""
    toks = text.split()
    pos = 0

    def block() -> list:
        nonlocal pos
        out = []
        while pos < len(toks) and toks[pos] != "}":
            head = toks[pos]
            pos += 1
            if head == "PLACE":
                out.append(("P",))
            elif head == "FILL":
                out.append(("F", int(toks[pos]), int(toks[pos + 1]), int(toks[pos + 2])))
                pos += 3
            elif head == "MOVE":
                out.append(("M", "XYZ".index(toks[pos]), int(toks[pos + 1])))
                pos += 2
            elif head in ("REPEAT", "DEF"):
                arg = toks[pos]
                require(toks[pos + 1] == "{", f"expected '{{' after {head} {arg}")
                pos += 2
                body = block()
                require(pos < len(toks) and toks[pos] == "}", "unclosed block")
                pos += 1
                out.append(("R", int(arg), body) if head == "REPEAT" else ("D", arg, body))
            elif head == "CALL":
                name = toks[pos]
                pos += 1
                scale = 1
                if pos < len(toks) and re.fullmatch(r"-?\d+", toks[pos]):
                    scale = int(toks[pos])
                    pos += 1
                out.append(("C", name, scale))
            else:
                raise CheckFailed(f"unknown instruction {head!r}")
        return out

    program = block()
    require(pos == len(toks), "unbalanced '}'")
    nx, ny, nz = dims
    cells: set[Cell] = set()
    defs: dict[str, list] = {}

    def put(x, y, z):
        require(0 <= x < nx and 0 <= y < ny and 0 <= z < nz, f"cell {(x, y, z)} outside {dims}")
        cells.add((x, y, z))

    def walk(body, cur, scale):
        for ins in body:
            op = ins[0]
            if op == "P":
                put(*cur)
            elif op == "F":
                for dz, dy, dx in product(range(ins[3] * scale), range(ins[2] * scale),
                                          range(ins[1] * scale)):
                    put(cur[0] + dx, cur[1] + dy, cur[2] + dz)
            elif op == "M":
                cur = list(cur)
                cur[ins[1]] += ins[2] * scale
                cur = tuple(cur)
            elif op == "R":
                for _ in range(ins[1]):
                    cur = walk(ins[2], cur, scale)
            elif op == "D":
                defs[ins[1]] = ins[2]
            else:
                require(ins[1] in defs, f"CALL {ins[1]} before its DEF")
                walk(defs[ins[1]], cur, scale * ins[2])
        return cur

    walk(program, (0, 0, 0), 1)
    return frozenset(cells)


# --- structure files and pattern dictionaries ---

def read_layers(text: str) -> tuple[tuple[int, int, int], frozenset[Cell]]:
    """Dims and cells of a .vox.txt file."""
    lines = text.splitlines()
    nx, ny, nz = (int(v) for v in lines[0].split()[1:])
    cells = set()
    pos = 1
    for z in range(nz):
        require(lines[pos] == f"LAYER {z}", f"missing LAYER {z}")
        for y in range(ny):
            row = lines[pos + 1 + y]
            require(len(row) == nx, f"row length {len(row)} != {nx}")
            cells.update((x, y, z) for x, ch in enumerate(row) if ch == "#")
        pos += 1 + ny
    require(pos == len(lines), "trailing lines")
    return (nx, ny, nz), frozenset(cells)


def read_patterns(text: str) -> dict[str, frozenset[Cell]]:
    """Pattern name to offsets normalised to a (0, 0, 0) minimum corner."""
    pats: dict[str, set] = {}
    name = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            name = None
        elif parts[0] == "PATTERN":
            name = parts[1]
            pats[name] = set()
        else:
            pats[name].add(tuple(int(v) for v in parts))
    out = {}
    for name, cells in pats.items():
        lo = [min(c[i] for c in cells) for i in range(3)]
        out[name] = frozenset((x - lo[0], y - lo[1], z - lo[2]) for (x, y, z) in cells)
    return out


def carpet(depth: int) -> frozenset[Cell]:
    """Sierpinski carpet of side 3**depth in the z = 0 layer: the cells
    with no base-3 digit position where both x and y have digit 1."""
    side = 3 ** depth

    def keep(x, y):
        while x or y:
            if x % 3 == 1 and y % 3 == 1:
                return False
            x, y = x // 3, y // 3
        return True

    return frozenset((x, y, 0) for x in range(side) for y in range(side) if keep(x, y))


# --- the functional checks ---

_LATERAL = ((1, 0), (-1, 0), (0, 1), (0, -1))


def unsupported(cells, max_overhang: int = 2) -> frozenset[Cell]:
    """Cells failing the support rule: a cell is supported when its whole
    column down to z = 0 is occupied, or when it reaches such a cell of
    its own layer in at most max_overhang face-adjacent occupied steps."""
    cells = set(cells)
    vertical = {c for c in cells if all((c[0], c[1], z) in cells for z in range(c[2]))}
    supported = set(vertical)
    frontier = vertical
    for _ in range(max_overhang):
        nxt = set()
        for (x, y, z) in frontier:
            for dx, dy in _LATERAL:
                n = (x + dx, y + dy, z)
                if n in cells and n not in supported:
                    nxt.add(n)
        supported |= nxt
        frontier = nxt
    return frozenset(cells - supported)


def enclosed_volume(cells) -> int:
    """Empty cells that no 6-connected path of empty cells joins to the
    world boundary. Everything outside the bounding box is empty and
    joined to the boundary, so the fill runs on the box padded by one
    empty cell on every side."""
    if not cells:
        return 0
    arr = np.array(sorted(cells))
    lo = arr.min(axis=0)
    shape = arr.max(axis=0) - lo + 3
    occ = np.zeros(shape, dtype=bool)
    occ[tuple((arr - lo + 1).T)] = True
    reach = np.zeros_like(occ)
    reach[0, :, :] = reach[-1, :, :] = True
    reach[:, 0, :] = reach[:, -1, :] = True
    reach[:, :, 0] = reach[:, :, -1] = True
    reach &= ~occ
    while True:
        grown = reach.copy()
        for axis in range(3):
            grown |= np.roll(reach, 1, axis) | np.roll(reach, -1, axis)
        grown &= ~occ
        if (grown == reach).all():
            break
        reach = grown
    return int((~occ & ~reach).sum())
