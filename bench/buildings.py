"""Seeded buildings for the fleet workload, emitted as .cvm text only.

Every building has the same massing, so runs with different seeds do
the same amount of work: a 3 x 2 grid of rooms (3 x 3 cells inside,
walls on a 4-cell pitch), two storeys of 3-cell-high walls with floor
and roof slabs, raised on 4-cell columns set every 2 cells along the
wall lines. The seed picks the site position, the orientation, and
which corners get a thick 2 x 2 pier, written as a scaled CALL. The
slabs reach at most 2 cells from a column, so the building stands; a
removed column drops what only it held, which is what the attack
search and the fleets measure.
"""

from __future__ import annotations

import random

from checks import enclosed_volume, require, run_program, unsupported

SITE = (64, 64, 64)  # the CLI's default world
COLUMN_H = 4
WALL_H = 3
STOREYS = 2


def building(seed: int) -> str:
    """The .cvm text of the building for this seed."""
    rng = random.Random(seed)
    rx, ry = rng.choice(((3, 2), (2, 3)))
    w, d = 4 * rx + 1, 4 * ry + 1
    ox = rng.randrange(1, SITE[0] - w)
    oy = rng.randrange(1, SITE[1] - d)
    lines = [
        f"MOVE X {ox}", f"MOVE Y {oy}",
        "DEF pier {", f"FILL 1 1 {COLUMN_H // 2}", "}",
        "DEF colx {", f"REPEAT {(w + 1) // 2} {{", f"FILL 1 1 {COLUMN_H}", "MOVE X 2", "}", "}",
        "DEF coly {", f"REPEAT {(d + 1) // 2} {{", f"FILL 1 1 {COLUMN_H}", "MOVE Y 2", "}", "}",
        f"REPEAT {ry + 1} {{", "CALL colx", "MOVE Y 4", "}", f"MOVE Y {-4 * (ry + 1)}",
        f"REPEAT {rx + 1} {{", "CALL coly", "MOVE X 4", "}", f"MOVE X {-4 * (rx + 1)}",
    ]
    # thick piers stand inside the footprint, so each corner shifts
    # its 2 x 2 base inwards
    for cx, cy in ((0, 0), (w - 2, 0), (0, d - 2), (w - 2, d - 2)):
        if rng.random() < 0.5:
            lines += [f"MOVE X {cx}" if cx else None, f"MOVE Y {cy}" if cy else None,
                      "CALL pier 2",
                      f"MOVE X {-cx}" if cx else None, f"MOVE Y {-cy}" if cy else None]
    lines += [
        f"MOVE Z {COLUMN_H}",
        "DEF storey {", f"FILL {w} {d} 1", "MOVE Z 1",
        f"REPEAT {ry + 1} {{", f"FILL {w} 1 {WALL_H}", "MOVE Y 4", "}", f"MOVE Y {-4 * (ry + 1)}",
        f"REPEAT {rx + 1} {{", f"FILL 1 {d} {WALL_H}", "MOVE X 4", "}",
        "}",
        f"REPEAT {STOREYS} {{", "CALL storey", f"MOVE Z {WALL_H + 1}", "}",
        f"FILL {w} {d} 1",
    ]
    text = "\n".join(line for line in lines if line)
    cells = run_program(text, SITE)
    require(not unsupported(cells), f"building {seed} is not stable")
    require(enclosed_volume(cells) > 0, f"building {seed} encloses nothing")
    return text
