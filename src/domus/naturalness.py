"""Regularity metrics separating machined-looking from natural-looking shapes.

Three appearance features are scored in [0, 1]: straightness (longest
axis-aligned run relative to the bounding box), planarity (how much of
the exposed surface lies in large flat patches), and mirror symmetry.
Their mean is the regularity index; naturalness is its complement.
Self-similarity is measured separately with a box-counting dimension
estimate, reported with the quality of its log-log fit.

Straightness and planarity walk the cells as ints, x + X*y + X*Y*z over
the bounding box padded by one cell on every side (_cell_keys), so a
step to a neighbour is one int addition and one set lookup. Box counting
builds each box size's boxes from the previous size's. Every metric
takes time linear in the occupied cells, however large the world or the
bounding box: nothing is allocated per unit of volume.

The exact formulas, the 0.5 default label threshold and the smallest
flat patch (MIN_PATCH faces) are calibrations chosen for testability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import synthesis
from .errors import DomusError
from .world import Cell, VoxelStructure

__all__ = [
    "EmptyStructure",
    "TooSmall",
    "NaturalnessReport",
    "straightness_score",
    "planarity_score",
    "symmetry_score",
    "box_counting_dimension",
    "naturalness_report",
]


class EmptyStructure(DomusError):
    """Metric asked of a structure with no occupied cells."""


class TooSmall(DomusError):
    """Bounding box admits fewer than three box-counting sizes."""


def _require_nonempty(s: VoxelStructure):
    if not s.occupied:
        raise EmptyStructure("metric undefined for an empty structure")


def _cell_keys(s: VoxelStructure, lo: Cell, hi: Cell) -> tuple[set[int], tuple[int, int, int]]:
    """Each occupied cell (x, y, z) as the int x + X*y + X*Y*z, and the
    steps (1, X, X*Y) between neighbours along x, y and z.

    X and Y are the bounding box's x and y extents plus two, so the keys
    are distinct over the box padded by one cell on every side: a step
    from an occupied cell lands on its neighbour's key and never wraps
    into another row or layer.
    """
    X = hi[0] - lo[0] + 3
    XY = X * (hi[1] - lo[1] + 3)
    return {x + X * y + XY * z for x, y, z in s.occupied}, (1, X, XY)


def straightness_score(s: VoxelStructure) -> float:
    """Longest occupied run along an axis over that axis's bounding-box
    extent, maximized over axes.

    Axes where the bounding box is a single cell thick are skipped (a
    flat shape should not score as a perfect line); a lone cell, where
    every axis degenerates, scores 1.0.
    """
    _require_nonempty(s)
    lo, hi = s.bounding_box()
    keys, steps = _cell_keys(s, lo, hi)

    best = None
    for axis, step in enumerate(steps):
        extent = hi[axis] - lo[axis] + 1
        if extent == 1:
            continue
        longest = 0  # in key units, step per cell
        for k in keys:
            if k - step in keys:
                continue  # not a run start
            end = k + step
            while end in keys:
                end += step
            if end - k > longest:
                longest = end - k
        ratio = (longest // step) / extent
        best = ratio if best is None else max(best, ratio)
    return 1.0 if best is None else best


# the fewest coplanar faces that count as a flat patch
MIN_PATCH = 4


def planarity_score(s: VoxelStructure) -> float:
    """Fraction of exposed faces lying in coplanar patches of at least
    MIN_PATCH faces.

    A face is exposed when its neighbor cell is empty or beyond the
    world box. Faces join a patch when they share orientation and plane
    and their cells are adjacent within that plane.

    Cells are int keys (_cell_keys). The faces of one orientation are
    the keys whose neighbour key that way is not occupied, and each
    patch is one 4-connected component of them (Rosenfeld and Pfaltz,
    J. ACM 13(4), 1966), flooded over the two in-plane steps and taken
    out of the face set as it is visited. Time is linear in the cells,
    and independent of the world's and the bounding box's volume.
    """
    _require_nonempty(s)
    keys, (sx, sy, sz) = _cell_keys(s, *s.bounding_box())
    total = flat_area = 0
    for normal, a, b in ((sx, sy, sz), (sy, sx, sz), (sz, sx, sy)):
        for d in (normal, -normal):
            faces = {k for k in keys if k + d not in keys}
            total += len(faces)
            while faces:
                patch = [faces.pop()]
                for k in patch:  # grows as the flood reaches new faces
                    for n in (k + a, k - a, k + b, k - b):
                        if n in faces:
                            faces.remove(n)
                            patch.append(n)
                if len(patch) >= MIN_PATCH:
                    flat_area += len(patch)
    return flat_area / total


def symmetry_score(s: VoxelStructure) -> float:
    """Best mirror-match fraction over the three axis-aligned planes
    through the bounding-box center.

    Axes where the bounding box is one cell thick are skipped, since
    mirroring across them is the identity; a lone cell scores 1.0.
    """
    _require_nonempty(s)
    occ = s.occupied
    lo, hi = s.bounding_box()
    best = None
    for axis in range(3):
        if hi[axis] == lo[axis]:
            continue
        span = lo[axis] + hi[axis]
        if axis == 0:
            mirrored = [(span - x, y, z) for x, y, z in occ]
        elif axis == 1:
            mirrored = [(x, span - y, z) for x, y, z in occ]
        else:
            mirrored = [(x, y, span - z) for x, y, z in occ]
        # mirroring is one-to-one, so this counts the cells whose mirror image is occupied
        frac = len(occ.intersection(mirrored)) / len(occ)
        best = frac if best is None else max(best, frac)
    return 1.0 if best is None else best


def box_counting_dimension(s: VoxelStructure) -> tuple[float, float]:
    """Box-counting dimension estimate and the r-squared of its fit.

    Boxes of side 1, 2, 4, ... up to half the longest bounding-box
    extent E are anchored at the bounding-box corner (so the estimate is
    translation invariant); N(sigma) counts boxes holding at least one
    occupied cell. At least three sizes are required, else TooSmall.

    The dimension is the least-squares slope of ln N(sigma) against
    ln ceil(E/sigma), the number of boxes that span the longest extent;
    equivalently ln(1/sigma_eff) with sigma_eff = E / ceil(E/sigma).
    When sigma does not divide E the last box along an axis sticks out
    past the shape yet counts as a whole box, so fitting against
    ln(1/sigma), which assumes E/sigma boxes, flattens the slope: an
    81-cell solid line would read 0.94 and a 63 x 63 slab 1.99. The
    abscissa counts boxes the same way N does, so the estimate is exact
    for a solid shape whose extents other than 1 are all equal: there
    N(sigma) = ceil(E/sigma) ** d. Only the abscissa accounts for the
    partial boxes; the dyadic ladder, the corner anchoring, the counts
    N(sigma) and the TooSmall rule are the plain box count's.
    """
    _require_nonempty(s)
    lo, hi = s.bounding_box()
    max_extent = max(hi[i] - lo[i] + 1 for i in range(3))
    sizes = []
    sigma = 1
    while sigma <= max_extent / 2:
        sizes.append(sigma)
        sigma *= 2
    if len(sizes) < 3:
        raise TooSmall(
            f"need >= 3 box sizes, got {len(sizes)} (max extent {max_extent})"
        )

    # the boxes of side 1 from the corner; those of side 2 * sigma are the
    # halved boxes of side sigma, since (a // sigma) // 2 == a // (2 * sigma)
    lx, ly, lz = lo
    boxes = {(x - lx, y - ly, z - lz) for x, y, z in s.occupied}
    xs, ys = [], []
    for sigma in sizes:
        if sigma > 1:
            boxes = {(bx >> 1, by >> 1, bz >> 1) for bx, by, bz in boxes}
        xs.append(math.log(math.ceil(max_extent / sigma)))
        ys.append(math.log(len(boxes)))

    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    slope = sxy / sxx
    # an exact fit can round to just above 1
    r2 = 1.0 if syy == 0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return slope, r2


@dataclass(frozen=True)
class NaturalnessReport:
    straightness: float
    planarity: float
    symmetry: float
    fractal_dimension: Optional[float]
    fit_r2: Optional[float]
    regularity_index: float
    naturalness: float
    label: str  # "Natural" | "Artificial"


def naturalness_report(s: VoxelStructure, threshold: float = 0.5) -> NaturalnessReport:
    """Assemble all metrics; label is Natural when naturalness >= threshold.

    The fractal fields are None when the structure is too small for a
    box-counting fit; the label depends only on the regularity scores.
    A structure over synthesis.DEFAULT_CELL_LIMIT cells raises
    BudgetExceeded before any metric runs.
    """
    _require_nonempty(s)
    synthesis._check_cell_limit(s)
    st = straightness_score(s)
    pl = planarity_score(s)
    sy = symmetry_score(s)
    try:
        dim, r2 = box_counting_dimension(s)
    except TooSmall:
        dim, r2 = None, None
    regularity = (st + pl + sy) / 3.0
    nat = 1.0 - regularity
    return NaturalnessReport(
        straightness=st,
        planarity=pl,
        symmetry=sy,
        fractal_dimension=dim,
        fit_r2=r2,
        regularity_index=regularity,
        naturalness=nat,
        label="Natural" if nat >= threshold else "Artificial",
    )
