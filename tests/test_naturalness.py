import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domus import naturalness as nat
from domus import vm
from domus.world import VoxelStructure

from conftest import S, random_structure


def _cube(side, world=None):
    world = world or side + 2
    cells = {(x, y, z) for x in range(side) for y in range(side) for z in range(side)}
    return S((world, world, world), cells)


# --- straightness ---

def test_straightness_full_row():
    assert nat.straightness_score(S((8, 1, 1), {(x, 0, 0) for x in range(8)})) == 1.0


def test_straightness_single_cell():
    assert nat.straightness_score(S((3, 3, 3), {(1, 1, 1)})) == 1.0


def test_straightness_gappy_row():
    s = S((8, 1, 1), {(0, 0, 0), (2, 0, 0), (4, 0, 0), (6, 0, 0)})
    assert nat.straightness_score(s) == pytest.approx(1 / 7)


# --- planarity ---

def test_planarity_solid_cube():
    assert nat.planarity_score(_cube(4)) == 1.0


def test_planarity_single_cell():
    assert nat.planarity_score(S((3, 3, 3), {(1, 1, 1)})) == 0.0


def test_planarity_slab(monkeypatch):
    monkeypatch.setattr(nat, "MIN_PATCH", 4)
    s = S((4, 4, 1), {(x, y, 0) for x in range(4) for y in range(4)})
    assert nat.planarity_score(s) == 1.0


def test_planarity_min_patch_cutoff(monkeypatch):
    monkeypatch.setattr(nat, "MIN_PATCH", 1)
    s = S((3, 3, 3), {(1, 1, 1)})
    assert nat.planarity_score(s) == 1.0


# --- symmetry ---

def test_symmetry_solid_cuboid():
    assert nat.symmetry_score(_cube(3)) == 1.0


def test_symmetry_single_cell():
    assert nat.symmetry_score(S((3, 3, 3), {(1, 1, 1)})) == 1.0


def test_symmetry_two_plus_one():
    s = S((3, 3, 1), {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
    assert nat.symmetry_score(s) == pytest.approx(2 / 3)


def test_symmetry_mirror_invariant():
    rng = random.Random(21)
    for _ in range(20):
        s = random_structure(rng, max_cells=40, dims_lo=4, dims_hi=9)
        nx = s.dims[0]
        mirrored = VoxelStructure(s.dims, frozenset(
            (nx - 1 - x, y, z) for (x, y, z) in s.occupied))
        assert nat.symmetry_score(s) == pytest.approx(nat.symmetry_score(mirrored))


# --- box counting ---

def test_dimension_slab():
    s = S((64, 64, 1), {(x, y, 0) for x in range(64) for y in range(64)})
    dim, r2 = nat.box_counting_dimension(s)
    assert dim == pytest.approx(2.0, abs=0.15)
    assert r2 > 0.99


def test_dimension_line():
    s = S((64, 1, 1), {(x, 0, 0) for x in range(64)})
    dim, r2 = nat.box_counting_dimension(s)
    assert dim == pytest.approx(1.0, abs=0.15)


def test_dimension_exact_when_sizes_do_not_divide_extent():
    # 81 and 63 are not multiples of the larger dyadic box sides, so the
    # last box along each axis is partial yet counts as a whole one
    line = S((81, 1, 1), {(x, 0, 0) for x in range(81)})
    slab = S((63, 63, 1), {(x, y, 0) for x in range(63) for y in range(63)})
    assert nat.box_counting_dimension(line)[0] == pytest.approx(1.0, abs=1e-9)
    assert nat.box_counting_dimension(slab)[0] == pytest.approx(2.0, abs=1e-9)


def test_dimension_carpet_estimates(corpus):
    # frozen regression values for the bundled fractal programs, the
    # least-squares slopes of the box counts N = 64/24/9 (d2), 512/172/
    # 48/16 (d3) and 4096/1320/384/116/35/9 (d4) against the spanning
    # box counts ceil(E/sigma); the analytic self-similarity exponent is
    # log 8 / log 3 ~ 1.8928, which the dyadic box ladder approaches
    # from below as depth grows
    expected = {2: 1.7827, 3: 1.8159, 4: 1.8644}
    target = math.log(8) / math.log(3)
    errors = []
    for depth, value in expected.items():
        side = 3 ** depth
        prog = vm.parse((corpus / f"sierpinski{depth}.cvm").read_text())
        s = vm.execute(prog, (side, side, 1))
        dim, r2 = nat.box_counting_dimension(s)
        assert dim == pytest.approx(value, abs=5e-4)
        assert r2 >= 0.98
        errors.append(abs(dim - target))
    assert errors[0] > errors[1] > errors[2]


def test_dimension_bounds_on_random_structures():
    rng = random.Random(50)
    for _ in range(15):
        s = random_structure(rng, max_cells=150, dims_lo=9, dims_hi=16)
        try:
            dim, r2 = nat.box_counting_dimension(s)
        except nat.TooSmall:
            continue
        assert -0.1 <= dim <= 3.1
        assert 0.0 <= r2 <= 1.0


def test_dimension_r2_of_exact_fit_is_at_most_one():
    # unclamped, the fit of a solid 13^3 cube rounds to 1.0000000000000004
    s = S((13, 13, 13), {(x, y, z) for x in range(13) for y in range(13) for z in range(13)})
    dim, r2 = nat.box_counting_dimension(s)
    assert dim == pytest.approx(3.0, abs=1e-9)
    assert r2 <= 1.0


def test_dimension_too_small():
    with pytest.raises(nat.TooSmall):
        nat.box_counting_dimension(S((6, 6, 6), {(x, 0, 0) for x in range(6)}))


# --- report ---

def test_report_solid_cuboid_is_artificial():
    rep = nat.naturalness_report(_cube(4))
    assert rep.regularity_index == 1.0
    assert rep.naturalness == 0.0
    assert rep.label == "Artificial"


def test_report_seeded_blob_is_natural():
    rng = random.Random(42)
    cells = {(x, y, z)
             for x in range(32) for y in range(32) for z in range(32)
             if rng.random() < 0.5}
    rep = nat.naturalness_report(S((32, 32, 32), cells))
    assert rep.naturalness > 0.5
    assert rep.label == "Natural"
    # frozen from the first verified run of this seed
    assert rep.naturalness == pytest.approx(0.5478, abs=2e-3)


def test_report_small_structure_omits_fractal_fields():
    rep = nat.naturalness_report(S((3, 3, 3), {(0, 0, 0), (1, 0, 0)}))
    assert rep.fractal_dimension is None and rep.fit_r2 is None
    assert rep.label in ("Natural", "Artificial")


def test_report_empty_structure():
    with pytest.raises(nat.EmptyStructure):
        nat.naturalness_report(S((3, 3, 3), set()))


def test_scores_lie_in_unit_interval():
    rng = random.Random(60)
    for _ in range(25):
        s = random_structure(rng, max_cells=80, dims_lo=4, dims_hi=12)
        rep = nat.naturalness_report(s)
        for v in (rep.straightness, rep.planarity, rep.symmetry,
                  rep.regularity_index, rep.naturalness):
            assert 0.0 <= v <= 1.0


def test_translation_invariance():
    base = {(1, 2, 3), (2, 2, 3), (1, 3, 3), (5, 5, 5), (5, 6, 5),
            (5, 5, 6), (1, 2, 4), (2, 3, 3), (9, 9, 9), (9, 9, 10)}
    a = S((20, 20, 20), base)
    b = VoxelStructure((20, 20, 20), frozenset(
        (x + 4, y + 3, z + 2) for (x, y, z) in base))
    assert nat.straightness_score(a) == nat.straightness_score(b)
    assert nat.planarity_score(a) == nat.planarity_score(b)
    assert nat.symmetry_score(a) == nat.symmetry_score(b)
    assert nat.box_counting_dimension(a) == nat.box_counting_dimension(b)


# --- equivalence with the set-of-tuples metrics ---
#
# The metrics walk int cell keys and build box counts level by level; these
# references compute the same quantities the direct way, over tuples of
# cells, and every result must be equal, not merely close.

_FACE_DIRS = (
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
)


def _ref_straightness(s):
    occ = s.occupied
    lo, hi = s.bounding_box()
    extents = (hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1)
    best = None
    for axis in range(3):
        if extents[axis] == 1:
            continue
        step = [0, 0, 0]
        step[axis] = 1
        sx, sy, sz = step
        longest = 0
        for (x, y, z) in occ:
            if (x - sx, y - sy, z - sz) in occ:
                continue
            run = 1
            while (x + run * sx, y + run * sy, z + run * sz) in occ:
                run += 1
            longest = max(longest, run)
        ratio = longest / extents[axis]
        best = ratio if best is None else max(best, ratio)
    return 1.0 if best is None else best


def _ref_planarity(s, min_patch):
    occ = s.occupied
    faces = set()
    for c in occ:
        for di, (dx, dy, dz) in enumerate(_FACE_DIRS):
            if (c[0] + dx, c[1] + dy, c[2] + dz) not in occ:
                faces.add((c, di))
    tangents = {
        0: ((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        2: ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)),
        4: ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
    }
    flat_area = 0
    seen = set()
    for start in faces:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        patch = 0
        while stack:
            (c, di) = stack.pop()
            patch += 1
            for (tx, ty, tz) in tangents[di & ~1]:
                nb = ((c[0] + tx, c[1] + ty, c[2] + tz), di)
                if nb in faces and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if patch >= min_patch:
            flat_area += patch
    return flat_area / len(faces)


def _ref_symmetry(s):
    occ = s.occupied
    lo, hi = s.bounding_box()
    best = None
    for axis in range(3):
        if hi[axis] == lo[axis]:
            continue
        span = lo[axis] + hi[axis]
        matched = 0
        for c in occ:
            m = list(c)
            m[axis] = span - c[axis]
            if tuple(m) in occ:
                matched += 1
        frac = matched / len(occ)
        best = frac if best is None else max(best, frac)
    return 1.0 if best is None else best


def _ref_box_counting(s):
    lo, hi = s.bounding_box()
    max_extent = max(hi[i] - lo[i] + 1 for i in range(3))
    sizes = []
    sigma = 1
    while sigma <= max_extent / 2:
        sizes.append(sigma)
        sigma *= 2
    if len(sizes) < 3:
        raise nat.TooSmall(f"need >= 3 box sizes, got {len(sizes)}")
    xs, ys = [], []
    for sigma in sizes:
        boxes = {
            ((c[0] - lo[0]) // sigma, (c[1] - lo[1]) // sigma, (c[2] - lo[2]) // sigma)
            for c in s.occupied
        }
        xs.append(math.log(math.ceil(max_extent / sigma)))
        ys.append(math.log(len(boxes)))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return slope, r2


def _box_counting_or_too_small(box_counting, s):
    try:
        return box_counting(s)
    except nat.TooSmall:
        return "TooSmall"


@st.composite
def _structures(draw):
    """A few cuboids and loose cells, so a structure often has several
    components; each coordinate is often on the world's faces, where a
    neighbour lies outside the world."""
    dims = tuple(draw(st.integers(1, 20)) for _ in range(3))

    def coord(axis):
        n = dims[axis]
        return draw(st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1)))

    cells = set()
    for _ in range(draw(st.integers(1, 5))):
        x, y, z = coord(0), coord(1), coord(2)
        dx, dy, dz = (draw(st.integers(1, 6)) for _ in range(3))
        cells.update((i, j, k)
                     for i in range(x, min(x + dx, dims[0]))
                     for j in range(y, min(y + dy, dims[1]))
                     for k in range(z, min(z + dz, dims[2])))
    for _ in range(draw(st.integers(0, 12))):
        cells.add((coord(0), coord(1), coord(2)))
    return S(dims, cells)


@pytest.mark.parametrize("min_patch", range(1, 7))
@settings(max_examples=100, deadline=None)
@given(s=_structures())
def test_metrics_equal_the_set_of_tuples_references(min_patch, s):
    assert nat.straightness_score(s) == _ref_straightness(s)
    assert nat.symmetry_score(s) == _ref_symmetry(s)
    assert (_box_counting_or_too_small(nat.box_counting_dimension, s)
            == _box_counting_or_too_small(_ref_box_counting, s))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nat, "MIN_PATCH", min_patch)
        assert nat.planarity_score(s) == _ref_planarity(s, min_patch)


def test_metrics_equal_the_references_on_seeded_structures():
    # larger and denser than the drawn structures, as in the corpus
    rng = random.Random(36)
    for _ in range(20):
        s = random_structure(rng, max_cells=400, dims_lo=6, dims_hi=24)
        assert nat.straightness_score(s) == _ref_straightness(s)
        assert nat.planarity_score(s) == _ref_planarity(s, nat.MIN_PATCH)
        assert nat.symmetry_score(s) == _ref_symmetry(s)
        assert (_box_counting_or_too_small(nat.box_counting_dimension, s)
                == _box_counting_or_too_small(_ref_box_counting, s))

