import hashlib
import io
import random
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domus import cli, synthesis, vm
from domus.aesthetics import (
    BeautyScore,
    Pattern,
    PatternDictionary,
    beauty_score,
    cover,
    description_length,
    load_patterns,
)
from domus.world import FormatError

from conftest import CORPUS, S, random_structure

BRICK = Pattern("brick", frozenset({(0, 0, 0), (1, 0, 0)}))
DICT1 = PatternDictionary((BRICK,))


def test_pattern_normalizes_to_origin():
    p = Pattern("p", frozenset({(2, 3, 1), (3, 3, 1)}))
    assert p.cells == {(0, 0, 0), (1, 0, 0)}


def test_pattern_requires_cells():
    with pytest.raises(ValueError):
        Pattern("p", frozenset())


def test_dictionary_rejects_duplicate_names():
    with pytest.raises(ValueError):
        PatternDictionary((BRICK, Pattern("brick", frozenset({(0, 0, 0)}))))


# --- cover ---

def test_cover_exact_brick():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0)})
    c = cover(s, DICT1)
    assert len(c.placements) == 1
    assert c.placements[0].pattern == "brick"
    assert c.placements[0].anchor == (0, 0, 0)
    assert c.residual == frozenset()


def test_cover_l_shape_leaves_residual():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
    c = cover(s, DICT1)
    assert len(c.placements) == 1
    assert c.covered == {(0, 0, 0), (1, 0, 0)}
    assert c.residual == {(0, 1, 0)}


def test_cover_empty_dictionary():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0)})
    c = cover(s, PatternDictionary(()))
    assert c.placements == ()
    assert c.residual == s.occupied


def test_cover_tie_break_is_deterministic():
    fat = Pattern("fat", frozenset({(0, 0, 0), (1, 0, 0)}))
    slim = Pattern("slim", frozenset({(0, 0, 0), (0, 1, 0)}))
    d = PatternDictionary((fat, slim))
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)})
    c1 = cover(s, d)
    c2 = cover(s, d)
    assert c1 == c2
    # both patterns cover 2 new cells at several anchors; index breaks the tie
    assert c1.placements[0].pattern == "fat"
    assert c1.placements[0].anchor == (0, 0, 0)


def test_cover_covers_union_of_stamps():
    rng = random.Random(17)
    for _ in range(30):
        anchors = {(rng.randrange(10), rng.randrange(10), rng.randrange(4))
                   for _ in range(rng.randint(1, 12))}
        cells = set()
        for (x, y, z) in anchors:
            cells.update({(x, y, z), (x + 1, y, z)})
        s = S((12, 12, 6), cells)
        c = cover(s, DICT1)
        assert c.residual == frozenset()


# the `beauty` JSON of each corpus program at the criterion-8 dims with
# corpus/brick.pat: byte length and sha256 of stdout, which lists every
# placement in order and every residual cell
CORPUS_BEAUTY = {
    "row3.cvm": ((4, 1, 1), 289,
                 "9d12aed160e48304343884eaebcdf8928981edb515681fb98c1c26425b25170f"),
    "slab4.cvm": ((8, 8, 4), 873,
                  "b371a6e8c735294e3a37622e72fdcc34650cd976dd1dab16d16de01a8e0ca1e7"),
    "pillar.cvm": ((4, 4, 10), 407,
                   "81b4074cbe35d39e9eee8ee1f3b2928df8d35ec22410d6791e52336362e3195c"),
    "bridge.cvm": ((8, 1, 8), 701,
                   "20e758ae937d1920554311a5a5a27ff9d2c8371fd4a7d738e2aa317fef84909f"),
    "sierpinski2.cvm": ((9, 9, 1), 3517,
                        "cfba2f32b591ba9e6cff09ac0186ea52cf5b0cf05f56fe6971d1647061049d4d"),
    "sierpinski3.cvm": ((27, 27, 1), 26455,
                        "ea80cbf5c60aa6d7d34f029d02c4edd0844e890b86c24e0ce131dd6ae6b0a5c3"),
    "sierpinski4.cvm": ((81, 81, 1), 207186,
                        "e7ca138cf4cc9f083ba3da81a8e8cad82323e34f70041d8ad03850ffc97bd558"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_BEAUTY))
def test_corpus_beauty_is_pinned(name):
    dims, length, digest = CORPUS_BEAUTY[name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["beauty", str(CORPUS / name), "--dims", *map(str, dims),
                        "--dict", str(CORPUS / "brick.pat")])
    out = buf.getvalue().encode()
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == (0, length, digest)


def _rescan_cover(s, dictionary):
    """The full-rescan greedy: every round scores every candidate."""
    candidates = []
    for idx, pat in enumerate(dictionary.patterns):
        anchors = {(c[0] - x, c[1] - y, c[2] - z) for c in s.occupied for (x, y, z) in pat.cells}
        for a in anchors:
            cells = frozenset((a[0] + x, a[1] + y, a[2] + z) for (x, y, z) in pat.cells)
            if cells <= s.occupied:
                candidates.append((idx, a, pat.name, cells))
    chosen, covered = [], set()
    while True:
        best = None
        for idx, a, name, cells in candidates:
            gain = len(cells - covered)
            if gain == 0:
                continue
            key = (-gain, idx, a[2], a[1], a[0])
            if best is None or key < best[0]:
                best = (key, name, a, cells)
        if best is None:
            break
        chosen.append((best[1], best[2]))
        covered |= best[3]
    return chosen, frozenset(covered), frozenset(s.occupied - covered)


_offsets = st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
                         min_size=1, max_size=4)


@st.composite
def _cover_cases(draw):
    dims = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    box = [(x, y, z) for z in range(dims[2]) for y in range(dims[1]) for x in range(dims[0])]
    occupied = draw(st.frozensets(st.sampled_from(box), max_size=len(box)))
    shapes = draw(st.lists(_offsets, min_size=1, max_size=4))
    if draw(st.booleans()):
        shapes.insert(draw(st.integers(0, len(shapes))), frozenset({(0, 0, 0)}))
    if draw(st.booleans()):
        # the same cells under another name
        shapes.insert(draw(st.integers(0, len(shapes))), draw(st.sampled_from(shapes)))
    shapes = shapes[:4]
    patterns = tuple(Pattern(f"p{i}", cells) for i, cells in enumerate(shapes))
    return S(dims, occupied), PatternDictionary(patterns)


@given(_cover_cases())
@settings(max_examples=300, deadline=None)
def test_cover_matches_full_rescan(case):
    s, d = case
    c = cover(s, d)
    chosen, covered, residual = _rescan_cover(s, d)
    assert [(pl.pattern, pl.anchor) for pl in c.placements] == chosen
    assert (c.covered, c.residual) == (covered, residual)


def test_cover_of_the_depth_4_carpet_is_fast():
    s = vm.execute(vm.parse((CORPUS / "sierpinski4.cvm").read_text()), (81, 81, 1))
    d = load_patterns((CORPUS / "brick.pat").read_text())
    start = time.process_time()
    c = cover(s, d)
    assert time.process_time() - start < 0.5
    assert len(c.placements) == 1996


# --- description length ---

def test_description_length_examples():
    empty = cover(S((2, 2, 2), set()), DICT1)
    assert description_length(empty) == 0
    one = cover(S((4, 4, 4), {(0, 0, 0), (1, 0, 0)}), DICT1)
    assert description_length(one) == len("STAMP brick 0 0 0") == 17
    two_cells = {(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0)}
    two = cover(S((4, 4, 4), two_cells), DICT1)
    assert description_length(two) == 35


# --- beauty score ---

def test_beauty_single_brick():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0)})
    b = beauty_score(s, DICT1)
    assert (b.D, b.N, b.r, b.score) == (17, 1, 0, 17)


def test_beauty_empty_dictionary_reduces_to_complexity():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
    b = beauty_score(s, PatternDictionary(()))
    assert b.N == 0 and b.D == 0
    assert b.score == b.r == synthesis.synthesize_min(s).length


def test_beauty_fully_spanned():
    s = S((4, 4, 4), {(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)})
    b = beauty_score(s, DICT1)
    assert b.r == 0 and b.score == b.D * b.N


def test_score_identity_holds():
    rng = random.Random(99)
    for _ in range(40):
        s = random_structure(rng, max_cells=50, dims_lo=4, dims_hi=10)
        pats = []
        for i in range(rng.randint(0, 3)):
            cells = {(rng.randrange(2), rng.randrange(2), rng.randrange(2))
                     for _ in range(rng.randint(1, 4))}
            pats.append(Pattern(f"p{i}", frozenset(cells)))
        d = PatternDictionary(tuple(pats))
        b = beauty_score(s, d)
        assert b.score == b.D * b.N + b.r
        assert (b.r == 0) == (not b.cover.residual)


def test_score_invariant_enforced():
    with pytest.raises(ValueError):
        BeautyScore(D=1, N=1, r=1, score=3,
                    cover=cover(S((2, 2, 2), set()), DICT1))


def test_monotone_residual_for_uncoverable_cells():
    base = {(0, 0, 0), (1, 0, 0)}
    s0 = S((6, 6, 6), base)
    r0 = beauty_score(s0, DICT1).r
    # an isolated cell nothing in the dictionary can reach
    s1 = S((6, 6, 6), base | {(4, 4, 4)})
    r1 = beauty_score(s1, DICT1).r
    assert r1 >= r0


# --- pattern files ---

def test_pattern_file_roundtrip():
    d = PatternDictionary((
        BRICK,
        Pattern("corner", frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0)})),
    ))
    # the two patterns written in the block format, z-y-x order
    text = "PATTERN brick\n0 0 0\n1 0 0\n\nPATTERN corner\n0 0 0\n1 0 0\n0 1 0"
    assert load_patterns(text) == d


def test_pattern_file_normalizes():
    d = load_patterns("PATTERN off\n5 5 5\n6 5 5\n")
    assert d.patterns[0].cells == {(0, 0, 0), (1, 0, 0)}


@pytest.mark.parametrize("text", [
    "0 0 0",
    "PATTERN a\nx y z",
    "PATTERN a\n0 0",
    "PATTERN a b\n0 0 0",
    "PATTERN a\n0 0 0\n\nPATTERN a\n1 0 0",
    "PATTERNX brick\n0 0 0\n1 0 0",
])
def test_pattern_file_errors(text):
    with pytest.raises(FormatError):
        load_patterns(text)
