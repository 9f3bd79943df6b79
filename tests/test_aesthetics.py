import random

import pytest

from domus import synthesis
from domus.aesthetics import (
    BeautyScore,
    Pattern,
    PatternDictionary,
    beauty_score,
    cover,
    description_length,
    dump_patterns,
    load_patterns,
)
from domus.world import FormatError

from conftest import S, random_structure

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
    text = dump_patterns(d)
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
