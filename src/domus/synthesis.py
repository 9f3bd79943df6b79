"""Shortest-program upper bounds for voxel structures.

True minimal description length is uncomputable in general, so this
module produces certified upper bounds: every returned bound carries a
witness program whose execution reproduces the structure exactly. The
pipeline in synthesize_min is one chain: it starts from the shorter of
the trivial cell-by-cell program and a listing of greedy cuboids, then
folds loops and extracts subroutines, each pass making only rewrites
whose exactly priced savings are positive.

Both passes rewrite the same kind of tree, a _Tree: a node for each
sequence, which keeps for each of its instructions a slot, an id and a
canonical length across rewrites, and nothing computed from them
beside; and one edit, which replaces each occurrence of a block, makes
the first the body of a new instruction, and rebuilds the instructions
holding what changed, deepest first. A fold is that edit at one
occurrence, r copies of a block that become one REPEAT; an extraction
is it at every occurrence of a block, each of which becomes a CALL and
the MOVEs that compensate it. The start is numbered once for both
passes. Each pass scans its input once, with one scan of repeated
blocks that yields, for each block length, the groups of equal blocks
that occur twice without overlap and the starts of those that the next
block equals. Each pass keeps what it found across its rewrites: the
fold pass the runs of each sequence, read off those starts, scanning
only around the instruction each fold puts in; extraction every group,
in a heap keyed by bounds of their savings, with the slot count at
which its starts were complete. After each extraction one walk over a
work-list looks up only the blocks through the instructions it put
in, growing each by one instruction at a time while it repeats.

For desk-scale worlds, exhaustive_table is the oracle:
one enumeration of every canonical program up to a byte budget gives
each structure they build its true minimum, which anchors the pipeline
in tests. One structure's minimum is
exhaustive_table(s.dims, max_len).get(s.occupied), None when nothing
within max_len builds it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

from . import vm
from .errors import DomusError
from .world import Cell, VoxelStructure

__all__ = [
    "ComplexityBound",
    "EnumerationBudgetExceeded",
    "WitnessMismatch",
    "literal_program",
    "synthesize_min",
    "exhaustive_table",
    "relative_complexity",
]

DEFAULT_CELL_LIMIT = 1_000_000


class EnumerationBudgetExceeded(DomusError):
    """Exhaustive search exceeded its node budget."""


class WitnessMismatch(DomusError):
    """A synthesized witness does not rebuild the structure it bounds."""


@dataclass(frozen=True)
class ComplexityBound:
    """A witness program, its canonical byte length, and how it was found."""

    program: vm.Program
    length: int
    method: str  # "literal" | "compressed" | "exhaustive"


def _zyx(c: Cell):
    return (c[2], c[1], c[0])


def _moves_between(src: Cell, dst: Cell) -> list[vm.Instruction]:
    out: list[vm.Instruction] = []
    for axis, a, b in (("X", src[0], dst[0]), ("Y", src[1], dst[1]), ("Z", src[2], dst[2])):
        if b != a:
            out.append(vm.Move(axis, b - a))
    return out


def _listing(cuboids) -> vm.Program:
    """MOVE to each (anchor, (dx, dy, dz)) in turn and build it there: a
    PLACE for a single cell, else a FILL."""
    out: list[vm.Instruction] = []
    cur: Cell = (0, 0, 0)
    for anchor, dims in cuboids:
        out.extend(_moves_between(cur, anchor))
        out.append(vm.Place() if dims == (1, 1, 1) else vm.Fill(*dims))
        cur = anchor
    return vm.Program(tuple(out))


def literal_program(s: VoxelStructure) -> vm.Program:
    """The trivial witness: visit cells in (z, y, x) order, one PLACE each."""
    return _listing((cell, (1, 1, 1)) for cell in sorted(s.occupied, key=_zyx))


def _cuboid_decomposition(occ: frozenset[Cell]) -> list[tuple[Cell, tuple[int, int, int]]]:
    """Greedy maximal cuboids covering the occupied set.

    Scans cells in (z, y, x) order; each uncovered cell seeds a cuboid
    grown along x, then y, then z while rows and slabs stay occupied.
    Cuboids may overlap previously covered cells; their union is exactly
    the occupied set. Anchors come out in the same (z, y, x) order.
    """
    remaining = set(occ)
    out = []
    for cell in sorted(occ, key=_zyx):
        if cell not in remaining:
            continue
        x, y, z = cell
        dx = 1
        while (x + dx, y, z) in occ:
            dx += 1
        dy = 1
        while all((x + i, y + dy, z) in occ for i in range(dx)):
            dy += 1
        dz = 1
        while all((x + i, y + j, z + dz) in occ for i in range(dx) for j in range(dy)):
            dz += 1
        for k in range(dz):
            for j in range(dy):
                for i in range(dx):
                    remaining.discard((x + i, y + j, z + k))
        out.append(((x, y, z), (dx, dy, dz)))
    return out


# --- the flat layout of the sequence tree ---


def _layout(instrs: tuple) -> list:
    """The top level and every nested REPEAT/DEF body in preorder, laid
    end to end with None between sequences. A position in this list is
    the one address of an instruction in the fold and extraction passes."""
    flat = list(instrs)
    for ins in instrs:
        if isinstance(ins, (vm.Repeat, vm.Def)):
            flat.append(None)
            flat.extend(_layout(ins.body))
    return flat


# --- blocks that repeat ---


def _instruction_ids(flat: list) -> list[int]:
    """Small-int ids of the instructions of a flat layout. Equal
    instructions share the position of the first one; each DEF and each
    separator keeps its own position, so no repeated block holds one."""
    first: dict[vm.Instruction, int] = {}
    ids: list[int] = []
    for p, ins in enumerate(flat):
        ids.append(p if ins is None or isinstance(ins, vm.Def) else first.setdefault(ins, p))
    return ids


def _repeated_blocks(ids: list[int]) -> Iterator[tuple[int, list[list[int]], list[int]]]:
    """Yield (b, groups, squares) for b = 1, 2, ..., where each group
    lists, in order, every start p of one block ids[p:p+b] that occurs
    twice without overlap, and squares lists each start p of a group
    that also holds p + b: the blocks that the next block equals. Ids
    are nonnegative.

    Equal blocks share a group as Karp, Miller & Rosenberg (1972) name
    them, here by partition refinement (Paige & Tarjan, 1987): length
    b+1 splits each group by the id that follows its blocks, -1 past
    the end, and drops a group whose span g[-1] - g[0] is at most b,
    since two non-overlapping copies of b+1 instructions start at least
    b+1 apart. Only the blocks that still repeat are touched: a pair is
    kept or dropped with one comparison, and a group whose blocks all
    have the same follower carries over as it is. The scan stops at the
    first b with no group, since a block of b+1 that occurs twice
    without overlap has a prefix of b that does too.

    b's squares are found where that step looks anyway, so b is yielded
    once it is done; no list of groups changes after it is yielded. A
    pair is a square only at b = g[1] - g[0], where the span rule drops
    it; so each pair is filed under that b when it is made, with the
    length its blocks are known to agree for, and compared from there
    when b comes. A larger group holds p + b only if the block there
    starts as its blocks do, so only the starts whose follower is the
    group's first id are looked up.
    """
    follow = ids + [-1]
    by_id: dict[int, list[int]] = {}
    for p, k in enumerate(ids):
        by_id.setdefault(k, []).append(p)
    # pairs, most of the groups on large layouts, are refined apart
    pairs: list[list[int]] = []
    larger: list[list[int]] = []
    # pair -> (pair, known) by the b at which it may be a square
    due: dict[int, list[tuple[list[int], int]]] = {}
    for g in by_id.values():
        if len(g) == 2:
            pairs.append(g)
            due.setdefault(g[1] - g[0], []).append((g, 1))
        elif len(g) > 2:
            larger.append(g)
    b = 1
    while pairs or larger:
        groups = pairs + larger
        squares = [p for (p, q), known in due.pop(b, ())
                   if ids[p + known: q] == ids[q + known: q + b]]
        pairs = [g for g in pairs if g[1] - g[0] > b and follow[g[0] + b] == follow[g[1] + b]]
        refined = []
        for g in larger:
            if g[-1] - g[0] <= b:
                # its span is b, so the last block follows the first
                squares.append(g[0])
                continue
            keys = [follow[p + b] for p in g]
            if ids[g[0]] in keys:
                starts = set(g)
                squares += [p for p, k in zip(g, keys) if k == ids[g[0]] and p + b in starts]
            if keys.count(keys[0]) == len(keys):
                refined.append(g)
                continue
            split: dict[int, list[int]] = {}
            for k, p in zip(keys, g):
                split.setdefault(k, []).append(p)
            for h in split.values():
                if h[-1] - h[0] > b:
                    if len(h) > 2:
                        refined.append(h)
                        continue
                    pairs.append(h)
                    due.setdefault(h[1] - h[0], []).append((h, b + 1))
        larger = refined
        yield b, groups, squares
        b += 1


# --- lengths and runs ---


def _prefix_lengths(flat: list, ids: list[int]) -> list[int]:
    """pre[p] is the summed canonical length of flat[:p], a separator
    counting 0. A block of b instructions at p holds no separator, so
    vm.body_length of it is pre[p + b] - pre[p] + b - 1: its
    instructions and the LFs between them. Equal instructions share an
    id, so each distinct one is measured once."""
    own = [0] * len(flat)
    pre = [0]
    total = 0
    for p, ins in enumerate(flat):
        if ins is not None:
            q = ids[p]
            own[p] = vm.body_length((ins,)) if q == p else own[q]
            total += own[p]
        pre.append(total)
    return pre


def _wrapper_length(empty: vm.Instruction) -> int:
    """What a REPEAT or DEF adds around a nonempty body: its empty form
    and one more LF."""
    return vm.body_length((empty,)) + 1


def _tandem_runs(ids: list[int]) -> dict[int, list[tuple[int, int]]]:
    """For each period b, the runs of ids: the maximal intervals [s, e)
    of at least b positions on which ids[i] == ids[i + b], in order.

    The block ids[p:p+b] equals the next one exactly when [p, p+b) lies
    in a run of period b, so a run's starts p are consecutive squares
    that _repeated_blocks yields with b. A run never holds a separator
    or a DEF, nor reaches one at distance b.
    """
    runs: dict[int, list[tuple[int, int]]] = {}
    for b, _, starts in _repeated_blocks(ids):
        if not starts:
            continue
        starts.sort()
        out = []
        s = last = starts[0]
        for p in starts[1:]:
            if p != last + 1:
                out.append((s, last + b))
                s = p
            last = p
        out.append((s, last + b))
        runs[b] = out
    return runs


def _clip_runs(runs: dict, lo: int, hi: int, to: int) -> dict:
    """The runs of the slice [lo, hi), moved so that lo lands on to."""
    out = {}
    shift = to - lo
    for b, ivs in runs.items():
        kept = []
        for s, e in ivs:
            s, e = max(s, lo), min(e, hi - b)
            if e - s >= b:
                kept.append((s + shift, e + shift))
        if kept:
            out[b] = kept
    return out


def _best_run(runs: dict, own: list[int]):
    """Best (b, r, p) fold among the runs of a sequence whose
    instructions have the canonical lengths own, or None.

    Prefers the longest block, then the most repetitions, then the
    earliest start; only folds that strictly shrink the canonical text
    qualify. A fold starts at a head p of a run [s, e) of period b, one
    that the copy before it does not extend: p in [s, min(s+b, e-b+1)).
    It takes the r = 1 + (e - p) // b copies from p, which is fewer the
    later p starts.
    """
    for b in sorted(runs, reverse=True):
        best = None
        for s, e in runs[b]:
            for p in range(s, min(s + b, e - b + 1)):
                r = 1 + (e - p) // b
                if best is not None and r <= best[1]:
                    break
                lb = sum(own[p: p + b]) + b - 1
                # r copies and their r - 1 separators, against one REPEAT
                if (r - 1) * (lb + 1) > _wrapper_length(vm.Repeat(r, ())):
                    best = (b, r, p)
                    break
        if best is not None:
            return best
    return None


# --- the sequence tree both passes rewrite ---


class _Node:
    """One sequence of the tree: its instructions and, for each, its id,
    its slot and its canonical length (own), which price a block of b
    instructions at i as sum(own[i:i+b]) + b - 1. holder is the slot of
    the REPEAT or DEF whose body this is, None at the top level.

    The fold pass also keeps on each node, None otherwise, its runs as
    _tandem_runs finds them, the indices of its REPEAT and DEF nodes
    (kids), and the best fold of its subtree, (b, r, route, p): the fold
    (b, r, p) of the sequence reached by taking, for each k in route, the
    body of the node at index k. Among equal (b, r) a sequence wins over
    its bodies, and its bodies go in order, which is the order of
    positions in _layout. A route, not the node itself, so that a tree
    holds no reference cycle and is freed as soon as its pass returns.
    """

    __slots__ = ("ins", "ids", "slots", "own", "holder", "_where", "runs", "kids", "best")

    def __init__(self, ins: list, ids: list[int], slots: list[int], own: list[int], holder):
        self.ins, self.ids, self.slots, self.own = ins, ids, slots, own
        self.holder = holder
        self._where = None
        self.runs = self.kids = self.best = None

    def where(self) -> dict[int, int]:
        """The index of each slot."""
        if self._where is None:
            self._where = dict(zip(self.slots, range(len(self.slots))))
        return self._where

    def splice(self, i: int, span: int, ins: list, ids: list[int], slots: list[int],
               own: list[int]):
        self.ins[i:i + span] = ins
        self.ids[i:i + span] = ids
        self.slots[i:i + span] = slots
        self.own[i:i + span] = own
        self._where = None


class _Tree:
    """The sequence tree that the fold and extraction passes rewrite: a
    _Node for each sequence, the _Node holding each slot (seq_of) and the
    body of each REPEAT or DEF slot (body_of).

    A slot names an instruction for as long as it stays where it is. The
    slots of the start are its layout positions; an edit puts what it
    makes in new slots, and a block of slots moved into a new body keeps
    them. Equal instructions share an id and each DEF has its own: the
    start's ids are its numbering, in which an id is the layout position
    of its first instruction, so ids_of, the id of each instruction but
    a DEF, is read off the distinct ids; an instruction put in takes the
    id of an equal one. With runs, the _tandem_runs of the start's ids,
    each node also gets the fold pass's state, which fold keeps up to
    date and the extraction pass's edits do not.

    Where a node lies is its _path, the one walk up the tree: its length
    is a body's depth, and it orders occurrences by layout position
    (_first) and names the top-level instruction holding one.
    """

    def __init__(self, instrs: tuple, flat: list, ids: list[int], pre: list[int],
                 runs: dict | None = None):
        self.seq_of: dict[int, _Node] = {}
        self.body_of: dict[int, _Node] = {}
        self.ids_of = {flat[p]: p for p in set(ids)
                       if flat[p] is not None and type(flat[p]) is not vm.Def}
        self.next_slot = self.next_id = len(flat)
        self.root = self._build(instrs, 0, None, ids, pre, runs)[0]

    # -- the tree --

    def _build(self, seq: tuple, at: int, holder, ids: list[int], pre: list[int],
               runs: dict | None) -> tuple[_Node, int]:
        """The _Node of seq, which starts at position at of the layout,
        with the nodes of its bodies, and the position after them."""
        end = at + len(seq)
        node = _Node(list(seq), ids[at:end], list(range(at, end)),
                     [pre[p + 1] - pre[p] for p in range(at, end)], holder)
        self.seq_of.update(dict.fromkeys(node.slots, node))
        kids = []
        for k, ins in enumerate(seq):
            if isinstance(ins, (vm.Repeat, vm.Def)):
                kids.append(k)
                self.body_of[at + k], end = self._build(ins.body, end + 1, at + k,
                                                        ids, pre, runs)
        if runs is not None:
            node.runs = _clip_runs(runs, at, at + len(seq), 0)
            node.kids = kids
            self._settle(node)
        return node, end

    def _id(self, ins: vm.Instruction) -> int:
        """The id of an instruction put in: that of an equal one, except
        for a DEF, which has its own."""
        if type(ins) is not vm.Def:
            known = self.ids_of.get(ins)
            if known is not None:
                return known
            self.ids_of[ins] = self.next_id
        self.next_id += 1
        return self.next_id - 1

    def _new_slots(self, seq: _Node, ids: list[int]) -> list[int]:
        slots = list(range(self.next_slot, self.next_slot + len(ids)))
        self.next_slot += len(ids)
        self.seq_of.update(dict.fromkeys(slots, seq))
        return slots

    def _drop(self, slots: list[int]):
        """Forget the slots and the bodies inside them."""
        for p in slots:
            del self.seq_of[p]
            sub = self.body_of.pop(p, None)
            if sub is not None:
                self._drop(sub.slots)

    def _path(self, seq: _Node) -> list[int]:
        """The indices of the instructions holding seq, from the top."""
        path = []
        while seq.holder is not None:
            h = seq.holder
            seq = self.seq_of[h]
            path.append(seq.where()[h])
        return path[::-1]

    def _first(self, occ: list):
        """The layout order of the first of the occurrences (_Node,
        index). The layout holds a sequence before its bodies, and bodies
        in order, so a position sorts as its _path, then its own index:
        as a pair, since path + [i] would sort a body before the later
        instructions of the sequence holding it."""
        return min((self._path(seq), i) for seq, i in occ)

    def _edit(self, occ: list, b: int, span: int, repl: list, repl_own: list[int]):
        """Replace the span instructions at each occurrence (_Node, index)
        by repl, of canonical lengths repl_own, in new slots. The first b
        instructions of the first occurrence, with their slots and the
        bodies inside them, become a _Node that nothing holds yet; the
        rest go, with their bodies. Returns that _Node, the slots made at
        each occurrence, and the edits of _rebuild_holders."""
        home, i0 = occ[0]
        repl_ids = [self._id(ins) for ins in repl]
        growth = sum(repl_own) + len(repl) - sum(home.own[i0: i0 + span]) - span
        body = _Node(home.ins[i0: i0 + b], home.ids[i0: i0 + b], home.slots[i0: i0 + b],
                     home.own[i0: i0 + b], None)
        self.seq_of.update(dict.fromkeys(body.slots, body))
        windows: dict[_Node, list[int]] = {}
        for seq, i in occ:
            windows.setdefault(seq, []).append(i)
        made = []
        for seq, at in windows.items():
            for i in reversed(at):
                self._drop(seq.slots[i + b if seq is home and i == i0 else i: i + span])
                slots = self._new_slots(seq, repl_ids)
                seq.splice(i, span, repl, repl_ids, slots, repl_own)
                made.append(slots)
        return body, made, self._rebuild_holders({seq: growth * len(at)
                                                  for seq, at in windows.items()})

    def _rebuild_holders(self, grown: dict) -> list:
        """Put the REPEAT or DEF around each body seq that changed, which
        grew by grown[seq] bytes (shrank, when negative), in a new slot of
        the sequence holding it, which so grows as much; deepest first, so
        that each holder changes once. Returns each (holder, index)
        rebuilt, in that order."""
        seq_of, body_of = self.seq_of, self.body_of
        depths: dict[int, list[_Node]] = {}
        for seq in grown:
            if seq.holder is not None:
                depths.setdefault(len(self._path(seq)), []).append(seq)
        edits = []
        for d in range(max(depths, default=0), 0, -1):
            for seq in depths.pop(d, ()):
                old_slot = seq.holder
                holder = seq_of.pop(old_slot)
                where = holder.where()
                k = where.pop(old_slot)
                old = holder.ins[k]
                body = tuple(seq.ins)
                ins = vm.Repeat(old.count, body) if type(old) is vm.Repeat else vm.Def(old.name, body)
                k_id = self._id(ins)
                slot = self._new_slots(holder, [k_id])[0]
                holder.ins[k], holder.ids[k], holder.slots[k] = ins, k_id, slot
                holder.own[k] += grown[seq]
                where[slot] = k
                body_of[slot] = body_of.pop(old_slot)
                seq.holder = slot
                edits.append((holder, k))
                if holder.holder is not None and holder not in grown:
                    depths.setdefault(d - 1, []).append(holder)
                grown[holder] = grown.get(holder, 0) + grown[seq]
        return edits

    # -- folding --

    def _settle(self, node: _Node):
        """Set node's best fold from its runs and its bodies' best."""
        own = _best_run(node.runs, node.own)
        best = None if own is None else (own[0], own[1], (), own[2])
        for k in node.kids:
            t = self.body_of[node.slots[k]].best
            if t is not None and (best is None or t[:2] > best[:2]):
                best = (t[0], t[1], (k,) + t[2], t[3])
        node.best = best

    def _refit(self, node: _Node, q: int, span: int):
        """Update node's fold state once its instructions [q, q+span) are
        one REPEAT or DEF.

        Runs on either side of the edit are clipped at it and keep their
        periods. A new run of period b holds q - b or q, since it is at
        least b long, so the new instruction recurs at distance b; each
        such run is found by extending from there, and it absorbs the
        clipped runs it meets.
        """
        ids, kids = node.ids, node.kids
        n = len(ids)
        runs = _clip_runs(node.runs, 0, q, 0)
        for b, ivs in _clip_runs(node.runs, q + span, n + span - 1, q + 1).items():
            runs.setdefault(b, []).extend(ivs)
        new, at = ids[q], -1
        while True:
            try:
                at = ids.index(new, at + 1)
            except ValueError:
                break
            if at == q:
                continue
            b = abs(at - q)
            s = min(at, q)
            e = s + 1
            while s and ids[s - 1] == ids[s - 1 + b]:
                s -= 1
            while e + b < n and ids[e] == ids[e + b]:
                e += 1
            if e - s >= b:
                ivs = [iv for iv in runs.get(b, ()) if iv[1] <= s or iv[0] >= e]
                ivs.append((s, e))
                ivs.sort()
                runs[b] = ivs
        i, j = bisect.bisect_left(kids, q), bisect.bisect_left(kids, q + span)
        node.runs = runs
        node.kids = kids[:i] + [q] + [k + 1 - span for k in kids[j:]]
        self._settle(node)

    def fold(self):
        """Make the best fold of the tree: the edit of its r copies of a
        block into one REPEAT, whose body is the first copy. Only the
        sequence it folds and the ones holding it change."""
        b, r, route, p = self.root.best
        node = self.root
        for k in route:
            node = self.body_of[node.slots[k]]
        kids = node.kids
        lb = sum(node.own[p: p + b]) + b - 1
        ins = vm.Repeat(r, tuple(node.ins[p: p + b]))
        body, _, edits = self._edit([(node, p)], b, b * r, [ins],
                                    [_wrapper_length(vm.Repeat(r, ())) + lb])
        body.holder = node.slots[p]
        self.body_of[body.holder] = body
        # the body takes the state of the block it was
        i, j = bisect.bisect_left(kids, p), bisect.bisect_left(kids, p + b)
        body.runs = _clip_runs(node.runs, p, p + b, 0)
        body.kids = [k - p for k in kids[i:j]]
        self._settle(body)
        self._refit(node, p, b * r)
        for holder, k in edits:
            self._refit(holder, k, 1)


# --- pass: loop folding ---


def _fold_loops(program: vm.Program, ids: list[int] | None = None) -> vm.Program:
    """Fold consecutive repetitions of instruction blocks into REPEAT
    nodes, everywhere in the tree, while each fold strictly shrinks the
    canonical text. Each fold is the best one in the whole tree, picked
    as _Node.best orders them.

    ids, when given, is _instruction_ids of program's layout. One scan of
    the layout finds the runs of every sequence; a program that nothing
    folds comes back as it is. The pass keeps a _Tree with, for each
    sequence, its runs and best fold, priced from the instructions'
    lengths that every node keeps. A fold is the
    tree's edit of one occurrence, which changes one sequence and one
    instruction in each sequence that holds it, and only those are
    updated (_Tree._refit): their runs away from the edit are clipped
    and shifted, not rescanned, and only runs through the new
    instruction are scanned for, by extending from it. The new REPEAT's
    body keeps the slots and the runs of the block it was. Every other
    sequence is left as it is.
    """
    instrs = program.instructions
    flat = _layout(instrs)
    if ids is None:
        ids = _instruction_ids(flat)
    runs = _tandem_runs(ids)
    if not runs:
        return program
    tree = _Tree(instrs, flat, ids, _prefix_lengths(flat, ids), runs)
    while tree.root.best is not None:
        tree.fold()
    # nothing folded, so no slot made: the program itself, which ids
    # still number
    return program if tree.next_slot == len(flat) else vm.Program(tuple(tree.root.ins))


# --- pass: subroutine extraction ---


def _net_displacement(instrs) -> tuple[int, int, int]:
    dx = dy = dz = 0
    for ins in instrs:
        kind = type(ins)
        if kind is vm.Move:
            if ins.axis == "X":
                dx += ins.n
            elif ins.axis == "Y":
                dy += ins.n
            else:
                dz += ins.n
        elif kind is vm.Repeat:
            (a, b, c) = _net_displacement(ins.body)
            dx, dy, dz = dx + ins.count * a, dy + ins.count * b, dz + ins.count * c
        # Place/Fill/Call leave the cursor where it was; Def never
        # appears inside an extractable block
    return dx, dy, dz


# the letters of subroutine names, in the order that extraction and the
# oracle take them
_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _next_name(used: set[str]) -> str:
    for ch in _NAMES:
        if ch not in used:
            return ch
    k = 2
    while True:
        for combo in itertools.product(_NAMES, repeat=k):
            name = "".join(combo)
            if name not in used:
                return name
        k += 1


def _repl_instructions(name: str, disp: tuple[int, int, int]) -> tuple:
    return (vm.Call(name), *_moves_between((0, 0, 0), disp))


def _costs(name: str) -> tuple[int, int]:
    """What a CALL of name costs, and what its DEF costs around the
    body: the DEF's text and the separator before it."""
    return vm.body_length((vm.Call(name),)), _wrapper_length(vm.Def(name, ())) + 1


def _packed(starts: list[int], b: int) -> list[int]:
    """The sorted starts of a block of b instructions that greedy left to
    right packing keeps: each one clear of the last one kept. Packing
    equal intervals so keeps as many as any choice could."""
    out = []
    end = -1
    for p in starts:
        if p >= end:
            out.append(p)
            end = p + b
    return out


def _apart(occ: list, b: int) -> bool:
    """Whether two of the occurrences (sequence, index) of a block of b
    instructions do not overlap: they lie in two sequences, or b apart."""
    if len(occ) < 2:
        return False
    first, lo = occ[0]
    hi = lo
    for seq, j in occ:
        if seq is not first:
            return True
        if j < lo:
            lo = j
        elif j > hi:
            hi = j
    return hi - lo >= b


def _split(news: list, found: list, d: int) -> list:
    """Split a group of _Extractions._discover, the new slots news and
    the occurrences found of their block, both (_Node, index), by the id
    d instructions away: a (news, found) pair for each id that a slot of
    news has there. One pass over each list, however many ids."""
    parts: dict[int, tuple[list, list]] = {}
    for seq, q in news:
        if 0 <= q + d < len(seq.ids):
            parts.setdefault(seq.ids[q + d], ([], []))[0].append((seq, q))
    for o, j in found:
        if 0 <= j + d < len(o.ids):
            part = parts.get(o.ids[j + d])
            if part is not None:
                part[1].append((o, j))
    return list(parts.values())


# a heap key is (-savings << _SERIAL_BITS) + serial: the most savings
# first, then the oldest record; one int compares faster than a tuple
_SERIAL_BITS = 32
_SERIAL = (1 << _SERIAL_BITS) - 1


def _extraction_records(flat: list, ids: list[int], name: str):
    """Every repeated block of the layout that might save bytes as a DEF
    named name, as a list of records and a heap of their keys, and the
    layout's prefix lengths (None when nothing repeats).

    A record's serial is its index. It is (b, lb, rest, starts, made):
    starts lists every start of the block, in order, and lb is its
    canonical length. Its key bounds its savings with a bare CALL for
    each occurrence that greedy packing keeps, which is at least what it
    saves once rest, the length its compensating MOVEs add to the CALL,
    is known (None until then). made is the tree's next slot when starts
    was complete: here len(flat), the first slot an extraction makes.
    """
    pre = None  # prefix lengths, made at the first repeat
    made = len(flat)
    records, heap = [], []
    for b, groups, _ in _repeated_blocks(ids):
        for g in groups:
            if pre is None:
                pre = _prefix_lengths(flat, ids)
                call_length, def_overhead = _costs(name)
            # the span is at least b, so packing keeps two starts or more
            count = 2 if len(g) == 2 else len(_packed(g, b))
            lb = pre[g[0] + b] - pre[g[0]] + b - 1
            bound = count * (lb - call_length) - def_overhead - lb
            if bound > 0:
                heap.append((-bound << _SERIAL_BITS) + len(records))
                records.append((b, lb, None, g, made))
    heapq.heapify(heap)
    return records, heap, pre


class _Extractions(_Tree):
    """The extraction pass's state: the _Tree of the program, and the
    records and heap of _extraction_records, kept across extractions,
    with the slots of each id.

    A record's starts are slots. An occurrence that a record lists stays
    valid while none of its slots moves and no slot made later lies
    among them. So while made, the record's watermark, is still the next
    slot, every start is valid; once an extraction has made slots, a
    start is dropped when its window of b instructions no longer fits
    in its sequence or holds a slot of made or above. An extraction only
    removes occurrences, except through the slots it makes; so one walk,
    _discover, looks up every block through one of those anew and pushes
    it under a new serial, which registry then names for each of its
    starts, so that an older record of the same block, which would miss
    the new occurrence, is dropped when popped.
    """

    def __init__(self, instrs: tuple, flat: list, ids: list[int], pre: list[int],
                 records: list, heap: list[int]):
        super().__init__(instrs, flat, ids, pre)
        self.records, self.heap = records, heap
        self.registry: dict[tuple[int, int], int] = {}
        self.posting: dict[int, list[int]] = {}
        for p, k in enumerate(ids):
            self.posting.setdefault(k, []).append(p)

    # -- picking --

    def pick(self, name: str):
        """The best extraction named name, as (b, occurrences), or None;
        an occurrence is a (_Node, index) pair.

        The heap's keys bound the savings from above: a record's starts
        only lose occurrences, and packing equal intervals keeps no more
        when one goes; a longer name only costs more. So the entries at
        the top key are priced exactly, those that still reach it tie,
        and the rest go back with their price. Ties go to the earliest
        first occurrence in the layout, then the shortest block.
        """
        heap, records, seq_of = self.heap, self.records, self.seq_of
        pop, push = heapq.heappop, heapq.heappush
        call_length, def_overhead = _costs(name)
        while heap:
            top = heap[0] >> _SERIAL_BITS
            tied = []
            while heap and heap[0] >> _SERIAL_BITS == top:
                serial = pop(heap) & _SERIAL
                b, lb, rest, starts, made = records[serial]
                records[serial] = None
                # most records an extraction touched keep one start or none
                starts = [p for p in starts if p in seq_of]
                if len(starts) < 2:
                    continue
                found = self._occurrences(serial, b, starts, made)
                if found is None:
                    continue
                starts, occ = found
                if len(occ) < 2:
                    continue
                if rest is None:
                    seq, i = occ[0]
                    disp = _net_displacement(seq.ins[i: i + b])
                    rest = vm.body_length(_repl_instructions(name, disp)) - call_length
                savings = len(occ) * (lb - call_length - rest) - def_overhead - lb
                if savings > 0:
                    records[serial] = (b, lb, rest, starts, self.next_slot)
                    if savings == -top:
                        tied.append((serial, occ))
                    else:
                        push(heap, (-savings << _SERIAL_BITS) + serial)
            if tied:
                if len(tied) > 1:
                    tied.sort(key=lambda t: (self._first(t[1]), records[t[0]][0]))
                    for serial, _ in tied[1:]:
                        push(heap, (top << _SERIAL_BITS) + serial)
                serial, occ = tied[0]
                b = records[serial][0]
                records[serial] = None
                return b, occ
        return None

    def _occurrences(self, serial: int, b: int, starts: list[int], made: int):
        """Of a record's starts that still have a slot, those that are
        still valid, and the occurrences that packing keeps of them; or
        None when a newer record has the block."""
        seq_of, registry = self.seq_of, self.registry
        moved = made < self.next_slot
        alive = []
        found: dict[_Node, list[int]] = {}
        for p in starts:
            seq = seq_of[p]
            i = seq.where()[p]
            if moved and (i + b > len(seq.slots) or b > 1 and max(seq.slots[i: i + b]) >= made):
                continue
            if registry.get((p, b), serial) != serial:
                return None
            alive.append(p)
            found.setdefault(seq, []).append(i)
        occ = []
        for seq, at in found.items():
            at.sort()
            occ += [(seq, i) for i in _packed(at, b)]
        return alive, occ

    # -- extracting --

    def _new_slots(self, seq: _Node, ids: list[int]) -> list[int]:
        slots = super()._new_slots(seq, ids)
        for p, k in zip(slots, ids):
            self.posting.setdefault(k, []).append(p)
        return slots

    def extract(self, b: int, occ: list, name: str):
        """Replace each occurrence by a CALL of name and the MOVEs that
        compensate the block's displacement, and define name before the
        first top-level node that calls it: the tree's edit, whose
        unheld _Node, the first occurrence, becomes the DEF body. Then
        every block through a new slot is looked up."""
        home, i0 = occ[0]
        block = tuple(home.ins[i0: i0 + b])
        lb = sum(home.own[i0: i0 + b]) + b - 1
        repl = list(_repl_instructions(name, _net_displacement(block)))
        body, made, edits = self._edit(occ, b, b, repl, [vm.body_length((ins,)) for ins in repl])
        # a DEF has an id of its own, so no block holds it
        fresh = [p for slots in made for p in slots] + [
            holder.slots[k] for holder, k in edits if type(holder.ins[k]) is vm.Repeat]

        top = self.root
        at = min((self._path(seq) or [i])[0] for seq, i in occ)
        define = vm.Def(name, block)
        d_id = self._id(define)
        top.splice(at, 0, [define], [d_id], self._new_slots(top, [d_id]),
                   [_wrapper_length(vm.Def(name, ())) + lb])
        body.holder = top.slots[at]
        self.body_of[body.holder] = body

        self._discover(fresh, name)

    def _discover(self, fresh: list[int], name: str):
        """Push every block through a slot of fresh that occurs twice
        without overlap, with all its starts, priced for a DEF named name;
        names only grow, so the bound holds for every later name.

        The slots of one id are taken together. One walk visits the
        blocks [q - left, q + right) through them, each an item (news,
        found, left, right) of a work-list: the slots news whose blocks
        are equal, and the occurrences found of that block, found by
        where their copy of the slot lies. It starts at the block of the
        slot alone, among every occurrence of its id. An item grows by
        one instruction to the right, and, while right is 1, one to the
        left; each growth splits news and found by the id that comes in,
        and goes on only while the longer block repeats, since no longer
        one does otherwise. So each (left, right) of a group is reached
        once, however many new slots it passes. An item is priced and
        recorded where it is taken, unless seen, which names a block by
        its lowest start slot and its length, has it from another new
        slot.
        """
        seq_of, posting, registry = self.seq_of, self.posting, self.registry
        call_length, def_overhead = _costs(name)
        by_id: dict[int, list] = {}
        for p in fresh:
            seq = seq_of[p]
            q = seq.where()[p]
            by_id.setdefault(seq.ids[q], []).append((seq, q))
        todo = []
        for k, news in by_id.items():
            live = [p for p in posting[k] if p in seq_of]
            posting[k] = live
            anchors = [(seq_of[p], seq_of[p].where()[p]) for p in live]
            if _apart(anchors, 1):
                todo.append((news, anchors, 0, 1))
        seen = set()
        while todo:
            news, found, left, right = todo.pop()
            b = left + right
            starts = [o.slots[j - left] for o, j in found]
            key = (min(starts), b)
            if key not in seen:
                seen.add(key)
                seq, q = news[0]
                lb = sum(seq.own[q - left: q + right]) + b - 1
                bound = len(starts) * (lb - call_length) - def_overhead - lb
                if bound > 0:
                    serial = len(self.records)
                    for p in starts:
                        registry[(p, b)] = serial
                    self.records.append((b, lb, None, starts, self.next_slot))
                    heapq.heappush(self.heap, (-bound << _SERIAL_BITS) + serial)
            todo += [(part, ext, left, right + 1) for part, ext in _split(news, found, right)
                     if _apart(ext, b + 1)]
            if right == 1:
                todo += [(part, ext, left + 1, 1) for part, ext in _split(news, found, -b)
                         if _apart(ext, b + 1)]


def _extract_defs(program: vm.Program, reserved_names: frozenset[str] = frozenset(),
                  ids: list[int] | None = None) -> vm.Program:
    """Hoist repeated instruction blocks into DEF/CALL while each
    extraction strictly shrinks the canonical text, taking at each step
    the block that saves the most, then the one that starts first in the
    layout, then the shortest (Apostolico & Lonardi's greedy textual
    substitution, Proc. IEEE 88(11), 2000). ids, when given, is
    _instruction_ids of program's layout. Every name the program calls
    or defines, bound or not, is taken, and so is each of
    reserved_names: a new DEF never binds a CALL that its input left
    unbound, and goes before the first top-level instruction that holds
    one of its occurrences.

    Each step is priced exactly, as no occurrence lies inside another's
    span: that block would hold a REPEAT equal to one inside that
    REPEAT's own body, and a finite tree has none. So each step shrinks
    the text by its positive savings, which bounds the loop.

    One scan of the layout prices every repeated block, and a program
    with no block worth a DEF comes back as it is. Otherwise the pass
    builds the program's _Tree, the tree the fold pass rewrites, and the
    blocks wait in a heap keyed by bounds of their savings, which
    _Extractions.pick checks lazily (Minoux's lazy greedy, 1978, as
    aesthetics.cover does). An extraction is the tree's edit of every
    occurrence: it rewrites only those and the instruction holding each
    body that changed, and looks up only the blocks through what it put
    in.
    """
    instrs = program.instructions
    flat = _layout(instrs)
    if ids is None:
        ids = _instruction_ids(flat)
    used = {ins.name for ins in flat if isinstance(ins, (vm.Def, vm.Call))} | reserved_names
    name = _next_name(used)
    records, heap, pre = _extraction_records(flat, ids, name)
    if not heap:
        return program
    state = _Extractions(instrs, flat, ids, pre, records, heap)
    while True:
        found = state.pick(name)
        if found is None:
            # nothing extracted, so no slot made: the program itself
            return program if state.next_slot == len(flat) else vm.Program(tuple(state.root.ins))
        state.extract(*found, name)
        used.add(name)
        name = _next_name(used)


# --- the pipeline ---


def _check_cell_limit(s: VoxelStructure):
    """Raise BudgetExceeded when s has more than DEFAULT_CELL_LIMIT
    cells, read at call time: the most that synthesize_min,
    aesthetics.beauty_score and naturalness.naturalness_report take."""
    if len(s.occupied) > DEFAULT_CELL_LIMIT:
        raise vm.BudgetExceeded(
            f"structure has {len(s.occupied)} cells, limit {DEFAULT_CELL_LIMIT}")


def synthesize_min(s: VoxelStructure) -> ComplexityBound:
    """Best upper bound the compression pipeline can certify.

    One chain: the cuboid listing when it is shorter than the literal
    program, else the literal one, then loop folding and subroutine
    extraction, which price each rewrite exactly and make only those
    that strictly shrink the canonical text. So the witness never
    exceeds the literal program, and method is "compressed" exactly
    when it is shorter. The witness is re-executed by vm.execute, under
    vm.MAX_PLACEMENTS, before returning; more than DEFAULT_CELL_LIMIT
    cells raise BudgetExceeded.
    """
    _check_cell_limit(s)
    literal = literal_program(s)
    literal_len = vm.program_length(literal)
    start = literal
    cuboids = _cuboid_decomposition(s.occupied)
    # all one-cell cuboids list the literal program again
    if any(dims != (1, 1, 1) for _, dims in cuboids):
        listing = _listing(cuboids)
        if vm.program_length(listing) < literal_len:
            start = listing
    # one numbering of the start serves both passes when nothing folds
    ids = _instruction_ids(_layout(start.instructions))
    folded = _fold_loops(start, ids)
    witness = _extract_defs(folded, ids=ids if folded is start else None)

    rebuilt = vm.execute(witness, s.dims)
    if rebuilt != s:
        raise WitnessMismatch("synthesis produced a witness that does not rebuild its input")
    length = vm.program_length(witness)
    method = "compressed" if length < literal_len else "literal"
    return ComplexityBound(program=witness, length=length, method=method)


def relative_complexity(a: VoxelStructure, b: VoxelStructure) -> int:
    """Signed byte difference between the two synthesized bounds. Any
    fixed interpreter overhead shared by both witnesses cancels.

    No command calls it. It stays public because it is the paper's
    relative measure: a bound is only defined up to the constant cost
    of the interpreter, and the difference of two bounds is not."""
    return synthesize_min(a).length - synthesize_min(b).length


# --- exhaustive enumeration at desk scale ---

# search nodes one exhaustive_table may visit; read at call time
ENUM_NODE_BUDGET = 50_000_000


def _costed(ins: vm.Instruction) -> tuple[vm.Instruction, int]:
    return ins, vm.body_length((ins,))


class _Enumerator:
    """DFS over canonical programs up to a byte budget, with incremental
    execution on an occupancy bitmask.

    Pruning never discards a program that could be the unique shortest
    (or lexicographically smallest among shortest) producer of some
    structure: every pruned form has a strictly shorter or lex-smaller
    equivalent that is still enumerated. Pruned forms are: adjacent
    same-axis moves, move runs out of X<Y<Z order, doubled PLACE,
    placements adding no new cell, zero-effect REPEAT/CALL nodes,
    programs ending in a dead MOVE, and DEFs called fewer than twice
    (inlining is always at least as short at these literal sizes).
    Subroutine names are canonical (a, b, ... in definition order).

    One menu, _options, lists every instruction that may follow the last
    one within the bytes left: PLACE, MOVEs, FILLs, REPEATs around the
    bodies that fit, then CALLs of the names bound so far. The search and
    the body enumeration (_bodies) both walk it. Both are memoised:
    _bodies per (budget, names bound, whether a body may end in a MOVE),
    _options per (room, kind of the last instruction, names bound), so
    the REPEAT options are built once, not at every search node. Every
    option's effect comes from one executor, _exec, and the search skips
    an option that fails there or changes neither mask nor cursor; only
    DEF, which binds a name and builds nothing, has its own branch.

    _exec places cells in one branch: a PLACE is a 1 x 1 x 1 box and a
    FILL its extent times the scale. It charges the box's cells, top
    level or repeated, against vm.MAX_PLACEMENTS, read when the
    enumerator is made, and fails past it, so the table holds exactly
    the programs vm.execute accepts. A box that leaves the world fails too;
    one inside it sets the bits of dx cells, times the row and layer
    strides of its dy rows and dz layers, shifted to its anchor.
    Every search node and every body extension counts against
    ENUM_NODE_BUDGET; past it, EnumerationBudgetExceeded.

    Programs are built of vm instructions. Their execution here, on the
    bitmask, is a second interpreter kept apart from vm.execute, so that
    the table is an independent reference for the synthesis pipeline.
    """

    def __init__(self, dims: tuple[int, int, int], max_len: int):
        self.nx, self.ny, self.nz = dims
        maxd = max(dims)
        self.max_len = max_len
        self.node_budget = ENUM_NODE_BUDGET
        self.nodes = 0
        # mask -> (length, canonical text, program) of its best producer
        self.table: dict[int, tuple[int, str, vm.Program]] = {}
        self._body_memo: dict = {}
        self._option_memo: dict = {}

        # each option with its canonical length
        self.place = _costed(vm.Place())
        self.move_opts = [_costed(vm.Move(axis, n)) for axis in "XYZ"
                          for n in [*range(1, maxd), *range(-1, -maxd, -1)]]
        self.fill_opts = [_costed(vm.Fill(dx, dy, dz)) for dx in range(1, self.nx + 1)
                          for dy in range(1, self.ny + 1) for dz in range(1, self.nz + 1)]
        self.call_opts = {name: [_costed(vm.Call(name, sc)) for sc in range(1, maxd + 1)]
                          for name in _NAMES}
        # a REPEAT or DEF around a nonempty body costs the body and
        # its wrapper
        self.rep_opts = [(cnt, _wrapper_length(vm.Repeat(cnt, ())))
                         for cnt in range(2, maxd + 1)]
        self.def_opts = [(name, _wrapper_length(vm.Def(name, ()))) for name in _NAMES]
        self.max_placements = vm.MAX_PLACEMENTS
        # rows[d] / slabs[d]: bit 0 of d consecutive rows / layers
        row, slab = self.nx, self.nx * self.ny
        self.rows = [sum(1 << (row * j) for j in range(d)) for d in range(self.ny + 1)]
        self.slabs = [sum(1 << (slab * k) for k in range(d)) for d in range(self.nz + 1)]

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise EnumerationBudgetExceeded(
                f"exhaustive search exceeded {self.node_budget} nodes"
            )

    def _options(self, room: int, last, ndefs: int) -> list:
        """Every (instruction, length) that may follow last within room
        bytes while ndefs names are bound."""
        kind = type(last)
        # no PLACE after PLACE, and a move run keeps X < Y < Z; "" and
        # "PLACE" sort before every axis
        after = "PLACE" if kind is vm.Place else (last.axis if kind is vm.Move else "")
        key = (room, after, ndefs)
        hit = self._option_memo.get(key)
        if hit is not None:
            return hit
        place_len = self.place[1]
        out = [self.place] if room >= place_len and after != "PLACE" else []
        out += [o for o in self.move_opts if o[1] <= room and o[0].axis > after]
        out += [o for o in self.fill_opts if o[1] <= room]
        for cnt, overhead in self.rep_opts:
            if room >= overhead + place_len:
                out += [(vm.Repeat(cnt, body), overhead + length)
                        for body, length in self._bodies(room - overhead, ndefs, True)]
        for name in _NAMES[:ndefs]:
            out += [o for o in self.call_opts[name] if o[1] <= room]
        self._option_memo[key] = out
        return out

    def _bodies(self, budget: int, ndefs: int, trailing_move_ok: bool) -> list:
        """All nonempty instruction sequences with canonical length <=
        budget, as (body, length) pairs.

        Context-free: placement validity is judged later, when the
        enclosing REPEAT or CALL node executes at a concrete cursor.
        """
        key = (budget, ndefs, trailing_move_ok)
        hit = self._body_memo.get(key)
        if hit is not None:
            return hit
        out: list[tuple[tuple[vm.Instruction, ...], int]] = []
        seq: list[vm.Instruction] = []

        def extend(used: int, last):
            self._tick()
            at = used + (1 if seq else 0)
            for ins, cost in self._options(budget - at, last, ndefs):
                seq.append(ins)
                if trailing_move_ok or type(ins) is not vm.Move:
                    out.append((tuple(seq), at + cost))
                extend(at + cost, ins)
                seq.pop()

        extend(0, None)
        self._body_memo[key] = out
        return out

    def _exec(self, ins, mask: int, cur, defs, scale: int, placed: int):
        """Apply one instruction; returns (mask, cur, placed) or None when
        a placement leaves the world or the budget runs out."""
        kind = type(ins)
        if kind is vm.Place or kind is vm.Fill:
            dx, dy, dz = ((1, 1, 1) if kind is vm.Place
                          else (ins.dx * scale, ins.dy * scale, ins.dz * scale))
            placed += dx * dy * dz
            x, y, z = cur
            if (placed > self.max_placements or x < 0 or y < 0 or z < 0
                    or x + dx > self.nx or y + dy > self.ny or z + dz > self.nz):
                return None
            box = ((1 << dx) - 1) * self.rows[dy] * self.slabs[dz]
            return mask | box << (x + self.nx * (y + self.ny * z)), cur, placed
        if kind is vm.Move:
            d = ins.n * scale
            x, y, z = cur
            if ins.axis == "X":
                return mask, (x + d, y, z), placed
            if ins.axis == "Y":
                return mask, (x, y + d, z), placed
            return mask, (x, y, z + d), placed
        if kind is vm.Repeat:
            for _ in range(ins.count):
                for sub in ins.body:
                    r = self._exec(sub, mask, cur, defs, scale, placed)
                    if r is None:
                        return None
                    mask, cur, placed = r
            return mask, cur, placed
        if kind is vm.Call:
            inner = cur
            for sub in defs[ins.name]:
                r = self._exec(sub, mask, inner, defs, scale * ins.scale, placed)
                if r is None:
                    return None
                mask, inner, placed = r
            return mask, cur, placed
        raise AssertionError(ins)

    def _record(self, mask: int, used: int, seq: list, call_counts: dict[str, int]):
        if any(c < 2 for c in call_counts.values()):
            return
        prev = self.table.get(mask)
        if prev is not None and prev[0] < used:
            return
        program = vm.Program(tuple(seq))
        text = vm.serialize(program)
        if prev is None or used < prev[0] or (used == prev[0] and text < prev[1]):
            self.table[mask] = (used, text, program)

    def run(self):
        self.table[0] = (0, "", vm.Program())
        self._dfs([], 0, 0, (0, 0, 0), 0, {}, {})

    def _dfs(self, seq: list, used: int, mask: int, cur, placed: int,
             defs: dict[str, tuple], call_counts: dict[str, int]):
        """defs maps each DEF name in seq to its body, call_counts to
        the number of top-level CALLs of it."""
        self._tick()
        at = used + (1 if seq else 0)
        room = self.max_len - at
        for ins, cost in self._options(room, seq[-1] if seq else None, len(defs)):
            r = self._exec(ins, mask, cur, defs, 1, placed)
            # a MOVE always moves the cursor; PLACE, FILL and CALL must add
            # a cell, and a REPEAT add a cell or move the cursor
            if r is None or (r[0] == mask and r[1] == cur):
                continue
            kind = type(ins)
            seq.append(ins)
            if kind is vm.Call:
                call_counts[ins.name] += 1
            if kind is not vm.Move:
                self._record(r[0], at + cost, seq, call_counts)
            self._dfs(seq, at + cost, *r, defs, call_counts)
            if kind is vm.Call:
                call_counts[ins.name] -= 1
            seq.pop()

        # DEF (top level, canonical 1-char names)
        if len(defs) < len(_NAMES):
            name, overhead = self.def_opts[len(defs)]
            if room >= overhead + self.place[1]:
                for body, length in self._bodies(room - overhead, len(defs), False):
                    seq.append(vm.Def(name, body))
                    defs[name] = body
                    call_counts[name] = 0
                    self._dfs(seq, at + overhead + length, mask, cur, placed,
                              defs, call_counts)
                    del call_counts[name]
                    del defs[name]
                    seq.pop()


def _cells_of(mask: int, dims: tuple[int, int, int]) -> frozenset[Cell]:
    nx, ny, _ = dims
    # the binary digits from the lowest bit up, without the "0b"; a
    # frozenset copied from a set gets a smaller table than one grown
    return frozenset({(i % nx, (i // nx) % ny, i // (nx * ny))
                      for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"})


def exhaustive_table(dims: tuple[int, int, int], max_len: int
                     ) -> dict[frozenset[Cell], ComplexityBound]:
    """True minimum of every structure that a canonical program of at
    most max_len bytes builds in this world, from one enumeration; a
    structure missing from it has no such program.

    Among equal-length witnesses the lexicographically smallest text
    wins. Integer literals are bounded by the world dimensions, which
    loses no producible structure at this scale. Raises
    EnumerationBudgetExceeded past ENUM_NODE_BUDGET search nodes.
    """
    enum = _Enumerator(dims, max_len)
    enum.run()
    out = {}
    for mask, (length, _, program) in enum.table.items():
        out[_cells_of(mask, dims)] = ComplexityBound(
            program=program, length=length, method="exhaustive"
        )
    return out
