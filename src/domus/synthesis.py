"""Shortest-program upper bounds for voxel structures.

True minimal description length is uncomputable in general, so this
module produces certified upper bounds: every returned bound carries a
witness program whose execution reproduces the structure exactly. The
pipeline in synthesize_min is one chain: it starts from the shorter of
the trivial cell-by-cell program and a listing of greedy cuboids, then
folds loops and extracts subroutines, each pass making only rewrites
whose exactly priced savings are positive. The start is numbered once
for both passes. The fold pass scans the start once and then keeps the
runs of each sequence across folds, scanning only around the
instruction each fold puts in; extraction rescans the whole tree after
each extraction. For desk-scale worlds, exhaustive_table is the oracle:
one enumeration of every canonical program up to a byte budget gives
each structure they build its true minimum, which anchors the pipeline
in tests. One structure's minimum is
exhaustive_table(s.dims, max_len).get(s.occupied), None when nothing
within max_len builds it.
"""

from __future__ import annotations

import bisect
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


def _rewrite(instrs: tuple, edits: dict[int, tuple[int, tuple]]) -> tuple:
    """Rebuild the tree with each edits[p] = (span, repl) replacing the
    span instructions that start at position p of _layout(instrs).

    Bodies are rebuilt before the sequence that holds them. A sequence
    that no edit touches comes back as the same object.
    """
    def rebuild(seq: tuple, start: int) -> tuple[tuple, int]:
        out = list(seq)
        changed = False
        end = start + len(seq)
        for i, ins in enumerate(seq):
            if isinstance(ins, (vm.Repeat, vm.Def)):
                body, end = rebuild(ins.body, end + 1)
                if body is not ins.body:
                    out[i] = (vm.Repeat(ins.count, body) if isinstance(ins, vm.Repeat)
                              else vm.Def(ins.name, body))
                    changed = True
        # right to left, so that each splice leaves the indices before it
        for k in range(len(seq) - 1, -1, -1):
            edit = edits.get(start + k)
            if edit is not None:
                out[k: k + edit[0]] = edit[1]
                changed = True
        return (tuple(out) if changed else seq), end

    return rebuild(instrs, 0)[0]


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


def _repeated_blocks(ids: list[int]) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield (b, groups) for b = 1, 2, ..., where each group lists, in
    order, every start p of one block ids[p:p+b] that occurs twice
    without overlap. Ids are nonnegative.

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
    """
    follow = ids + [-1]
    by_id: dict[int, list[int]] = {}
    for p, k in enumerate(ids):
        by_id.setdefault(k, []).append(p)
    # pairs, most of the groups on large layouts, are refined apart
    pairs: list[list[int]] = []
    larger: list[list[int]] = []
    for g in by_id.values():
        if len(g) > 1:
            (pairs if len(g) == 2 else larger).append(g)
    b = 1
    while pairs or larger:
        yield b, pairs + larger
        pairs = [g for g in pairs if g[1] - g[0] > b and follow[g[0] + b] == follow[g[1] + b]]
        refined = []
        for g in larger:
            if g[-1] - g[0] <= b:
                continue
            keys = [follow[p + b] for p in g]
            if keys.count(keys[0]) == len(keys):
                refined.append(g)
                continue
            split: dict[int, list[int]] = {}
            for k, p in zip(keys, g):
                split.setdefault(k, []).append(p)
            for h in split.values():
                if h[-1] - h[0] > b:
                    (pairs if len(h) == 2 else refined).append(h)
        larger = refined
        b += 1


# --- pass: loop folding ---


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
    in a run of period b, so a run's starts p are the consecutive
    positions whose group in _repeated_blocks also holds p + b. A run
    never holds a separator or a DEF, nor reaches one at distance b.
    """
    runs: dict[int, list[tuple[int, int]]] = {}
    for b, groups in _repeated_blocks(ids):
        starts: list[int] = []
        for g in groups:
            if len(g) == 2:
                if g[1] - g[0] == b:
                    starts.append(g[0])
            else:
                starts.extend(set(g).intersection([q - b for q in g]))
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


def _best_run(runs: dict, pre: list[int]):
    """Best (b, r, p) fold among the runs, or None.

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
                lb = pre[p + b] - pre[p] + b - 1
                # r copies and their r - 1 separators, against one REPEAT
                if (r - 1) * (lb + 1) > _wrapper_length(vm.Repeat(r, ())):
                    best = (b, r, p)
                    break
        if best is not None:
            return best
    return None


class _Sequence:
    """One sequence of the tree with what the fold pass keeps of it: its
    instruction ids, prefix lengths as _prefix_lengths counts them, runs
    as _tandem_runs finds them, the positions of its REPEAT and DEF nodes
    with a _Sequence for each body, and the best fold of its subtree.

    best is (b, r, route, p): the fold (b, r, p) of the sequence reached
    by taking, for each i in route, the body of the i-th node of kids.
    Among equal (b, r) this sequence wins, then its bodies in order,
    which is the order of positions in _layout.
    """

    __slots__ = ("seq", "ids", "pre", "runs", "kids", "subs", "best")

    def __init__(self, seq: tuple, ids: list[int], pre: list[int], runs: dict,
                 kids: list[int], subs: list["_Sequence"]):
        self.seq, self.ids, self.pre, self.runs = seq, ids, pre, runs
        self.kids, self.subs = kids, subs
        own = _best_run(runs, pre)
        best = None if own is None else (own[0], own[1], (), own[2])
        for i, sub in enumerate(subs):
            t = sub.best
            if t is not None and (best is None or t[:2] > best[:2]):
                best = (t[0], t[1], (i,) + t[2], t[3])
        self.best = best

    def part(self, lo: int, hi: int) -> "_Sequence":
        """The sequence seq[lo:hi]."""
        pre, kids = self.pre, self.kids
        i, j = bisect.bisect_left(kids, lo), bisect.bisect_left(kids, hi)
        return _Sequence(self.seq[lo:hi], self.ids[lo:hi],
                         [x - pre[lo] for x in pre[lo: hi + 1]],
                         _clip_runs(self.runs, lo, hi, 0),
                         [k - lo for k in kids[i:j]], self.subs[i:j])

    def replaced(self, q: int, span: int, ins: vm.Instruction, ins_len: int,
                 sub: "_Sequence", ins_id: int, seen: bool) -> "_Sequence":
        """This sequence with seq[q:q+span] replaced by ins, a REPEAT or
        a DEF of canonical length ins_len whose body is sub; seen is False
        when no other instruction has its id.

        Runs on either side of the edit are clipped at it and keep their
        periods. A new run of period b holds q - b or q, since it is at
        least b long, so ins recurs at distance b; each such run is found
        by extending from there, and it absorbs the clipped runs it meets.
        """
        seq, ids, pre, kids = self.seq, self.ids, self.pre, self.kids
        new_ids = ids[:q] + [ins_id] + ids[q + span:]
        delta = pre[q] + ins_len - pre[q + span]
        runs = _clip_runs(self.runs, 0, q, 0)
        for b, ivs in _clip_runs(self.runs, q + span, len(seq), q + 1).items():
            runs.setdefault(b, []).extend(ivs)
        n = len(new_ids)
        at = -1
        while seen:
            try:
                at = new_ids.index(ins_id, at + 1)
            except ValueError:
                break
            if at == q:
                continue
            b = abs(at - q)
            s = min(at, q)
            e = s + 1
            while s and new_ids[s - 1] == new_ids[s - 1 + b]:
                s -= 1
            while e + b < n and new_ids[e] == new_ids[e + b]:
                e += 1
            if e - s >= b:
                ivs = [iv for iv in runs.get(b, ()) if iv[1] <= s or iv[0] >= e]
                ivs.append((s, e))
                ivs.sort()
                runs[b] = ivs
        i, j = bisect.bisect_left(kids, q), bisect.bisect_left(kids, q + span)
        return _Sequence(seq[:q] + (ins,) + seq[q + span:], new_ids,
                         pre[:q + 1] + [x + delta for x in pre[q + span:]], runs,
                         kids[:i] + [q] + [k + 1 - span for k in kids[j:]],
                         self.subs[:i] + [sub] + self.subs[j:])


class _Folds:
    """The tree under loop folding, as the _Sequence of its top level,
    and the ids of the REPEATs in it, which a new REPEAT equal to one of
    them shares."""

    def __init__(self, instrs: tuple, flat: list, ids: list[int], pre: list[int], runs: dict):
        self.repeats = {ins: ids[p] for p, ins in enumerate(flat) if type(ins) is vm.Repeat}
        self.next_id = len(flat)

        def build(seq: tuple, at: int) -> tuple[_Sequence, int]:
            end = at + len(seq)
            kids, subs = [], []
            for k, ins in enumerate(seq):
                if isinstance(ins, (vm.Repeat, vm.Def)):
                    sub, end = build(ins.body, end + 1)
                    kids.append(k)
                    subs.append(sub)
            return _Sequence(seq, ids[at: at + len(seq)],
                             [x - pre[at] for x in pre[at: at + len(seq) + 1]],
                             _clip_runs(runs, at, at + len(seq), 0), kids, subs), end

        self.root = build(instrs, 0)[0]

    def _id(self, ins: vm.Instruction) -> tuple[int, bool]:
        """The id of a new REPEAT or DEF, and whether an instruction
        made before has it too."""
        if type(ins) is vm.Repeat:
            known = self.repeats.get(ins)
            if known is not None:
                return known, True
            self.repeats[ins] = self.next_id
        self.next_id += 1
        return self.next_id - 1, False

    def fold(self):
        """Make the best fold of the tree. Only the sequence it folds and
        the ones that hold it change; the rest keep their _Sequence."""
        b, r, route, p = self.root.best
        holders = []
        node = self.root
        for i in route:
            holders.append((node, i))
            node = node.subs[i]
        lb = node.pre[p + b] - node.pre[p] + b - 1
        wrapper = _wrapper_length(vm.Repeat(r, ()))
        savings = (r - 1) * (lb + 1) - wrapper
        body = node.part(p, p + b)
        ins = vm.Repeat(r, body.seq)
        node = node.replaced(p, b * r, ins, wrapper + lb, body, *self._id(ins))
        # each holder of a changed body changes in one instruction, which
        # shrinks by the savings
        for holder, i in reversed(holders):
            k = holder.kids[i]
            old = holder.seq[k]
            ins = (vm.Repeat(old.count, node.seq) if type(old) is vm.Repeat
                   else vm.Def(old.name, node.seq))
            node = holder.replaced(k, 1, ins, holder.pre[k + 1] - holder.pre[k] - savings,
                                   node, *self._id(ins))
        self.root = node


def _fold_loops(program: vm.Program, ids: list[int] | None = None) -> vm.Program:
    """Fold consecutive repetitions of instruction blocks into REPEAT
    nodes, everywhere in the tree, while each fold strictly shrinks the
    canonical text. Each fold is the best one in the whole tree, picked
    as _Sequence.best orders them.

    ids, when given, is _instruction_ids of program's layout. One scan of
    the layout finds the runs of every sequence; a program that nothing
    folds comes back as it is. Across folds each sequence keeps its ids,
    prefix lengths, runs and best fold. A fold replaces instructions in
    one sequence and one instruction in each sequence that holds it, and
    only those are updated: their runs away from the edit are clipped and
    shifted, not rescanned, and only runs through the new instruction
    are scanned for, by extending from it. The new REPEAT's body takes
    the runs of the block it was. Every other sequence is left as it is.
    """
    instrs = program.instructions
    flat = _layout(instrs)
    if ids is None:
        ids = _instruction_ids(flat)
    runs = _tandem_runs(ids)
    if not runs:
        return program
    folds = _Folds(instrs, flat, ids, _prefix_lengths(flat, ids), runs)
    while folds.root.best is not None:
        folds.fold()
    # nothing folded: the program itself, which ids still number
    return program if folds.root.seq is instrs else vm.Program(folds.root.seq)


# --- pass: subroutine extraction ---


def _net_displacement(instrs) -> tuple[int, int, int]:
    dx = dy = dz = 0
    for ins in instrs:
        if isinstance(ins, vm.Move):
            if ins.axis == "X":
                dx += ins.n
            elif ins.axis == "Y":
                dy += ins.n
            else:
                dz += ins.n
        elif isinstance(ins, vm.Repeat):
            (a, b, c) = _net_displacement(ins.body)
            dx, dy, dz = dx + ins.count * a, dy + ins.count * b, dz + ins.count * c
        # Place/Fill/Call leave the cursor where it was; Def never
        # appears inside an extractable block
    return dx, dy, dz


def _next_name(used: set[str]) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for ch in alphabet:
        if ch not in used:
            return ch
    k = 2
    while True:
        for combo in itertools.product(alphabet, repeat=k):
            name = "".join(combo)
            if name not in used:
                return name
        k += 1


def _repl_instructions(name: str, disp: tuple[int, int, int]) -> tuple:
    return (vm.Call(name), *_moves_between((0, 0, 0), disp))


def _best_extraction(flat: list, ids: list[int], name: str):
    """Best repeated block to hoist into a DEF, or None.

    Returns (block, occurrences) where occurrences are non-overlapping
    positions in the flat layout. A CALL plus compensating MOVE
    instructions replaces each occurrence, so blocks with nonzero net
    cursor displacement stay eligible.
    """
    pre = None  # prefix lengths, made at the first repeat
    best = None  # minimized key: (-savings, first_pos, b)
    for b, groups in _repeated_blocks(ids):
        for plist in groups:
            # the span is at least b, so occ holds two occurrences or more
            occ: list[int] = []
            last_end = -1
            for p in plist:
                if p >= last_end:
                    occ.append(p)
                    last_end = p + b
            if pre is None:
                pre = _prefix_lengths(flat, ids)
                # the DEF costs its text and the separator before it
                def_overhead = _wrapper_length(vm.Def(name, ())) + 1
                call_length = vm.body_length((vm.Call(name),))
            first = plist[0]
            lb = pre[first + b] - pre[first] + b - 1
            # a bare CALL is the shortest replacement, so this bounds the
            # savings from above before the displacement is reckoned
            bound = len(occ) * (lb - call_length) - def_overhead - lb
            if bound <= 0 or (best is not None and bound < -best[0][0]):
                continue
            repl = _repl_instructions(name, _net_displacement(flat[first: first + b]))
            savings = len(occ) * (lb - vm.body_length(repl)) - def_overhead - lb
            if savings <= 0:
                continue
            key = (-savings, first, b)
            if best is None or key < best[0]:
                best = (key, occ)
    if best is None:
        return None
    (_, first, b), occ = best
    return tuple(flat[first: first + b]), occ


def _contains_call(ins: vm.Instruction, name: str) -> bool:
    if isinstance(ins, vm.Call):
        return ins.name == name
    if isinstance(ins, (vm.Repeat, vm.Def)):
        return any(_contains_call(sub, name) for sub in ins.body)
    return False


def _apply_extraction(instrs: tuple, block: tuple, occ: list[int], name: str) -> tuple:
    repl = _repl_instructions(name, _net_displacement(block))
    instrs = _rewrite(instrs, {p: (len(block), repl) for p in occ})

    # the DEF goes right before the first top-level node whose subtree
    # calls it; every name the block itself calls is defined earlier
    insert_at = len(instrs)
    for i, ins in enumerate(instrs):
        if _contains_call(ins, name):
            insert_at = i
            break
    return instrs[:insert_at] + (vm.Def(name, block),) + instrs[insert_at:]


def _extract_defs(program: vm.Program, reserved_names: frozenset[str] = frozenset(),
                  ids: list[int] | None = None) -> vm.Program:
    """Hoist repeated instruction blocks into DEF/CALL while each
    extraction strictly shrinks the canonical text. ids, when given, is
    _instruction_ids of program's layout.

    _best_extraction prices each step exactly, as no occurrence lies
    inside another's span: that block would hold a REPEAT equal to one
    inside that REPEAT's own body, and a finite tree has none. So each
    step shrinks the text by its positive savings, which bounds the loop.
    """
    instrs = program.instructions
    while True:
        used = {ins.name for ins in instrs if isinstance(ins, vm.Def)}
        name = _next_name(used | reserved_names)
        flat = _layout(instrs)
        found = _best_extraction(flat, _instruction_ids(flat) if ids is None else ids, name)
        if found is None:
            return vm.Program(instrs)
        block, occ = found
        instrs = _apply_extraction(instrs, block, occ, name)
        ids = None


# --- the pipeline ---


def synthesize_min(s: VoxelStructure,
                   limits: vm.ExecutionLimits | None = None) -> ComplexityBound:
    """Best upper bound the compression pipeline can certify.

    One chain: the cuboid listing when it is shorter than the literal
    program, else the literal one, then loop folding and subroutine
    extraction, which price each rewrite exactly and make only those
    that strictly shrink the canonical text. So the witness never
    exceeds the literal program, and method is "compressed" exactly
    when it is shorter. The witness is re-executed under the limits
    before returning; more than DEFAULT_CELL_LIMIT cells raise
    BudgetExceeded.
    """
    if len(s.occupied) > DEFAULT_CELL_LIMIT:
        raise vm.BudgetExceeded(
            f"structure has {len(s.occupied)} cells, limit {DEFAULT_CELL_LIMIT}"
        )
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

    rebuilt = vm.execute(witness, s.dims, limits)
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
_NAMES = "abcdefghijklmnopqrstuvwxyz"


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
    level or repeated, against the max_placements of vm's default
    ExecutionLimits, and fails past it, so the table holds exactly the
    programs vm.execute accepts. A box that leaves the world fails too;
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
        self.max_placements = vm.ExecutionLimits().max_placements
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
