"""Search program space for designs that are cheap to perceive and
structurally sound.

The objective prices a candidate program by executing it and summing
the residual perception cost of its structure (bytes of shortest
program for whatever the pattern dictionary cannot explain) with the
weighted constraint penalties. Both terms are bytes-equivalent, so they
add. A seeded simulated annealer edits the program directly; every
dictionary pattern is precompiled into a DEF stamp so a single edit can
drop a whole primitive into the design. The dictionary, constraints and
dims are fixed for a search, so the score depends only on the structure
a candidate builds: each search builds every candidate but scores each
distinct structure once.

A search keeps the summaries of the bodies its candidates ran
(vm.execute's memo) and builds a long candidate from chunks: its top
level after the stamp prelude is cut into DEFs and chunks of a few
instructions, and an edit cuts again only the chunks it touched. Every
other chunk is the same tuple as in the candidate it was edited from,
so its summary is found in the memo and its length is kept: a build
summarises, and pricing measures, only the chunks the edit touched (see
vm._build_chunked). The memo keeps a chunk's summary while the current
or the best candidate holds the chunk.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import is_not

from . import synthesis, vm
from .aesthetics import Pattern, PatternDictionary, beauty_score
from .errors import DomusError
from .world import ConstraintSet, VoxelStructure, eval_constraints

__all__ = [
    "SearchParams",
    "TraceRecord",
    "SearchTrace",
    "objective",
    "optimize",
    "compile_stamp",
    "stamp_prelude",
]

# Edit kinds and their draw weights. The order is part of the search:
# rng.choices draws against it, as against the weights' running sums,
# which it would otherwise sum again at each draw.
_MOVE_KINDS, _MOVE_WEIGHTS = zip(
    ("insert", 3.0),
    ("delete", 2.0),
    ("perturb", 3.0),
    ("wrap_repeat", 1.0),
    ("extract_def", 0.5),
    ("insert_stamp", 3.0),
)
_MOVE_SUMS = tuple(accumulate(_MOVE_WEIGHTS))


@dataclass(frozen=True)
class SearchParams:
    seed: int = 0
    iterations: int = 1000
    initial_temperature: float = 8.0
    cooling: float = 0.999
    dims: tuple[int, int, int] = (16, 16, 16)
    max_program_bytes: int = 4096
    islands: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.cooling < 1.0):
            raise ValueError("cooling must lie in (0, 1)")
        if not 0.0 < self.initial_temperature < math.inf:
            raise ValueError("initial temperature must be positive and finite")
        if self.islands < 1:
            raise ValueError("islands must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    accepted: bool
    best_so_far: float


@dataclass(frozen=True)
class SearchTrace:
    records: tuple[TraceRecord, ...]

    def to_csv(self) -> str:
        lines = ["iter,objective,accepted,best"]
        for r in self.records:
            lines.append(
                f"{r.iteration},{_fmt(r.objective)},{int(r.accepted)},{_fmt(r.best_so_far)}"
            )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == int(x):
        return str(int(x))
    return repr(x)


def objective(program: vm.Program, dictionary: PatternDictionary,
              cs: ConstraintSet, dims: tuple[int, int, int]) -> float:
    """Residual perception cost plus constraint penalties, in bytes.

    The program is built under the default execution limits; one that
    fails to execute scores +inf.
    """
    try:
        built = vm.execute(program, dims)
    except DomusError:
        return math.inf
    return _structure_score(built, dictionary, cs)


def _structure_score(built: VoxelStructure, dictionary: PatternDictionary,
                     cs: ConstraintSet) -> float:
    return beauty_score(built, dictionary).r + eval_constraints(built, cs).total


def compile_stamp(pattern: Pattern, name: str) -> vm.Def:
    """Turn a pattern into a DEF whose call at any anchor reproduces the
    pattern cells relative to that anchor."""
    shape = VoxelStructure(
        (
            max(c[0] for c in pattern.cells) + 1,
            max(c[1] for c in pattern.cells) + 1,
            max(c[2] for c in pattern.cells) + 1,
        ),
        pattern.cells,
    )
    body = synthesis.synthesize_min(shape).program.instructions
    if any(isinstance(ins, vm.Def) for ins in body):
        body = synthesis.literal_program(shape).instructions
    return vm.Def(name, body)


def stamp_prelude(dictionary: PatternDictionary) -> tuple[vm.Def, ...]:
    defs = []
    used: set[str] = set()
    for i, pat in enumerate(dictionary.patterns):
        name = pat.name if vm._IDENT_RE.match(pat.name) and pat.name not in used else f"p{i}"
        suffix = len(used)
        while name in used:
            name = f"p{i}_{suffix}"
            suffix += 1
        used.add(name)
        defs.append(compile_stamp(pat, name))
    return tuple(defs)


class _Editor:
    """Random structure-preserving edits of the instruction list after
    the stamp prelude."""

    def __init__(self, rng: random.Random, dims: tuple[int, int, int],
                 stamp_names: list[str]):
        self.rng = rng
        self.dims = dims
        self.stamp_names = stamp_names
        self.max_move = max(max(dims) - 1, 1)

    def random_instruction(self) -> vm.Instruction:
        rng = self.rng
        roll = rng.randrange(4 if self.stamp_names else 3)
        if roll == 0:
            return vm.Place()
        if roll == 1:
            axis = rng.choice("XYZ")
            n = rng.randint(1, min(4, self.max_move)) * rng.choice((1, -1))
            return vm.Move(axis, n)
        if roll == 2:
            nx, ny, nz = self.dims
            return vm.Fill(rng.randint(1, min(4, nx)), rng.randint(1, min(4, ny)),
                           rng.randint(1, min(4, nz)))
        return vm.Call(rng.choice(self.stamp_names))

    def propose(self, tail: list[vm.Instruction]) -> list[vm.Instruction] | None:
        kind = self.rng.choices(_MOVE_KINDS, cum_weights=_MOVE_SUMS, k=1)[0]
        fn = getattr(self, "_" + kind)
        return fn(list(tail))

    def _insert(self, tail):
        pos = self.rng.randint(0, len(tail))
        tail.insert(pos, self.random_instruction())
        return tail

    def _insert_stamp(self, tail):
        if not self.stamp_names:
            return None
        pos = self.rng.randint(0, len(tail))
        tail.insert(pos, vm.Call(self.rng.choice(self.stamp_names)))
        return tail

    def _delete(self, tail):
        if not tail:
            return None
        tail.pop(self.rng.randrange(len(tail)))
        return tail

    def _perturb(self, tail):
        spots = [i for i, ins in enumerate(tail)
                 if isinstance(ins, (vm.Move, vm.Fill, vm.Repeat, vm.Call))]
        if not spots:
            return None
        i = self.rng.choice(spots)
        ins = tail[i]
        delta = self.rng.choice((-2, -1, 1, 2))
        if isinstance(ins, vm.Move):
            n = ins.n + delta
            if n == 0:
                n = delta  # step over the forbidden zero
            tail[i] = vm.Move(ins.axis, n)
        elif isinstance(ins, vm.Fill):
            which = self.rng.randrange(3)
            vals = [ins.dx, ins.dy, ins.dz]
            vals[which] = max(1, vals[which] + delta)
            tail[i] = vm.Fill(*vals)
        elif isinstance(ins, vm.Repeat):
            tail[i] = vm.Repeat(max(2, ins.count + delta), ins.body)
        else:
            tail[i] = vm.Call(ins.name, max(1, ins.scale + delta))
        return tail

    def _wrap_repeat(self, tail):
        if not tail:
            return None
        i = self.rng.randrange(len(tail))
        j = min(len(tail), i + self.rng.randint(1, 3))
        block = tuple(tail[i:j])
        if any(isinstance(ins, vm.Def) for ins in block):
            return None  # DEF may not sink into a repeat body
        count = self.rng.randint(2, 4)
        tail[i:j] = [vm.Repeat(count, block)]
        return tail

    def _extract_def(self, tail):
        # reuse the synthesis pass on the tail; stamp names are reserved
        # so a fresh def can never shadow a dictionary primitive
        prog = synthesis._extract_defs(vm.Program(tuple(tail)),
                                       reserved_names=frozenset(self.stamp_names))
        new_tail = list(prog.instructions)
        if new_tail == tail:
            return None
        return new_tail


# Most instructions one chunk of a candidate's tail holds, and the most a
# tail holds that is built flat (see _Tail)
_CHUNK = 16
_FLAT = 2 * _CHUNK


def _cut(instrs: list[vm.Instruction]) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """instrs as pieces, each DEF alone and each run of instructions
    between DEFs as near-equal chunks of at most _CHUNK, then the number
    of instructions each piece holds and its canonical length with the
    LF that follows it."""
    pieces = []
    start = 0
    for end in [i for i, ins in enumerate(instrs) if type(ins) is vm.Def] + [len(instrs)]:
        n = end - start
        k = -(-n // _CHUNK)
        pieces += [tuple(instrs[start + n * i // k:start + n * (i + 1) // k]) for i in range(k)]
        if end < len(instrs):
            pieces.append(instrs[end])
        start = end + 1
    units = [p if type(p) is tuple else (p,) for p in pieces]
    return (tuple(pieces), tuple(map(len, units)),
            tuple([vm.body_length(u) + 1 for u in units]))


class _Tail:
    """A candidate's tail, the instructions after the stamp prelude, with
    its top level as vm._build_chunked takes it: pieces, each a DEF or a
    chunk, and of each piece the number of instructions it holds and its
    canonical length with the LF that follows it (sizes). The candidate
    is within the byte cap when its sizes fit the room left after the
    prelude.

    A tail of at most _FLAT instructions keeps no pieces (None) and has
    one size, its whole text's. It is built flat, as vm.execute builds
    a program: an edit would leave at most one chunk of it to share,
    which saves less than the bookkeeping costs (150-iteration searches,
    whose tails stay short, ran 4-20% slower chunked).
    """

    __slots__ = ("instrs", "pieces", "counts", "sizes")

    def __init__(self, instrs: list[vm.Instruction], pieces: tuple | None,
                 counts: tuple[int, ...] | None, sizes: tuple[int, ...]):
        self.instrs = instrs
        self.pieces = pieces
        self.counts = counts
        self.sizes = sizes

    def edited(self, proposal: list[vm.Instruction]) -> tuple[_Tail, tuple, tuple]:
        """proposal as a _Tail, then the pieces it cut afresh and the
        pieces of this tail that it does not keep. It keeps each piece
        of this tail that lies wholly in the instructions that both start
        or both end with, compared by identity, and cuts the rest again,
        with a neighbouring chunk where the rest alone would make a chunk
        of fewer than _CHUNK // 2 instructions, so that edits do not wear
        the chunks down to fragments."""
        pieces = self.pieces
        if len(proposal) <= _FLAT:
            return (_Tail(proposal, None, None,
                          (vm.body_length(proposal) + 1,) if proposal else ()),
                    (), pieces or ())
        if pieces is None:
            new = _Tail(proposal, *_cut(proposal))
            return new, new.pieces, ()
        old = self.instrs
        n, m = len(old), len(proposal)
        both = min(n, m)
        lo = next(compress(count(), map(is_not, proposal, old)), both)
        hi = min(next(compress(count(), map(is_not, reversed(proposal), reversed(old))), both),
                 both - lo)
        # piece k holds old[bounds[k]:bounds[k + 1]]; pieces i to j - 1
        # are cut again, as proposal[bounds[i]:m - n + bounds[j]]
        bounds = list(accumulate(self.counts, initial=0))
        i = bisect_right(bounds, lo) - 1
        j = bisect_left(bounds, n - hi)
        if 0 < m - n + bounds[j] - bounds[i] < _CHUNK // 2:
            if i > 0 and type(pieces[i - 1]) is tuple:
                i -= 1
            if j < len(pieces) and type(pieces[j]) is tuple:
                j += 1
        fresh, counts, sizes = _cut(proposal[bounds[i]:m - n + bounds[j]])
        return (_Tail(proposal, pieces[:i] + fresh + pieces[j:],
                      self.counts[:i] + counts + self.counts[j:],
                      self.sizes[:i] + sizes + self.sizes[j:]),
                fresh, pieces[i:j])


def _anneal(dictionary: PatternDictionary, cs: ConstraintSet,
            params: SearchParams, seed: int, prelude: tuple[vm.Def, ...],
            limits: vm.ExecutionLimits | None) -> tuple[vm.Program, SearchTrace]:
    rng = random.Random(seed)
    editor = _Editor(rng, params.dims, [d.name for d in prelude])
    if limits is None:
        limits = vm.ExecutionLimits()
    # a candidate is within the byte cap when its tail's sizes sum to at
    # most room (a canonical text has one LF fewer than its lines)
    room = params.max_program_bytes + 1 - (vm.body_length(prelude) + 1 if prelude else 0)

    # the score of each structure built so far in this search, and the
    # summaries of the bodies and chunks its candidates ran. A chunk's
    # summary is kept while the current or the best tail holds the chunk;
    # any other piece's id is no key of memo, since the piece is alive
    scores: dict[frozenset, float] = {}
    memo: dict = {}
    memos = {params.dims: memo}  # the same summaries, as vm.execute takes them

    def score(tail: _Tail) -> float:
        try:
            if tail.pieces is None:
                built = vm.execute(vm.Program(prelude + tuple(tail.instrs)), params.dims,
                                   limits, memo=memos)
            else:
                built = vm._build_chunked(prelude + tail.pieces, params.dims, limits, memo)
        except DomusError:
            return math.inf
        j = scores.get(built.occupied)
        if j is None:
            j = scores[built.occupied] = _structure_score(built, dictionary, cs)
        return j

    current = best = _Tail([], None, None, ())
    current_j = best_j = score(current)
    best_ids: set[int] = set()

    temp = params.initial_temperature
    records = []
    for it in range(params.iterations):
        proposal = editor.propose(current.instrs)
        accepted = False
        prop_j = current_j
        if proposal is not None:
            candidate, fresh, replaced = current.edited(proposal)
            if sum(candidate.sizes) <= room:
                prop_j = score(candidate)
                delta = prop_j - current_j
                if delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp)):
                    accepted = True
                    for piece in replaced:
                        if id(piece) not in best_ids:
                            memo.pop((id(piece), 1), None)
                    current = candidate
                    current_j = prop_j
                    if current_j < best_j:
                        ids = set(map(id, current.pieces or ()))
                        for piece in best.pieces or ():
                            if id(piece) not in ids:
                                memo.pop((id(piece), 1), None)
                        best, best_j, best_ids = current, current_j, ids
            if not accepted:
                for piece in fresh:
                    memo.pop((id(piece), 1), None)
        records.append(TraceRecord(iteration=it, objective=prop_j,
                                   accepted=accepted, best_so_far=best_j))
        temp *= params.cooling

    return vm.Program(prelude + tuple(best.instrs)), SearchTrace(tuple(records))


def optimize(dictionary: PatternDictionary, cs: ConstraintSet,
             params: SearchParams, workers: int = 1,
             limits: vm.ExecutionLimits | None = None
             ) -> tuple[vm.Program, SearchTrace]:
    """Minimize the objective by simulated annealing.

    Deterministic given the seed and the island count. The islands are
    independent annealers, seeded per island and run one after another;
    the best final objective wins, ties to the lowest island index.
    `workers` is accepted for compatibility and changes nothing. Every
    candidate is executed under the limits, so the result builds within
    them. Raises ValueError when `max_program_bytes` is below the stamp
    prelude's own length, since no design could then meet the cap.
    """
    prelude = stamp_prelude(dictionary)
    floor = vm.program_length(vm.Program(prelude))
    if params.max_program_bytes < floor:
        raise ValueError(f"max_program_bytes {params.max_program_bytes} is below "
                         f"the {floor}-byte stamp prelude")
    runs = [_anneal(dictionary, cs, params, _island_seed(params.seed, i), prelude, limits)
            for i in range(params.islands)]
    # an island's final best-so-far is the objective of the program it returns
    winner = min(range(params.islands),
                 key=lambda i: (runs[i][1].records[-1].best_so_far, i))
    return runs[winner]


def _island_seed(seed: int, index: int) -> int:
    return seed if index == 0 else seed * 7_368_787 + index
