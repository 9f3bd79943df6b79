"""The construction machine: a small DSL and its deterministic interpreter.

A program is a sequence of placement and motion instructions executed by
a cursor walking an integer grid. Subroutines (DEF/CALL) have stamp
semantics: the cursor is saved before the body runs and restored after,
and a CALL may carry an integer scale that multiplies every MOVE
distance and FILL extent inside the body, composing multiplicatively
through nested calls. Programs have a bit-exact canonical text form;
the canonical byte length is the measurable size of a program.

Grammar (tokens are maximal runs of non-whitespace):

    program := { stmt }
    stmt    := "PLACE"
             | "FILL" int int int
             | "MOVE" ("X"|"Y"|"Z") int
             | "REPEAT" int "{" { stmt } "}"
             | "DEF" ident "{" { stmt } "}"
             | "CALL" ident [ int ]
    ident   := [a-z][a-z0-9_]*
    int     := "-"? decimal digits, no leading zeros

DEF is allowed at top level only, and a CALL may only name a DEF that
appears earlier in the program, so every program terminates. REPEAT and
DEF blocks nest at most MAX_BLOCK_DEPTH deep in the text. The same
constant is the one nesting limit of a run: each REPEAT body and each
CALL is one level, and a run past MAX_BLOCK_DEPTH levels raises
DepthExceeded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import is_
from typing import Callable, Optional, Union

from .errors import DomusError
from .world import VoxelStructure

__all__ = [
    "Place",
    "Fill",
    "Move",
    "Repeat",
    "Def",
    "Call",
    "Instruction",
    "Program",
    "ExecutionLimits",
    "MAX_BLOCK_DEPTH",
    "MAX_STEPS",
    "DslError",
    "ParseError",
    "UnknownName",
    "RecursiveCall",
    "BadLiteral",
    "ExecError",
    "OutOfBounds",
    "BudgetExceeded",
    "DepthExceeded",
    "parse",
    "serialize",
    "body_length",
    "program_length",
    "execute",
    "walk",
]


class DslError(DomusError):
    """Base class for parse-time errors."""


class ParseError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownName(DslError):
    """CALL names a subroutine that is not defined earlier."""


class RecursiveCall(DslError):
    """CALL inside the body of the DEF being defined."""


class BadLiteral(DslError):
    """Integer out of range for its instruction."""


class ExecError(DomusError):
    """Base class for execution-time errors."""


class OutOfBounds(ExecError):
    """A PLACE or FILL cell falls outside the world box."""


class BudgetExceeded(ExecError):
    """Placement count, or the sequential builder's step count, exceeded
    the execution budget."""


class DepthExceeded(ExecError):
    """REPEAT bodies and CALLs, one level each, nested deeper than
    MAX_BLOCK_DEPTH when the program runs."""


@dataclass(frozen=True)
class Place:
    pass


@dataclass(frozen=True)
class Fill:
    dx: int
    dy: int
    dz: int


@dataclass(frozen=True)
class Move:
    axis: str  # "X" | "Y" | "Z"
    n: int


class _Block:
    """What REPEAT and DEF share: a header line, a body and a closing
    brace. Each keeps its canonical length once reckoned, on first use,
    so that pricing a program walks only its top level (see
    body_length)."""

    @cached_property
    def _length(self) -> int:
        # measures the blocks inside that keep no length yet, innermost
        # first, so that nothing recurses; one that keeps a length ends the
        # walk. stack holds each block around block, with the rest of its body
        block, rest, stack = self, iter(self.body), []
        while True:
            for ins in rest:
                if isinstance(ins, _Block) and "_length" not in ins.__dict__:
                    stack.append((block, rest))
                    block, rest = ins, iter(ins.body)
                    break
            else:
                # the header, LF, the body and its LF when it has one, "}"
                body = block.body
                n = block._header_length() + 2 + (body_length(body) + 1 if body else 0)
                if not stack:
                    return n
                block.__dict__["_length"] = n
                block, rest = stack.pop()


@dataclass(frozen=True)
class Repeat(_Block):
    """A loop. Its hash, the one the dataclass would compute, is taken
    once and kept: synthesis hashes each Repeat at every position it
    holds in a layout, and the dataclass hash would walk the whole body
    each time. Beside it, a Repeat keeps its canonical length once
    first asked for (see _Block)."""

    count: int
    body: tuple["Instruction", ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.count, self.body)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: the kept hash is only valid in this process
        return Repeat, (self.count, self.body)

    def _header_length(self) -> int:
        return 9 + len(str(self.count))  # "REPEAT n {"


@dataclass(frozen=True)
class Def(_Block):
    name: str
    body: tuple["Instruction", ...]

    def _header_length(self) -> int:
        return 6 + len(self.name)  # "DEF name {"


@dataclass(frozen=True)
class Call:
    name: str
    scale: int = 1


Instruction = Union[Place, Fill, Move, Repeat, Def, Call]


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))


@dataclass(frozen=True)
class ExecutionLimits:
    max_placements: int = 10_000_000

    def __post_init__(self):
        if self.max_placements < 1:
            raise ValueError("execution limits must be positive")


# How deep REPEAT and DEF blocks nest in the text, and how deep REPEAT
# bodies and CALLs nest when a program runs, one level each. It bounds
# how deep both engines recurse.
MAX_BLOCK_DEPTH = 100

# Bounds the time of a walk, which runs every REPEAT iteration and
# CALL body one by one: about a second of walking, spent once for a
# whole human fleet, since its members share one walk. The largest corpus
# program takes 585 steps, and a 64^3 world filled one PLACE at a time
# about 266,000. A deterministic build never takes steps one by one; its
# time is bounded by the program size and the world volume instead.
MAX_STEPS = 1_000_000


_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)\Z")


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in re.finditer(r"\S+", line):
            toks.append(_Token(m.group(0), lineno, m.start() + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.defined: set[str] = set()

    def _err(self, message: str) -> ParseError:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return ParseError(f"{message}, got {t.text!r}", t.line, t.col)
        last = self.toks[-1] if self.toks else _Token("", 1, 1)
        return ParseError(f"{message}, got end of input", last.line, last.col + len(last.text))

    def peek(self) -> Optional[str]:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def take(self) -> _Token:
        if self.pos >= len(self.toks):
            raise self._err("unexpected end of input")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        if self.peek() != text:
            raise self._err(f"expected {text!r}")
        self.take()

    def take_int(self, what: str) -> int:
        if self.peek() is None or not _INT_RE.match(self.peek()):
            raise self._err(f"expected integer {what}")
        return int(self.take().text)

    def take_ident(self, what: str) -> str:
        if self.peek() is None or not _IDENT_RE.match(self.peek()):
            raise self._err(f"expected identifier {what}")
        return self.take().text

    def parse_program(self) -> Program:
        out = []
        while self.peek() is not None:
            out.append(self.parse_stmt(top_level=True, current_def=None))
        return Program(tuple(out))

    def parse_block(self, current_def: Optional[str]) -> tuple[Instruction, ...]:
        if self.depth == MAX_BLOCK_DEPTH:
            raise self._err(f"blocks nested deeper than {MAX_BLOCK_DEPTH}")
        self.expect("{")
        self.depth += 1
        body = []
        while self.peek() not in (None, "}"):
            body.append(self.parse_stmt(top_level=False, current_def=current_def))
        self.expect("}")
        self.depth -= 1
        return tuple(body)

    def parse_stmt(self, top_level: bool, current_def: Optional[str]) -> Instruction:
        head = self.peek()
        if head == "PLACE":
            self.take()
            return Place()
        if head == "FILL":
            self.take()
            dx = self.take_int("x extent")
            dy = self.take_int("y extent")
            dz = self.take_int("z extent")
            if dx < 1 or dy < 1 or dz < 1:
                raise BadLiteral(f"FILL extents must be >= 1, got {dx} {dy} {dz}")
            return Fill(dx, dy, dz)
        if head == "MOVE":
            self.take()
            if self.peek() not in ("X", "Y", "Z"):
                raise self._err("expected axis X, Y or Z")
            axis = self.take().text
            n = self.take_int("distance")
            if n == 0:
                raise BadLiteral("MOVE distance must be nonzero")
            return Move(axis, n)
        if head == "REPEAT":
            self.take()
            count = self.take_int("repeat count")
            if count < 2:
                raise BadLiteral(f"REPEAT count must be >= 2, got {count}")
            return Repeat(count, self.parse_block(current_def))
        if head == "DEF":
            tok = self.toks[self.pos]
            self.take()
            if not top_level:
                raise ParseError("DEF is only allowed at top level", tok.line, tok.col)
            name = self.take_ident("subroutine name")
            if name in self.defined:
                raise ParseError(f"duplicate definition of {name!r}", tok.line, tok.col)
            body = self.parse_block(current_def=name)
            self.defined.add(name)
            return Def(name, body)
        if head == "CALL":
            self.take()
            name = self.take_ident("subroutine name")
            scale = 1
            if self.peek() is not None and _INT_RE.match(self.peek()):
                scale = self.take_int("scale")
                if scale < 1:
                    raise BadLiteral(f"CALL scale must be >= 1, got {scale}")
            if name == current_def:
                raise RecursiveCall(f"{name!r} calls itself")
            if name not in self.defined:
                raise UnknownName(f"CALL {name!r} before its DEF")
            return Call(name, scale)
        raise self._err("expected an instruction")


def parse(text: str) -> Program:
    """Parse DSL source into a Program AST.

    Whitespace between tokens is free-form; the canonical layout from
    serialize() is one valid spelling among many.
    """
    return _Parser(_tokenize(text)).parse_program()


def _line(ins: Instruction) -> str:
    """The canonical line of an instruction, a block's its header."""
    if isinstance(ins, Place):
        return "PLACE"
    if isinstance(ins, Fill):
        return f"FILL {ins.dx} {ins.dy} {ins.dz}"
    if isinstance(ins, Move):
        return f"MOVE {ins.axis} {ins.n}"
    if isinstance(ins, Repeat):
        return f"REPEAT {ins.count} {{"
    if isinstance(ins, Def):
        return f"DEF {ins.name} {{"
    if isinstance(ins, Call):
        return f"CALL {ins.name}" if ins.scale == 1 else f"CALL {ins.name} {ins.scale}"
    raise TypeError(f"not an instruction: {ins!r}")


def serialize(program: Program) -> str:
    """Canonical text: one instruction per line, single spaces, single
    LF separators, block headers ending in "{", "}" on its own line, no
    trailing newline, and CALL with scale 1 written without the scale."""
    lines: list[str] = []
    # what is left of the body being written (rest) and of each block around it
    rest, stack = iter(program.instructions), []
    while True:
        for ins in rest:
            lines.append(_line(ins))
            if isinstance(ins, _Block):
                stack.append(rest)
                rest = iter(ins.body)
                break
        else:
            if not stack:
                return "\n".join(lines)
            lines.append("}")
            rest = stack.pop()


def body_length(instructions: tuple[Instruction, ...]) -> int:
    """Byte length of the canonical text of an instruction sequence, as
    serialize writes it (the grammar is ASCII), reckoned without
    building the text. A REPEAT or DEF counts the length it keeps, so
    only the top level is walked once every block has been measured."""
    n = len(instructions) - 1 if instructions else 0  # LF separators
    for ins in instructions:
        kind = type(ins)
        if kind is Place:
            n += 5
        elif kind is Move:
            n += 6 + len(ins.axis) + len(str(ins.n))
        elif kind is Fill:
            n += 7 + len(str(ins.dx)) + len(str(ins.dy)) + len(str(ins.dz))
        elif kind is Call:
            n += 5 + len(ins.name)
            if ins.scale != 1:
                n += 1 + len(str(ins.scale))
        elif kind is Repeat or kind is Def:
            n += ins._length
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    return n


def program_length(program: Program) -> int:
    """Byte length of the canonical serialization."""
    return body_length(program.instructions)


BoxFn = Callable[[tuple[int, int, int], int, int, int], None]


class _Executor:
    """The sequential walker (see walk). depth is how many levels,
    REPEAT bodies and CALLs, the instructions of body run inside."""

    def __init__(self, limits: ExecutionLimits, box: BoxFn):
        self.limits = limits
        self.box = box
        self.placements = 0
        self.steps = 0

    def _charge(self, n: int):
        self.placements += n
        if self.placements > self.limits.max_placements:
            raise BudgetExceeded(
                f"more than {self.limits.max_placements} placements"
            )

    def _step(self):
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise BudgetExceeded(f"more than {MAX_STEPS} steps")

    def run(self, body: tuple[Instruction, ...], cur: tuple[int, int, int],
            scale: int, depth: int,
            env: dict[str, tuple[Instruction, ...]],
            top: bool = False) -> tuple[int, int, int]:
        if depth > MAX_BLOCK_DEPTH:
            raise DepthExceeded(f"REPEATs and CALLs nested deeper than {MAX_BLOCK_DEPTH}")
        for ins in body:
            if isinstance(ins, Place):
                self._charge(1)
                self.box(cur, 1, 1, 1)
            elif isinstance(ins, Fill):
                dx, dy, dz = ins.dx * scale, ins.dy * scale, ins.dz * scale
                self._charge(dx * dy * dz)
                self.box(cur, dx, dy, dz)
            elif isinstance(ins, Move):
                d = ins.n * scale
                if ins.axis == "X":
                    cur = (cur[0] + d, cur[1], cur[2])
                elif ins.axis == "Y":
                    cur = (cur[0], cur[1] + d, cur[2])
                else:
                    cur = (cur[0], cur[1], cur[2] + d)
            elif isinstance(ins, Repeat):
                for _ in range(ins.count):
                    self._step()
                    cur = self.run(ins.body, cur, scale, depth + 1, env)
            elif isinstance(ins, Def):
                if not top:
                    raise DslError("DEF is only allowed at top level")
                env[ins.name] = ins.body
            elif isinstance(ins, Call):
                if ins.name not in env:
                    raise UnknownName(f"CALL {ins.name!r} before its DEF")
                self._step()
                # stamp semantics: body runs at the call site, cursor restored
                self.run(env[ins.name], cur, scale * ins.scale, depth + 1, env)
            else:
                raise TypeError(f"not an instruction: {ins!r}")
        return cur


class _Summary:
    """What one run of a body does, started at cursor (0, 0, 0).

    cells are relative to the start cursor; disp is where the cursor
    ends; count is the exact number of placements charged; height is
    how many levels the REPEAT bodies and CALLs inside nest, one level
    each, so 0 for a body that runs neither.
    """

    __slots__ = ("cells", "disp", "count", "height")

    def __init__(self, cells: set[tuple[int, int, int]], disp: tuple[int, int, int],
                 count: int, height: int):
        self.cells = cells
        self.disp = disp
        self.count = count
        self.height = height


def _shifted(cells: set[tuple[int, int, int]], ox: int, oy: int, oz: int):
    if ox == oy == oz == 0:
        return cells
    return [(x + ox, y + oy, z + oz) for x, y, z in cells]


class _Summarizer:
    """The deterministic engine: summarises each (body, scale) once and
    stamps the summary by translation wherever the body runs again.

    A REPEAT places the union of count translates of its body's cells,
    or one copy when the body's displacement is zero; a CALL places its
    callee's cells at the cursor and leaves the cursor where it was.
    Placement counts add up exactly. A fault is raised as soon as it is
    proved: a body that runs inside more than MAX_BLOCK_DEPTH levels
    (REPEAT bodies and CALLs), a body past the placement budget, a FILL
    wider than the world, a REPEAT whose translates reach further than
    it, or a body with more cells than it has. No summary holds more
    cells than the world, which bounds the time by the program size and
    the world volume; no level past MAX_BLOCK_DEPTH is entered, which
    bounds how deep it recurses.

    The memo may outlive one build (see execute). An entry keeps its
    body, so no other body can take its id while the entry lives, and
    the names its summary read, those of its sub-summaries included. It
    is reused only while each of those names is bound to the same
    callee, checked once per entry in a build until a DEF rebinds a
    name, and only where a fresh summary would raise nothing: its height
    added to the depth it runs at stays within MAX_BLOCK_DEPTH, and its
    placements fit this build's budget. Otherwise the body is
    summarised afresh, which raises the fault a fresh build raises. The
    memo serves one dims, since a summary proves nothing out of bounds
    only for the dims it was made for.
    """

    def __init__(self, dims: tuple[int, int, int], limits: ExecutionLimits, memo: dict):
        self.dims = dims
        self.volume = dims[0] * dims[1] * dims[2]
        self.limits = limits
        self.env: dict[str, tuple[Instruction, ...]] = {}
        # stands for the bindings env holds now: a new object for each
        # build and whenever a DEF rebinds a bound name (binding a new
        # name changes no name a summary read)
        self.env_id = object()
        # (id(body), scale) -> [body, names, callees, summary, env_id]:
        # names and callees are the names the summary read from env, those
        # of its sub-summaries included, and the bodies they resolved to;
        # env_id is the one under which they last resolved so
        self.memo = memo

    def run(self, program: Program) -> set[tuple[int, int, int]]:
        # nothing keeps the top level's summary, so it records no reads
        return self._in_bounds(self._summarize(program.instructions, 1, 0, None, top=True).cells)

    def run_chunked(self, top: tuple[Union[Def, tuple[Instruction, ...]], ...]
                    ) -> set[tuple[int, int, int]]:
        # each chunk is stamped as a CALL is, but at depth 0 and with the
        # cursor moved on, since its text stands in the top level itself
        cells: set[tuple[int, int, int]] = set()
        x = y = z = count = 0
        for piece in top:
            if type(piece) is Def:
                if piece.name in self.env:
                    self.env_id = object()
                self.env[piece.name] = piece.body
                continue
            s = self._sub(piece, 1, 0, None)
            count += s.count
            sx, sy, sz = s.disp
            if s.cells:
                cells.update(_shifted(s.cells, x, y, z))
            x += sx
            y += sy
            z += sz
        if count > self.limits.max_placements:
            raise BudgetExceeded(f"more than {self.limits.max_placements} placements")
        return self._in_bounds(cells)

    def _in_bounds(self, cells: set[tuple[int, int, int]]) -> set[tuple[int, int, int]]:
        if cells:
            xs, ys, zs = zip(*cells)
            lo, hi = (min(xs), min(ys), min(zs)), (max(xs), max(ys), max(zs))
            nx, ny, nz = self.dims
            if min(lo) < 0 or hi[0] >= nx or hi[1] >= ny or hi[2] >= nz:
                raise OutOfBounds(f"placements span {lo}..{hi} outside dims {self.dims}")
        return cells

    def _check_fits(self, what: str, extent: tuple[int, int, int]):
        nx, ny, nz = self.dims
        if extent[0] > nx or extent[1] > ny or extent[2] > nz:
            raise OutOfBounds(f"{what} spans {extent} cells, more than dims {self.dims}")

    def _sub(self, body: tuple[Instruction, ...], scale: int, depth: int,
             reads: Optional[dict[str, tuple[Instruction, ...]]]) -> _Summary:
        key = (id(body), scale)
        entry = self.memo.get(key)
        if entry is not None:
            _, names, callees, s, checked = entry
            if checked is not self.env_id and all(map(is_, map(self.env.get, names),
                                                      callees)):
                entry[4] = checked = self.env_id
            if (checked is self.env_id and depth + s.height <= MAX_BLOCK_DEPTH
                    and s.count <= self.limits.max_placements):
                if names and reads is not None:
                    reads.update(zip(names, callees))
                return s
        if depth > MAX_BLOCK_DEPTH:
            raise DepthExceeded(f"REPEATs and CALLs nested deeper than {MAX_BLOCK_DEPTH}")
        own: dict[str, tuple[Instruction, ...]] = {}
        s = self._summarize(body, scale, depth, own)
        self.memo[key] = [body, tuple(own), tuple(own.values()), s, self.env_id]
        if reads is not None:
            reads.update(own)
        return s

    def _summarize(self, body: tuple[Instruction, ...], scale: int, depth: int,
                   reads: Optional[dict[str, tuple[Instruction, ...]]],
                   top: bool = False) -> _Summary:
        # reads gathers each name this body's CALLs resolve through
        cells: set[tuple[int, int, int]] = set()
        x = y = z = 0
        count = height = 0
        for ins in body:
            kind = type(ins)
            if kind is Place:
                count += 1
                cells.add((x, y, z))
            elif kind is Fill:
                dx, dy, dz = ins.dx * scale, ins.dy * scale, ins.dz * scale
                count += dx * dy * dz
                self._check_fits("FILL", (dx, dy, dz))
                cells.update(product(range(x, x + dx), range(y, y + dy), range(z, z + dz)))
            elif kind is Move:
                d = ins.n * scale
                if ins.axis == "X":
                    x += d
                elif ins.axis == "Y":
                    y += d
                else:
                    z += d
            elif kind is Repeat:
                n = ins.count
                if n < 1:
                    continue
                s = self._sub(ins.body, scale, depth + 1, reads)
                count += n * s.count
                if s.height >= height:
                    height = s.height + 1
                sx, sy, sz = s.disp
                if s.cells:
                    if sx == sy == sz == 0:
                        cells.update(_shifted(s.cells, x, y, z))
                    else:
                        self._check_fits("REPEAT", ((n - 1) * abs(sx) + 1, (n - 1) * abs(sy) + 1,
                                                    (n - 1) * abs(sz) + 1))
                        for i in range(n):
                            cells.update(_shifted(s.cells, x + i * sx, y + i * sy, z + i * sz))
                x += n * sx
                y += n * sy
                z += n * sz
            elif kind is Def:
                if not top:
                    raise DslError("DEF is only allowed at top level")
                if ins.name in self.env:
                    self.env_id = object()
                self.env[ins.name] = ins.body
            elif kind is Call:
                callee = self.env.get(ins.name)
                if callee is None:
                    raise UnknownName(f"CALL {ins.name!r} before its DEF")
                if reads is not None:
                    reads[ins.name] = callee
                s = self._sub(callee, scale * ins.scale, depth + 1, reads)
                count += s.count
                if s.height >= height:
                    height = s.height + 1
                if s.cells:
                    cells.update(_shifted(s.cells, x, y, z))
            else:
                raise TypeError(f"not an instruction: {ins!r}")
        if count > self.limits.max_placements:
            raise BudgetExceeded(f"more than {self.limits.max_placements} placements")
        if len(cells) > self.volume:
            raise OutOfBounds(f"a block places {len(cells)} cells, more than dims "
                              f"{self.dims} hold")
        return _Summary(cells, (x, y, z), count, height)


def execute(program: Program, dims: tuple[int, int, int],
            limits: ExecutionLimits | None = None, *,
            memo: dict | None = None) -> VoxelStructure:
    """Run a program on an empty world and return the built structure.

    The cursor starts at (0, 0, 0) and may wander outside the box
    freely; a placement outside it aborts with OutOfBounds. limits sets
    the placement budget. Each REPEAT body and each CALL is one level,
    and the levels around any instruction may number at most
    MAX_BLOCK_DEPTH. For a walk one instruction at a time see walk.

    A summary engine runs each (body, scale) once and stamps the result
    by translation, so nested REPEATs and CALLs cost no more than their
    text. Of several faults, the first the engine proves is raised.
    Faults of the program text (a DEF below top level, a CALL to an
    unbound name, REPEATs and CALLs nested past MAX_BLOCK_DEPTH) are
    proved in program order; BudgetExceeded at the end of the first
    block whose placements pass max_placements; OutOfBounds at a FILL
    or REPEAT too wide for the world, at the end of a block with more
    cells than the world, or else once all cells are built. So an out-of-bounds PLACE
    before a CALL to an unbound name reports UnknownName, and a FILL
    wider than the world before it reports OutOfBounds.

    The summaries live for this build alone, unless the caller hands in
    memo: a dict, empty at first, that it passes to each build meant to
    share them, such as the candidates of one search. A body summarised
    by an earlier build is then stamped again while the names it calls
    are bound as they were (see _Summarizer), so the result, or the
    fault raised, is the one a build without memo gives. memo keeps
    the summaries of each dims apart.
    """
    if limits is None:
        limits = ExecutionLimits()
    engine = _Summarizer(dims, limits, {} if memo is None else memo.setdefault(dims, {}))
    # run proved that the cells' bounding box lies in the world
    return VoxelStructure._trusted(dims, frozenset(engine.run(program)))


def _build_chunked(top: tuple[Union[Def, tuple[Instruction, ...]], ...],
                   dims: tuple[int, int, int], limits: ExecutionLimits,
                   memo: dict) -> VoxelStructure:
    """Build the program whose top level is top with each chunk, a tuple
    of instructions that holds no DEF, spliced in where it stands: the
    annealer's candidates, whose unchanged chunks are the same objects
    from one candidate to the next (see designer).

    DEFs are bound in order, as execute binds them. Each chunk is
    summarised, or found in memo, as a body at depth 0, since its text
    is the top level's, and its summary is stamped at the cursor, which
    then moves on by the chunk's displacement. memo is the memo of one
    dims (execute keeps one per dims), and holds each chunk's summary
    under the key (id(chunk), 1) as long as its caller leaves it there.

    The result is the structure that execute builds from the flat
    program. Where that build fails, this one fails too,
    though maybe with another fault: a chunk's placements and cells are
    a subset of the whole build's, so a chunk past the placement budget
    or with more cells than the world proves that the flat build fails;
    a FILL or REPEAT too wide for the world fails in both; and an
    unbound name and REPEATs and CALLs nested past MAX_BLOCK_DEPTH are
    proved in program order in both. Where the flat build succeeds, so
    does this one.
    """
    # run_chunked proved that the cells' bounding box lies in the world
    engine = _Summarizer(dims, limits, memo)
    return VoxelStructure._trusted(dims, frozenset(engine.run_chunked(top)))


def walk(program: Program, box: BoxFn, limits: ExecutionLimits | None = None):
    """Run a program with the sequential walker, each REPEAT iteration
    and CALL body anew, handing each PLACE and FILL to box(anchor, dx,
    dy, dz) once its placements are charged; a PLACE is a 1 x 1 x 1 box.
    The walk raises the first fault it meets, and spends the placement
    budget and MAX_STEPS once. fleet.build_fleet builds human fleets so."""
    if limits is None:
        limits = ExecutionLimits()
    _Executor(limits, box).run(program.instructions, (0, 0, 0), 1, 0, {}, top=True)
