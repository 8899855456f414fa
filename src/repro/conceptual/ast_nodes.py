"""AST node classes for the coNCePTuaL front end.

Plain dataclasses; every node carries its source line for diagnostics.
Statement nodes correspond 1:1 to the grammar in the package docstring
of :mod:`repro.conceptual.parser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = field(default=-1, kw_only=True)


@dataclass
class Num(Expr):
    value: int | float


@dataclass
class Var(Expr):
    name: str


@dataclass
class BinOp(Expr):
    op: str  # + - * / mod ** >> << & | ^
    left: Expr
    right: Expr


@dataclass
class UnOp(Expr):
    op: str  # - +
    operand: Expr


@dataclass
class Compare(Expr):
    op: str  # = <> < > <= >= divides
    left: Expr
    right: Expr


@dataclass
class BoolOp(Expr):
    op: str  # and or xor
    left: Expr
    right: Expr


@dataclass
class Not(Expr):
    operand: Expr


@dataclass
class Parity(Expr):
    """``<expr> is even`` / ``<expr> is odd``."""

    operand: Expr
    even: bool


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


# ---------------------------------------------------------------------------
# Task expressions
# ---------------------------------------------------------------------------


@dataclass
class TaskExpr:
    line: int = field(default=-1, kw_only=True)


@dataclass
class AllTasks(TaskExpr):
    """``all tasks`` / ``all tasks t`` (binds ``t`` to the rank)."""

    var: Optional[str] = None


@dataclass
class AllOtherTasks(TaskExpr):
    """``all other tasks`` (relative to the statement's peer task)."""


@dataclass
class TaskN(TaskExpr):
    """``task <expr>``."""

    expr: Expr = None  # type: ignore[assignment]


@dataclass
class SuchThat(TaskExpr):
    """``tasks t such that <cond>`` (binds ``t``)."""

    var: str = ""
    cond: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = field(default=-1, kw_only=True)


@dataclass
class StmtSeq(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class ForReps(Stmt):
    count: Expr = None  # type: ignore[assignment]
    body: StmtSeq = None  # type: ignore[assignment]


@dataclass
class ForEach(Stmt):
    var: str = ""
    ranges: list["RangeSpec"] = field(default_factory=list)
    body: StmtSeq = None  # type: ignore[assignment]


@dataclass
class RangeSpec:
    """One comma-group in a ``for each`` list.

    ``{a, b, ..., z}`` enumerates an arithmetic progression whose step is
    ``b - a`` (or 1 when only ``a`` is given before the ellipsis);
    ``{a, b, c}`` without an ellipsis enumerates the listed values.
    """

    exprs: list[Expr]
    ellipsis_to: Optional[Expr]  # None for an explicit list


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: StmtSeq = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: StmtSeq = None  # type: ignore[assignment]
    otherwise: Optional[StmtSeq] = None


@dataclass
class Let(Stmt):
    bindings: list[tuple[str, Expr]] = field(default_factory=list)
    body: StmtSeq = None  # type: ignore[assignment]


@dataclass
class Send(Stmt):
    sender: TaskExpr = None  # type: ignore[assignment]
    count: Optional[Expr] = None  # messages per sender (default 1)
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0  # bytes multiplier
    blocking: bool = True
    target: TaskExpr = None  # type: ignore[assignment]


@dataclass
class Receive(Stmt):
    receiver: TaskExpr = None  # type: ignore[assignment]
    count: Optional[Expr] = None
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0
    blocking: bool = True
    source: TaskExpr = None  # type: ignore[assignment]


@dataclass
class Multicast(Stmt):
    """``task R multicasts a <size> byte message to all other tasks``."""

    sender: TaskExpr = None  # type: ignore[assignment]
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0
    target: TaskExpr = None  # type: ignore[assignment]


@dataclass
class ReduceStmt(Stmt):
    """``all tasks reduce a <size> byte value to {task R | all tasks}``."""

    senders: TaskExpr = None  # type: ignore[assignment]
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0
    target: TaskExpr = None  # type: ignore[assignment]


@dataclass
class Synchronize(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]


@dataclass
class ResetCounters(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]


@dataclass
class ComputeStmt(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]
    amount: Expr = None  # type: ignore[assignment]
    unit: float = 1.0  # seconds multiplier


@dataclass
class SleepStmt(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]
    amount: Expr = None  # type: ignore[assignment]
    unit: float = 1.0


@dataclass
class AwaitCompletion(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]


@dataclass
class LogItem:
    aggregate: Optional[str]  # mean/median/minimum/maximum/sum/variance
    expr: Expr
    label: str


@dataclass
class LogStmt(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]
    items: list[LogItem] = field(default_factory=list)


@dataclass
class ComputeAggregates(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]


@dataclass
class OutputStmt(Stmt):
    tasks: TaskExpr = None  # type: ignore[assignment]
    text: Optional[str] = None
    expr: Optional[Expr] = None


@dataclass
class TouchStmt(Stmt):
    """``task T touches <size> bytes of memory`` -- a memory-traffic
    no-op in the skeleton; counted as allocation in the application."""

    tasks: TaskExpr = None  # type: ignore[assignment]
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0


@dataclass
class IOStmt(Stmt):
    """``task T writes a <size> <unit> file [to server <expr>]`` or
    ``... reads a <size> <unit> file [from server <expr>]``.

    The Section VII I/O extension: in simulation the operation ships
    data to/from a storage server over the interconnect; ``server`` is
    evaluated per task (default: round-robin by rank)."""

    tasks: TaskExpr = None  # type: ignore[assignment]
    write: bool = True
    size: Expr = None  # type: ignore[assignment]
    unit: float = 1.0
    server: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Headers / program
# ---------------------------------------------------------------------------


@dataclass
class Require:
    version: str
    line: int = -1


@dataclass
class ParamDecl:
    """``reps is "..." and comes from "--reps" or "-r" with default 1000.``"""

    name: str
    description: str
    flags: list[str]
    default: Expr
    line: int = -1


@dataclass
class AssertDecl:
    text: str
    cond: Expr
    line: int = -1


@dataclass
class Program:
    requires: list[Require]
    params: list[ParamDecl]
    asserts: list[AssertDecl]
    body: StmtSeq
    source_name: str = "<string>"
