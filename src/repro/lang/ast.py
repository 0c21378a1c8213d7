"""AST for the mini-language the victims are written in.

The language is a tiny C-like IR over unsigned 64-bit scalars and
u64-arrays-in-memory — just enough to express the paper's victim
functions (mbedTLS-style binary GCD, IPP-style bignum compare, and the
synthetic corpus functions) while giving the compiler room for real
optimization-level differences.

Nodes are plain frozen dataclasses.  Programs can be built directly
(the victims do this) or parsed from text (:mod:`repro.lang.parser`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for expressions (all evaluate to u64)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic/logic: + - * / % & | ^ << >> (shifts need const rhs)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison producing 0/1.

    Ops: ``== != < <= > >=`` (unsigned) and ``s< s<= s> s>=`` (signed).
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Load(Expr):
    """u64 load from ``base + 8*index`` (base/index are expressions)."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: Tuple[Expr, ...] = ()


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class Store(Stmt):
    """``base[index] = value`` (u64 at base + 8*index)."""

    base: Expr
    index: Expr
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """Evaluate for side effects (function calls)."""

    expr: Expr


@dataclass(frozen=True)
class Yield(Stmt):
    """``sched_yield()`` — the victim-side preemption point the
    paper's §7.2 methodology inserts after the secret branch body."""


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Function:
    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Module:
    functions: Tuple[Function, ...]

    def function(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(name)


# ----------------------------------------------------------------------
# ergonomic builders (victim code uses these heavily)
# ----------------------------------------------------------------------
def const(value: int) -> Const:
    return Const(value)


def var(name: str) -> Var:
    return Var(name)


def _expr(value: Union[Expr, int, str]) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")


def binop(op: str, left, right) -> BinOp:
    return BinOp(op, _expr(left), _expr(right))


def cmp(op: str, left, right) -> Cmp:
    return Cmp(op, _expr(left), _expr(right))


def load(base, index) -> Load:
    return Load(_expr(base), _expr(index))


def call(name: str, *args) -> Call:
    return Call(name, tuple(_expr(a) for a in args))


def assign(name: str, value) -> Assign:
    return Assign(name, _expr(value))


def store(base, index, value) -> Store:
    return Store(_expr(base), _expr(index), _expr(value))


def if_(cond, then: Sequence[Stmt],
        orelse: Sequence[Stmt] = ()) -> If:
    return If(_expr(cond), tuple(then), tuple(orelse))


def while_(cond, body: Sequence[Stmt]) -> While:
    return While(_expr(cond), tuple(body))


def ret(value=None) -> Return:
    return Return(None if value is None else _expr(value))


def expr_stmt(expr) -> ExprStmt:
    return ExprStmt(_expr(expr))


def yield_() -> Yield:
    return Yield()


def function(name: str, params: Sequence[str],
             body: Sequence[Stmt]) -> Function:
    return Function(name, tuple(params), tuple(body))


def module(*functions: Function) -> Module:
    return Module(tuple(functions))
