"""Constant-time auto-rewrite of victim modules.

Source-to-source pass that removes every secret-dependent control
transfer from a DSL module, so the rewritten program produces one
fixed BTB event stream for all inputs in the certified domain:

* **Branch flattening** — ``if`` statements become straight-line
  predicated code.  Each assignment under a secret guard ``g`` turns
  into the arithmetic select ``x = x + g*(e - x)`` (exact mod 2**64
  for a 0/1 guard; ``Cmp`` already compiles branch-free via
  ``setcc``), each store into the masked update
  ``b[i] = b[i] + g*(v - b[i])``.
* **Early returns** — a ``__live`` flag and ``__ret`` accumulator
  replace ``return``: the guard of every later statement includes
  ``__live``, so a retired return simply mutes the rest of the
  function without a jump.
* **Secret loops** — a loop whose condition depends on secret data
  runs a *fixed* number of iterations (``bound``, per-victim) with a
  sticky continue-predicate ``__p = __p & cond``; iterations past the
  real exit are fully masked.  Loops whose trip count is public
  (induction variable and bound derived only from parameters and
  constants) are kept as real loops — their directions are the same
  on every input, and masking their induction updates would not
  terminate.
* **Predicated callees** — a callee that (transitively) stores to
  memory gets a ``f__ct(args.., __pred)`` clone whose stores are
  masked by the caller's guard; pure callees are called
  unconditionally and their result masked at the assignment.

The output intentionally contains no ``/`` or ``%`` (division traps)
and no variable-count shifts (the ISA requires constant counts), so
every emitted instruction is constant-time on the simulated core.
The pass proves nothing by itself: ``repro certify`` re-certifies the
output symbolically and replays the original leak witnesses
dynamically (the before-streams must diverge, the after-streams must
be bit-identical).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from . import ast as A

__all__ = ["rewrite_module", "rewrite_function_names", "DEFAULT_BOUND"]

DEFAULT_BOUND = 6
_CT_SUFFIX = "__ct"


# ----------------------------------------------------------------------
# module-level analyses
# ----------------------------------------------------------------------
def _walk_exprs(stmt: A.Stmt):
    if isinstance(stmt, A.Assign):
        yield stmt.value
    elif isinstance(stmt, A.Store):
        yield stmt.base
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, A.If):
        yield stmt.cond
        for inner in stmt.then + stmt.orelse:
            yield from _walk_exprs(inner)
    elif isinstance(stmt, A.While):
        yield stmt.cond
        for inner in stmt.body:
            yield from _walk_exprs(inner)
    elif isinstance(stmt, A.Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, A.ExprStmt):
        yield stmt.expr


def _calls_in(expr: A.Expr):
    if isinstance(expr, A.Call):
        yield expr.name
        for arg in expr.args:
            yield from _calls_in(arg)
    elif isinstance(expr, (A.BinOp, A.Cmp)):
        yield from _calls_in(expr.left)
        yield from _calls_in(expr.right)
    elif isinstance(expr, A.Load):
        yield from _calls_in(expr.base)
        yield from _calls_in(expr.index)


def _contains_store(stmts: Sequence[A.Stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, A.Store):
            return True
        if isinstance(stmt, A.If):
            if _contains_store(stmt.then) or _contains_store(stmt.orelse):
                return True
        elif isinstance(stmt, A.While):
            if _contains_store(stmt.body):
                return True
    return False


def _impure_functions(module: A.Module) -> Set[str]:
    """Functions that (transitively) store to memory — these need a
    predicated ``__ct`` clone."""
    direct = {fn.name: _contains_store(fn.body) for fn in module.functions}
    callees: Dict[str, Set[str]] = {}
    for fn in module.functions:
        names: Set[str] = set()
        for stmt in fn.body:
            for expr in _walk_exprs(stmt):
                names.update(_calls_in(expr))
        callees[fn.name] = names
    impure = {name for name, has in direct.items() if has}
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            if name not in impure and called & impure:
                impure.add(name)
                changed = True
    return impure


def _expr_secret(expr: A.Expr, secret: Set[str]) -> bool:
    if isinstance(expr, (A.Load, A.Call)):
        return True
    if isinstance(expr, A.Var):
        return expr.name in secret
    if isinstance(expr, (A.BinOp, A.Cmp)):
        return (_expr_secret(expr.left, secret)
                or _expr_secret(expr.right, secret))
    return False


def _mark_secret(stmts: Sequence[A.Stmt], ctx_secret: bool,
                 secret: Set[str]) -> bool:
    """One pass of :func:`_secret_vars` over ``stmts``: add every
    variable assigned a secret value or under secret control; True if
    any was new."""
    changed = False
    for stmt in stmts:
        if isinstance(stmt, A.Assign):
            if ((ctx_secret or _expr_secret(stmt.value, secret))
                    and stmt.name not in secret):
                secret.add(stmt.name)
                changed = True
        elif isinstance(stmt, A.If):
            inner = ctx_secret or _expr_secret(stmt.cond, secret)
            changed |= _mark_secret(stmt.then, inner, secret)
            changed |= _mark_secret(stmt.orelse, inner, secret)
        elif isinstance(stmt, A.While):
            inner = ctx_secret or _expr_secret(stmt.cond, secret)
            changed |= _mark_secret(stmt.body, inner, secret)
    return changed


def _secret_vars(fn: A.Function) -> Set[str]:
    """Variables whose value can depend on memory contents or on
    secret control — everything except pure parameter/constant
    arithmetic.  Loops conditioned only on public variables keep
    their (public) trip counts in the rewrite."""
    secret: Set[str] = set()
    while _mark_secret(fn.body, False, secret):
        pass
    return secret


# ----------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------
_ONE = A.Const(1)
_ZERO = A.Const(0)


def _as_cond01(expr: A.Expr) -> A.Expr:
    """Coerce an arbitrary condition to a 0/1 value (``Cmp`` already
    is one; everything else gets an explicit ``!= 0``)."""
    if isinstance(expr, A.Cmp):
        return expr
    return A.Cmp("!=", expr, _ZERO)


class _FnRewriter:
    def __init__(self, fn: A.Function, impure: Set[str], bound: int):
        self.fn = fn
        self.impure = impure
        self.bound = bound
        self.secret = _secret_vars(fn)
        self._fresh = 0

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"__{prefix}{self._fresh}"

    # guard = ctx & __live, where ctx is a 0/1 expression over our
    # own predicate temporaries (Const(1) at function top level)
    @staticmethod
    def _guard(ctx: A.Expr) -> A.Expr:
        live = A.Var("__live")
        if isinstance(ctx, A.Const) and ctx.value == 1:
            return live
        return A.BinOp("&", ctx, live)

    @staticmethod
    def _chain(ctx: A.Expr, cond: A.Expr) -> A.Expr:
        if isinstance(ctx, A.Const) and ctx.value == 1:
            return cond
        return A.BinOp("&", ctx, cond)

    def rewrite_expr(self, expr: A.Expr, ctx: A.Expr) -> A.Expr:
        """Rewrite calls (impure callees take the guard); everything
        else is already branch-free."""
        if isinstance(expr, A.Call):
            args = tuple(self.rewrite_expr(a, ctx) for a in expr.args)
            if expr.name in self.impure:
                return A.Call(expr.name + _CT_SUFFIX,
                              args + (self._guard(ctx),))
            return A.Call(expr.name, args)
        if isinstance(expr, A.BinOp):
            return A.BinOp(expr.op, self.rewrite_expr(expr.left, ctx),
                           self.rewrite_expr(expr.right, ctx))
        if isinstance(expr, A.Cmp):
            return A.Cmp(expr.op, self.rewrite_expr(expr.left, ctx),
                         self.rewrite_expr(expr.right, ctx))
        if isinstance(expr, A.Load):
            return A.Load(self.rewrite_expr(expr.base, ctx),
                          self.rewrite_expr(expr.index, ctx))
        return expr

    @staticmethod
    def _select(target: A.Expr, guard: A.Expr, value: A.Expr) -> A.Expr:
        """``target + guard*(value - target)`` — exact for 0/1 guards."""
        return A.BinOp(
            "+", target,
            A.BinOp("*", guard, A.BinOp("-", value, target)))

    def transform(self, stmts: Sequence[A.Stmt],
                  ctx: A.Expr) -> List[A.Stmt]:
        out: List[A.Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, A.Assign):
                value = self.rewrite_expr(stmt.value, ctx)
                if stmt.name not in self.secret:
                    # public induction/bound variables update
                    # unconditionally — masking them would freeze
                    # public loops when __live drops
                    out.append(A.Assign(stmt.name, value))
                    continue
                temp = self.fresh("t")
                out.append(A.Assign(temp, value))
                out.append(A.Assign(
                    stmt.name,
                    self._select(A.Var(stmt.name), self._guard(ctx),
                                 A.Var(temp))))
            elif isinstance(stmt, A.Store):
                base = self.fresh("b")
                index = self.fresh("x")
                value = self.fresh("v")
                out.append(A.Assign(base,
                                    self.rewrite_expr(stmt.base, ctx)))
                out.append(A.Assign(index,
                                    self.rewrite_expr(stmt.index, ctx)))
                out.append(A.Assign(value,
                                    self.rewrite_expr(stmt.value, ctx)))
                cell = A.Load(A.Var(base), A.Var(index))
                out.append(A.Store(
                    A.Var(base), A.Var(index),
                    self._select(cell, self._guard(ctx), A.Var(value))))
            elif isinstance(stmt, A.If):
                cond = self.fresh("c")
                out.append(A.Assign(cond, _as_cond01(
                    self.rewrite_expr(stmt.cond, ctx))))
                out.extend(self.transform(
                    stmt.then, self._chain(ctx, A.Var(cond))))
                if stmt.orelse:
                    ncond = self.fresh("c")
                    out.append(A.Assign(
                        ncond, A.BinOp("-", _ONE, A.Var(cond))))
                    out.extend(self.transform(
                        stmt.orelse, self._chain(ctx, A.Var(ncond))))
            elif isinstance(stmt, A.While):
                if not _expr_secret(stmt.cond, self.secret):
                    out.append(A.While(
                        self.rewrite_expr(stmt.cond, ctx),
                        tuple(self.transform(stmt.body, ctx))))
                    continue
                # secret trip count -> fixed-bound sticky-predicate loop
                pred = self.fresh("p")
                counter = self.fresh("i")
                out.append(A.Assign(pred, ctx))
                out.append(A.Assign(counter, _ZERO))
                body: List[A.Stmt] = []
                cond = self.fresh("c")
                body.append(A.Assign(cond, _as_cond01(
                    self.rewrite_expr(stmt.cond, A.Var(pred)))))
                body.append(A.Assign(
                    pred, A.BinOp("&", A.Var(pred), A.Var(cond))))
                body.extend(self.transform(stmt.body, A.Var(pred)))
                body.append(A.Assign(
                    counter, A.BinOp("+", A.Var(counter), _ONE)))
                out.append(A.While(
                    A.Cmp("<", A.Var(counter), A.Const(self.bound)),
                    tuple(body)))
            elif isinstance(stmt, A.Return):
                value = (self.rewrite_expr(stmt.value, ctx)
                         if stmt.value is not None else _ZERO)
                guard = self.fresh("g")
                out.append(A.Assign(guard, self._guard(ctx)))
                out.append(A.Assign(
                    "__ret", self._select(A.Var("__ret"), A.Var(guard),
                                          value)))
                out.append(A.Assign(
                    "__live",
                    A.BinOp("-", A.Var("__live"), A.Var(guard))))
            elif isinstance(stmt, A.ExprStmt):
                out.append(A.ExprStmt(self.rewrite_expr(stmt.expr, ctx)))
            elif isinstance(stmt, A.Yield):
                # yields run unconditionally: inside bounded loops the
                # count is already input-independent
                out.append(A.Yield())
            else:  # pragma: no cover - exhaustive over the AST
                raise TypeError(f"unhandled statement {stmt!r}")
        return out

    def build(self, *, predicated: bool) -> A.Function:
        body: List[A.Stmt] = []
        if predicated:
            params = self.fn.params + ("__pred",)
            body.append(A.Assign("__live", A.Var("__pred")))
        else:
            params = self.fn.params
            body.append(A.Assign("__live", _ONE))
        body.append(A.Assign("__ret", _ZERO))
        body.extend(self.transform(self.fn.body, _ONE))
        body.append(A.Return(A.Var("__ret")))
        name = self.fn.name + (_CT_SUFFIX if predicated else "")
        return A.Function(name, params, tuple(body))


def rewrite_module(module: A.Module, *,
                   bound: int = DEFAULT_BOUND) -> A.Module:
    """Constant-time rewrite of every function in ``module``.

    ``bound`` is the fixed iteration count substituted for each
    secret-conditioned loop; it must dominate the true trip count on
    every input in the certified domain (the certifier's dynamic
    replay cross-checks functional preservation).
    """
    if bound < 1:
        raise ValueError("ct-rewrite loop bound must be >= 1")
    impure = _impure_functions(module)
    functions: List[A.Function] = []
    for fn in module.functions:
        functions.append(
            _FnRewriter(fn, impure, bound).build(predicated=False))
        if fn.name in impure:
            functions.append(
                _FnRewriter(fn, impure, bound).build(predicated=True))
    return A.Module(tuple(functions))


def rewrite_function_names(module: A.Module) -> Dict[str, Tuple[str, ...]]:
    """original name -> names of its rewritten variants."""
    impure = _impure_functions(module)
    mapping: Dict[str, Tuple[str, ...]] = {}
    for fn in module.functions:
        names = [fn.name]
        if fn.name in impure:
            names.append(fn.name + _CT_SUFFIX)
        mapping[fn.name] = tuple(names)
    return mapping
