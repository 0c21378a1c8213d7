"""Code generation: AST -> assembled machine code.

Implements three optimization levels that matter for the paper's
Figure 13 (right) — different levels must produce *different binaries
of the same source*, the way gcc's do:

* **O0** — everything through the stack: locals in memory slots,
  expression evaluation via push/pop, 32-bit immediate forms, near
  jumps everywhere.
* **O2** — hot locals promoted to callee-saved registers, leaf-operand
  evaluation without stack traffic, 8-bit immediate forms where they
  fit, bottom-tested (rotated) loops, short jumps for short backward
  edges.
* **O3** — O2 plus leaf-function inlining and 16-byte alignment of
  loop headers.

Defense passes (the paper's §5 arms race) are also compiler flags:

* ``balance_branches`` — pad the shorter arm of every if/else with
  nops to the same byte length (branch balancing [42, 46]).
* ``align_jumps=16`` — the ``-falign-jumps=16`` flag that defeats the
  Frontal attack (§7.2): align every branch target to 16 bytes.
* ``cfr`` — control-flow randomization [25]: conditional branches are
  replaced by cmov-selected targets dispatched through an indirect
  jump in a trampoline at a randomized address.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CompileError
from ..isa.assembler import AssembledProgram, Assembler, abs_
from ..isa.instructions import spec_for
from ..system.syscalls import SYS_SCHED_YIELD
from . import ast as A

#: argument-passing registers, in order
ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
#: callee-saved registers available for local promotion at O2+
PROMOTE_REGS = ("rbx", "r12", "r13", "r14", "r15")

_CMP_COND = {
    "==": "e", "!=": "ne",
    "<": "b", "<=": "be", ">": "a", ">=": "ae",        # unsigned
    "s<": "l", "s<=": "le", "s>": "g", "s>=": "ge",     # signed
}
#: load address of every compiled module
CODE_BASE = 0x40_0000
#: where CFR trampolines are randomized into
CFR_REGION = 0x5000_0000
#: O3 inlines leaf functions with at most this many statements
INLINE_LIMIT = 8

_COND_NEGATION = {
    "e": "ne", "ne": "e", "b": "ae", "ae": "b", "be": "a", "a": "be",
    "l": "ge", "ge": "l", "le": "g", "g": "le",
}


@dataclass(frozen=True)
class CompileOptions:
    """Compiler configuration (one 'gcc invocation')."""

    opt_level: int = 0                  # 0, 2 or 3
    balance_branches: bool = False
    align_jumps: int = 0                # 0 or 16
    cfr: bool = False
    cfr_seed: int = 1234

    def __post_init__(self):
        if self.opt_level not in (0, 2, 3):
            raise CompileError(f"unsupported opt level {self.opt_level}")
        if self.align_jumps not in (0, 16):
            raise CompileError("align_jumps must be 0 or 16")
        if self.balance_branches and self.align_jumps:
            raise CompileError(
                "balance_branches and align_jumps cannot be combined "
                "(padding lengths become layout-dependent)")


@dataclass
class FunctionInfo:
    """Layout facts about one compiled function."""

    name: str
    entry: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, pc: int) -> bool:
        return self.start <= pc < self.end


@dataclass(frozen=True)
class ArmRegion:
    """Address ranges of one compiled if/else (half-open intervals).

    The control-flow-leakage attacker (victim code public, §5) uses
    these to aim its PW at one side of the secret branch.
    """

    function: str
    then_start: int
    then_end: int
    else_start: int
    else_end: int


@dataclass
class CompiledModule:
    """A compiled module: the binary plus per-function layout.

    Only :class:`Compiler` builds modules, so function ranges are
    disjoint and neither ``program`` nor ``functions`` changes after
    construction; the static-PC index below is built once, on first
    use, from that fixed layout.
    """

    program: AssembledProgram
    functions: Dict[str, FunctionInfo]
    options: CompileOptions
    #: entry point that calls the start function then halts
    start: Optional[int] = None
    #: every compiled if/else, in emission order
    arm_regions: List[ArmRegion] = field(default_factory=list)
    #: function ranges sorted by start: (start, end, name)
    _ranges: List[Tuple[int, int, str]] = field(
        default_factory=list, init=False, repr=False, compare=False)
    _starts: List[int] = field(
        default_factory=list, init=False, repr=False, compare=False)
    #: function name -> its pcs, in ``program.instructions`` order;
    #: ``None`` until the index is built
    _pcs: Optional[Dict[str, List[int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def info(self, name: str) -> FunctionInfo:
        try:
            return self.functions[name]
        except KeyError:
            raise CompileError(f"no function {name!r}") from None

    def _index(self) -> Dict[str, List[int]]:
        """Sort the ranges once, then file every instruction pc under
        the function that holds it in one pass over the program."""
        if self._pcs is None:
            self._ranges = sorted((info.start, info.end, name)
                                  for name, info in self.functions.items())
            self._starts = [start for start, _, _ in self._ranges]
            pcs: Dict[str, List[int]] = {name: [] for name in self.functions}
            for pc in self.program.instructions:
                owner = self._owner(pc)
                if owner is not None:
                    pcs[owner].append(pc)
            self._pcs = pcs
        return self._pcs

    def _owner(self, pc: int) -> Optional[str]:
        slot = bisect_right(self._starts, pc) - 1
        if slot >= 0 and pc < self._ranges[slot][1]:
            return self._ranges[slot][2]
        return None

    def static_pcs(self, name: str) -> List[int]:
        """Static instruction addresses of ``name`` (absolute), in
        ``program.instructions`` order."""
        self.info(name)
        return list(self._index()[name])

    def function_of(self, pc: int) -> Optional[str]:
        self._index()
        return self._owner(pc)

    def arms_in(self, function: str) -> List[ArmRegion]:
        """If/else arm regions belonging to ``function``."""
        return [arm for arm in self.arm_regions
                if arm.function == function]


# The AST walkers below are module-level functions that take their
# accumulator explicitly: a nested function that calls itself is a
# reference cycle through its closure cell, which every compile would
# leave for the cyclic collector.
def _collect_expr_locals(expr: A.Expr, names: List[str],
                         counts: Counter) -> None:
    if isinstance(expr, A.Var):
        counts[expr.name] += 1
        if expr.name not in names:
            names.append(expr.name)
    elif isinstance(expr, A.BinOp) or isinstance(expr, A.Cmp):
        _collect_expr_locals(expr.left, names, counts)
        _collect_expr_locals(expr.right, names, counts)
    elif isinstance(expr, A.Load):
        _collect_expr_locals(expr.base, names, counts)
        _collect_expr_locals(expr.index, names, counts)
    elif isinstance(expr, A.Call):
        for arg in expr.args:
            _collect_expr_locals(arg, names, counts)


def _collect_stmt_locals(stmt: A.Stmt, names: List[str],
                         counts: Counter) -> None:
    """Append the variables ``stmt`` names to ``names`` in first-use
    order and count every reference in ``counts``."""
    if isinstance(stmt, A.Assign):
        counts[stmt.name] += 1
        if stmt.name not in names:
            names.append(stmt.name)
        _collect_expr_locals(stmt.value, names, counts)
    elif isinstance(stmt, A.Store):
        _collect_expr_locals(stmt.base, names, counts)
        _collect_expr_locals(stmt.index, names, counts)
        _collect_expr_locals(stmt.value, names, counts)
    elif isinstance(stmt, A.If):
        _collect_expr_locals(stmt.cond, names, counts)
        for inner in stmt.then:
            _collect_stmt_locals(inner, names, counts)
        for inner in stmt.orelse:
            _collect_stmt_locals(inner, names, counts)
    elif isinstance(stmt, A.While):
        _collect_expr_locals(stmt.cond, names, counts)
        for inner in stmt.body:
            _collect_stmt_locals(inner, names, counts)
    elif isinstance(stmt, A.Return) and stmt.value is not None:
        _collect_expr_locals(stmt.value, names, counts)
    elif isinstance(stmt, A.ExprStmt):
        _collect_expr_locals(stmt.expr, names, counts)


class _FunctionEmitter:
    """Generates code for one function into the shared assembler."""

    def __init__(self, compiler: "Compiler", function: A.Function):
        self.compiler = compiler
        self.asm = compiler.asm
        self.options = compiler.options
        self.function = function
        self.opt = self.options.opt_level
        self._label_counter = 0
        #: local name -> stack slot index (0-based)
        self.slots: Dict[str, int] = {}
        #: local name -> promoted register (O2+)
        self.regs: Dict[str, str] = {}
        self.epilogue_label = self._fresh("epilogue")
        #: running byte counter for branch balancing
        self._emitted_bytes = 0
        self._byte_counter_valid = True
        #: register arm-region markers with the compiler (off in
        #: dry-run measurement emitters)
        self.record_arms = True

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._label_counter += 1
        return f"{self.function.name}${hint}{self._label_counter}"

    def emit(self, mnemonic: str, *operands) -> None:
        self._emitted_bytes += self.asm.emit(mnemonic, *operands)

    def label(self, name: str) -> None:
        self.asm.label(name)

    def align(self, boundary: int) -> None:
        self.asm.align(boundary)
        self._byte_counter_valid = False

    # ------------------------------------------------------------------
    # local variable discovery and placement
    # ------------------------------------------------------------------
    def _collect_locals(self) -> List[str]:
        names: List[str] = list(self.function.params)
        counts: Counter = Counter(self.function.params)
        for stmt in self.function.body:
            _collect_stmt_locals(stmt, names, counts)
        self._counts = counts
        return names

    def _place_locals(self, names: List[str]) -> None:
        if self.opt >= 2:
            # Promote the most-referenced locals into callee-saved regs.
            hottest = [name for name, _ in self._counts.most_common()]
            for register, name in zip(PROMOTE_REGS, hottest):
                self.regs[name] = register
        slot = 0
        for name in names:
            if name not in self.regs:
                self.slots[name] = slot
                slot += 1
        self.frame_slots = slot

    # ------------------------------------------------------------------
    # variable access
    # ------------------------------------------------------------------
    def _slot_disp(self, name: str) -> int:
        return -8 * (self.slots[name] + 1)

    def _read_var(self, name: str, target: str = "rax") -> None:
        if name in self.regs:
            self.emit("mov", target, self.regs[name])
        elif name in self.slots:
            disp = self._slot_disp(name)
            if -128 <= disp <= 127:
                self.emit("load", target, "rbp", disp)
            else:
                self.emit("loadw", target, "rbp", disp)
        else:
            raise CompileError(
                f"{self.function.name}: use of undefined variable "
                f"{name!r}")

    def _write_var(self, name: str, source: str = "rax") -> None:
        if name in self.regs:
            self.emit("mov", self.regs[name], source)
        else:
            disp = self._slot_disp(name)
            if -128 <= disp <= 127:
                self.emit("store", "rbp", source, disp)
            else:
                self.emit("storew", "rbp", source, disp)

    # ------------------------------------------------------------------
    # expression evaluation (result in rax)
    # ------------------------------------------------------------------
    def _is_leaf(self, expr: A.Expr) -> bool:
        return isinstance(expr, (A.Const, A.Var))

    def _load_const(self, register: str, value: int) -> None:
        value &= (1 << 64) - 1
        if value < (1 << 31):
            self.emit("movi", register, value)
        else:
            self.emit("movabs", register, value)

    def _eval_into(self, expr: A.Expr, register: str) -> None:
        """Evaluate a *leaf* expression directly into ``register``."""
        if isinstance(expr, A.Const):
            self._load_const(register, expr.value)
        elif isinstance(expr, A.Var):
            self._read_var(expr.name, register)
        else:
            raise CompileError("internal: _eval_into on non-leaf")

    def eval_expr(self, expr: A.Expr) -> None:
        """Evaluate ``expr``; the result ends up in rax."""
        if self._is_leaf(expr):
            self._eval_into(expr, "rax")
        elif isinstance(expr, A.BinOp):
            self._eval_binop(expr)
        elif isinstance(expr, A.Cmp):
            self._eval_pair(expr.left, expr.right)
            self.emit("cmp", "rax", "rcx")
            cond = _CMP_COND.get(expr.op)
            if cond is None:
                raise CompileError(f"unknown comparison {expr.op!r}")
            self.emit(f"set{cond}", "rax")
        elif isinstance(expr, A.Load):
            self._eval_pair(expr.base, expr.index)
            self.emit("shl", "rcx", 3)
            self.emit("add", "rax", "rcx")
            self.emit("load", "rax", "rax", 0)
        elif isinstance(expr, A.Call):
            self._eval_call(expr)
        else:
            raise CompileError(f"cannot compile expression {expr!r}")

    def _eval_pair(self, left: A.Expr, right: A.Expr) -> None:
        """left -> rax, right -> rcx."""
        if self._is_leaf(right):
            self.eval_expr(left)
            self._eval_into(right, "rcx")
        elif self.opt >= 2 and self._is_leaf(left):
            self.eval_expr(right)
            self.emit("mov", "rcx", "rax")
            self._eval_into(left, "rax")
        else:
            self.eval_expr(left)
            self.emit("push", "rax")
            self.eval_expr(right)
            self.emit("mov", "rcx", "rax")
            self.emit("pop", "rax")

    def _small_imm(self, expr: A.Expr) -> Optional[int]:
        if isinstance(expr, A.Const) and -128 <= expr.value <= 127:
            return expr.value
        return None

    def _eval_binop(self, expr: A.BinOp) -> None:
        op = expr.op
        if op in ("<<", ">>"):
            if not isinstance(expr.right, A.Const):
                raise CompileError(
                    "shift amounts must be compile-time constants")
            self.eval_expr(expr.left)
            mnemonic = "shl" if op == "<<" else "shr"
            self.emit(mnemonic, "rax", expr.right.value & 63)
            return
        # 8-bit-immediate forms at O2+ (gcc does this always; the level
        # split gives Fig-13 its O0-vs-O2 length differences)
        imm8 = self._small_imm(expr.right) if self.opt >= 2 else None
        if imm8 is not None and op in ("+", "-", "&", "|", "^"):
            table = {"+": "addi8", "-": "subi8", "&": "andi8",
                     "|": "ori8", "^": "xori8"}
            self.eval_expr(expr.left)
            self.emit(table[op], "rax", imm8)
            return
        if (isinstance(expr.right, A.Const)
                and 0 <= expr.right.value < (1 << 31)
                and op in ("+", "-", "&", "|", "^")):
            table = {"+": "addi", "-": "subi", "&": "andi",
                     "|": "ori", "^": "xori"}
            self.eval_expr(expr.left)
            self.emit(table[op], "rax", expr.right.value)
            return
        self._eval_pair(expr.left, expr.right)
        if op == "+":
            self.emit("add", "rax", "rcx")
        elif op == "-":
            self.emit("sub", "rax", "rcx")
        elif op == "&":
            self.emit("and", "rax", "rcx")
        elif op == "|":
            self.emit("or", "rax", "rcx")
        elif op == "^":
            self.emit("xor", "rax", "rcx")
        elif op == "*":
            self.emit("imul", "rax", "rcx")
        elif op in ("/", "%"):
            self.emit("movi", "rdx", 0)
            self.emit("div", "rcx")
            if op == "%":
                self.emit("mov", "rax", "rdx")
        else:
            raise CompileError(f"unknown operator {op!r}")

    def _eval_call(self, expr: A.Call) -> None:
        if len(expr.args) > len(ARG_REGS):
            raise CompileError(
                f"{expr.name}: more than {len(ARG_REGS)} arguments")
        for arg in expr.args:
            self.eval_expr(arg)
            self.emit("push", "rax")
        for register in reversed(ARG_REGS[:len(expr.args)]):
            self.emit("pop", register)
        self.emit("call", self.compiler.function_label(expr.name))

    # ------------------------------------------------------------------
    # conditions: jump to `target` when the condition is False
    # ------------------------------------------------------------------
    def _emit_cond_jump_false(self, cond: A.Expr, target: str) -> None:
        if isinstance(cond, A.Cmp):
            imm8 = self._small_imm(cond.right) if self.opt >= 2 else None
            if imm8 is not None:
                self.eval_expr(cond.left)
                self.emit("cmpi8", "rax", imm8)
            elif (isinstance(cond.right, A.Const)
                  and 0 <= cond.right.value < (1 << 31)):
                self.eval_expr(cond.left)
                self.emit("cmpi", "rax", cond.right.value)
            else:
                self._eval_pair(cond.left, cond.right)
                self.emit("cmp", "rax", "rcx")
            negated = _COND_NEGATION[_CMP_COND[cond.op]]
            self.emit(f"j{negated}", target)
        else:
            self.eval_expr(cond)
            self.emit("test", "rax", "rax")
            self.emit("je", target)

    def _emit_cond_jump_true(self, cond: A.Expr, target: str,
                             short: bool = False) -> None:
        suffix = "8" if short else ""
        if isinstance(cond, A.Cmp):
            imm8 = self._small_imm(cond.right) if self.opt >= 2 else None
            if imm8 is not None:
                self.eval_expr(cond.left)
                self.emit("cmpi8", "rax", imm8)
            elif (isinstance(cond.right, A.Const)
                  and 0 <= cond.right.value < (1 << 31)):
                self.eval_expr(cond.left)
                self.emit("cmpi", "rax", cond.right.value)
            else:
                self._eval_pair(cond.left, cond.right)
                self.emit("cmp", "rax", "rcx")
            self.emit(f"j{_CMP_COND[cond.op]}{suffix}", target)
        else:
            self.eval_expr(cond)
            self.emit("test", "rax", "rax")
            self.emit(f"jne{suffix}", target)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def emit_block(self, stmts: Sequence[A.Stmt]) -> None:
        for stmt in stmts:
            self.emit_stmt(stmt)

    def emit_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Assign):
            self.eval_expr(stmt.value)
            self._write_var(stmt.name)
        elif isinstance(stmt, A.Store):
            self._eval_pair(stmt.base, stmt.index)
            self.emit("shl", "rcx", 3)
            self.emit("add", "rax", "rcx")
            self.emit("push", "rax")
            self.eval_expr(stmt.value)
            self.emit("pop", "rcx")
            self.emit("store", "rcx", "rax", 0)
        elif isinstance(stmt, A.If):
            self._emit_if(stmt)
        elif isinstance(stmt, A.While):
            self._emit_while(stmt)
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value)
            else:
                self.emit("movi", "rax", 0)
            self.emit("jmp", self.epilogue_label)
        elif isinstance(stmt, A.ExprStmt):
            self.eval_expr(stmt.expr)
        elif isinstance(stmt, A.Yield):
            self.emit("movi", "rax", SYS_SCHED_YIELD)
            self.emit("syscall")
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")

    # ----- if/else with the defense passes -----------------------------
    def _measure_block(self, stmts: Sequence[A.Stmt]) -> int:
        """Byte size the block would occupy (dry-run emission)."""
        scratch = _FunctionEmitter(self.compiler, self.function)
        scratch.asm = Assembler(base=0)      # decouple from real stream
        scratch.slots = self.slots
        scratch.regs = self.regs
        scratch.record_arms = False
        scratch.emit_block(stmts)
        if not scratch._byte_counter_valid:
            raise CompileError(
                "cannot balance arms containing alignment directives")
        return scratch._emitted_bytes

    def _emit_balanced_arms(self, then: Sequence[A.Stmt],
                            orelse: Sequence[A.Stmt],
                            pad_extra_then: int = 0) -> Tuple[int, int]:
        """Pad the shorter arm with nops so both arms occupy the same
        number of code bytes (branch-balancing defense [42, 46]).

        ``pad_extra_then`` accounts for bytes the then arm will emit
        after its body (its jump over the else arm)."""
        then_size = self._measure_block(then) + pad_extra_then
        else_size = self._measure_block(orelse)
        target = max(then_size, else_size)
        return target - then_size, target - else_size

    def _arm_marker(self) -> Optional[Tuple[str, str, str, str]]:
        if not self.record_arms:
            return None
        return self.compiler.new_arm_marker(self.function.name)

    def _emit_if(self, stmt: A.If) -> None:
        if self.options.cfr:
            self._emit_if_cfr(stmt)
            return
        marks = self._arm_marker()
        else_label = self._fresh("else")
        end_label = self._fresh("endif")
        pad_then = pad_else = 0
        if self.options.balance_branches and stmt.orelse:
            jmp_len = spec_for("jmp").length
            pad_then, pad_else = self._emit_balanced_arms(
                stmt.then, stmt.orelse, pad_extra_then=jmp_len)
        self._emit_cond_jump_false(
            stmt.cond, else_label if stmt.orelse else end_label)
        if self.options.align_jumps:
            self.align(self.options.align_jumps)
        if marks:
            self.label(marks[0])
        self.emit_block(stmt.then)
        for _ in range(pad_then):
            self.emit("nop")
        if marks:
            self.label(marks[1])
        if stmt.orelse:
            self.emit("jmp", end_label)
            self.label(else_label)
            if self.options.align_jumps:
                self.align(self.options.align_jumps)
            if marks:
                self.label(marks[2])
            self.emit_block(stmt.orelse)
            for _ in range(pad_else):
                self.emit("nop")
            if marks:
                self.label(marks[3])
        self.label(end_label)
        if marks and not stmt.orelse:
            self.label(marks[2])
            self.label(marks[3])

    def _emit_if_cfr(self, stmt: A.If) -> None:
        """Control-flow randomization [25]: select the target with a
        cmov and dispatch through an indirect jump placed at a
        randomized address (Fig. 8b)."""
        marks = self._arm_marker()
        then_label = self._fresh("cfr_then")
        else_label = self._fresh("cfr_else")
        end_label = self._fresh("cfr_end")
        trampoline = self.compiler.new_trampoline()
        pad_then = pad_else = 0
        if self.options.balance_branches:
            jmp_len = spec_for("jmp").length
            pad_then, pad_else = self._emit_balanced_arms(
                stmt.then, stmt.orelse, pad_extra_then=jmp_len)
        # rax = cond (0/1)
        self.eval_expr(stmt.cond)
        self.emit("movabs", "r10", abs_(else_label))
        self.emit("movabs", "r11", abs_(then_label))
        self.emit("test", "rax", "rax")
        self.emit("cmovne", "r10", "r11")
        self.emit("jmp", trampoline)      # to the randomized dispatcher
        self.label(then_label)
        if marks:
            self.label(marks[0])
        self.emit_block(stmt.then)
        for _ in range(pad_then):
            self.emit("nop")
        if marks:
            self.label(marks[1])
        self.emit("jmp", end_label)
        self.label(else_label)
        if marks:
            self.label(marks[2])
        self.emit_block(stmt.orelse)
        for _ in range(pad_else):
            self.emit("nop")
        if marks:
            self.label(marks[3])
        self.label(end_label)

    # ----- loops --------------------------------------------------------
    def _emit_while(self, stmt: A.While) -> None:
        if self.opt >= 2:
            # Rotated loop: jump to the test at the bottom.
            body_label = self._fresh("loopbody")
            cond_label = self._fresh("loopcond")
            self.emit("jmp", cond_label)
            if self.opt >= 3 or self.options.align_jumps:
                self.align(self.options.align_jumps or 16)
            self.label(body_label)
            self.emit_block(stmt.body)
            self.label(cond_label)
            self._emit_cond_jump_true(stmt.cond, body_label)
        else:
            head_label = self._fresh("loophead")
            exit_label = self._fresh("loopexit")
            if self.options.align_jumps:
                self.align(self.options.align_jumps)
            self.label(head_label)
            self._emit_cond_jump_false(stmt.cond, exit_label)
            self.emit_block(stmt.body)
            self.emit("jmp", head_label)
            self.label(exit_label)

    # ------------------------------------------------------------------
    # whole function
    # ------------------------------------------------------------------
    def emit_function(self) -> None:
        names = self._collect_locals()
        self._place_locals(names)
        self.asm.align(16)     # functions are 16-byte aligned (gcc-like)
        self.label(self.compiler.function_label(self.function.name))
        self.emit("push", "rbp")
        self.emit("mov", "rbp", "rsp")
        if self.frame_slots:
            self.emit("subi", "rsp", 8 * self.frame_slots)
        used_saved = sorted(set(self.regs.values()))
        for register in used_saved:
            self.emit("push", register)
        for register, param in zip(ARG_REGS, self.function.params):
            self._write_var(param, register)
        self.emit_block(self.function.body)
        # implicit `return 0` fall-through
        self.emit("movi", "rax", 0)
        self.label(self.epilogue_label)
        for register in reversed(used_saved):
            self.emit("pop", register)
        self.emit("mov", "rsp", "rbp")
        self.emit("pop", "rbp")
        self.emit("ret")


class Compiler:
    """Compiles a :class:`Module` into a :class:`CompiledModule`."""

    def __init__(self, options: Optional[CompileOptions] = None):
        self.options = options if options is not None else CompileOptions()
        self.asm = Assembler(base=CODE_BASE)
        self._trampolines: List[str] = []
        self._arm_markers: List[Tuple[str, Tuple[str, str, str, str]]] = []
        self._rng = random.Random(self.options.cfr_seed)

    def function_label(self, name: str) -> str:
        return f"fn_{name}"

    def new_trampoline(self) -> str:
        name = f"cfr_trampoline{len(self._trampolines)}"
        self._trampolines.append(name)
        return name

    def new_arm_marker(self, function: str) -> Tuple[str, str, str, str]:
        index = len(self._arm_markers)
        labels = tuple(f"__arm{index}_{suffix}"
                       for suffix in ("ts", "te", "es", "ee"))
        self._arm_markers.append((function, labels))  # type: ignore
        return labels  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def compile(self, module: A.Module,
                start: Optional[str] = None) -> CompiledModule:
        """Compile every function; optionally emit a ``_start`` stub
        that calls ``start`` and halts."""
        if self.options.opt_level >= 3:
            module = inline_leaf_calls(module, INLINE_LIMIT)
        boundaries: List[Tuple[str, str, str]] = []
        if start is not None:
            module.function(start)   # fail fast on unknown start
            self.asm.label("_start")
            self.asm.emit("call", self.function_label(start))
            self.asm.emit("hlt")
        for function in module.functions:
            begin = f"__begin_{function.name}"
            finish = f"__end_{function.name}"
            self.asm.label(begin)
            _FunctionEmitter(self, function).emit_function()
            self.asm.label(finish)
            boundaries.append((function.name, begin, finish))
        self._emit_trampolines()
        program = self.asm.assemble()
        functions = {
            name: FunctionInfo(
                name=name,
                entry=program.address_of(self.function_label(name)),
                start=program.address_of(begin),
                end=program.address_of(finish),
            )
            for name, begin, finish in boundaries
        }
        arm_regions = [
            ArmRegion(
                function=function,
                then_start=program.address_of(labels[0]),
                then_end=program.address_of(labels[1]),
                else_start=program.address_of(labels[2]),
                else_end=program.address_of(labels[3]),
            )
            for function, labels in self._arm_markers
        ]
        return CompiledModule(
            program=program,
            functions=functions,
            options=self.options,
            start=(program.address_of("_start")
                   if start is not None else None),
            arm_regions=arm_regions,
        )

    def _emit_trampolines(self) -> None:
        """Place each CFR trampoline on its own randomized page."""
        used: set = set()
        for name in self._trampolines:
            while True:
                page = self._rng.randrange(0, 1 << 16)
                offset = self._rng.randrange(0, 4096 - 16)
                address = CFR_REGION + page * 4096 + offset
                if address not in used:
                    used.add(address)
                    break
            self.asm.org(address)
            self.asm.label(name)
            self.asm.emit("jmpr", "r10")


# ----------------------------------------------------------------------
# O3 leaf inlining
# ----------------------------------------------------------------------
def _expr_calls(expr: A.Expr) -> bool:
    if isinstance(expr, A.Call):
        return True
    if isinstance(expr, (A.BinOp, A.Cmp)):
        return _expr_calls(expr.left) or _expr_calls(expr.right)
    if isinstance(expr, A.Load):
        return _expr_calls(expr.base) or _expr_calls(expr.index)
    return False


def _stmt_calls(stmt: A.Stmt) -> bool:
    if isinstance(stmt, A.Assign):
        return _expr_calls(stmt.value)
    if isinstance(stmt, A.Store):
        return (_expr_calls(stmt.base) or _expr_calls(stmt.index)
                or _expr_calls(stmt.value))
    if isinstance(stmt, A.If):
        return _expr_calls(stmt.cond) or any(
            _stmt_calls(inner) for inner in stmt.then + stmt.orelse)
    if isinstance(stmt, A.While):
        return _expr_calls(stmt.cond) or any(
            _stmt_calls(inner) for inner in stmt.body)
    if isinstance(stmt, A.Return) and stmt.value is not None:
        return _expr_calls(stmt.value)
    if isinstance(stmt, A.ExprStmt):
        return _expr_calls(stmt.expr)
    return False


def _is_leaf_function(function: A.Function) -> bool:
    return not any(_stmt_calls(stmt) for stmt in function.body)


def _has_inner_return(stmts: Sequence[A.Stmt], top: bool) -> bool:
    for position, stmt in enumerate(stmts):
        if isinstance(stmt, A.Return):
            if not (top and position == len(stmts) - 1):
                return True
        elif isinstance(stmt, A.If):
            if _has_inner_return(stmt.then, False):
                return True
            if _has_inner_return(stmt.orelse, False):
                return True
        elif isinstance(stmt, A.While):
            if _has_inner_return(stmt.body, False):
                return True
    return False


def _inlinable(function: A.Function, limit: int) -> bool:
    """Inline only straight-line-ish leaves: no internal Return except
    as the final statement, and small bodies."""
    if len(function.body) > limit or not _is_leaf_function(function):
        return False
    return not _has_inner_return(function.body, True)


def _rename_expr(expr: A.Expr, mapping: Dict[str, str]) -> A.Expr:
    if isinstance(expr, A.Var):
        return A.Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, A.BinOp):
        return A.BinOp(expr.op, _rename_expr(expr.left, mapping),
                       _rename_expr(expr.right, mapping))
    if isinstance(expr, A.Cmp):
        return A.Cmp(expr.op, _rename_expr(expr.left, mapping),
                     _rename_expr(expr.right, mapping))
    if isinstance(expr, A.Load):
        return A.Load(_rename_expr(expr.base, mapping),
                      _rename_expr(expr.index, mapping))
    if isinstance(expr, A.Call):
        return A.Call(expr.name,
                      tuple(_rename_expr(a, mapping) for a in expr.args))
    return expr


def _rename_stmt(stmt: A.Stmt, mapping: Dict[str, str]) -> A.Stmt:
    if isinstance(stmt, A.Assign):
        return A.Assign(mapping.get(stmt.name, stmt.name),
                        _rename_expr(stmt.value, mapping))
    if isinstance(stmt, A.Store):
        return A.Store(_rename_expr(stmt.base, mapping),
                       _rename_expr(stmt.index, mapping),
                       _rename_expr(stmt.value, mapping))
    if isinstance(stmt, A.If):
        return A.If(_rename_expr(stmt.cond, mapping),
                    _rename(stmt.then, mapping),
                    _rename(stmt.orelse, mapping))
    if isinstance(stmt, A.While):
        return A.While(_rename_expr(stmt.cond, mapping),
                       _rename(stmt.body, mapping))
    if isinstance(stmt, A.Return):
        return A.Return(None if stmt.value is None
                        else _rename_expr(stmt.value, mapping))
    if isinstance(stmt, A.ExprStmt):
        return A.ExprStmt(_rename_expr(stmt.expr, mapping))
    return stmt


def _rename(stmts, mapping):
    return tuple(_rename_stmt(s, mapping) for s in stmts)


def _assigned_names(stmts: Sequence[A.Stmt], names: Set[str]) -> None:
    """Add every variable ``stmts`` assign to ``names``."""
    for stmt in stmts:
        if isinstance(stmt, A.Assign):
            names.add(stmt.name)
        elif isinstance(stmt, A.If):
            _assigned_names(stmt.then, names)
            _assigned_names(stmt.orelse, names)
        elif isinstance(stmt, A.While):
            _assigned_names(stmt.body, names)


def _expand_calls(stmt: A.Stmt, inlinable: Dict[str, A.Function],
                  counter: List[int]) -> List[A.Stmt]:
    """``stmt`` with its inlinable call sites expanded; ``counter[0]``
    numbers the expansions (their fresh-name prefixes)."""
    target_call: Optional[A.Call] = None
    assign_to: Optional[str] = None
    if (isinstance(stmt, A.Assign)
            and isinstance(stmt.value, A.Call)
            and stmt.value.name in inlinable):
        target_call = stmt.value
        assign_to = stmt.name
    elif (isinstance(stmt, A.ExprStmt)
          and isinstance(stmt.expr, A.Call)
          and stmt.expr.name in inlinable):
        target_call = stmt.expr
    if target_call is None:
        if isinstance(stmt, A.If):
            return [A.If(
                stmt.cond,
                _expand_block(stmt.then, inlinable, counter),
                _expand_block(stmt.orelse, inlinable, counter))]
        if isinstance(stmt, A.While):
            return [A.While(
                stmt.cond, _expand_block(stmt.body, inlinable, counter))]
        return [stmt]
    callee = inlinable[target_call.name]
    counter[0] += 1
    prefix = f"__inl{counter[0]}_"
    mapping = {param: prefix + param for param in callee.params}
    body = list(callee.body)
    tail_value: Optional[A.Expr] = None
    if body and isinstance(body[-1], A.Return):
        tail = body.pop()
        tail_value = tail.value
    out: List[A.Stmt] = [
        A.Assign(prefix + param, arg)
        for param, arg in zip(callee.params, target_call.args)
    ]
    # locals of the callee also need freshening
    local_names: Set[str] = set()
    _assigned_names(body, local_names)
    for name in local_names:
        mapping.setdefault(name, prefix + name)
    out.extend(_rename(body, mapping))
    if assign_to is not None:
        value = (A.Const(0) if tail_value is None
                 else _rename_expr(tail_value, mapping))
        out.append(A.Assign(assign_to, value))
    return out


def _expand_block(stmts: Sequence[A.Stmt], inlinable: Dict[str, A.Function],
                  counter: List[int]) -> Tuple[A.Stmt, ...]:
    return tuple(x for stmt in stmts
                 for x in _expand_calls(stmt, inlinable, counter))


def inline_leaf_calls(module: A.Module, limit: int) -> A.Module:
    """Inline ``x = leaf(...)`` / ``leaf(...);`` call sites (O3)."""
    inlinable = {
        function.name: function
        for function in module.functions
        if _inlinable(function, limit)
    }
    counter = [0]
    return A.Module(tuple(
        A.Function(function.name, function.params,
                   _expand_block(function.body, inlinable, counter))
        for function in module.functions))
