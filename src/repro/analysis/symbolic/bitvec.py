"""Hash-consed Boolean DAGs and 64-bit bit-vector operations.

A *bit* is either a Python int ``0``/``1`` (concrete) or a
:class:`Node` (symbolic).  A *word* is either a Python int (fully
concrete, the fast path) or a 64-tuple of bits, LSB first.

Every arithmetic helper mirrors the flag math of the thunk compilers
in :mod:`repro.cpu.semantics` exactly (same ``_add``/``_sub``/``_logic``
formulas, bit-blasted), so a path predicate built here and a concrete
run agree bit-for-bit.  ``tests/test_symbolic_bitvec.py`` checks the
helpers on random vectors; ``tests/test_semantics_agreement.py`` checks
each instruction handler of the executor against the compiled thunk.

Construction-time folding (constants, idempotence, complements,
double negation) plus hash-consing keeps DAGs compact: values whose
high bits collapse to a shared borrow/sign node cost O(1) per level,
which is what makes re-certifying arithmetic-select rewrites
tractable.  :class:`BitCtx` owns the intern table and a gate budget;
exceeding it raises :class:`GateBudgetExceeded`, which the executor
reports as a sound ``UNDECIDED``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ...isa.registers import MASK64, SIGN64, to_signed

__all__ = ["BitCtx", "Node", "GateBudgetExceeded", "MASK64", "Bit", "Word"]


class GateBudgetExceeded(Exception):
    """The symbolic expression graph outgrew the configured budget."""


class Node:
    """One interned Boolean gate: ``var``/``not``/``and``/``or``/``xor``."""

    __slots__ = ("op", "a", "b", "uid")

    def __init__(self, op: str, a, b, uid: int):
        self.op = op
        self.a = a        # var: name (str); not: Node; and/or/xor: Node
        self.b = b        # and/or/xor: Node; else None
        self.uid = uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.op == "var":
            return f"v({self.a})"
        return f"{self.op}#{self.uid}"


Bit = Union[int, Node]
Word = Union[int, Tuple[Bit, ...]]

_WIDTH = 64


class BitCtx:
    """Owner of the intern table, the variable registry and the gate
    budget for one certification run."""

    def __init__(self, gate_budget: Optional[int] = None):
        self._interned: Dict[Tuple, Node] = {}
        self._vars: Dict[str, Node] = {}
        self._uid = 0
        self.gates = 0
        self.gate_budget = gate_budget

    # -- node construction --------------------------------------------
    def _make(self, key: Tuple, op: str, a, b) -> Node:
        node = self._interned.get(key)
        if node is None:
            self._uid += 1
            self.gates += 1
            if self.gate_budget is not None and self.gates > self.gate_budget:
                raise GateBudgetExceeded(
                    f"symbolic graph exceeded {self.gate_budget} gates")
            node = Node(op, a, b, self._uid)
            self._interned[key] = node
        return node

    def var(self, name: str) -> Node:
        node = self._vars.get(name)
        if node is None:
            node = self._make(("var", name), "var", name, None)
            self._vars[name] = node
        return node

    def var_names(self) -> List[str]:
        return sorted(self._vars)

    def not_(self, a: Bit) -> Bit:
        if isinstance(a, int):
            return a ^ 1
        if a.op == "not":
            return a.a
        return self._make(("not", a.uid), "not", a, None)

    @staticmethod
    def _complement(a: Node, b: Node) -> bool:
        return ((a.op == "not" and a.a is b)
                or (b.op == "not" and b.a is a))

    def and_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, int):
            return b if a else 0
        if isinstance(b, int):
            return a if b else 0
        if a is b:
            return a
        if self._complement(a, b):
            return 0
        if a.uid > b.uid:
            a, b = b, a
        return self._make(("and", a.uid, b.uid), "and", a, b)

    def or_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, int):
            return 1 if a else b
        if isinstance(b, int):
            return 1 if b else a
        if a is b:
            return a
        if self._complement(a, b):
            return 1
        if a.uid > b.uid:
            a, b = b, a
        return self._make(("or", a.uid, b.uid), "or", a, b)

    def xor_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, int):
            return b if not a else self.not_(b)
        if isinstance(b, int):
            return a if not b else self.not_(a)
        if a is b:
            return 0
        if self._complement(a, b):
            return 1
        if a.uid > b.uid:
            a, b = b, a
        return self._make(("xor", a.uid, b.uid), "xor", a, b)

    def mux(self, cond: Bit, if_true: Bit, if_false: Bit) -> Bit:
        """``cond ? if_true : if_false``."""
        if isinstance(cond, int):
            return if_true if cond else if_false
        if if_true is if_false:
            return if_true
        return self.or_(self.and_(cond, if_true),
                        self.and_(self.not_(cond), if_false))

    # -- word plumbing ------------------------------------------------
    @staticmethod
    def bits_of(word: Word) -> Tuple[Bit, ...]:
        if isinstance(word, int):
            return tuple((word >> i) & 1 for i in range(_WIDTH))
        return word

    @staticmethod
    def collapse(bits: Tuple[Bit, ...]) -> Word:
        value = 0
        for i, bit in enumerate(bits):
            if isinstance(bit, int):
                value |= bit << i
            else:
                return tuple(bits)
        return value

    def mux_word(self, cond: Bit, if_true: Word, if_false: Word) -> Word:
        if isinstance(cond, int):
            return if_true if cond else if_false
        ta, fa = self.bits_of(if_true), self.bits_of(if_false)
        return self.collapse(tuple(
            self.mux(cond, ta[i], fa[i]) for i in range(_WIDTH)))

    # -- flag-producing arithmetic (mirrors cpu.semantics) ------------
    def add(self, a: Word, b: Word, carry_in: Bit = 0
            ) -> Tuple[Word, Bit, Bit]:
        """``a + b + carry_in`` → (result, cf, of); exactly
        ``semantics._add``."""
        if (isinstance(a, int) and isinstance(b, int)
                and isinstance(carry_in, int)):
            total = a + b + carry_in
            result = total & MASK64
            cf = 1 if total > MASK64 else 0
            of = 1 if (~(a ^ b) & (a ^ result) & SIGN64) else 0
            return result, cf, of
        abits, bbits = self.bits_of(a), self.bits_of(b)
        out: List[Bit] = []
        carry: Bit = carry_in
        for i in range(_WIDTH):
            axb = self.xor_(abits[i], bbits[i])
            out.append(self.xor_(axb, carry))
            carry = self.or_(self.and_(abits[i], bbits[i]),
                             self.and_(carry, axb))
        a63, b63, r63 = abits[63], bbits[63], out[63]
        of = self.and_(self.not_(self.xor_(a63, b63)),
                       self.xor_(a63, r63))
        return self.collapse(tuple(out)), carry, of

    def sub(self, a: Word, b: Word, borrow_in: Bit = 0
            ) -> Tuple[Word, Bit, Bit]:
        """``a - b - borrow_in`` → (result, cf, of); exactly
        ``semantics._sub`` (cf is the borrow-out)."""
        if (isinstance(a, int) and isinstance(b, int)
                and isinstance(borrow_in, int)):
            total = a - b - borrow_in
            result = total & MASK64
            cf = 1 if total < 0 else 0
            of = 1 if ((a ^ b) & (a ^ result) & SIGN64) else 0
            return result, cf, of
        abits, bbits = self.bits_of(a), self.bits_of(b)
        out: List[Bit] = []
        borrow: Bit = borrow_in
        for i in range(_WIDTH):
            axb = self.xor_(abits[i], bbits[i])
            out.append(self.xor_(axb, borrow))
            borrow = self.or_(self.and_(self.not_(abits[i]), bbits[i]),
                              self.and_(borrow, self.not_(axb)))
        a63, b63, r63 = abits[63], bbits[63], out[63]
        of = self.and_(self.xor_(a63, b63), self.xor_(a63, r63))
        return self.collapse(tuple(out)), borrow, of

    def band(self, a: Word, b: Word) -> Word:
        if isinstance(a, int) and isinstance(b, int):
            return a & b
        abits, bbits = self.bits_of(a), self.bits_of(b)
        return self.collapse(tuple(
            self.and_(abits[i], bbits[i]) for i in range(_WIDTH)))

    def bor(self, a: Word, b: Word) -> Word:
        if isinstance(a, int) and isinstance(b, int):
            return a | b
        abits, bbits = self.bits_of(a), self.bits_of(b)
        return self.collapse(tuple(
            self.or_(abits[i], bbits[i]) for i in range(_WIDTH)))

    def bxor(self, a: Word, b: Word) -> Word:
        if isinstance(a, int) and isinstance(b, int):
            return a ^ b
        # xor-zeroing idiom: x ^ x == 0 even when x is symbolic
        if a is b:
            return 0
        abits, bbits = self.bits_of(a), self.bits_of(b)
        return self.collapse(tuple(
            self.xor_(abits[i], bbits[i]) for i in range(_WIDTH)))

    def bnot(self, a: Word) -> Word:
        if isinstance(a, int):
            return ~a & MASK64
        return self.collapse(tuple(self.not_(bit) for bit in a))

    def shl(self, a: Word, count: int) -> Tuple[Word, Bit]:
        """``a << count`` (count concrete, 1..63) → (result, cf)."""
        if isinstance(a, int):
            return ((a << count) & MASK64, (a >> (_WIDTH - count)) & 1)
        bits = self.bits_of(a)
        cf = bits[_WIDTH - count]
        out = (0,) * count + bits[:_WIDTH - count]
        return self.collapse(out), cf

    def shr(self, a: Word, count: int) -> Tuple[Word, Bit]:
        if isinstance(a, int):
            return (a >> count, (a >> (count - 1)) & 1)
        bits = self.bits_of(a)
        cf = bits[count - 1]
        out = bits[count:] + (0,) * count
        return self.collapse(out), cf

    def sar(self, a: Word, count: int) -> Tuple[Word, Bit]:
        if isinstance(a, int):
            return ((to_signed(a) >> count) & MASK64,
                    (a >> (count - 1)) & 1)
        bits = self.bits_of(a)
        cf = bits[count - 1]
        out = bits[count:] + (bits[63],) * count
        return self.collapse(out), cf

    # -- multiplication ------------------------------------------------
    def _mul_bits(self, abits: Tuple[Bit, ...], bbits: Tuple[Bit, ...],
                  width: int) -> List[Bit]:
        """Shift-add product of two ``width``-bit vectors, mod
        2**width.  Zero partial products are skipped, so a 0/1-valued
        operand (the rewriter's select predicates) costs one masked
        add."""
        acc: List[Bit] = [0] * width
        for j in range(width):
            bj = bbits[j]
            if isinstance(bj, int):
                if not bj:
                    continue
                partial = [0] * j + list(abits[:width - j])
            else:
                partial = [0] * j + [self.and_(abits[i], bj)
                                     for i in range(width - j)]
            carry: Bit = 0
            for i in range(j, width):
                ai, pi = acc[i], partial[i]
                if pi == 0 and carry == 0:
                    continue
                axb = self.xor_(ai, pi)
                acc[i] = self.xor_(axb, carry)
                carry = self.or_(self.and_(ai, pi), self.and_(carry, axb))
        return acc

    def imul(self, a: Word, b: Word) -> Tuple[Word, Bit]:
        """Signed multiply → (low 64 bits, overflow); exactly the
        ``imul`` thunk (cf == of == overflow)."""
        if isinstance(a, int) and isinstance(b, int):
            product = to_signed(a) * to_signed(b)
            result = product & MASK64
            return result, (1 if to_signed(result) != product else 0)
        abits, bbits = self.bits_of(a), self.bits_of(b)
        # commutes: make the operand with fewer symbolic bits the
        # multiplier, so a 0/1 select predicate costs one partial
        if (sum(1 for bit in abits if not isinstance(bit, int))
                < sum(1 for bit in bbits if not isinstance(bit, int))):
            abits, bbits = bbits, abits
        sext_a = abits + (abits[63],) * _WIDTH
        sext_b = bbits + (bbits[63],) * _WIDTH
        prod = self._mul_bits(sext_a, sext_b, 2 * _WIDTH)
        overflow: Bit = 0
        for i in range(_WIDTH, 2 * _WIDTH):
            overflow = self.or_(overflow, self.xor_(prod[i],
                                                    prod[_WIDTH - 1]))
        return self.collapse(tuple(prod[:_WIDTH])), overflow

    def mul(self, a: Word, b: Word) -> Tuple[Word, Word]:
        """Unsigned widening multiply → (low, high); the ``mul``
        thunk's rax/rdx pair."""
        if isinstance(a, int) and isinstance(b, int):
            product = a * b
            return product & MASK64, (product >> _WIDTH) & MASK64
        abits, bbits = self.bits_of(a), self.bits_of(b)
        if (sum(1 for bit in abits if not isinstance(bit, int))
                < sum(1 for bit in bbits if not isinstance(bit, int))):
            abits, bbits = bbits, abits
        zext_a = abits + (0,) * _WIDTH
        zext_b = bbits + (0,) * _WIDTH
        prod = self._mul_bits(zext_a, zext_b, 2 * _WIDTH)
        return (self.collapse(tuple(prod[:_WIDTH])),
                self.collapse(tuple(prod[_WIDTH:])))

    # -- predicates ----------------------------------------------------
    def is_zero(self, a: Word) -> Bit:
        """The ZF of ``a`` (1 iff every bit is 0)."""
        if isinstance(a, int):
            return 1 if a == 0 else 0
        pending: List[Bit] = [bit for bit in a if bit != 0]
        if not pending:
            return 1
        while len(pending) > 1:  # balanced OR tree keeps the DAG shallow
            nxt = [self.or_(pending[i], pending[i + 1])
                   for i in range(0, len(pending) - 1, 2)]
            if len(pending) % 2:
                nxt.append(pending[-1])
            pending = nxt
        return self.not_(pending[0])

    def sign(self, a: Word) -> Bit:
        if isinstance(a, int):
            return 1 if a & SIGN64 else 0
        return a[63]

    def eq_const(self, a: Word, value: int) -> Bit:
        return self.is_zero(self.bxor(a, value & MASK64))

    # -- model evaluation ---------------------------------------------
    def eval_bit(self, bit: Bit, model: Dict[str, bool],
                 cache: Optional[Dict[int, int]] = None) -> int:
        """Evaluate under a model; pass ``cache`` to share node values
        across calls for the same model (adjacent word bits share most
        of their carry DAG, so a shared cache is the difference
        between linear and quadratic evaluation)."""
        if isinstance(bit, int):
            return bit
        if cache is None:
            cache = {}
        stack: List[Tuple[Node, bool]] = [(bit, False)]
        while stack:
            node, ready = stack.pop()
            if node.uid in cache:
                continue
            if node.op == "var":
                cache[node.uid] = 1 if model.get(node.a, False) else 0
                continue
            deps = (node.a,) if node.op == "not" else (node.a, node.b)
            if not ready:
                stack.append((node, True))
                for dep in deps:
                    if isinstance(dep, Node) and dep.uid not in cache:
                        stack.append((dep, False))
                continue
            vals = [dep if isinstance(dep, int) else cache[dep.uid]
                    for dep in deps]
            if node.op == "not":
                cache[node.uid] = vals[0] ^ 1
            elif node.op == "and":
                cache[node.uid] = vals[0] & vals[1]
            elif node.op == "or":
                cache[node.uid] = vals[0] | vals[1]
            else:
                cache[node.uid] = vals[0] ^ vals[1]
        return cache[bit.uid]

    def eval_word(self, word: Word, model: Dict[str, bool]) -> int:
        if isinstance(word, int):
            return word
        cache: Dict[int, int] = {}
        value = 0
        for i, bit in enumerate(word):
            value |= self.eval_bit(bit, model, cache) << i
        return value
