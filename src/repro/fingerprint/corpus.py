"""Synthetic function corpus for the fingerprint evaluation (§7.3).

The paper measures 175,168 functions pulled from open-source SGX
projects.  We synthesize a corpus instead (no network, and full
extraction of every function is out of a laptop's budget — see
DESIGN.md §4): a seeded generator emits random-but-terminating DSL
functions with realistic structure (arithmetic, bounded loops,
branches, the occasional helper call), compiles them at randomly
chosen optimization levels, and produces

* the *static* relative-PC set (what a reference database holds), and
* a *measured* dynamic trace (ground truth + the same fusion/noise
  measurement model applied to the real victims' corpus entries).

Corpus size defaults to a laptop-friendly value; the benchmarks read
``NV_CORPUS_SIZE`` to scale it up.

The build runs with the cyclic collector paused (DESIGN.md §17): it
allocates hundreds of thousands of short-lived container objects and
frees them by reference count, so collections would only walk them.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

from ..cpu.interp import run_function
from ..cpu.state import MachineState
from ..lang import CompileOptions, Compiler
from ..lang import ast as A
from ..memory.memory import VirtualMemory
from .measurement import measured_trace
from .similarity import PcSet

#: default corpus size (paper: 175,168)
DEFAULT_CORPUS_SIZE = int(os.environ.get("NV_CORPUS_SIZE", "2000"))

_VAR_NAMES = ("a", "b", "c", "x", "y", "z", "t", "u", "v", "w")
_BIN_OPS = ("+", "-", "*", "&", "|", "^")
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass
class CorpusFunction:
    """One corpus entry, fingerprint-ready."""

    name: str
    #: static instruction addresses relative to the function entry
    static_pcs: PcSet
    #: measured dynamic trace, relative to the entry
    measured: PcSet
    opt_level: int


class _FunctionSynthesizer:
    """Generates one random, guaranteed-terminating DSL function."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.vars: List[str] = []
        #: loop counters: readable but never assignment targets
        #: (random writes could make a loop non-terminating)
        self.protected: set = set()
        self._loop_counter = 0

    def synthesize(self) -> A.Function:
        params = list(_VAR_NAMES[:self.rng.randint(1, 3)])
        self.vars = list(params)
        body: List[A.Stmt] = []
        for _ in range(self.rng.randint(3, 9)):
            body.append(self._statement(depth=0))
        body.append(A.Return(self._expr(depth=0)))
        return A.Function(self.name, tuple(params), tuple(body))

    # ------------------------------------------------------------------
    def _fresh_var(self) -> str:
        for name in _VAR_NAMES:
            if name not in self.vars:
                self.vars.append(name)
                return name
        writable = [name for name in self.vars
                    if name not in self.protected]
        return self.rng.choice(writable) if writable else self.vars[0]

    def _expr(self, depth: int) -> A.Expr:
        roll = self.rng.random()
        if depth >= 2 or roll < 0.35:
            if self.vars and self.rng.random() < 0.7:
                return A.Var(self.rng.choice(self.vars))
            return A.Const(self.rng.randint(0, 255))
        if roll < 0.85:
            op = self.rng.choice(_BIN_OPS)
            return A.BinOp(op, self._expr(depth + 1),
                           self._expr(depth + 1))
        if roll < 0.93:
            shift = self.rng.randint(1, 7)
            op = self.rng.choice(("<<", ">>"))
            return A.BinOp(op, self._expr(depth + 1), A.Const(shift))
        return A.Cmp(self.rng.choice(_CMP_OPS),
                     self._expr(depth + 1), self._expr(depth + 1))

    def _statement(self, depth: int) -> A.Stmt:
        roll = self.rng.random()
        if depth >= 2 or roll < 0.55:
            writable = [name for name in self.vars
                        if name not in self.protected]
            target = (self._fresh_var()
                      if self.rng.random() < 0.4 or not writable
                      else self.rng.choice(writable))
            return A.Assign(target, self._expr(0))
        if roll < 0.8:
            cond = A.Cmp(self.rng.choice(_CMP_OPS),
                         self._expr(1), self._expr(1))
            then = tuple(self._statement(depth + 1)
                         for _ in range(self.rng.randint(1, 3)))
            orelse: Tuple[A.Stmt, ...] = ()
            if self.rng.random() < 0.6:
                orelse = tuple(self._statement(depth + 1)
                               for _ in range(self.rng.randint(1, 3)))
            return A.If(cond, then, orelse)
        # bounded counting loop (guaranteed termination)
        self._loop_counter += 1
        counter = f"i{self._loop_counter}"
        self.vars.append(counter)
        self.protected.add(counter)
        trips = self.rng.randint(2, 6)
        body = tuple(
            [self._statement(depth + 1)
             for _ in range(self.rng.randint(1, 3))]
            + [A.Assign(counter, A.BinOp("+", A.Var(counter),
                                         A.Const(1)))]
        )
        return A.If(A.Cmp("==", A.Const(0), A.Const(0)), (
            A.Assign(counter, A.Const(0)),
            A.While(A.Cmp("<", A.Var(counter), A.Const(trips)), body),
        ))


def generate_corpus(size: int = DEFAULT_CORPUS_SIZE, *,
                    seed: int = 2023,
                    batch: int = 200,
                    error_rate: float = 0.005,
                    drop_rate: float = 0.005,
                    max_instructions: int = 20_000
                    ) -> List[CorpusFunction]:
    """Generate, compile and trace ``size`` corpus functions.

    The cyclic collector is paused for the build and left as the
    caller had it, also when the build raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build_corpus(size, seed, batch, error_rate, drop_rate,
                             max_instructions)
    finally:
        if collecting:
            gc.enable()


def _build_corpus(size: int, seed: int, batch: int, error_rate: float,
                  drop_rate: float, max_instructions: int
                  ) -> List[CorpusFunction]:
    rng = random.Random(seed)
    out: List[CorpusFunction] = []
    serial = 0
    while len(out) < size:
        count = min(batch, size - len(out))
        functions = []
        for _ in range(count):
            serial += 1
            functions.append(
                _FunctionSynthesizer(rng, f"corpus_{serial}")
                .synthesize())
        opt_level = rng.choice((0, 2, 3))
        compiled = Compiler(CompileOptions(opt_level=opt_level)) \
            .compile(A.Module(tuple(functions)))
        memory = VirtualMemory()
        compiled.program.load_into(memory)
        for function in functions:
            info = compiled.info(function.name)
            state = MachineState(memory)
            state.setup_stack(0x7FFF_0000_0000)
            args = [rng.randint(1, 9)
                    for _ in function.params]
            result = run_function(
                state, info.entry, args=args,
                max_instructions=max_instructions)
            measured = measured_trace(
                result.trace, compiled.program.instructions,
                error_rate=error_rate, drop_rate=drop_rate,
                seed=rng.randrange(1 << 30))
            out.append(CorpusFunction(
                name=function.name,
                static_pcs=PcSet(
                    pc - info.entry
                    for pc in compiled.static_pcs(function.name)
                    if pc >= info.entry),
                measured=PcSet(pc - info.entry for pc in measured),
                opt_level=opt_level,
            ))
    return out
