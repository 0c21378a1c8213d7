#!/usr/bin/env python3
"""Determinism lint for the simulator core.

The paper's side channel *is* micro-architectural state, so the
simulator layers that produce it — ``repro.cpu``, ``repro.isa``,
``repro.memory`` — must be bit-reproducible: two runs with the same
seed have to retire the same instructions, allocate the same BTB
entries, and record the same LBR stream.  Wall-clock reads and ambient
(module-level, unseeded) randomness silently break that.

The static layers are held to the same bar: ``repro.analysis``
(including the symbolic certifier, whose reports are diffed against a
committed golden byte-for-byte) and ``repro.lang`` (the compiler and
the constant-time rewriter, whose output the certifier re-proves)
must produce identical artifacts on identical inputs.

This lint walks the AST of every module under those packages and
rejects:

* calls to ``time.time`` / ``time.monotonic`` / ``time.perf_counter``
  (any ``time.*`` call, and the bare names when imported via
  ``from time import ...``);
* calls through the *module-level* ``random`` generator
  (``random.random()``, ``random.choice(...)``, ...).  Constructing a
  seeded ``random.Random(seed)`` instance is fine — that is the
  sanctioned pattern (see ``repro.cpu.lbr``).

Across all of ``repro`` it also rejects calls that switch or tune the
cyclic collector (``gc.disable``/``enable``/``freeze``/``unfreeze``/
``set_threshold``, through ``gc.`` or imported by name): collector
state is process-wide, so a site that changes it must restore it on
every exit and argue its numbers in DESIGN.md (§17).

Allow-listed exceptions (function-level, reviewed by hand):

* the wall-clock *deadline guard* in ``repro.cpu.interp`` — it reads
  ``time.monotonic`` purely to abort runaway simulations and never
  feeds the result into simulated state;
* the collector pause around the fingerprint corpus build
  (``repro.fingerprint.corpus.generate_corpus``).

Run from the repository root::

    python tools/lint_determinism.py

Exit status 0 when clean, 1 with findings (one per line,
``path:line: message``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: packages that must stay deterministic
SCOPED_DIRS = (
    REPO_ROOT / "src" / "repro" / "cpu",
    REPO_ROOT / "src" / "repro" / "isa",
    REPO_ROOT / "src" / "repro" / "memory",
    REPO_ROOT / "src" / "repro" / "analysis",
    REPO_ROOT / "src" / "repro" / "lang",
)

#: the whole package, for the collector check
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: (relative path, enclosing function) pairs allowed to read the clock
DEADLINE_GUARD_ALLOWLIST = {
    ("src/repro/cpu/interp.py", "_check_deadline_now"),
}

#: (relative path, enclosing function) pairs allowed to switch the
#: cyclic collector
COLLECTOR_ALLOWLIST = {
    ("src/repro/fingerprint/corpus.py", "generate_corpus"),
}

_BANNED_TIME_NAMES = {"time", "monotonic", "perf_counter",
                      "monotonic_ns", "perf_counter_ns", "time_ns"}

_BANNED_GC_NAMES = {"disable", "enable", "freeze", "unfreeze",
                    "set_threshold"}


class _Visitor(ast.NodeVisitor):
    def __init__(self, relpath: str, clock_and_rng: bool = True):
        self.relpath = relpath
        self.clock_and_rng = clock_and_rng
        self.findings: List[Tuple[int, str]] = []
        self._fn_stack: List[str] = []

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _allowed_site(self, allowlist: Set[Tuple[str, str]]) -> bool:
        return any((self.relpath, name) in allowlist
                   for name in self._fn_stack)

    def _allowed_clock_site(self) -> bool:
        return self._allowed_site(DEADLINE_GUARD_ALLOWLIST)

    def _check_collector(self, node: ast.Call, name: str) -> None:
        if not self._allowed_site(COLLECTOR_ALLOWLIST):
            self.findings.append((
                node.lineno,
                f"collector switch gc.{name}() outside the "
                f"allow-listed bulk builds"))

    # -- call inspection ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module, attr = func.value.id, func.attr
            if module == "gc":
                if attr in _BANNED_GC_NAMES:
                    self._check_collector(node, attr)
            elif module == "time" and self.clock_and_rng:
                if not self._allowed_clock_site():
                    self.findings.append((
                        node.lineno,
                        f"wall-clock read time.{attr}() outside the "
                        f"allow-listed deadline guard"))
            elif (module == "random" and attr != "Random"
                    and self.clock_and_rng):
                self.findings.append((
                    node.lineno,
                    f"module-level RNG call random.{attr}() — use a "
                    f"seeded random.Random instance"))
        elif isinstance(func, ast.Name):
            if func.id in self._from_gc:
                self._check_collector(node, self._from_gc[func.id])
            elif (self.clock_and_rng
                    and func.id in _BANNED_TIME_NAMES
                    and self._imported_from_time(func.id)
                    and not self._allowed_clock_site()):
                self.findings.append((
                    node.lineno,
                    f"wall-clock read {func.id}() outside the "
                    f"allow-listed deadline guard"))
        self.generic_visit(node)

    # -- import bookkeeping ---------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._from_time: set = set()
        #: local name -> banned gc function it was imported as
        self._from_gc: dict = {}
        for stmt in ast.walk(node):
            if (isinstance(stmt, ast.ImportFrom)
                    and stmt.module == "time"):
                for alias in stmt.names:
                    self._from_time.add(alias.asname or alias.name)
            elif (isinstance(stmt, ast.ImportFrom)
                    and stmt.module == "gc"):
                for alias in stmt.names:
                    if alias.name in _BANNED_GC_NAMES:
                        self._from_gc[alias.asname or alias.name] = \
                            alias.name
        self.generic_visit(node)

    def _imported_from_time(self, name: str) -> bool:
        return name in getattr(self, "_from_time", set())


def lint_file(path: Path, *, clock_and_rng: bool = True) -> List[str]:
    """Findings for one file; ``clock_and_rng=False`` runs only the
    collector check (modules outside the deterministic packages)."""
    try:
        relpath = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:                 # outside the repo (tests)
        relpath = path.as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"),
                     filename=str(path))
    visitor = _Visitor(relpath, clock_and_rng)
    visitor.visit(tree)
    return [f"{relpath}:{line}: {message}"
            for line, message in sorted(visitor.findings)]


def lint_paths(dirs: Optional[Iterable[Path]] = None) -> List[str]:
    """Every check over ``dirs`` (default: the deterministic packages);
    by default, also the collector check over the rest of
    ``SOURCE_ROOT``."""
    findings: List[str] = []
    linted: Set[Path] = set()
    for directory in (SCOPED_DIRS if dirs is None else dirs):
        for path in sorted(directory.rglob("*.py")):
            linted.add(path)
            findings.extend(lint_file(path))
    if dirs is None:
        for path in sorted(SOURCE_ROOT.rglob("*.py")):
            if path not in linted:
                findings.extend(lint_file(path, clock_and_rng=False))
    return findings


def main() -> int:
    findings = lint_paths()
    for finding in findings:
        print(finding)
    if findings:
        print(f"determinism lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
