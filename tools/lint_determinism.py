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

Allow-listed exceptions (function-level, reviewed by hand):

* the wall-clock *deadline guard* in ``repro.cpu.interp`` — it reads
  ``time.monotonic`` purely to abort runaway simulations and never
  feeds the result into simulated state.

Run from the repository root::

    python tools/lint_determinism.py

Exit status 0 when clean, 1 with findings (one per line,
``path:line: message``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
#: packages that must stay deterministic
SCOPED_DIRS = (
    REPO_ROOT / "src" / "repro" / "cpu",
    REPO_ROOT / "src" / "repro" / "isa",
    REPO_ROOT / "src" / "repro" / "memory",
    REPO_ROOT / "src" / "repro" / "analysis",
    REPO_ROOT / "src" / "repro" / "lang",
)

#: (relative path, enclosing function) pairs allowed to read the clock
DEADLINE_GUARD_ALLOWLIST = {
    ("src/repro/cpu/interp.py", "_check_deadline_now"),
}

_BANNED_TIME_NAMES = {"time", "monotonic", "perf_counter",
                      "monotonic_ns", "perf_counter_ns", "time_ns"}


class _Visitor(ast.NodeVisitor):
    def __init__(self, relpath: str):
        self.relpath = relpath
        self.findings: List[Tuple[int, str]] = []
        self._fn_stack: List[str] = []

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _allowed_clock_site(self) -> bool:
        return any((self.relpath, name) in DEADLINE_GUARD_ALLOWLIST
                   for name in self._fn_stack)

    # -- call inspection ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module, attr = func.value.id, func.attr
            if module == "time":
                if not self._allowed_clock_site():
                    self.findings.append((
                        node.lineno,
                        f"wall-clock read time.{attr}() outside the "
                        f"allow-listed deadline guard"))
            elif module == "random" and attr != "Random":
                self.findings.append((
                    node.lineno,
                    f"module-level RNG call random.{attr}() — use a "
                    f"seeded random.Random instance"))
        elif isinstance(func, ast.Name):
            if (func.id in _BANNED_TIME_NAMES
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
        for stmt in ast.walk(node):
            if (isinstance(stmt, ast.ImportFrom)
                    and stmt.module == "time"):
                for alias in stmt.names:
                    self._from_time.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _imported_from_time(self, name: str) -> bool:
        return name in getattr(self, "_from_time", set())


def lint_file(path: Path) -> List[str]:
    try:
        relpath = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:                 # outside the repo (tests)
        relpath = path.as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"),
                     filename=str(path))
    visitor = _Visitor(relpath)
    visitor.visit(tree)
    return [f"{relpath}:{line}: {message}"
            for line, message in sorted(visitor.findings)]


def lint_paths(dirs: Optional[Iterable[Path]] = None) -> List[str]:
    findings: List[str] = []
    for directory in (SCOPED_DIRS if dirs is None else dirs):
        for path in sorted(directory.rglob("*.py")):
            findings.extend(lint_file(path))
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
