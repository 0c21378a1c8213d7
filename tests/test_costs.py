"""Shared cost tables: one source of truth, identical charges.

``repro.cpu.costs`` is the single home of the per-mnemonic issue-cost
extras and the memory-writer set.  The generic loop (``Core``) and the
decoded-window builder both consult it; these tests pin that the two
consumers can never drift — per mnemonic, the cached per-item cost a
window carries equals what the generic loop would charge.
"""

from repro.cpu import core as core_mod
from repro.cpu import decoded as decoded_mod
from repro.cpu.config import DEFAULT_GENERATION
from repro.cpu.core import Core
from repro.cpu.costs import EXTRA_ISSUE_COST, MEM_WRITERS, extra_cost
from repro.cpu.decoded import build_window
from repro.isa import Assembler
from repro.isa.instructions import SPECS_BY_OPCODE
from repro.memory import VirtualMemory

BASE = 0x0040_0000


def test_single_source_of_truth():
    # both consumers import the same table objects
    assert core_mod.EXTRA_ISSUE_COST is EXTRA_ISSUE_COST
    assert decoded_mod.EXTRA_ISSUE_COST is EXTRA_ISSUE_COST
    assert decoded_mod.MEM_WRITERS is MEM_WRITERS


def test_core_copy_matches_table():
    # the core snapshots the table at construction; the snapshot must
    # be equal (a stale fork would silently skew the fast/slow diff)
    assert Core(DEFAULT_GENERATION)._extra_cost == EXTRA_ISSUE_COST


def test_extra_cost_helper_matches_table():
    for mnemonic, cost in EXTRA_ISSUE_COST.items():
        assert extra_cost(mnemonic) == cost
    assert extra_cost("mov") == 0.0
    assert extra_cost("no-such-mnemonic") == 0.0


def test_every_listed_mnemonic_exists():
    known = {spec.mnemonic for spec in SPECS_BY_OPCODE.values()}
    for mnemonic in EXTRA_ISSUE_COST:
        assert mnemonic in known, mnemonic
    for mnemonic in MEM_WRITERS:
        assert mnemonic in known, mnemonic


def test_window_extras_match_generic_loop_charges():
    """Build a window over every sequential mnemonic with a listed
    extra cost and check the cached per-item extras equal the table
    the generic loop charges from."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rbx", BASE + 0x1000)      # scratch data pointer
    asm.emit("movi", "rcx", 1)
    asm.align(32)
    asm.label("window")
    asm.emit("imul", "rax", "rcx")
    asm.emit("mul", "rcx")
    asm.emit("div", "rcx")
    asm.emit("load", "rdx", "rbx", 0)
    asm.emit("store", "rbx", "rdx", 0)
    asm.emit("addi8", "rax", 1)
    asm.emit("hlt")
    program = asm.assemble()
    memory = VirtualMemory()
    program.load_into(memory, perms="rwx")
    memory.map_range(BASE + 0x1000, 0x100, perms="rw")

    window = build_window(memory, BASE + 32)
    assert window.count >= 5
    for instruction, extra in zip(window.instructions, window.extras):
        assert extra == EXTRA_ISSUE_COST.get(
            instruction.spec.mnemonic, 0.0)
    # the store marks the window for per-item generation re-checks
    assert window.has_store
    assert any(inst.spec.mnemonic in MEM_WRITERS
               for inst in window.instructions)
