"""Two-pass assembler: labels, directives, segments, relocation,
interning."""

import random

import pytest

from repro.core import PwBuilder, PwRange
from repro.errors import AssemblerError
from repro.fingerprint.corpus import _FunctionSynthesizer
from repro.isa import (MASK64, Assembler, abs_, decode, disassemble, encode,
                       listing, rel, relocate)
from repro.lang import CompileOptions, Compiler
from repro.lang import ast as A
from repro.memory import VirtualMemory


def test_forward_and_backward_labels():
    asm = Assembler(base=0x1000)
    asm.label("top")
    asm.emit("jmp", "bottom")         # forward
    asm.emit("nop")
    asm.label("bottom")
    asm.emit("jmp", "top")            # backward
    program = asm.assemble()
    instructions = sorted(program.instructions.items())
    jmp_fwd = instructions[0][1]
    assert 0x1000 + 5 + jmp_fwd.operands[0] == \
        program.address_of("bottom")
    jmp_back_addr, jmp_back = instructions[-1]
    assert jmp_back_addr + 5 + jmp_back.operands[0] == 0x1000


def test_ref_addend():
    asm = Assembler(base=0x1000)
    asm.emit("jmp", rel("target", 4))
    asm.nops(16)
    asm.label("target")
    program = asm.assemble()
    jmp = program.instructions[0x1000]
    assert 0x1000 + 5 + jmp.operands[0] == \
        program.address_of("target") + 4


def test_absolute_reference():
    asm = Assembler(base=0x2000)
    asm.emit("movabs", "rax", abs_("data"))
    asm.label("data")
    asm.emit("nop")
    program = asm.assemble()
    movabs = program.instructions[0x2000]
    assert movabs.operands[1] == program.address_of("data")


def test_org_creates_segments():
    asm = Assembler(base=0x1000)
    asm.emit("nop")
    asm.org(0x9000)
    asm.emit("ret")
    program = asm.assemble()
    assert len(program.segments) == 2
    assert program.segments[0][0] == 0x1000
    assert program.segments[1][0] == 0x9000


def test_align_pads_with_nops():
    asm = Assembler(base=0x1001)
    asm.emit("nop")
    asm.align(16)
    asm.label("aligned")
    asm.emit("ret")
    program = asm.assemble()
    assert program.address_of("aligned") % 16 == 0
    # the pad bytes decode as nops
    base, blob = program.segments[0]
    for _, inst, _ in disassemble(blob[:-1], base):
        assert inst.mnemonic == "nop"


def test_align_requires_power_of_two():
    with pytest.raises(AssemblerError):
        Assembler().align(12)


def test_duplicate_label_rejected():
    asm = Assembler()
    asm.label("x")
    with pytest.raises(AssemblerError):
        asm.label("x")
        asm.assemble()


def test_undefined_label_rejected():
    asm = Assembler()
    asm.emit("jmp", "nowhere")
    with pytest.raises(AssemblerError):
        asm.assemble()


def test_overlapping_segments_rejected():
    asm = Assembler(base=0x1000)
    asm.nops(16)
    asm.org(0x1008)
    asm.nops(4)
    with pytest.raises(AssemblerError):
        asm.assemble()


def test_register_names_in_emit():
    asm = Assembler()
    asm.emit("mov", "rax", "r12")
    program = asm.assemble()
    inst = next(iter(program.instructions.values()))
    assert inst.operands == (0, 12)


def test_load_into_memory():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rax", 0x55)
    asm.emit("hlt")
    program = asm.assemble()
    memory = VirtualMemory()
    program.load_into(memory)
    blob = memory.read_bytes(0x400000, 8, check=False)
    inst, _ = decode(blob)
    assert inst.mnemonic == "movi"
    entry = memory.page_table.entry_for_address(0x400000)
    assert entry.executable and not entry.writable


def test_instruction_addresses_sorted():
    asm = Assembler(base=0x100)
    asm.emit("nop")
    asm.emit("ret")
    program = asm.assemble()
    assert program.instruction_addresses() == [0x100, 0x101]


def test_relocate_shifts_everything():
    asm = Assembler(base=0x1000)
    asm.label("a")
    asm.emit("jmp8", "a")
    program = asm.assemble()
    moved = relocate(program, 0x500)
    assert moved.address_of("a") == 0x1500
    assert moved.segments[0][0] == 0x1500
    assert 0x1500 in moved.instructions


def test_listing_renders():
    asm = Assembler(base=0x100)
    asm.emit("movi", "rax", 3)
    asm.emit("ret")
    text = listing(asm.assemble().segments[0][1], 0x100)
    assert "movi rax" in text
    assert "ret" in text


def test_empty_program_has_no_entry():
    with pytest.raises(AssemblerError):
        Assembler().assemble().entry


# ----------------------------------------------------------------------
# interning: each distinct instruction is built and encoded once per
# assemble() call, and every address holding it shares the object
# ----------------------------------------------------------------------
def _corpus_batch(opt_level):
    rng = random.Random(2023 + opt_level)
    functions = tuple(_FunctionSynthesizer(rng, f"f{index}").synthesize()
                      for index in range(12))
    return Compiler(CompileOptions(opt_level=opt_level)) \
        .compile(A.Module(functions)).program


def _probe_snippet():
    ranges = [PwRange(0x401000, 0x401020), PwRange(0x401040, 0x401050),
              PwRange(0x401056, 0x401060), PwRange(0x401080, 0x4010A0)]
    return PwBuilder(33).build(ranges).program


def _aligned_pad():
    asm = Assembler(base=0x1001)
    asm.emit("movi", "rax", 7)
    asm.align(32)
    asm.emit("movi", "rax", 7)
    asm.emit("nop")
    asm.align(16)
    asm.emit("ret")
    return asm.assemble()


def _negative_movabs():
    asm = Assembler(base=0x2000)
    asm.emit("movabs", "rax", -1)
    asm.emit("movabs", "rcx", -(1 << 63))
    asm.emit("movabs", "rax", MASK64)      # the same bytes as -1
    asm.emit("movabs", "rcx", -(1 << 63))
    asm.emit("ret")
    return asm.assemble()


PROGRAMS = {
    "corpus-O0": lambda: _corpus_batch(0),
    "corpus-O2": lambda: _corpus_batch(2),
    "corpus-O3": lambda: _corpus_batch(3),
    "probe-snippet": _probe_snippet,
    "align-pad": _aligned_pad,
    "movabs-negative": _negative_movabs,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_interned_program_matches_its_bytes(name):
    program = PROGRAMS[name]()
    assert program.instructions
    for base, blob in program.segments:
        address, pieces = base, []
        while address < base + len(blob):
            instruction = program.instructions[address]
            assert decode(blob, address - base) == \
                (instruction, instruction.length)
            pieces.append(encode(instruction))
            address += instruction.length
        assert b"".join(pieces) == blob
    assert sum(len(blob) for _, blob in program.segments) == sum(
        inst.length for inst in program.instructions.values())


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_equal_instructions_are_one_object(name):
    instructions = list(PROGRAMS[name]().instructions.values())
    first = {}
    for instruction in instructions:
        assert first.setdefault(instruction, instruction) is instruction
    assert len(first) < len(instructions)


def test_movabs_keeps_the_decoded_unsigned_immediate():
    program = _negative_movabs()
    assert program.instructions[0x2000].operands == (0, MASK64)
    assert program.instructions[0x200A].operands == (1, 1 << 63)
    assert program.instructions[0x2014] is program.instructions[0x2000]


@pytest.mark.parametrize("emit_bad", [
    lambda asm: asm.emit("addi8", "rax", 300),
    lambda asm: asm.emit("movabs", 16, -1),
    lambda asm: asm.emit("movabs", "rax", -1, 2),
    lambda asm: asm.emit("jmp8", "far"),
], ids=["imm8", "movabs-register", "movabs-operand-count", "rel8-label"])
def test_unencodable_operand_names_its_first_address(emit_bad):
    asm = Assembler(base=0x1000)
    asm.emit("addi8", "rax", 3)
    asm.emit("nop")
    emit_bad(asm)                      # at 0x1005
    asm.emit("nop")
    emit_bad(asm)
    asm.nops(300)
    asm.label("far")
    asm.emit("ret")
    with pytest.raises(AssemblerError, match=r"^at 0x1005 "):
        asm.assemble()
