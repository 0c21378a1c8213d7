"""Encoder/decoder: round trips, lengths, validation."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecodeError, EncodeError
from repro.isa import (ALL_MNEMONICS, SPECS_BY_NAME, SPECS_BY_OPCODE,
                       decode, encode, make, spec_for)
from repro.cpu.semantics import Outcome
from repro.isa.instructions import (_FORMAT_OPERAND_BYTES, CONTROL_KINDS,
                                    Format, InstrSpec, Instruction)

_regs = st.integers(min_value=0, max_value=15)
_imm8 = st.integers(min_value=-128, max_value=127)
_imm32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_imm64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _operand_strategy(fmt: Format):
    if fmt in (Format.NONE, Format.PAD1, Format.PAD2):
        return st.tuples()
    if fmt is Format.REL8:
        return st.tuples(_imm8)
    if fmt in (Format.REL32, Format.REL32_PAD):
        return st.tuples(_imm32)
    if fmt in (Format.REG, Format.REG_PAD):
        return st.tuples(_regs)
    if fmt in (Format.REG_REG, Format.REG_REG_PAD2):
        return st.tuples(_regs, _regs)
    if fmt is Format.REG_IMM8:
        return st.tuples(_regs, _imm8)
    if fmt is Format.REG_IMM32:
        return st.tuples(_regs, _imm32)
    if fmt is Format.REG_IMM64:
        return st.tuples(_regs, _imm64)
    if fmt is Format.REG_REG_DISP8:
        return st.tuples(_regs, _regs, _imm8)
    if fmt is Format.REG_REG_DISP32:
        return st.tuples(_regs, _regs, _imm32)
    raise AssertionError(fmt)


@st.composite
def instructions(draw):
    mnemonic = draw(st.sampled_from(ALL_MNEMONICS))
    spec = spec_for(mnemonic)
    operands = draw(_operand_strategy(spec.fmt))
    return Instruction(spec, tuple(operands))


class TestRoundTrip:
    @given(instructions())
    def test_encode_decode_identity(self, instruction):
        blob = encode(instruction)
        decoded, length = decode(blob)
        assert length == len(blob) == instruction.length
        assert decoded.mnemonic == instruction.mnemonic
        # imm64 values wrap; everything else must be exact
        if instruction.spec.fmt is Format.REG_IMM64:
            assert decoded.operands[0] == instruction.operands[0]
            assert decoded.operands[1] == \
                instruction.operands[1] & ((1 << 64) - 1)
        else:
            assert decoded.operands == instruction.operands

    @given(instructions())
    def test_length_matches_spec(self, instruction):
        assert len(encode(instruction)) == instruction.spec.length


class TestLengths:
    """Instruction lengths mirror x86-64 (the fingerprint entropy)."""

    @pytest.mark.parametrize("mnemonic,length", [
        ("nop", 1), ("ret", 1), ("hlt", 1), ("cmc", 1),
        ("jmp8", 2), ("je8", 2), ("push", 2), ("pop", 2),
        ("mov", 3), ("add", 3), ("cmp", 3), ("inc", 3), ("lfence", 3),
        ("load", 4), ("addi8", 4), ("shl", 4), ("imul", 4),
        ("jmp", 5), ("call", 5),
        ("je", 6),
        ("movi", 7), ("addi", 7), ("loadw", 7), ("lea", 7),
        ("movabs", 10),
    ])
    def test_x86_like_length(self, mnemonic, length):
        assert spec_for(mnemonic).length == length


class TestValidation:
    def test_unknown_mnemonic(self):
        with pytest.raises(EncodeError):
            spec_for("bogus")

    def test_register_out_of_range(self):
        with pytest.raises(EncodeError):
            make("push", 16)

    def test_imm8_overflow(self):
        with pytest.raises(EncodeError):
            make("jmp8", 200)

    def test_operand_count(self):
        with pytest.raises(EncodeError):
            make("mov", 1)
        with pytest.raises(EncodeError):
            make("nop", 1)

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode(b"\x00")

    def test_truncated(self):
        blob = encode(make("jmp", 1000))
        with pytest.raises(DecodeError):
            decode(blob[:3])

    def test_decode_past_end(self):
        with pytest.raises(DecodeError):
            decode(b"", 0)

    def test_bad_register_byte(self):
        # push with register byte 0xFF must not decode
        push_opcode = spec_for("push").opcode
        with pytest.raises(DecodeError):
            decode(bytes([push_opcode, 0xFF]))


class TestTables:
    def test_opcode_table_bijective(self):
        assert len(SPECS_BY_OPCODE) == len(SPECS_BY_NAME)

    def test_every_control_kind_present(self):
        from repro.isa import Kind
        kinds = {spec.kind for spec in SPECS_BY_NAME.values()}
        for kind in (Kind.DIRECT_JUMP, Kind.COND_JUMP, Kind.CALL,
                     Kind.RET, Kind.INDIRECT_JUMP, Kind.INDIRECT_CALL,
                     Kind.SYSCALL):
            assert kind in kinds

    def test_shortest_control_transfer_is_two_bytes(self):
        """The attack needs a 2-byte direct jump (§5.2)."""
        assert spec_for("jmp8").length == 2
        assert spec_for("jmp8").is_control

    def test_semantics_cover_every_mnemonic(self):
        from repro.cpu.semantics import _COMPILERS, covered_mnemonics
        from repro.isa import Kind
        assert set(ALL_MNEMONICS) <= covered_mnemonics()
        # straight-line code has no fallback: every sequential spec has a
        # thunk compiler, and no control spec has one
        assert set(_COMPILERS) == {
            name for name, spec in SPECS_BY_NAME.items()
            if spec.kind is Kind.SEQUENTIAL}


class TestPlainFacts:
    """The per-instruction facts are fields computed once, and they
    equal what the old derived properties computed."""

    def test_spec_facts_follow_format_and_kind(self):
        for spec in SPECS_BY_NAME.values():
            assert spec.length == 1 + _FORMAT_OPERAND_BYTES[spec.fmt]
            assert spec.is_control == (spec.kind in CONTROL_KINDS)
            assert type(spec.length) is int
            assert type(spec.is_control) is bool

    def test_spec_facts_stay_out_of_equality(self):
        names = [field.name for field in dataclasses.fields(InstrSpec)
                 if field.compare]
        assert names == ["mnemonic", "opcode", "fmt", "kind", "cond",
                         "fusible"]
        spec = spec_for("jmp8")
        twin = InstrSpec(spec.mnemonic, spec.opcode, spec.fmt, spec.kind,
                         spec.cond, spec.fusible)
        assert twin == spec and hash(twin) == hash(spec)

    @given(instructions())
    def test_instruction_facts_are_its_specs(self, instruction):
        spec = instruction.spec
        assert instruction.mnemonic == spec.mnemonic
        assert instruction.length == spec.length
        assert instruction.kind is spec.kind
        assert instruction.is_control is spec.is_control
        decoded, _ = decode(encode(instruction))
        assert (decoded.mnemonic, decoded.length, decoded.kind,
                decoded.is_control) == (spec.mnemonic, spec.length,
                                        spec.kind, spec.is_control)

    @given(instructions())
    def test_instruction_identity_is_spec_and_operands(self, instruction):
        same = Instruction(instruction.spec, tuple(instruction.operands))
        assert same == instruction and hash(same) == hash(instruction)
        assert hash(instruction) == hash((instruction.spec,
                                          instruction.operands))
        assert instruction != (instruction.spec, instruction.operands)
        other = Instruction(instruction.spec,
                            instruction.operands + (0,))
        assert other != instruction
        assert Instruction(spec_for("nop")) != Instruction(spec_for("cmc"))

    def test_outcome_fields_and_defaults(self):
        assert Outcome._fields == ("next_pc", "taken", "syscall", "halt")
        assert Outcome(7) == Outcome(next_pc=7, taken=None, syscall=False,
                                     halt=False)
        outcome = Outcome(7, True)
        assert (outcome.next_pc, outcome.taken, outcome.syscall,
                outcome.halt) == (7, True, False, False)


class TestPlainRegByteValidation:
    """Regression: decode must reject plain register bytes 16..255 in
    every format that carries one, so decode accepts exactly the image
    of encode (the round-trip property)."""

    @pytest.mark.parametrize("mnemonic", ["addi8", "movi", "movabs"])
    def test_reg_imm_bad_register_byte(self, mnemonic):
        spec = spec_for(mnemonic)
        blob = bytearray(encode(make(mnemonic, 3, 1)))
        blob[1] = 0x20                  # register byte out of range
        with pytest.raises(DecodeError):
            decode(bytes(blob))

    @given(instructions(), st.integers(min_value=16, max_value=255))
    def test_mutated_reg_byte_never_decodes_in_range(self, instruction,
                                                     bad_byte):
        from repro.isa.encoding import _PLAIN_REG_FORMATS
        if instruction.spec.fmt not in _PLAIN_REG_FORMATS:
            return
        blob = bytearray(encode(instruction))
        blob[1] = bad_byte
        with pytest.raises(DecodeError):
            decode(bytes(blob))


class TestProgramRoundTrip:
    """Whole-program property: encode a random instruction soup, decode
    it back with a linear sweep, re-encode — byte identical."""

    @given(st.lists(instructions(), min_size=1, max_size=40))
    def test_soup_round_trip(self, soup):
        blob = b"".join(encode(instruction) for instruction in soup)
        offset, recoded = 0, b""
        decoded = []
        while offset < len(blob):
            instruction, length = decode(blob, offset)
            decoded.append(instruction)
            recoded += encode(instruction)
            offset += length
        assert len(decoded) == len(soup)
        assert [d.mnemonic for d in decoded] == \
            [s.mnemonic for s in soup]
        assert recoded == blob
