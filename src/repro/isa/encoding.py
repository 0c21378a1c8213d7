"""Binary encoding and decoding of instructions.

Encoders take an :class:`Instruction` and produce bytes; the decoder
reads a byte sequence and reconstructs the instruction plus its length.
The mapping is bijective for every legal instruction (see the
property-based round-trip tests).
"""

from __future__ import annotations

import struct
from typing import Tuple

from ..errors import DecodeError, EncodeError
from .instructions import (
    Format,
    Instruction,
    InstrSpec,
    SPECS_BY_OPCODE,
    spec_for,
)

_PAD = 0x00


def _check_reg(value: int) -> int:
    if not 0 <= value <= 15:
        raise EncodeError(f"register number out of range: {value}")
    return value


def _check_signed(value: int, bits: int) -> int:
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not low <= value <= high:
        raise EncodeError(
            f"immediate {value} does not fit in {bits} signed bits"
        )
    return value & ((1 << bits) - 1)


def _signed(raw: int, bits: int) -> int:
    if raw & (1 << (bits - 1)):
        return raw - (1 << bits)
    return raw


#: Operands each format takes.
_OPERAND_COUNT = {
    Format.NONE: 0,
    Format.PAD1: 0,
    Format.PAD2: 0,
    Format.REL8: 1,
    Format.REL32: 1,
    Format.REL32_PAD: 1,
    Format.REG: 1,
    Format.REG_PAD: 1,
    Format.REG_REG: 2,
    Format.REG_REG_PAD2: 2,
    Format.REG_IMM8: 2,
    Format.REG_IMM32: 2,
    Format.REG_IMM64: 2,
    Format.REG_REG_DISP8: 3,
    Format.REG_REG_DISP32: 3,
}


def encode(instruction: Instruction) -> bytes:
    """Encode ``instruction`` into bytes."""
    spec = instruction.spec
    ops = instruction.operands
    fmt = spec.fmt
    if len(ops) != _OPERAND_COUNT[fmt]:
        raise EncodeError(
            f"{spec.mnemonic} expects {_OPERAND_COUNT[fmt]} "
            f"operand(s), got {len(ops)}"
        )
    out = bytearray([spec.opcode])
    if fmt is Format.NONE:
        pass
    elif fmt is Format.PAD1:
        out.append(_PAD)
    elif fmt is Format.PAD2:
        out += bytes([_PAD, _PAD])
    elif fmt is Format.REL8:
        out.append(_check_signed(ops[0], 8))
    elif fmt is Format.REL32:
        out += struct.pack("<i", ops[0])
    elif fmt is Format.REL32_PAD:
        out += struct.pack("<i", ops[0])
        out.append(_PAD)
    elif fmt is Format.REG:
        out.append(_check_reg(ops[0]))
    elif fmt is Format.REG_PAD:
        out.append(_check_reg(ops[0]))
        out.append(_PAD)
    elif fmt is Format.REG_REG:
        out.append((_check_reg(ops[0]) << 4) | _check_reg(ops[1]))
        out.append(_PAD)
    elif fmt is Format.REG_REG_PAD2:
        out.append((_check_reg(ops[0]) << 4) | _check_reg(ops[1]))
        out += bytes([_PAD, _PAD])
    elif fmt is Format.REG_IMM8:
        out.append(_check_reg(ops[0]))
        out.append(_check_signed(ops[1], 8))
        out.append(_PAD)
    elif fmt is Format.REG_IMM32:
        out.append(_check_reg(ops[0]))
        out += struct.pack("<i", _signed(_check_signed(ops[1], 32), 32))
        out.append(_PAD)
    elif fmt is Format.REG_IMM64:
        out.append(_check_reg(ops[0]))
        out += struct.pack("<Q", ops[1] & ((1 << 64) - 1))
    elif fmt is Format.REG_REG_DISP8:
        out.append((_check_reg(ops[0]) << 4) | _check_reg(ops[1]))
        out.append(_check_signed(ops[2], 8))
        out.append(_PAD)
    elif fmt is Format.REG_REG_DISP32:
        out.append((_check_reg(ops[0]) << 4) | _check_reg(ops[1]))
        out += struct.pack("<i", ops[2])
        out.append(_PAD)
    else:  # pragma: no cover - exhaustiveness guard
        raise EncodeError(f"unhandled format {fmt}")
    assert len(out) == spec.length, (spec, len(out))
    return bytes(out)


def decode(blob: bytes, offset: int = 0) -> Tuple[Instruction, int]:
    """Decode one instruction from ``blob`` starting at ``offset``.

    Returns ``(instruction, length)``.  Raises :class:`DecodeError` if
    the opcode is unknown or the blob is truncated.
    """
    if offset >= len(blob):
        raise DecodeError(f"decode past end of buffer at offset {offset}")
    opcode = blob[offset]
    spec = SPECS_BY_OPCODE.get(opcode)
    if spec is None:
        raise DecodeError(f"unknown opcode {opcode:#04x} at offset {offset}")
    if offset + spec.length > len(blob):
        raise DecodeError(
            f"truncated {spec.mnemonic} at offset {offset}: need "
            f"{spec.length} bytes, have {len(blob) - offset}"
        )
    body = blob[offset + 1:offset + spec.length]
    fmt = spec.fmt
    if fmt in (Format.NONE, Format.PAD1, Format.PAD2):
        ops: Tuple[int, ...] = ()
    elif fmt is Format.REL8:
        ops = (_signed(body[0], 8),)
    elif fmt is Format.REL32 or fmt is Format.REL32_PAD:
        ops = (struct.unpack_from("<i", body, 0)[0],)
    elif fmt is Format.REG:
        ops = (body[0],)
    elif fmt is Format.REG_PAD:
        ops = (body[0],)
    elif fmt is Format.REG_REG or fmt is Format.REG_REG_PAD2:
        ops = (body[0] >> 4, body[0] & 0xF)
    elif fmt is Format.REG_IMM8:
        ops = (body[0], _signed(body[1], 8))
    elif fmt is Format.REG_IMM32:
        ops = (body[0], struct.unpack_from("<i", body, 1)[0])
    elif fmt is Format.REG_IMM64:
        ops = (body[0], struct.unpack_from("<Q", body, 1)[0])
    elif fmt is Format.REG_REG_DISP8:
        ops = (body[0] >> 4, body[0] & 0xF, _signed(body[1], 8))
    elif fmt is Format.REG_REG_DISP32:
        ops = (body[0] >> 4, body[0] & 0xF,
               struct.unpack_from("<i", body, 1)[0])
    else:  # pragma: no cover - exhaustiveness guard
        raise DecodeError(f"unhandled format {fmt}")
    _validate_registers(spec, ops)
    return Instruction(spec, ops), spec.length


#: Formats whose first operand byte is an *unpacked* register number —
#: any value 16..255 there is unencodable and must not decode.
_PLAIN_REG_FORMATS = frozenset({
    Format.REG, Format.REG_PAD,
    Format.REG_IMM8, Format.REG_IMM32, Format.REG_IMM64,
})


def _validate_registers(spec: InstrSpec, ops: Tuple[int, ...]) -> None:
    """Registers decoded from packed (nibble) bytes are always in
    range, but a plain register byte could be 16..255 — reject those so
    decode accepts exactly what encode can produce (the round-trip
    property the disassembler tests rely on)."""
    if spec.fmt in _PLAIN_REG_FORMATS and ops and ops[0] > 15:
        raise DecodeError(
            f"{spec.mnemonic}: register byte {ops[0]} out of range"
        )


def make(mnemonic: str, *operands: int) -> Instruction:
    """Build an :class:`Instruction` from a mnemonic and numeric operands.

    This validates the operand count eagerly by performing a trial
    encoding, so malformed instructions fail at construction time.
    """
    instruction = Instruction(spec_for(mnemonic), tuple(operands))
    encode(instruction)  # validates counts and ranges
    return instruction
