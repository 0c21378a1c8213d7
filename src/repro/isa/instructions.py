"""Instruction set definition.

The ISA is a clean-slate 64-bit design whose *instruction lengths mirror
x86-64*.  That matters for this reproduction: NightVision's
fingerprinting use case gets its entropy from variable-length encoding
(§6.4 of the paper), and the BTB experiments depend on 1-byte ``nop``,
1-byte ``ret`` and a 2-byte short ``jmp`` (the shortest possible
prediction-window terminator).

Encoding scheme
---------------
Every instruction is ``[opcode byte][operand bytes ...]``.  The opcode
byte alone determines the format and therefore the total length, which
makes decoding trivial and unambiguous.  Pad bytes (always ``0x00``)
bring each format's length in line with its typical x86-64 encoding
(REX prefixes, ModRM bytes, ...).

Condition codes are packed into dedicated opcode ranges, exactly like
x86's ``0x70+cc`` short-Jcc block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..errors import EncodeError


class Format(enum.Enum):
    """Operand-byte layout following the opcode byte."""

    NONE = "none"                  # no operand bytes
    PAD1 = "pad1"                  # 1 pad byte
    PAD2 = "pad2"                  # 2 pad bytes
    REL8 = "rel8"                  # 1-byte signed PC-relative displacement
    REL32 = "rel32"                # 4-byte signed PC-relative displacement
    REL32_PAD = "rel32_pad"        # rel32 + 1 pad (6-byte near Jcc)
    REG = "reg"                    # 1 register byte
    REG_PAD = "reg_pad"            # register byte + 1 pad
    REG_REG = "reg_reg"            # packed (dst<<4)|src byte + 1 pad
    REG_REG_PAD2 = "reg_reg_pad2"  # packed regs byte + 2 pads
    REG_IMM8 = "reg_imm8"          # reg byte + imm8 + 1 pad
    REG_IMM32 = "reg_imm32"        # reg byte + imm32 + 1 pad
    REG_IMM64 = "reg_imm64"        # reg byte + imm64
    REG_REG_DISP8 = "reg_reg_disp8"    # packed regs + disp8 + 1 pad
    REG_REG_DISP32 = "reg_reg_disp32"  # packed regs + disp32 + 1 pad


#: Operand bytes contributed by each format (length = 1 + this).
_FORMAT_OPERAND_BYTES: Dict[Format, int] = {
    Format.NONE: 0,
    Format.PAD1: 1,
    Format.PAD2: 2,
    Format.REL8: 1,
    Format.REL32: 4,
    Format.REL32_PAD: 5,
    Format.REG: 1,
    Format.REG_PAD: 2,
    Format.REG_REG: 2,
    Format.REG_REG_PAD2: 3,
    Format.REG_IMM8: 3,
    Format.REG_IMM32: 6,
    Format.REG_IMM64: 9,
    Format.REG_REG_DISP8: 3,
    Format.REG_REG_DISP32: 6,
}


class Cond(enum.IntEnum):
    """Condition codes for ``jcc``/``cmovcc``/``setcc``.

    ``E/NE`` test ZF; ``L/GE/LE/G`` are signed comparisons; ``B/AE/BE/A``
    are unsigned; ``S/NS`` test the sign flag; ``O/NO`` signed overflow.
    """

    E = 0      # equal / zero
    NE = 1
    L = 2      # signed <
    GE = 3
    LE = 4
    G = 5
    B = 6      # unsigned <
    AE = 7
    BE = 8
    A = 9
    S = 10
    NS = 11
    O = 12     # noqa: E741 - matches x86 mnemonic
    NO = 13


COND_NAMES: Dict[Cond, str] = {cond: cond.name.lower() for cond in Cond}
COND_BY_NAME: Dict[str, Cond] = {
    name: cond for cond, name in COND_NAMES.items()
}
# Common aliases.
COND_BY_NAME.update({"z": Cond.E, "nz": Cond.NE, "c": Cond.B, "nc": Cond.AE})


def evaluate_cond(cond: Cond, flags) -> bool:
    """Evaluate condition ``cond`` against a :class:`Flags` object."""
    if cond == Cond.E:
        return flags.zf
    if cond == Cond.NE:
        return not flags.zf
    if cond == Cond.L:
        return flags.sf != flags.of
    if cond == Cond.GE:
        return flags.sf == flags.of
    if cond == Cond.LE:
        return flags.zf or flags.sf != flags.of
    if cond == Cond.G:
        return not flags.zf and flags.sf == flags.of
    if cond == Cond.B:
        return flags.cf
    if cond == Cond.AE:
        return not flags.cf
    if cond == Cond.BE:
        return flags.cf or flags.zf
    if cond == Cond.A:
        return not flags.cf and not flags.zf
    if cond == Cond.S:
        return flags.sf
    if cond == Cond.NS:
        return not flags.sf
    if cond == Cond.O:
        return flags.of
    if cond == Cond.NO:
        return not flags.of
    raise EncodeError(f"unknown condition code {cond!r}")


class Kind(enum.Enum):
    """Control-flow classification used by the BTB and the front end."""

    SEQUENTIAL = "sequential"      # plain ALU / memory / nop
    DIRECT_JUMP = "direct_jump"    # unconditional, PC-relative
    COND_JUMP = "cond_jump"        # conditional, PC-relative
    INDIRECT_JUMP = "indirect_jump"
    CALL = "call"                  # direct call
    INDIRECT_CALL = "indirect_call"
    RET = "ret"
    SYSCALL = "syscall"
    HALT = "halt"


#: Kinds that transfer control (can terminate a prediction window).
CONTROL_KINDS = frozenset({
    Kind.DIRECT_JUMP, Kind.COND_JUMP, Kind.INDIRECT_JUMP,
    Kind.CALL, Kind.INDIRECT_CALL, Kind.RET,
})

#: Kinds whose BTB entries IBRS/IBPB invalidate (indirect predictions).
INDIRECT_KINDS = frozenset({Kind.INDIRECT_JUMP, Kind.INDIRECT_CALL, Kind.RET})


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one opcode.

    ``length`` and ``is_control`` are derived once, at construction:
    every simulated instruction reads them, so they are plain fields
    rather than an enum-keyed lookup per read (DESIGN §19).  They take
    no part in equality or hashing."""

    mnemonic: str
    opcode: int
    fmt: Format
    kind: Kind = Kind.SEQUENTIAL
    cond: Optional[Cond] = None
    #: True for ALU ops that can macro-fuse with a following jcc.
    fusible: bool = False
    #: total encoded length in bytes
    length: int = field(init=False, compare=False, repr=False)
    #: does this opcode transfer control (can it end a prediction window)?
    is_control: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "length",
                           1 + _FORMAT_OPERAND_BYTES[self.fmt])
        object.__setattr__(self, "is_control", self.kind in CONTROL_KINDS)


def _build_table() -> Tuple[Dict[int, InstrSpec], Dict[str, InstrSpec]]:
    by_opcode: Dict[int, InstrSpec] = {}
    by_name: Dict[str, InstrSpec] = {}

    def add(spec: InstrSpec) -> None:
        if spec.opcode in by_opcode:
            raise EncodeError(f"duplicate opcode {spec.opcode:#x}")
        if spec.mnemonic in by_name:
            raise EncodeError(f"duplicate mnemonic {spec.mnemonic}")
        by_opcode[spec.opcode] = spec
        by_name[spec.mnemonic] = spec

    # --- 1-byte instructions (x86: nop/ret/hlt/cmc are all 1 byte) ----
    add(InstrSpec("nop", 0x90, Format.NONE))
    add(InstrSpec("ret", 0xC3, Format.NONE, kind=Kind.RET))
    add(InstrSpec("hlt", 0xF4, Format.NONE, kind=Kind.HALT))
    add(InstrSpec("cmc", 0xF5, Format.NONE))

    # --- control transfers -------------------------------------------
    add(InstrSpec("jmp8", 0xEB, Format.REL8, kind=Kind.DIRECT_JUMP))
    add(InstrSpec("jmp", 0xE9, Format.REL32, kind=Kind.DIRECT_JUMP))
    add(InstrSpec("call", 0xE8, Format.REL32, kind=Kind.CALL))
    # jcc8: opcodes 0x70..0x7D  (2 bytes, like x86 0x70+cc)
    for cond in Cond:
        add(InstrSpec(f"j{COND_NAMES[cond]}8", 0x70 + cond,
                      Format.REL8, kind=Kind.COND_JUMP, cond=cond))
    # jcc near: opcodes 0x40..0x4D (6 bytes, like x86 0F 80+cc)
    for cond in Cond:
        add(InstrSpec(f"j{COND_NAMES[cond]}", 0x40 + cond,
                      Format.REL32_PAD, kind=Kind.COND_JUMP, cond=cond))
    add(InstrSpec("jmpr", 0xFE, Format.REG_PAD, kind=Kind.INDIRECT_JUMP))
    add(InstrSpec("callr", 0xFD, Format.REG_PAD, kind=Kind.INDIRECT_CALL))
    add(InstrSpec("syscall", 0x0F, Format.PAD1, kind=Kind.SYSCALL))

    # --- stack --------------------------------------------------------
    add(InstrSpec("push", 0x50, Format.REG))      # 2 bytes
    add(InstrSpec("pop", 0x58, Format.REG))       # 2 bytes

    # --- moves --------------------------------------------------------
    add(InstrSpec("mov", 0x89, Format.REG_REG))            # 3 bytes
    add(InstrSpec("movi", 0xC7, Format.REG_IMM32))         # 7 bytes
    add(InstrSpec("movabs", 0xB8, Format.REG_IMM64))       # 10 bytes
    add(InstrSpec("xchg", 0x87, Format.REG_REG))           # 3 bytes
    add(InstrSpec("load", 0x8B, Format.REG_REG_DISP8))     # 4 bytes
    add(InstrSpec("loadw", 0x8C, Format.REG_REG_DISP32))   # 7 bytes
    add(InstrSpec("store", 0x88, Format.REG_REG_DISP8))    # 4 bytes
    add(InstrSpec("storew", 0x8D, Format.REG_REG_DISP32))  # 7 bytes
    add(InstrSpec("lea", 0x8E, Format.REG_REG_DISP32))     # 7 bytes

    # --- ALU reg,reg (3 bytes like REX + op + modrm) ------------------
    alu_rr = [
        ("add", 0x01), ("sub", 0x29), ("and", 0x21), ("or", 0x09),
        ("xor", 0x31), ("adc", 0x11), ("sbb", 0x19),
    ]
    for name, opcode in alu_rr:
        add(InstrSpec(name, opcode, Format.REG_REG, fusible=True))
    add(InstrSpec("cmp", 0x39, Format.REG_REG, fusible=True))
    add(InstrSpec("test", 0x85, Format.REG_REG, fusible=True))
    add(InstrSpec("imul", 0xAF, Format.REG_REG_PAD2))      # 4 bytes

    # --- ALU reg,imm8 (4 bytes like REX 83 /n ib) ---------------------
    alu_ri8 = [
        ("addi8", 0x83), ("subi8", 0x84), ("cmpi8", 0x86),
        ("andi8", 0x92), ("ori8", 0x93), ("xori8", 0x94),
        ("shl", 0xC0), ("shr", 0xC1), ("sar", 0xC2),
    ]
    for name, opcode in alu_ri8:
        fusible = name in ("addi8", "subi8", "cmpi8", "andi8")
        add(InstrSpec(name, opcode, Format.REG_IMM8, fusible=fusible))

    # --- ALU reg,imm32 (7 bytes like REX 81 /n id) --------------------
    alu_ri32 = [
        ("addi", 0x81), ("subi", 0x82), ("cmpi", 0x95),
        ("andi", 0x96), ("ori", 0x97), ("xori", 0x98), ("testi", 0xA9),
    ]
    for name, opcode in alu_ri32:
        fusible = name in ("addi", "subi", "cmpi", "andi", "testi")
        add(InstrSpec(name, opcode, Format.REG_IMM32, fusible=fusible))

    # --- one-register ALU (3 bytes like REX FF /n) --------------------
    for name, opcode in [("inc", 0xF6), ("dec", 0xF7), ("neg", 0xF8),
                         ("not", 0xF9), ("mul", 0xFA), ("div", 0xFB)]:
        fusible = name in ("inc", "dec")
        add(InstrSpec(name, opcode, Format.REG_PAD, fusible=fusible))

    # --- conditional moves / sets (4 bytes like x86) ------------------
    for cond in Cond:
        add(InstrSpec(f"cmov{COND_NAMES[cond]}", 0xD0 + cond,
                      Format.REG_REG_PAD2, cond=cond))
    for cond in Cond:
        add(InstrSpec(f"set{COND_NAMES[cond]}", 0x60 + cond,
                      Format.REG_PAD, cond=cond))

    # --- fences -------------------------------------------------------
    add(InstrSpec("lfence", 0xAE, Format.PAD2))            # 3 bytes

    return by_opcode, by_name


SPECS_BY_OPCODE, SPECS_BY_NAME = _build_table()

#: All mnemonics, for fuzzing / property tests.
ALL_MNEMONICS: Tuple[str, ...] = tuple(sorted(SPECS_BY_NAME))


def spec_for(mnemonic: str) -> InstrSpec:
    """Look up the :class:`InstrSpec` for ``mnemonic``.

    Raises :class:`EncodeError` for unknown mnemonics.
    """
    try:
        return SPECS_BY_NAME[mnemonic]
    except KeyError:
        raise EncodeError(f"unknown mnemonic {mnemonic!r}") from None


class Instruction:
    """One decoded (or to-be-encoded) instruction.

    ``operands`` are already numeric: register numbers, immediates, or
    PC-relative displacements.  Label resolution happens in the
    assembler, before an :class:`Instruction` is constructed.

    ``mnemonic``, ``length``, ``kind`` and ``is_control`` are copied
    from the spec at construction, so the per-instruction paths read
    them as plain attributes.  ``thunk`` caches the instruction's
    compiled straight-line semantics
    (:func:`repro.cpu.semantics.compile_straightline`): ``None`` until
    first compiled.  Equality, hashing and ``repr`` go by
    ``(spec, operands)`` alone.
    """

    __slots__ = ("spec", "operands", "mnemonic", "length", "kind",
                 "is_control", "thunk")

    def __init__(self, spec: InstrSpec, operands: Tuple[int, ...] = ()):
        self.spec = spec
        self.operands = operands
        self.mnemonic = spec.mnemonic
        self.length = spec.length
        self.kind = spec.kind
        self.is_control = spec.is_control
        self.thunk: Optional[Callable] = None

    def __eq__(self, other):
        if other.__class__ is not Instruction:
            return NotImplemented
        return ((self.spec, self.operands)
                == (other.spec, other.operands))

    def __hash__(self) -> int:
        return hash((self.spec, self.operands))

    def __repr__(self) -> str:
        return f"Instruction({self.mnemonic}, {self.operands})"
