"""Two-pass assembler.

Programs are built through a fluent API::

    asm = Assembler(base=0x40_0000)
    asm.label("F1")
    asm.emit("jmp8", "L1")          # string operand = PC-relative label
    asm.label("L1")
    asm.emit("ret")
    image = asm.assemble()

Because every opcode has a fixed length, sizing is exact on the first
pass and label resolution happens on the second.  ``org`` starts a new
segment at an arbitrary address, which the experiments use to place
colliding code gigabytes apart without materializing padding.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import AssemblerError, EncodeError
from .encoding import encode
from .instructions import Format, Instruction, InstrSpec, spec_for
from .registers import register_number


@dataclass(frozen=True)
class Ref:
    """Symbolic reference to ``label + addend``."""

    label: str
    addend: int = 0
    #: "rel" resolves to a PC-relative displacement, "abs" to the
    #: absolute address (for movabs/movi immediates).
    mode: str = "rel"

    def __add__(self, addend: int) -> "Ref":
        return Ref(self.label, self.addend + addend, self.mode)


def rel(label: str, addend: int = 0) -> Ref:
    """PC-relative reference (default for string operands)."""
    return Ref(label, addend, "rel")


def abs_(label: str, addend: int = 0) -> Ref:
    """Absolute-address reference (for ``movabs``/``movi`` immediates)."""
    return Ref(label, addend, "abs")


Operand = Union[int, str, Ref]

_MASK64 = (1 << 64) - 1


class SegmentImage:
    """One code segment of an :class:`AssembledProgram`, shared by every
    address space the program is loaded into.

    A memory the segment is attached to (``VirtualMemory.attach_image``)
    answers an icache miss inside ``[base, end)`` with the loader's own
    decode instead of reading and decoding bytes; a byte-changing write
    over the segment detaches it from that memory only.  ``windows``
    holds decoded windows (``repro.cpu.decoded``) for later memories to
    adopt; it stays ``None`` until a second address space loads the
    segment, so single-space images (probe snippets, corpus modules)
    keep none.
    """

    __slots__ = ("base", "end", "blob", "_instructions", "windows",
                 "_first_space")

    def __init__(self, base: int, blob: bytes,
                 instructions: Dict[int, Instruction]):
        self.base = base
        self.end = base + len(blob)
        self.blob = blob
        self._instructions = instructions
        self.windows: Optional[Dict[int, object]] = None
        self._first_space: Optional[weakref.ref] = None

    def decode(self, pc: int) -> Optional[Tuple[Instruction, int]]:
        """The decode at ``pc``, or ``None`` when no instruction of the
        program starts there or it would read past the segment's end."""
        instruction = self._instructions.get(pc)
        if (instruction is None or pc < self.base
                or pc + instruction.length > self.end):
            return None
        return instruction, instruction.length

    def note_space(self, memory) -> None:
        """Record that ``memory`` loaded this segment; the second
        address space to do so turns window sharing on."""
        if self.windows is not None:
            return
        if self._first_space is None:
            self._first_space = weakref.ref(memory)
        elif self._first_space() is not memory:
            self.windows = {}
            self._first_space = None


@dataclass
class _Item:
    """One assembly-stream item: instruction, label or directive."""

    kind: str                      # "inst" | "label" | "org" | "align" | "bytes"
    #: the instruction's spec, looked up once by ``emit``
    spec: Optional[InstrSpec] = None
    operands: Tuple[Operand, ...] = ()
    name: str = ""
    value: int = 0
    data: bytes = b""
    #: filled by pass 1 (an instruction's size by ``emit``)
    address: int = -1
    size: int = 0


@dataclass
class AssembledProgram:
    """The output of :meth:`Assembler.assemble`.

    ``segments`` is a list of ``(base_address, bytes)`` chunks;
    ``symbols`` maps label names to addresses; ``instructions`` maps
    each instruction's address to its decoded form (ground truth for
    the experiments and the fingerprint corpus).
    """

    segments: List[Tuple[int, bytes]] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    instructions: Dict[int, Instruction] = field(default_factory=dict)
    _images: List[SegmentImage] = field(
        default_factory=list, init=False, repr=False, compare=False)

    @property
    def entry(self) -> int:
        """Address of the first byte of the first segment."""
        if not self.segments:
            raise AssemblerError("empty program has no entry point")
        return self.segments[0][0]

    def address_of(self, label: str) -> int:
        try:
            return self.symbols[label]
        except KeyError:
            raise AssemblerError(f"unknown symbol {label!r}") from None

    def instruction_addresses(self) -> List[int]:
        """Sorted list of every static instruction address."""
        return sorted(self.instructions)

    def segment_images(self) -> List[SegmentImage]:
        """One :class:`SegmentImage` per segment, in segment order."""
        images = self._images
        if (len(images) != len(self.segments)
                or any(image.base != base or image.blob is not blob
                       for image, (base, blob)
                       in zip(images, self.segments))):
            images[:] = [SegmentImage(base, blob, self.instructions)
                         for base, blob in self.segments]
        return images

    def load_into(self, memory, perms: str = "rx") -> None:
        """Map and write every segment into a ``VirtualMemory``, then
        attach each segment's shared image to it."""
        for image in self.segment_images():
            memory.map_range(image.base, len(image.blob), perms)
            memory.write_bytes(image.base, image.blob, check=False)
            memory.attach_image(image)


class Assembler:
    """Two-pass assembler over the :mod:`repro.isa` instruction set."""

    def __init__(self, base: int = 0x40_0000):
        self._base = base
        self._items: List[_Item] = []

    # ------------------------------------------------------------------
    # stream construction
    # ------------------------------------------------------------------
    def label(self, name: str) -> "Assembler":
        self._items.append(_Item("label", name=name))
        return self

    def emit(self, mnemonic: str, *operands: Operand) -> int:
        """Append one instruction; returns its size in bytes."""
        spec = spec_for(mnemonic)  # fail fast on unknown mnemonics
        converted: List[Operand] = []
        for operand in operands:
            if isinstance(operand, str):
                if operand in _REGISTER_STRINGS:
                    converted.append(register_number(operand))
                else:
                    converted.append(Ref(operand))
            else:
                converted.append(operand)
        self._items.append(
            _Item("inst", spec, tuple(converted), size=spec.length))
        return spec.length

    def org(self, address: int) -> "Assembler":
        """Start a new segment at ``address``."""
        self._items.append(_Item("org", value=address))
        return self

    def align(self, boundary: int) -> "Assembler":
        """Pad with 1-byte ``nop`` until the next ``boundary`` multiple."""
        if boundary <= 0 or boundary & (boundary - 1):
            raise AssemblerError(f"alignment must be a power of 2: {boundary}")
        self._items.append(_Item("align", value=boundary))
        return self

    def nops(self, count: int) -> "Assembler":
        """Emit ``count`` individual 1-byte nops."""
        for _ in range(count):
            self.emit("nop")
        return self

    def bytes(self, data: bytes) -> "Assembler":
        """Emit raw bytes (data islands; never decoded as code)."""
        self._items.append(_Item("bytes", data=bytes(data)))
        return self

    def comment(self, _text: str) -> "Assembler":
        """No-op, for readable builder code."""
        return self

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self) -> AssembledProgram:
        symbols = self._layout()
        return self._emit_segments(symbols)

    def _layout(self) -> Dict[str, int]:
        """Pass 1: assign addresses and record symbols."""
        symbols: Dict[str, int] = {}
        cursor = self._base
        for item in self._items:
            if item.kind == "inst":
                item.address = cursor
                cursor += item.size
            elif item.kind == "org":
                if item.value < 0:
                    raise AssemblerError("org address must be non-negative")
                cursor = item.value
                item.address = cursor
            elif item.kind == "label":
                if item.name in symbols:
                    raise AssemblerError(f"duplicate label {item.name!r}")
                symbols[item.name] = cursor
                item.address = cursor
            elif item.kind == "align":
                item.address = cursor
                remainder = cursor % item.value
                item.size = (item.value - remainder) % item.value
                cursor += item.size
            elif item.kind == "bytes":
                item.address = cursor
                item.size = len(item.data)
                cursor += item.size
            else:  # pragma: no cover
                raise AssemblerError(f"unknown item kind {item.kind}")
        return symbols

    def _resolve(self, operand: Operand, symbols: Dict[str, int],
                 pc: int, length: int) -> int:
        if isinstance(operand, int):
            return operand
        if isinstance(operand, Ref):
            try:
                target = symbols[operand.label] + operand.addend
            except KeyError:
                raise AssemblerError(
                    f"undefined label {operand.label!r}"
                ) from None
            if operand.mode == "abs":
                return target
            return target - (pc + length)
        raise AssemblerError(f"unresolvable operand {operand!r}")

    def _emit_segments(self, symbols: Dict[str, int]) -> AssembledProgram:
        program = AssembledProgram(symbols=dict(symbols))
        segments: List[Tuple[int, bytearray]] = []

        def current_segment(address: int) -> bytearray:
            if segments:
                base, blob = segments[-1]
                if base + len(blob) == address:
                    return blob
            segments.append((address, bytearray()))
            return segments[-1][1]

        instructions = program.instructions
        resolve = self._resolve
        # (mnemonic, resolved operands) -> (Instruction, its bytes): each
        # distinct instruction is built and encoded once per call, and
        # every address holding it shares the one object (DESIGN §20).
        interned: Dict[Tuple[str, Tuple[int, ...]],
                       Tuple[Instruction, bytes]] = {}

        def intern(spec: InstrSpec, operands: Tuple[int, ...],
                   address: int) -> Tuple[Instruction, bytes]:
            key = (spec.mnemonic, operands)
            entry = interned.get(key)
            if entry is None:
                instruction = Instruction(spec, operands)
                try:
                    entry = (instruction, encode(instruction))
                except EncodeError as error:
                    raise AssemblerError(
                        f"at {address:#x} ({spec.mnemonic}): {error}"
                    ) from error
                interned[key] = entry
            return entry

        for item in self._items:
            kind = item.kind
            if kind == "inst":
                spec = item.spec
                assert spec is not None        # set by emit
                address = item.address
                resolved = tuple([
                    operand if type(operand) is int
                    else resolve(operand, symbols, address, item.size)
                    for operand in item.operands])
                if spec.fmt is Format.REG_IMM64 and len(resolved) == 2:
                    # Keep the decoded form: the bytes hold the
                    # immediate unsigned.
                    resolved = (resolved[0], resolved[1] & _MASK64)
                instruction, encoded = intern(spec, resolved, address)
                instructions[address] = instruction
                current_segment(address).extend(encoded)
            elif kind == "align":
                nop, encoded = intern(spec_for("nop"), (), item.address)
                for offset in range(item.size):
                    instructions[item.address + offset] = nop
                current_segment(item.address).extend(encoded * item.size)
            elif kind == "bytes":
                current_segment(item.address).extend(item.data)

        program.segments = [(base, bytes(blob)) for base, blob in segments]
        self._check_overlap(program.segments)
        return program

    @staticmethod
    def _check_overlap(segments: Sequence[Tuple[int, bytes]]) -> None:
        spans = sorted((base, base + len(blob)) for base, blob in segments)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                raise AssemblerError(
                    f"overlapping segments near {start:#x}"
                )


#: Register-name strings the emit() convenience layer recognises.
_REGISTER_STRINGS = frozenset(
    name for name in (
        "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    )
)


def relocate(program: AssembledProgram, delta: int) -> AssembledProgram:
    """Return a copy of ``program`` shifted by ``delta`` bytes.

    Only correct for position-independent code (all our control flow is
    PC-relative except ``movabs`` address materialization, which this
    helper does not rewrite); used by the CFR defense to move trampoline
    code to fresh random addresses.
    """
    moved = AssembledProgram(
        segments=[(base + delta, blob) for base, blob in program.segments],
        symbols={name: addr + delta for name, addr in program.symbols.items()},
        instructions={
            addr + delta: inst for addr, inst in program.instructions.items()
        },
    )
    return moved
