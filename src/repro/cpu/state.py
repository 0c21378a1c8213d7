"""Architectural machine state: registers + memory + program counter.

One :class:`MachineState` belongs to one process (or enclave thread).
The micro-architectural state (BTB, LBR, cycle counter) lives in the
:class:`~repro.cpu.core.Core` and is *shared* between processes on the
same core — that sharing is the side channel.
"""

from __future__ import annotations

from typing import Optional

from ..isa.registers import MASK64, RSP, RegisterFile
from ..memory.memory import VirtualMemory


class MachineState:
    """Registers, flags, memory and RIP for one hardware thread."""

    __slots__ = ("regs", "memory", "rip")

    def __init__(self, memory: Optional[VirtualMemory] = None,
                 rip: int = 0, regs: Optional[RegisterFile] = None):
        self.regs = regs if regs is not None else RegisterFile()
        self.memory = memory if memory is not None else VirtualMemory()
        self.rip = rip

    # ------------------------------------------------------------------
    # stack helpers
    # ------------------------------------------------------------------
    @property
    def rsp(self) -> int:
        return self.regs.read(RSP)

    @rsp.setter
    def rsp(self, value: int) -> None:
        self.regs.write(RSP, value)

    # ``push`` and ``pop`` run on every call and ret: they use the
    # register list directly.  The order is architectural: a faulting
    # push leaves RSP decremented, a faulting pop leaves it unchanged.
    def push(self, value: int) -> None:
        values = self.regs._values
        rsp = values[RSP] = (values[RSP] - 8) & MASK64
        self.memory.write_u64(rsp, value)

    def pop(self) -> int:
        values = self.regs._values
        rsp = values[RSP]
        value = self.memory.read_u64(rsp)
        values[RSP] = (rsp + 8) & MASK64
        return value

    def setup_stack(self, top: int, size: int = 64 * 1024) -> None:
        """Map a stack region ending at ``top`` and point RSP at it."""
        self.memory.map_range(top - size, size, "rw")
        self.rsp = top

    def __repr__(self) -> str:
        return f"MachineState(rip={self.rip:#x})"
