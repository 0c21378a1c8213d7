"""CPU model: BTB (with the paper's two takeaways), prediction-window
front end with cycle accounting, LBR, macro-fusion, speculative
look-ahead, and a fast ground-truth interpreter."""

from .btb import BTB, BTBEntry, BTBStats
from .config import (
    CpuGeneration,
    DEFAULT_GENERATION,
    GENERATIONS,
    generation,
)
from .core import Core, RunResult, StopReason
from .decoded import (
    DecodedWindow,
    Superblock,
    SuperblockLink,
    build_superblock,
    build_window,
    fast_path_enabled,
    get_window,
    set_fast_path,
)
from .fusion import can_fuse
from .interp import InterpResult, InterpStop, interpret, run_function
from .lbr import LBR, LbrRecord
from .semantics import Outcome, execute
from .state import MachineState

__all__ = [
    "BTB",
    "BTBEntry",
    "BTBStats",
    "Core",
    "CpuGeneration",
    "DEFAULT_GENERATION",
    "DecodedWindow",
    "GENERATIONS",
    "Superblock",
    "SuperblockLink",
    "build_superblock",
    "build_window",
    "fast_path_enabled",
    "get_window",
    "set_fast_path",
    "InterpResult",
    "InterpStop",
    "LBR",
    "LbrRecord",
    "MachineState",
    "Outcome",
    "RunResult",
    "StopReason",
    "can_fuse",
    "execute",
    "generation",
    "interpret",
    "run_function",
]
