"""Trace slicing: dynamic PC trace -> per-invocation function traces.

Implements §6.4 step 1: the extracted PC trace is partitioned at
call/ret boundaries, using only information the attacker has —

* a jump between consecutive measured PCs of more than 16 bytes marks
  a suspected control transfer;
* a suspected ``call``/``ret`` is confirmed by its data-page access
  (the stack push/pop), observed through the controlled channel;
* a confirmed transfer whose target lands just past a *pending* call
  site (2–10 bytes after it — a plausible call-instruction length) is
  the matching ``ret``; otherwise it is a new ``call``.

Each invocation's trace holds the PCs executed at its own nesting
level (a nested call contributes the call-site PC to the parent and
opens its own trace), then gets normalized position-independent by
subtracting its entry PC — exactly Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: PC delta above which a transition is a suspected control transfer
JUMP_THRESHOLD = 16
#: plausible call-instruction lengths: ret targets call_pc + [2, 10]
MIN_CALL_LENGTH = 2
MAX_CALL_LENGTH = 10


@dataclass
class FunctionTrace:
    """One sliced function invocation."""

    #: first measured PC of the invocation (the call target)
    entry: int
    #: measured PCs at this invocation's nesting level, in order
    pcs: List[int] = field(default_factory=list)
    #: nesting depth at which the invocation ran (0 = top level)
    depth: int = 0

    def normalized(self) -> List[int]:
        """Position-independent PCs (entry subtracted)."""
        return [pc - self.entry for pc in self.pcs]

    def normalized_set(self) -> frozenset:
        return frozenset(self.normalized())

    def __len__(self) -> int:
        return len(self.pcs)


def slice_trace(pcs: Sequence[int],
                data_access: Optional[Sequence[bool]] = None,
                aligned_entries: int = 16) -> List[FunctionTrace]:
    """Partition a measured dynamic PC trace into function traces.

    ``data_access[i]`` says whether step ``i`` touched a data page
    (from the accessed-bit controlled channel); when ``None`` every
    suspected transfer is treated as confirmed (lower fidelity).  A
    ``data_access`` whose length differs from ``pcs`` raises
    ``ValueError``.

    ``aligned_entries`` exploits the compiler convention that function
    entries are 16-byte aligned: a far transfer that is not a return
    only opens a new frame when its target is aligned (intra-function
    loop jumps rarely are).  Pass 0 to disable the heuristic.
    """
    if data_access is None:
        data_access = [True] * len(pcs)
    elif len(data_access) != len(pcs):
        raise ValueError(
            f"data_access has {len(data_access)} flags for "
            f"{len(pcs)} pcs")
    traces: List[FunctionTrace] = []
    if not pcs:
        return traces
    root = FunctionTrace(entry=pcs[0], depth=0)
    traces.append(root)
    #: (call_pc, open trace) for every frame on the inferred stack
    stack: List[Tuple[int, FunctionTrace]] = [(-1, root)]

    for index, pc in enumerate(pcs):
        current = stack[-1][1]
        if not current.pcs:
            current.pcs.append(pc)
            continue
        previous = current.pcs[-1]
        delta = pc - previous
        is_far = delta > JUMP_THRESHOLD or delta < 0
        confirmed = is_far and data_access[index]
        if confirmed and _matches_return(stack, pc):
            # ret: unwind to the matching frame
            while len(stack) > 1:
                frame_call_pc = stack[-1][0]
                stack.pop()
                if _is_return_to(frame_call_pc, pc):
                    break
            stack[-1][1].pcs.append(pc)
        elif confirmed and (aligned_entries <= 1
                            or pc % aligned_entries == 0):
            # call: previous PC was the call site; open a new frame
            callee = FunctionTrace(entry=pc, depth=len(stack))
            callee.pcs.append(pc)
            traces.append(callee)
            stack.append((previous, callee))
        else:
            current.pcs.append(pc)
    return traces


def _is_return_to(call_pc: int, target: int) -> bool:
    return MIN_CALL_LENGTH <= target - call_pc <= MAX_CALL_LENGTH


def _matches_return(stack: List[Tuple[int, FunctionTrace]],
                    target: int) -> bool:
    """Does ``target`` look like a return to any pending call site?"""
    for call_pc, _ in reversed(stack[1:]):
        if _is_return_to(call_pc, target):
            return True
    return False


def function_traces_of_length(traces: Sequence[FunctionTrace],
                              minimum: int = 4) -> List[FunctionTrace]:
    """Filter out stub invocations too short to fingerprint (§8.1:
    the function must produce enough entropy)."""
    return [trace for trace in traces if len(trace) >= minimum]
