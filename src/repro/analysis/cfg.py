"""Control-flow-graph recovery over assembled binaries.

The static half of the attacker's offline phase: given only the bytes
of a victim (plus its entry point), rebuild what the front end will
see — instructions, basic blocks, and the edges a prediction can
follow.  Two recovery modes mirror classic binary analysis:

* :func:`linear_sweep` — decode every segment front to back, skipping
  undecodable bytes one at a time.  This over-approximates what the
  fetch-ahead drain can reach (it decodes past stops into code that
  never retires), so the differential validator uses it for BTB
  insertion *containment*.
* :func:`recover_cfg` — recursive descent from the entry point(s),
  following calls, jumps and both arms of conditionals.  This is the
  precise, reachable graph used for taint analysis and edge
  prediction.

Indirect transfers (``jmpr``/``callr``/``ret`` with unknown callers)
cannot be resolved statically; their source instructions are recorded
in :attr:`CFG.unresolved` and their successor sets are ⊤ (``None`` in
:func:`CFG.successors`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..errors import DecodeError
from ..isa.encoding import decode
from ..isa.instructions import Instruction, Kind


class EdgeKind(enum.Enum):
    """Why control can flow from one instruction to another."""

    FALLTHROUGH = "fallthrough"
    TAKEN = "taken"              # taken direct/conditional jump
    CALL = "call"                # call to a function entry
    RETURN = "return"            # ret back to a recorded return site


@dataclass(frozen=True)
class Edge:
    """One control-flow edge between instruction addresses."""

    src: int
    dst: int
    kind: EdgeKind


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start`` is the address of the first instruction, ``end`` the
    address one past the last instruction's final byte.
    """

    start: int
    end: int
    instructions: List[int] = field(default_factory=list)
    function: Optional[str] = None

    @property
    def terminator(self) -> int:
        """Address of the block's last instruction."""
        return self.instructions[-1]


class CodeImage:
    """Read-only view of an assembled binary's code bytes."""

    def __init__(self, segments: Sequence[Tuple[int, bytes]]):
        self._segments = sorted(
            ((base, bytes(blob)) for base, blob in segments),
            key=lambda pair: pair[0])

    @classmethod
    def from_program(cls, program) -> "CodeImage":
        """Build from an :class:`repro.isa.assembler.AssembledProgram`."""
        return cls(program.segments)

    @property
    def segments(self) -> List[Tuple[int, bytes]]:
        return list(self._segments)

    def segment_of(self, pc: int) -> Optional[Tuple[int, bytes]]:
        for base, blob in self._segments:
            if base <= pc < base + len(blob):
                return base, blob
        return None

    def contains(self, pc: int) -> bool:
        return self.segment_of(pc) is not None

    def decode(self, pc: int) -> Tuple[Instruction, int]:
        """Decode the instruction at ``pc``.

        Raises :class:`DecodeError` when ``pc`` is outside every
        segment or the bytes do not decode.
        """
        segment = self.segment_of(pc)
        if segment is None:
            raise DecodeError(f"address {pc:#x} outside the code image")
        base, blob = segment
        return decode(blob, pc - base)


def linear_sweep(image: CodeImage) -> Dict[int, Instruction]:
    """Decode every segment front to back (skip junk bytes one at a
    time), returning ``pc -> instruction`` for everything decodable."""
    instrs: Dict[int, Instruction] = {}
    for base, blob in image.segments:
        offset = 0
        while offset < len(blob):
            try:
                instruction, length = decode(blob, offset)
            except DecodeError:
                offset += 1
                continue
            instrs[base + offset] = instruction
            offset += length
    return instrs


@dataclass
class CFG:
    """The recovered control-flow graph."""

    image: CodeImage
    entry: int
    #: reachable instructions (recursive descent)
    instrs: Dict[int, Instruction]
    #: instruction-level edges
    edges: List[Edge]
    #: block start -> block
    blocks: Dict[int, BasicBlock]
    #: function entry pc -> set of its ``ret`` instruction pcs
    rets: Dict[int, Set[int]]
    #: function entry pc -> recorded return sites (callers' pc+len)
    return_sites: Dict[int, Set[int]]
    #: function entry pc of every reachable instruction
    function_entry_of: Dict[int, int]
    #: pcs of indirect transfers (and rets with unknown callers):
    #: successors are statically ⊤
    unresolved: Set[int]
    #: function entry pc -> name (when a function map was provided)
    function_names: Dict[int, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def function_of(self, pc: int) -> Optional[str]:
        entry = self.function_entry_of.get(pc)
        if entry is None:
            return None
        return self.function_names.get(entry, f"sub_{entry:#x}")

    def successors(self, pc: int) -> Optional[FrozenSet[int]]:
        """Statically predicted successor set of the instruction at
        ``pc`` — ``None`` means ⊤ (an unresolved indirect)."""
        return self._succ.get(pc)

    def successor_map(self) -> Dict[int, Optional[FrozenSet[int]]]:
        """``pc -> successors`` for every reachable instruction."""
        return dict(self._succ)

    # filled by recover_cfg
    _succ: Dict[int, Optional[FrozenSet[int]]] = field(
        default_factory=dict)


def recover_cfg(image: CodeImage, entry: int, *,
                extra_entries: Iterable[int] = (),
                function_names: Optional[Dict[int, str]] = None) -> CFG:
    """Recursive-descent CFG recovery from ``entry``.

    ``extra_entries`` are additional function entry points (code called
    indirectly or driven by a harness).  ``function_names`` maps
    function entry pcs to display names (e.g. from a
    :class:`repro.lang.codegen.CompiledModule`).
    """
    instrs: Dict[int, Instruction] = {}
    fn_of: Dict[int, int] = {}
    rets: Dict[int, Set[int]] = {}
    return_sites: Dict[int, Set[int]] = {}
    unresolved: Set[int] = set()
    #: (successor pc, edge kind) per instruction, before RETURN edges
    raw_succ: Dict[int, List[Tuple[int, EdgeKind]]] = {}

    entries: List[int] = [entry] + [pc for pc in extra_entries
                                    if pc != entry]
    #: functions entered without an observed call site return to ⊤
    harness_entries: Set[int] = set(entries)
    worklist: List[Tuple[int, int]] = [(pc, pc) for pc in entries]
    for pc in entries:
        rets.setdefault(pc, set())
        return_sites.setdefault(pc, set())

    def enqueue(pc: int, fn_entry: int) -> None:
        if pc not in instrs:
            worklist.append((pc, fn_entry))

    while worklist:
        pc, fn_entry = worklist.pop()
        if pc in instrs:
            continue
        try:
            instruction, length = image.decode(pc)
        except DecodeError:
            continue        # fell off the code (or into data): stop path
        instrs[pc] = instruction
        fn_of[pc] = fn_entry
        succ: List[Tuple[int, EdgeKind]] = []
        kind = instruction.kind
        if kind is Kind.SEQUENTIAL or kind is Kind.SYSCALL:
            succ.append((pc + length, EdgeKind.FALLTHROUGH))
            enqueue(pc + length, fn_entry)
        elif kind is Kind.DIRECT_JUMP:
            target = pc + length + instruction.operands[0]
            succ.append((target, EdgeKind.TAKEN))
            enqueue(target, fn_entry)
        elif kind is Kind.COND_JUMP:
            target = pc + length + instruction.operands[0]
            succ.append((pc + length, EdgeKind.FALLTHROUGH))
            succ.append((target, EdgeKind.TAKEN))
            enqueue(pc + length, fn_entry)
            enqueue(target, fn_entry)
        elif kind is Kind.CALL:
            target = pc + length + instruction.operands[0]
            succ.append((target, EdgeKind.CALL))
            rets.setdefault(target, set())
            return_sites.setdefault(target, set()).add(pc + length)
            enqueue(target, target)
            enqueue(pc + length, fn_entry)     # the return site
        elif kind is Kind.RET:
            rets.setdefault(fn_entry, set()).add(pc)
        elif kind in (Kind.INDIRECT_JUMP, Kind.INDIRECT_CALL):
            unresolved.add(pc)
            if kind is Kind.INDIRECT_CALL:
                # the unknown callee eventually returns here
                succ.append((pc + length, EdgeKind.FALLTHROUGH))
                enqueue(pc + length, fn_entry)
        elif kind is Kind.HALT:
            pass                               # sink
        raw_succ[pc] = succ

    # ------------------------------------------------------------------
    # RETURN edges: every ret of f goes to every recorded return site
    # of f; a function reachable without a call site returns to ⊤.
    # ------------------------------------------------------------------
    for fn_entry, ret_pcs in rets.items():
        sites = return_sites.get(fn_entry, set())
        for ret_pc in sorted(ret_pcs):
            if fn_entry in harness_entries and not sites:
                unresolved.add(ret_pc)
                continue
            for site in sorted(sites):
                raw_succ[ret_pc].append((site, EdgeKind.RETURN))

    edges = [Edge(src, dst, kind)
             for src in sorted(raw_succ)
             for dst, kind in raw_succ[src]]

    # ------------------------------------------------------------------
    # basic blocks: leaders are entries, edge destinations, and the
    # instruction after any control transfer.
    # ------------------------------------------------------------------
    leaders: Set[int] = set(entries) & set(instrs)
    for edge in edges:
        if edge.dst in instrs:
            leaders.add(edge.dst)
    for pc, instruction in instrs.items():
        if instruction.is_control:
            after = pc + instruction.length
            if after in instrs:
                leaders.add(after)

    blocks: Dict[int, BasicBlock] = {}
    names = dict(function_names or {})
    ordered = sorted(instrs)
    index = {pc: i for i, pc in enumerate(ordered)}
    for leader in sorted(leaders):
        block = BasicBlock(start=leader, end=leader)
        pc = leader
        while True:
            instruction = instrs[pc]
            block.instructions.append(pc)
            block.end = pc + instruction.length
            nxt = pc + instruction.length
            if instruction.is_control or nxt in leaders:
                break
            if nxt not in instrs or index.get(nxt, -1) != index[pc] + 1:
                break
            pc = nxt
        entry_pc = fn_of.get(leader)
        if entry_pc is not None:
            block.function = names.get(entry_pc, f"sub_{entry_pc:#x}")
        blocks[leader] = block

    cfg = CFG(image=image, entry=entry, instrs=instrs, edges=edges,
              blocks=blocks, rets=rets, return_sites=return_sites,
              function_entry_of=fn_of, unresolved=unresolved,
              function_names=names)
    succ_map: Dict[int, Optional[FrozenSet[int]]] = {}
    for pc in instrs:
        if pc in unresolved:
            succ_map[pc] = None
        else:
            succ_map[pc] = frozenset(dst for dst, _ in raw_succ[pc])
    cfg._succ = succ_map
    return cfg


def recover_module_cfg(compiled, *,
                       extra_entries: Iterable[int] = ()) -> CFG:
    """CFG of a :class:`repro.lang.codegen.CompiledModule`, named after
    its function table and rooted at the ``_start`` stub."""
    image = CodeImage.from_program(compiled.program)
    names = {info.entry: name
             for name, info in compiled.functions.items()}
    entry = compiled.start
    if entry is None:
        raise ValueError("module was compiled without a start stub")
    return recover_cfg(image, entry, extra_entries=extra_entries,
                       function_names=names)


# ----------------------------------------------------------------------
# block-graph dataflow utilities (control-dependence building blocks)
# ----------------------------------------------------------------------
def reachable_from(successors: Dict[int, Set[int]],
                   starts: Iterable[int]) -> Set[int]:
    """Transitive closure over a block successor graph, including the
    start nodes themselves."""
    seen: Set[int] = set()
    stack = list(starts)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(successors.get(node, ()))
    return seen


def postdominator_sets(successors: Dict[int, Set[int]]
                       ) -> Dict[int, Set[int]]:
    """``node -> set of its postdominators`` (including itself) by the
    standard iterative dataflow: a node with no successors
    postdominates only itself; otherwise
    ``pdom(n) = {n} ∪ ⋂ pdom(succ)``.  Nodes that cannot reach an
    exit keep the full set (vacuous intersection over an infinite
    path), which is the conservative answer."""
    nodes = sorted(successors)
    everything = set(nodes)
    pdom: Dict[int, Set[int]] = {}
    for node in nodes:
        pdom[node] = ({node} if not successors[node]
                      else set(everything))
    changed = True
    while changed:
        changed = False
        for node in reversed(nodes):
            succ = successors[node]
            if not succ:
                continue
            merged: Optional[Set[int]] = None
            for s in succ:
                merged = (set(pdom[s]) if merged is None
                          else merged & pdom[s])
            merged = (merged or set()) | {node}
            if merged != pdom[node]:
                pdom[node] = merged
                changed = True
    return pdom


def nodes_on_cycles(successors: Dict[int, Set[int]]) -> Set[int]:
    """Nodes that can reach themselves along at least one edge."""
    return {node for node in successors
            if node in reachable_from(successors,
                                      successors.get(node, ()))}
