"""Victim build helpers: compile a victim, lay out its data, and
produce processes / enclaves / ground-truth oracles from one object.

This is the glue every experiment uses: the same compiled binary can be
instantiated as a user-space process (control-flow leakage, §5), as an
SGX enclave (fingerprinting, §6), or run under the fast interpreter
(ground truth), with fresh operand values each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cpu.interp import InterpResult, run_function
from ..cpu.state import MachineState
from ..lang import CompileOptions, CompiledModule, Compiler, parse_module
from ..memory.address import PAGE_SIZE, align_up
from ..memory.memory import VirtualMemory
from ..sgx.enclave import Enclave
from ..system.process import Process
from .bignum import BIGNUM_SOURCE, limbs_to_bytes, to_limbs
from .bn_cmp import bn_cmp_source
from .gcd import (VERSION_GROUPS, gcd_source, secret_branch_function,
                  then_arm_means_ta_ge_tb)

#: default placement of victim working data (user-space runs)
USER_DATA_BASE = 0x0000_0000_0090_0000
#: enclave data region base (must match Enclave.load default)
ENCLAVE_DATA_BASE = 0x0000_7000_0000_0000


@dataclass(frozen=True)
class SymbolicDomain:
    """The symbolic slice of one secret input array.

    Bits ``shift .. shift+bits-1`` of limb 0 are free Boolean
    variables; every other bit is pinned by ``forced_or`` (e.g.
    ``forced_or=1`` with ``shift=1`` certifies over *odd* values,
    which is the domain mbedTLS guarantees its binary-GCD loop —
    RSA keygen never passes even/zero operands)."""

    array: str
    bits: int
    shift: int = 0
    forced_or: int = 0


@dataclass(frozen=True)
class CertifySpec:
    """Per-victim parameters for ``repro certify``.

    ``expected`` maps function name -> verdict string
    (``PROVEN_LEAKY`` / ``PROVEN_SAFE`` / ``UNDECIDED``); the ``"*"``
    key is the wildcard for every function not named.  A certified
    verdict that contradicts this table fails the run — the
    annotations are the victims' machine-checked leakage contract."""

    domains: Tuple[SymbolicDomain, ...]
    template: Tuple[Tuple[str, int], ...] = ()
    #: fixed iteration count for secret loops in the CT rewrite; must
    #: dominate the true trip count over the certified domain
    ct_loop_bound: int = 6
    expected: Tuple[Tuple[str, str], ...] = ()

    def template_inputs(self) -> Dict[str, int]:
        return dict(self.template)

    def expected_verdict(self, function: str) -> Optional[str]:
        table = dict(self.expected)
        return table.get(function, table.get("*"))


@dataclass(frozen=True)
class ArraySpec:
    """One named u64-array in the victim's data region."""

    name: str
    address: int
    nlimbs: int

    @property
    def size(self) -> int:
        return self.nlimbs * 8


class DataLayout:
    """Sequential layout of named arrays with guard gaps."""

    def __init__(self, base: int, guard: int = 64):
        self.base = base
        self.guard = guard
        self.arrays: Dict[str, ArraySpec] = {}
        self._cursor = base

    def add(self, name: str, nlimbs: int) -> ArraySpec:
        spec = ArraySpec(name, self._cursor, nlimbs)
        self.arrays[name] = spec
        self._cursor = align_up(self._cursor + spec.size + self.guard, 8)
        return spec

    def __getitem__(self, name: str) -> ArraySpec:
        return self.arrays[name]

    @property
    def size(self) -> int:
        return self._cursor - self.base


class VictimProgram:
    """A compiled victim plus its data layout and input map.

    ``inputs`` maps array names to the integer each run should load
    into that array (missing arrays are zeroed).
    """

    def __init__(self, compiled: CompiledModule, layout: DataLayout,
                 nlimbs: int, *, secret_function: str,
                 fingerprint_function: Optional[str] = None,
                 then_arm_is_truth: bool = True,
                 main: str = "main",
                 secret_inputs: Sequence[str] = (),
                 leak_allowlist: Sequence[str] = (),
                 source: Optional[str] = None,
                 options: Optional[CompileOptions] = None,
                 certify: Optional[CertifySpec] = None):
        self.compiled = compiled
        self.layout = layout
        self.nlimbs = nlimbs
        self.secret_function = secret_function
        #: the function use case 2 fingerprints (defaults to the one
        #: holding the secret branch)
        self.fingerprint_function = (fingerprint_function
                                     if fingerprint_function is not None
                                     else secret_function)
        #: does the secret branch's *then* arm correspond to the
        #: ground-truth True direction? (inverted for mbedTLS 2.16+)
        self.then_arm_is_truth = then_arm_is_truth
        self.main = main
        #: names of layout arrays whose contents are secret — the seed
        #: set for the static taint lint (``repro lint``)
        self.secret_inputs: Tuple[str, ...] = tuple(secret_inputs)
        if set(self.secret_inputs) - set(layout.arrays):
            raise ValueError(
                f"secret inputs not in layout: "
                f"{sorted(set(self.secret_inputs) - set(layout.arrays))}")
        #: functions *known and accepted* to contain secret-dependent
        #: control flow or accesses; the lint reports findings outside
        #: this set as NEW (and fails)
        self.leak_allowlist: Tuple[str, ...] = tuple(leak_allowlist)
        #: DSL source + compile options the victim was built from —
        #: what the constant-time rewriter re-parses and re-compiles
        self.source = source
        self.options = options
        #: symbolic input domains and expected verdicts for
        #: ``repro certify`` (None: the victim is not certifiable)
        self.certify = certify

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------
    def _data_bytes(self, inputs: Dict[str, int]) -> List[Tuple[int, bytes]]:
        chunks: List[Tuple[int, bytes]] = []
        for name, spec in self.layout.arrays.items():
            value = inputs.get(name, 0)
            chunks.append(
                (spec.address,
                 limbs_to_bytes(to_limbs(value, spec.nlimbs))))
        return chunks

    def new_memory(self, inputs: Dict[str, int]) -> VirtualMemory:
        memory = VirtualMemory()
        self.compiled.program.load_into(memory)
        memory.map_range(self.layout.base,
                         max(self.layout.size, PAGE_SIZE), "rw")
        for address, blob in self._data_bytes(inputs):
            memory.write_bytes(address, blob, check=False)
        return memory

    def new_process(self, inputs: Dict[str, int],
                    name: str = "victim") -> Process:
        """Fresh user-space process with RIP at the start stub."""
        if self.compiled.start is None:
            raise ValueError("victim was compiled without a start stub")
        memory = self.new_memory(inputs)
        process = Process(name=name, memory=memory,
                          entry=self.compiled.start)
        return process

    def new_enclave(self, inputs: Dict[str, int],
                    name: str = "victim-enclave"
                    ) -> Tuple[Process, Enclave]:
        """Host process + loaded enclave with provisioned inputs.

        The victim must have been built with
        ``data_base=ENCLAVE_DATA_BASE`` so its baked-in data addresses
        fall inside EPC.
        """
        enclave = Enclave.from_program(self.compiled.program, name=name)
        host = Process(name=f"{name}-host")
        enclave.load(host, data_base=ENCLAVE_DATA_BASE)
        if self.layout.base != ENCLAVE_DATA_BASE:
            raise ValueError(
                "enclave victim must be built with "
                "data_base=ENCLAVE_DATA_BASE")
        # The enclave stack lives inside EPC (as on real SGX): the top
        # of the data region, far above the input arrays.  Call/ret
        # stack traffic is then visible to the accessed-bit monitor,
        # which the §6.4 call/ret classifier depends on.
        host.state.rsp = ENCLAVE_DATA_BASE + enclave.data_size
        for address, blob in self._data_bytes(inputs):
            enclave.provision(address, blob)
        return host, enclave

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def ground_truth(self, inputs: Dict[str, int], *,
                     max_instructions: int = 5_000_000) -> InterpResult:
        """Dynamic trace of one full run under the fast interpreter
        (yields are treated as no-ops)."""
        memory = self.new_memory(inputs)
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        entry = self.compiled.info(self.main).entry
        return run_function(
            state, entry,
            max_instructions=max_instructions,
            syscall_handler=lambda s: True,   # ignore yields
        )

    def expected_unit_starts(self, inputs: Dict[str, int], config,
                             *, max_instructions: int = 5_000_000
                             ) -> List[int]:
        """Ground-truth *retire-unit* leading PCs under ``config``
        (fusion-aware) — what a perfect NV-S extraction would return.

        Runs on a private core so no micro-architectural state leaks
        into or out of the experiment.
        """
        from ..cpu.core import Core, StopReason

        memory = self.new_memory(inputs)
        state = MachineState(memory)
        state.setup_stack(0x7FFF_0000_0000)
        if self.compiled.start is None:
            raise ValueError("victim was compiled without a start stub")
        state.rip = self.compiled.start
        core = Core(config)
        units: List[int] = []
        while True:
            result = core.run(state, collect_trace=True,
                              max_instructions=max_instructions)
            units.extend(result.unit_starts or [])
            if result.reason is StopReason.SYSCALL:
                state.regs["rax"] = 0      # treat yields as no-ops
                continue
            if result.reason is StopReason.HALT:
                return units
            raise ValueError(f"unexpected stop: {result.reason}")

    def secret_branch_events(self, inputs: Dict[str, int]
                             ) -> List[Tuple[int, bool]]:
        """(pc, taken) of conditional branches inside the secret
        function, from ground truth."""
        info = self.compiled.info(self.secret_function)
        result = self.ground_truth(inputs)
        return [(pc, taken) for pc, taken in result.branch_events
                if info.contains(pc)]


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
#: functions accepted to branch on secret data, per mbedTLS lineage
#: (the explicit-flow surface the paper's attacks target; audited by
#: the tests in tests/test_analysis_taint.py)
_GCD_LEAK_ALLOWLIST = {
    "classic": ("mpi_gcd", "bn_cmp", "bn_is_zero"),
    "v216": ("mpi_gcd", "bn_cmp", "bn_is_zero", "bn_make_odd"),
    "v3": ("mpi_gcd", "bn_cmp", "bn_is_zero", "bn_reduce_step"),
}


def _gcd_group(version: str) -> str:
    for group, members in VERSION_GROUPS.items():
        if version in members:
            return group
    raise ValueError(f"unknown mbedTLS version {version!r}")


def build_gcd_victim(version: str = "3.0", *,
                     options: Optional[CompileOptions] = None,
                     nlimbs: int = 2,
                     with_yield: bool = True,
                     data_base: int = USER_DATA_BASE) -> VictimProgram:
    """Compile the mbedTLS-style GCD victim.

    Layout arrays: ``g`` (result), ``ta``/``tb`` (operands).  ``main``
    calls ``mpi_gcd(g, ta, tb, nlimbs)``.
    """
    options = options if options is not None else CompileOptions()
    layout = DataLayout(data_base)
    g = layout.add("g", nlimbs)
    ta = layout.add("ta", nlimbs)
    tb = layout.add("tb", nlimbs)
    source = gcd_source(version, with_yield=with_yield) + f"""
func main() {{
  mpi_gcd({g.address}, {ta.address}, {tb.address}, {nlimbs});
  return 0;
}}
"""
    compiled = Compiler(options).compile(parse_module(source),
                                         start="main")
    allowlist = _GCD_LEAK_ALLOWLIST[_gcd_group(version)]
    # certify over odd 3-bit operands (shift 1, forced low bit):
    # mbedTLS guards zero/even upstream of the binary loop, and odd
    # operands keep the even-reduction trip counts small and bounded
    certify = CertifySpec(
        domains=(SymbolicDomain("ta", bits=2, shift=1, forced_or=1),
                 SymbolicDomain("tb", bits=2, shift=1, forced_or=1)),
        ct_loop_bound=6,
        expected=tuple((name, "PROVEN_LEAKY") for name in allowlist)
        + (("*", "PROVEN_SAFE"),))
    return VictimProgram(
        compiled, layout, nlimbs,
        secret_function=secret_branch_function(version),
        fingerprint_function="mpi_gcd",
        then_arm_is_truth=then_arm_means_ta_ge_tb(version),
        secret_inputs=("ta", "tb"),
        leak_allowlist=allowlist,
        source=source, options=options, certify=certify)


def build_bn_cmp_victim(*, options: Optional[CompileOptions] = None,
                        nlimbs: int = 4,
                        iters: int = 1,
                        with_yield: bool = True,
                        data_base: int = USER_DATA_BASE
                        ) -> VictimProgram:
    """Compile the IPP-style bn_cmp victim.

    Layout arrays: ``a``/``b`` (operands), ``out`` (results, one slot
    per iteration).  ``main`` calls ``cmp_loop(a, b, nlimbs, iters,
    out)``.
    """
    options = options if options is not None else CompileOptions()
    layout = DataLayout(data_base)
    a = layout.add("a", nlimbs)
    b = layout.add("b", nlimbs)
    out = layout.add("out", max(iters, 1))
    source = bn_cmp_source(with_yield=with_yield) + f"""
func main() {{
  cmp_loop({a.address}, {b.address}, {nlimbs}, {iters}, {out.address});
  return 0;
}}
"""
    compiled = Compiler(options).compile(parse_module(source),
                                         start="main")
    # secret a in 0..7 against the public threshold b = 5: the
    # worked README example — sign of (a - 5) leaks via one branch
    certify = CertifySpec(
        domains=(SymbolicDomain("a", bits=3),),
        template=(("b", 5),),
        expected=(("ipp_bn_cmp", "PROVEN_LEAKY"),
                  ("*", "PROVEN_SAFE")))
    return VictimProgram(compiled, layout, nlimbs,
                         secret_function="ipp_bn_cmp",
                         secret_inputs=("a",),
                         leak_allowlist=("ipp_bn_cmp",),
                         source=source, options=options,
                         certify=certify)


def build_bignum_victim(*, options: Optional[CompileOptions] = None,
                        nlimbs: int = 4,
                        data_base: int = USER_DATA_BASE
                        ) -> VictimProgram:
    """Compile the bignum-helpers victim — the lint's negative control.

    ``main`` runs the constant-time helpers (``bn_sub``, ``bn_copy``,
    ``bn_shl1``, ``bn_shr1``) over a *secret* operand ``s``: the secret
    flows through data but never into a branch condition or an address,
    so the static leakage lint must report zero findings.
    """
    options = options if options is not None else CompileOptions()
    layout = DataLayout(data_base)
    s = layout.add("s", nlimbs)
    t = layout.add("t", nlimbs)
    out = layout.add("out", nlimbs)
    source = BIGNUM_SOURCE + f"""
func main() {{
  bn_sub({out.address}, {s.address}, {t.address}, {nlimbs});
  bn_shl1({out.address}, {nlimbs});
  bn_shr1({out.address}, {nlimbs});
  bn_copy({out.address}, {s.address}, {nlimbs});
  return 0;
}}
"""
    compiled = Compiler(options).compile(parse_module(source),
                                         start="main")
    # negative control: the secret flows through bn_sub/shift data
    # paths only — every reached branch must certify PROVEN_SAFE
    certify = CertifySpec(
        domains=(SymbolicDomain("s", bits=3),),
        template=(("t", 1),),
        expected=(("*", "PROVEN_SAFE"),))
    return VictimProgram(compiled, layout, nlimbs,
                         secret_function="bn_sub",
                         secret_inputs=("s",),
                         leak_allowlist=(),
                         source=source, options=options,
                         certify=certify)
