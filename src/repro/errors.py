"""Exception hierarchy for the NightVision reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch simulation problems without also swallowing Python
built-ins.

All errors are **picklable**: the campaign runner transports worker
failures across process boundaries, and the default
``BaseException.__reduce__`` re-invokes ``cls(*args)``, which breaks
for the structured errors whose ``__init__`` takes extra (keyword)
arguments.  Those classes route through :func:`_rebuild_error`, which
bypasses ``__init__`` and restores ``args`` + ``__dict__`` directly.
"""

from __future__ import annotations


def _rebuild_error(cls, args, state):
    """Unpickle helper: reconstruct without calling ``cls.__init__``."""
    error = cls.__new__(cls)
    Exception.__init__(error, *args)
    error.__dict__.update(state)
    return error


class _StructuredErrorMixin:
    """Pickle support for exceptions whose constructors take extra
    arguments beyond the message."""

    def __reduce__(self):
        return _rebuild_error, (type(self), self.args, dict(self.__dict__))


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IsaError(ReproError):
    """Base class for ISA/toolchain errors."""


class EncodeError(IsaError):
    """An instruction could not be encoded (bad operand, range overflow)."""


class DecodeError(IsaError):
    """Bytes at an address do not decode to a valid instruction."""


class AssemblerError(IsaError):
    """Assembly-level problem: unknown label, misuse of a directive, ..."""


class MemoryError_(ReproError):
    """Base class for memory-system errors (named to avoid shadowing)."""


class PageFault(_StructuredErrorMixin, MemoryError_):
    """Access to an unmapped page or one lacking the needed permission.

    Page faults are *architectural events*: the kernel model catches them
    to implement controlled-channel attacks and demand mapping.
    """

    def __init__(self, address: int, access: str, message: str = ""):
        self.address = address
        self.access = access  # "read" | "write" | "execute"
        super().__init__(
            message or f"page fault: {access} at {address:#x}"
        )


class ProtectionFault(_StructuredErrorMixin, MemoryError_):
    """An access that the memory model refuses outright (e.g. EPC read
    from outside the owning enclave).

    Like :class:`PageFault` it carries the faulting address and access
    kind so handlers can triage without parsing the message; both
    default to ``None``/``""`` for refusals without a single address.
    """

    def __init__(self, message: str = "", *,
                 address: int = None, access: str = ""):
        self.address = address
        self.access = access
        if not message and address is not None:
            message = f"protection fault: {access or 'access'} " \
                      f"at {address:#x}"
        super().__init__(message)


class CpuError(ReproError):
    """Base class for CPU-model errors."""


class ExecutionLimitExceeded(CpuError):
    """A run exceeded its instruction or cycle budget (runaway guard)."""


class SimulationTimeout(_StructuredErrorMixin, ExecutionLimitExceeded):
    """A simulation run blew its step budget or wall-clock deadline.

    Subclasses :class:`ExecutionLimitExceeded` so existing runaway
    guards keep catching it; carries the budget figures so the
    campaign runner can classify the failure without parsing text.
    ``deadline`` is True when a wall-clock deadline (rather than a
    step budget) expired.
    """

    def __init__(self, message: str, *, budget: int = 0,
                 executed: int = 0, deadline: bool = False):
        self.budget = budget
        self.executed = executed
        self.deadline = deadline
        super().__init__(message)


class InvalidInstruction(CpuError):
    """The core fetched bytes that do not decode (usually a wild jump)."""


class SystemError_(ReproError):
    """Base class for kernel/scheduler errors."""


class NoRunnableProcess(SystemError_):
    """The scheduler has nothing left to run."""


class SgxError(ReproError):
    """Base class for enclave-model errors."""


class EnclaveAccessError(SgxError):
    """Non-enclave code touched EPC memory."""


class AttackError(ReproError):
    """Base class for NightVision attack-layer errors."""


class CalibrationError(AttackError):
    """The probe threshold calibration failed to separate hit from miss."""


class MeasurementError(AttackError):
    """Base class for resilient-measurement-policy errors."""


class MeasurementUnstable(_StructuredErrorMixin, MeasurementError):
    """A probe reading stayed unresolvable (missing LBR records /
    constraint violations) after the policy's retries.

    Carries the per-range resolution state so callers can degrade
    gracefully instead of discarding the whole measurement.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 unresolved=()):  # unresolved: range indices
        self.attempts = attempts
        self.unresolved = tuple(unresolved)
        super().__init__(message)


class BudgetExhausted(_StructuredErrorMixin, MeasurementError):
    """A bounded retry/probe budget ran out before the measurement
    (or extraction) converged."""

    def __init__(self, message: str, *, budget: int = 0,
                 spent: int = 0):
        self.budget = budget
        self.spent = spent
        super().__init__(message)


class CampaignError(ReproError):
    """Base class for campaign-runner errors (bad resume id, manifest
    schema mismatch, unknown job kind, ...)."""


class ArtifactCorrupt(_StructuredErrorMixin, CampaignError):
    """A persisted artifact failed validation on load (checksum
    mismatch, truncation, invalid JSON, wrong schema tag) and nothing
    could serve in its place — for a campaign, neither the manifest
    nor its creation record.  A damaged manifest has already been
    quarantined to ``<name>.corrupt`` (path recorded in
    ``quarantined``) so forensics survive and a retried load does not
    trip over the same bytes."""

    def __init__(self, message: str, *, path: str = "",
                 reason: str = "", quarantined: str = ""):
        self.path = path
        self.reason = reason
        self.quarantined = quarantined
        super().__init__(message)


class DiskFaultError(_StructuredErrorMixin, CampaignError):
    """An injected disk fault fired (torn write, ENOSPC) — the
    storage layer behaves as if the process died mid-checkpoint.  Carries the fault kind and path so drills can
    assert exactly which write was struck."""

    def __init__(self, message: str, *, path: str = "",
                 kind: str = "", errno_: int = 0):
        self.path = path
        self.kind = kind
        self.errno_ = errno_
        super().__init__(message)


class WorkerCrashed(_StructuredErrorMixin, CampaignError):
    """A subprocess worker died without delivering a result (SIGKILL,
    segfault, interpreter abort).  Treated as a transient failure by
    the retry policy."""

    def __init__(self, message: str, *, exitcode: int = None):
        self.exitcode = exitcode
        super().__init__(message)


class CompileError(ReproError):
    """Base class for the mini-compiler."""


class ParseError(CompileError):
    """The DSL source text did not parse."""


class DivideError(CpuError):
    """Division by zero or quotient overflow in ``div``."""
