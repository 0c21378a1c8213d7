"""SGX model: PCL sealing, EPC isolation, stepping, controlled
channels."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu import Core, generation
from repro.errors import EnclaveAccessError, SgxError
from repro.isa import Assembler
from repro.memory import PAGE_SIZE
from repro.sgx import (CodePageTracker, DataAccessMonitor, Enclave,
                       SealedImage, SgxStepper, seal, unseal)
from repro.system import Kernel, Process


class TestPcl:
    @given(st.binary(min_size=0, max_size=512),
           st.binary(min_size=1, max_size=32),
           st.binary(min_size=1, max_size=16))
    def test_seal_roundtrip(self, data, key, nonce):
        assert unseal(seal(data, key, nonce), key, nonce) == data

    @given(st.binary(min_size=32, max_size=128))
    def test_ciphertext_differs(self, data):
        sealed = seal(data, b"key", b"nonce")
        assert sealed != data

    def test_wrong_key_garbles(self):
        sealed = seal(b"secret code bytes", b"k1", b"n")
        assert unseal(sealed, b"k2", b"n") != b"secret code bytes"

    def test_image_roundtrip(self):
        segments = [(0x1000, b"\x90" * 40), (0x9000, b"\xC3")]
        image = SealedImage.seal_segments(segments, 0x1000, b"key")
        assert image.decrypt_segments(b"key") == segments
        for sealed, (base, plain) in zip(image.segments, segments):
            assert sealed.ciphertext != plain


def _tiny_enclave_program():
    asm = Assembler(base=0x10000000)
    asm.label("entry")
    asm.emit("movi", "rax", 0)
    asm.label("loop")
    asm.emit("addi8", "rax", 1)
    asm.emit("cmpi8", "rax", 4)
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    return asm.assemble()


def _loaded():
    program = _tiny_enclave_program()
    enclave = Enclave.from_program(program, name="t")
    host = Process(name="host")
    enclave.load(host)
    return program, enclave, host


class TestEpcIsolation:
    def test_outside_reads_rejected(self):
        _, enclave, host = _loaded()
        with pytest.raises(EnclaveAccessError):
            host.memory.read_bytes(0x10000000, 4)

    def test_outside_writes_rejected(self):
        _, enclave, host = _loaded()
        with pytest.raises(EnclaveAccessError):
            host.memory.write_bytes(0x10000000, b"\x00")

    def test_enclave_context_allowed(self):
        program, enclave, host = _loaded()
        host.memory.context = enclave
        blob = host.memory.read_bytes(0x10000000, 4)
        assert blob == program.segments[0][1][:4]

    def test_non_epc_memory_unaffected(self):
        _, enclave, host = _loaded()
        host.memory.map_range(0x5000, 64, "rw")
        host.memory.write_bytes(0x5000, b"ok")
        assert host.memory.read_bytes(0x5000, 2) == b"ok"

    def test_epc_filter_runs_before_the_page_check(self):
        # An unmapped EPC page still refuses an outside u64 access as
        # an EPC access, not as a page fault.
        _, enclave, host = _loaded()
        host.memory.page_table.unmap_page(enclave.data_base // PAGE_SIZE)
        with pytest.raises(EnclaveAccessError):
            host.memory.read_u64(enclave.data_base)
        with pytest.raises(EnclaveAccessError):
            host.memory.write_u64(enclave.data_base, 1)

    def test_provision_and_read_back(self):
        _, enclave, host = _loaded()
        enclave.provision(enclave.data_base, b"\x11\x22")
        assert enclave.read_back(enclave.data_base, 2) == b"\x11\x22"

    def test_provision_outside_epc_rejected(self):
        _, enclave, host = _loaded()
        with pytest.raises(SgxError):
            enclave.provision(0x5000, b"x")

    def test_double_load_rejected(self):
        program = _tiny_enclave_program()
        enclave = Enclave.from_program(program)
        host = Process(name="host")
        enclave.load(host)
        with pytest.raises(SgxError):
            enclave.load(Process(name="other"))


    def test_unload_detaches_and_allows_reload(self):
        program, enclave, host = _loaded()
        enclave.unload()
        assert host.memory.access_filter is None
        assert enclave.host is None and not enclave.entered
        assert host.memory.read_bytes(0x10000000, 4) == \
            program.segments[0][1][:4]
        other = Process(name="other")
        enclave.load(other)
        with pytest.raises(EnclaveAccessError):
            other.memory.read_bytes(0x10000000, 4)

    def test_unload_when_not_loaded_rejected(self):
        _, enclave, _ = _loaded()
        enclave.unload()
        with pytest.raises(SgxError):
            enclave.unload()


class TestStepper:
    def _stepper(self):
        program, enclave, host = _loaded()
        kernel = Kernel(Core(generation("skylake")))
        kernel.add_process(host)
        stepper = SgxStepper(kernel, host, enclave,
                             expose_debug_rip=True)
        stepper.enter()
        return kernel, stepper

    def test_steps_until_exit(self):
        _, stepper = self._stepper()
        steps = stepper.run_to_exit()
        assert stepper.finished
        assert steps > 4

    def test_lbr_suppressed_inside_enclave(self):
        kernel, stepper = self._stepper()
        stepper.run_to_exit()
        # the loop branch retired 4 times but never reached the LBR
        assert all(r.from_pc < 0x10000000
                   for r in kernel.core.lbr.records())

    def test_step_after_exit_is_noop(self):
        _, stepper = self._stepper()
        stepper.run_to_exit()
        result = stepper.step()
        assert result.running is False and result.retired == 0

    def test_wrong_host_rejected(self):
        program, enclave, host = _loaded()
        kernel = Kernel(Core(generation("skylake")))
        with pytest.raises(SgxError):
            SgxStepper(kernel, Process(name="bad"), enclave)


class TestControlledChannel:
    def test_page_trace_records_code_page(self):
        program, enclave, host = _loaded()
        kernel = Kernel(Core(generation("skylake")))
        kernel.add_process(host)
        stepper = SgxStepper(kernel, host, enclave)
        tracker = CodePageTracker(kernel, host, enclave)
        tracker.install()
        stepper.enter()
        stepper.run_to_exit()
        assert tracker.page_trace == [0x10000000 // PAGE_SIZE]
        tracker.uninstall()
        assert kernel.fault_handler is None

    def test_data_access_monitor_sees_stack(self):
        asm = Assembler(base=0x10000000)
        asm.label("entry")
        asm.emit("movi", "rcx", 7)
        asm.emit("push", "rcx")
        asm.emit("pop", "rbx")
        asm.emit("hlt")
        enclave = Enclave.from_program(asm.assemble())
        host = Process(name="host")
        enclave.load(host)
        host.state.rsp = enclave.data_base + enclave.data_size
        kernel = Kernel(Core(generation("skylake")))
        kernel.add_process(host)
        stepper = SgxStepper(kernel, host, enclave)
        monitor = DataAccessMonitor(host, enclave)
        stepper.enter()
        flags = []
        while True:
            monitor.arm()
            step = stepper.step()
            if step.retired:
                flags.append(monitor.touched_any())
            if not step.running:
                break
        # movi: no data; push: stack write; pop: stack read; hlt: no
        assert flags == [False, True, True, False]
