"""Enclave model: EPC isolation + code confidentiality.

Captures the SGX properties the paper's threat model (§6.2) relies on:

* **Data/code confidentiality** — EPC pages can only be read or written
  while the memory context is the owning enclave.  The (attacker-
  controlled) host and kernel get :class:`EnclaveAccessError` instead
  of bytes.  Enclave code arrives encrypted (PCL) and is decrypted
  straight into EPC.
* **Untrusted resource management** — page tables remain under kernel
  control: the attacker may flip permissions and read accessed/dirty
  bits (controlled channels), interrupt at instruction granularity
  (SGX-Step), and share the core's BTB.  None of that needs EPC read
  access.
* **LBR/PT disabled in enclave mode** — handled by
  :meth:`Core.set_enclave_mode`, toggled on enter/AEX/resume.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import EnclaveAccessError, SgxError
from ..isa.assembler import AssembledProgram
from ..memory.address import PAGE_SHIFT, PAGE_SIZE, page_number
from ..system.process import Process
from .pcl import SealedImage


class Enclave:
    """One loaded enclave within a host process."""

    def __init__(self, name: str, image: SealedImage, key: bytes,
                 data_size: int = 1 << 20):
        self.name = name
        self.image = image
        #: the program sealed into ``image``, when known: a decrypted
        #: segment that matches one of its segments byte for byte
        #: attaches that segment's shared code image on load
        self.program: Optional[AssembledProgram] = None
        self._key = key
        self.entry = image.entry
        #: EPC ranges as (start, end) half-open intervals
        self.epc_ranges: List[Tuple[int, int]] = []
        #: page numbers covered by ``epc_ranges`` (the ranges are
        #: page-aligned, so page membership is the overlap test)
        self._epc_pages: Set[int] = set()
        self.data_base: Optional[int] = None
        self.data_size = data_size
        self.host: Optional[Process] = None
        self.entered = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, program: AssembledProgram, *,
                     name: str = "enclave",
                     key: bytes = b"enclave-sealing-key",
                     data_size: int = 1 << 20) -> "Enclave":
        """Seal an assembled program into an enclave image (PCL)."""
        image = SealedImage.seal_segments(
            list(program.segments), program.entry, key)
        enclave = cls(name, image, key, data_size)
        enclave.program = program
        return enclave

    # ------------------------------------------------------------------
    # loading (EADD/EINIT + PCL decryption)
    # ------------------------------------------------------------------
    def load(self, host: Process,
             data_base: int = 0x0000_7000_0000_0000) -> None:
        """Map EPC pages into ``host`` and decrypt the image into them."""
        if self.host is not None:
            raise SgxError(f"enclave {self.name} already loaded")
        self.host = host
        memory = host.memory
        images = ({image.base: image
                   for image in self.program.segment_images()}
                  if self.program is not None else {})
        for base, blob in self.image.decrypt_segments(self._key):
            memory.map_range(base, len(blob), "rx")
            self._add_epc_range(base, len(blob))
            # Write plaintext directly into EPC (loader runs "inside").
            memory.write_bytes(base, blob, check=False)
            image = images.get(base)
            if image is not None and image.blob == blob:
                memory.attach_image(image)
        self.data_base = data_base
        memory.map_range(data_base, self.data_size, "rw")
        self._add_epc_range(data_base, self.data_size)
        previous = memory.access_filter
        if previous is not None:
            raise SgxError("host process already has an access filter")
        memory.access_filter = self._access_filter

    def unload(self) -> None:
        """Inverse of :meth:`load`: detach the EPC filter from the host
        memory and forget the host.

        The filter is a bound method of this enclave, so while it is
        installed the host memory and the enclave keep each other
        alive; after ``unload`` the host's address space is freed by
        reference counting alone.
        """
        if self.host is None:
            raise SgxError(f"enclave {self.name} not loaded")
        memory = self.host.memory
        if memory.access_filter == self._access_filter:
            memory.access_filter = None
        self.host = None
        self.entered = False
        self.data_base = None
        self.epc_ranges = []
        self._epc_pages = set()

    def _add_epc_range(self, base: int, size: int) -> None:
        start = page_number(base) * PAGE_SIZE
        end = (page_number(base + size - 1) + 1) * PAGE_SIZE
        self.epc_ranges.append((start, end))
        self._epc_pages.update(range(start >> PAGE_SHIFT, end >> PAGE_SHIFT))

    # ------------------------------------------------------------------
    # EPC access control
    # ------------------------------------------------------------------
    def contains(self, address: int, size: int = 1) -> bool:
        first = address >> PAGE_SHIFT
        last = (address + size - 1) >> PAGE_SHIFT
        if first == last:
            return first in self._epc_pages
        return any(vpn in self._epc_pages for vpn in range(first, last + 1))

    def _access_filter(self, address: int, size: int, access: str,
                       context: Optional[object]) -> None:
        if not self.contains(address, size):
            return
        if context is self:
            return
        raise EnclaveAccessError(
            f"{access} of EPC address {address:#x} from outside "
            f"enclave {self.name!r}"
        )

    # ------------------------------------------------------------------
    # provisioning (trusted side writes its own working data)
    # ------------------------------------------------------------------
    def provision(self, address: int, data: bytes) -> None:
        """Write into enclave memory as the enclave itself (e.g. the
        trusted runtime copying in sealed inputs)."""
        if self.host is None:
            raise SgxError("enclave not loaded")
        if not self.contains(address, len(data)):
            raise SgxError(
                f"provision target {address:#x} outside EPC")
        memory = self.host.memory
        saved = memory.context
        memory.context = self
        try:
            memory.write_bytes(address, data, check=False)
        finally:
            memory.context = saved

    def read_back(self, address: int, size: int) -> bytes:
        """Trusted-side read (tests / result extraction only)."""
        if self.host is None:
            raise SgxError("enclave not loaded")
        memory = self.host.memory
        saved = memory.context
        memory.context = self
        try:
            return memory.read_bytes(address, size, check=False)
        finally:
            memory.context = saved

    # ------------------------------------------------------------------
    # code page enumeration (the *kernel* legitimately knows which
    # pages exist — it mapped them — just not their contents)
    # ------------------------------------------------------------------
    def code_pages(self) -> List[int]:
        pages: List[int] = []
        for segment in self.image.segments:
            first = page_number(segment.base)
            last = page_number(segment.base + len(segment.ciphertext) - 1)
            pages.extend(range(first, last + 1))
        return sorted(set(pages))

    def __repr__(self) -> str:
        return (f"Enclave({self.name!r}, entry={self.entry:#x}, "
                f"loaded={self.host is not None})")
