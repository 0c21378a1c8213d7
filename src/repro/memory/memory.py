"""Sparse virtual memory with paging and an access-control hook.

One :class:`VirtualMemory` instance is one address space (one process).
Storage is sparse — pages materialize on first touch — so experiments
can place code regions 4/8 GiB apart (the paper's BTB tag-truncation
setup) without cost.

The ``access_filter`` hook lets the SGX layer enforce EPC isolation:
it is consulted *before* page-table checks and can reject an access
outright (raising :class:`ProtectionFault`) or redact reads.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from .address import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_number
from .paging import PageEntry, PageTable

#: access_filter(address, size, access, context) -> None or raises.
AccessFilter = Callable[[int, int, str, Optional[object]], None]

#: pre-compiled u64 codec for the typed-access fast paths.
_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1

#: how far before a byte a decode covering it can start (instructions
#: are at most 10 bytes long).
_DECODE_REACH = 9


class DecodeCache(dict):
    """The icache dict, plus registries of the pages that hold code.

    ``code_pages`` lets :meth:`VirtualMemory.write_bytes` decide in O(1)
    whether a write can possibly invalidate cached code — data stores
    skip the invalidation sweep entirely.  It holds every page with a
    cached decode and every page of an attached code image.  Writes
    near code are then byte-diffed, so only writes that really change
    code bump the code generation counter that keys the decoded-window
    cache (:mod:`repro.cpu.decoded`); ``decode_pages`` (pages that ever
    held a cached decode) decides whether a change bumps it.
    """

    __slots__ = ("code_pages", "decode_pages")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.code_pages: set = set()
        self.decode_pages: set = set()
        for pc, value in self.items():
            self._register(pc, value)

    def _register(self, pc: int, value) -> None:
        try:
            last_byte = pc + value[1] - 1     # value = (instr, length)
        except (TypeError, IndexError, KeyError):
            last_byte = pc
        for vpn in (pc >> PAGE_SHIFT, last_byte >> PAGE_SHIFT):
            self.code_pages.add(vpn)
            self.decode_pages.add(vpn)

    def __setitem__(self, pc, value) -> None:
        self._register(pc, value)
        dict.__setitem__(self, pc, value)


class VirtualMemory:
    """A 64-bit sparse byte-addressable address space."""

    def __init__(self) -> None:
        self.pages: Dict[int, bytearray] = {}
        #: this address space's own page table; its ``epoch`` is the
        #: code generation (see :attr:`code_generation`).
        self.page_table = PageTable()
        #: decoded-instruction cache: address -> (Instruction, length).
        #: Maintained by the CPU front end; writes invalidate it.
        self.icache: DecodeCache = DecodeCache()
        #: decoded-window cache: entry PC -> DecodedWindow (see
        #: :mod:`repro.cpu.decoded`); invalidated by generation compare.
        self.window_cache: Dict[int, object] = {}
        #: superblock cache: entry PC -> the most recently used
        #: Superblock or negative marker, whose ``older`` slot links
        #: the pc's other variants (see ``Core.run``); chains
        #: self-validate against ``code_generation`` and the owning
        #: BTB's set stamps, so no eager invalidation happens here.
        self.superblock_cache: Dict[int, object] = {}
        #: attached code images (``SegmentImage``, see
        #: :meth:`attach_image`), indexed by every page they cover.
        self.images: Dict[int, List[object]] = {}
        self.access_filter: Optional[AccessFilter] = None
        #: Current execution context (e.g. an Enclave object) used by
        #: the access filter; ``None`` means normal/untrusted mode.
        self.context: Optional[object] = None

    @property
    def code_generation(self) -> int:
        """Monotonic counter identifying the current code contents.

        Changes when executable bytes may have changed: writes that
        change bytes on pages with cached decodes, and page map/unmap
        (page swaps) — except re-mapping a mapped page with the same
        permissions, which leaves its bytes alone.  ``set_perms`` does
        *not* affect it — decoded bytes are content, and permissions
        are enforced at execution time (``set_perms`` is the
        controlled-channel attacker's per-single-step tool; bumping
        here would thrash the cache).

        It is one counter, ``page_table.epoch``, which such writes bump
        too, so the per-step checks of the run loops can read it from
        a page table they hoisted.
        """
        return self.page_table.epoch

    # ------------------------------------------------------------------
    # mapping helpers
    # ------------------------------------------------------------------
    def map_range(self, start: int, size: int, perms: str = "rw") -> None:
        """Map every page overlapping ``[start, start+size)``."""
        if size <= 0:
            return
        first = page_number(start)
        last = page_number(start + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.map_page(vpn, perms)

    def is_mapped(self, address: int) -> bool:
        return self.page_table.is_mapped(address)

    def _backing(self, vpn: int) -> bytearray:
        page = self.pages.get(vpn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self.pages[vpn] = page
        return page

    def _check(self, address: int, size: int, access: str,
               check: bool) -> None:
        if self.access_filter is not None:
            self.access_filter(address, size, access, self.context)
        if not check:
            return
        first = page_number(address)
        last = page_number(address + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.check(vpn << PAGE_SHIFT, access)

    # ------------------------------------------------------------------
    # raw byte access
    # ------------------------------------------------------------------
    def read_bytes(self, address: int, size: int, *,
                   access: str = "read", check: bool = True) -> bytes:
        if size <= 0:
            return b""
        self._check(address, size, access, check)
        return bytes(self._raw_read(address, size))

    def _raw_read(self, address: int, size: int) -> bytearray:
        """The backing bytes of ``[address, address+size)``, zeros for
        unmaterialized pages; no filter or permission checks."""
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            vpn = page_number(cursor)
            offset = cursor & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            page = self.pages.get(vpn)
            if page is None:
                out += b"\x00" * chunk
            else:
                out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return out

    def write_bytes(self, address: int, data: bytes, *,
                    check: bool = True) -> None:
        if not data:
            return
        self._check(address, len(data), "write", check)
        icache = self.icache
        if icache.code_pages:
            first = (address - _DECODE_REACH) >> PAGE_SHIFT
            last = (address + len(data) - 1) >> PAGE_SHIFT
            if any(vpn in icache.code_pages
                   for vpn in range(first, last + 1)):
                self._invalidate_changed(address, data, first, last)
        cursor = address
        view = memoryview(data)
        while view:
            vpn = page_number(cursor)
            offset = cursor & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            self._backing(vpn)[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def _invalidate_changed(self, address: int, data: bytes,
                            first_page: int, last_page: int) -> None:
        """Invalidate what a write near code would stale.

        The write is diffed against the current bytes.  An identical
        rewrite (a probe snippet re-mapped over itself) invalidates
        nothing.  Otherwise every attached image overlapping a changed
        byte is detached from this memory, and — when the write's pages
        ``first_page..last_page`` ever held cached decodes — the code
        generation retires once, so decoded windows re-verify
        (self-modifying code), and every decode that can overlap a
        changed byte is dropped.
        """
        old = self._raw_read(address, len(data))
        if old == data:
            return
        delta = (int.from_bytes(old, "little")
                 ^ int.from_bytes(data, "little"))
        first_changed = address + ((delta & -delta).bit_length() - 1) // 8
        last_changed = address + (delta.bit_length() - 1) // 8
        if self.images:
            for image in self._images_over(first_changed, last_changed + 1):
                self._detach(image)
        icache = self.icache
        if not any(vpn in icache.decode_pages
                   for vpn in range(first_page, last_page + 1)):
            return
        self.page_table.epoch += 1
        for stale in range(first_changed - _DECODE_REACH, last_changed + 1):
            icache.pop(stale, None)

    # ------------------------------------------------------------------
    # shared code images
    # ------------------------------------------------------------------
    def attach_image(self, image) -> None:
        """Attach a code segment image whose bytes were just written.

        ``image`` (an ``isa.assembler.SegmentImage``) must match this
        memory's bytes over ``[image.base, image.end)``.  Attachments
        it overlaps are detached first, so at most one image answers
        for any byte.  Its pages join ``icache.code_pages``: every
        write near it is byte-diffed, and a changing one detaches it.
        """
        for old in self._images_over(image.base, image.end):
            self._detach(old)
        first = image.base >> PAGE_SHIFT
        last = (image.end - 1) >> PAGE_SHIFT
        code_pages = self.icache.code_pages
        for vpn in range(first, last + 1):
            self.images.setdefault(vpn, []).append(image)
            code_pages.add(vpn)
        image.note_space(self)

    def image_at(self, pc: int):
        """The attached image whose segment holds ``pc``, or ``None``."""
        attached = self.images.get(pc >> PAGE_SHIFT)
        if attached:
            for image in attached:
                if image.base <= pc < image.end:
                    return image
        return None

    def _images_over(self, start: int, end: int) -> list:
        """Attached images overlapping ``[start, end)``."""
        found: list = []
        for vpn in range(start >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1):
            for image in self.images.get(vpn, ()):
                if (image.base < end and start < image.end
                        and image not in found):
                    found.append(image)
        return found

    def _detach(self, image) -> None:
        for vpn in range(image.base >> PAGE_SHIFT,
                         ((image.end - 1) >> PAGE_SHIFT) + 1):
            attached = self.images.get(vpn)
            if attached is not None and image in attached:
                attached.remove(image)
                if not attached:
                    del self.images[vpn]

    def check_fetch(self, address: int, size: int) -> None:
        """The checks an instruction fetch of ``size`` bytes makes
        (access filter, then execute permission), without the read."""
        vpn = address >> PAGE_SHIFT
        if (address + size - 1) >> PAGE_SHIFT != vpn:
            self._check(address, size, "execute", True)
            return
        if self.access_filter is not None:
            self.access_filter(address, size, "execute", self.context)
        entry = self.page_table._entries.get(vpn)
        if entry is None or not entry.executable:
            entry = self.page_table.check(vpn << PAGE_SHIFT,
                                           "execute")  # raises
        entry.accessed = True

    # ------------------------------------------------------------------
    # typed access
    # ------------------------------------------------------------------
    def read_u64(self, address: int, *, check: bool = True) -> int:
        # Single-page fast path (DESIGN §18): the bulk of simulated data
        # traffic is aligned 8-byte limb loads/stores and stack slots,
        # for which the generic byte-copy loop is pure overhead.  It
        # makes ``_check``'s checks in ``_check``'s order: the access
        # filter, then one page-entry lookup and flag test, leaving the
        # raise to ``PageTable.check`` (faults carry the same
        # page-aligned address).  Unmaterialized pages read as zeros.
        offset = address & PAGE_MASK
        if offset > PAGE_SIZE - 8:
            return _U64.unpack(self.read_bytes(address, 8, check=check))[0]
        if self.access_filter is not None:
            self.access_filter(address, 8, "read", self.context)
        vpn = address >> PAGE_SHIFT
        if check:
            entry = self.page_table._entries.get(vpn)
            if entry is None or not entry.readable:
                entry = self.page_table.check(vpn << PAGE_SHIFT,
                                               "read")  # raises
            entry.accessed = True
        page = self.pages.get(vpn)
        if page is None:
            return 0
        return _U64.unpack_from(page, offset)[0]

    def write_u64(self, address: int, value: int, *,
                  check: bool = True) -> None:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8:
            vpn = address >> PAGE_SHIFT
            code_pages = self.icache.code_pages
            # Same possible-code-write test as ``write_bytes`` (the
            # 8-byte store spans at most vpn-1..vpn given the
            # single-page offset): anything near cached code takes the
            # generic path with its invalidation sweep.
            if (vpn not in code_pages
                    and (address - _DECODE_REACH) >> PAGE_SHIFT
                    not in code_pages):
                if self.access_filter is not None:
                    self.access_filter(address, 8, "write", self.context)
                if check:
                    entry = self.page_table._entries.get(vpn)
                    if entry is None or not entry.writable:
                        entry = self.page_table.check(vpn << PAGE_SHIFT,
                                                       "write")  # raises
                    entry.accessed = True
                    entry.dirty = True
                page = self.pages.get(vpn)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self.pages[vpn] = page
                _U64.pack_into(page, offset, value & _U64_MASK)
                return
        self.write_bytes(address, _U64.pack(value & _U64_MASK), check=check)

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: execute-permission-checked read."""
        return self.read_bytes(address, size, access="execute")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def protect(self, start: int, size: int, perms: str) -> None:
        """Change permissions for every page in ``[start, start+size)``."""
        first = page_number(start)
        last = page_number(start + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.set_perms(vpn, perms)

    def page_entry(self, address: int) -> Optional[PageEntry]:
        return self.page_table.entry_for_address(address)

    def footprint_pages(self) -> int:
        """Number of materialized backing pages (for resource tests)."""
        return len(self.pages)
