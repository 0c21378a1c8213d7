"""Virtual memory: addressing, paging, sparse storage, EPC hook."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageFault, ProtectionFault
from repro.memory import (BLOCK_SIZE, PAGE_SIZE, PageTable,
                          VirtualMemory, align_up, bits, block_base,
                          block_end, block_offset, page_base,
                          page_number, page_offset, ranges_overlap,
                          same_block, same_page, truncate)

_addr = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestAddressHelpers:
    @given(_addr)
    def test_page_decomposition(self, address):
        assert page_base(address) + page_offset(address) == address
        assert page_number(address) * PAGE_SIZE == page_base(address)

    @given(_addr)
    def test_block_decomposition(self, address):
        assert block_base(address) + block_offset(address) == address
        assert block_end(address) - block_base(address) == BLOCK_SIZE
        assert 0 <= block_offset(address) < 32

    @given(_addr, st.integers(min_value=1, max_value=40))
    def test_truncate_keeps_low_bits(self, address, keep):
        truncated = truncate(address, keep)
        assert truncated < (1 << keep)
        assert truncated == address % (1 << keep)

    @given(_addr)
    def test_alias_shares_btb_low_bits(self, address):
        """The paper's collision construction (§2.3)."""
        alias = address + (1 << 33)
        assert truncate(address, 33) == truncate(alias, 33)
        assert truncate(address, 34) != truncate(alias, 34)

    def test_same_block_and_page(self):
        assert same_block(0x40, 0x5F)
        assert not same_block(0x5F, 0x60)
        assert same_page(0x1000, 0x1FFF)
        assert not same_page(0x1FFF, 0x2000)

    def test_align_up(self):
        assert align_up(0x11, 16) == 0x20
        assert align_up(0x20, 16) == 0x20
        with pytest.raises(ValueError):
            align_up(5, 3)

    def test_bits(self):
        assert bits(0b101100, 2, 4) == 0b11
        with pytest.raises(ValueError):
            bits(1, 4, 2)

    @given(_addr, _addr, st.integers(1, 64), st.integers(1, 64))
    def test_ranges_overlap_symmetric(self, a, b, la, lb):
        assert ranges_overlap(a, a + la, b, b + lb) == \
            ranges_overlap(b, b + lb, a, a + la)


class TestPageTable:
    def test_unmapped_faults(self):
        table = PageTable()
        with pytest.raises(PageFault):
            table.check(0x1000, "read")

    def test_permissions(self):
        table = PageTable()
        table.map_page(1, "r-x")
        table.check(0x1000, "read")
        table.check(0x1000, "execute")
        with pytest.raises(PageFault) as info:
            table.check(0x1000, "write")
        assert info.value.address == 0x1000
        assert info.value.access == "write"

    def test_accessed_dirty_bits(self):
        table = PageTable()
        table.map_page(1, "rw")
        entry = table.check(0x1000, "read")
        assert entry.accessed and not entry.dirty
        table.check(0x1000, "write")
        assert entry.dirty
        table.clear_accessed_dirty()
        assert not entry.accessed and not entry.dirty

    def test_accessed_pages_set(self):
        table = PageTable()
        table.map_page(1, "rw")
        table.map_page(2, "rw")
        table.check(0x2000, "write")
        assert table.accessed_pages() == {2}
        assert table.dirty_pages() == {2}

    def test_set_perms_unmapped(self):
        with pytest.raises(PageFault):
            PageTable().set_perms(5, "rwx")

    def test_bad_perm_string(self):
        with pytest.raises(ValueError):
            PageTable().map_page(0, "rq")


class TestVirtualMemory:
    def test_read_write_roundtrip(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 0x100, "rw")
        memory.write_bytes(0x1010, b"hello")
        assert memory.read_bytes(0x1010, 5) == b"hello"

    def test_cross_page_write(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 2 * PAGE_SIZE, "rw")
        blob = bytes(range(256)) * 2          # spans the page boundary
        memory.write_bytes(0x1F00, blob)
        assert memory.read_bytes(0x1F00, len(blob)) == blob

    def test_u64_roundtrip(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 64, "rw")
        memory.write_u64(0x1008, 0xDEADBEEF12345678)
        assert memory.read_u64(0x1008) == 0xDEADBEEF12345678

    def test_sparse_zero_fill(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 16, "r")
        assert memory.read_bytes(0x1000, 16) == b"\x00" * 16
        assert memory.footprint_pages() == 0

    def test_execute_permission_on_fetch(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 16, "rw")
        with pytest.raises(PageFault):
            memory.fetch(0x1000, 1)

    def test_protect_flips_permissions(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 16, "rx")
        memory.fetch(0x1000, 1)
        memory.protect(0x1000, 16, "r--")
        with pytest.raises(PageFault):
            memory.fetch(0x1000, 1)

    def test_icache_invalidation_on_write(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 64, "rwx")
        memory.icache[0x1008] = ("stale", 1)
        memory.icache[0x1003] = ("stale2", 1)
        memory.write_bytes(0x1008, b"\x90")
        assert 0x1008 not in memory.icache
        # entries up to 9 bytes earlier also invalidated (overlap)
        assert 0x1003 not in memory.icache

    def test_access_filter_rejects(self):
        memory = VirtualMemory()
        memory.map_range(0x1000, 16, "rw")

        def deny(address, size, access, context):
            if context is None:
                raise ProtectionFault("denied")

        memory.access_filter = deny
        with pytest.raises(ProtectionFault):
            memory.read_bytes(0x1000, 4)
        memory.context = object()
        assert memory.read_bytes(0x1000, 4) == b"\x00" * 4

    @given(st.integers(min_value=0, max_value=(1 << 40) - 8),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_u64_any_address(self, address, value):
        memory = VirtualMemory()
        memory.map_range(address, 8, "rw")
        memory.write_u64(address, value)
        assert memory.read_u64(address) == value


# ----------------------------------------------------------------------
# typed-access fast paths against the generic byte path
# ----------------------------------------------------------------------
_BASE_VPN = 0x10
_PERMS = st.sampled_from([None, "r", "rw", "rx", "---"])
_OFFSET = st.one_of(st.integers(0, PAGE_SIZE - 1),
                    st.integers(PAGE_SIZE - 7, PAGE_SIZE - 1),
                    st.integers(0, 16))


@st.composite
def _layouts(draw):
    """Three neighbouring pages (unmapped or mapped with some perms,
    materialized or not), an optional cached decode near them, and an
    access filter: none, one that allows, or one that raises."""
    pages = []
    for _ in range(3):
        pages.append((draw(_PERMS),
                      draw(st.one_of(st.none(), st.binary(min_size=8,
                                                          max_size=8)))))
    low = (_BASE_VPN - 1) * PAGE_SIZE
    code_at = draw(st.one_of(
        st.none(), st.integers(low, low + 3 * PAGE_SIZE - 1)))
    return (pages, code_at, draw(st.integers(1, 10)),
            draw(st.sampled_from(["none", "allow", "raise"])))


def _build(layout):
    pages, code_at, code_length, filter_kind = layout
    memory = VirtualMemory()
    for vpn, (perms, fill) in enumerate(pages, start=_BASE_VPN - 1):
        if perms is not None:
            memory.page_table.map_page(vpn, perms)
        if fill is not None:
            memory.pages[vpn] = bytearray(fill * (PAGE_SIZE // 8))
    if code_at is not None:
        memory.icache[code_at] = ("decoded", code_length)
    calls = []

    def access_filter(address, size, access, context):
        calls.append((address, size, access, context))
        if filter_kind == "raise":
            raise ProtectionFault("refused", address=address,
                                  access=access)

    if filter_kind != "none":
        memory.access_filter = access_filter
    return memory, calls


def _outcome(action):
    try:
        return ("returned", action())
    except (PageFault, ProtectionFault) as error:
        return (type(error), error.address, error.access)


def _observables(memory, calls):
    entries = {}
    for vpn in range(_BASE_VPN - 1, _BASE_VPN + 2):
        entry = memory.page_table.entry(vpn)
        if entry is not None:
            entries[vpn] = (entry.perms(), entry.accessed, entry.dirty)
    return (entries,
            {vpn: bytes(page) for vpn, page in memory.pages.items()},
            memory.code_generation, sorted(memory.icache), calls)


class TestTypedAccessFastPaths:
    """``read_u64``, ``write_u64`` and ``check_fetch`` behave exactly as
    the generic ``read_bytes``/``write_bytes``/``_check`` path they
    bypass: same value, same fault (type, address, access), same
    filter calls, and the same A/D bits, bytes and code generation."""

    def _same(self, layout, fast, reference):
        memory, calls = _build(layout)
        expected_memory, expected_calls = _build(layout)
        assert _outcome(lambda: fast(memory)) == \
            _outcome(lambda: reference(expected_memory))
        assert _observables(memory, calls) == \
            _observables(expected_memory, expected_calls)

    @settings(max_examples=300)
    @given(_layouts(), _OFFSET, st.booleans())
    def test_read_u64(self, layout, offset, check):
        address = _BASE_VPN * PAGE_SIZE + offset
        self._same(
            layout,
            lambda memory: memory.read_u64(address, check=check),
            lambda memory: int.from_bytes(
                memory.read_bytes(address, 8, check=check), "little"))

    @settings(max_examples=300)
    @given(_layouts(), _OFFSET, st.booleans(),
           st.integers(-(1 << 64), (1 << 65)))
    def test_write_u64(self, layout, offset, check, value):
        address = _BASE_VPN * PAGE_SIZE + offset
        data = (value & ((1 << 64) - 1)).to_bytes(8, "little")
        self._same(
            layout,
            lambda memory: memory.write_u64(address, value, check=check),
            lambda memory: memory.write_bytes(address, data, check=check))

    @settings(max_examples=300)
    @given(_layouts(), _OFFSET, st.integers(1, 10))
    def test_check_fetch(self, layout, offset, size):
        address = _BASE_VPN * PAGE_SIZE + offset
        self._same(
            layout,
            lambda memory: memory.check_fetch(address, size),
            lambda memory: memory._check(address, size, "execute", True))
