"""BTB organisation: field extraction, range lookups, takeaways."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.cpu import BTB, generation
from repro.cpu.config import BTB_BACKENDS, backend_generation
from repro.errors import CpuError
from repro.isa import Kind

_addr = st.integers(min_value=0, max_value=(1 << 47) - 1)


@pytest.fixture
def btb():
    return BTB(generation("skylake"))


class TestFields:
    def test_offset_is_low_five_bits(self, btb):
        _, _, offset = btb.fields(0x400415)
        assert offset == 0x15

    @given(_addr)
    def test_tag_truncation_aliases(self, address):
        btb = BTB(generation("skylake"))
        assert btb.aliases(address, address + (1 << 33))
        assert not btb.aliases(address, address + (1 << 32))

    @given(_addr)
    def test_icelake_wider_tag(self, address):
        btb = BTB(generation("icelake"))
        assert not btb.aliases(address, address + (1 << 33))
        assert btb.aliases(address, address + (1 << 34))

    def test_power_of_two_sets_required(self):
        with pytest.raises(CpuError):
            BTB(generation("skylake", btb_sets=300))


class TestRangeLookup:
    """Takeaway 2: hit iff same tag/set and offset >= fetch offset,
    smallest such offset wins."""

    def test_miss_on_empty(self, btb):
        assert btb.lookup(0x400000) is None

    def test_exact_and_below(self, btb):
        btb.allocate(0x400010, target=0x999, kind=Kind.DIRECT_JUMP)
        assert btb.lookup(0x400010) is not None    # equal offset
        assert btb.lookup(0x400008) is not None    # lower fetch offset
        assert btb.lookup(0x400011) is None        # above the entry

    def test_smallest_offset_wins(self, btb):
        low = btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400018, 0x2, Kind.DIRECT_JUMP)
        hit = btb.lookup(0x400002)
        assert hit is low

    def test_range_skips_lower_entries(self, btb):
        btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        high = btb.allocate(0x400018, 0x2, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400010) is high

    def test_different_block_different_set(self, btb):
        btb.allocate(0x400008, 0x1, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400028) is None        # next block

    def test_aliased_pc_hits(self, btb):
        """The cross-address-space collision the attack uses."""
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        assert btb.lookup(0x400000 + (1 << 34)) is not None

    def test_predicted_end_byte_reconstruction(self, btb):
        entry = btb.allocate(0x40041A, 0x1, Kind.DIRECT_JUMP)
        assert btb.predicted_end_byte(0x400401, entry) == 0x40041A
        alias = 0x400401 + (1 << 33)
        assert btb.predicted_end_byte(alias, entry) == 0x40041A + (1 << 33)


class TestUpdate:
    def test_same_branch_updates_in_place(self, btb):
        first = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        second = btb.allocate(0x400010, 0x2, Kind.DIRECT_JUMP)
        assert first is second
        assert first.target == 0x2
        assert btb.occupancy() == 1

    def test_deallocate(self, btb):
        entry = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.deallocate(entry)
        assert btb.lookup(0x400000) is None
        assert btb.stats.deallocations == 1

    def test_lru_eviction_within_set(self):
        btb = BTB(generation("skylake", btb_ways=2))
        # three different tags, same set/offset
        a = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (1 << 20), 0x2, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (2 << 20), 0x3, Kind.DIRECT_JUMP)
        assert btb.stats.evictions == 1
        assert a.target != 0x1 or not a.valid or a.tag != \
            btb.fields(0x400010)[0]

    def test_touch_refreshes_lru(self):
        btb = BTB(generation("skylake", btb_ways=2))
        a = btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400010 + (1 << 20), 0x2, Kind.DIRECT_JUMP)
        btb.touch(a)                       # a becomes most recent
        btb.allocate(0x400010 + (2 << 20), 0x3, Kind.DIRECT_JUMP)
        assert a.valid and a.target == 0x1


class TestFlushes:
    def test_full_flush(self, btb):
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.flush()
        assert btb.occupancy() == 0

    def test_ibrs_flush_spares_direct(self, btb):
        """§4.1: IBRS/IBPB only drop indirect predictions."""
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.allocate(0x400030, 0x2, Kind.COND_JUMP)
        btb.allocate(0x400050, 0x3, Kind.INDIRECT_JUMP)
        btb.allocate(0x400070, 0x4, Kind.RET)
        btb.allocate(0x400090, 0x5, Kind.INDIRECT_CALL)
        btb.flush_indirect()
        kinds = {entry.kind for entry in btb.valid_entries()}
        assert kinds == {Kind.DIRECT_JUMP, Kind.COND_JUMP}


class TestPartitioning:
    def test_domains_do_not_collide(self):
        btb = BTB(generation("skylake", btb_partitioning=True))
        btb.current_domain = 1
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.current_domain = 2
        assert btb.lookup(0x400000) is None     # other domain invisible
        btb.current_domain = 1
        assert btb.lookup(0x400000) is not None

    def test_partitioning_off_by_default(self):
        btb = BTB(generation("skylake"))
        btb.current_domain = 1
        btb.allocate(0x400010, 0x1, Kind.DIRECT_JUMP)
        btb.current_domain = 2
        assert btb.lookup(0x400000) is not None


# ----------------------------------------------------------------------
# the lookup against a reference scan
# ----------------------------------------------------------------------
def reference_peek(btb, pc):
    """What a lookup from ``pc`` must return, scanned from the valid
    entries: same set and tag, and the current domain under
    partitioning; then the smallest offset at or after ``pc``'s (the
    first such way on a tie) on range-hit designs, the same offset on
    tag-exact ones."""
    tag, set_index, offset = btb.fields(pc)
    partitioned = btb.config.btb_partitioning
    visible = [entry for entry in btb.valid_entries()
               if entry.set_index == set_index and entry.tag == tag
               and (not partitioned or entry.domain == btb.current_domain)]
    if not btb.backend.range_hits:
        return next((e for e in visible if e.offset == offset), None)
    after = [entry for entry in visible if entry.offset >= offset]
    return min(after, key=lambda entry: entry.offset, default=None)


def reference_entry_for(btb, pc):
    tag, set_index, offset = btb.fields(pc)
    partitioned = btb.config.btb_partitioning
    return next((entry for entry in btb.valid_entries()
                 if (entry.set_index, entry.tag, entry.offset)
                 == (set_index, tag, offset)
                 and (not partitioned
                      or entry.domain == btb.current_domain)), None)


_KINDS = (Kind.DIRECT_JUMP, Kind.COND_JUMP, Kind.CALL, Kind.RET,
          Kind.INDIRECT_CALL)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("partitioned", [False, True],
                         ids=["shared", "partitioned"])
@pytest.mark.parametrize("backend", tuple(BTB_BACKENDS))
def test_peek_agrees_with_a_reference_scan(backend, partitioned, seed):
    """Seeded allocations, deallocations, target updates, indirect
    flushes and domain switches over a few fetch blocks and their tag
    aliases, so that sets fill, tags collide and domains twin; after
    each, ``peek``, ``lookup`` and ``entry_for`` return the very entry
    the reference scan picks."""
    btb = BTB(backend_generation(backend, base=generation("skylake"),
                                 btb_partitioning=partitioned))
    rng = random.Random(seed)
    alias = 1 << btb.config.tag_keep_bits
    blocks = [0x40_0000 + 0x20 * rng.randrange(64) for _ in range(3)]

    def random_pc():
        return (rng.choice(blocks) + alias * rng.randrange(3)
                + rng.randrange(32))

    for _ in range(400):
        action = rng.random()
        if action < 0.45:
            btb.allocate(random_pc(), random_pc(), rng.choice(_KINDS))
        elif action < 0.65:
            entries = btb.valid_entries()
            if entries:
                btb.deallocate(rng.choice(entries))
        elif action < 0.8:
            entries = btb.valid_entries()
            if entries:
                btb.update_target(rng.choice(entries), random_pc(),
                                  rng.choice(_KINDS))
        elif action < 0.83:
            btb.flush_indirect()
        else:
            btb.current_domain = rng.randrange(3)
        for _ in range(4):
            pc = random_pc()
            expected = reference_peek(btb, pc)
            assert btb.peek(pc) is expected
            assert btb.lookup(pc) is expected
            assert btb.entry_for(pc) is reference_entry_for(btb, pc)
