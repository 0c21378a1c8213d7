"""Per-set BTB stamps validate cached superblock chains soundly.

``Superblock.btb_valid`` re-peeks only the recorded lookups whose set
stamp (``BTB.set_generation``) moved since the chain last checked.
That is sound only if every mutation that can change a lookup result
bumps the stamp of the set it touched.  This property test drives each
backend, with and without partitioning, through seeded random BTB
operations and checks after every one that the stamp-validated verdict
equals a full re-peek of every recorded lookup.
"""

import random

import pytest

from repro.cpu import BTB, generation
from repro.cpu.config import BTB_BACKENDS, backend_generation
from repro.cpu.decoded import build_superblock
from repro.isa import Assembler, Kind
from repro.memory import VirtualMemory

REGION = 0x0040_0000
BLOCKS = 24
KINDS = (Kind.DIRECT_JUMP, Kind.COND_JUMP, Kind.CALL, Kind.RET,
         Kind.INDIRECT_JUMP)


def _memory():
    """Straight-line nops over ``BLOCKS`` fetch blocks: a chain built
    at any pc records one lookup per block until a lookup hits."""
    asm = Assembler(base=REGION)
    for _ in range(BLOCKS * 32):
        asm.emit("nop")
    asm.emit("hlt")
    memory = VirtualMemory()
    asm.assemble().load_into(memory, perms="rwx")
    return memory


def _full_repeek(chain, btb):
    """The chain's validity with no stamp: re-peek every record."""
    for pc, entry, offset, target, _ in chain.lookups:
        now = btb.peek(pc)
        if now is not entry or (now is not None and (
                now.offset != offset or now.target != target)):
            return False
    return True


def _anchor(btb, rng):
    """An anchor pc that lands in the region's sets: inside the region,
    its tag-truncation aliases, and other tags in the same sets."""
    backend = btb.backend
    other_tag = backend.sets << backend.index_shift
    alias = 1 << backend.tag_keep_bits
    pc = REGION + rng.randrange(BLOCKS * 32)
    if rng.random() < 0.4:
        pc &= ~((1 << backend.index_shift) - 1)     # an indexed pc
    roll = rng.random()
    if roll < 0.15:
        return pc + other_tag
    if roll < 0.25:
        return pc + alias
    return pc


def _step(btb, rng, anchors):
    """Apply one random BTB operation."""
    valid = btb.valid_entries()
    roll = rng.random()
    if roll < 0.30 or not valid:
        anchor = _anchor(btb, rng)
        anchors.append(anchor)
        btb.allocate(anchor, REGION + 32 * rng.randrange(4),
                     rng.choice(KINDS))
    elif roll < 0.45 and anchors:
        # re-allocate a known anchor: in place while it lives
        btb.allocate(rng.choice(anchors), REGION + 32 * rng.randrange(4),
                     rng.choice(KINDS))
    elif roll < 0.55:
        btb.update_target(rng.choice(valid),
                          REGION + 32 * rng.randrange(4))
    elif roll < 0.68:
        btb.deallocate(rng.choice(valid))
    elif roll < 0.74:
        btb.evict_spurious(rng)
    elif roll < 0.76:
        btb.flush()
    elif roll < 0.80:
        btb.flush_indirect()
    elif roll < 0.90:
        btb.touch(rng.choice(valid))
    else:
        btb.current_domain = rng.randrange(3)


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("backend", sorted(BTB_BACKENDS))
def test_stamp_verdict_equals_full_repeek(backend, partitioned):
    rng = random.Random(f"stamps-{backend}-{partitioned}")
    btb = BTB(backend_generation(backend, base=generation("skylake"),
                                 btb_partitioning=partitioned))
    memory = _memory()
    starts = [REGION + 32 * block + offset
              for block in range(BLOCKS) for offset in (0, 5, 17)]

    def build():
        return build_superblock(memory, btb, rng.choice(starts), True)

    anchors = []
    eager = [build() for _ in range(24)]
    lazy = [build() for _ in range(12)]
    for step in range(400):
        _step(btb, rng, anchors)
        if step % 10 == 0:
            # chains built at every point of the sequence, not only
            # on an empty BTB
            eager[rng.randrange(len(eager))] = build()
            lazy[rng.randrange(len(lazy))] = build()
        for chain in eager:
            assert chain.btb_valid(btb) == _full_repeek(chain, btb), (
                step, chain.lookups)
        if step % 7 == 6:
            # these see several operations between two checks
            for chain in lazy:
                assert chain.btb_valid(btb) == _full_repeek(chain, btb), (
                    step, chain.lookups)


@pytest.mark.parametrize("backend", sorted(BTB_BACKENDS))
def test_set_stamps_move_with_generation(backend):
    """Every operation that bumps ``generation`` bumps at least one set
    stamp, and one that leaves it alone (``touch``, an unpartitioned
    domain switch, a flush that drops nothing) bumps none."""
    rng = random.Random(f"moves-{backend}")
    btb = BTB(backend_generation(backend, base=generation("skylake")))
    anchors = []
    for _ in range(300):
        generation_before = btb.generation
        stamps_before = list(btb.set_generation)
        _step(btb, rng, anchors)
        moved = btb.set_generation != stamps_before
        assert moved == (btb.generation != generation_before)
