"""Last Branch Record behaviour."""

from repro.cpu import LBR


def test_records_in_order():
    lbr = LBR()
    lbr.record(0x10, 0x20, cycles_now=5.0, mispredicted=False)
    lbr.record(0x30, 0x40, cycles_now=9.0, mispredicted=True)
    records = lbr.records()
    assert [r.from_pc for r in records] == [0x10, 0x30]
    assert records[1].elapsed_cycles == 4
    assert records[1].mispredicted is True


def test_first_record_elapsed_zero():
    lbr = LBR()
    lbr.record(0x10, 0x20, cycles_now=100.0, mispredicted=False)
    assert lbr.records()[0].elapsed_cycles == 0


def test_ring_depth():
    lbr = LBR(depth=4)
    for index in range(10):
        lbr.record(index, index + 1, cycles_now=float(index),
                   mispredicted=False)
    records = lbr.records()
    assert len(records) == 4
    assert records[0].from_pc == 6


def test_disabled_still_advances_clock():
    """Enclave-mode suppression must not corrupt the next enabled
    record's elapsed-cycle reading."""
    lbr = LBR()
    lbr.record(0x10, 0x20, cycles_now=5.0, mispredicted=False)
    lbr.enabled = False
    lbr.record(0x30, 0x40, cycles_now=50.0, mispredicted=False)
    lbr.enabled = True
    lbr.record(0x50, 0x60, cycles_now=60.0, mispredicted=False)
    records = lbr.records()
    assert len(records) == 2                      # suppressed one gone
    assert records[1].elapsed_cycles == 10        # measured from 50


def test_find_from_and_elapsed_after():
    lbr = LBR()
    lbr.record(0x10, 0x20, cycles_now=0.0, mispredicted=False)
    lbr.record(0x30, 0x40, cycles_now=7.0, mispredicted=False)
    lbr.record(0x10, 0x20, cycles_now=10.0, mispredicted=True)
    lbr.record(0x99, 0xA0, cycles_now=31.0, mispredicted=False)
    assert lbr.find_from(0x10).mispredicted is True   # most recent
    assert lbr.elapsed_after(0x10) == 21
    assert lbr.elapsed_after(0x99) is None            # nothing after
    assert lbr.elapsed_after(0xDEAD) is None


def test_clear():
    lbr = LBR()
    lbr.record(0x10, 0x20, cycles_now=5.0, mispredicted=False)
    lbr.clear()
    assert len(lbr) == 0
    lbr.record(0x10, 0x20, cycles_now=99.0, mispredicted=False)
    assert lbr.records()[0].elapsed_cycles == 0


def test_noise_is_deterministic_per_seed():
    readings = []
    for _ in range(2):
        lbr = LBR(timing_noise=3.0, seed=42)
        lbr.record(0x10, 0x20, cycles_now=0.0, mispredicted=False)
        lbr.record(0x30, 0x40, cycles_now=20.0, mispredicted=False)
        readings.append(lbr.records()[1].elapsed_cycles)
    assert readings[0] == readings[1]


def test_noise_never_negative():
    lbr = LBR(timing_noise=50.0, seed=1)
    for index in range(50):
        lbr.record(0x10, 0x20, cycles_now=index * 1.0,
                   mispredicted=False)
    assert all(r.elapsed_cycles >= 0 for r in lbr.records())


def test_seeded_noisy_readings_across_a_ring_wrap():
    """The noise draw, the clamp to zero and the ring eviction keep
    their order: these readings were taken before ``LbrRecord`` became
    a tuple."""
    lbr = LBR(depth=6, timing_noise=15.0, seed=7)
    for index in range(14):
        lbr.record(0x100 + index, 0x200 + index, cycles_now=index * 12.5,
                   mispredicted=index % 3 == 0)
    records = lbr.records()
    assert [r.from_pc for r in records] == list(range(0x108, 0x10E))
    assert [(r.elapsed_cycles, r.mispredicted) for r in records] == [
        (28, False), (16, True), (18, False), (15, False), (0, True),
        (25, False)]
    assert repr(records[0]) == ("LbrRecord(from_pc=264, to_pc=520, "
                                "elapsed_cycles=28, mispredicted=False)")
