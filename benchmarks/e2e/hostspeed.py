"""The host's current speed, from a fixed pure-Python probe.

The benchmark runs on a shared host whose speed drifts: the same code
takes 30-50 % longer for spells of seconds to minutes.  Repeats inside
one run cannot remove a spell that covers the whole run, so every timed
stretch is scaled by a probe taken right beside it::

    time at reference speed = measured time * REFERENCE_PROBE_S / probe

The probe is a loop of dict and integer operations, the kind of work
the interpreted simulator does.  Measured in pairs, its time moves with
the program's: over 10-second windows on the reference host, an NV-U
attack's median time ranged over 33 % while its ratio to the probe
ranged over 5 %.  A change to the program does not move the probe, so
a real slowdown still shows in full.
"""

from __future__ import annotations

import time
from typing import Dict

#: loop iterations of one probe repeat (about 0.3 ms on the reference
#: host)
PROBE_LOOPS = 2000
#: one probe's time in a tight loop on the reference host (2 vCPUs,
#: Intel Xeon at 2.1 GHz, Python 3.11) at its fastest; only the unit of
#: scaled times depends on it
REFERENCE_PROBE_S = 0.00030


def _loop() -> float:
    started = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = i & 63
        table[key] = table.get(key, 0) + (i ^ acc) % 7
        acc = (acc + table[key]) & 0xFFFF
    return time.perf_counter() - started


def probe() -> float:
    """Seconds the probe loop takes now: the faster of two repeats
    after one that warms the caches the program's own work left cold,
    so that the probe follows the host, not the program."""
    _loop()
    return min(_loop(), _loop())


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to
    the reference host's speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
