"""Fingerprint similarity (§6.4 step 2).

The paper's metric: convert the victim's function-level dynamic trace
``t`` to a set ``S`` of position-independent PCs, keep a reference set
``S*`` of static PCs per known function, and score

    similarity = |S ∩ S*| / |S|.

Variable-length encoding does the heavy lifting: instruction lengths
depend on opcodes and addressing modes, so the set of relative PC
values is a high-entropy signature of the instruction sequence.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .slicing import FunctionTrace


def _bin_popcount(bits: int) -> int:
    """Set bits of a non-negative int, for Pythons before 3.10."""
    return bin(bits).count("1")


#: popcount of a non-negative int: ``int.bit_count`` where it exists
#: (3.10+), since a corpus score with it takes about a quarter of the
#: time it takes counting ``bin``'s digits
_popcount: Callable[[int], int]
if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:
    _popcount = _bin_popcount


class PcSet(tuple):
    """A PC trace or set as a tuple, plus its offset bitmask.

    The tuple is the caller's pcs unchanged (order and duplicates
    included), so equality, hashing, iteration, ``repr`` and JSON
    output are those of the plain tuple, and a pickle rebuilds the
    PcSet from it.  Construction also computes, once:

    * ``base``: the smallest pc (0 when empty);
    * ``bits``: an int with bit ``pc - base`` set for each distinct pc;
    * ``count``: the number of distinct pcs (``bits``' popcount).

    The mask has one bit per byte of the span ``max - base``, so a
    PcSet is meant for position-independent pcs (relative to a
    function entry, or sharing one absolute offset), whose span is a
    function's size: ``generate_corpus`` builds its sets as PcSets.
    Traces that may hold a far pc (a slice can keep a far jump) stay
    plain and take the frozenset path.
    """

    base: int
    bits: int
    count: int

    def __new__(cls, pcs: Iterable[int] = ()) -> "PcSet":
        self = super().__new__(cls, pcs)
        if self:
            base = min(self)
            top = max(self)
            # binary digits, most significant (pc == top) first; a
            # bytearray write per pc and one parse are cheaper than
            # or-ing a growing int per pc
            digits = bytearray(b"0") * (top - base + 1)
            for pc in self:
                digits[top - pc] = 49  # ord("1")
            bits = int(digits, 2)
            count = digits.count(49)
        else:
            base = bits = count = 0
        self.base = base
        self.bits = bits
        self.count = count
        return self

    def __reduce__(self):
        return (PcSet, (tuple(self),))


def set_similarity(victim: Iterable[int],
                   reference: Iterable[int]) -> float:
    """``|S ∩ S*| / |S|`` over position-independent PC sets.

    When both arguments are ``PcSet`` objects, the mask with the
    lower base is shifted right by the base difference, so bit ``i``
    of both stands for the same pc, and the popcount of their AND is
    ``|S ∩ S*|``.  Any other pairing hashes only the victim into a
    set and walks the reference once against it, so a reference
    tuple or list is never copied (a one-off iterable costs more to
    mask than to hash).  Both paths divide the same two integer
    counts, so every score is bit-identical.
    """
    if isinstance(victim, PcSet) and isinstance(reference, PcSet):
        count = victim.count
        if not count:
            return 0.0
        shift = reference.base - victim.base
        if shift >= 0:
            common = (victim.bits >> shift) & reference.bits
        else:
            common = victim.bits & (reference.bits >> -shift)
        return _popcount(common) / count
    victim_set = frozenset(victim)
    if not victim_set:
        return 0.0
    return len(victim_set.intersection(reference)) / len(victim_set)


@dataclass(frozen=True)
class MatchResult:
    """Ranked similarity of one victim trace against one reference."""

    reference: str
    similarity: float


class FingerprintIndex:
    """Reference-function database (the attacker's offline corpus).

    References are *static* relative-PC sets — the paper deliberately
    avoids enumerating dynamic paths of reference functions (§6.4).
    """

    def __init__(self) -> None:
        self._references: Dict[str, frozenset] = {}

    def add_reference(self, name: str,
                      static_pcs: Iterable[int]) -> None:
        """Register reference function ``name`` with its static PCs
        (already relative to the function entry)."""
        self._references[name] = frozenset(static_pcs)

    def __len__(self) -> int:
        return len(self._references)

    def references(self) -> List[str]:
        return sorted(self._references)

    # ------------------------------------------------------------------
    def score(self, victim: FunctionTrace,
              reference: str) -> float:
        return set_similarity(victim.normalized(),
                              self._references[reference])

    def match(self, victim: FunctionTrace,
              top: Optional[int] = None) -> List[MatchResult]:
        """Similarities of ``victim`` against every reference,
        best first."""
        victim_set = victim.normalized_set()
        results = [
            MatchResult(name, set_similarity(victim_set, pcs))
            for name, pcs in self._references.items()
        ]
        results.sort(key=lambda r: r.similarity, reverse=True)
        return results[:top] if top is not None else results

    def best_match(self, victim: FunctionTrace) -> MatchResult:
        matches = self.match(victim, top=1)
        if not matches:
            raise ValueError("empty fingerprint index")
        return matches[0]


def rank_victims(victims: Sequence[Tuple[str, FunctionTrace]],
                 reference_pcs: Iterable[int],
                 top: Optional[int] = None
                 ) -> List[Tuple[str, float]]:
    """Score many victim traces against ONE reference — the Fig. 12
    view (which victim looks most like GCD / bn_cmp?)."""
    reference_set = frozenset(reference_pcs)
    scored = [
        (name, set_similarity(trace.normalized(), reference_set))
        for name, trace in victims
    ]
    scored.sort(key=lambda item: item[1], reverse=True)
    return scored[:top] if top is not None else scored
