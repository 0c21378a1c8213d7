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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .slicing import FunctionTrace

#: ``(victim, frozenset(victim))`` of the last exact-tuple victim
#: scored; replaced in one assignment, so the pair is always consistent
_last_victim: Tuple[object, frozenset] = (object(), frozenset())


def set_similarity(victim: Iterable[int],
                   reference: Iterable[int]) -> float:
    """``|S ∩ S*| / |S|`` over position-independent PC sets.

    Only the victim is hashed into a set; the reference is walked once
    against it, so a reference tuple or list is never copied.

    The set of the last exact-``tuple`` victim is kept and reused while
    the same object comes back (an ``is`` compare), so a caller that
    scores one victim tuple against every reference hashes it once.
    Only exact tuples are kept: lists and sets can change in place,
    iterators are one-shot and tuple subclasses may override
    iteration.  At most one victim is held, and scores are
    bit-identical to hashing every call.
    """
    global _last_victim
    last = _last_victim
    if last[0] is victim:
        victim_set = last[1]
    else:
        victim_set = frozenset(victim)
        if type(victim) is tuple:
            _last_victim = (victim, victim_set)
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
