"""Function fingerprinting on extracted PC traces (paper §6.4, use
case 2): call/ret slicing, position-independent normalization,
set-intersection similarity, a synthetic reference corpus, the
measurement model shared with NV-S, and the §8.3 sequence-alignment
matcher."""

from .corpus import (
    CorpusFunction,
    DEFAULT_CORPUS_SIZE,
    generate_corpus,
)
from .measurement import (
    apply_measurement_noise,
    measured_trace,
    retire_unit_starts,
)
from .sequence import (
    downsample,
    local_alignment_score,
    sequence_similarity,
)
from .similarity import (
    FingerprintIndex,
    MatchResult,
    PcSet,
    rank_victims,
    set_similarity,
)
from .slicing import (
    FunctionTrace,
    JUMP_THRESHOLD,
    function_traces_of_length,
    slice_trace,
)

__all__ = [
    "CorpusFunction",
    "DEFAULT_CORPUS_SIZE",
    "FingerprintIndex",
    "FunctionTrace",
    "JUMP_THRESHOLD",
    "MatchResult",
    "PcSet",
    "apply_measurement_noise",
    "downsample",
    "function_traces_of_length",
    "generate_corpus",
    "local_alignment_score",
    "measured_trace",
    "rank_victims",
    "retire_unit_starts",
    "sequence_similarity",
    "set_similarity",
    "slice_trace",
]
