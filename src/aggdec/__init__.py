"""Parallel copy-and-verify sequence decoding for input-preserving rewriting.

Decodes as many tokens as possible per scorer call by assuming the output
copies the input, falls back to one-by-one decoding at disagreements, and
re-enters parallel mode on unique suffix matches — emitting exactly the same
tokens as greedy decoding with far fewer sequential iterations.
"""

from .core import (
    AGGRESSIVE,
    AUTOREGRESSIVE,
    BEAM,
    GREEDY,
    DecodeConfig,
    DecodeTrace,
    IterationRecord,
    TokenIds,
    Vocab,
    build_vocab,
    corpus_to_ids,
    detokenize,
    load_corpus,
    load_parallel_corpus,
    prepare_input,
    strip_sentinels,
    tokenize,
    validate_trace,
)
from .decoding import (
    DecodeResult,
    SuffixMatch,
    aggressive_decode,
    beam_decode,
    decode,
    find_bifurcation,
    find_suffix_match,
    greedy_decode,
)
from .metrics import (
    DepthRow,
    EquivalenceReport,
    LmaxRow,
    SentenceRow,
    bench,
    check_equivalence,
    edit_ratio,
    levenshtein,
    spearman,
    sweep_depth,
)
from .scorers import (
    DecodeSession,
    NgramScorer,
    Scorer,
    ScriptedEditScorer,
    identity_scorer,
)
from .transformer import (
    TinyTransformer,
    TransformerConfig,
    decoder_flops_per_position,
)

__version__ = "0.1.0"
