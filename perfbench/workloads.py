"""Seeded workloads: each turns a seed into input sentences, a vocabulary and a scorer.

Inputs are text, one sentence per decode, rendered from the synthetic word
inventory (``w000``, ``w001``, ...). The vocabulary is always built from the
full word list plus the generated text, so its size does not depend on the
seed. Scorers receive only the generated inputs; the seed never reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from aggdec import (
    NgramScorer,
    Scorer,
    ScriptedEditScorer,
    TinyTransformer,
    TransformerConfig,
    Vocab,
    build_vocab,
    tokenize,
)
from aggdec.core import WHITESPACE
from aggdec.scorers import NEG_INF, SCRIPTED_OFF_LOGIT
from aggdec.synthetic import random_sentence, rewrite_pairs, synthetic_vocab

import reference

# The transformer's weights are part of the program under test, so they stay
# fixed while the seed varies the inputs. Under these weights greedy decoding
# never chose EOS on the inputs tried, so every output runs to max_len and a
# sentence's cost depends on its length; under weights that stop at random
# points, p95 latency moved by half between input seeds.
TRANSFORMER_WEIGHT_SEED = 0


@dataclass(frozen=True)
class Prepared:
    """Everything a timed run needs, built during set-up."""

    texts: tuple[str, ...]
    vocab: Vocab
    scorer: Scorer
    make_reference: Callable[[], tuple]      # -> (frozen reference scorer, its inputs)
    expected: tuple[str, ...] | None = None  # known greedy output, where the scorer fixes it
    transformer: TransformerConfig | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    sentences: int
    warmup: int          # leading sentences decoded in both modes during set-up
    prepare: Callable[[np.random.Generator, int], Prepared]
    # the reference decoder's p50, p95 and mean latency across sentences, in
    # ms, at nominal machine speed; they set the scale of reported times only
    reference_ms: tuple[float, float, float]


def _render(ids, synth: Vocab) -> str:
    return " ".join(synth.surface(t) for t in ids)


def _vocab(synth: Vocab, texts) -> Vocab:
    return build_vocab([" ".join(synth.non_reserved_surfaces()), *texts], WHITESPACE)


def _reference_inputs(vocab: Vocab, texts):
    ids = reference.Ids(vocab.bos, vocab.eos, vocab.pad, len(vocab))
    inputs = [(vocab.bos,) + tokenize(t, WHITESPACE, vocab) + (vocab.pad,) for t in texts]
    return ids, inputs


def _rewrite_texts(rng, count, words, min_len, max_len, edit_rate):
    synth = synthetic_vocab(words)
    pairs = rewrite_pairs(rng, count, synth, min_len, max_len, edit_rate)
    sources = tuple(_render(src, synth) for src, _ in pairs)
    targets = tuple(_render(tgt, synth) for _, tgt in pairs)
    return sources, targets, _vocab(synth, sources + targets)


def scripted_copy(rng: np.random.Generator, count: int) -> Prepared:
    sources, targets, vocab = _rewrite_texts(rng, count, 150, 20, 60, (0.0, 0.1))
    table = [
        (tokenize(src, WHITESPACE, vocab), tokenize(tgt, WHITESPACE, vocab))
        for src, tgt in zip(sources, targets)
    ]

    def make_reference():
        ids, inputs = _reference_inputs(vocab, sources)
        return reference.ScriptedReference(table, ids), inputs

    return Prepared(sources, vocab, ScriptedEditScorer(table, vocab), make_reference, targets)


def ngram_edit(rng: np.random.Generator, count: int) -> Prepared:
    sources, targets, vocab = _rewrite_texts(rng, count, 150, 10, 40, (0.0, 0.3))
    corpus = [tokenize(tgt, WHITESPACE, vocab) for tgt in targets]
    scorer = NgramScorer(corpus, order=3, smoothing=0.1, vocab=vocab, copy_bias=2.0)

    def make_reference():
        ids, inputs = _reference_inputs(vocab, sources)
        return reference.NgramReference(corpus, 3, 0.1, 2.0, ids), inputs

    return Prepared(sources, vocab, scorer, make_reference)


def transformer_e12d2(rng: np.random.Generator, count: int) -> Prepared:
    synth = synthetic_vocab(100)
    sources = tuple(_render(random_sentence(rng, synth, 15, 25), synth) for _ in range(count))
    vocab = _vocab(synth, sources)
    config = TransformerConfig(
        encoder_layers=12, decoder_layers=2, model_dim=256, heads=8, ffn_dim=512,
        seed=TRANSFORMER_WEIGHT_SEED,
    )

    def make_reference():
        ids, inputs = _reference_inputs(vocab, sources)
        return reference.TransformerReference(12, 2, 256, 8, 512, TRANSFORMER_WEIGHT_SEED, ids), inputs

    return Prepared(
        sources, vocab, TinyTransformer(config, vocab), make_reference, transformer=config
    )


# Corpus sizes keep the mean iteration count within a few percent across
# seeds, and one full pass well inside a 35-second window at the baseline
# speed, so every sentence is decoded at least once per run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scripted-copy", 1200, warmup=20, prepare=scripted_copy, reference_ms=(0.59, 1.0, 0.62)),
        Workload("ngram-edit", 1600, warmup=1600, prepare=ngram_edit, reference_ms=(0.2, 0.5, 0.24)),
        Workload("transformer-e12d2", 100, warmup=2, prepare=transformer_e12d2, reference_ms=(62.0, 84.0, 63.0)),
    )
}


# --- a scorer that breaks the contract, for checking the correctness gate ------


class PeekingScorer(Scorer):
    """Copies the input, except that the row for position p predicts EOS
    whenever the prefix already holds a token at p+1.

    That breaks prefix consistency: greedy decoding never passes such a
    prefix, a parallel pass always does, so the two modes disagree.
    """

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def encode(self, x):
        return tuple(x)

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        n = len(state) - 2
        positions = list(positions)
        rows = np.full((len(positions), len(self.vocab)), SCRIPTED_OFF_LOGIT)
        for k, p in enumerate(positions):
            tok = state[p + 1] if p + 1 <= n else self.vocab.eos
            if p + 1 < len(prefix):
                tok = self.vocab.eos
            rows[k, tok] = 0.0
        rows[:, self.vocab.pad] = NEG_INF
        return rows


def peeking_copy(rng: np.random.Generator, count: int) -> Prepared:
    synth = synthetic_vocab(50)
    sources = tuple(_render(random_sentence(rng, synth, 5, 15), synth) for _ in range(count))
    vocab = _vocab(synth, sources)

    def make_reference():
        ids, inputs = _reference_inputs(vocab, sources)
        return reference.ScriptedReference((), ids), inputs

    return Prepared(sources, vocab, PeekingScorer(vocab), make_reference)
