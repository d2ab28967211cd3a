from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    DecodeConfig,
    ScriptedEditScorer,
    TinyTransformer,
    TransformerConfig,
    Vocab,
    aggressive_decode,
    decode,
    decoder_flops_per_position,
    greedy_decode,
    prepare_input,
)
from aggdec.decoding import argmax_with_tiebreak
from aggdec.scorers import DecodeSession
from aggdec.transformer import _CachedSession
from oracles import PeekingTransformer, ReferenceTransformer, same_predictions


class UncachedTransformer(TinyTransformer):
    """Scores every call from scratch through ``score_positions(state, ...)``."""

    def session(self, x):
        return DecodeSession(self, x)


@pytest.fixture(scope="module")
def tvocab():
    return Vocab([f"w{i}" for i in range(24)])


@pytest.fixture(scope="module")
def small_config():
    return TransformerConfig(encoder_layers=2, decoder_layers=2, model_dim=32,
                             heads=4, ffn_dim=48, seed=7)


@pytest.fixture(scope="module")
def scorer(small_config, tvocab):
    return TinyTransformer(small_config, tvocab)


def random_raw(rng, tvocab, low=1, high=14):
    return tuple(int(t) for t in rng.integers(4, len(tvocab), size=rng.integers(low, high)))


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(0, 1, 32, 4, 48, seed=1)
    with pytest.raises(ValueError):
        TransformerConfig(1, 0, 32, 4, 48, seed=1)
    with pytest.raises(ValueError):
        TransformerConfig(1, 1, 30, 4, 48, seed=1)  # dim not divisible by heads


def test_causal_mask(scorer, tvocab, rng):
    """Logits at position j must not move when tokens after j change."""
    raw = random_raw(rng, tvocab, low=6, high=12)
    x = prepare_input(raw, tvocab)
    state = scorer.encode(x)
    prefix = (tvocab.bos,) + raw
    j = 3
    altered = list(prefix)
    for p in range(j + 1, len(prefix)):
        altered[p] = 4 if altered[p] != 4 else 5
    row = scorer.score_positions(state, prefix, (j,))[0]
    row_altered = scorer.score_positions(state, tuple(altered), (j,))[0]
    assert np.allclose(row, row_altered)


def test_prefix_consistency_argmax(scorer, tvocab, rng):
    """Joint scoring and one-at-a-time scoring pick the same tokens."""
    for _ in range(25):
        raw = random_raw(rng, tvocab)
        x = prepare_input(raw, tvocab)
        state = scorer.encode(x)
        prefix = (tvocab.bos,) + raw
        joint = scorer.score_positions(state, prefix, range(len(prefix)))
        for p in range(len(prefix)):
            single = scorer.score_positions(state, prefix[: p + 1], (p,))[0]
            assert argmax_with_tiebreak(joint[p]) == argmax_with_tiebreak(single)


def test_pad_never_argmax(scorer, tvocab, rng):
    for _ in range(10):
        raw = random_raw(rng, tvocab)
        x = prepare_input(raw, tvocab)
        state = scorer.encode(x)
        prefix = (tvocab.bos,) + raw
        rows = scorer.score_positions(state, prefix, range(len(prefix)))
        assert np.all(np.isneginf(rows[:, tvocab.pad]))
        for row in rows:
            assert argmax_with_tiebreak(row) != tvocab.pad


def test_encode_is_pure(scorer, tvocab):
    raw = (5, 6, 7)
    x = prepare_input(raw, tvocab)
    prefix = (tvocab.bos, 5, 6)
    rows_a = scorer.score_positions(scorer.encode(x), prefix, (0, 1, 2))
    rows_b = scorer.score_positions(scorer.encode(x), prefix, (0, 1, 2))
    assert np.array_equal(rows_a, rows_b)


def test_same_seed_same_weights(small_config, tvocab):
    a = TinyTransformer(small_config, tvocab)
    b = TinyTransformer(small_config, tvocab)
    x = prepare_input((5, 6), tvocab)
    rows_a = a.score_positions(a.encode(x), (tvocab.bos, 5), (0, 1))
    rows_b = b.score_positions(b.encode(x), (tvocab.bos, 5), (0, 1))
    assert np.array_equal(rows_a, rows_b)


def test_incremental_state_matches_scratch(small_config, tvocab, rng):
    """Cached-session decoding reproduces the from-scratch argmax sequence."""
    cached = TinyTransformer(small_config, tvocab)
    scratch = UncachedTransformer(small_config, tvocab)
    for _ in range(8):
        raw = random_raw(rng, tvocab)
        x = prepare_input(raw, tvocab)
        for mode, decode_fn in (("greedy", greedy_decode), ("aggressive", aggressive_decode)):
            cfg = DecodeConfig(mode=mode, max_len=30)
            assert decode_fn(cached, x, cfg).output == decode_fn(scratch, x, cfg).output


def test_cached_session_truncates_on_divergence(scorer, tvocab):
    """Scoring a prefix that disagrees with the cache recomputes from the fork."""
    raw = (5, 6, 7, 8, 9)
    x = prepare_input(raw, tvocab)
    session = scorer.session(x)
    prefix = (tvocab.bos,) + raw
    session.score_positions(prefix, range(len(prefix)))
    diverged = prefix[:3] + (10, 11)
    rows = session.score_positions(diverged, (3, 4))
    state = scorer.encode(x)
    expected = scorer.score_positions(state, diverged, (3, 4))
    assert np.allclose(rows, expected)


def test_decoding_goes_through_the_cached_session(scorer, tvocab, rng, monkeypatch):
    """Greedy and aggressive decoding of the transformer score through its
    cached session, never through the scorer's uncached score_positions."""
    inputs = [prepare_input(random_raw(rng, tvocab), tvocab) for _ in range(3)]
    decoders = [(greedy_decode, DecodeConfig()), (aggressive_decode, DecodeConfig(mode="aggressive"))]
    expected = [run(scorer, x, cfg) for x in inputs for run, cfg in decoders]

    def no_rows(state, prefix, positions):
        raise AssertionError("score_positions was called")

    monkeypatch.setattr(scorer, "score_positions", no_rows)
    assert [run(scorer, x, cfg) for x in inputs for run, cfg in decoders] == expected


def test_decoder_cost_scales_with_layers():
    base = dict(model_dim=64, heads=4, ffn_dim=128)
    deep = TransformerConfig(encoder_layers=6, decoder_layers=6, seed=1, **base)
    shallow = TransformerConfig(encoder_layers=9, decoder_layers=3, seed=1, **base)
    ratio = decoder_flops_per_position(shallow, 20, 20) / decoder_flops_per_position(deep, 20, 20)
    assert ratio == 0.5


# --- bit-identity with the plain forward pass -----------------------------------

ORACLE_CONFIGS = (
    TransformerConfig(encoder_layers=1, decoder_layers=1, model_dim=16, heads=2, ffn_dim=24, seed=3),
    TransformerConfig(encoder_layers=2, decoder_layers=2, model_dim=32, heads=4, ffn_dim=48, seed=7),
    TransformerConfig(encoder_layers=2, decoder_layers=3, model_dim=24, heads=3, ffn_dim=40, seed=11),
    # the benchmark's width, so the matmuls run at its BLAS shapes and strides
    TransformerConfig(encoder_layers=1, decoder_layers=1, model_dim=256, heads=8, ffn_dim=512, seed=0),
)
ORACLE_VOCAB = Vocab([f"w{i}" for i in range(24)])
_token = st.integers(4, len(ORACLE_VOCAB) - 1)
_config = st.integers(0, len(ORACLE_CONFIGS) - 1)


@lru_cache(maxsize=None)
def _model(index, cls=TinyTransformer):
    scorer = cls(ORACLE_CONFIGS[index], ORACLE_VOCAB)
    return scorer, ReferenceTransformer(scorer)


def _walk(data, session, reference, o, steps, accept_all=False):
    """Score copy windows the way the verify loop does, asserting bit-identical
    rows: each window puts its copied tokens after the output ``o``, and the
    accepted part ends in a prediction that may differ from the copy, so the
    next window overwrites the cache from there. Before a window, the session
    may be asked for no positions after any prefix: it answers no rows and
    leaves its cache as it was, so the window still gives the oracle's."""
    for _ in range(steps):
        if data.draw(st.booleans()):
            other = (ORACLE_VOCAB.bos,) + tuple(data.draw(st.lists(_token, max_size=12)))
            none = data.draw(st.sampled_from([(), range(len(other) - 1, len(other) - 1)]))
            assert session.score_positions(other, none).shape == (0, len(ORACLE_VOCAB))
        copied = data.draw(st.lists(_token, min_size=1, max_size=12))
        j = len(o) - 1
        prefix = tuple(o) + tuple(copied[:-1])
        positions = range(j, j + len(copied))
        rows = session.score_positions(prefix, positions)
        assert np.array_equal(rows, reference.score_positions(prefix, positions))
        accepted = len(copied) if accept_all else data.draw(st.integers(1, len(copied)))
        o = o + copied[: accepted - 1] + [data.draw(_token)]
    return o


@settings(max_examples=60, deadline=None)
@given(index=_config, raw=st.lists(_token, min_size=1, max_size=10), data=st.data())
def test_session_logits_equal_oracle_bit_for_bit(index, raw, data):
    """Windows, accept-then-diverge truncation and growth past the initial
    cache capacity (the input length), with the cache's sinusoid rows, give
    the oracle's exact logits."""
    scorer, oracle = _model(index)
    x = prepare_input(tuple(raw), ORACLE_VOCAB)
    _walk(data, scorer.session(x), oracle.session(x), [ORACLE_VOCAB.bos], data.draw(st.integers(1, 10)))


@settings(max_examples=40, deadline=None)
@given(index=_config, raw=st.lists(_token, min_size=1, max_size=10), data=st.data())
def test_forked_session_leaves_its_parent_unchanged(index, raw, data):
    """A fork that writes new rows, from the end of the scored prefix (as beam
    search extends it) or from inside it, does not touch the rows its parent
    keeps, and vice versa."""
    scorer, oracle = _model(index)
    x = prepare_input(tuple(raw), ORACLE_VOCAB)
    session, reference = scorer.session(x), oracle.session(x)
    o = _walk(data, session, reference, [ORACLE_VOCAB.bos], data.draw(st.integers(0, 3)))
    o = _walk(data, session, reference, o, 1, accept_all=True)  # every cached row is kept
    fork, reference_fork = session.fork(), reference.fork()
    cut = data.draw(st.one_of(st.just(len(o)), st.integers(1, len(o))))
    _walk(data, fork, reference_fork, o[:cut], data.draw(st.integers(1, 4)))
    o = _walk(data, session, reference, o, data.draw(st.integers(1, 4)))
    _walk(data, fork, reference_fork, o[:cut], 1)


def test_a_fork_keeps_its_sessions_class_and_attributes(vocab, small_config):
    """A fork of a subclass's session is that subclass, with the attributes
    it set, so every beam hypothesis scores as the first one does: the
    peeking session's fork peeks, and at the same prefix scores the rows
    its parent scores."""
    scorer = PeekingTransformer(small_config, vocab)
    x = prepare_input(tuple(vocab.id_of(w) for w in "a X b c".split()), vocab)
    session = scorer.session(x)
    prefix = x[:4]
    session.score_positions(prefix, range(2))
    fork = session.fork()
    assert type(fork) is type(session) and fork.peeks is session.peeks is True
    assert np.array_equal(fork.score_positions(prefix, range(3)), session.score_positions(prefix, range(3)))


@settings(max_examples=60, deadline=None)
@given(index=_config, raw=st.lists(_token, min_size=1, max_size=10),
       tail=st.lists(_token, max_size=20), data=st.data())
def test_uncached_scoring_equals_oracle_bit_for_bit(index, raw, tail, data):
    """Uncached scoring runs every call from scratch, in any position order."""
    scorer, oracle = _model(index, UncachedTransformer)
    x = prepare_input(tuple(raw), ORACLE_VOCAB)
    prefix = (ORACLE_VOCAB.bos,) + tuple(tail)
    positions = data.draw(st.lists(st.integers(0, len(prefix) - 1), min_size=1, max_size=8))
    rows = scorer.session(x).score_positions(prefix, positions)
    assert np.array_equal(rows, oracle.score_positions(oracle.encode(x), prefix, positions))


@settings(max_examples=40, deadline=None)
@given(index=_config, raw=st.lists(_token, min_size=1, max_size=10),
       tails=st.lists(st.lists(_token, max_size=12), min_size=1, max_size=3), data=st.data())
def test_predictions_equal_rows_bit_for_bit(index, raw, tails, data):
    """The transformer predicts through the default path: a session's
    predict gives each row's argmax and its logit bit for bit, for trees of
    1 to 3 branches, one-position ones and the PAD slot among them. Each
    session is asked as a decode asks it: one output list, extended by a
    tail between calls. A plain session answers each branch as the
    scorer's rows and as the branch alone. The decode loop predicts from its
    cached session, one score_positions call per branch, so a second cached
    session asked for the same rows, branch by branch, gives them bit for
    bit, through cache growth and divergence."""
    scorer, _ = _model(index)
    x = prepare_input(tuple(raw), ORACLE_VOCAB)
    plain = DecodeSession(scorer, x)
    predicting, scoring = scorer.session(x), scorer.session(x)
    pad = ORACLE_VOCAB.pad
    branch = st.tuples(st.lists(_token, max_size=8), st.booleans()).map(
        lambda d: (tuple(d[0]) + (pad,) * d[1]) or (pad,))
    o = [ORACLE_VOCAB.bos]
    for tail in tails:
        o += tail
        j = len(o) - 1
        tree = tuple(data.draw(st.lists(st.one_of(st.just((pad,)), branch), min_size=1, max_size=3)))
        answers, cached = plain.predict(o, tree), predicting.predict(o, tree)
        assert len(answers) == len(cached) == len(tree)
        for b, answer, cached_answer in zip(tree, answers, cached):
            pseudo, positions = tuple(o) + b[:-1], range(j, j + len(b))
            rows = scorer.score_positions(plain.state, pseudo, positions)
            assert same_predictions(answer, rows)
            assert same_predictions(plain.predict(o, (b,))[0], rows)
            assert same_predictions(cached_answer, scoring.score_positions(pseudo, positions))


class _CountingSession(_CachedSession):
    def __init__(self, scorer, x):
        super().__init__(scorer, x)
        self.calls = 0

    def score_positions(self, prefix, positions):
        self.calls += 1
        return super().score_positions(prefix, positions)


class _CountingTransformer(TinyTransformer):
    def session(self, x):
        self.last = _CountingSession(self, x)
        return self.last


class _RowsOnly:
    """A session by duck typing alone, with score_positions and nothing
    else, that counts its calls."""

    def __init__(self, session):
        self._session = session
        self.calls = 0

    def score_positions(self, prefix, positions):
        self.calls += 1
        return self._session.score_positions(prefix, positions)


class _RowsOnlyScorer:
    def __init__(self, scorer):
        self.vocab = scorer.vocab
        self._scorer = scorer

    def session(self, x):
        self.last = _RowsOnly(self._scorer.session(x))
        return self.last


def test_one_scorer_call_per_iteration(small_config, tvocab, rng):
    """Greedy and aggressive decoding make one score_positions call per
    iteration on the transformer's cached session, which is not branching,
    and on a session that has score_positions alone, which the loop asks
    through the default predict. Handed a tree of several branches, either
    would take a call per branch."""
    counting = _CountingTransformer(small_config, tvocab)
    scorers = (counting, _RowsOnlyScorer(counting), _RowsOnlyScorer(ScriptedEditScorer(
        [(tuple(range(4, 14)), (4, 5, 20, 6, 7, 21, 9, 10, 12, 13))], tvocab)))
    inputs = [random_raw(rng, tvocab) for _ in range(12)] + [tuple(range(4, 14))]
    iterations = 0
    for scorer in scorers:
        for raw in inputs:
            x = prepare_input(raw, tvocab)
            for mode in ("greedy", "aggressive"):
                result = decode(scorer, x, DecodeConfig(mode=mode))
                assert scorer.last.calls == result.trace.sequential_iterations
                iterations += result.trace.sequential_iterations
    assert iterations
