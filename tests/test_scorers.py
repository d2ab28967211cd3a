import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    DecodeConfig,
    NgramScorer,
    ScriptedEditScorer,
    Vocab,
    aggressive_decode,
    greedy_decode,
    identity_scorer,
    prepare_input,
    tokenize,
)
from aggdec.decoding import argmax_with_tiebreak
from aggdec.scorers import SCRIPTED_OFF_LOGIT, log_softmax
from oracles import ReferenceNgram


def ids(text, vocab):
    return tokenize(text, "whitespace", vocab)


def test_scripted_identity_pair(vocab):
    pair = (ids("a b", vocab), ids("a b", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = greedy_decode(scorer, x, DecodeConfig())
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)


def test_scripted_substitution(vocab):
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = greedy_decode(scorer, x, DecodeConfig())
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)


def test_scripted_greedy_aggressive_agree(vocab, rng):
    """Both decoders emit the same tokens on every scripted source."""
    words = [vocab.id_of(w) for w in ["a", "b", "c", "d", "X"]]
    pairs = []
    seen = set()
    for _ in range(30):
        src = tuple(rng.choice(words, size=rng.integers(1, 9)))
        if src in seen:
            continue
        seen.add(src)
        tgt = tuple(rng.choice(words, size=rng.integers(1, 9)))
        pairs.append((src, tgt))
    scorer = ScriptedEditScorer(pairs, vocab)
    for src, _ in pairs:
        x = prepare_input(src, vocab)
        greedy = greedy_decode(scorer, x, DecodeConfig())
        aggressive = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
        assert greedy.output == aggressive.output


def test_scripted_unknown_source_decodes_to_itself(vocab):
    scorer = identity_scorer(vocab)
    raw = ids("c a d", vocab)
    result = greedy_decode(scorer, prepare_input(raw, vocab), DecodeConfig())
    assert result.output == (vocab.bos,) + raw + (vocab.eos,)


def test_scripted_off_target_fallback_copies_source(vocab):
    """A prefix that diverged from the target continues by copying the source."""
    pair = (ids("a b c", vocab), ids("a X", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    state = scorer.encode(prepare_input(pair[0], vocab))
    diverged = (vocab.bos, vocab.id_of("b"), vocab.id_of("b"))
    assert scorer.next_token(state, diverged) == vocab.id_of("c")
    exhausted = (vocab.bos,) + ids("b b b", vocab)
    assert scorer.next_token(state, exhausted) == vocab.eos


def test_scripted_rejects_duplicate_sources(vocab):
    pair = (ids("a b", vocab), ids("a b", vocab))
    with pytest.raises(ValueError):
        ScriptedEditScorer([pair, pair], vocab)


def test_scripted_rejects_sentinel_pairs(vocab):
    with pytest.raises(ValueError):
        ScriptedEditScorer([((vocab.eos,), (vocab.id_of("a"),))], vocab)


def test_scripted_prefix_consistency_bit_exact(vocab):
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    state = scorer.encode(x)
    prefix = (vocab.bos,) + pair[0]
    joint = scorer.score_positions(state, prefix, range(len(prefix)))
    for p in range(len(prefix)):
        single = scorer.score_positions(state, prefix[: p + 1], (p,))[0]
        assert np.array_equal(joint[p], single)


_words = st.lists(st.integers(4, 8), max_size=8).map(tuple)


@settings(max_examples=200, deadline=None)
@given(source=_words, target=st.one_of(st.none(), _words), on_script=st.integers(0, 9),
       tail=_words, data=st.data())
def test_scripted_rows_follow_next_token(source, target, on_script, tail, data):
    """Every row of a multi-position call is the one-hot of next_token on its
    own prefix, on script, past the script's end, and after leaving it."""
    vocab = Vocab(["a", "b", "c", "d", "X"])
    pairs = [(source, target)] if target is not None else []
    scorer = ScriptedEditScorer(pairs, vocab)
    state = scorer.encode(prepare_input(source, vocab))
    prefix = (vocab.bos,) + (source if target is None else target)[:on_script] + tail
    positions = data.draw(st.lists(st.integers(0, len(prefix) - 1), unique=True).map(sorted))
    rows = scorer.score_positions(state, prefix, positions)
    assert rows.shape == (len(positions), len(vocab))
    for row, p in zip(rows, positions):
        expected = np.full(len(vocab), SCRIPTED_OFF_LOGIT)
        expected[scorer.next_token(state, prefix[: p + 1])] = 0.0
        expected[vocab.pad] = float("-inf")
        assert np.array_equal(row, expected)


def test_ngram_uniform_counts_tie_break(vocab):
    """With all counted tokens tied, argmax falls to the smallest token id."""
    corpus = [ids("a b c", vocab)]  # every counted token appears exactly once
    scorer = NgramScorer(corpus, order=1, smoothing=1.0, vocab=vocab)
    state = scorer.encode(prepare_input(ids("a", vocab), vocab))
    row = scorer.score_positions(state, (vocab.bos,), (0,))[0]
    tied_max = np.flatnonzero(row == row.max())
    assert len(tied_max) > 1
    assert argmax_with_tiebreak(row) == int(tied_max[0]) == vocab.eos


def test_ngram_huge_copy_bias_is_identity(vocab):
    scorer = NgramScorer([ids("a b", vocab)], order=2, smoothing=0.5, vocab=vocab,
                          copy_bias=1e9)
    raw = ids("d c b a", vocab)
    result = greedy_decode(scorer, prepare_input(raw, vocab), DecodeConfig())
    assert result.output == (vocab.bos,) + raw + (vocab.eos,)


def test_ngram_determinism(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=6)) for _ in range(10)]
    scorer = NgramScorer(corpus, order=2, smoothing=0.1, vocab=vocab, copy_bias=1.0)
    x = prepare_input(corpus[0], vocab)
    state = scorer.encode(x)
    prefix = (vocab.bos,) + corpus[0][:3]
    first = scorer.score_positions(state, prefix, range(len(prefix)))
    expected = first.copy()
    first[:] = 0.0  # rows are the caller's: writing into them changes no later call
    second = scorer.score_positions(scorer.encode(x), prefix, range(len(prefix)))
    assert np.array_equal(second, expected)


def test_ngram_prefix_consistency_bit_exact(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=8)) for _ in range(15)]
    scorer = NgramScorer(corpus, order=3, smoothing=0.2, vocab=vocab, copy_bias=2.0)
    x = prepare_input(corpus[0], vocab)
    state = scorer.encode(x)
    prefix = (vocab.bos,) + corpus[1][:6]
    joint = scorer.score_positions(state, prefix, range(len(prefix)))
    for p in range(len(prefix)):
        single = scorer.score_positions(state, prefix[: p + 1], (p,))[0]
        assert np.array_equal(joint[p], single)


def test_ngram_validation(vocab):
    with pytest.raises(ValueError):
        NgramScorer([(4,)], order=0, smoothing=0.1, vocab=vocab)
    with pytest.raises(ValueError):
        NgramScorer([(4,)], order=1, smoothing=0.0, vocab=vocab)
    with pytest.raises(ValueError):
        NgramScorer([], order=1, smoothing=0.1, vocab=vocab)

    # a non-finite setting fails here, naming the parameter, not as a
    # non-finite logit at decode time
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="smoothing"):
            NgramScorer([(4,)], order=1, smoothing=bad, vocab=vocab)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="copy_bias"):
            NgramScorer([(4,)], order=1, smoothing=0.1, vocab=vocab, copy_bias=bad)


def test_pad_logit_masked_everywhere(vocab):
    scorers = [
        identity_scorer(vocab),
        NgramScorer([ids("a b c", vocab)], order=2, smoothing=0.1, vocab=vocab),
    ]
    raw = ids("a b", vocab)
    x = prepare_input(raw, vocab)
    for scorer in scorers:
        state = scorer.encode(x)
        rows = scorer.score_positions(state, (vocab.bos,) + raw, range(3))
        assert np.all(np.isneginf(rows[:, vocab.pad]))


def test_log_softmax_normalizes():
    row = np.array([0.0, 1.0, float("-inf"), -2.0])
    logp = log_softmax(row)
    assert np.isclose(np.exp(logp[np.isfinite(logp)]).sum(), 1.0)
    assert np.isneginf(logp[2])


def test_log_softmax_rejects_all_masked():
    with pytest.raises(ValueError):
        log_softmax(np.array([float("-inf")] * 3))


_NGRAM_WORDS = ["a", "b", "c", "d", "X"]


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(_words, min_size=1, max_size=6),
    order=st.integers(1, 4),
    smoothing=st.sampled_from([0.1, 0.37, 1.0, 2.5]),
    copy_bias=st.sampled_from([0.0, 2.0, 1e9]),
    source=_words,
    tail=_words,
    as_list=st.booleans(),
    data=st.data(),
)
def test_ngram_rows_match_oracle_bit_for_bit(corpus, order, smoothing, copy_bias, source, tail, as_list, data):
    """Rows for seen and unseen contexts equal the on-demand count formula,
    for any positions and a list or tuple prefix."""
    vocab = Vocab(_NGRAM_WORDS)
    scorer = NgramScorer(corpus, order=order, smoothing=smoothing, vocab=vocab, copy_bias=copy_bias)
    reference = ReferenceNgram(corpus, order, smoothing, vocab, copy_bias)
    x = prepare_input(source, vocab)
    prefix = (vocab.bos,) + tail
    n = len(prefix)
    # every position in order, or any draw of them: unsorted, repeated, a strict subset, none
    positions = data.draw(st.one_of(st.just(range(n)), st.lists(st.integers(0, n - 1), max_size=2 * n)))
    rows = scorer.score_positions(scorer.encode(x), list(prefix) if as_list else prefix, positions)
    assert rows.shape == (len(positions), len(vocab))
    assert np.array_equal(rows, reference.score_positions(x, prefix, positions))


def test_ngram_scorer_is_not_changed_by_decoding(rng):
    """The scorer is immutable: decoding, which visits seen and unseen
    contexts, leaves every attribute byte for byte as constructed."""
    vocab = Vocab(_NGRAM_WORDS)
    corpus = [tuple(int(t) for t in rng.integers(4, 7, size=6)) for _ in range(10)]
    scorer = NgramScorer(corpus, order=3, smoothing=0.1, vocab=vocab, copy_bias=1.0)
    before = pickle.dumps(vars(scorer))
    for raw in corpus[:3] + [(8, 8, 7, 4), (7,)]:
        x = prepare_input(raw, vocab)
        greedy_decode(scorer, x, DecodeConfig())
        aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert pickle.dumps(vars(scorer)) == before
