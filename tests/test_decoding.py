import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    AGGRESSIVE,
    AUTOREGRESSIVE,
    DecodeConfig,
    NgramScorer,
    ScriptedEditScorer,
    SuffixMatch,
    Vocab,
    aggressive_decode,
    argmax_with_tiebreak,
    beam_decode,
    decode,
    find_bifurcation,
    find_suffix_match,
    greedy_decode,
    identity_scorer,
    prepare_input,
    tokenize,
)
from aggdec.decoding import _choose
from aggdec.scorers import log_softmax
from oracles import naive_suffix_match, scan_argmax

WORDS = ["a", "b", "c", "d", "X"]


def ids(text, vocab):
    return tokenize(text, "whitespace", vocab)


# --- argmax ------------------------------------------------------------------


def test_argmax_tiebreak_smallest_id():
    assert argmax_with_tiebreak([0.1, 0.9, 0.9]) == 1


def test_argmax_pad_masked(vocab):
    row = np.zeros(len(vocab))
    row[vocab.pad] = float("-inf")
    assert argmax_with_tiebreak(row) == 0


def test_argmax_all_masked_rejected():
    with pytest.raises(ValueError):
        argmax_with_tiebreak([float("-inf")] * 4)


def test_argmax_agrees_with_scan_oracle(rng):
    for _ in range(1000):
        row = rng.normal(size=rng.integers(2, 20))
        # inject ties now and then
        if rng.random() < 0.3:
            row[rng.integers(len(row))] = row.max()
        assert argmax_with_tiebreak(row) == scan_argmax(row)


# --- block chooser -------------------------------------------------------------

NEG = float("-inf")
NAN = float("nan")

# a few repeated values make ties common; -inf entries are masked tokens
_logit = st.one_of(st.sampled_from([NEG, -3.0, 0.0, 0.5, 2.0]), st.floats(-40, 40))
_block = st.integers(1, 9).flatmap(
    lambda vocab_size: st.lists(
        st.lists(_logit, min_size=vocab_size, max_size=vocab_size)
        .filter(lambda row: max(row) > NEG),
        min_size=1,
        max_size=8,
    )
)


@settings(max_examples=200, deadline=None)
@given(rows=_block, first=st.integers(0, 50))
def test_block_chooser_agrees_with_scan_oracle_row_by_row(rows, first):
    tokens, log_probs = _choose(np.array(rows), first)
    assert tokens == [scan_argmax(row) for row in rows]
    for row, tok, log_prob in zip(rows, tokens, log_probs):
        assert log_prob == pytest.approx(log_softmax(np.array(row))[tok], rel=1e-12, abs=1e-12)


# numpy warns on the -inf - -inf of a masked row before the error is raised
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@settings(max_examples=100, deadline=None)
@given(rows=_block, first=st.integers(0, 50), data=st.data())
def test_block_chooser_names_the_bad_row(rows, first, data):
    bad = data.draw(st.integers(0, len(rows)))  # where the bad row goes
    width = len(rows[0])
    masked = [NEG] * width
    nan_row, inf_row = list(rows[0]), list(rows[0])
    nan_row[data.draw(st.integers(0, width - 1))] = NAN
    inf_row[data.draw(st.integers(0, width - 1))] = float("inf")
    cases = ((masked, "all logits are masked"), (nan_row, "NaN logit"), (inf_row, "infinite logit"))
    for row, message in cases:
        block = np.array(rows[:bad] + [row] + rows[bad:])
        with pytest.raises(ValueError, match=f"^{message} at position {first + bad}$"):
            _choose(block, first)


class _BreaksAt(ScriptedEditScorer):
    """Identity scorer that writes ``value`` into ``cells`` of the row it
    scores for decoder position 5."""

    def __init__(self, vocab, cells, value):
        super().__init__((), vocab)
        self.cells, self.value = cells, value

    def score_positions(self, state, prefix, positions):
        rows = super().score_positions(state, prefix, positions)
        for k, p in enumerate(positions):
            if p == 5:
                rows[k, self.cells] = self.value
        return rows


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize(
    "cells, value, message", [(0, NAN, "NaN logit"), (slice(None), NEG, "all logits are masked")]
)
def test_contract_breach_raises_at_greedys_position_in_both_modes(vocab, cells, value, message):
    x = prepare_input(ids("a b c d X a b c", vocab), vocab)
    scorer = _BreaksAt(vocab, cells, value)
    for mode, l_max in (("greedy", None), ("aggressive", None), ("aggressive", 3)):
        with pytest.raises(ValueError, match=f"^{message} at position 5$"):
            decode(scorer, x, DecodeConfig(mode=mode, l_max=l_max))


# --- suffix matching ---------------------------------------------------------


def test_suffix_match_initial_bos(vocab):
    x = prepare_input(ids("a b", vocab), vocab)
    assert find_suffix_match((vocab.bos,), x) == SuffixMatch(i=0, q=0)


def test_suffix_match_grows_past_ambiguity(vocab):
    # x = [BOS,a,b,a,c,PAD]; output ending [b,a]: "a" is ambiguous, "b a" unique at i=3
    x = prepare_input(ids("a b a c", vocab), vocab)
    o = (vocab.bos, vocab.id_of("b"), vocab.id_of("a"))
    assert find_suffix_match(o, x) == SuffixMatch(i=3, q=1)


def test_suffix_match_novel_token_none(vocab):
    x = prepare_input(ids("a b", vocab), vocab)
    assert find_suffix_match((vocab.bos, vocab.id_of("X")), x) is None


def test_suffix_match_never_anchors_pad(vocab):
    # the only occurrence of "b" inside the window is at i=2; PAD never anchors
    x = prepare_input(ids("a b", vocab), vocab)
    match = find_suffix_match((vocab.bos, vocab.id_of("b")), x)
    assert match is not None and match.i <= len(x) - 2


@given(
    o_tail=st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=10),
    raw=st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=12),
)
def test_suffix_match_agrees_with_naive_oracle(o_tail, raw):
    vocab = Vocab(WORDS)
    x = prepare_input(tuple(raw), vocab)
    o = (vocab.bos,) + tuple(o_tail)
    got = find_suffix_match(o, x)
    expected = naive_suffix_match(o, x)
    assert (got is None and expected is None) or (got.i, got.q) == expected


@given(
    o_tail=st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=10),
    raw=st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=12),
)
def test_suffix_match_soundness(o_tail, raw):
    """Any returned match really is a unique occurrence within x[0..n]."""
    vocab = Vocab(WORDS)
    x = prepare_input(tuple(raw), vocab)
    o = (vocab.bos,) + tuple(o_tail)
    match = find_suffix_match(o, x)
    if match is None:
        return
    i, q = match.i, match.q
    j = len(o) - 1
    n = len(x) - 2
    suffix = o[j - q: j + 1]
    assert tuple(x[i - q: i + 1]) == tuple(suffix)
    occurrences = [
        k for k in range(q, n + 1) if tuple(x[k - q: k + 1]) == tuple(suffix)
    ]
    assert occurrences == [i]


# --- bifurcation ---------------------------------------------------------------


def test_bifurcation_first_disagreement():
    assert find_bifurcation((4, 5, 9), (4, 5, 6)) == 3


def test_bifurcation_none_when_equal():
    assert find_bifurcation((4, 5), (4, 5)) is None


def test_bifurcation_at_pad_slot(vocab):
    predictions = (vocab.id_of("a"), vocab.eos)
    copied = (vocab.id_of("a"), vocab.pad)
    assert find_bifurcation(predictions, copied) == 2


def test_bifurcation_rejects_length_mismatch():
    with pytest.raises(ValueError):
        find_bifurcation((1, 2), (1,))
    with pytest.raises(ValueError):
        find_bifurcation((), ())


# --- greedy ---------------------------------------------------------------------


def test_greedy_identity(vocab):
    scorer = identity_scorer(vocab)
    x = prepare_input(ids("a b", vocab), vocab)
    result = greedy_decode(scorer, x, DecodeConfig())
    assert result.output == (vocab.bos,) + ids("a b", vocab) + (vocab.eos,)
    assert result.trace.sequential_iterations == 3
    assert all(r.mode == AUTOREGRESSIVE for r in result.trace.iterations)


def test_greedy_scripted(vocab):
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    result = greedy_decode(scorer, prepare_input(pair[0], vocab), DecodeConfig())
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert result.trace.sequential_iterations == 5


def test_greedy_rejects_wrong_mode(vocab):
    with pytest.raises(ValueError):
        greedy_decode(identity_scorer(vocab), prepare_input((), vocab),
                      DecodeConfig(mode="aggressive"))


# --- aggressive -------------------------------------------------------------------


def test_aggressive_untouched_input_single_pass(vocab):
    scorer = identity_scorer(vocab)
    x = prepare_input(ids("a b c", vocab), vocab)
    result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + ids("a b c", vocab) + (vocab.eos,)
    assert result.trace.sequential_iterations == 1
    rec = result.trace.iterations[0]
    assert rec.mode == AGGRESSIVE
    assert rec.positions_scored == 4 and rec.accepted == 4
    assert rec.suffix_match == (0, 0) and rec.bifurcation == 4


def test_aggressive_hand_trace(vocab):
    """Substitution example: one pass to the disagreement, one autoregressive
    step, one re-entry pass; 3 sequential iterations against greedy's 5."""
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    first, second, third = result.trace.iterations
    assert first.mode == AGGRESSIVE
    assert first.suffix_match == (0, 0)
    assert first.positions_scored == 5 and first.accepted == 3
    assert first.bifurcation == 3
    assert second.mode == AUTOREGRESSIVE
    assert third.mode == AGGRESSIVE
    assert third.suffix_match == (4, 0) and third.accepted == 1
    greedy = greedy_decode(scorer, x, DecodeConfig())
    assert greedy.output == result.output
    assert greedy.trace.sequential_iterations == 5


def test_aggressive_lmax_window_cap(vocab):
    scorer = identity_scorer(vocab)
    raw = ids("a b c d X a b c d X", vocab)
    x = prepare_input(raw, vocab)
    capped = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", l_max=2))
    unlimited = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert capped.output == unlimited.output
    assert unlimited.trace.sequential_iterations == 1
    assert capped.trace.sequential_iterations == 6  # ceil(11 / 2)


def test_aggressive_max_len_truncation_matches_greedy(vocab):
    scorer = identity_scorer(vocab)
    raw = ids("a b c d X a b", vocab)
    x = prepare_input(raw, vocab)
    for max_len in (1, 2, 3, 5, 7, 8, 9):
        cfg_g = DecodeConfig(mode="greedy", max_len=max_len)
        cfg_a = DecodeConfig(mode="aggressive", max_len=max_len)
        greedy = greedy_decode(scorer, x, cfg_g)
        aggressive = aggressive_decode(scorer, x, cfg_a)
        assert greedy.output == aggressive.output
        assert len(greedy.output) - 1 <= max_len


# --- beam ------------------------------------------------------------------------


def test_beam_size_one_reproduces_greedy(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=6)) for _ in range(12)]
    scorer = NgramScorer(corpus, order=2, smoothing=0.2, vocab=vocab, copy_bias=1.5)
    for raw in corpus[:6]:
        x = prepare_input(raw, vocab)
        greedy = greedy_decode(scorer, x, DecodeConfig())
        beam = beam_decode(scorer, x, DecodeConfig(mode="beam", beam_size=1))
        assert beam.output == greedy.output


def test_beam_peaked_scorer_returns_target(vocab):
    pair = (ids("a b c", vocab), ids("a X c", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = beam_decode(scorer, x, DecodeConfig(mode="beam", beam_size=5))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)


def test_beam_iterations_equal_output_length(vocab):
    pair = (ids("a b c", vocab), ids("a X c", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = beam_decode(scorer, x, DecodeConfig(mode="beam", beam_size=5))
    assert result.trace.sequential_iterations == len(result.output) - 1
    assert all(
        r.mode == AUTOREGRESSIVE and r.positions_scored == 1 for r in result.trace.iterations
    )


def test_beam_max_len_truncation(vocab):
    scorer = identity_scorer(vocab)
    x = prepare_input(ids("a b c d", vocab), vocab)
    beam = beam_decode(scorer, x, DecodeConfig(mode="beam", beam_size=1, max_len=2))
    greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy", max_len=2))
    assert beam.output == greedy.output
    assert beam.output[-1] != vocab.eos


def test_beam_size_one_matches_greedy_on_transformer(rng):
    """Exercises per-hypothesis session forking with a cache-backed scorer."""
    from aggdec import TinyTransformer, TransformerConfig, Vocab

    tvocab = Vocab([f"w{i}" for i in range(20)])
    scorer = TinyTransformer(TransformerConfig(2, 2, 32, 4, 48, seed=5), tvocab)
    for _ in range(6):
        raw = tuple(int(t) for t in rng.integers(4, len(tvocab), size=rng.integers(1, 9)))
        x = prepare_input(raw, tvocab)
        greedy = greedy_decode(scorer, x, DecodeConfig(max_len=20))
        beam = beam_decode(scorer, x, DecodeConfig(mode="beam", beam_size=1, max_len=20))
        assert beam.output == greedy.output


# --- the equivalence property -------------------------------------------------------


def _scorer_from_label(label, vocab, corpus):
    if label == "identity":
        return identity_scorer(vocab)
    if label == "scripted":
        pairs = {}
        for idx, raw in enumerate(corpus):
            if raw not in pairs:
                # deterministic pseudo-edit: rotate one token
                edited = list(raw)
                if edited:
                    pos = idx % len(edited)
                    edited[pos] = 4 + ((edited[pos] - 4 + 1) % 5)
                pairs[raw] = tuple(edited)
        return ScriptedEditScorer(list(pairs.items()), vocab)
    return NgramScorer(corpus or [(4,)], order=2, smoothing=0.3, vocab=vocab,
                        copy_bias=1.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    label=st.sampled_from(["identity", "scripted", "ngram"]),
    l_max=st.sampled_from([1, 2, 3, 7, None]),
    max_len=st.sampled_from([2, 5, None]),
)
def test_equivalence_property(data, label, l_max, max_len):
    """The core guarantee: aggressive output == greedy output, token for token,
    for any prefix-consistent scorer, any l_max, and any max_len."""
    vocab = Vocab(WORDS)
    corpus = data.draw(
        st.lists(
            st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=12)
            .map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    scorer = _scorer_from_label(label, vocab, corpus)
    for raw in corpus:
        x = prepare_input(raw, vocab)
        greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy", max_len=max_len))
        aggressive = aggressive_decode(
            scorer, x, DecodeConfig(mode="aggressive", l_max=l_max, max_len=max_len)
        )
        assert aggressive.output == greedy.output
        # iteration dominance: every parallel pass accepts at least one token
        assert (
            aggressive.trace.sequential_iterations
            <= greedy.trace.sequential_iterations
        )
        # accepted-prefix soundness at every iteration boundary
        boundary = 1
        for record in aggressive.trace.iterations:
            boundary += record.accepted
            assert aggressive.output[:boundary] == greedy.output[:boundary]


@pytest.mark.parametrize("label", ["scripted", "ngram"])
def test_score_is_the_sum_of_greedy_path_log_probs(label, rng):
    """Both decoders report the same score: the oracle sum of each emitted
    token's log_softmax, scoring every greedy prefix on its own. The scripted
    scorer's log-probs are about -1e-12 each, so the tolerance is relative."""
    vocab = Vocab(WORDS)
    corpus = [tuple(int(t) for t in rng.integers(4, 9, size=rng.integers(0, 12))) for _ in range(12)]
    scorer = _scorer_from_label(label, vocab, corpus)
    for raw in corpus:
        x = prepare_input(raw, vocab)
        greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy"))
        state = scorer.encode(x)
        out = greedy.output
        oracle = sum(
            float(log_softmax(scorer.score_positions(state, out[: j + 1], (j,))[0])[out[j + 1]])
            for j in range(len(out) - 1)
        )
        assert greedy.score == pytest.approx(oracle, rel=1e-12, abs=0)
        for l_max in (2, None):
            aggressive = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", l_max=l_max))
            assert aggressive.score == pytest.approx(greedy.score, rel=1e-12, abs=0)


def test_lmax_monotone_iterations_identity(vocab):
    scorer = identity_scorer(vocab)
    corpus = [ids("a b c d X a b c d", vocab), ids("c a d", vocab), ids("X", vocab)]
    previous = None
    for l_max in (1, 2, 3, 5, 10, 20, 40, None):
        total = 0
        for raw in corpus:
            x = prepare_input(raw, vocab)
            result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", l_max=l_max))
            total += result.trace.sequential_iterations
        if previous is not None:
            assert total <= previous
        previous = total


def test_decode_dispatch(vocab):
    scorer = identity_scorer(vocab)
    x = prepare_input(ids("a", vocab), vocab)
    for mode in ("greedy", "beam", "aggressive"):
        result = decode(scorer, x, DecodeConfig(mode=mode))
        assert result.output == (vocab.bos, vocab.id_of("a"), vocab.eos)
