from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    AGGRESSIVE,
    AUTOREGRESSIVE,
    DecodeConfig,
    NgramScorer,
    Scorer,
    ScriptedEditScorer,
    SuffixMatch,
    Vocab,
    aggressive_decode,
    beam_decode,
    decode,
    find_bifurcation,
    find_suffix_match,
    greedy_decode,
    identity_scorer,
    prepare_input,
    tokenize,
)
from aggdec import decoding
from aggdec.decoding import Draft, _check_chosen, argmax_with_tiebreak, propose_draft
from aggdec.scorers import DecodeSession, predictions
from oracles import (
    naive_suffix_match,
    reference_check_chosen,
    reference_decode,
    reference_find_bifurcation,
    scan_argmax,
    scan_suffix_match,
)

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
    """The verify loop's predictions from a block, one argmax over it, are
    the scan's tokens and their logits, and a block whose chosen logits are
    all finite passes the check."""
    block = np.array(rows)
    tokens, chosen = predictions(block)
    assert tokens == [scan_argmax(row) for row in rows]
    assert chosen == [row[scan_argmax(row)] for row in rows]
    _check_chosen(chosen, tokens, first)


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
            tokens, chosen = predictions(block)
            _check_chosen(chosen, tokens, first)


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


@pytest.mark.parametrize(
    "cells, value, message",
    # cell 2 is PAD: 1.0 makes it the finite maximum of the row
    [
        (0, NAN, "NaN logit"),
        (slice(None), NEG, "all logits are masked"),
        (0, float("inf"), "infinite logit"),
        (2, 1.0, "PAD emitted"),
    ],
)
def test_contract_breach_raises_at_greedys_position_in_both_modes(vocab, cells, value, message):
    x = prepare_input(ids("a b c d X a b c", vocab), vocab)
    scorer = _BreaksAt(vocab, cells, value)
    for mode, l_max in (("greedy", None), ("aggressive", None), ("aggressive", 3)):
        with pytest.raises(ValueError, match=f"^{message} at position 5$"):
            decode(scorer, x, DecodeConfig(mode=mode, l_max=l_max))


class _BreaksOffPath(ScriptedEditScorer):
    """Scripted scorer whose row for a position is all ``value`` when the
    prefix up to it holds ``token``. That depends on the prefix alone, so the
    scorer stays prefix consistent, and a script that never emits the token
    keeps greedy decoding clear of those rows."""

    def __init__(self, pairs, vocab, token, value):
        super().__init__(pairs, vocab)
        self.token, self.value = token, value

    def score_positions(self, state, prefix, positions):
        rows = super().score_positions(state, prefix, positions)
        for k, p in enumerate(positions):
            if self.token in prefix[: p + 1]:
                rows[k] = self.value
        return rows


@pytest.mark.parametrize("value", [NAN, NEG])
def test_rows_past_the_bifurcation_are_not_checked(vocab, value):
    """The first pass drafts the input, a b c d PAD, and the script replaces
    c: its rows after the bifurcation condition on c and are broken, but no
    token comes from them, so the decode is greedy's and raises nothing."""
    source, target = ids("a b c d", vocab), ids("a b X d", vocab)
    scorer = _BreaksOffPath([(source, target)], vocab, vocab.id_of("c"), value)
    x = prepare_input(source, vocab)
    greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy"))
    aggressive = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert aggressive.output == greedy.output == (vocab.bos,) + target + (vocab.eos,)
    first = aggressive.trace.iterations[0]
    assert (first.positions_scored, first.accepted, first.bifurcation) == (5, 3, 3)


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


@settings(max_examples=300)
@given(
    # three word ids make repeats common; BOS, EOS and PAD may end the output
    o_tail=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=16),
    raw=st.lists(st.integers(min_value=4, max_value=6), min_size=0, max_size=6),
)
def test_suffix_match_agrees_with_the_candidate_scan(o_tail, raw):
    """The occurrence walk gives the plain scan's answer, for a 2-token x
    (empty input), heavy repeats, and outputs longer than the input."""
    vocab = Vocab(WORDS)
    x = prepare_input(tuple(raw), vocab)
    o = (vocab.bos,) + tuple(o_tail)
    got = find_suffix_match(o, x)
    assert (None if got is None else tuple(got)) == scan_suffix_match(o, x)


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
    with pytest.raises(ValueError, match="^length mismatch: 2 predictions vs 1 copied$"):
        find_bifurcation((1, 2), (1,))
    with pytest.raises(ValueError, match="^verification window must contain at least one token$"):
        find_bifurcation((), ())


@pytest.mark.parametrize(
    "predicted, copied",
    [
        ([4, 5, 6], (4, 5, 6)),  # equal
        ([4], (4,)),
        ([9, 5, 6], (4, 5, 6)),  # the first differs
        ([9], (4,)),
        ([4, 5, 9], (4, 5, 6)),  # the last differs
        ([4, 1], (4, 2)),  # the PAD slot: no prediction is PAD
        ([9, 9, 9], (4, 5, 6)),
    ],
)
def test_bifurcation_equals_the_scan(predicted, copied):
    assert find_bifurcation(predicted, copied) == reference_find_bifurcation(predicted, copied)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12))
def test_bifurcation_agrees_with_the_scan_on_any_window(pairs):
    predicted, copied = [p for p, _ in pairs], tuple(c for _, c in pairs)
    assert find_bifurcation(predicted, copied) == reference_find_bifurcation(predicted, copied)


@pytest.mark.parametrize(
    "value, message", [(NAN, "NaN logit"), (NEG, "all logits are masked"), (float("inf"), "infinite logit")]
)
@pytest.mark.parametrize("accepted", [1, 3, 6])
def test_chosen_check_names_each_accepted_row_and_skips_rejected_ones(value, message, accepted):
    """Six rows scored, the first ``accepted`` of them accepted: a bad
    chosen logit raises the scan's message at its row when the row is
    accepted, and nothing when it is not."""
    tokens = [4] * accepted
    for bad in range(6):
        chosen = [0.5, -2.0, 3.0, 0.0, -7.5, 1.0]
        chosen[bad] = value
        if bad < accepted:
            with pytest.raises(ValueError, match=f"^{message} at position {7 + bad}$"):
                _check_chosen(chosen, tokens, 7)
            with pytest.raises(ValueError, match=f"^{message} at position {7 + bad}$"):
                reference_check_chosen(chosen, tokens, 7)
        else:
            _check_chosen(chosen, tokens, 7)


def test_chosen_check_names_the_first_bad_row_and_passes_an_overflowing_sum():
    with pytest.raises(ValueError, match="^all logits are masked at position 1$"):
        _check_chosen([0.0, NEG, float("inf")], [4, 4, 4], 0)  # the sum is NaN
    _check_chosen([1e308, 1e308, 1e308], [4, 4, 4], 0)  # finite logits, infinite sum
    with pytest.raises(ValueError, match="^NaN logit at position 2$"):
        _check_chosen([1e308, 1e308, NAN], [4, 4, 4], 0)


def test_the_benchmark_tracer_names_stay_module_globals_the_loop_calls(vocab, monkeypatch):
    """The benchmark's tracer reads these five names on aggdec.decoding and
    replaces them for a traced run, so each must stay a module global, and
    the loop and proposer must call the suffix search, the bifurcation and
    the trace check through them."""
    for name in ("find_suffix_match", "argmax_with_tiebreak", "log_softmax", "find_bifurcation", "validate_trace"):
        assert callable(vars(decoding)[name])
    calls = Counter()
    for name in ("find_suffix_match", "find_bifurcation", "validate_trace"):
        original = getattr(decoding, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(decoding, name, counted)
    source, target = ids("a b c d X a b c", vocab), ids("a b d d X a b c", vocab)
    x = prepare_input(source, vocab)
    result = aggressive_decode(ScriptedEditScorer([(source, target)], vocab), x, DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + target + (vocab.eos,)
    assert calls["find_suffix_match"] >= 1 and calls["find_bifurcation"] >= 1
    assert calls["validate_trace"] == 1


# --- greedy ---------------------------------------------------------------------


def test_greedy_identity(vocab):
    scorer = identity_scorer(vocab)
    x = prepare_input(ids("a b", vocab), vocab)
    result = greedy_decode(scorer, x, DecodeConfig())
    assert result.output == (vocab.bos,) + ids("a b", vocab) + (vocab.eos,)
    assert result.trace.sequential_iterations == 3
    assert all(r.mode == AUTOREGRESSIVE and r.fallback is None for r in result.trace.iterations)


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
    assert first.mode == AGGRESSIVE and first.source == "input"
    assert first.suffix_match == (0, 0)
    assert first.positions_scored == 5 and first.accepted == 3
    assert first.bifurcation == 3
    assert second.mode == AUTOREGRESSIVE
    assert second.fallback == "absent" and second.source is None  # X is not in the input
    assert third.mode == AGGRESSIVE and third.source == "input"
    assert third.suffix_match == (4, 0) and third.accepted == 1
    assert first.fallback is None and third.fallback is None
    greedy = greedy_decode(scorer, x, DecodeConfig())
    assert greedy.output == result.output
    assert greedy.trace.sequential_iterations == 5
    assert all(r.fallback is None and r.source is None for r in greedy.trace.iterations)


def test_fallback_after_an_ambiguous_suffix(vocab):
    """After X, the output's `X a` and then `X a b` occur nowhere in the
    input, while `a` and `b` each occur twice there: no suffix is unique and
    the output has no repeat to draft from."""
    pair = (ids("a b a b", vocab), ids("a X a b", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    result = aggressive_decode(scorer, prepare_input(pair[0], vocab), DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [r.mode for r in result.trace.iterations] == [AGGRESSIVE] + [AUTOREGRESSIVE] * 3
    assert [r.fallback for r in result.trace.iterations] == [None, "absent", "ambiguous", "ambiguous"]


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


# --- the draft window -------------------------------------------------------------

# twelve distinct source words, so every emitted source word anchors a unique
# suffix match; "X" is absent from the source and forces an autoregressive step
_RULE_VOCAB = Vocab([f"w{i}" for i in range(12)] + ["X"])
_RULE_SOURCE = " ".join(f"w{i}" for i in range(12))
# target word j is source word 5j+1 (mod 12): every word is replaced, the copy
# after each emitted word never proposes the next target word, and no bigram
# repeats, so the output never offers a draft of its own
_REJECTED = " ".join(f"w{(5 * j + 1) % 12}" for j in range(12))


class _Costly(ScriptedEditScorer):
    """The scripted scorer, declaring that one more position costs 0.15 of a
    one-position pass."""

    position_cost = 0.15


class _Proxy:
    """A scorer by duck typing alone, as a tracing proxy is: it forwards
    vocab and session() and declares no position_cost."""

    def __init__(self, scorer):
        self.vocab = scorer.vocab
        self._scorer = scorer

    def session(self, x):
        return self._scorer.session(x)


def _decode_rule_case(target, l_max=None, scorer_type=ScriptedEditScorer, proxy=False):
    """Aggressive decode of the twelve-word source under a scorer that rewrites
    it to ``target``; checks the output against greedy's and returns the trace."""
    vocab = _RULE_VOCAB
    pair = (ids(_RULE_SOURCE, vocab), ids(target, vocab))
    scorer = scorer_type([pair], vocab)
    if proxy:
        scorer = _Proxy(scorer)
    x = prepare_input(pair[0], vocab)
    result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", l_max=l_max))
    assert result.output == greedy_decode(scorer, x, DecodeConfig()).output
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    return result.trace.iterations


def _full_window(record, l_max=None):
    full = len(_RULE_SOURCE.split()) + 1 - record.suffix_match[0]
    return full if l_max is None else min(full, l_max)


def _boundaries(records):
    """(output length before the record, record) for each record."""
    boundary = 1
    for record in records:
        yield boundary, record
        boundary += record.accepted


def _check_windows(records, cost, caps):
    """Every aggressive pass scored the w in 1..cap that maximises
    (1 - a^w) / ((1 - a)(1 + cost(w - 1))), all of cap when cost is 0, where
    a is the rate of drafted tokens accepted out of those compared in the
    passes before it, from a prior of 9 of 10. A pass that matched m drafted
    tokens accepted m of min(w, m + 1) compared. caps holds each pass's
    draft length, capped by l_max."""
    accepted, compared = 9, 10
    passes = [(b, r) for b, r in _boundaries(records) if r.mode == AGGRESSIVE]
    assert len(passes) == len(caps)
    for (boundary, record), cap in zip(passes, caps):
        w = record.positions_scored
        if cost == 0:
            assert w == cap
        else:
            rate = accepted / compared
            ratios = [(1 - rate**v) / ((1 - rate) * (1 + cost * (v - 1))) for v in range(1, cap + 1)]
            assert ratios[w - 1] == pytest.approx(max(ratios), rel=1e-12, abs=0)
        matched = w if record.bifurcation is None else record.bifurcation - boundary
        accepted += matched
        compared += min(w, matched + 1)


@pytest.mark.parametrize("l_max", [None, 3])
def test_free_positions_verify_every_draft_in_full(l_max):
    """A scorer that declares no position cost scores each draft to its end
    (or to l_max), however often it rejects the draft."""
    records = _decode_rule_case(_REJECTED, l_max)
    assert all(r.mode == AGGRESSIVE and r.accepted == 1 for r in records)
    assert [r.positions_scored for r in records] == [_full_window(r, l_max) for r in records]


def test_costly_positions_narrow_the_window_as_drafts_are_rejected():
    records = _decode_rule_case(_REJECTED, scorer_type=_Costly)
    assert all(r.mode == AGGRESSIVE and r.accepted == 1 for r in records)
    # at the prior rate 0.9 and cost 0.15 the ratio peaks at 9 positions:
    # 5.695 / 2.05 < 6.126 / 2.2 > 6.513 / 2.35
    assert records[0].positions_scored == 9
    _check_windows(records, _Costly.position_cost, [_full_window(r) for r in records])
    assert records[-1].positions_scored <= 2
    # three rejections narrow the window; the copy from w1 on is then accepted
    # through whole narrowed windows, each counting all its tokens accepted
    records = _decode_rule_case("w3 w6 w9 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11", scorer_type=_Costly)
    assert any(r.bifurcation is None and r.accepted == r.positions_scored < _full_window(r) for r in records)
    _check_windows(records, _Costly.position_cost, [_full_window(r) for r in records])
    # an autoregressive step leaves the rate alone, and l_max still caps the window
    records = _decode_rule_case("w3 X w6 w1 w9", l_max=4, scorer_type=_Costly)
    assert [r.mode for r in records] == [AGGRESSIVE, AGGRESSIVE, AUTOREGRESSIVE] + [AGGRESSIVE] * 3
    _check_windows(records, _Costly.position_cost, [_full_window(r, 4) for r in records if r.mode == AGGRESSIVE])


def test_a_scorer_without_position_cost_decodes_with_full_windows():
    costly = _decode_rule_case(_REJECTED, scorer_type=_Costly)
    proxied = _decode_rule_case(_REJECTED, scorer_type=_Costly, proxy=True)
    assert [r.positions_scored for r in proxied] == [_full_window(r) for r in proxied]
    assert sum(r.positions_scored for r in costly) < sum(r.positions_scored for r in proxied)


# --- predictions from rows ------------------------------------------------------


def _swap_c_and_x(rows, vocab):
    c, x = vocab.id_of("c"), vocab.id_of("X")
    rows[:, [c, x]] = rows[:, [x, c]]
    return rows


class _SwapsRows(ScriptedEditScorer):
    """Identity scorer whose rows, and only its rows, swap c and X: a
    prediction that bypassed them would copy c."""

    def score_positions(self, state, prefix, positions):
        return _swap_c_and_x(super().score_positions(state, prefix, positions), self.vocab)


class _SwappingSession(DecodeSession):
    def score_positions(self, prefix, positions):
        return _swap_c_and_x(super().score_positions(prefix, positions), self.scorer.vocab)


class _SwapsInSession(ScriptedEditScorer):
    """Identity scorer whose session's rows, and only those, swap c and X."""

    def session(self, x):
        return _SwappingSession(self, x)


@pytest.mark.parametrize("scorer_type", [_SwapsRows, _SwapsInSession])
def test_a_subclass_that_redefines_only_its_rows_is_decoded_from_them(vocab, scorer_type):
    scorer = scorer_type((), vocab)
    x = prepare_input(ids("a b c d c", vocab), vocab)
    for mode in ("greedy", "aggressive"):
        result = decode(scorer, x, DecodeConfig(mode=mode))
        assert result.output == (vocab.bos,) + ids("a b X d X", vocab) + (vocab.eos,)


class _RowsScorer:
    """A scorer by duck typing alone, with a plain DecodeSession: it has rows
    and no predict_positions."""

    def __init__(self, scorer):
        self.vocab = scorer.vocab
        self._scorer = scorer

    def encode(self, x):
        return self._scorer.encode(x)

    def score_positions(self, state, prefix, positions):
        return self._scorer.score_positions(state, prefix, positions)

    def session(self, x):
        return DecodeSession(self, x)


class _RowsSession:
    """A session by duck typing alone, as a tracing proxy's is: it forwards
    score_positions and has no predict_positions."""

    def __init__(self, session):
        self._session = session

    def score_positions(self, prefix, positions):
        return self._session.score_positions(prefix, positions)


class _RowsSessionScorer(_Proxy):
    def session(self, x):
        return _RowsSession(self._scorer.session(x))


@pytest.mark.parametrize("wrap", [_RowsScorer, _RowsSessionScorer])
def test_duck_typed_scorers_and_sessions_decode_from_their_rows(vocab, wrap):
    """Without predict_positions, a scorer or session decodes from its rows
    to the same output and trace as the scorer it wraps, whose rows are the
    same but which predicts without them. The duck-typed session, like the
    proxy, declares no position_cost, so the n-gram runs with c = 0 on both
    sides."""
    pairs = [(ids("a b c d", vocab), ids("a b X d", vocab)), (ids("c a d", vocab), ids("d a c c", vocab))]
    scripted = ScriptedEditScorer(pairs, vocab)
    ngram = NgramScorer([ids("a b c d", vocab), ids("c c a b", vocab)], order=2, smoothing=0.3,
                        vocab=vocab, copy_bias=1.0)
    for scorer in (scripted, ngram):
        wrapped = wrap(scorer)
        plain = _Proxy(scorer)  # the same position_cost as the wrapped scorer: none
        for raw in ("a b c d", "c a d", "d d X a b"):
            x = prepare_input(ids(raw, vocab), vocab)
            for mode in ("greedy", "aggressive"):
                cfg = DecodeConfig(mode=mode)
                assert decode(wrapped, x, cfg) == decode(plain, x, cfg)


# --- drafts from the output -------------------------------------------------------


def test_output_lookup_drafts_after_the_latest_earlier_bigram(vocab):
    """`a b` occurs twice before the end of the output, followed by `c a` and
    by `d a b`; the draft runs on in the later loop, `d a b`, and ends in a
    PAD slot at the budget."""
    x = prepare_input(ids("X", vocab), vocab)  # b is absent: no input anchor
    o = [vocab.bos, *ids("a b c a b d a b", vocab)]
    a, b, d, pad = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("d"), vocab.pad
    assert propose_draft(o, x, 6) == Draft((d, a, b, d, a, pad), "output", (5, 1))
    assert propose_draft(o, x, 2) == Draft((d, pad), "output", (5, 1))
    assert propose_draft(o, x, 1) == Draft((pad,), "output", (5, 1))
    # a single repeated token is no anchor, and neither is a bigram seen only at the end
    assert propose_draft([vocab.bos, *ids("a b X b", vocab)], x, 6) is None
    assert propose_draft([vocab.bos, *ids("a b", vocab)], x, 6) is None
    # a repeat that reaches the end of the output is a loop of period 1
    assert propose_draft([vocab.bos, *ids("b b b", vocab)], x, 4) == Draft((b, b, b, pad), "output", (2, 1))


def test_longer_anchor_wins_between_input_and_output(vocab):
    o = [vocab.bos, *ids("a b X a b", vocab)]
    a, b, d, X, pad = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("d"), vocab.id_of("X"), vocab.pad
    # `a b` is unique in the input: a two-token input anchor beats the output's
    x = prepare_input(ids("b c a b d", vocab), vocab)
    assert propose_draft(o, x, 9) == Draft((d, pad), "input", (4, 1))
    # `b` alone is unique in the input, and the input agrees on `a b` there:
    # that is a two-token input anchor too
    x = prepare_input(ids("c a b d", vocab), vocab)
    assert propose_draft(o, x, 9) == Draft((d, pad), "input", (3, 0))
    # `b` alone is unique in the input: the output's two-token anchor wins
    x = prepare_input(ids("c b d", vocab), vocab)
    assert propose_draft(o, x, 5) == Draft((X, a, b, X, pad), "output", (2, 1))
    # with no repeat in the output, the one-token input anchor drafts
    assert propose_draft(o[:3], x, 9) == Draft((d, pad), "input", (2, 0))


@pytest.mark.parametrize("scorer_type", [ScriptedEditScorer, _Costly])
@pytest.mark.parametrize("loop", ["w5", "w3 w5"])
def test_output_loops_are_drafted_past_two_tokens(scorer_type, loop):
    """A target that settles into a loop of period 1 or 2 that the source
    never offers: once the loop's bigram repeats, the output drafts the loop
    running on, and one pass accepts more than two looked-up tokens."""
    records = _decode_rule_case(" ".join(["w7"] + [loop] * (12 // len(loop.split()))), scorer_type=scorer_type)
    looked_up = [r.accepted - (r.bifurcation is not None) for r in records if r.source == "output"]
    assert max(looked_up) > 2


def test_output_pass_accepts_its_draft_and_the_pad_rows_token():
    """A target that loops with period 4 over a source it never copies, and
    runs past max_len: once a bigram repeats, the output drafts the loop to
    max_len with a PAD slot last, and one pass accepts all of it, the PAD
    row's token being the last one max_len allows."""
    vocab = _RULE_VOCAB
    target = ids(" ".join(f"w{(3 * j + 1) % 12}" for j in range(40)), vocab)
    scorer = ScriptedEditScorer([(ids(_RULE_SOURCE, vocab), target)], vocab)
    x = prepare_input(ids(_RULE_SOURCE, vocab), vocab)
    result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", max_len=20))
    assert result.output == greedy_decode(scorer, x, DecodeConfig(max_len=20)).output
    assert result.output == (vocab.bos,) + target[:20]
    records = result.trace.iterations
    assert [r.source for r in records[:6]] == ["input"] * 6
    assert [(r.source, r.suffix_match, r.positions_scored, r.accepted, r.bifurcation) for r in records[6:]] == [
        ("output", (2, 1), 14, 14, 20),  # 13 looked-up tokens, then the PAD row's
    ]


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
        r.mode == AUTOREGRESSIVE and r.positions_scored == 1 and r.fallback is None
        for r in result.trace.iterations
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


class _TableScorer(Scorer):
    """Random prefix-consistent scorer. Position p's row is a seeded random
    row looked up by the prefix's last two tokens, plus ``copy_bias`` on the
    token that follows the first occurrence of prefix[p] in the input (EOS
    after the last input token), so the bias sets how often it copies. It
    declares the given position_cost."""

    def __init__(self, vocab, seed, copy_bias, position_cost):
        self.vocab = vocab
        size = len(vocab)
        self.table = np.random.default_rng(seed).normal(size=(size, size, size))
        self.table[:, :, vocab.pad] = NEG
        self.copy_bias = copy_bias
        self.position_cost = position_cost

    def encode(self, x):
        return tuple(x)

    def score_positions(self, state, prefix, positions):
        x, n = state, len(state) - 2
        rows = np.empty((len(positions), len(self.vocab)))
        for k, p in enumerate(positions):
            last = prefix[p]
            rows[k] = self.table[prefix[p - 1] if p else self.vocab.bos, last]
            if last in x[: n + 1]:
                i = x.index(last)
                rows[k, x[i + 1] if i < n else self.vocab.eos] += self.copy_bias
        return rows


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    label=st.sampled_from(["identity", "scripted", "ngram", "table"]),
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
    if label == "table":
        seed = data.draw(st.integers(0, 2**32 - 1))
        cost = data.draw(st.sampled_from([0.02, 0.15, 0.6]))
        scorer = _TableScorer(vocab, seed, data.draw(st.floats(0.0, 6.0)), cost)
    else:
        scorer = _scorer_from_label(label, vocab, corpus)
    for raw in corpus:
        x = prepare_input(raw, vocab)
        greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy", max_len=max_len))
        aggressive_cfg = DecodeConfig(mode="aggressive", l_max=l_max, max_len=max_len)
        aggressive = aggressive_decode(scorer, x, aggressive_cfg)
        assert aggressive.output == greedy.output
        # iteration dominance: every parallel pass accepts at least one token
        assert (
            aggressive.trace.sequential_iterations
            <= greedy.trace.sequential_iterations
        )
        # accepted-prefix soundness at every iteration boundary; and every
        # pass scores the window the rule picks from the scorer's position
        # cost (the n-gram's and the table's are nonzero) and the rate of
        # drafted tokens accepted in the passes before it
        limit = aggressive_cfg.resolve_max_len(len(raw))
        caps = []
        for b, record in _boundaries(aggressive.trace.iterations):
            if record.mode == AGGRESSIVE:
                drafted = len(propose_draft(list(greedy.output[:b]), x, limit - b + 1).tokens)
                caps.append(drafted if l_max is None else min(drafted, l_max))
        _check_windows(aggressive.trace.iterations, getattr(scorer, "position_cost", 0.0), caps)
        boundary = 1
        for record in aggressive.trace.iterations:
            if label == "table" and record.source == "output":
                # a table row depends only on the last two tokens, so a
                # looked-up draft is right; only max_len can cut its pass short
                assert record.accepted == record.positions_scored or (
                    boundary - 1 + record.accepted == limit
                )
            boundary += record.accepted
            assert aggressive.output[:boundary] == greedy.output[:boundary]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["scripted", "ngram", "table"]),
    l_max=st.sampled_from([None, 1, 2, 3, 7]),
    cost=st.sampled_from([0.0, 0.1, 0.15]),
    max_len=st.sampled_from([1, 2, 5, None]),
)
def test_decode_loop_equals_the_reference_loop(data, kind, l_max, cost, max_len):
    """Greedy and aggressive decoding return the reference loop's output and
    every field of every IterationRecord, under any position cost."""
    vocab = Vocab(WORDS)
    corpus = data.draw(
        st.lists(
            st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=16).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    if kind == "table":
        scorer = _TableScorer(vocab, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.floats(0.0, 6.0)), cost)
    else:
        scorer = _scorer_from_label(kind, vocab, corpus)
        scorer.position_cost = cost
    for raw in corpus:
        x = prepare_input(raw, vocab)
        for aggressive in (False, True):
            cfg = DecodeConfig(mode="aggressive" if aggressive else "greedy", l_max=l_max if aggressive else None,
                               max_len=max_len)
            result = (aggressive_decode if aggressive else greedy_decode)(scorer, x, cfg)
            output, records = reference_decode(scorer, x, cfg, aggressive)
            assert result.output == output
            assert [tuple(record) for record in result.trace.iterations] == records


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
