from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from aggdec.decoding import _check_chosen, _proposer, argmax_with_tiebreak
from aggdec.scorers import DecodeSession, _ScriptedSession, predictions
from aggdec.synthetic import rewrite_pairs, synthetic_vocab
from oracles import (
    greedy_draft_proposer,
    naive_suffix_match,
    reference_beam,
    reference_branches,
    reference_check_chosen,
    reference_decode,
    reference_find_bifurcation,
    reference_propose_draft,
    reference_window,
    scan_argmax,
    scan_predictions,
    scan_suffix_match,
    SteppingScriptedScorer,
    stops_at_disagreement,
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
    scores for decoder position 5, decoded from its rows."""

    def __init__(self, vocab, cells, value):
        super().__init__((), vocab)
        self.cells, self.value = cells, value

    def session(self, x):
        return DecodeSession(self, x)

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


class _AnswersBrokenly(ScriptedEditScorer):
    """Scripted scorer whose session answers the tree from decoder position
    ``at`` with ``cut(tokens, chosen)`` of its predictions and their chosen
    logits: more predictions than the window, none, fewer that do not end at
    a disagreement, or chosen logits that are not one per prediction. Its
    session is not branching, and fails the decode after 100 calls, so a
    loop that never grows its output fails instead of hanging."""

    def __init__(self, pairs, vocab, cut, at=3):
        super().__init__(pairs, vocab)
        self.cut, self.at = cut, at

    def session(self, x):
        return _BrokenSession(self, x)


class _BrokenSession(_ScriptedSession):
    branching = False
    calls = 0

    def predict(self, prefix, branches):
        self.calls += 1
        assert self.calls <= 100, "the decode loop keeps asking"
        answers = super().predict(prefix, branches)
        if len(prefix) - 1 == self.scorer.at:
            answers = [self.scorer.cut(*answers[0])]
        return answers


def _answered(tokens, chosen):
    return tokens, chosen


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda tokens, chosen: (tokens + tokens[-1:], chosen + chosen[-1:]),
         "3 predictions for a window of 2 at position 3"),
        (lambda tokens, chosen: ([], []), "no predictions at position 3"),
        (lambda tokens, chosen: (tokens[:1], chosen[:1]),
         "answer ends short of its window and not at its first disagreement at position 3"),
        (lambda tokens, chosen: (tokens, chosen[:1]), "2 predictions and 1 chosen logits at position 3"),
        (lambda tokens, chosen: (tokens, []), "2 predictions and 0 chosen logits at position 3"),
    ],
)
def test_a_broken_answer_raises_naming_the_position(vocab, cut, message):
    """a b c d -> a X c d: the first pass bifurcates at X, a step emits c,
    and the one-token anchor c drafts d PAD, a pass of two positions from
    decoder position 3 whose draft d the script accepts. An answer to it
    with three predictions, none, or only d's (the window's first, which
    agrees) breaks the rule that a short answer ends at its first
    disagreement, and the loop raises rather than decoding on. So does an
    answer of both predictions that lists only the first one's chosen
    logit, or none, which would leave an accepted row unchecked."""
    pair = (ids("a b c d", vocab), ids("a X c d", vocab))
    x = prepare_input(pair[0], vocab)
    cfg = DecodeConfig(mode="aggressive")
    result = aggressive_decode(_AnswersBrokenly([pair], vocab, _answered), x, cfg)
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    last = result.trace.iterations[-1]
    assert (last.source, last.positions_scored) == ("input", 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        aggressive_decode(_AnswersBrokenly([pair], vocab, cut), x, cfg)


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda tokens, chosen: ([], []), "no predictions at position 2"),
        (lambda tokens, chosen: (tokens * 2, chosen * 2), "2 predictions for a window of 1 at position 2"),
        (lambda tokens, chosen: (tokens, []), "1 predictions and 0 chosen logits at position 2"),
        (lambda tokens, chosen: (tokens, chosen * 2), "1 predictions and 2 chosen logits at position 2"),
    ],
)
def test_a_broken_step_answer_raises_naming_the_position(vocab, cut, message):
    """a b c -> a X c: greedy steps at every position, and aggressive
    decoding's first pass bifurcates at X, which the input lacks, so it
    steps at decoder position 2 as well. A step's answer is checked like any
    other: none, or two predictions for its one position, raises there
    rather than decoding on, or looping without growing the output; and so
    does its one prediction with no chosen logit, or with two."""
    pair = (ids("a b c", vocab), ids("a X c", vocab))
    x = prepare_input(pair[0], vocab)
    for mode in ("greedy", "aggressive"):
        cfg = DecodeConfig(mode=mode)
        result = decode(_AnswersBrokenly([pair], vocab, _answered, at=2), x, cfg)
        assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
        assert result.trace.iterations[-2].mode == AUTOREGRESSIVE
        with pytest.raises(ValueError, match=f"^{message}$"):
            decode(_AnswersBrokenly([pair], vocab, cut, at=2), x, cfg)


class _MiscountsAnswers(ScriptedEditScorer):
    """Scripted scorer whose session answers some trees with
    ``change(answers)``: one answer too few, or one too many. With
    ``steps``, the trees are steps, one branch of one row, and the session
    is not branching; otherwise they are trees of several branches."""

    def __init__(self, pairs, vocab, change, steps):
        super().__init__(pairs, vocab)
        self.change, self.steps = change, steps

    def session(self, x):
        return _MiscountingSession(self, x)


class _MiscountingSession(_ScriptedSession):
    def __init__(self, scorer, x):
        super().__init__(scorer, x)
        self.branching = not scorer.steps

    def predict(self, prefix, branches):
        answers = super().predict(prefix, branches)
        if self.scorer.steps:
            miscounted = len(branches) == 1 and len(branches[0]) == 1
        else:
            miscounted = len(branches) > 1
        return self.scorer.change(answers) if miscounted else answers


@pytest.mark.parametrize("change, count", [(lambda answers: answers[:-1], 1), (lambda answers: answers * 2, 4)])
def test_a_tree_answered_for_the_wrong_number_of_branches_raises(vocab, change, count):
    """a b c d -> a b X d: the second iteration is an aligned pass, a tree of
    two branches from decoder position 3 (see test_aggressive_hand_trace),
    and without branching it is a step there (see
    test_aggressive_hand_trace_without_branches), as greedy's first
    iteration is at position 0. Answers for fewer or more branches raise
    there, rather than leaving a branch unchecked, counting an extra
    answer's rows, or going on from a step with no answer."""
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    x = prepare_input(pair[0], vocab)
    with pytest.raises(ValueError, match=f"^a tree of 2 branches got {count} answers at position 3$"):
        aggressive_decode(_MiscountsAnswers([pair], vocab, change, False), x, DecodeConfig(mode="aggressive"))
    one = len(change([None]))  # a step's one answer, changed
    for mode, position, index in (("greedy", 0, 0), ("aggressive", 3, 1)):
        cfg = DecodeConfig(mode=mode)
        result = decode(_MiscountsAnswers([pair], vocab, lambda answers: answers, True), x, cfg)
        assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
        assert result.trace.iterations[index].mode == AUTOREGRESSIVE
        with pytest.raises(ValueError, match=f"^a tree of 1 branches got {one} answers at position {position}$"):
            decode(_MiscountsAnswers([pair], vocab, change, True), x, cfg)


class _BreaksOffPath(ScriptedEditScorer):
    """Scripted scorer whose row for a position is all ``value`` when the
    prefix up to it holds ``token``, decoded from its rows. That depends on
    the prefix alone, so the scorer stays prefix consistent, and a script
    that never emits the token keeps greedy decoding clear of those rows."""

    def __init__(self, pairs, vocab, token, value):
        super().__init__(pairs, vocab)
        self.token, self.value = token, value

    def session(self, x):
        return DecodeSession(self, x)

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
    bos=st.booleans(),
)
@example(o_tail=[4], raw=[4, 4], bos=False)  # the suffix outgrows o before it is unique
def test_suffix_match_agrees_with_naive_oracle(o_tail, raw, bos):
    """Also for an output without its leading BOS, which the decoders never
    pass: without BOS to make it unique, the suffix can outgrow the output."""
    vocab = Vocab(WORDS)
    x = prepare_input(tuple(raw), vocab)
    o = ((vocab.bos,) if bos else ()) + tuple(o_tail)
    if not o:
        return
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
    """Substitution example: one pass to the disagreement, then one aligned
    pass that verifies both re-entries into the input and keeps the
    substitution's; 2 sequential iterations against greedy's 5."""
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    x = prepare_input(pair[0], vocab)
    result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    first, second = result.trace.iterations
    assert first.mode == AGGRESSIVE and first.source == "input"
    assert first.suffix_match == (0, 0)
    assert first.positions_scored == 5 and first.accepted == 3
    assert first.bifurcation == 3
    # X is not in the input: the branches are x[3:] = (c, d, PAD), as if X
    # were inserted, and x[4:] = (d, PAD), as if it replaced c; they share
    # their first row
    assert second.mode == AGGRESSIVE and second.source == "aligned"
    assert second.suffix_match == (3, -1)
    assert second.positions_scored == 3 + 2 - 1 and second.accepted == 2
    assert second.bifurcation == 5
    assert first.fallback is None and second.fallback is None
    greedy = greedy_decode(scorer, x, DecodeConfig())
    assert greedy.output == result.output
    assert greedy.trace.sequential_iterations == 5
    assert all(r.fallback is None and r.source is None for r in greedy.trace.iterations)


def test_an_aligned_pass_keeps_the_insertion_on_a_tie(vocab):
    """Deleting the second a: the first pass rejects a for b, and after
    `b b` the proposer has no draft. Both branches, x[3:] = (a, b, X, PAD)
    and x[4:] = (b, X, PAD), reject their first token for X, so each
    accepts one token; the insertion's is kept, and its bifurcation sets
    the next re-entry."""
    pair = (ids("a b a b X", vocab), ids("a b b X", vocab))
    result = aggressive_decode(ScriptedEditScorer([pair], vocab), prepare_input(pair[0], vocab),
                               DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [tuple(r) for r in result.trace.iterations] == [
        (AGGRESSIVE, 6, 3, (0, 0), 3, "input", None),
        (AGGRESSIVE, 4 + 3 - 1, 1, (2, -1), 4, "aligned", None),
        (AGGRESSIVE, 1, 1, (5, 0), 5, "input", None),
    ]


def test_an_output_pass_leaves_no_reentry(vocab):
    """The output `a b a b X` shares no token with the input. After the
    first pass rejects c for a, aligned passes re-enter x[1:] and x[2:] and
    emit one token each, until `a b` repeats and the output draft
    (a, b, ...) is rejected for X. Its anchor indexes the output, not the
    input, so it leaves no re-entry: the proposer has no draft after X and
    steps."""
    pair = (ids("c d c d c d", vocab), ids("a b a b X", vocab))
    result = aggressive_decode(ScriptedEditScorer([pair], vocab), prepare_input(pair[0], vocab),
                               DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [tuple(r) for r in result.trace.iterations] == [
        (AGGRESSIVE, 7, 1, (0, 0), 1, "input", None),
        *[(AGGRESSIVE, 7 + 6 - 1, 1, (0, -1), j, "aligned", None) for j in (2, 3, 4)],
        (AGGRESSIVE, 24, 1, (2, 1), 5, "output", None),
        (AUTOREGRESSIVE, 1, 1, None, None, None, "absent"),
    ]


def test_a_reentry_at_the_inputs_end_is_a_step(vocab):
    """`a b c` -> `a b c X`: the first pass copies the whole input and
    rejects its PAD slot for X. Re-entry would go on at x[4:] = (PAD,) or
    x[5:] = (), branches of one position and none, which are left out, so
    the proposer steps, and names X's absence from the input."""
    pair = (ids("a b c", vocab), ids("a b c X", vocab))
    result = aggressive_decode(ScriptedEditScorer([pair], vocab), prepare_input(pair[0], vocab),
                               DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [tuple(r) for r in result.trace.iterations] == [
        (AGGRESSIVE, 4, 4, (0, 0), 4, "input", None),
        (AUTOREGRESSIVE, 1, 1, None, None, None, "absent"),
    ]


def test_aggressive_hand_trace_without_branches(vocab):
    """The same rewrite under a scorer whose session is not branching: one
    pass to the disagreement, one autoregressive step, one re-entry pass."""
    pair = (ids("a b c d", vocab), ids("a b X d", vocab))
    scorer = SteppingScriptedScorer([pair], vocab)
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


def test_fallback_after_an_ambiguous_suffix(vocab):
    """After X, the output's `X a` and then `X a b` occur nowhere in the
    input, while `a` and `b` each occur twice there: no suffix is unique and
    the output has no repeat to draft from. Without branches each of those
    is an autoregressive step; with them, one aligned pass after the edit
    re-enters the input as if X replaced its first b."""
    pair = (ids("a b a b", vocab), ids("a X a b", vocab))
    stepping = SteppingScriptedScorer([pair], vocab)
    result = aggressive_decode(stepping, prepare_input(pair[0], vocab), DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [r.mode for r in result.trace.iterations] == [AGGRESSIVE] + [AUTOREGRESSIVE] * 3
    assert [r.fallback for r in result.trace.iterations] == [None, "absent", "ambiguous", "ambiguous"]
    scorer = ScriptedEditScorer([pair], vocab)
    result = aggressive_decode(scorer, prepare_input(pair[0], vocab), DecodeConfig(mode="aggressive"))
    assert result.output == (vocab.bos,) + pair[1] + (vocab.eos,)
    assert [(r.source, r.suffix_match, r.accepted) for r in result.trace.iterations] == [
        ("input", (0, 0), 2),
        ("aligned", (2, -1), 3),
    ]


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


class _CostlyStepping(_Costly, SteppingScriptedScorer):
    """_Costly with a session that is not branching: it steps where the
    proposer has no draft."""


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


def _check_windows(records, cost, caps, stops=False):
    """Every aggressive pass scored the w in 1..cap that maximises
    (1 - a^w) / ((1 - a)(1 + cost(w - 1))), all of cap when cost is 0, where
    a is the rate of drafted tokens accepted out of those compared in the
    passes before it, from a prior of 9 of 10. A pass that matched m drafted
    tokens accepted m of min(w, m + 1) compared. caps holds each pass's
    draft length, capped by l_max; for an aligned pass, a dict from each
    branch's start t in the input to its length, capped by l_max. Each
    branch then scored the window the plain search picks, a branch of one
    position was left out, the shared first row counts once, and the kept
    branch, x[suffix_match[0] + 1:], is the one whose matches count. Where
    the scorer stops at the first disagreement (stops), a drafted pass
    scored its window's rows through its bifurcation, all of them when it
    has none, and, when max_len cut it, more rows than it accepted."""
    accepted, compared = 9, 10
    passes = [(b, r) for b, r in _boundaries(records) if r.mode == AGGRESSIVE]
    assert len(passes) == len(caps)
    for (boundary, record), cap in zip(passes, caps):
        rate = accepted / compared
        if record.source == "aligned":
            windows = {t: reference_window(rate, cost, c) if cost else c for t, c in cap.items()}
            windows = {t: v for t, v in windows.items() if v > 1}
            assert record.positions_scored == sum(windows.values()) - len(windows) + 1
            w = windows[record.suffix_match[0] + 1]
        elif stops:
            w = reference_window(rate, cost, cap) if cost else cap
            if record.bifurcation is not None:
                assert record.positions_scored == record.bifurcation - boundary + 1
            elif record.accepted == w:
                assert record.positions_scored == w
            else:  # cut at max_len
                assert record.accepted < record.positions_scored <= w
        else:
            w = record.positions_scored
            if cost == 0:
                assert w == cap
            else:
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
    records = _decode_rule_case("w3 X w6 w1 w9", l_max=4, scorer_type=_CostlyStepping)
    assert [r.mode for r in records] == [AGGRESSIVE, AGGRESSIVE, AUTOREGRESSIVE] + [AGGRESSIVE] * 3
    _check_windows(records, _Costly.position_cost, [_full_window(r, 4) for r in records if r.mode == AGGRESSIVE])
    # with branches, an aligned pass takes the step's place: each branch is
    # windowed by the rule, and the kept one moves the rate
    records = _decode_rule_case("w3 X w6 w1 w9", l_max=4, scorer_type=_Costly)
    assert [r.source for r in records] == ["input", "input", "aligned"] + ["input"] * 3
    assert records[2].positions_scored == 4 + 4 - 1
    caps = [_full_window(r, 4) for r in records]
    caps[2] = {t: min(len(_RULE_SOURCE.split()) + 2 - t, 4) for t in (5, 6)}  # X rejected x[5] = w4
    _check_windows(records, _Costly.position_cost, caps)


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


class _SwappingSession(DecodeSession):
    def score_positions(self, prefix, positions):
        return _swap_c_and_x(super().score_positions(prefix, positions), self.scorer.vocab)


class _SwapsInSession(ScriptedEditScorer):
    """Identity scorer whose session's rows, and only those, swap c and X."""

    def session(self, x):
        return _SwappingSession(self, x)


@pytest.mark.parametrize("scorer_type", [_SwapsInSession])
def test_a_subclass_that_redefines_only_its_rows_is_decoded_from_them(vocab, scorer_type):
    scorer = scorer_type((), vocab)
    x = prepare_input(ids("a b c d c", vocab), vocab)
    for mode in ("greedy", "aggressive"):
        result = decode(scorer, x, DecodeConfig(mode=mode))
        assert result.output == (vocab.bos,) + ids("a b X d X", vocab) + (vocab.eos,)


class _RowsScorer:
    """A scorer by duck typing alone, with a plain DecodeSession: it has rows,
    and its session predicts from them."""

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
    """A session by duck typing alone: it forwards score_positions and has no
    predict."""

    def __init__(self, session):
        self._session = session

    def score_positions(self, prefix, positions):
        return self._session.score_positions(prefix, positions)


class _RowsSessionScorer(_Proxy):
    def session(self, x):
        return _RowsSession(self._scorer.session(x))


class _CallShapeSession:
    """A session by duck typing alone that forwards predict and branching,
    and checks the decode loop's call shape: the same output list on every
    call, which only grew since the last."""

    def __init__(self, session):
        self._session, self.branching = session, session.branching
        self._output = self._seen = None

    def predict(self, prefix, branches):
        if self._output is not None:
            assert prefix is self._output and tuple(prefix[:len(self._seen)]) == self._seen
        self._output, self._seen = prefix, tuple(prefix)
        return self._session.predict(prefix, branches)


class _CallShapeScorer(_Proxy):
    def session(self, x):
        return _CallShapeSession(self._scorer.session(x))


@pytest.mark.parametrize("wrap", [_RowsScorer, _RowsSessionScorer])
def test_duck_typed_scorers_and_sessions_decode_from_their_rows(vocab, wrap):
    """A scorer whose session predicts from its rows, or a session without
    predict, decodes as the reference loop does from the same rows, every
    pass answered in full and no branches verified, to the output of the
    scorer it wraps, which predicts without rows. A proxy that forwards
    session(), or a duck-typed session that forwards predict, gets that
    session's own predictions, and decodes exactly as the scorer does: the
    n-gram's passes stop at their first disagreement, and the scripted
    session verifies branches. Every predict call gets the decode's one
    output list, grown since the last call and never changed before it."""
    pairs = [(ids("a b c d", vocab), ids("a b X d", vocab)), (ids("c a d", vocab), ids("d a c c", vocab))]
    scripted = ScriptedEditScorer(pairs, vocab)
    ngram = NgramScorer([ids("a b c d", vocab), ids("c c a b", vocab)], order=2, smoothing=0.3,
                        vocab=vocab, copy_bias=1.0)
    for scorer in (scripted, ngram):
        wrapped = wrap(scorer)
        for raw in ("a b c d", "c a d", "d d X a b"):
            x = prepare_input(ids(raw, vocab), vocab)
            for mode in ("greedy", "aggressive"):
                cfg = DecodeConfig(mode=mode)
                result = decode(wrapped, x, cfg)
                expected = decode(scorer, x, cfg)
                assert (result.output, [tuple(r) for r in result.trace.iterations]) == reference_decode(
                    wrapped, x, cfg, mode == "aggressive")
                assert result.output == expected.output
                assert decode(_Proxy(scorer), x, cfg) == expected
                assert decode(_CallShapeScorer(scorer), x, cfg) == expected


def _no_rows(state, prefix, positions):
    raise AssertionError("score_positions was called")


def test_the_cheap_scorers_decode_without_building_rows(vocab, monkeypatch):
    """Greedy and aggressive decoding ask the scripted and n-gram scorers for
    each position's prediction alone, never for its row. The n-gram's
    negative copy_bias takes the branch that reads a whole table row: at the
    first position the aligned token is its context's argmax."""
    pairs = [(ids("a b c d", vocab), ids("a b X d", vocab))]
    corpus = [ids("a b c d", vocab), ids("a b c d", vocab), ids("c c a b", vocab)]
    scorers = (
        ScriptedEditScorer(pairs, vocab),
        NgramScorer(corpus, order=2, smoothing=0.3, vocab=vocab, copy_bias=-0.5),
    )
    inputs = [prepare_input(ids(raw, vocab), vocab) for raw in ("a b c d", "c a d", "d d X a b")]
    modes = [DecodeConfig(mode=mode) for mode in ("greedy", "aggressive")]
    for scorer in scorers:
        expected = [decode(scorer, x, cfg) for x in inputs for cfg in modes]
        monkeypatch.setattr(scorer, "score_positions", _no_rows)
        assert [decode(scorer, x, cfg) for x in inputs for cfg in modes] == expected


# --- drafts from the output -------------------------------------------------------


def _propose(o, x, budget):
    """The proposer's first answer for o, which may grow by budget tokens,
    with no l_max and no position cost, where a branch is its whole draft:
    (tokens, source, anchor) of its one branch, or a step's fallback."""
    tree, anchors, source = _proposer(x, o, len(o) - 1 + budget, None, 0.0, False).send(None)
    return source if tree is None else (*tree, source, *anchors)


def test_output_lookup_drafts_after_the_latest_earlier_bigram(vocab):
    """`a b` occurs twice before the end of the output, followed by `c a` and
    by `d a b`; the draft runs on in the later loop, `d a b`, and ends in a
    PAD slot at the budget."""
    x = prepare_input(ids("X", vocab), vocab)  # b is absent: no input anchor
    o = [vocab.bos, *ids("a b c a b d a b", vocab)]
    a, b, d, pad = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("d"), vocab.pad
    assert _propose(o, x, 6) == ((d, a, b, d, a, pad), "output", (5, 1))
    assert _propose(o, x, 2) == ((d, pad), "output", (5, 1))
    assert _propose(o, x, 1) == ((pad,), "output", (5, 1))
    # a single repeated token is no anchor, and neither is a bigram seen only at the end
    assert _propose([vocab.bos, *ids("a b X b", vocab)], x, 6) == "absent"
    assert _propose([vocab.bos, *ids("a b", vocab)], x, 6) == "absent"
    # a repeat that reaches the end of the output is a loop of period 1
    assert _propose([vocab.bos, *ids("b b b", vocab)], x, 4) == ((b, b, b, pad), "output", (2, 1))


def test_longer_anchor_wins_between_input_and_output(vocab):
    o = [vocab.bos, *ids("a b X a b", vocab)]
    a, b, d, X, pad = vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("d"), vocab.id_of("X"), vocab.pad
    # `a b` is unique in the input: a two-token input anchor beats the output's
    x = prepare_input(ids("b c a b d", vocab), vocab)
    assert _propose(o, x, 9) == ((d, pad), "input", (4, 1))
    # `b` alone is unique in the input, and the input agrees on `a b` there:
    # that is a two-token input anchor too
    x = prepare_input(ids("c a b d", vocab), vocab)
    assert _propose(o, x, 9) == ((d, pad), "input", (3, 0))
    # `b` alone is unique in the input: the output's two-token anchor wins
    x = prepare_input(ids("c b d", vocab), vocab)
    assert _propose(o, x, 5) == ((X, a, b, X, pad), "output", (2, 1))
    # with no repeat in the output, the one-token input anchor drafts
    assert _propose(o[:3], x, 9) == ((d, pad), "input", (2, 0))


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


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["table", "scripted", "ngram"]),
    beam_size=st.integers(1, 5),
    max_len=st.sampled_from([1, 3, None]),
)
def test_beam_equals_the_reference_beam(data, kind, beam_size, max_len):
    """Beam search returns the output and trace of the reference that keeps
    a pool of finished hypotheses. Masked tables give rows with fewer finite
    logits than beam_size + 1, and at masked = 1 only EOS is finite, so
    every live hypothesis finishes before max_len."""
    vocab = Vocab(WORDS)
    corpus = data.draw(
        st.lists(
            st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=10).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    if kind == "table":
        scorer = _TableScorer(
            vocab, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.floats(0.0, 6.0)), 0.0,
            masked=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
            eos_bias=data.draw(st.sampled_from([-2.0, 0.0, 1.0, 3.0])),
        )
    else:
        scorer = _scorer_from_label(kind, vocab, corpus)
    cfg = DecodeConfig(mode="beam", beam_size=beam_size, max_len=max_len)
    for raw in corpus:
        x = prepare_input(raw, vocab)
        result = beam_decode(scorer, x, cfg)
        assert (result.output, [tuple(r) for r in result.trace.iterations]) == reference_beam(scorer, x, cfg)


class _PrefixScorer(Scorer):
    """Rows looked up by the whole prefix, {token: logit}, every other token
    masked."""

    def __init__(self, vocab, rows):
        self.vocab = vocab
        self.rows = rows

    def encode(self, x):
        return tuple(x)

    def score_positions(self, state, prefix, positions):
        rows = np.full((len(positions), len(self.vocab)), NEG)
        for k, p in enumerate(positions):
            for tok, logit in self.rows[tuple(prefix[: p + 1])].items():
                rows[k, tok] = logit
        return rows


def test_beam_breaks_a_finished_tie_to_the_smaller_ids(vocab):
    """a X and b c finish in one step with equal log-probs. b c ranks first
    among the candidates, its last token being the smaller, but a X has the
    smaller ids and wins."""
    a, b, c, X = (vocab.id_of(w) for w in ("a", "b", "c", "X"))
    bos, eos = vocab.bos, vocab.eos
    scorer = _PrefixScorer(vocab, {
        (bos,): {a: 0.0, b: 0.0},
        (bos, a): {X: 0.0},
        (bos, b): {c: 0.0},
        (bos, a, X): {eos: 0.0},
        (bos, b, c): {eos: 0.0},
    })
    x = prepare_input((a,), vocab)
    cfg = DecodeConfig(mode="beam", beam_size=2)
    assert beam_decode(scorer, x, cfg).output == reference_beam(scorer, x, cfg)[0] == (bos, a, X, eos)


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
    declares the given position_cost. Each cell but EOS's is masked with
    probability ``masked``, so every row keeps a finite logit, and EOS's
    cells get ``eos_bias``."""

    def __init__(self, vocab, seed, copy_bias, position_cost, masked=0.0, eos_bias=0.0):
        self.vocab = vocab
        size = len(vocab)
        rng = np.random.default_rng(seed)
        self.table = rng.normal(size=(size, size, size))
        mask = rng.random(self.table.shape) < masked
        mask[:, :, vocab.eos] = False
        self.table[mask] = NEG
        self.table[:, :, vocab.eos] += eos_bias
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
        # cost (the table's is nonzero) and the rate of drafted tokens
        # accepted in the passes before it, through its first disagreement
        # where the scorer stops there (the n-gram)
        limit = aggressive_cfg.resolve_max_len(len(raw))
        caps = []
        previous = None
        for b, record in _boundaries(aggressive.trace.iterations):
            draft = reference_propose_draft(list(greedy.output[:b]), x, limit - b + 1)
            if record.source == "aligned":
                # only where the proposer has no draft, right after a pass that
                # copied the input from s and rejected its k-th token
                before, last = previous
                assert draft is None and last.source in ("input", "aligned") and last.bifurcation is not None
                start = last.suffix_match[0] + 1 + last.bifurcation - (before - 1)
                caps.append({t: len(x) - t if l_max is None else min(len(x) - t, l_max) for t in (start - 1, start)})
            elif record.mode == AGGRESSIVE:
                caps.append(len(draft[0]) if l_max is None else min(len(draft[0]), l_max))
            previous = b, record
        _check_windows(aggressive.trace.iterations, getattr(scorer, "position_cost", 0.0), caps,
                       stops_at_disagreement(scorer, scorer.session(x)))
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
    corpus=st.lists(
        st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=16).map(tuple),
        min_size=1,
        max_size=5,
    ),
    kind=st.sampled_from(["scripted", "ngram", "table"]),
    l_max=st.sampled_from([None, 1, 2, 3, 7]),
    cost=st.sampled_from([0.0, 0.1, 0.15]),
    max_len=st.sampled_from([1, 2, 5, None]),
    seed=st.integers(0, 2**32 - 1),
    copy_bias=st.floats(0.0, 6.0),
)
# `d c c c c` -> `X c c c c`: at l_max = 1 the output draft after `c c c`
# is verified one position at a time, not in full
@example(corpus=[(7, 6, 6, 6, 6)], kind="scripted", l_max=1, cost=0.0, max_len=None, seed=0, copy_bias=0.0)
# an output pass (anchor (2, 1)) bifurcates and the proposer then has no
# draft: it steps, for the anchor indexes the output, not the input
@example(corpus=[(5, 6, 6, 4, 6, 8, 5, 6, 6, 4, 7, 4)], kind="scripted", l_max=2, cost=0.0, max_len=5,
         seed=0, copy_bias=0.0)
def test_decode_loop_equals_the_reference_loop(corpus, kind, l_max, cost, max_len, seed, copy_bias):
    """Greedy and aggressive decoding return the reference loop's output and
    every field of every IterationRecord, under any position cost. seed and
    copy_bias set the table scorer."""
    vocab = Vocab(WORDS)
    if kind == "table":
        scorer = _TableScorer(vocab, seed, copy_bias, cost)
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


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["scripted", "ngram", "table"]),
    l_max=st.sampled_from([None, 1, 2, 7]),
    cost=st.sampled_from([0.0, 0.15]),
    max_len=st.sampled_from([1, 5, None]),
    branching=st.booleans(),
)
def test_the_proposer_drafts_what_the_references_draft(data, kind, l_max, cost, max_len, branching):
    """Driven along greedy's output, at every iteration the proposer answers
    reference_propose_draft's draft cut to the window reference_window
    picks at the running rate; else, right after a pass that copied the
    input and bifurcated, reference_branches' re-entries as an aligned tree;
    else a step whose fallback says whether x holds o's last token. After
    each pass it is told what the kept branch (the one greedy agrees with
    longest, the first on a tie) agreed through, and the rate and re-entry
    it keeps move as the reference loop's do."""
    vocab = Vocab(WORDS)
    corpus = data.draw(
        st.lists(
            st.lists(st.integers(min_value=4, max_value=8), min_size=0, max_size=16).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    if kind == "table":
        scorer = _TableScorer(vocab, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.floats(0.0, 6.0)), cost)
    else:
        scorer = _scorer_from_label(kind, vocab, corpus)
    for raw in corpus:
        x = prepare_input(raw, vocab)
        cfg = DecodeConfig(mode="greedy", max_len=max_len)
        greedy = greedy_decode(scorer, x, cfg).output
        limit = cfg.resolve_max_len(len(raw))
        session = scorer.session(x)
        o = [vocab.bos]
        propose = _proposer(x, o, limit, l_max, cost, branching).send
        accepted, compared, reentry, told = 9, 10, None, None
        while o[-1] != vocab.eos and len(o) - 1 < limit:
            j, rate = len(o) - 1, accepted / compared
            tree, anchors, source = propose(told)
            draft = reference_propose_draft(o, x, limit - j)
            branches = []
            if draft is None and reentry is not None:
                branches = reference_branches(session, o, x, reentry, l_max, cost, rate)
            if draft is not None:
                w = len(draft[0]) if l_max is None else min(len(draft[0]), l_max)
                w = reference_window(rate, cost, w) if cost else w
                copied = draft[0][:w]
                assert (tree, anchors, source) == ((copied,), (draft[2],), draft[1])
                predicted, _ = scan_predictions(session.score_positions(tuple(o) + copied[:-1], range(j, j + w)))
                anchor = draft[2]
            elif branches:
                assert tree == tuple(copied for _, copied, _, _ in branches)
                assert (anchors, source) == (tuple((t - 1, -1) for t, *_ in branches), "aligned")
                lengths = [reference_find_bifurcation(p, c) or len(c) for _, c, p, _ in branches]
                t, copied, predicted, _ = branches[lengths.index(max(lengths))]
                anchor = (t - 1, -1)
            else:
                assert (tree, anchors, source) == (None, None, "ambiguous" if o[j] in x[:-1] else "absent")
                o.append(greedy[j + 1])
                reentry = None
                continue
            k = reference_find_bifurcation(predicted, copied)
            agreed = len(copied) if k is None else k
            take = min(agreed, limit - j)
            if vocab.eos in predicted[:take]:
                take = predicted.index(vocab.eos) + 1
            bifurcation = j + k if k is not None and k <= take else None
            told = anchor, source, k, agreed, bifurcation
            accepted += agreed if k is None else k - 1
            compared += agreed
            reentry = anchor[0] + 1 + k if branching and source != "output" and bifurcation is not None else None
            o.extend(predicted[:take])
        assert tuple(o) == greedy


def test_aligned_passes_cut_the_iterations_of_a_scripted_rewrite_corpus():
    """On a seeded low-edit rewrite corpus, verifying the insertion and
    substitution re-entries in one pass, where the proposer has no draft,
    takes at most 0.8 of the iterations of the loop that steps there
    instead. At l_max = 1 no branch window exceeds one position, so every
    record is the stepping loop's."""
    synth = synthetic_vocab(150)
    pairs = rewrite_pairs(np.random.default_rng(17), 200, synth, 20, 60, (0.0, 0.1))
    scorer = ScriptedEditScorer(pairs, synth)
    branched = stepped = 0
    for source, target in pairs:
        x = prepare_input(source, synth)
        cfg = DecodeConfig(mode="aggressive")
        result = aggressive_decode(scorer, x, cfg)
        output, records = reference_decode(scorer, x, cfg, True, branching=False)
        assert result.output == output == (synth.bos,) + target + (synth.eos,)
        branched += result.trace.sequential_iterations
        stepped += len(records)
        cfg = DecodeConfig(mode="aggressive", l_max=1)
        result = aggressive_decode(scorer, x, cfg)
        assert (result.output, [tuple(r) for r in result.trace.iterations]) == reference_decode(
            scorer, x, cfg, True, branching=False)
    assert branched <= 0.8 * stepped


@pytest.mark.parametrize("kind", ["scripted", "ngram"])
@pytest.mark.parametrize("l_max", [None, 2])
def test_a_pass_accepts_nothing_past_its_first_eos(kind, l_max):
    """A draft that holds the rest of greedy's output, its EOS, and input
    tokens after it decodes to greedy's output: the pass that accepts EOS
    stops there, and its record counts only the tokens it emitted, with no
    bifurcation past the cut."""
    synth = synthetic_vocab(150)
    pairs = rewrite_pairs(np.random.default_rng(21), 60, synth, 10, 40, (0.0, 0.3))
    if kind == "scripted":
        scorer = ScriptedEditScorer(pairs, synth)
    else:
        scorer = NgramScorer([target for _, target in pairs], 3, 0.1, synth, copy_bias=2.0)
    cut = 0
    for source, _ in pairs:
        x = prepare_input(source, synth)
        greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy")).output
        cfg = DecodeConfig(mode="aggressive", l_max=l_max)
        result = decoding._verify_loop(scorer, x, cfg, greedy_draft_proposer(greedy, x[1:4]))
        assert result.output == greedy
        last = result.trace.iterations[-1]
        assert last.bifurcation is None
        cut += last.positions_scored > last.accepted
    assert cut  # some final passes scored rows past EOS


@pytest.mark.parametrize("l_max, max_len", [(None, None), (3, None), (None, 12)])
def test_ngram_passes_score_only_the_rows_they_accept(l_max, max_len):
    """On a seeded rewrite corpus, every aggressive n-gram pass scores the
    rows it accepts and no more, its answer ending at its first disagreement
    (or at the draft's PAD slot, which always disagrees), except a final
    pass cut at max_len. The outputs are greedy's."""
    synth = synthetic_vocab(150)
    pairs = rewrite_pairs(np.random.default_rng(5), 80, synth, 10, 40, (0.0, 0.3))
    scorer = NgramScorer([target for _, target in pairs], 3, 0.1, synth, copy_bias=2.0)
    passes = cut = 0
    for source, _ in pairs:
        x = prepare_input(source, synth)
        greedy = greedy_decode(scorer, x, DecodeConfig(mode="greedy", max_len=max_len))
        result = aggressive_decode(scorer, x, DecodeConfig(mode="aggressive", l_max=l_max, max_len=max_len))
        assert result.output == greedy.output
        records = result.trace.iterations
        for record in records:
            if record.mode != AGGRESSIVE:
                continue
            passes += 1
            if record.positions_scored != record.accepted:
                assert record is records[-1] and len(result.output) - 1 == max_len
                assert record.positions_scored > record.accepted
                cut += 1
    assert passes > len(pairs)
    assert bool(cut) == (max_len is not None)


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
