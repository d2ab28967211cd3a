import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    DecodeConfig,
    NgramScorer,
    ScriptedEditScorer,
    TinyTransformer,
    TransformerConfig,
    Vocab,
    aggressive_decode,
    greedy_decode,
    identity_scorer,
    prepare_input,
    tokenize,
)
from aggdec.decoding import argmax_with_tiebreak
from aggdec.scorers import SCRIPTED_OFF_LOGIT, DecodeSession, log_softmax
from oracles import ReferenceNgram, same_predictions, scan_predictions, scripted_next_token


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
    """An output that diverged from the target continues by copying the
    source, and stays off script as it grows."""
    pair = (ids("a b c", vocab), ids("a X", vocab))
    scorer = ScriptedEditScorer([pair], vocab)
    session = scorer.session(prepare_input(pair[0], vocab))
    step = ((vocab.pad,),)
    output = [vocab.bos, vocab.id_of("b"), vocab.id_of("b")]  # diverged
    assert session.predict(output, step)[0][0] == [vocab.id_of("c")]
    output.append(vocab.id_of("b"))  # the source exhausted
    assert session.predict(output, step)[0][0] == [vocab.eos]


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
    """Every row of a multi-position call is the one-hot of the scripted
    rule's next token on its own prefix, on script, past the script's end,
    and after leaving it."""
    vocab = Vocab(["a", "b", "c", "d", "X"])
    pairs = [(source, target)] if target is not None else []
    scorer = ScriptedEditScorer(pairs, vocab)
    state = scorer.encode(prepare_input(source, vocab))
    prefix = (vocab.bos,) + (source if target is None else target)[:on_script] + tail
    n = len(prefix)
    # sorted positions, a contiguous range, which is built from slices, or
    # greedy's step at the prefix's end
    positions = data.draw(st.one_of(
        st.lists(st.integers(0, n - 1), unique=True).map(sorted),
        st.integers(0, n).flatmap(lambda lo: st.integers(lo, n).map(lambda hi: range(lo, hi))),
        st.just((n - 1,)),
    ))
    prefix = data.draw(st.sampled_from([prefix, list(prefix)]))  # any Sequence[int]
    rows = scorer.score_positions(state, prefix, positions)
    assert rows.shape == (len(positions), len(vocab))
    for row, p in zip(rows, positions):
        expected = np.full(len(vocab), SCRIPTED_OFF_LOGIT)
        expected[scripted_next_token(state, prefix[: p + 1], vocab.eos)] = 0.0
        expected[vocab.pad] = float("-inf")
        assert np.array_equal(row, expected)


def _same(answer, other) -> bool:
    """Whether two answers are equal bit for bit."""
    return answer[0] == other[0] and np.array(answer[1], dtype=float).tobytes() == np.array(
        other[1], dtype=float).tobytes()


def _check_tree(session, rows_of, prefix, tree, stops):
    """session.predict(prefix, tree) answers each branch as the scan of its
    rows, rows_of(prefix + branch[:-1], positions), bit for bit: through the
    first row whose token differs from the branch's own where the session
    stops there, and every row otherwise. Each branch's answer is also the
    one it gets when asked alone, on the same prefix: a prefix that has not
    grown since the last call is one the call shape allows."""
    answers = session.predict(prefix, tree)
    assert len(answers) == len(tree)
    j = len(prefix) - 1
    for branch, answer in zip(tree, answers):
        rows = rows_of(tuple(prefix) + tuple(branch[:-1]), list(range(j, j + len(branch))))
        if stops:
            tokens = scan_predictions(rows)[0]
            rows = rows[:next((r + 1 for r, t in enumerate(tokens) if t != branch[r]), len(branch))]
        assert same_predictions(answer, rows)
        assert _same(session.predict(prefix, (branch,))[0], answer)


def _trees(data, rest, tokens, pad, max_branches=3):
    """A tree of 1 to max_branches branches: each follows rest, the tokens
    that agree with its first rows, for a while, then goes its own way, and
    may end in a PAD slot; one may be the PAD slot alone. Its branches are
    all tuples or all lists."""
    branch = st.tuples(st.integers(0, 10), tokens, st.booleans()).map(
        lambda d: (rest[:d[0]] + d[1] + (pad,) * d[2]) or (pad,))
    tree = data.draw(st.lists(st.one_of(st.just((pad,)), branch), min_size=1, max_size=max_branches))
    return data.draw(st.sampled_from([tuple(tree), [list(b) for b in tree]]))


def _scripted_case(source, target, on_script, tail):
    vocab = Vocab(["a", "b", "c", "d", "X"])
    pairs = [(source, target)] if target is not None else []
    scorer = ScriptedEditScorer(pairs, vocab)
    session = scorer.session(prepare_input(source, vocab))
    script = source if target is None else target
    prefix = (vocab.bos,) + script[:on_script] + tail
    return vocab, scorer, session, script, prefix


@settings(max_examples=200, deadline=None)
@given(source=_words, target=st.one_of(st.none(), _words), on_script=st.integers(0, 9),
       tail=_words, data=st.data())
def test_scripted_predictions_equal_its_rows(source, target, on_script, tail, data):
    """The session's predict gives each row's argmax and chosen logit, bit
    for bit, on script and off it, for a list or tuple prefix and the trees a
    decode asks for: greedy's step, a pass over the whole prefix from BOS,
    and any one branch. The prefix is the fresh session's first, so it may
    start anywhere on or off script."""
    vocab, scorer, session, script, prefix = _scripted_case(source, target, on_script, tail)
    shape = data.draw(st.sampled_from(["step", "whole", "any"]))
    if shape == "step":
        tree = ((vocab.pad,),)
    elif shape == "whole":
        tree, prefix = (prefix[1:] + (vocab.pad,),), prefix[:1]
    else:
        tree = _trees(data, script[len(prefix) - 1:], _words, vocab.pad, 1)
    prefix = data.draw(st.sampled_from([prefix, list(prefix)]))  # any Sequence[int]
    _check_tree(session, lambda pseudo, positions: scorer.score_positions(session.state, pseudo, positions),
                prefix, tree, stops=False)


@settings(max_examples=300, deadline=None)
@given(source=_words, target=st.one_of(st.none(), _words), on_script=st.integers(0, 9),
       tail=_words, data=st.data())
def test_scripted_branches_equal_per_branch_predictions(source, target, on_script, tail, data):
    """The session answers a tree of 1 to 3 branches in one call, each branch
    as it is answered alone and as its rows are, bit for bit: for a prefix on
    script or off it, a source without a target, and branches that follow
    the script, leave it, run past the end of the source or the target, or
    are one position long."""
    vocab, scorer, session, script, prefix = _scripted_case(source, target, on_script, tail)
    assert session.branching
    tree = _trees(data, script[len(prefix) - 1:], _words, vocab.pad)
    _check_tree(session, lambda pseudo, positions: scorer.score_positions(session.state, pseudo, positions),
                prefix, tree, stops=False)


class _CountingTarget(tuple):
    """A target that counts the tokens read from it."""

    reads = 0

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item


class _CountingScripted(ScriptedEditScorer):
    """The scripted scorer, its last encoded target a _CountingTarget."""

    def encode(self, x):
        state = super().encode(x)
        self.target = _CountingTarget(state.target)
        return state._replace(target=self.target)


@pytest.mark.parametrize("length", [40, 400])
def test_a_greedy_decode_reads_the_target_linearly(vocab, length):
    """The scripted session keeps the output's on-script boundary and
    compares only the token each step added, so a greedy decode reads at
    most two target tokens a step. Comparing the whole output with the
    target on every step would read about length^2 / 2: 80 000 at 400."""
    words = [vocab.id_of(w) for w in "a b c d".split()]
    source = tuple(words[i % 4] for i in range(length))
    target = tuple(vocab.id_of("X") if i % 7 == 3 else t for i, t in enumerate(source))
    scorer = _CountingScripted([(source, target)], vocab)
    result = greedy_decode(scorer, prepare_input(source, vocab), DecodeConfig())
    assert result.output == (vocab.bos,) + target + (vocab.eos,)
    assert 0 < scorer.target.reads <= 2 * len(target)


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

# Corpus and prefix ids for the n-gram oracle tests: the words, UNK and the
# sentinels BOS, EOS and PAD, which a corpus may hold too; the scorer must
# keep PAD at -inf wherever it is counted.
_ngram_ids = st.lists(st.integers(0, 8), max_size=8).map(tuple)

# 1e17 makes count + s == s, so every cell of a row ties but PAD's
_ngram_smoothing = st.sampled_from([0.1, 0.37, 1.0, 2.5, 1e17])


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(_ngram_ids, min_size=1, max_size=6),
    order=st.integers(1, 4),
    smoothing=_ngram_smoothing,
    copy_bias=st.sampled_from([0.0, 2.0, 1e9]),
    source=_words,
    tail=_ngram_ids,
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


@settings(max_examples=300, deadline=None)
@given(
    corpus=st.lists(_ngram_ids, min_size=1, max_size=6),
    order=st.integers(1, 4),
    smoothing=_ngram_smoothing,
    copy_bias=st.sampled_from([-1e9, -40.0, -1.5, -0.3, 0.0, 0.3, 2.0, 40.0, 1e9]),
    source=_words,
    tail=_ngram_ids,
    data=st.data(),
)
def test_ngram_predictions_equal_its_rows(corpus, order, smoothing, copy_bias, source, tail, data):
    """The session's predict gives each row's argmax and chosen logit, bit
    for bit, for a negative, zero or positive copy_bias, in seen contexts
    and in unseen ones, whose rows are all tied, for trees of 1 to 3
    branches that copy the source for a while, one-position ones and the
    PAD slot among them. Each answer is the full one cut after its first
    row whose token differs from the branch's own, and equals the branch's
    answer alone."""
    vocab = Vocab(_NGRAM_WORDS)
    scorer = NgramScorer(corpus, order=order, smoothing=smoothing, vocab=vocab, copy_bias=copy_bias)
    session = scorer.session(prepare_input(source, vocab))
    prefix = data.draw(st.sampled_from([(vocab.bos,) + tail, (vocab.bos,)]))
    tree = _trees(data, source[len(prefix) - 1:], _ngram_ids, vocab.pad)
    _check_tree(session, lambda pseudo, positions: scorer.score_positions(session.state, pseudo, positions),
                prefix, tree, stops=True)


@pytest.mark.parametrize("top, other", [("a", "c"), ("c", "a")])
def test_ngram_prediction_breaks_an_exact_tie_to_the_smaller_id(top, other):
    """A copy_bias that lifts the aligned token exactly to its context's
    maximum ties the two, and the smaller id, a, wins, as in the row's
    argmax. After BOS the corpus has ``top`` twice and ``other`` once, and
    the aligned token is ``other``."""
    vocab = Vocab(_NGRAM_WORDS)
    top, other = vocab.id_of(top), vocab.id_of(other)
    corpus = [(top,), (top,), (other,)]
    unbiased = NgramScorer(corpus, order=2, smoothing=0.5, vocab=vocab)
    state = unbiased.encode(prepare_input((other,), vocab))
    row = unbiased.score_positions(state, (vocab.bos,), (0,))[0]
    assert int(row.argmax()) == top
    bias = float(row[top] - row[other])
    assert row[other] + bias == row[top]  # the tie is exact
    scorer = NgramScorer(corpus, order=2, smoothing=0.5, vocab=vocab, copy_bias=bias)
    prediction = scorer.session(prepare_input((other,), vocab)).predict((vocab.bos,), ((vocab.pad,),))[0]
    assert prediction[0] == [vocab.id_of("a")]
    assert same_predictions(prediction, scorer.score_positions(state, (vocab.bos,), (0,)))


@pytest.mark.parametrize("copy_bias", [1.0, -1.5])
def test_ngram_scorer_is_not_changed_by_decoding(rng, copy_bias):
    """The scorer is immutable: decoding, which visits seen and unseen
    contexts, leaves every attribute byte for byte as constructed. A
    negative copy_bias builds a whole row wherever the aligned token is its
    context's argmax, and that row is the caller's own."""
    vocab = Vocab(_NGRAM_WORDS)
    corpus = [tuple(int(t) for t in rng.integers(4, 7, size=6)) for _ in range(10)]
    scorer = NgramScorer(corpus, order=3, smoothing=0.1, vocab=vocab, copy_bias=copy_bias)
    before = pickle.dumps(vars(scorer))
    for raw in corpus[:3] + [(8, 8, 7, 4), (7,)]:
        x = prepare_input(raw, vocab)
        greedy_decode(scorer, x, DecodeConfig())
        aggressive_decode(scorer, x, DecodeConfig(mode="aggressive"))
    assert pickle.dumps(vars(scorer)) == before


def test_ngram_memory_grows_with_the_corpus_not_the_vocabulary():
    """A few short sentences over a 20 000-word vocabulary: a table of
    contexts x vocabulary would take about 8 B x 20 000 for each of the
    corpus's 80-odd contexts, about 13 MB, while the counts the corpus has
    take a few kB."""
    vocab = Vocab(f"w{i}" for i in range(20_000))
    rng = np.random.default_rng(5)
    corpus = [tuple(int(t) for t in rng.integers(4, len(vocab), size=8)) for _ in range(10)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        NgramScorer(corpus, order=3, smoothing=0.1, vocab=vocab, copy_bias=2.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


class _RowsOnlySession:
    """A session by duck typing alone, with rows and no predict."""

    def __init__(self, session):
        self._session = session

    def score_positions(self, prefix, positions):
        return self._session.score_positions(prefix, positions)


# The smallest transformer shape: its cached session predicts through the
# default path, from rows whose bits depend on the cache's history.
_TINY = TransformerConfig(encoder_layers=1, decoder_layers=1, model_dim=16, heads=2, ffn_dim=24, seed=3)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["scripted", "scripted without entry", "ngram", "transformer", "rows only"]),
    source=_words,
    target=_words,
    order=st.integers(1, 3),
    copy_bias=st.sampled_from([-1.5, 0.0, 2.0]),
    data=st.data(),
)
def test_sessions_answer_a_growing_output_as_its_rows(kind, source, target, order, copy_bias, data):
    """The decode loop's call shape: one output list, passed to every
    predict call and only extended between calls. Each session is driven
    through a decode's worth of growth (by none, one or several tokens: the
    script's continuation, any token in place of its next one and then the
    continuation, or any tokens) and a random tree after each, and every
    answer equals the scan of score_positions rows on the same prefix, bit
    for bit: through the first disagreement with its branch for the n-gram,
    every row for the rest. The scripted session goes on script, off it and
    past the target's end, or has no table entry; the n-gram runs at orders
    1 to 3 with a negative, zero or positive copy_bias; the transformer's
    cached session and a session with rows alone answer through
    DecodeSession.predict, and their rows come from a twin session asked
    for the same rows in the same order."""
    vocab = Vocab(_NGRAM_WORDS)
    x = prepare_input(source, vocab)
    if kind == "ngram":
        corpus = data.draw(st.lists(_words, min_size=1, max_size=4))
        scorer = NgramScorer(corpus, order=order, smoothing=0.3, vocab=vocab, copy_bias=copy_bias)
    elif kind == "transformer":
        scorer = TinyTransformer(_TINY, vocab)
    else:
        scorer = ScriptedEditScorer([] if kind == "scripted without entry" else [(source, target)], vocab)
    session, twin = scorer.session(x), scorer.session(x)
    if kind == "rows only":
        session = _RowsOnlySession(session)
    if kind in ("transformer", "rows only"):
        predict, rows_of = lambda o, tree: DecodeSession.predict(session, o, tree), twin.score_positions
    else:
        predict = session.predict
        rows_of = lambda pseudo, positions: scorer.score_positions(twin.state, pseudo, positions)
    script = target if kind == "scripted" else source
    o = [vocab.bos]
    for _ in range(data.draw(st.integers(1, 6))):
        j = len(o) - 1
        tree = _trees(data, script[j:], _words, vocab.pad)
        answers = predict(o, tree)
        assert len(answers) == len(tree)
        for branch, answer in zip(tree, answers):
            rows = rows_of(tuple(o) + tuple(branch[:-1]), range(j, j + len(branch)))
            if kind == "ngram":
                tokens = scan_predictions(rows)[0]
                rows = rows[:next((r + 1 for r, t in enumerate(tokens) if t != branch[r]), len(branch))]
            assert same_predictions(answer, rows)
        o += data.draw(st.one_of(
            st.just(script[j:j + 1]),
            st.just(script[j:j + 4]),
            st.tuples(st.integers(4, 8), st.integers(1, 4)).map(lambda d: (d[0],) + script[j + 1:j + d[1]]),
            _words,
        ))
