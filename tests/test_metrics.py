import contextlib
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    DecodeConfig,
    DepthRow,
    LmaxRow,
    TransformerConfig,
    Vocab,
    bench,
    build_vocab,
    check_equivalence,
    edit_ratio,
    identity_scorer,
    levenshtein,
    spearman,
    sweep_depth,
    tokenize,
)
from aggdec import metrics
from aggdec.metrics import MismatchError, SentenceRow, rows_csv, rows_json, thread_limit
from aggdec.scorers import Scorer, ScriptedEditScorer
from aggdec.synthetic import rewrite_pairs, synthetic_vocab
from oracles import PeekingTransformer, recursive_levenshtein


def test_levenshtein_identical():
    assert levenshtein((1, 2, 3), (1, 2, 3)) == 0


def test_levenshtein_single_deletion():
    assert levenshtein((1, 2, 3), (1, 3)) == 1


@given(
    a=st.lists(st.integers(min_value=0, max_value=2), max_size=6),
    b=st.lists(st.integers(min_value=0, max_value=2), max_size=6),
)
def test_levenshtein_agrees_with_recursion(a, b):
    assert levenshtein(a, b) == recursive_levenshtein(a, b)


@given(
    a=st.lists(st.integers(min_value=0, max_value=4), max_size=8),
    b=st.lists(st.integers(min_value=0, max_value=4), max_size=8),
)
def test_levenshtein_symmetric_and_bounded(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


def test_edit_ratio_zero_for_unchanged():
    assert edit_ratio((5, 6, 7), (5, 6, 7)) == 0.0


def test_edit_ratio_table_sentence():
    """advance->advanced, insert 'in', drop 'time': 3 edits over 11 tokens."""
    src_text = "Nowadays , technology is more advance than the past time ."
    tgt_text = "Nowadays , technology is more advanced than in the past ."
    vocab = build_vocab([src_text, tgt_text])
    src = tokenize(src_text, "whitespace", vocab)
    tgt = tokenize(tgt_text, "whitespace", vocab)
    assert levenshtein(src, tgt) == recursive_levenshtein(src, tgt) == 3
    assert edit_ratio(src, tgt) == pytest.approx(3 / 11, abs=1e-9)


def test_edit_ratio_can_exceed_one():
    assert edit_ratio((4,), (5, 6)) == 2.0


def test_edit_ratio_rejects_empty_input():
    with pytest.raises(ValueError):
        edit_ratio((), (4,))


def test_edit_ratio_is_asymmetric():
    # distance is symmetric; the normalization is by the first argument only
    a, b = (4, 5, 6, 7), (4, 5)
    assert levenshtein(a, b) == levenshtein(b, a)
    assert edit_ratio(a, b) != edit_ratio(b, a)


def test_spearman_monotone():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert spearman(xs, [9.0, 7.0, 5.0, 1.0]) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    value = spearman([1.0, 1.0, 2.0, 3.0], [4.0, 4.0, 5.0, 6.0])
    assert value == pytest.approx(1.0)


# --- equivalence checking -----------------------------------------------------


def test_check_equivalence_identity_clean(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=n)) for n in (0, 1, 4, 9)]
    report = check_equivalence(
        identity_scorer(vocab), corpus, l_max_values=(1, 3, None)
    )
    assert report.ok
    assert report.sentences == 4
    assert report.decode_pairs == 12
    assert report.summary() == "0 mismatches / 4 sentences"


class _PeekingScorer(Scorer):
    """Breaks prefix consistency on purpose: it copies the input, but row p
    predicts EOS when the prefix holds a token past p, which only a pass of
    two or more positions shows it. check_equivalence must notice."""

    def __init__(self, vocab):
        self.vocab = vocab

    def encode(self, x):
        return tuple(x)

    def score_positions(self, state, prefix, positions):
        rows = np.full((len(positions), len(self.vocab)), -30.0)
        for r, p in enumerate(positions):
            copy = state[p + 1] if p + 2 < len(state) else self.vocab.eos  # state[-1] is PAD
            rows[r, self.vocab.eos if len(prefix) > p + 1 else copy] = 0.0
        rows[:, self.vocab.pad] = float("-inf")
        return rows


_PEEK_VOCAB = Vocab(["a", "b", "c", "d", "X"])


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.lists(st.lists(st.integers(4, len(_PEEK_VOCAB) - 1), min_size=1, max_size=12),
                    min_size=1, max_size=4),
    l_max_values=st.lists(st.one_of(st.none(), st.integers(1, 20)), min_size=1, max_size=5),
)
def test_check_equivalence_reports_inconsistent_scorer(corpus, l_max_values):
    """A one-position pass never shows the peeking scorer a later token, so
    only l_max = 1 matches greedy; every wider cap mismatches every sentence."""
    report = check_equivalence(_PeekingScorer(_PEEK_VOCAB), corpus, l_max_values)
    assert [(m.sentence, m.l_max) for m in report.mismatches] == [
        (idx, l_max) for idx in range(len(corpus)) for l_max in l_max_values if l_max != 1
    ]
    assert [row.outputs_match_greedy for row in report.rows] == [l_max == 1 for l_max in l_max_values]
    for m in report.mismatches:
        assert m.greedy_result.output != m.aggressive_result.output


def test_check_equivalence_rejects_empty_corpus(vocab):
    with pytest.raises(ValueError):
        check_equivalence(identity_scorer(vocab), [])


# --- bench ------------------------------------------------------------------------


def test_bench_identity_speedup_equals_output_length(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=n)) for n in (3, 5, 8)]
    rows = bench(identity_scorer(vocab), corpus, repetitions=1, warmup=0)
    for row in rows:
        assert row.aggressive_iters == 1
        assert row.iteration_speedup == float(row.output_len + 1)  # every token plus EOS
        assert row.iteration_speedup >= 1.0
        assert row.edit_ratio == 0.0


def test_bench_speedup_falls_as_edit_ratio_rises():
    """More edits, less parallel copying: bucket means must be nonincreasing."""
    vocab = synthetic_vocab(60)
    rng = np.random.default_rng(7)
    buckets = []
    for rate in (0.0, 0.2, 0.45):
        pairs = rewrite_pairs(rng, 25, vocab, min_len=12, max_len=24, edit_rate=rate)
        scorer = ScriptedEditScorer(pairs, vocab)
        rows = bench(scorer, [src for src, _ in pairs], repetitions=1, warmup=0)
        buckets.append(sum(r.iteration_speedup for r in rows) / len(rows))
    assert buckets[0] >= buckets[1] >= buckets[2]


def test_bench_with_beam_populates_stats(vocab):
    corpus = [(4, 5, 6)]
    rows = bench(
        identity_scorer(vocab),
        corpus,
        cfg=DecodeConfig(beam_size=2),
        repetitions=1,
        warmup=0,
        with_beam=True,
    )
    assert rows[0].beam_iters == 4
    assert rows[0].beam_wall > 0


@settings(max_examples=30, deadline=None)
@given(
    corpus=st.lists(st.lists(st.integers(4, len(_PEEK_VOCAB) - 1), min_size=1, max_size=12),
                    min_size=1, max_size=4),
    l_max=st.one_of(st.none(), st.integers(1, 20)),
)
def test_bench_refuses_an_inconsistent_scorer(corpus, l_max):
    """bench reports no speedup between two different outputs: past l_max =
    1 the peeking scorer's first sentence already mismatches, and the error
    names it and the l_max."""
    scorer, cfg = _PeekingScorer(_PEEK_VOCAB), DecodeConfig(l_max=l_max)
    if l_max == 1:
        assert len(bench(scorer, corpus, cfg, repetitions=1, warmup=0)) == len(corpus)
        return
    where = "unlimited" if l_max is None else l_max
    message = rf"^sentence 0 l_max={where}: aggressive output differs from greedy output$"
    with pytest.raises(MismatchError, match=message):
        bench(scorer, corpus, cfg, repetitions=1, warmup=0)


def test_bench_rejects_empty_sentence(vocab):
    with pytest.raises(ValueError):
        bench(identity_scorer(vocab), [()], repetitions=1, warmup=0)


@pytest.mark.parametrize("harness, message", [
    (lambda vocab: bench(identity_scorer(vocab), [(4, 5)], repetitions=0),
     "repetitions must be >= 1"),
    (lambda vocab: check_equivalence(identity_scorer(vocab), [(4, 5)], repetitions=0),
     "repetitions must be >= 1"),
    (lambda vocab: sweep_depth([TransformerConfig(1, 1, 16, 2, 16, seed=1)], [(4, 5)], vocab,
                               repetitions=0),
     "repetitions must be >= 1"),
    (lambda vocab: bench(identity_scorer(vocab), [(4, 5)], warmup=-1),
     "warmup must be >= 0"),
    (lambda vocab: bench(identity_scorer(vocab), [], repetitions=0),
     "repetitions must be >= 1"),
    (lambda vocab: sweep_depth([TransformerConfig(1, 1, 16, 2, 16, seed=1)], [], vocab,
                               repetitions=0, warmup=-1),
     "repetitions must be >= 1"),
    (lambda vocab: sweep_depth([TransformerConfig(1, 1, 16, 2, 16, seed=1)], [], vocab, warmup=-1),
     "warmup must be >= 0"),
], ids=["bench", "check_equivalence", "sweep_depth", "bench_negative_warmup",
        "bench_empty_corpus", "sweep_depth_empty_corpus", "sweep_depth_empty_corpus_negative_warmup"])
def test_harness_rejects_zero_repetitions(vocab, harness, message):
    with pytest.raises(ValueError, match=message):
        harness(vocab)


# --- sweeps ------------------------------------------------------------------------


def test_sweep_lmax_monotone_and_saturating(vocab, rng):
    corpus = [tuple(rng.integers(4, len(vocab), size=n)) for n in (4, 7, 11)]
    values = [1, 2, 3, 5, 12, None]
    rows = check_equivalence(identity_scorer(vocab), corpus, values).rows
    iters = [row.sequential_iterations for row in rows]
    assert iters == sorted(iters, reverse=True)
    # l_max >= max sentence length + 1 saturates to the unlimited behavior
    assert rows[-2].sequential_iterations == rows[-1].sequential_iterations
    assert all(row.outputs_match_greedy for row in rows)
    assert rows[0].sequential_iterations == sum(len(raw) + 1 for raw in corpus)


def test_sweep_depth_requires_shared_dims(vocab):
    configs = [
        TransformerConfig(1, 1, 32, 4, 32, seed=1),
        TransformerConfig(1, 1, 64, 4, 32, seed=1),
    ]
    with pytest.raises(ValueError):
        sweep_depth(configs, [(4, 5)], vocab)


def test_sweep_depth_smoke(vocab):
    configs = [
        TransformerConfig(1, 1, 32, 4, 32, seed=3),
        TransformerConfig(1, 2, 32, 4, 32, seed=3),
    ]
    rows = sweep_depth(configs, [(4, 5, 6)], vocab, repetitions=1, warmup=0)
    assert [(r.enc_layers, r.dec_layers) for r in rows] == [(1, 1), (1, 2)]
    assert all(r.greedy_wall > 0 and r.aggressive_wall > 0 for r in rows)


def test_sweep_depth_refuses_an_inconsistent_transformer(vocab, monkeypatch):
    """A decode pair that differs at any depth fails the whole sweep, naming
    the sentence and the depth split: the peeking transformer breaks prefix
    consistency only in sentences that hold X."""
    monkeypatch.setattr(metrics, "TinyTransformer", PeekingTransformer)
    configs = [
        TransformerConfig(1, 2, 16, 2, 16, seed=3),
        TransformerConfig(1, 1, 16, 2, 16, seed=3),
    ]
    message = r"^sentence 1 depth=1\+2: aggressive output differs from greedy output$"
    with pytest.raises(MismatchError, match=message):
        sweep_depth(configs, [(4, 5, 6), (4, 8, 5)], vocab, repetitions=1, warmup=0)
    assert len(sweep_depth(configs, [(4, 5, 6)], vocab, repetitions=1, warmup=0)) == 2


def test_sweep_depth_encoder_cost_amortized():
    """Tripling the encoder runs once per sentence in a batched pass, so the
    per-token greedy wall-clock must grow far less than 3x."""
    vocab = synthetic_vocab(60)
    rng = np.random.default_rng(12)
    corpus = [tuple(rng.integers(4, len(vocab), size=20)) for _ in range(3)]
    configs = [
        TransformerConfig(3, 4, 128, 4, 256, seed=5),
        TransformerConfig(9, 4, 128, 4, 256, seed=5),
    ]
    with thread_limit(1):
        rows = sweep_depth(configs, corpus, vocab, repetitions=3, warmup=1)
    shallow_enc, deep_enc = rows
    per_token = [r.greedy_wall / r.greedy_tokens for r in (shallow_enc, deep_enc)]
    assert per_token[1] < 2.0 * per_token[0]


def test_sweep_depth_extreme_split_beats_balanced_shallow():
    """11+1 decodes faster than 9+3 despite the deeper encoder; compared on
    sentences both configs decode to the full budget so the workloads match."""
    from aggdec import DecodeConfig, TinyTransformer, greedy_decode, prepare_input

    vocab = synthetic_vocab(60)
    rng = np.random.default_rng(88)
    base = dict(model_dim=192, heads=8, ffn_dim=384, seed=21)
    configs = [
        TransformerConfig(encoder_layers=9, decoder_layers=3, **base),
        TransformerConfig(encoder_layers=11, decoder_layers=1, **base),
    ]
    scorers = [TinyTransformer(c, vocab) for c in configs]
    budget = 16
    cfg = DecodeConfig(max_len=budget)
    corpus = []
    for _ in range(30):
        raw = tuple(int(t) for t in rng.integers(4, len(vocab), size=18))
        x = prepare_input(raw, vocab)
        if all(len(greedy_decode(s, x, cfg).output) - 1 == budget for s in scorers):
            corpus.append(raw)
        if len(corpus) == 3:
            break
    assert corpus, "no full-budget sentences found"
    with thread_limit(1):
        rows = sweep_depth(configs, corpus, vocab, cfg=cfg, repetitions=3, warmup=1)
    nine_three, eleven_one = rows
    assert eleven_one.greedy_wall < nine_three.greedy_wall


# --- report emission ------------------------------------------------------------------


def test_sentence_csv_schema(vocab):
    rows = bench(identity_scorer(vocab), [(4, 5)], repetitions=1, warmup=0)
    lines = rows_csv(SentenceRow, rows).splitlines()
    assert lines[0] == (
        "sentence,input_len,output_len,edit_ratio,greedy_iters,aggressive_iters,beam_iters,"
        "iteration_speedup,wall_speedup,greedy_wall,aggressive_wall,beam_wall"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[6] == cells[11] == ""  # no beam run, empty beam columns


def test_sentence_json_aggregates(vocab):
    import json

    rows = bench(identity_scorer(vocab), [(4, 5), (6, 7, 8)], repetitions=1, warmup=0)
    payload = json.loads(rows_json(metrics.bench_summary(rows)))
    assert payload["sentences"] == 2
    assert payload["mean_edit_ratio"] == 0.0
    assert payload["mean_iteration_speedup"] > 1.0


def test_lmax_csv_schema(vocab):
    import json

    rows = check_equivalence(identity_scorer(vocab), [(4, 5)], [1, None]).rows
    lines = rows_csv(LmaxRow, rows).splitlines()
    assert lines[0] == (
        "l_max,sequential_iterations,positions_scored,tokens_emitted,wall_clock,"
        "outputs_match_greedy"
    )
    assert lines[-1].startswith("unlimited,")
    assert [r["l_max"] for r in json.loads(rows_json(rows))] == [1, "unlimited"]


def test_depth_csv_schema(vocab):
    rows = sweep_depth(
        [TransformerConfig(1, 1, 32, 4, 32, seed=5)], [(4, 5)], vocab,
        repetitions=1, warmup=0,
    )
    lines = rows_csv(DepthRow, rows).splitlines()
    assert lines[0] == (
        "enc_layers,dec_layers,greedy_iterations,greedy_tokens,greedy_wall,"
        "aggressive_iterations,aggressive_tokens,aggressive_wall"
    )
    assert lines[1].startswith("1,1,")


def test_thread_limit_warns_when_it_cannot_pin(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    monkeypatch.setattr(metrics, "_bundled_openblas", lambda: None)
    with pytest.warns(RuntimeWarning, match="cannot limit BLAS to 1 thread") as caught:
        with thread_limit(1):
            pass
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with thread_limit(None):  # no limit requested, nothing to warn about
            pass


def test_thread_limit_prefers_threadpoolctl(monkeypatch):
    entered = []

    @contextlib.contextmanager
    def threadpool_limits(*, limits):
        entered.append(limits)
        yield

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)

    def no_ctypes():
        raise AssertionError("pinned through ctypes although threadpoolctl is present")

    monkeypatch.setattr(metrics, "_bundled_openblas", no_ctypes)
    with thread_limit(2):
        assert entered == [2]
    assert entered == [2]


@pytest.mark.skipif(metrics._bundled_openblas() is None, reason="numpy bundles no OpenBLAS here")
def test_thread_limit_pins_bundled_openblas_and_restores_it(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # pin through ctypes
    get, _ = metrics._bundled_openblas()
    before = get()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with thread_limit(1):
            assert get() == 1
    assert get() == before
