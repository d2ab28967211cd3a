"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from aggdec import (
    DecodeConfig,
    NgramScorer,
    ScriptedEditScorer,
    TinyTransformer,
    TransformerConfig,
    aggressive_decode,
    bench,
    build_vocab,
    check_equivalence,
    edit_ratio,
    find_suffix_match,
    greedy_decode,
    identity_scorer,
    levenshtein,
    prepare_input,
    spearman,
    sweep_depth,
    tokenize,
    validate_trace,
)
from aggdec.metrics import thread_limit
from aggdec.synthetic import perturb, random_sentence, rewrite_pairs, synthetic_vocab
from oracles import naive_suffix_match, recursive_levenshtein

L_MAX_VALUES = (1, 2, 5, 40, None)


def report(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@dataclass
class EquivalenceRun:
    sentences: int
    decode_pairs: int
    mismatches: int
    dominance_violations: int
    trace_violations: int
    elapsed: float


@pytest.fixture(scope="module")
def criterion1_run() -> EquivalenceRun:
    """1,000 random inputs x {identity, scripted, n-gram} x five l_max values;
    shared by criteria 1 (equivalence), 3 (dominance), and 8 (traces)."""
    rng = np.random.default_rng(20240601)
    vocab = synthetic_vocab(80)
    corpus = [random_sentence(rng, vocab, 1, 60) for _ in range(1000)]
    unique_sources = list(dict.fromkeys(corpus))
    scorers = {
        "identity": identity_scorer(vocab),
        "scripted": ScriptedEditScorer(
            [(src, perturb(rng, src, 0.2, vocab)) for src in unique_sources], vocab
        ),
        "ngram": NgramScorer(corpus[:150], order=2, smoothing=0.1, vocab=vocab,
                              copy_bias=2.0),
    }
    mismatches = dominance = trace_bad = pairs = 0
    start = time.perf_counter()
    for scorer in scorers.values():
        for raw in corpus:
            x = prepare_input(raw, vocab)
            greedy = greedy_decode(scorer, x, DecodeConfig())
            for result in (greedy,):
                try:
                    validate_trace(result.trace, len(result.output) - 1)
                except ValueError:
                    trace_bad += 1
            for l_max in L_MAX_VALUES:
                aggressive = aggressive_decode(
                    scorer, x, DecodeConfig(mode="aggressive", l_max=l_max)
                )
                pairs += 1
                if aggressive.output != greedy.output:
                    mismatches += 1
                if (
                    aggressive.trace.sequential_iterations
                    > greedy.trace.sequential_iterations
                ):
                    dominance += 1
                try:
                    validate_trace(aggressive.trace, len(aggressive.output) - 1)
                except ValueError:
                    trace_bad += 1
    elapsed = time.perf_counter() - start
    return EquivalenceRun(
        sentences=len(corpus),
        decode_pairs=pairs,
        mismatches=mismatches,
        dominance_violations=dominance,
        trace_violations=trace_bad,
        elapsed=elapsed,
    )


def test_criterion_1_exact_equivalence(criterion1_run):
    run = criterion1_run
    ok = run.mismatches == 0 and run.elapsed < 60.0
    line = report(
        1,
        ok,
        f"{run.mismatches} mismatches over {run.decode_pairs} greedy/aggressive pairs "
        f"({run.sentences} sentences x 3 scorers x {len(L_MAX_VALUES)} l_max) "
        f"in {run.elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_transformer_equivalence():
    rng = np.random.default_rng(7711)
    vocab = synthetic_vocab(60)
    corpus = [random_sentence(rng, vocab, 1, 30) for _ in range(200)]
    start = time.perf_counter()
    mismatches = 0
    for enc, dec in ((6, 6), (9, 3)):
        config = TransformerConfig(
            encoder_layers=enc, decoder_layers=dec, model_dim=64, heads=4,
            ffn_dim=128, seed=97,
        )
        scorer = TinyTransformer(config, vocab)
        for raw in corpus:
            x = prepare_input(raw, vocab)
            greedy = greedy_decode(scorer, x, DecodeConfig(max_len=48))
            aggressive = aggressive_decode(
                scorer, x, DecodeConfig(mode="aggressive", max_len=48)
            )
            if greedy.output != aggressive.output:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 300.0
    line = report(
        2,
        ok,
        f"{mismatches} mismatches over 200 inputs x (6+6, 9+3) in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_3_iteration_dominance_and_low_edit_speedup(criterion1_run):
    rng = np.random.default_rng(5150)
    vocab = synthetic_vocab(120)
    pairs = rewrite_pairs(rng, 200, vocab, min_len=15, max_len=35,
                          edit_rate=(0.0, 0.1))
    scorer = ScriptedEditScorer(pairs, vocab)
    rows = bench(scorer, [src for src, _ in pairs], repetitions=1, warmup=0)
    mean_ratio = sum(r.edit_ratio for r in rows) / len(rows)
    mean_speedup = sum(r.iteration_speedup for r in rows) / len(rows)
    ok = (
        criterion1_run.dominance_violations == 0
        and mean_ratio <= 0.1
        and mean_speedup >= 2.5
    )
    line = report(
        3,
        ok,
        f"{criterion1_run.dominance_violations} dominance violations in criterion-1 run; "
        f"mean edit ratio {mean_ratio:.3f}, mean iteration speedup {mean_speedup:.2f}x "
        f"(needs >= 2.5x)",
    )
    assert ok, line


def test_criterion_4_speedup_falls_with_edit_ratio():
    rng = np.random.default_rng(1999)
    vocab = synthetic_vocab(120)
    pairs = rewrite_pairs(rng, 60, vocab, min_len=10, max_len=40, edit_rate=0.0)
    pairs += rewrite_pairs(rng, 240, vocab, min_len=10, max_len=40,
                           edit_rate=(0.0, 0.5))
    scorer = ScriptedEditScorer(pairs, vocab)
    rows = bench(scorer, [src for src, _ in pairs], repetitions=1, warmup=0)
    correlation = spearman(
        [r.edit_ratio for r in rows], [r.iteration_speedup for r in rows]
    )
    zero_edit = [r for r in rows if r.edit_ratio == 0.0]
    zero_ok = all(r.iteration_speedup == float(r.output_len + 1) for r in zero_edit)
    ok = correlation <= -0.5 and len(zero_edit) >= 60 and zero_ok
    line = report(
        4,
        ok,
        f"spearman(edit_ratio, iteration_speedup) = {correlation:.3f} (needs <= -0.5); "
        f"{len(zero_edit)} zero-edit sentences all at speedup == output length: {zero_ok}",
    )
    assert ok, line


def test_criterion_5_lmax_sweep_ordering():
    rng = np.random.default_rng(33)
    vocab = synthetic_vocab(100)
    # every sentence shorter than 40 tokens, so a 40-token copy window covers
    # any sentence plus its trailing PAD in one pass
    corpus = [random_sentence(rng, vocab, 5, 39) for _ in range(200)]
    values = [1, 2, 3, 5, 10, 20, 40, None]
    rows = check_equivalence(identity_scorer(vocab), corpus, values).rows
    iters = [row.sequential_iterations for row in rows]
    nonincreasing = all(a >= b for a, b in zip(iters, iters[1:]))
    saturated = iters[-2] == iters[-1]
    outputs_ok = all(row.outputs_match_greedy for row in rows)
    ok = nonincreasing and saturated and outputs_ok
    line = report(
        5,
        ok,
        f"iterations over l_max {values}: {iters}; nonincreasing={nonincreasing}, "
        f"l_max=40 == unlimited: {saturated}, outputs match greedy: {outputs_ok}",
    )
    assert ok, line


def test_criterion_6_decoder_depth_wall_clock():
    """Wall-clock ordering needs every config to decode the same number of
    tokens, so the corpus keeps only sentences whose greedy decode runs to the
    max_len budget under all four depth configurations."""
    rng = np.random.default_rng(4242)
    vocab = synthetic_vocab(80)
    base = dict(model_dim=256, heads=8, ffn_dim=512, seed=1717)
    depths = ((6, 3), (6, 6), (6, 9), (9, 3))
    configs = {
        (enc, dec): TransformerConfig(encoder_layers=enc, decoder_layers=dec, **base)
        for enc, dec in depths
    }
    budget = 24
    cfg = DecodeConfig(max_len=budget)
    scorers = {key: TinyTransformer(c, vocab) for key, c in configs.items()}
    corpus = []
    candidates = [random_sentence(rng, vocab, 18, 26) for _ in range(40)]
    for raw in candidates:
        x = prepare_input(raw, vocab)
        if all(
            len(greedy_decode(s, x, cfg).output) - 1 == budget
            for s in scorers.values()
        ):
            corpus.append(raw)
        if len(corpus) == 6:
            break
    assert len(corpus) >= 3, "not enough full-budget sentences for stable timing"
    start = time.perf_counter()
    with thread_limit(1):
        rows = sweep_depth(
            list(configs.values()), corpus, vocab, cfg=cfg, repetitions=5, warmup=2,
        )
    elapsed = time.perf_counter() - start
    wall = {(r.enc_layers, r.dec_layers): r.greedy_wall for r in rows}
    margins = {
        "6+6 vs 6+3": wall[(6, 6)] / wall[(6, 3)],
        "6+9 vs 6+6": wall[(6, 9)] / wall[(6, 6)],
        "6+6 vs 9+3": wall[(6, 6)] / wall[(9, 3)],
    }
    ok = all(ratio >= 1.2 for ratio in margins.values()) and elapsed < 600.0
    pretty = ", ".join(f"{k}: {v:.2f}x" for k, v in margins.items())
    line = report(
        6,
        ok,
        f"greedy wall-clock ratios over {len(corpus)} full-budget sentences "
        f"(median of 5 reps): {pretty} (each needs >= 1.2x) in {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_7_oracle_checks():
    # exhaustive: token-level distance vs the plain recursion
    alphabet = (0, 1, 2)
    sequences = [
        seq
        for length in range(6)
        for seq in itertools.product(alphabet, repeat=length)
    ]
    lev_bad = sum(
        1
        for a in sequences
        for b in sequences
        if levenshtein(a, b) != recursive_levenshtein(a, b)
    )

    # suffix matcher vs the rescan-per-length oracle
    rng = np.random.default_rng(2024)
    vocab = synthetic_vocab(5)
    suffix_bad = 0
    for _ in range(10_000):
        raw = random_sentence(rng, vocab, 0, 12) if rng.random() > 0.05 else ()
        x = prepare_input(raw, vocab)
        o = (vocab.bos,) + random_sentence(rng, vocab, 0, 10)
        got = find_suffix_match(o, x)
        expected = naive_suffix_match(o, x)
        if (got is None) != (expected is None):
            suffix_bad += 1
        elif got is not None and (got.i, got.q) != expected:
            suffix_bad += 1

    # the quoted rewrite: 3 edits over 11 tokens
    src_text = "Nowadays , technology is more advance than the past time ."
    tgt_text = "Nowadays , technology is more advanced than in the past ."
    vocab_t = build_vocab([src_text, tgt_text])
    ratio = edit_ratio(
        tokenize(src_text, "whitespace", vocab_t),
        tokenize(tgt_text, "whitespace", vocab_t),
    )
    ratio_ok = abs(ratio - 3 / 11) < 1e-12

    ok = lev_bad == 0 and suffix_bad == 0 and ratio_ok
    line = report(
        7,
        ok,
        f"levenshtein vs recursion: {lev_bad} disagreements over {len(sequences) ** 2} pairs; "
        f"suffix matcher vs naive counter: {suffix_bad} disagreements over 10,000 pairs; "
        f"quoted-sentence edit ratio {ratio:.4f} == 3/11: {ratio_ok}",
    )
    assert ok, line


def test_criterion_8_trace_well_formedness(criterion1_run):
    ok = criterion1_run.trace_violations == 0
    line = report(
        8,
        ok,
        f"{criterion1_run.trace_violations} trace-invariant violations across the "
        f"criterion-1 run ({criterion1_run.decode_pairs} aggressive decodes plus greedy)",
    )
    assert ok, line
