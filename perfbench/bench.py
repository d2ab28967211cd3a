"""Closed-loop measurement of one workload, with aggdec used as a library.

One client sends one sentence per call and waits for the reply (batch size
1, the online setting). An operation is one sentence taken from text to text
twice, once per decode mode: ``tokenize`` -> ``prepare_input`` ->
``greedy_decode`` or ``aggressive_decode`` -> ``detokenize``. It fails when
it raises, when the two modes disagree, when a repeat of the sentence
decodes differently from its first decode, or, where the scorer fixes the
answer, when the text is not that answer.

The timed window cycles through the workload's sentences, alternating which
mode runs first, until the time is up and every sentence has been decoded
at least once. End-to-end metrics come from an untraced run, which also
times the frozen reference decoder after each operation and scales its
times to nominal machine speed by the reference's slowdown. A traced run
decodes every sentence untraced and traced in turn, alternating the order,
and reports per-layer metrics from the traced half and the tracing overhead
from comparing the two.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aggdec import (
    AGGRESSIVE,
    GREEDY,
    DecodeConfig,
    aggressive_decode,
    detokenize,
    greedy_decode,
    prepare_input,
    tokenize,
)
from aggdec.core import WHITESPACE

import reference
from tracing import CODE, TracedScorer, Tracer, self_times
from workloads import Prepared, Workload

SETUP_REPEATS = 3
MODES = (GREEDY, AGGRESSIVE)
CONFIGS = {GREEDY: DecodeConfig(mode=GREEDY), AGGRESSIVE: DecodeConfig(mode=AGGRESSIVE)}
FACTORS = ("p50", "p95", "mean")    # statistics the machine factors are taken over

# metric name -> unit, in the order the report prints them
END_TO_END = {
    "setup_s": "s",
    "agg_ms_p50": "ms",
    "agg_ms_p95": "ms",
    "greedy_ms_p50": "ms",
    "greedy_ms_p95": "ms",
    "agg_tokens_per_s": "tokens/s",
    "iters_per_sentence": "iterations",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decoding.self_ms": "ms",
    "decoding.argmax_calls": "count",
    "decoding.argmax_ms": "ms",
    "decoding.suffix_match_calls": "count",
    "decoding.suffix_match_us": "us",
    "decoding.accept_ratio": "ratio",
    "decoding.mean_accepted_per_pass": "tokens",
    "decoding.agg_pass_share": "ratio",
    "decoding.fallback_steps": "count",
    "decoding.wall_speedup": "ratio",
    "decoding.iter_speedup": "ratio",
    "scorers.log_softmax_calls": "count",
    "scorers.log_softmax_ms": "ms",
    "scorers.score_calls": "count",
    "scorers.score_ms": "ms",
    "scorers.us_per_position": "us",
    "transformer.encode_ms": "ms",
    "transformer.step1_ms": "ms",
    "transformer.us_per_position_multi": "us",
    "transformer.decoder_gmacs_per_s": "GMAC/s",
    "core.tokenize_us": "us",
    "core.prepare_input_us": "us",
    "core.validate_trace_us": "us",
    "core.detokenize_us": "us",
    "perfbench.trace_overhead_pct": "%",
}


@dataclass(frozen=True)
class Steps:
    """The library calls one trip makes; plain, or wrapped in spans."""

    tokenize: object = tokenize
    prepare_input: object = prepare_input
    detokenize: object = detokenize
    decoders: dict = field(
        default_factory=lambda: {GREEDY: greedy_decode, AGGRESSIVE: aggressive_decode}
    )

    @classmethod
    def traced(cls, tracer: Tracer) -> "Steps":
        return cls(
            tokenize=tracer.wrap("tokenize", tokenize),
            prepare_input=tracer.wrap("prepare_input", prepare_input),
            detokenize=tracer.wrap("detokenize", detokenize),
            decoders={
                GREEDY: tracer.wrap("greedy", greedy_decode),
                AGGRESSIVE: tracer.wrap("aggressive", aggressive_decode),
            },
        )


PLAIN = Steps()


def trip(scorer, vocab, text: str, mode: str, steps: Steps = PLAIN):
    """One sentence from text to text in one mode: (result, text, seconds)."""
    start = time.perf_counter()
    x = steps.prepare_input(steps.tokenize(text, WHITESPACE, vocab), vocab)
    result = steps.decoders[mode](scorer, x, CONFIGS[mode])
    out = steps.detokenize(result.output, vocab)
    return result, out, time.perf_counter() - start


def pair(scorer, vocab, text: str, greedy_first: bool, steps: Steps = PLAIN) -> dict:
    modes = MODES if greedy_first else MODES[::-1]
    return {mode: trip(scorer, vocab, text, mode, steps) for mode in modes}


def check(trips: dict, reference, expected: str | None) -> str | None:
    """Why an operation's outputs are wrong, or None when they are right."""
    greedy, greedy_text, _ = trips[GREEDY]
    agg, agg_text, _ = trips[AGGRESSIVE]
    if agg.output != greedy.output or agg_text != greedy_text:
        return "aggressive output differs from greedy output"
    if reference is not None and greedy.output != reference:
        return "sentence decoded differently on a repeat"
    if expected is not None and greedy_text != expected:
        return "greedy output differs from the scripted target"
    return None


def set_up(workload: Workload, seed: int):
    """Generate inputs, build vocab and scorer, warm up, SETUP_REPEATS times.

    Returns the set-up, the frozen reference (scorer, inputs), built and
    warmed outside the timing, and per repeat (set-up seconds, seconds the
    reference then took to decode the warm-up sentences), so
    that set-up time can be scaled by the machine's speed at that moment.
    """
    timings, ref = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prep = workload.prepare(np.random.default_rng(seed), workload.sentences)
        for s, text in enumerate(prep.texts[: workload.warmup]):
            try:
                pair(prep.scorer, prep.vocab, text, greedy_first=bool(s % 2))
            except Exception:
                pass  # the timed window counts and reports failures
        setup = time.perf_counter() - start
        if ref is None:
            ref = prep.make_reference()
            for x in ref[1][: workload.warmup]:
                reference.greedy(ref[0], x)
        start = time.perf_counter()
        for x in ref[1][: workload.warmup]:
            reference.greedy(ref[0], x)
        timings.append((setup, time.perf_counter() - start))
    return prep, ref, timings


def setup_seconds(timings, m: "Measurement", factor: float, warmup: int) -> float:
    """Median set-up time at nominal machine speed.

    Each set-up is measured in units of the reference batch decoded right
    after it, then converted with the batch's time at nominal speed: the
    batch's fastest times in the timed window, divided by the window's factor.
    """
    batch = sum(m.best_reference[:warmup]) / factor
    if not 0 < batch < float("inf"):
        return float("nan")    # no warm-up sentence decoded in the window
    return statistics.median(setup / ref_s for setup, ref_s in timings) * batch


@dataclass
class Measurement:
    sentences: int
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)        # reason -> count
    seconds: dict = field(default_factory=lambda: {m: [] for m in MODES})
    # traced run only
    traced_seconds: dict = field(default_factory=lambda: {m: [] for m in MODES})
    traces: dict = field(default_factory=lambda: {m: [] for m in MODES})
    tracer: Tracer | None = None

    def __post_init__(self):
        n = self.sentences
        self.best = {mode: [float("inf")] * n for mode in MODES}   # fastest trip per sentence
        self.best_reference = [float("inf")] * n
        self.references = [None] * n                                # first output per sentence
        self.first_iterations = [None] * n

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def digest(self) -> str:
        text = "\n".join(repr(ref) for ref in self.references)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(prep: Prepared, seconds: float, trace: bool, ref=None) -> Measurement:
    """Run the timed window. An untraced run also times the frozen reference
    decoder, ``ref`` = (scorer, inputs), on each sentence after the program."""
    n = len(prep.texts)
    m = Measurement(n)
    if trace:
        m.tracer = Tracer()
        traced_steps = Steps.traced(m.tracer)
        traced_scorer = TracedScorer(prep.scorer, m.tracer, prep.transformer)

        def traced_pair(op: int, text: str, greedy_first: bool) -> dict:
            m.tracer.op = op
            with m.tracer.installed():
                return pair(traced_scorer, prep.vocab, text, greedy_first, traced_steps)

    expected = prep.expected or (None,) * n
    gc.collect()
    deadline = time.perf_counter() + seconds
    op = 0
    while op < n or time.perf_counter() < deadline:
        s, text = op % n, prep.texts[op % n]
        greedy_first, traced_first = op % 2 == 0, trace and op % 4 >= 2
        m.attempted += 1
        op += 1
        try:
            if traced_first:
                traced = traced_pair(op, text, greedy_first)
            trips = pair(prep.scorer, prep.vocab, text, greedy_first)
            if trace and not traced_first:
                traced = traced_pair(op, text, greedy_first)
        except Exception as exc:
            m.fail(f"{type(exc).__name__}: {exc}")
            if m.failed == 1:
                traceback.print_exc()
            continue
        reason = check(trips, m.references[s], expected[s])
        if reason is None and trace:
            reason = check(traced, trips[GREEDY][0].output, expected[s])
        if reason is not None:
            m.fail(reason)
            continue
        if m.references[s] is None:
            m.references[s] = trips[GREEDY][0].output
            m.first_iterations[s] = trips[AGGRESSIVE][0].trace.sequential_iterations
        for mode in MODES:
            m.seconds[mode].append(trips[mode][2])
            m.best[mode][s] = min(m.best[mode][s], trips[mode][2])
            if trace:
                m.traced_seconds[mode].append(traced[mode][2])
                m.traces[mode].append(traced[mode][0].trace)
        if not trace:
            start = time.perf_counter()
            reference.greedy(ref[0], ref[1][s])
            m.best_reference[s] = min(m.best_reference[s], time.perf_counter() - start)
    return m


def machine_factors(m: Measurement, reference_ms) -> dict[str, float]:
    """How much slower than nominal the machine ran, per statistic: the
    frozen reference's p50, p95 and mean latency across sentences in this
    run over the same statistic at nominal speed. Long sentences slow down
    more than short ones when the machine is busy, so each statistic of the
    program is scaled by the same statistic of the reference."""
    times = np.array([t for t in m.best_reference if t != float("inf")]) * 1e3
    if not len(times):
        return dict.fromkeys(FACTORS, float("nan"))
    measured = (np.percentile(times, 50), np.percentile(times, 95), times.mean())
    return {key: float(value) / nominal for key, value, nominal in zip(FACTORS, measured, reference_ms)}


def end_to_end(m: Measurement, setup_s: float, factors: dict[str, float]) -> dict[str, float]:
    """Times are scaled to nominal machine speed by dividing each by the
    factor of its statistic; ``setup_s`` comes scaled already.

    A sentence's latency is its fastest trip in the window: the decode is
    deterministic, so a slower repeat only adds time the machine took from
    it. Percentiles are taken across sentences.
    """
    decoded = [s for s, ref in enumerate(m.references) if ref is not None]
    best = {mode: np.array([m.best[mode][s] for s in decoded]) * 1e3 for mode in MODES}
    tokens = sum(len(m.references[s]) - 1 for s in decoded)

    def ms(mode: str, q: float) -> float:
        return float(np.percentile(best[mode], q)) / factors[f"p{q}"] if decoded else float("nan")

    return {
        "setup_s": setup_s,
        "agg_ms_p50": ms(AGGRESSIVE, 50),
        "agg_ms_p95": ms(AGGRESSIVE, 95),
        "greedy_ms_p50": ms(GREEDY, 50),
        "greedy_ms_p95": ms(GREEDY, 95),
        "agg_tokens_per_s": (
            tokens / best[AGGRESSIVE].sum() * 1e3 * factors["mean"] if decoded else float("nan")
        ),
        "iters_per_sentence": (
            statistics.fmean(m.first_iterations[s] for s in decoded) if decoded else float("nan")
        ),
        "success_rate": (m.attempted - m.failed) / m.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(m: Measurement, transformer: bool) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations that passed.

    Counts and times are per operation (one sentence, both modes) unless the
    name says per call or per position; decoding ratios describe aggressive
    decoding.
    """
    cols = m.tracer.columns()
    ops = len(m.traces[AGGRESSIVE])
    us = (cols["end_ns"] - cols["start_ns"]) * 1e-3
    own_us = self_times(cols["parent"], us)
    positions = cols["positions"]

    def spans(*names):
        return np.isin(cols["name"], [CODE[n] for n in names])

    def calls(mask) -> float:
        return _ratio(mask.sum(), ops)

    def ms(mask, values=us) -> float:
        return _ratio(values[mask].sum() * 1e-3, ops)

    def us_per_call(mask) -> float:
        return _ratio(us[mask].sum(), mask.sum())

    def us_per_position(mask) -> float:
        return _ratio(us[mask].sum(), positions[mask].sum())

    score = spans("score")
    step1, multi = score & (positions == 1), score & (positions > 1)
    agg = [r for t in m.traces[AGGRESSIVE] for r in t.iterations]
    passes = [r for r in agg if r.mode == AGGRESSIVE]
    greedy_iterations = sum(t.sequential_iterations for t in m.traces[GREEDY])
    plain_s = sum(map(sum, m.seconds.values()))
    traced_s = sum(map(sum, m.traced_seconds.values()))
    only = (lambda value: value) if transformer else (lambda value: 0.0)
    return {
        "decoding.self_ms": ms(spans("greedy", "aggressive"), own_us),
        "decoding.argmax_calls": calls(spans("argmax")),
        "decoding.argmax_ms": ms(spans("argmax")),
        "decoding.suffix_match_calls": calls(spans("suffix_match")),
        "decoding.suffix_match_us": ms(spans("suffix_match")) * 1e3,
        "decoding.accept_ratio": _ratio(
            sum(r.accepted for r in agg), sum(r.positions_scored for r in agg)
        ),
        "decoding.mean_accepted_per_pass": _ratio(sum(r.accepted for r in passes), len(passes)),
        "decoding.agg_pass_share": _ratio(len(passes), len(agg)),
        "decoding.fallback_steps": _ratio(len(agg) - len(passes), ops),
        "decoding.wall_speedup": _ratio(sum(m.seconds[GREEDY]), sum(m.seconds[AGGRESSIVE])),
        "decoding.iter_speedup": _ratio(greedy_iterations, len(agg)),
        "scorers.log_softmax_calls": calls(spans("log_softmax")),
        "scorers.log_softmax_ms": ms(spans("log_softmax")),
        "scorers.score_calls": calls(score),
        "scorers.score_ms": ms(score),
        "scorers.us_per_position": us_per_position(score),
        "transformer.encode_ms": only(us_per_call(spans("session")) * 1e-3),
        "transformer.step1_ms": only(us_per_call(step1) * 1e-3),
        "transformer.us_per_position_multi": only(us_per_position(multi)),
        # modelled MACs per microsecond, times 1e-3, is GMAC/s
        "transformer.decoder_gmacs_per_s": only(_ratio(cols["macs"][score].sum(), us[score].sum()) * 1e-3),
        "core.tokenize_us": us_per_call(spans("tokenize")),
        "core.prepare_input_us": us_per_call(spans("prepare_input")),
        "core.validate_trace_us": us_per_call(spans("validate_trace")),
        "core.detokenize_us": us_per_call(spans("detokenize")),
        "perfbench.trace_overhead_pct": (_ratio(traced_s, plain_s) - 1.0) * 100.0,
    }


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path | None = None):
    """Set up and measure one workload; returns (measurement, factors, metrics).

    ``factors`` are the machine factors of an untraced run; traced runs
    report raw times and no factors.
    """
    prep, ref, timings = set_up(workload, seed)
    m = measure(prep, seconds, trace, ref)
    if not trace:
        factors = machine_factors(m, workload.reference_ms)
        setup_s = setup_seconds(timings, m, factors["mean"], workload.warmup)
        return m, factors, end_to_end(m, setup_s, factors)
    metrics = per_layer(m, prep.transformer is not None)
    if out_dir is not None:
        m.tracer.write(out_dir / f"spans-{workload.name}.npz")
    return m, {}, metrics
