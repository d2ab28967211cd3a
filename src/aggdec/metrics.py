"""Edit-ratio metrics, equivalence checking, and the benchmark harness.

Speedup is reported in two currencies: sequential iterations (scorer calls in
the decode loop — hardware independent and exactly reproducible) and
wall-clock (hardware dependent, trend only). Per-sentence timing is the
median over `repetitions` runs after `warmup` untimed runs, always in the
online setting: one sentence per decode call.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import AGGRESSIVE, BEAM, GREEDY, UNLIMITED, DecodeConfig, TokenIds, Vocab, prepare_input, strip_sentinels
from .decoding import DecodeResult, aggressive_decode, beam_decode, greedy_decode
from .scorers import Scorer
from .transformer import TinyTransformer, TransformerConfig


# --- edit distance -----------------------------------------------------------


def levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    """Token-level edit distance, unit insert/delete/substitute costs.

    Expects sentinel-free sequences; two-row dynamic program.
    """
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (tok_a != tok_b),
            )
        previous = current
    return previous[len(b)]


def edit_ratio(input_seq: Sequence[int], output_seq: Sequence[int]) -> float:
    """Edit distance normalized by the input length (may exceed 1)."""
    if not input_seq:
        raise ValueError("edit_ratio needs a nonempty input")
    return levenshtein(input_seq, output_seq) / len(input_seq)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation, average ranks for ties; nan when either
    series is constant (correlation undefined)."""
    rx, ry = _ranks(xs), _ranks(ys)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return float("nan")
    return float(np.corrcoef(rx, ry)[0, 1])


def _ranks(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


# --- per-sentence accounting ---------------------------------------------------


@dataclass(frozen=True)
class SentenceRow:
    """One sentence of a bench run; beam columns are None without beam."""

    sentence: int
    input_len: int
    output_len: int
    edit_ratio: float
    greedy_iters: int
    aggressive_iters: int
    beam_iters: int | None
    iteration_speedup: float
    wall_speedup: float
    greedy_wall: float
    aggressive_wall: float
    beam_wall: float | None


# --- equivalence checking -------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    sentence: int
    l_max: int | None
    greedy_result: DecodeResult
    aggressive_result: DecodeResult


@dataclass(frozen=True)
class LmaxRow:
    """One copy-window cap's aggressive-decoding totals over a corpus."""

    l_max: int | None = field(metadata={"none": UNLIMITED})
    sequential_iterations: int
    positions_scored: int
    tokens_emitted: int
    wall_clock: float
    outputs_match_greedy: bool


@dataclass(frozen=True)
class EquivalenceReport:
    sentences: int
    decode_pairs: int
    mismatches: tuple[Mismatch, ...]
    rows: tuple[LmaxRow, ...]  # one per l_max value, in order

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return f"{len(self.mismatches)} mismatches / {self.sentences} sentences"


def check_equivalence(
    scorer: Scorer,
    corpus: Sequence[TokenIds],
    l_max_values: Sequence[int | None] = (None,),
    cfg: DecodeConfig | None = None,
    repetitions: int = 1,
    warmup: int = 0,
) -> EquivalenceReport:
    """Decode every sentence greedily once, untimed, and aggressively at each
    l_max in turn, timed together; collect any output differences (expected:
    none) with full traces attached, and each l_max's totals."""
    if not corpus:
        raise ValueError("equivalence check needs a nonempty corpus")
    base = cfg or DecodeConfig()
    agg_cfgs = [replace(base, mode=AGGRESSIVE, l_max=l_max) for l_max in l_max_values]
    rows = [LmaxRow(l_max, 0, 0, 0, 0.0, True) for l_max in l_max_values]
    mismatches: list[Mismatch] = []
    for idx, raw in enumerate(corpus):
        x = prepare_input(raw, scorer.vocab)
        greedy = greedy_decode(scorer, x, replace(base, mode=GREEDY))
        runs = _timed([lambda c=c: aggressive_decode(scorer, x, c) for c in agg_cfgs], repetitions, warmup)
        for i, (aggressive, wall) in enumerate(runs):
            row, trace = rows[i], aggressive.trace
            match = aggressive.output == greedy.output
            rows[i] = replace(
                row,
                sequential_iterations=row.sequential_iterations + trace.sequential_iterations,
                positions_scored=row.positions_scored + trace.positions_scored,
                tokens_emitted=row.tokens_emitted + trace.tokens_accepted,
                wall_clock=row.wall_clock + wall,
                outputs_match_greedy=row.outputs_match_greedy and match,
            )
            if not match:
                mismatches.append(Mismatch(idx, row.l_max, greedy, aggressive))
    return EquivalenceReport(
        sentences=len(corpus),
        decode_pairs=len(corpus) * len(agg_cfgs),
        mismatches=tuple(mismatches),
        rows=tuple(rows),
    )


# --- benchmarking ---------------------------------------------------------------


def _bundled_openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheels
    bundle (``numpy.libs/libscipy_openblas64_*.so``), or None. Loading it
    again through ctypes returns the copy numpy already uses."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def thread_limit(threads: int | None):
    """Pin the scorer's internal math to `threads` BLAS threads. Entry points
    enter it once around a whole run; the harnesses below never pin. Pins
    through threadpoolctl when it is installed, else through numpy's bundled
    OpenBLAS, restoring the old count on exit; with neither, warn once and
    run unpinned."""
    if threads is None:
        yield
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pass
    else:
        with threadpool_limits(limits=threads):
            yield
        return
    openblas = _bundled_openblas()
    if openblas is None:
        warnings.warn(
            f"cannot limit BLAS to {threads} thread(s): neither threadpoolctl nor "
            "numpy's bundled OpenBLAS is available",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    get, set_ = openblas
    old = get()
    set_(threads)
    try:
        yield
    finally:
        set_(old)


def _timed(
    fns: Sequence[Callable[[], DecodeResult]], repetitions: int, warmup: int
) -> list[tuple[DecodeResult, float]]:
    """Each decode's last result and median wall time. Every repetition runs
    all of them in turn, so a burst of load from other processes slows them
    alike instead of landing on whichever happened to be running."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        for fn in fns:
            fn()
    times: list[list[float]] = [[] for _ in fns]
    results: list = [None] * len(fns)
    for _ in range(repetitions):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            results[i] = fn()
            times[i].append(time.perf_counter() - start)
    return [(result, statistics.median(t)) for result, t in zip(results, times)]


def bench(
    scorer: Scorer,
    corpus: Sequence[TokenIds],
    cfg: DecodeConfig | None = None,
    repetitions: int = 5,
    warmup: int = 2,
    with_beam: bool = False,
) -> list[SentenceRow]:
    """Per-sentence greedy vs aggressive comparison (plus beam when asked).

    Each decode is of one sentence; a repetition runs every mode in turn.
    """
    base = cfg or DecodeConfig()
    vocab = scorer.vocab

    def one(idx: int, raw: TokenIds) -> SentenceRow:
        if not raw:
            raise ValueError(f"bench sentence {idx} is empty; edit_ratio needs input tokens")
        x = prepare_input(raw, vocab)
        decoders = [
            lambda: greedy_decode(scorer, x, replace(base, mode=GREEDY)),
            lambda: aggressive_decode(scorer, x, replace(base, mode=AGGRESSIVE)),
        ]
        if with_beam:
            decoders.append(lambda: beam_decode(scorer, x, replace(base, mode=BEAM)))
        (greedy_res, greedy_wall), (agg_res, agg_wall), *beam = _timed(
            decoders, repetitions, warmup
        )
        beam_res, beam_wall = beam[0] if beam else (None, None)
        output = strip_sentinels(agg_res.output, vocab)
        greedy_iters = greedy_res.trace.sequential_iterations
        agg_iters = agg_res.trace.sequential_iterations
        return SentenceRow(
            sentence=idx,
            input_len=len(raw),
            output_len=len(output),
            edit_ratio=edit_ratio(raw, output),
            greedy_iters=greedy_iters,
            aggressive_iters=agg_iters,
            beam_iters=beam_res.trace.sequential_iterations if beam_res else None,
            iteration_speedup=greedy_iters / agg_iters,
            wall_speedup=greedy_wall / agg_wall if agg_wall > 0 else float("inf"),
            greedy_wall=greedy_wall,
            aggressive_wall=agg_wall,
            beam_wall=beam_wall,
        )

    return [one(idx, raw) for idx, raw in enumerate(corpus)]


# --- sweeps ----------------------------------------------------------------------


@dataclass(frozen=True)
class DepthRow:
    enc_layers: int
    dec_layers: int
    greedy_iterations: int
    greedy_tokens: int
    greedy_wall: float
    aggressive_iterations: int
    aggressive_tokens: int
    aggressive_wall: float


def sweep_depth(
    configs: Sequence[TransformerConfig],
    corpus: Sequence[TokenIds],
    vocab: Vocab,
    cfg: DecodeConfig | None = None,
    repetitions: int = 5,
    warmup: int = 2,
) -> list[DepthRow]:
    """Greedy and aggressive wall-clock/iteration totals per encoder+decoder depth.

    A sentence's wall time is its median over the repetitions, and each
    repetition decodes the sentence with every config in turn, so every
    config's weights are held at once.
    """
    dims = {(c.model_dim, c.heads) for c in configs}
    if len(dims) > 1:
        raise ValueError("depth sweep configs must share model_dim and heads")
    greedy_cfg = replace(cfg or DecodeConfig(), mode=GREEDY)
    agg_cfg = replace(greedy_cfg, mode=AGGRESSIVE)
    scorers = [TinyTransformer(config, vocab) for config in configs]
    runs = []  # per sentence: (result, wall) of greedy then aggressive, config by config
    for raw in corpus:
        x = prepare_input(raw, vocab)
        decoders = []
        for scorer in scorers:
            decoders.append(lambda s=scorer: greedy_decode(s, x, greedy_cfg))
            decoders.append(lambda s=scorer: aggressive_decode(s, x, agg_cfg))
        # each repetition runs every config, so load from other processes
        # cannot favour one depth over another
        runs.append(_timed(decoders, repetitions, warmup))
    rows = []
    for c, config in enumerate(configs):
        greedy = [run[2 * c] for run in runs]
        aggressive = [run[2 * c + 1] for run in runs]
        rows.append(
            DepthRow(
                enc_layers=config.encoder_layers,
                dec_layers=config.decoder_layers,
                greedy_iterations=sum(res.trace.sequential_iterations for res, _ in greedy),
                greedy_tokens=sum(res.trace.tokens_accepted for res, _ in greedy),
                greedy_wall=sum(wall for _, wall in greedy),
                aggressive_iterations=sum(res.trace.sequential_iterations for res, _ in aggressive),
                aggressive_tokens=sum(res.trace.tokens_accepted for res, _ in aggressive),
                aggressive_wall=sum(wall for _, wall in aggressive),
            )
        )
    return rows


# --- report emission ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _cells(row) -> dict:
    """Field name -> value; a None field shows its `none` metadata text, if any."""
    cells = {}
    for f in fields(row):
        value = getattr(row, f.name)
        cells[f.name] = f.metadata.get("none") if value is None else value
    return cells


def rows_csv(row_type: type, rows: Iterable) -> str:
    """A header of `row_type`'s field names, then one CSV line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(row_type))
    for row in rows:
        writer.writerow(_fmt(v) for v in _cells(row).values())
    return out.getvalue()


def rows_json(value) -> str:
    """Any JSON value as indented, key-sorted JSON; dataclass rows anywhere
    inside it become objects keyed by field name."""
    return json.dumps(value, indent=2, sort_keys=True, default=_cells)


def bench_summary(rows: Sequence[SentenceRow]) -> dict:
    """Aggregates over a bench run, with means of 0.0 when it has no
    sentences; per-sentence detail belongs to the CSV."""
    ratios = [r.edit_ratio for r in rows]
    speedups = [r.iteration_speedup for r in rows]
    walls = [r.wall_speedup for r in rows]
    correlation = spearman(ratios, speedups) if len(rows) > 2 else float("nan")
    return {
        "sentences": len(rows),
        "mean_edit_ratio": statistics.fmean(ratios) if rows else 0.0,
        "mean_iteration_speedup": statistics.fmean(speedups) if rows else 0.0,
        "median_iteration_speedup": statistics.median(speedups) if rows else 0.0,
        "mean_wall_speedup": statistics.fmean(walls) if rows else 0.0,
        "total_greedy_iterations": sum(r.greedy_iters for r in rows),
        "total_aggressive_iterations": sum(r.aggressive_iters for r in rows),
        "spearman_edit_ratio_vs_iteration_speedup": (
            correlation if np.isfinite(correlation) else None
        ),
    }
