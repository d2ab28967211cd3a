"""Greedy, beam, and aggressive (parallel copy-and-verify) decoding.

Greedy and aggressive decoding run one verify loop. Aggressive decoding
proposes a copy whenever the current output ends in a suffix that occurs
exactly once in the input: the input tokens following that occurrence go into
the decoder as pseudo inputs, all are scored in one call, and predictions are
accepted up to and including the first disagreement with the copied tokens.
Everything after the disagreement is discarded and recomputed, which is
exactly why the emitted tokens match greedy decoding token for token whenever
the scorer is prefix consistent. Without a proposal (greedy never makes one)
the loop takes a single autoregressive step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AGGRESSIVE,
    AUTOREGRESSIVE,
    BEAM,
    GREEDY,
    DecodeConfig,
    DecodeTrace,
    IterationRecord,
    TokenIds,
    validate_trace,
)
from .scorers import DecodeSession, Scorer, log_softmax


@dataclass(frozen=True)
class SuffixMatch:
    """Output suffix o[j-q..j] matching input window x[i-q..i] uniquely."""

    i: int
    q: int


@dataclass(frozen=True)
class DecodeResult:
    output: TokenIds            # BOS-prefixed; EOS-terminated unless max_len hit
    trace: DecodeTrace
    score: float                # sum of chosen-token log-probabilities


def argmax_with_tiebreak(logits: Sequence[float]) -> int:
    """Index of the maximal logit; ties break to the smallest token id."""
    arr = np.asarray(logits)
    idx = int(np.argmax(arr))  # first occurrence of the max == smallest id
    if not np.isfinite(arr[idx]):
        raise ValueError("all logits are masked")
    return idx


def find_suffix_match(o: Sequence[int], x: Sequence[int]) -> SuffixMatch | None:
    """Shortest output suffix that occurs exactly once in x[0..n].

    The match window is BOS through the last real input token; the trailing
    PAD can be copied but never anchors a match. Grows the suffix from length
    one, filtering the surviving anchor positions, and stops at the first
    count of exactly one (match) or zero (no match can ever revive), or once
    the suffix would outgrow the output.
    """
    n = len(x) - 2
    j = len(o) - 1
    last = o[j]
    candidates = [i for i in range(n + 1) if x[i] == last]
    q = 0
    while True:
        if len(candidates) == 1:
            return SuffixMatch(i=candidates[0], q=q)
        if not candidates:
            return None
        q += 1
        if q > j:
            return None
        tok = o[j - q]
        candidates = [i for i in candidates if i >= q and x[i - q] == tok]


def find_bifurcation(predictions: Sequence[int], copied: Sequence[int]) -> int | None:
    """Smallest 1-based k where predictions[k] differs from copied[k], else None.

    When the copy window includes the trailing PAD, None is impossible: PAD
    is masked from every scorer, so the PAD slot always disagrees.
    """
    if len(predictions) != len(copied):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(copied)} copied"
        )
    if not copied:
        raise ValueError("verification window must contain at least one token")
    for k, (pred, src) in enumerate(zip(predictions, copied), start=1):
        if pred != src:
            return k
    return None


def _require_mode(cfg: DecodeConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}, expected {mode!r}")


def _choose(block: np.ndarray, first: int) -> tuple[list[int], list[float]]:
    """Each row's argmax, ties to the smallest id, and its log-probability;
    row r is decoder position first + r. The log-probability of the row max,
    -log(sum(exp(row - max))), is NaN exactly when that max is not finite."""
    tokens = block.argmax(axis=1)
    chosen = block[np.arange(len(tokens)), tokens]
    log_probs = (-np.log(np.exp(block - chosen[:, None]).sum(axis=1))).tolist()
    if math.isnan(sum(log_probs)):  # some chosen logit is not finite
        r = int(np.flatnonzero(~np.isfinite(chosen))[0])
        bad = chosen[r]
        what = "NaN logit" if bad != bad else "all logits are masked" if bad < 0 else "infinite logit"
        raise ValueError(f"{what} at position {first + r}")
    return tokens.tolist(), log_probs


def _verify_loop(scorer: Scorer, x: TokenIds, cfg: DecodeConfig, propose: Callable | None) -> DecodeResult:
    """Decode until EOS or max_len. ``propose(o, x)`` returns the suffix match
    whose continuation to copy (through the trailing PAD, whose slot guarantees
    a bifurcation), or None for one autoregressive step. Only accepted rows are
    chosen and scored, so a contract breach raises where greedy would raise."""
    vocab = scorer.vocab
    n = len(x) - 2
    max_len = cfg.resolve_max_len(n)
    session = scorer.session(x)
    o = [vocab.bos]
    records: list[IterationRecord] = []
    score = 0.0
    while o[-1] != vocab.eos and len(o) - 1 < max_len:
        j = len(o) - 1
        match = None if propose is None else propose(o, x)
        if match is None:
            rows = session.score_positions(tuple(o), (j,))
            record = IterationRecord(mode=AUTOREGRESSIVE, positions_scored=1, accepted=1)
        else:
            w = n + 1 - match.i
            if cfg.l_max is not None:
                w = min(w, cfg.l_max)
            copied = tuple(x[match.i + 1: match.i + 1 + w])
            prefix = tuple(o) + copied[:-1]  # pseudo decoder inputs; never includes PAD
            rows = session.score_positions(prefix, range(j, j + w))
            k = find_bifurcation(rows.argmax(axis=1).tolist(), copied)
            accepted = min(w if k is None else k, max_len - j)  # greedy truncates at max_len; so do we
            rows = rows[:accepted]
            record = IterationRecord(
                mode=AGGRESSIVE, positions_scored=w, accepted=accepted, suffix_match=(match.i, match.q),
                bifurcation=(j + k) if k is not None and k <= accepted else None,
            )
        tokens, log_probs = _choose(rows, j)
        for log_prob in log_probs:
            score += log_prob
        o.extend(tokens)
        records.append(record)
    trace = DecodeTrace(iterations=tuple(records))
    validate_trace(trace, len(o) - 1)
    return DecodeResult(output=tuple(o), trace=trace, score=score)


def greedy_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """One token per step, argmax with smallest-id tie-break, until EOS or max_len."""
    _require_mode(cfg, GREEDY)
    return _verify_loop(scorer, x, cfg, None)


def aggressive_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Parallel copy-and-verify decoding; emits exactly greedy_decode's tokens.

    Starts from the BOS suffix match (i=0, q=0), so the first pass copies the
    whole input. Each aggressive pass copies at most l_max tokens. When no
    unique suffix exists, falls back to one autoregressive step.
    """
    _require_mode(cfg, AGGRESSIVE)
    return _verify_loop(scorer, x, cfg, find_suffix_match)


@dataclass
class _Hypothesis:
    ids: TokenIds
    logprob: float
    session: DecodeSession


def beam_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Standard beam search over summed log-probabilities.

    Finished hypotheses are ranked by score / length**length_penalty, length
    counting emitted tokens. beam_size=1 with length_penalty=0 reproduces
    greedy_decode exactly, including its truncation behavior at max_len. The
    trace records the winning hypothesis path, one autoregressive record per
    emitted token; the extra per-step scoring cost of the other beams shows up
    in wall-clock only.
    """
    _require_mode(cfg, BEAM)
    vocab = scorer.vocab
    beam_size = cfg.beam_size
    alpha = cfg.length_penalty
    max_len = cfg.resolve_max_len(len(x) - 2)

    def penalized(logprob: float, length: int) -> float:
        return logprob / (length ** alpha) if alpha > 0 else logprob

    live = [_Hypothesis((vocab.bos,), 0.0, scorer.session(x))]
    finished: list[tuple[TokenIds, float]] = []  # kept as the best beam_size seen
    for _ in range(max_len):
        if not live:
            break
        if (
            alpha == 0
            and len(finished) >= beam_size
            and max(h.logprob for h in live)
            <= min(score for _, score in finished)
        ):
            # log-probs only decrease, so no live path can enter the pool
            break
        candidates: list[tuple[float, int, int, _Hypothesis]] = []
        for parent_rank, hyp in enumerate(live):
            row = hyp.session.score_positions(hyp.ids, (len(hyp.ids) - 1,))[0]
            logp = log_softmax(row)
            top = np.argsort(-logp, kind="stable")[: beam_size + 1]
            for tok in top:
                tok = int(tok)
                if not np.isfinite(logp[tok]):
                    continue  # masked (PAD)
                candidates.append((hyp.logprob + float(logp[tok]), tok, parent_rank, hyp))
        # all candidates share one length, so raw-score order == penalized order
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        new_live: list[_Hypothesis] = []
        for rank, (cum, tok, _, hyp) in enumerate(candidates[: 2 * beam_size]):
            ids = hyp.ids + (tok,)
            if tok == vocab.eos:
                # only a top-beam_size EOS may finish; this is what keeps
                # beam_size=1 identical to greedy even at max_len truncation
                if rank < beam_size:
                    finished.append((ids, cum))
            elif len(new_live) < beam_size:
                new_live.append(_Hypothesis(ids, cum, hyp.session.fork()))
        if len(finished) > beam_size:
            finished.sort(key=lambda f: (-penalized(f[1], len(f[0]) - 1), len(f[0]), f[0]))
            del finished[beam_size:]
        live = new_live
    pool = finished if finished else [(h.ids, h.logprob) for h in live]

    def ranking(entry: tuple[TokenIds, float]):
        ids, logprob = entry
        return (-penalized(logprob, len(ids) - 1), len(ids), ids)

    best_ids, best_score = min(pool, key=ranking)
    records = tuple(
        IterationRecord(mode=AUTOREGRESSIVE, positions_scored=1, accepted=1)
        for _ in range(len(best_ids) - 1)
    )
    trace = DecodeTrace(iterations=records)
    validate_trace(trace, len(best_ids) - 1)
    return DecodeResult(output=best_ids, trace=trace, score=best_score)


def decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == GREEDY:
        return greedy_decode(scorer, x, cfg)
    if cfg.mode == BEAM:
        return beam_decode(scorer, x, cfg)
    if cfg.mode == AGGRESSIVE:
        return aggressive_decode(scorer, x, cfg)
    raise ValueError(f"unknown decode mode: {cfg.mode!r}")
