"""Greedy, beam, and aggressive (parallel draft-and-verify) decoding.

Greedy and aggressive decoding run one verify loop. Each iteration asks a
proposer for a draft: the tokens it expects to come next. The loop feeds them
into the decoder as pseudo inputs, scores all of them in one call, and
accepts predictions up to and including the first disagreement with the
draft. Everything after the disagreement is discarded and recomputed, which
is exactly why the emitted tokens match greedy decoding token for token
whenever the scorer is prefix consistent, wherever the draft came from.
Without a draft (greedy never asks for one) the loop takes a single
autoregressive step. Each prediction is its row's argmax, ties to the
smallest token id. The loop normalises no row into probabilities: it checks
only that each accepted row's chosen logit is finite and its token not PAD.

The loop need not read rows either: where the session's rows are the
scorer's, it asks the scorer's ``predict_positions`` for each scored
position's argmax and chosen logit, which the scripted and n-gram scorers
answer without building a row (``Scorer`` states the rule). Beam search
reads the rows themselves.

Aggressive decoding's proposer tries, in this order:

1. An input anchor of two or more tokens: the output ends in a suffix that
   occurs exactly once in the input, and the input agrees with at least the
   output's last two tokens there. The draft copies the input after that
   occurrence, through the trailing PAD.
2. The output's own repeats (prompt-lookup decoding): the output's last two
   tokens also occur earlier in the output. The draft is what followed their
   latest earlier occurrence, repeated: an output that has started a loop is
   drafted as running on in it, then a PAD slot, in as many tokens as the
   output may still grow by. This catches an output that repeats itself
   where the input does not.
3. A one-token input anchor, drafted as in 1.

Without a draft, the loop can still re-enter the input where the last pass
left it (input-guided re-entry; Ge et al., arXiv 2205.10350). If that pass
copied x[s:] and rejected its k-th token, the token emitted in its place was
either inserted before x[s+k-1] or replaced it, so the copy goes on at
x[s+k-1:] or at x[s+k:]. An aligned pass verifies both branches in one
scorer call, as a token tree of two paths sharing their first row (SpecInfer,
Miao et al., arXiv 2305.09781), and keeps the one greedy agrees with
longest; its own bifurcation sets the next re-entry. It needs the scorer's
``predict_branches``, so a scorer without it takes the autoregressive step.

PAD is never emitted, so a pass whose draft is accepted up to its PAD slot
still earns the token that slot's row predicts.

How much of a draft a pass verifies comes from a cost model, the optimal
draft length of speculative decoding (Leviathan et al., arXiv 2211.17192,
section 3.5). A pass that scores w positions costs 1 + c(w - 1) one-position
passes, where c is the scorer's declared ``position_cost``, and if each
drafted token is accepted with probability a it emits (1 - a^w) / (1 - a)
tokens on average. Each pass scores the w, up to the draft's length and
l_max, that maximises emitted tokens per unit cost. a is the sentence's
running rate of drafted tokens accepted out of those compared, pooled over
both draft sources from a prior of 9 of 10: a pass that matches m drafted
tokens adds m accepted and min(w, m + 1) compared. So a scorer that keeps
rejecting drafts soon verifies one or two positions a pass, and one that
keeps accepting them verifies long ones; a scorer whose extra positions are
free (c = 0) verifies every draft in full. This only narrows the window a
pass verifies, never what a scored row means, so the output is greedy's by
the same argument as for an ``l_max`` cap. c is a fixed property of the
scorer, never timed, so iteration counts repeat exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, count
from operator import ne
from typing import Callable, NamedTuple, Sequence

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
from .scorers import DecodeSession, Scorer, log_softmax, predictions

# Prior of the running acceptance rate: 9 of 10 drafted tokens accepted. It
# lets the first pass of a sentence verify a long draft.
_PRIOR_ACCEPTED = 9
_PRIOR_COMPARED = 10

INPUT = "input"
OUTPUT = "output"
ALIGNED = "aligned"

# Records are immutable, so every autoregressive step with the same fallback
# reason shares one.
_STEPS = {
    reason: IterationRecord(mode=AUTOREGRESSIVE, positions_scored=1, accepted=1, fallback=reason)
    for reason in (None, "absent", "ambiguous")
}


# SuffixMatch and Draft are NamedTuples, as IterationRecord is: the decode loop
# builds them on every iteration, and a frozen dataclass takes three times as long.
class SuffixMatch(NamedTuple):
    """Output suffix o[j-q..j] matching input window x[i-q..i] uniquely."""

    i: int
    q: int


class Draft(NamedTuple):
    """Tokens to verify from the next output position on, and their source:
    INPUT or OUTPUT. anchor is the (index, anchor length - 1) pair in that
    source whose continuation the tokens are."""

    tokens: TokenIds
    source: str
    anchor: tuple[int, int]


@dataclass(frozen=True)
class DecodeResult:
    output: TokenIds            # BOS-prefixed; EOS-terminated unless max_len hit
    trace: DecodeTrace


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
    the suffix would outgrow the output. The first candidates are the
    occurrences of o's last token, found with ``index`` rather than by
    testing every input position.
    """
    j = len(o) - 1
    last = o[j]
    candidates = []
    i = -1
    for _ in range(x.count(last) - (x[-1] == last)):  # x[-1] is outside x[0..n]
        i = x.index(last, i + 1)
        candidates.append(i)
    q = 0
    while True:
        if len(candidates) == 1:
            return SuffixMatch(candidates[0], q)
        if not candidates:
            return None
        q += 1
        if q > j:
            return None
        tok = o[j - q]
        candidates = [i for i in candidates if i >= q and x[i - q] == tok]


def propose_draft(o: list[int], x: TokenIds, budget: int) -> Draft | None:
    """Aggressive decoding's proposer; the longer anchor wins.

    An input suffix match whose input agrees with o's last two tokens drafts
    the input after it: every match of two or more tokens does, and so does
    a one-token match (find_suffix_match stops at the shortest unique
    suffix) whose input token before it agrees too. Otherwise, if o's last
    two tokens occur earlier in o, at latest at index best, the draft is
    o[best+1:] repeated with period len(o) - 1 - best, then a PAD slot, cut
    so that the draft is ``budget`` tokens long: budget is the number of
    tokens o may still grow by, so a pass that accepts the draft through its
    PAD slot fills o exactly. Otherwise a one-token input match drafts the
    input after it, and without one the answer is None, for one
    autoregressive step. A last token that x lacks has no input match, so
    the suffix search is skipped for it. The output lookup walks only the
    earlier occurrences of the last token, with list.index, so it keeps no
    index between calls and costs about a microsecond.
    """
    j = len(o) - 1
    last, prev = o[j], o[j - 1]
    match = find_suffix_match(o, x) if last in x else None  # o never holds PAD, x's last token
    if match is not None and match.i and x[match.i - 1] == prev:  # a two-token input anchor
        return Draft(x[match.i + 1:], INPUT, (match.i, match.q))
    p = best = -1
    for _ in range(o.count(last) - 1):  # the occurrences before o[j], in order
        p = o.index(last, p + 1)
        if p and o[p - 1] == prev:
            best = p
    if best >= 0:
        loop = o[best + 1:]
        return Draft(tuple((loop * -(-budget // len(loop)))[:budget - 1]) + (x[-1],), OUTPUT, (best, 1))
    if match is None:
        return None
    return Draft(x[match.i + 1:], INPUT, (match.i, 0))


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
    if predictions[0] != copied[0]:  # the commonest disagreement, answered before building iterators
        return 1
    return next(compress(count(1), map(ne, predictions, copied)), None)


def _require_mode(cfg: DecodeConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}, expected {mode!r}")


def _check_chosen(chosen: list[float], tokens: list[int], first: int) -> None:
    """Raise unless the chosen logit of each of the len(tokens) accepted
    rows, chosen[r], is finite; row r is decoder position first + r. The
    tokens are the rows' argmaxes, which numpy takes to a row's first NaN, so
    a chosen logit is NaN when its row holds a NaN, -inf when the whole row
    is masked, and +inf when a logit is. Rows past the accepted ones are
    never read. A sum of floats is finite only if every term is, so one sum
    clears the common case; the scan names the bad row, and passes finite
    logits whose sum overflowed."""
    if math.isfinite(sum(chosen[:len(tokens)])):
        return
    for r in range(len(tokens)):
        logit = chosen[r]
        if not math.isfinite(logit):
            what = "NaN logit" if logit != logit else "all logits are masked" if logit < 0 else "infinite logit"
            raise ValueError(f"{what} at position {first + r}")


# A sentence's rate is a ratio of small integers and a cap is at most max_len,
# so a few distinct (rate, cost, cap) keys recur across passes and sentences.
@lru_cache(maxsize=4096)
def _window(rate: float, cost: float, cap: int) -> int:
    """The w in 1..cap that maximises (1 - rate^w) / ((1 - rate)(1 + cost(w - 1))),
    the tokens a pass of w positions emits per unit cost when each drafted
    token is accepted with probability rate. The ratio rises to one peak and
    then falls, so the search stops at the first w past it."""
    w, term, tokens, best = 1, 1.0, 1.0, 1.0
    while w < cap:
        term *= rate
        tokens += term  # (1 - rate^(w+1)) / (1 - rate)
        value = tokens / (1.0 + cost * w)
        if value < best:
            break
        best = value
        w += 1
    return w


def _pass_width(length: int, l_max: int | None, cost: float, rate: float) -> int:
    """How many of a draft's `length` tokens a pass verifies: at most l_max,
    and the _window of that cap when the scorer prices its positions."""
    w = length if l_max is None or l_max >= length else l_max
    return _window(rate, cost, w) if cost else w


def _aligned_pass(predict_branches, o: list[int], x: TokenIds, start: int, l_max: int | None, cost: float, rate: float):
    """Verify the insertion re-entry x[start - 1:] and the substitution
    re-entry x[start:] in one predict_branches call. Each branch's window
    follows the pass rule; a branch whose window is a single position is
    left out, and None is returned when no branch is left. Otherwise returns
    (t, copied, predicted, chosen, k, scored) for the branch x[t:] that
    greedy agrees with longest, the insertion on a tie: k is its
    bifurcation, and scored counts the rows of every branch, the shared
    first row once."""
    starts, copies = [], []
    for t in (start - 1, start):
        w = _pass_width(len(x) - t, l_max, cost, rate)
        if w > 1:
            starts.append(t)
            copies.append(x[t:t + w])
    if not copies:
        return None
    best = None
    for t, copied, (predicted, chosen) in zip(starts, copies, predict_branches(tuple(o), copies)):
        k = find_bifurcation(predicted, copied)
        accepted = len(copied) if k is None else k
        if best is None or accepted > best[0]:
            best = (accepted, t, copied, predicted, chosen, k)
    return best[1:] + (sum(map(len, copies)) - len(copies) + 1,)


def _verify_loop(scorer: Scorer, x: TokenIds, cfg: DecodeConfig, propose: Callable | None) -> DecodeResult:
    """Decode until EOS or max_len. ``propose(o, x, budget)`` returns a Draft
    to verify, or None for one autoregressive step, whose record then names
    the fallback reason; budget is the number of tokens o may still grow by.
    A pass verifies the draft's first _pass_width(...) tokens. Where
    propose returns None right after a pass that copied the input and
    bifurcated, and the scorer answers predict_branches, an aligned pass
    takes the step's place. Every token is its row's argmax, and only
    accepted rows are checked, so a contract breach (a NaN or non-finite
    chosen logit, or PAD as the chosen token) raises where greedy would
    raise."""
    vocab = scorer.vocab
    n = len(x) - 2
    max_len = cfg.resolve_max_len(n)
    session = scorer.session(x)
    branches = None
    if hasattr(scorer, "predict_positions") and type(session).score_positions is DecodeSession.score_positions:
        predict = partial(scorer.predict_positions, session.state)  # the session's rows are the scorer's
        if propose is not None and getattr(scorer, "predict_branches", None) is not None:
            branches = partial(scorer.predict_branches, session.state)
    else:
        score = session.score_positions

        def predict(prefix, positions):
            return predictions(score(prefix, positions))

    cost = getattr(scorer, "position_cost", 0.0)  # scorers are duck-typed; 0 verifies drafts in full
    l_max, eos, pad = cfg.l_max, vocab.eos, vocab.pad
    o = [vocab.bos]
    records: list[IterationRecord] = []
    drafted_accepted, drafted_compared = _PRIOR_ACCEPTED, _PRIOR_COMPARED
    reentry = None  # x[reentry - 1] is the input token the last pass rejected, when branches may follow
    while o[-1] != eos and len(o) - 1 < max_len:
        j = len(o) - 1
        draft = None if propose is None else propose(o, x, max_len - j)
        # without a draft: an aligned pass where the last pass left a re-entry, else one step
        if draft is None and (
            reentry is None
            or (aligned := _aligned_pass(branches, o, x, reentry, l_max, cost, drafted_accepted / drafted_compared))
            is None
        ):
            tokens, chosen = predict(tuple(o), (j,))
            # o[j] is never PAD, so searching all of x searches x[0..n]
            record = _STEPS[None if propose is None else "ambiguous" if o[j] in x else "absent"]
            reentry = None
        else:
            if draft is not None:
                drafted, source, anchor = draft
                w = _pass_width(len(drafted), l_max, cost, drafted_accepted / drafted_compared)
                copied = drafted[:w]
                prefix = tuple(o) + copied[:-1]  # pseudo decoder inputs; never includes PAD
                predicted, chosen = predict(prefix, range(j, j + w))
                k = find_bifurcation(predicted, copied)
                scored = w
            else:
                t, copied, predicted, chosen, k, scored = aligned
                w, source, anchor = len(copied), ALIGNED, (t - 1, -1)
            if k is None:
                matched = accepted = w
            else:
                matched, accepted = k - 1, k
            drafted_accepted += matched
            drafted_compared += accepted  # the matched tokens and the rejected one, if any
            if accepted > max_len - j:  # greedy truncates at max_len; so do we
                accepted = max_len - j
            bifurcation = None if k is None or k > accepted else j + k
            tokens = predicted[:accepted]
            record = IterationRecord(AGGRESSIVE, scored, accepted, anchor, bifurcation, source)
            # an input copy x[anchor[0] + 1:] rejected its k-th token
            reentry = None if branches is None or bifurcation is None or source == OUTPUT else anchor[0] + 1 + k
        _check_chosen(chosen, tokens, j)
        if pad in tokens:
            raise ValueError(f"PAD emitted at position {j + tokens.index(pad)}")
        o.extend(tokens)
        records.append(record)
    trace = DecodeTrace(iterations=tuple(records))
    validate_trace(trace, len(o) - 1)
    return DecodeResult(output=tuple(o), trace=trace)


def greedy_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """One token per step, argmax with smallest-id tie-break, until EOS or max_len."""
    _require_mode(cfg, GREEDY)
    return _verify_loop(scorer, x, cfg, None)


def aggressive_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Parallel draft-and-verify decoding; emits exactly greedy_decode's tokens.

    Starts from the BOS suffix match (i=0, q=0), so the first pass copies the
    whole input. Each later pass verifies the draft of propose_draft: the
    input after a unique suffix match of two or more tokens, else the tokens
    that followed the latest earlier occurrence of the output's last two
    tokens, repeated up to max_len with a PAD slot last, else the input after
    a one-token match. Records name the draft's source, "input" or "output".
    Without a draft, decoding falls back to one autoregressive step,
    recorded as "absent" (the last token is not in the input) or
    "ambiguous" (no unique suffix and no output draft).

    Where the scorer answers ``predict_branches`` and the last pass copied
    the input x[s:] and bifurcated at its k-th token, a missing draft gets
    an "aligned" pass instead of the step: it verifies the insertion
    re-entry x[s+k-1:] and the substitution re-entry x[s+k:] in one call,
    each in its own window, and keeps the branch greedy agrees with longest,
    the insertion on a tie. A branch windowed to one position is left out,
    and with none left (at l_max = 1, say) the step is taken as before. The
    record's suffix_match is (t - 1, -1) for the kept branch x[t:], its
    positions_scored counts every branch's rows with the shared first one
    once, and the rate moves by the kept branch alone.

    A pass scores the w positions, at most l_max and the draft's length,
    that maximise (1 - a^w) / ((1 - a)(1 + c(w - 1))): the expected tokens
    per unit cost, where a is the sentence's running rate of drafted tokens
    accepted out of those compared (prior 9 of 10) and c is the scorer's
    ``position_cost`` (0 when it declares none, which verifies every draft
    in full). Only the window changes and every accepted row is still
    verified against its scored prefix, so the output stays greedy's; a
    scorer that keeps disagreeing with the draft then costs about what
    greedy costs.
    """
    _require_mode(cfg, AGGRESSIVE)
    return _verify_loop(scorer, x, cfg, propose_draft)


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

    best_ids = min(pool, key=ranking)[0]
    trace = DecodeTrace(iterations=(_STEPS[None],) * (len(best_ids) - 1))
    validate_trace(trace, len(best_ids) - 1)
    return DecodeResult(output=best_ids, trace=trace)


def decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == GREEDY:
        return greedy_decode(scorer, x, cfg)
    if cfg.mode == BEAM:
        return beam_decode(scorer, x, cfg)
    if cfg.mode == AGGRESSIVE:
        return aggressive_decode(scorer, x, cfg)
    raise ValueError(f"unknown decode mode: {cfg.mode!r}")
