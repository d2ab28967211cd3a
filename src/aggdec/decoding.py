"""Greedy, beam, and aggressive (parallel draft-and-verify) decoding.

Aggressive decoding has two halves, and each lives in one place. A
per-decode proposer (_proposer) makes every drafting decision: which tokens
to draft, from where, how many of them a pass verifies, and, without a
draft, whether to re-enter the input or take a step, and why. The verify
loop (_verify_loop) only verifies: it feeds a draft into the decoder as
pseudo inputs, scores all of them in one call, and accepts predictions up
to and including the first disagreement with it. Everything after the
disagreement is discarded and recomputed, which is exactly why the emitted
tokens match greedy decoding token for token whenever the scorer is prefix
consistent, wherever the draft came from. Greedy decoding is the loop with
no proposer: a single autoregressive step per iteration. Each prediction is
its row's argmax, ties to the smallest token id. The loop normalises no row
into probabilities: it checks only that each accepted row's chosen logit is
finite and its token not PAD.

Every iteration makes one call, the session's ``predict``, with the output
list itself, which only grows between calls, and a tree of branches that
continue it. A step (every greedy iteration, and every fallback step) asks
for one PAD slot, which is never predicted, and appends its one row's
prediction with no bifurcation to find; a drafted pass checks its one
branch; only an aligned pass, of two branches, walks them. No iteration
copies the output, so a session that keeps per-decode state (the scripted
one's on-script boundary) or reads only the output's end (the n-gram's
context) answers a step in the same time at any output length. An answer
holds its branch's rows' argmaxes and chosen logits, and may end at its
first disagreement, as the n-gram's does; ``positions_scored`` counts the
rows answered. Beam search reads the rows themselves.

The proposer tries, in this order:

1. An input anchor of two or more tokens: the output ends in a suffix that
   occurs exactly once in the input, and the input agrees with at least the
   output's last two tokens there. The draft copies the input after that
   occurrence, through the trailing PAD.
2. The output's own repeats (prompt-lookup decoding): the output's last two
   tokens also occur earlier in the output. The draft is what followed their
   latest earlier occurrence, repeated, then a PAD slot, in as many tokens
   as the output may still grow by. PAD is never emitted, so a pass
   accepted up to its PAD slot still earns the token that slot's row
   predicts.
3. A one-token input anchor, drafted as in 1.
4. Input-guided re-entry (Ge et al., arXiv 2205.10350), for a session that
   declares ``branching``. If the last pass copied x[s:] and rejected its
   k-th token, the token emitted in its place was either inserted before
   x[s+k-1] or replaced it, so the copy goes on at x[s+k-1:] or at
   x[s+k:]. An aligned pass verifies both as a tree of two branches sharing
   their first row (SpecInfer, Miao et al., arXiv 2305.09781), and the loop
   keeps the one greedy agrees with longest.

How much of a draft a pass verifies comes from a cost model, the optimal
draft length of speculative decoding (Leviathan et al., arXiv 2211.17192,
section 3.5). A pass that scores w positions costs 1 + c(w - 1) one-position
passes, where c is the scorer's declared ``position_cost``, and if each
drafted token is accepted with probability a it emits (1 - a^w) / (1 - a)
tokens on average. The proposer cuts each branch to the w, up to its length
and l_max, that maximises emitted tokens per unit cost, before copying it.
a is the sentence's running rate of drafted tokens accepted out of those
compared, pooled over every source from a prior of 9 of 10: a pass that
matches m drafted tokens adds m accepted and min(w, m + 1) compared. So a
scorer that keeps rejecting drafts soon verifies one or two positions a
pass, and one that keeps accepting them verifies long ones; a scorer whose
extra positions are free (c = 0) verifies every draft in full. This only
narrows the window a pass verifies, never what a scored row means, so the
output is greedy's by the same argument as for an ``l_max`` cap. c is a
fixed property of the scorer, never timed, so iteration counts repeat
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Generator, NamedTuple, Sequence

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


# SuffixMatch and DecodeResult are NamedTuples, as IterationRecord is:
# the decode loop builds them on every iteration or decode, and a frozen
# dataclass takes three times as long.
class SuffixMatch(NamedTuple):
    """Output suffix o[j-q..j] matching input window x[i-q..i] uniquely."""

    i: int
    q: int


class DecodeResult(NamedTuple):
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
    testing every input position; the commonest case, a last token that
    occurs once, returns with no candidate list at all.
    """
    j = len(o) - 1
    last = o[j]
    occurrences = x.count(last) - (x[-1] == last)  # x[-1] is outside x[0..n]
    if occurrences == 1:
        return tuple.__new__(SuffixMatch, (x.index(last), 0))
    candidates = []
    i = -1
    for _ in range(occurrences):
        i = x.index(last, i + 1)
        candidates.append(i)
    q = 0
    while True:
        if len(candidates) == 1:
            return tuple.__new__(SuffixMatch, (candidates[0], q))
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
    # A plain loop: on CPython 3.11 to 3.13 it compares a token in one half
    # to two thirds of the time map(ne, ...) takes, and builds no iterators
    # (3.10, which has no specialising interpreter, takes 1.4 times as long).
    k = 0
    for predicted in predictions:
        if predicted != copied[k]:
            return k + 1
        k += 1
    return None


def _require_mode(cfg: DecodeConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"config mode is {cfg.mode!r}, expected {mode!r}")


def _check_chosen(chosen: list[float], tokens: list[int], first: int) -> None:
    """Raise, naming the first of the len(tokens) accepted rows whose chosen
    logit, chosen[r], is not finite; row r is decoder position first + r.
    The tokens are the rows' argmaxes, which numpy takes to a row's first
    NaN, so a chosen logit is NaN when its row holds a NaN, -inf when the
    whole row is masked, and +inf when a logit is. Rows past the accepted
    ones are never read. The decode loop calls it only when the accepted
    rows' chosen logits do not sum to a finite number; finite logits whose
    sum overflowed pass."""
    for r in range(len(tokens)):
        logit = chosen[r]
        if not math.isfinite(logit):
            what = "NaN logit" if logit != logit else "all logits are masked" if logit < 0 else "infinite logit"
            raise ValueError(f"{what} at position {first + r}")


def _miscounted(branches: int, answers: int, j: int) -> ValueError:
    return ValueError(f"a tree of {branches} branches got {answers} answers at position {j}")


def _bifurcation(predicted: list[int], chosen: list[float], copied: TokenIds, j: int) -> int | None:
    """find_bifurcation of a branch from decoder position j and its answer,
    which must hold one chosen logit per prediction and every row of the
    branch, or end at its first disagreement with it. An answer with other
    counts, more rows, none, or fewer that do not end at a disagreement
    raises, naming the position."""
    answered, w = len(predicted), len(copied)
    if answered != len(chosen):
        raise ValueError(f"{answered} predictions and {len(chosen)} chosen logits at position {j}")
    if answered == w:  # every row, as the scripted session answers
        return find_bifurcation(predicted, copied)
    if 0 < answered < w and find_bifurcation(predicted, copied[:answered]) == answered:
        return answered
    if answered > w:
        raise ValueError(f"{answered} predictions for a window of {w} at position {j}")
    if not answered:
        raise ValueError(f"no predictions at position {j}")
    raise ValueError(f"answer ends short of its window and not at its first disagreement at position {j + answered - 1}")


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


def _proposer(x: TokenIds, o: list[int], max_len: int, l_max: int | None, cost: float, branching: bool) -> Generator:
    """Aggressive decoding's drafting for one decode of x into o: a generator.

    Each ``send`` returns the next iteration's (tree, anchors, source): the
    branches that continue o, in the module docstring's order of
    preference, each cut to its _pass_width window at the running rate
    before it is copied; each one's anchor, (i, q) for the q + 1 tokens of x
    or o ending at index i that it continues, or (t - 1, -1) for a re-entry
    x[t:]; and their source. An output draft holds as many tokens as o may
    still grow by, so a pass that accepts it through its PAD slot fills o
    to max_len. Without a branch it returns (None, None, fallback) for a
    step: "absent" when x lacks o's last token, which also skips the suffix
    search, else "ambiguous". The output lookup walks only the earlier
    occurrences of the last token, with list.index, and keeps no index.

    After a pass, the next send brings what its kept branch did: (anchor,
    source, k, agreed, bifurcation), its 1-based first disagreement k (None
    without one), the tokens it agreed through, and the record's
    bifurcation (None when the pass emitted no token in a rejected one's
    place). That moves the rate and sets the re-entry a branching session's
    next aligned tree starts from. The first send, and one after a step,
    bring nothing. The generator reads o, which the decode loop extends
    between sends, and never changes it."""
    accepted, compared = _PRIOR_ACCEPTED, _PRIOR_COMPARED
    reentry = None  # x[reentry - 1] is the input token the last pass rejected, when branches may follow
    while True:
        j = len(o) - 1
        last, prev = o[j], o[j - 1]
        present = last in x  # o never holds PAD, x's last token
        match = find_suffix_match(o, x) if present else None
        p = best = -1
        if match is None or not match.i or x[match.i - 1] != prev:  # no two-token input anchor
            for _ in range(o.count(last) - 1):  # the occurrences before o[j], in order
                p = o.index(last, p + 1)
                if p and o[p - 1] == prev:
                    best = p
        if best >= 0:
            budget, loop = max_len - j, o[best + 1:]
            drafted = tuple((loop * -(-budget // len(loop)))[:budget - 1]) + (x[-1],)
            told = yield (drafted[:_pass_width(budget, l_max, cost, accepted / compared)],), ((best, 1),), OUTPUT
        elif match is not None:
            s = match.i + 1  # a one-token match here has q == 0: a longer one agrees with prev
            w = _pass_width(len(x) - s, l_max, cost, accepted / compared)
            told = yield (x[s:s + w],), ((match.i, match.q),), INPUT
        else:
            tree = anchors = ()
            for t in () if reentry is None else (reentry - 1, reentry):  # x[reentry - 1:], x[reentry:]
                w = _pass_width(len(x) - t, l_max, cost, accepted / compared)
                if w > 1:
                    tree, anchors = tree + (x[t:t + w],), anchors + ((t - 1, -1),)
            reentry = None
            if not tree:
                yield None, None, "ambiguous" if present else "absent"
                continue
            told = yield tree, anchors, ALIGNED
        anchor, source, k, agreed, bifurcation = told
        # the matched tokens out of those compared: them and the rejected one, if any
        accepted, compared = accepted + (agreed if k is None else k - 1), compared + agreed
        # an input copy x[anchor[0] + 1:] rejected its k-th token
        reentry = anchor[0] + 1 + k if branching and bifurcation is not None and source != OUTPUT else None


def _verify_loop(scorer: Scorer, x: TokenIds, cfg: DecodeConfig, proposer: Callable | None) -> DecodeResult:
    """Decode until EOS or max_len, verifying what a proposer drafts.

    ``proposer(x, o, max_len, l_max, cost, branching)``, as _proposer, is
    the decode's drafting generator; greedy has none and steps at every
    position. Each iteration sends the proposer what the last pass's kept
    branch did and gets a tree, then makes one predict call, passing o
    itself, which the loop only extends. A step (no tree) appends its one
    row's prediction, with no bifurcation or slicing to work out, and its
    record names the proposer's fallback. A tree of one branch is checked
    by its one answer; only a tree of two walks them, keeping the one greedy
    agrees with longest, the first on a tie. A wrong count of answers, or an
    answer with chosen logits not one per prediction, more rows than its
    branch, none, or ending short of it but not at its first disagreement,
    raises, naming the position. A pass accepts nothing past its first EOS,
    as greedy emits nothing past it. Every token is its row's argmax, and
    only accepted rows are checked, so a contract breach (a NaN or
    non-finite chosen logit, or PAD as the chosen token) raises where
    greedy would."""
    vocab = scorer.vocab
    max_len = cfg.resolve_max_len(len(x) - 2)
    session = scorer.session(x)
    predict = getattr(session, "predict", None) or partial(DecodeSession.predict, session)  # duck-typed: from rows
    eos, pad = vocab.eos, vocab.pad
    step = ((pad,),)  # PAD is never predicted, so a step's one row disagrees
    o = [vocab.bos]
    if proposer is not None:  # scorers are duck-typed; a cost of 0 verifies drafts in full
        propose = proposer(x, o, max_len, cfg.l_max, getattr(scorer, "position_cost", 0.0),
                           getattr(session, "branching", False)).send
    records: list[IterationRecord] = []
    tree = source = told = None  # greedy: a step at every position, with no fallback to name
    j = 0  # the decoder position the next iteration scores first: o's last index
    while o[-1] != eos and j < max_len:
        if proposer is not None:
            tree, anchors, source = propose(told)
        if tree is None:  # a step: its one row, where j < max_len, and an EOS ends the decode
            answers = predict(o, step)
            if len(answers) != 1:
                raise _miscounted(1, len(answers), j)
            try:
                (token,), (logit,) = answers[0]
            except ValueError:
                _bifurcation(*answers[0], step[0], j)  # raises: a step's answer holds one row and one logit
            if not math.isfinite(logit):
                _check_chosen([logit], [token], j)
            if token == pad:
                raise ValueError(f"PAD emitted at position {j}")
            records.append(_STEPS[source])
            o.append(token)
            j += 1
            continue
        answers = predict(o, tree)  # o itself: the session reads only what it gained since the last call
        if len(answers) != len(tree):
            raise _miscounted(len(tree), len(answers), j)
        if len(tree) == 1:
            copied, anchor = tree[0], anchors[0]
            predicted, chosen = answers[0]
            if len(predicted) == 1 == len(chosen) and predicted[0] != copied[0]:  # many an n-gram pass's answer
                k = 1
            else:
                k = _bifurcation(predicted, chosen, copied, j)
            agreed, scored = k or len(copied), len(predicted)
        else:
            agreed, scored = 0, 1 - len(tree)  # the shared first row once
            for i, copied in enumerate(tree):
                predicted, chosen = answers[i]
                k = _bifurcation(predicted, chosen, copied, j)
                scored += len(predicted)
                if (k or len(copied)) > agreed:  # k is never 0; the first branch on a tie
                    agreed, kept, k_kept = k or len(copied), i, k
            predicted, chosen = answers[kept]
            k, anchor = k_kept, anchors[kept]
        accepted = agreed if agreed < max_len - j else max_len - j  # greedy truncates at max_len; so do we
        tokens = predicted[:accepted]
        if eos in tokens:  # and stops at its first EOS, which a draft may hold
            accepted = tokens.index(eos) + 1
            tokens = tokens[:accepted]
        bifurcation = None if k is None or k > accepted else j + k
        # every field, fallback's None too: tuple.__new__ skips the NamedTuple's Python-level
        # __new__, about 0.2 us a pass on a 2-CPU x86 machine
        record = (AGGRESSIVE, scored, accepted, anchor, bifurcation, source, None)
        records.append(tuple.__new__(IterationRecord, record))
        told = anchor, source, k, agreed, bifurcation  # for the proposer's next send
        if not math.isfinite(sum(chosen[:accepted])):  # finite only if every term is
            _check_chosen(chosen, tokens, j)
        if pad in tokens:
            raise ValueError(f"PAD emitted at position {j + tokens.index(pad)}")
        o.extend(tokens)
        j += accepted
    trace = tuple.__new__(DecodeTrace, (tuple(records),))
    validate_trace(trace, len(o) - 1)
    return tuple.__new__(DecodeResult, (tuple(o), trace))


def greedy_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """One token per step, argmax with smallest-id tie-break, until EOS or max_len."""
    _require_mode(cfg, GREEDY)
    return _verify_loop(scorer, x, cfg, None)


def aggressive_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Parallel draft-and-verify decoding; emits exactly greedy_decode's tokens.

    The verify loop with _proposer's drafts (see the module docstring). The
    first pass copies the whole input after the BOS suffix match (i=0, q=0).
    A pass's record names its source: "input" or "output" for a draft, and
    "aligned" for the re-entry tree, whose suffix_match is (t - 1, -1) for
    the kept branch x[t:] (the insertion on a tie) and whose
    positions_scored counts every branch's rows with the shared first one
    once; the rate moves by the kept branch alone. A branch windowed to one
    position is left out, and with none left (at l_max = 1, say) the
    proposer asks for a step. A step's record names its fallback, "absent"
    (the input lacks the output's last token) or "ambiguous" (no unique
    suffix, no output draft and no re-entry). Only the window depends on the
    rate and on the scorer's ``position_cost``, and every accepted row is
    still verified against its scored prefix, so the output stays greedy's;
    a scorer that keeps disagreeing with the draft costs about what greedy
    costs.
    """
    _require_mode(cfg, AGGRESSIVE)
    return _verify_loop(scorer, x, cfg, _proposer)


@dataclass
class _Hypothesis:
    ids: TokenIds
    logprob: float
    session: DecodeSession


def beam_decode(scorer: Scorer, x: TokenIds, cfg: DecodeConfig) -> DecodeResult:
    """Standard beam search over summed log-probabilities.

    Every hypothesis is ranked by one key, (-summed log-prob, length, ids):
    a tie goes to the shorter, then to the smaller ids. Each step extends
    every live hypothesis by its beam_size + 1 best tokens and keeps, in
    rank order among the first 2 * beam_size candidates, the first beam_size
    that do not end in EOS. An EOS candidate finishes only if it ranks among
    the first beam_size, which keeps beam_size=1 identical to greedy_decode,
    truncation at max_len included. Only the best finished hypothesis is
    kept, and the search stops once no live hypothesis's log-prob exceeds
    its: log-probs never rise, and a hypothesis that finishes later is
    longer, so it loses the tie. The result is the best finished hypothesis,
    else the best live one at max_len. The trace records the winning
    hypothesis path, one autoregressive record per emitted token; the extra
    per-step scoring cost of the other beams shows up in wall-clock only.
    """
    _require_mode(cfg, BEAM)
    vocab = scorer.vocab
    beam_size = cfg.beam_size
    max_len = cfg.resolve_max_len(len(x) - 2)
    live = [_Hypothesis((vocab.bos,), 0.0, scorer.session(x))]
    best = None  # the best finished hypothesis's ranking key, (-logprob, length, ids)
    for _ in range(max_len):
        if not live or best is not None and max(h.logprob for h in live) <= -best[0]:
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
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        new_live: list[_Hypothesis] = []
        for rank, (cum, tok, _, hyp) in enumerate(candidates[: 2 * beam_size]):
            ids = hyp.ids + (tok,)
            if tok == vocab.eos:
                # only a top-beam_size EOS may finish; this is what keeps
                # beam_size=1 identical to greedy even at max_len truncation
                if rank < beam_size and (best is None or (-cum, len(ids), ids) < best):
                    best = (-cum, len(ids), ids)
            elif len(new_live) < beam_size:
                new_live.append(_Hypothesis(ids, cum, hyp.session.fork()))
        live = new_live
    if best is None:
        best = min((-h.logprob, len(h.ids), h.ids) for h in live)
    best_ids = best[2]
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
