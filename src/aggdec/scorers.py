"""Scorer contract and the scripted / n-gram reference scorers.

A scorer is a deterministic conditional next-token distribution. The key
contract is prefix consistency: the logits reported for prefix position j
depend only on prefix[0..j] and the encoder state, never on later positions,
which is what makes parallel copy-and-verify decoding emit exactly the greedy
output. PAD's logit is -inf everywhere, so PAD can never be emitted.

A scorer answers in two ways. ``score_positions`` returns logit rows, which
beam search and ``check`` read. ``predict_positions`` returns only what
greedy and aggressive decoding read of each row: its argmax, ties to the
smallest token id, and that token's logit. The default derives both from the
rows; the scripted and n-gram scorers answer without building any. The
scripted scorer also answers ``predict_branches``: the predictions of several
drafts that share a prefix, from one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

import numpy as np

from .core import TokenIds, Vocab

NEG_INF = float("-inf")

# Background logit for tokens the scripted scorer did not choose: far enough
# below 0 that no beam recombination can prefer an off-script path.
SCRIPTED_OFF_LOGIT = -30.0


def predictions(rows: np.ndarray) -> tuple[list[int], list[float]]:
    """Each row's argmax, ties to the smallest id, and that token's logit.
    numpy's argmax stops at a row's first NaN, so a row holding a NaN
    chooses a NaN logit."""
    tokens = rows.argmax(axis=1)
    return tokens.tolist(), rows[np.arange(len(tokens)), tokens].tolist()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities from a logit row; -inf entries stay -inf."""
    m = float(np.max(logits))
    if not np.isfinite(m):
        raise ValueError("cannot normalize an all-masked logit vector")
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted)))


class Scorer:
    """Base contract. Immutable after construction and shareable; per-decode
    incremental state lives in a DecodeSession.

    ``position_cost`` is the relative cost of one more scored position: an
    aggressive pass that scores w positions costs about
    1 + position_cost * (w - 1) one-position passes. Aggressive decoding
    sizes each pass's window from it, and 0 means every draft is verified in
    full. It is a fixed property of the scorer, never timed at run time, so
    iteration counts repeat exactly. The decoders read it with getattr, so a
    scorer that is not a subclass may leave it out and counts as 0.

    Greedy and aggressive decoding take each scored position's argmax and
    chosen logit from ``predict_positions`` when the scorer's session is a
    plain ``DecodeSession``, whose rows are the scorer's own. A scorer may
    override ``predict_positions`` to answer without building rows; the
    default takes it from ``score_positions``, and a subclass that redefines
    ``score_positions`` alone is given this default back, so an override of
    the rows is never bypassed. A scorer with a session of its own (one whose
    class redefines ``score_positions``), or without ``predict_positions``,
    is decoded from that session's rows.

    ``predict_branches(state, prefix, branches)`` returns, for each branch,
    the (tokens, chosen) of ``predict_positions`` for ``prefix + branch[:-1]``
    at positions len(prefix) - 1 onward, bit for bit. Aggressive decoding
    asks it, under the same rule, to verify in one call the two ways of
    re-entering the input after a pass that copied it and bifurcated (see
    ``aggressive_decode``). ``Scorer`` defines no default, so a scorer
    without the method never verifies branches, and an iteration never hides
    several sequential scorer calls; a subclass that redefines
    ``score_positions`` does not inherit it.
    """

    vocab: Vocab
    position_cost = 0.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "score_positions" in cls.__dict__:
            if "predict_positions" not in cls.__dict__:
                cls.predict_positions = Scorer.predict_positions
            if "predict_branches" not in cls.__dict__ and hasattr(cls, "predict_branches"):
                cls.predict_branches = None

    def encode(self, x: TokenIds):
        """Per-input state reused across all decoding iterations for that input."""
        raise NotImplementedError

    def score_positions(
        self, state, prefix: Sequence[int], positions: Sequence[int]
    ) -> np.ndarray:
        """Logit rows over the vocab, one per requested prefix position.

        Row k conditions on prefix[0 .. positions[k]] inclusive. The prefix
        always starts with BOS.
        """
        raise NotImplementedError

    def predict_positions(
        self, state, prefix: Sequence[int], positions: Sequence[int]
    ) -> tuple[list[int], list[float]]:
        """(tokens, chosen): for each row score_positions would return, its
        argmax, ties to the smallest id, and that token's logit, equal bit
        for bit to the row's."""
        return predictions(self.score_positions(state, prefix, positions))

    def session(self, x: TokenIds) -> "DecodeSession":
        return DecodeSession(self, x)


class DecodeSession:
    """Scoring handle owned by a single decode; the default is stateless and
    recomputes from the encoder state every call."""

    def __init__(self, scorer: Scorer, x: TokenIds):
        self.scorer = scorer
        self.state = scorer.encode(tuple(x))

    def score_positions(self, prefix: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        return self.scorer.score_positions(self.state, prefix, positions)

    def fork(self) -> "DecodeSession":
        # stateless, so beam hypotheses may share it
        return self


# --- scripted edit scorer -----------------------------------------------------


@dataclass(frozen=True)
class _ScriptedState:
    source: TokenIds
    target: TokenIds | None


class ScriptedEditScorer(Scorer):
    """Plays back known (source -> target) rewrites; total on any input.

    While the emitted tokens form a prefix of the looked-up target, the next
    token continues the target, then EOS. Off-script prefixes, and sources
    with no table entry, fall back to copying the source token at the same
    output position, then EOS; unknown inputs therefore decode to themselves.

    It predicts without building rows: predict_positions returns the tokens
    score_positions would one-hot, each with chosen logit 0.0, and
    predict_branches answers several branches from one comparison of the
    shared prefix with the target.

    It declares no position_cost: a predicted position costs it about
    0.12 us against about 4.2 us for a whole aggressive pass (4.2 / 5.0 /
    5.5 / 6.5 us at 1 / 2 / 8 / 20 positions, measured as for NgramScorer
    on the seed-21 scripted-copy inputs), so every draft is verified in full.
    """

    def __init__(self, pairs: Iterable[tuple[Sequence[int], Sequence[int]]], vocab: Vocab):
        self.vocab = vocab
        table: dict[TokenIds, TokenIds] = {}
        sentinels = vocab.sentinel_ids
        for src, tgt in pairs:
            key = tuple(src)
            if key in table:
                raise ValueError(f"duplicate source sequence in scripted pairs: {key}")
            if any(t in sentinels for t in key) or any(t in sentinels for t in tgt):
                raise ValueError("scripted pairs must be sentinel-free")
            table[key] = tuple(tgt)
        self._table = table
        self._background = np.full(len(vocab), SCRIPTED_OFF_LOGIT)
        self._background[vocab.pad] = NEG_INF

    def encode(self, x: TokenIds) -> _ScriptedState:
        source = tuple(x[1:-1])
        return _ScriptedState(source=source, target=self._table.get(source))

    def next_token(self, state: _ScriptedState, prefix: Sequence[int]) -> int:
        emitted = tuple(prefix[1:])
        j = len(emitted)
        target = state.target
        if target is not None and emitted == target[:j]:
            return target[j] if j < len(target) else self.vocab.eos
        source = state.source
        return source[j] if j < len(source) else self.vocab.eos

    def _tokens(self, state: _ScriptedState, prefix, positions) -> list[int]:
        """next_token(state, prefix[:p + 1]) for each p in positions, from one
        pass over the prefix; a contiguous range is built from two slices."""
        emitted = tuple(prefix)[1:]
        source, target, eos = state.source, state.target, self.vocab.eos
        contiguous = type(positions) is range and positions.step == 1
        lo = positions.start if contiguous else min(positions) if positions else 0
        # Position p is on script iff emitted[:p] == target[:p], which holds for
        # every p up to a boundary b: compare tuples, and scan only on a
        # mismatch. b stays -1 when even the first requested position is off.
        b = -1
        if target is not None and emitted[:lo] == target[:lo]:
            b = min(len(emitted), len(target))
            if emitted[lo:b] != target[lo:b]:
                b = next(compress(count(lo), map(ne, emitted[lo:b], target[lo:b])))
        if contiguous:
            return _script_run(source, target, eos, b, lo, positions.stop)
        # Greedy's one-position step, positions == (j,), comes here. A slice
        # of one _script_run over min..max would also do, but that costs the
        # step more than this loop: on scripted-copy it put greedy_ms_p50 up
        # by about a quarter, 0.104-0.107 ms to 0.125-0.137 ms (perfbench/run.py
        # --seed 21 --seconds 8, 4 alternating pairs, 2-CPU Xeon VM).
        tokens = []
        for p in positions:
            if p <= b:
                tokens.append(target[p] if p < len(target) else eos)
            else:
                tokens.append(source[p] if p < len(source) else eos)
        return tokens

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        """Row k is the one-hot of next_token(state, prefix[:positions[k] + 1])."""
        tokens = self._tokens(state, prefix, positions)
        rows = np.empty((len(tokens), len(self._background)))
        rows[:] = self._background
        rows[np.arange(len(tokens)), tokens] = 0.0
        return rows

    def predict_positions(self, state, prefix, positions) -> tuple[list[int], list[float]]:
        tokens = self._tokens(state, prefix, positions)
        return tokens, [0.0] * len(tokens)

    def predict_branches(self, state, prefix, branches) -> list[tuple[list[int], list[float]]]:
        """predict_positions for each branch's prefix + branch[:-1], with the
        prefix compared with the target once: a branch's boundary is where
        the branch leaves the target's continuation."""
        emitted = tuple(prefix)[1:]
        j = len(emitted)
        source, target, eos = state.source, state.target, self.vocab.eos
        rest = target[j:] if target is not None and emitted == target[:j] else None
        answers = []
        for branch in branches:
            b = -1
            if rest is not None:  # as in _tokens, with branch[:-1] for emitted[j:]
                b = min(len(branch) - 1, len(rest))
                if branch[:b] != rest[:b]:
                    b = next(compress(count(), map(ne, branch, rest)))
                b += j
            tokens = _script_run(source, target, eos, b, j, j + len(branch))
            answers.append((tokens, [0.0] * len(tokens)))
        return answers


def _script_run(source: TokenIds, target: TokenIds | None, eos: int, b: int, lo: int, hi: int) -> list[int]:
    """The scripted tokens of positions lo..hi-1 when those up to b are on
    script: target[lo:b + 1], then source[b + 1:hi], each followed by EOS
    at the positions past its end."""
    tokens = []
    if b >= lo:
        top = b + 1 if b < hi else hi
        tokens = list(target[lo:top])
        if len(tokens) < top - lo:  # position b == len(target) ends the target
            tokens.append(eos)
        lo = top
    if lo < hi:
        copied = source[lo:hi]
        tokens += copied
        tokens += [eos] * (hi - lo - len(copied))
    return tokens


def identity_scorer(vocab: Vocab) -> ScriptedEditScorer:
    """Scorer whose greedy decode reproduces any input unchanged."""
    return ScriptedEditScorer((), vocab)


# --- n-gram scorer --------------------------------------------------------------


@dataclass(frozen=True)
class _NgramState:
    x: TokenIds
    n: int


class NgramScorer(Scorer):
    """Additive-smoothed n-gram over the decoder history plus a copy bias.

    The distribution for the token landing at output position p+1 is the
    smoothed n-gram conditional given the last order-1 prefix tokens, with
    copy_bias added to the logit of the position-aligned input token: the
    input token at p+1 while the input lasts, and EOS once it is exhausted
    (a large finite bias, such as 1e9, therefore reproduces the input
    exactly, then stops). smoothing must be finite and positive, and
    copy_bias finite.

    Every context seen in the corpus owns one row of a single log-probability
    table, built once with PAD's column at -inf; the last row is the unseen
    context's. A call gathers its rows from the table in one take and adds
    copy_bias at each row's aligned token. Each row's argmax and that logit
    are kept too, so predict_positions builds no row: a position's
    prediction is its context's argmax or its biased aligned token, whichever
    logit is larger (ties to the smaller id). Only when the aligned token is
    the argmax and copy_bias is negative does it read the whole row.

    position_cost: one aggressive pass (proposer, predict_positions,
    chosen-logit check, PAD test, record) with its first drafted token
    rejected took, by positions predicted, 2.8 / 3.0 / 5.2 / 9.1 us at
    1 / 2 / 8 / 20 (seed-21 ngram-edit inputs: 150-word vocabulary, order 3,
    10 tokens of context; 2-CPU Xeon, 1 BLAS thread; per input the best of
    seven batches of 1000, median over five inputs, lowest of twelve runs).
    One more position costs about 0.33 us, about a tenth (0.12) of a
    one-position pass, which is the declared 0.1.
    """

    position_cost = 0.1

    def __init__(
        self,
        corpus: Sequence[Sequence[int]],
        order: int,
        smoothing: float,
        vocab: Vocab,
        copy_bias: float = 0.0,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise ValueError("smoothing must be finite and > 0")
        if not math.isfinite(copy_bias):
            raise ValueError("copy_bias must be finite")
        if not corpus:
            raise ValueError("n-gram corpus must be nonempty")
        self.vocab = vocab
        self.order = order
        self.smoothing = float(smoothing)
        self.copy_bias = float(copy_bias)
        size = len(vocab)
        row_ids: dict[TokenIds, int] = {}
        rows: list[int] = []
        tokens: list[int] = []
        for seq in corpus:
            toks = (vocab.bos,) + tuple(seq) + (vocab.eos,)
            for i in range(1, len(toks)):
                rows.append(row_ids.setdefault(toks[max(0, i - order + 1): i], len(row_ids)))
                tokens.append(toks[i])
        table = np.zeros((len(row_ids) + 1, size))  # the last row, count 0, is the unseen context's
        np.add.at(table, (rows, tokens), 1.0)
        # counts become smoothed log-probabilities in place,
        # log(count + s) - log(total + s * V), so no second table is held
        log_denom = np.log(table.sum(axis=1) + self.smoothing * size)
        table += self.smoothing
        np.log(table, out=table)
        table -= log_denom[:, None]
        # a finite copy_bias keeps this column at -inf
        table[:, vocab.pad] = NEG_INF
        self._row_ids = row_ids
        self._table = table
        self._argmax = table.argmax(axis=1).tolist()  # ties to the smallest id
        self._top = table.max(axis=1).tolist()  # each row's logit at its argmax

    def encode(self, x: TokenIds) -> _NgramState:
        x = tuple(x)
        return _NgramState(x=x, n=len(x) - 2)

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        x, n, eos, back = state.x, state.n, self.vocab.eos, self.order - 2
        row_id = self._row_ids.get
        ids, aligned = [], []
        for p in positions:
            lo = p - back
            ids.append(row_id(tuple(prefix[lo if lo > 0 else 0: p + 1]), -1))  # -1: the unseen row
            aligned.append(x[p + 1] if p < n else eos)
        rows = self._table.take(ids, axis=0)  # a copy, never a view into the table
        bias = self.copy_bias
        for k, token in enumerate(aligned):
            rows[k, token] += bias
        return rows

    def predict_positions(self, state, prefix, positions) -> tuple[list[int], list[float]]:
        x, n, eos, back = state.x, state.n, self.vocab.eos, self.order - 2
        row_id, argmax, tops = self._row_ids.get, self._argmax, self._top
        logit, bias = self._table.item, self.copy_bias
        tokens, chosen = [], []
        for p in positions:
            lo = p - back
            r = row_id(tuple(prefix[lo if lo > 0 else 0: p + 1]), -1)
            aligned = x[p + 1] if p < n else eos
            best = argmax[r]
            top = tops[r]
            if aligned != best:
                value = logit(r, aligned) + bias  # the aligned token's logit in the row
                if value > top or (value == top and aligned < best):
                    best, top = aligned, value
            elif bias >= 0:
                top += bias
            else:  # the bias may drop the argmax below another token
                row = self._table[r].copy()
                row[aligned] = top + bias
                best = int(row.argmax())
                top = row.item(best)
            tokens.append(best)
            chosen.append(top)
        return tokens, chosen
