"""Scorer contract and the scripted / n-gram reference scorers.

A scorer is a deterministic conditional next-token distribution. The key
contract is prefix consistency: the logits reported for prefix position j
depend only on prefix[0..j] and the encoder state, never on later positions,
which is what makes parallel copy-and-verify decoding emit exactly the greedy
output. PAD's logit is -inf everywhere, so PAD can never be emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import TokenIds, Vocab

NEG_INF = float("-inf")

# Background logit for tokens the scripted scorer did not choose: far enough
# below 0 that no beam recombination can prefer an off-script path.
SCRIPTED_OFF_LOGIT = -30.0


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
    """

    vocab: Vocab
    position_cost = 0.0

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

    It declares no position_cost: a scored position costs it about 0.5 us
    against about 13 us for a whole aggressive pass (2-CPU Xeon), so every
    draft is verified in full.
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

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        """Row k is the one-hot of next_token(state, prefix[:positions[k] + 1]),
        built in one pass over the prefix."""
        emitted = tuple(prefix)[1:]
        positions = list(positions)
        source, target, eos = state.source, state.target, self.vocab.eos
        # Position p is on script iff emitted[:p] == target[:p], which holds for
        # every p up to a boundary b: compare tuples, and scan only on a
        # mismatch. b stays -1 when even the first requested position is off.
        b = -1
        lo = min(positions) if positions else 0
        if target is not None and emitted[:lo] == target[:lo]:
            b = min(len(emitted), len(target))
            if emitted[lo:b] != target[lo:b]:
                b = next(i for i in range(lo, b) if emitted[i] != target[i])
        rows = np.empty((len(positions), len(self._background)))
        rows[:] = self._background
        for k, p in enumerate(positions):
            if p <= b:
                tok = target[p] if p < len(target) else eos
            else:
                tok = source[p] if p < len(source) else eos
            rows[k, tok] = 0.0
        return rows


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
    (an infinite bias therefore reproduces the input exactly, then stops).

    position_cost: one aggressive pass (proposer, this call, argmax,
    chosen-logit check, record) with its first drafted token rejected took,
    by positions scored, 11.0 / 13.3 / 25.3 / 50.4 us at 1 / 2 / 8 / 20
    (150-word vocabulary, order 3; 2-CPU Xeon, 1 BLAS thread; medians over
    five inputs, median of three runs). One more position costs about
    2.1 us, about a fifth of a one-position pass. The declared 0.1 comes
    from the same table taken while each pass also turned its accepted rows
    into log-probabilities (21.0 / 25.5 / 38.6 / 64.2 us), and is kept so
    that iteration counts stay where they were.
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
        if smoothing <= 0:
            raise ValueError("smoothing must be > 0")
        if not corpus:
            raise ValueError("n-gram corpus must be nonempty")
        self.vocab = vocab
        self.order = order
        self.smoothing = float(smoothing)
        self.copy_bias = float(copy_bias)
        size = len(vocab)
        counts: dict[TokenIds, np.ndarray] = {}
        for seq in corpus:
            toks = (vocab.bos,) + tuple(seq) + (vocab.eos,)
            for i in range(1, len(toks)):
                ctx = toks[max(0, i - order + 1): i]
                vec = counts.get(ctx)
                if vec is None:
                    vec = counts[ctx] = np.zeros(size)
                vec[toks[i]] += 1.0
        # each count vector becomes its smoothed log-probability row in place,
        # log(count + s) - log(total + s * V), so no second table is held
        spread = self.smoothing * size
        for vec in counts.values():
            log_denom = np.log(float(vec.sum()) + spread)
            vec += self.smoothing
            np.log(vec, out=vec)
            vec -= log_denom
        self._log_rows = counts
        self._unseen_row = np.log(np.full(size, self.smoothing)) - np.log(spread)  # count 0, total 0

    def encode(self, x: TokenIds) -> _NgramState:
        x = tuple(x)
        return _NgramState(x=x, n=len(x) - 2)

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        prefix = tuple(prefix)
        positions = list(positions)
        x, n = state.x, state.n
        rows = np.empty((len(positions), len(self.vocab)))
        for k, p in enumerate(positions):
            ctx = prefix[max(0, p - self.order + 2): p + 1]
            row = rows[k]
            row[:] = self._log_rows.get(ctx, self._unseen_row)
            aligned = x[p + 1] if p + 1 <= n else self.vocab.eos
            row[aligned] += self.copy_bias
            row[self.vocab.pad] = NEG_INF
        return rows
