"""Scorer contract and the scripted / n-gram reference scorers.

A scorer is a deterministic conditional next-token distribution. The key
contract is prefix consistency: the logits reported for prefix position j
depend only on prefix[0..j] and the encoder state, never on later positions,
which is what makes parallel copy-and-verify decoding emit exactly the greedy
output. PAD's logit is -inf everywhere, so PAD can never be emitted.

A scorer's rows, ``score_positions``, are what beam search reads. Greedy
and aggressive decoding, and so ``check``, read only predictions, from the
scorer's session: ``DecodeSession.predict`` takes the decode's output so
far, which only grows from one call to the next, and a tree of branches
that continue it, and returns, for each row, its argmax, ties to the
smallest token id, and that token's logit. The default session derives
them from the rows, one call per branch. The scripted and n-gram sessions
answer without building any row, and do work only for the rows they answer
and the tokens the output gained since the last call: the scripted one
keeps the output's on-script boundary and answers a whole tree in one call,
and the n-gram's reads the output's last order - 1 tokens and ends its
answer to a branch at its first disagreement with it.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterable, NamedTuple, Sequence

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
    incremental state lives in a DecodeSession, which ``session`` returns.

    ``position_cost`` is the relative cost of one more scored position: an
    aggressive pass that scores w positions costs about
    1 + position_cost * (w - 1) one-position passes. Aggressive decoding
    sizes each pass's window from it, and 0 means every draft is verified in
    full. It is a fixed property of the scorer, never timed at run time, so
    iteration counts repeat exactly. The decoders read it with getattr, so a
    scorer that is not a subclass may leave it out and counts as 0. It
    serves scorers that score a whole block at once; one whose answer stops
    at the first disagreement (see ``DecodeSession.predict``) pays for no
    row it does not emit.

    Greedy and aggressive decoding ask only the session for predictions;
    the default session derives them from ``score_positions``.
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
    recomputes from the encoder state every call.

    ``predict`` is all that greedy and aggressive decoding ask of a session,
    once per iteration. ``branching`` declares that it answers a tree of
    several branches in one scorer call: aggressive decoding hands such a
    tree only to a session that declares it, so an iteration never hides
    several sequential scorer calls. The default, which scores each branch
    in a call of its own, declares False.
    """

    branching = False

    def __init__(self, scorer: Scorer, x: TokenIds):
        self.scorer = scorer
        self.state = scorer.encode(tuple(x))

    def score_positions(self, prefix: Sequence[int], positions: Sequence[int]) -> np.ndarray:
        return self.scorer.score_positions(self.state, prefix, positions)

    def predict(self, prefix: Sequence[int], branches: Sequence[Sequence[int]]) -> list[tuple[list[int], list[float]]]:
        """One (tokens, chosen) answer per branch. Row r of a branch is
        decoder position len(prefix) - 1 + r, conditioned on
        prefix + branch[:r]; its answer is the row's argmax, ties to the
        smallest id, and that token's logit, equal bit for bit to the row's.
        An answer may end right after its first row whose token differs
        from the branch's own token there: every later row conditions on a
        token that row rules out, so the decode loop never reads it.

        The call shape: prefix is the decode's own output, BOS first, and
        the decode loop passes the same list on every call, once per
        iteration, extending it between calls by the tokens it accepted.
        So each call's prefix starts with the last call's, and a session
        may keep state over it, such as how far the output follows a
        script, and read only the tokens added since. A session must not
        change the list, nor keep it as a snapshot. Beam search reads rows
        alone and never calls predict; ``check`` decodes through it.

        This default scores each branch in one score_positions call and
        answers every row. It keeps no state and reads nothing but
        score_positions, so the decode loop also uses it for a session that
        lacks predict."""
        prefix, j = tuple(prefix), len(prefix) - 1
        return [predictions(self.score_positions(prefix + tuple(b[:-1]), range(j, j + len(b)))) for b in branches]

    def fork(self) -> "DecodeSession":
        # stateless, so beam hypotheses may share it
        return self


# --- scripted edit scorer -----------------------------------------------------


# The states are NamedTuples: a decode builds one in about half a frozen
# dataclass's time, and the scripted session unpacks its own per prediction.
class _ScriptedState(NamedTuple):
    source: TokenIds
    target: TokenIds | None
    eos: int


class ScriptedEditScorer(Scorer):
    """Plays back known (source -> target) rewrites; total on any input.

    While the emitted tokens form a prefix of the looked-up target, the next
    token continues the target, then EOS. Off-script prefixes, and sources
    with no table entry, fall back to copying the source token at the same
    output position, then EOS; unknown inputs therefore decode to themselves.

    Its session predicts without building rows: each prediction is the
    token score_positions would one-hot, with chosen logit 0.0. It keeps
    the decode's on-script boundary, advancing it over the tokens the
    output gained since its last call, so no call compares the whole output
    with the target again. It answers a one-position branch by the rule at
    the boundary, and a longer one, or a tree of several, from the target's
    continuation there: a branch's boundary is where it leaves it.

    It declares no position_cost: a predicted position costs it about
    0.06 us against about 2.8 us for a whole aggressive pass (2.8 / 3.8 /
    3.9 / 4.0 us at 1 / 2 / 8 / 20 positions; one pass, proposer to record,
    with its first drafted token rejected, on the seed-21 scripted-copy
    inputs; per input the best of seven batches of 1000, median over five
    inputs; 2-CPU Xeon, 1 BLAS thread, CPython 3.11), so every draft is
    verified in full.
    It answers every row of a branch, so a pass counts its whole window.
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
        return _ScriptedState(source, self._table.get(source), self.vocab.eos)

    def _tokens(self, state: _ScriptedState, prefix, positions) -> list[int]:
        """The scripted token after prefix[:p + 1] for each p in positions: a
        contiguous range from two slices around one boundary, else the rule."""
        prefix = tuple(prefix)  # a list's slice never equals the target's
        source, target, eos = state
        if type(positions) is not range or positions.step != 1:
            scripted = target is not None
            return [_script_token(source, target, eos, scripted and prefix[1:p + 1] == target[:p], p)
                    for p in positions]
        # Position p is on script iff prefix[1:p + 1] == target[:p], which holds
        # for every p up to a boundary b. b stays -1 when even the first
        # requested position is off.
        lo = positions.start
        b = -1
        if target is not None and prefix[1:lo + 1] == target[:lo]:
            b = lo + _agreement(prefix[lo + 1:], target[lo:])
        return _script_run(source, target, eos, b, lo, positions.stop)

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        """Row k is the one-hot of the scripted token at positions[k] (see
        _tokens), over a background of SCRIPTED_OFF_LOGIT, with PAD at -inf."""
        tokens = self._tokens(state, prefix, positions)
        rows = np.empty((len(tokens), len(self._background)))
        rows[:] = self._background
        rows[np.arange(len(tokens)), tokens] = 0.0
        return rows

    def session(self, x: TokenIds) -> "_ScriptedSession":
        return _ScriptedSession(self, x)


class _ScriptedSession(DecodeSession):
    """Answers a tree of branches in one call, without rows, from the
    output's on-script boundary, which it keeps over the decode."""

    branching = True

    def __init__(self, scorer: ScriptedEditScorer, x: TokenIds):
        super().__init__(scorer, x)
        # prefix[1:on + 1] == target[:on] for the last call's prefix, or -1
        # once the output left the script: it only grows, so it never returns
        self._on = -1 if self.state.target is None else 0

    def predict(self, prefix, branches) -> list[tuple[list[int], list[float]]]:
        j = len(prefix) - 1
        source, target, eos = self.state
        on = self._on
        if 0 <= on < j:  # the output gained prefix[on + 1:] since the last call: compare those alone
            if j <= len(target) and (  # greedy's one new token by index, without building slices
                prefix[j] == target[on] if on + 1 == j else tuple(prefix[on + 1:]) == target[on:j]
            ):
                on = j
            else:
                on = -1
            self._on = on
        if len(branches) == 1 and len(branches[0]) == 1:  # greedy's step
            return [([_script_token(source, target, eos, on >= 0, j)], [0.0])]
        answers = []
        for branch in branches:
            # as in _tokens: position j + r is on script while branch[:r] follows target[j:]
            w = len(branch)
            b = -1 if on < 0 else j + _agreement(branch[:-1], target[j:j + w - 1])
            answers.append((_script_run(source, target, eos, b, j, j + w), [0.0] * w))
        return answers


def _script_token(source: TokenIds, target: TokenIds | None, eos: int, on_script: bool, p: int) -> int:
    """The scripted rule for the token at position p: target[p] when the
    output through p is on script (prefix[1:p + 1] is target[:p]), else
    source[p], and EOS past the end of either."""
    if on_script:
        return target[p] if p < len(target) else eos
    return source[p] if p < len(source) else eos


def _agreement(tokens: TokenIds, target: TokenIds) -> int:
    """How many leading tokens tokens and target have in common: one compare
    when they are equal, else a scan (a list never equals a tuple), in a
    plain loop, as find_bifurcation's. Callers pass both already sliced to
    the positions they compare."""
    if tokens == target:
        return len(tokens)
    k = 0
    for token in tokens[:len(target)]:
        if token != target[k]:
            break
        k += 1
    return k


def _script_run(source: TokenIds, target: TokenIds | None, eos: int, b: int, lo: int, hi: int) -> list[int]:
    """The scripted tokens of positions lo..hi-1 when those up to b are on
    script: target[lo:b + 1], then source[b + 1:hi], each followed by EOS
    at the positions past its end."""
    if b < lo:
        tokens = [*source[lo:hi]]
    else:
        top = b + 1 if b < hi else hi
        tokens = [*target[lo:top]]
        if len(tokens) < top - lo:  # position b == len(target) ends the target
            tokens.append(eos)
        tokens += source[top:hi]
    if len(tokens) < hi - lo:  # the positions past the source's end
        tokens += [eos] * (hi - lo - len(tokens))
    return tokens


def identity_scorer(vocab: Vocab) -> ScriptedEditScorer:
    """Scorer whose greedy decode reproduces any input unchanged."""
    return ScriptedEditScorer((), vocab)


# --- n-gram scorer --------------------------------------------------------------


class _NgramState(NamedTuple):
    x: TokenIds
    n: int


# An n-gram context's row: its argmax (ties to the smallest id), that
# token's logit, the background logit of the tokens it has not seen, and its
# cells, {token: logit}, for the tokens it has seen and for PAD.
_NgramRow = tuple[int, float, float, dict[int, float]]


class NgramScorer(Scorer):
    """Additive-smoothed n-gram over the decoder history plus a copy bias.

    The distribution for the token landing at output position p+1 is the
    smoothed n-gram conditional given the last order-1 prefix tokens, with
    copy_bias added to the logit of the position-aligned input token: the
    input token at p+1 while the input lasts, and EOS once it is exhausted
    (a large finite bias, such as 1e9, therefore reproduces the input
    exactly, then stops). smoothing must be finite and positive, and
    copy_bias finite.

    Only what the corpus has is stored, so memory grows with the corpus's
    tokens, not with contexts x vocabulary. Each context seen in the corpus
    has a row: a cell, log(count + s) - log(total + s * V), for each token
    seen after it; PAD's cell at -inf; one background logit,
    log(s) - log(total + s * V), which every other token shares; and the
    row's argmax and that logit. Contexts with equal counts share one row,
    and the unseen context's row has the background alone. score_positions
    builds each row it returns from its background and cells and adds
    copy_bias at the aligned token. Its session predicts without rows: a
    position's prediction is its context's argmax or its biased aligned
    token, whichever logit is larger (ties to the smaller id), one lookup
    in the cells. Only when the aligned token is the argmax and copy_bias is
    negative does it build the whole row.

    It predicts one position after another, so its answer to a branch ends
    at its first disagreement with it (see ``DecodeSession.predict``): it
    scores no row the decode loop would discard. A wider window then costs
    it nothing it does not emit, so it declares no position_cost and
    verifies every draft in full.
    """

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
        size, s, pad, back = len(vocab), self.smoothing, vocab.pad, order - 1
        row_ids: dict[TokenIds, int] = {}
        row_id = row_ids.setdefault
        rows: list[int] = []
        tokens: list[int] = []
        for seq in corpus:
            toks = (vocab.bos,) + tuple(seq) + (vocab.eos,)
            rows += [row_id(toks[i - back if i > back else 0: i], len(row_ids)) for i in range(1, len(toks))]
            tokens += toks[1:]
        unseen = len(row_ids)  # one more row, with no counts, is the unseen context's
        rows = np.array(rows)
        # each row's cells, by row, then by token: the tokens it has seen, and PAD
        keys, counts = np.unique(
            np.concatenate([rows * size + tokens, np.arange(unseen + 1) * size + pad]), return_counts=True
        )
        cell_rows, cell_tokens = np.divmod(keys, size)
        is_pad = cell_tokens == pad
        counts[is_pad] -= 1
        # log(count + s) - log(total + s * V), with the float operations of a
        # dense table, so every logit is bit for bit the same
        log_denom = np.log(np.bincount(rows, minlength=unseen + 1) + s * size)
        logs = np.log(np.append(counts + s, s))
        values = logs[:-1] - log_denom[cell_rows]
        values[is_pad] = NEG_INF  # a finite copy_bias keeps PAD there
        background = logs[-1] - log_denom
        # each row's argmax among its cells, ties to the smallest id: the
        # sort is stable, so tied cells stay in token order
        bounds = np.searchsorted(cell_rows, np.arange(unseen + 2))
        firsts = np.lexsort((-values, cell_rows))[bounds[:-1]]
        argmax, top = cell_tokens[firsts], values[firsts]
        competes = np.flatnonzero(background >= top).tolist()
        signatures = np.stack([cell_tokens, counts], axis=1).tobytes()
        argmax, top, background = argmax.tolist(), top.tolist(), background.tolist()
        cell_tokens, values, bounds = cell_tokens.tolist(), values.tolist(), bounds.tolist()
        # The background is below every cell but PAD's unless count + s == s.
        # Where it is not, the first token the cells leave to it competes.
        for r in competes:
            taken = set(cell_tokens[bounds[r]: bounds[r + 1]])
            first = next(t for t in count() if t not in taken)
            if first < size and (background[r] > top[r] or first < argmax[r]):
                argmax[r], top[r] = first, background[r]
        # Contexts with the same counts have the same row, and share it. A
        # row's kind is its cells' (token, count) pairs, 16 bytes a cell.
        kinds = [signatures[16 * a: 16 * b] for a, b in zip(bounds, bounds[1:])]
        shared: dict[bytes, _NgramRow] = {}
        for r, kind in enumerate(kinds):
            if kind not in shared:
                a, b = bounds[r], bounds[r + 1]
                shared[kind] = argmax[r], top[r], background[r], dict(zip(cell_tokens[a:b], values[a:b]))
        self._rows = {ctx: shared[kind] for ctx, kind in zip(row_ids, kinds)}
        self._unseen = shared[kinds[unseen]]

    def _dense(self, row: _NgramRow) -> np.ndarray:
        """A row as a fresh logit vector over the vocabulary."""
        _, _, background, cells = row
        logits = np.full(len(self.vocab), background)
        logits[list(cells)] = list(cells.values())
        return logits

    def encode(self, x: TokenIds) -> _NgramState:
        x = tuple(x)
        return _NgramState(x=x, n=len(x) - 2)

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        x, n, eos, back = state.x, state.n, self.vocab.eos, self.order - 2
        row_of, unseen, bias = self._rows.get, self._unseen, self.copy_bias
        rows = np.empty((len(positions), len(self.vocab)))
        for k, p in enumerate(positions):
            lo = p - back
            rows[k] = self._dense(row_of(tuple(prefix[lo if lo > 0 else 0: p + 1]), unseen))
            rows[k, x[p + 1] if p < n else eos] += bias
        return rows

    def session(self, x: TokenIds) -> "_NgramSession":
        return _NgramSession(self, x)


class _NgramSession(DecodeSession):
    """Answers each branch row by row, without building rows, and stops at
    the branch's first disagreement. A row's context is the last order - 1
    tokens before it, taken from the output's end and carried along the
    branch, so a call costs the same at any output length."""

    def __init__(self, scorer: NgramScorer, x: TokenIds):
        super().__init__(scorer, x)
        # what predict looks up for every row, bound once per decode
        state, size = self.state, scorer.order - 1
        tail = slice(-size, None) if size else slice(0, 0)  # a sequence's last order - 1 tokens
        self._lookups = (state.x, state.n, scorer.vocab.eos, tail, scorer._rows.get, scorer._unseen,
                         scorer.copy_bias)

    def predict(self, prefix, branches) -> list[tuple[list[int], list[float]]]:
        x, n, eos, tail, row_of, unseen, bias = self._lookups
        j = len(prefix) - 1
        start = tuple(prefix[tail])  # the first row's context, as score_positions keys it
        answers = []
        for branch in branches:
            context, p = start, j
            tokens, chosen = [], []
            for drafted in branch:
                row = row_of(context, unseen)
                best, top, background, cells = row
                aligned = x[p + 1] if p < n else eos
                if aligned != best:
                    value = cells.get(aligned, background) + bias  # the aligned token's logit in the row
                    if value > top or (value == top and aligned < best):
                        best, top = aligned, value
                elif bias >= 0:
                    top += bias
                else:  # the bias may drop the argmax below another token
                    logits = self.scorer._dense(row)
                    logits[aligned] = top + bias
                    best = int(logits.argmax())
                    top = logits.item(best)
                tokens.append(best)
                chosen.append(top)
                if best != drafted:  # every later row conditions on drafted, which best rules out
                    break
                p += 1
                context = (*context, drafted)[tail]
            answers.append((tokens, chosen))
        return answers
