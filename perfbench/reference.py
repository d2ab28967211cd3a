"""Frozen reference decoders that measure the machine's speed during a run.

The machine this benchmark was written on is shared: the same code ran 25–50%
slower for minutes at a time, in every process and on both CPUs. A short
probe loop did not follow those swings, but a copy of the program's own code
did, to within a few percent. So every timed run also decodes its sentences
greedily with this copy of aggdec's greedy loop and scorers, taken when the
benchmark was introduced, interleaved with the program's operations. The
copy imports nothing from aggdec and is never changed with it: the copy's
times measure the machine, and the program's times relative to them measure
the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")
OFF_LOGIT = -30.0


@dataclass(frozen=True)
class Ids:
    bos: int
    eos: int
    pad: int
    size: int


@dataclass(frozen=True)
class _Record:
    mode: str
    positions_scored: int
    accepted: int


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = float(np.max(logits))
    if not np.isfinite(m):
        raise ValueError("cannot normalize an all-masked logit vector")
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted)))


def _argmax(logits) -> int:
    arr = np.asarray(logits)
    idx = int(np.argmax(arr))
    if not np.isfinite(arr[idx]):
        raise ValueError("all logits are masked")
    return idx


def greedy(scorer, x: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy decode of a prepared input (BOS, tokens..., PAD)."""
    ids = scorer.ids
    max_len = 2 * (len(x) - 2) + 16
    session = scorer.session(x)
    o = [ids.bos]
    records = []
    score = 0.0
    while o[-1] != ids.eos and len(o) - 1 < max_len:
        row = session.score_positions(tuple(o), (len(o) - 1,))[0]
        tok = _argmax(row)
        score += float(_log_softmax(row)[tok])
        o.append(tok)
        records.append(_Record("autoregressive", 1, 1))
    if sum(r.accepted for r in records) != len(o) - 1:
        raise ValueError("reference trace does not cover its output")
    return tuple(o)


class _Session:
    def __init__(self, scorer, x):
        self.scorer = scorer
        self.state = scorer.encode(tuple(x))

    def score_positions(self, prefix, positions):
        return self.scorer.score_positions(self.state, prefix, positions)


class ScriptedReference:
    def __init__(self, pairs, ids: Ids):
        self.ids = ids
        self._table = {tuple(src): tuple(tgt) for src, tgt in pairs}

    def session(self, x):
        return _Session(self, x)

    def encode(self, x):
        source = tuple(x[1:-1])
        return source, self._table.get(source)

    def _next_token(self, state, prefix) -> int:
        source, target = state
        emitted = tuple(prefix[1:])
        j = len(emitted)
        if target is not None and emitted == target[:j]:
            return target[j] if j < len(target) else self.ids.eos
        return source[j] if j < len(source) else self.ids.eos

    def score_positions(self, state, prefix, positions):
        prefix = tuple(prefix)
        positions = list(positions)
        rows = np.full((len(positions), self.ids.size), OFF_LOGIT)
        for k, p in enumerate(positions):
            rows[k, self._next_token(state, prefix[: p + 1])] = 0.0
        rows[:, self.ids.pad] = NEG_INF
        return rows


class NgramReference:
    def __init__(self, corpus, order: int, smoothing: float, copy_bias: float, ids: Ids):
        self.ids = ids
        self.order = order
        self.smoothing = float(smoothing)
        self.copy_bias = float(copy_bias)
        counts: dict = {}
        for seq in corpus:
            toks = (ids.bos,) + tuple(seq) + (ids.eos,)
            for i in range(1, len(toks)):
                ctx = toks[max(0, i - order + 1): i]
                vec = counts.get(ctx)
                if vec is None:
                    vec = counts[ctx] = np.zeros(ids.size)
                vec[toks[i]] += 1.0
        self._counts = counts
        self._totals = {ctx: float(vec.sum()) for ctx, vec in counts.items()}
        self._zero = np.zeros(ids.size)
        self._log_cache: dict = {}

    def session(self, x):
        return _Session(self, x)

    def encode(self, x):
        x = tuple(x)
        return x, len(x) - 2

    def _base_logits(self, ctx):
        cached = self._log_cache.get(ctx)
        if cached is None:
            vec = self._counts.get(ctx, self._zero)
            denom = self._totals.get(ctx, 0.0) + self.smoothing * self.ids.size
            cached = np.log(vec + self.smoothing) - np.log(denom)
            self._log_cache[ctx] = cached
        return cached

    def score_positions(self, state, prefix, positions):
        prefix = tuple(prefix)
        positions = list(positions)
        x, n = state
        rows = np.empty((len(positions), self.ids.size))
        for k, p in enumerate(positions):
            row = self._base_logits(prefix[max(0, p - self.order + 2): p + 1]).copy()
            row[x[p + 1] if p + 1 <= n else self.ids.eos] += self.copy_bias
            row[self.ids.pad] = NEG_INF
            rows[k] = row
        return rows


# --- transformer ------------------------------------------------------------


def _sinusoids(start: int, count: int, dim: int) -> np.ndarray:
    positions = np.arange(start, start + count, dtype=float)[:, None]
    freqs = np.exp(np.arange(0, dim, 2, dtype=float) * (-np.log(10000.0) / dim))
    args = positions * freqs
    table = np.zeros((count, dim))
    table[:, 0::2] = np.sin(args)
    table[:, 1::2] = np.cos(args[:, : dim // 2])
    return table


def _layer_norm(h: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return (h - mean) / np.sqrt(var + eps)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def _split_heads(h: np.ndarray, heads: int) -> np.ndarray:
    length, dim = h.shape
    return h.reshape(length, heads, dim // heads).transpose(1, 0, 2)


def _merge_heads(h: np.ndarray) -> np.ndarray:
    heads, length, d_head = h.shape
    return h.transpose(1, 0, 2).reshape(length, heads * d_head)


class TransformerReference:
    """Encoder-decoder with seeded random weights and a decoder K/V cache."""

    def __init__(self, encoder_layers, decoder_layers, dim, heads, ffn, seed, ids: Ids):
        self.ids = ids
        self.dim, self.heads = dim, heads
        rng = np.random.default_rng(seed)
        d, f, v = dim, ffn, ids.size

        def mat(rows, cols):
            return rng.normal(0.0, rows ** -0.5, size=(rows, cols))

        self._enc_emb = rng.normal(0.0, 1.0, size=(v, d)) * d ** -0.5
        self._dec_emb = rng.normal(0.0, 1.0, size=(v, d)) * d ** -0.5
        self._enc = [
            {"wq": mat(d, d), "wk": mat(d, d), "wv": mat(d, d), "wo": mat(d, d),
             "w1": mat(d, f), "w2": mat(f, d)}
            for _ in range(encoder_layers)
        ]
        self._dec = [
            {"wq": mat(d, d), "wk": mat(d, d), "wv": mat(d, d), "wo": mat(d, d),
             "cq": mat(d, d), "ck": mat(d, d), "cv": mat(d, d), "co": mat(d, d),
             "w1": mat(d, f), "w2": mat(f, d)}
            for _ in range(decoder_layers)
        ]
        self._out = mat(d, v)

    def session(self, x):
        return _TransformerSession(self, x)

    def encode(self, x):
        ids = np.asarray(tuple(x), dtype=int)
        h = self._enc_emb[ids] * np.sqrt(self.dim) + _sinusoids(0, len(ids), self.dim)
        for layer in self._enc:
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], self.heads)
            k = _split_heads(a @ layer["wk"], self.heads)
            v = _split_heads(a @ layer["wv"], self.heads)
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(self.dim // self.heads)
            h = h + _merge_heads(_softmax_rows(scores) @ v) @ layer["wo"]
            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        memory = _layer_norm(h)
        cross_k = [_split_heads(memory @ layer["ck"], self.heads) for layer in self._dec]
        cross_v = [_split_heads(memory @ layer["cv"], self.heads) for layer in self._dec]
        return cross_k, cross_v

    def decoder_block(self, state, new_ids, start, cache) -> np.ndarray:
        cross_k, cross_v = state
        d_head = self.dim // self.heads
        t = len(new_ids)
        ids = np.asarray(new_ids, dtype=int)
        h = self._dec_emb[ids] * np.sqrt(self.dim) + _sinusoids(start, t, self.dim)
        causal = None
        for idx, layer in enumerate(self._dec):
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], self.heads)
            k_new = _split_heads(a @ layer["wk"], self.heads)
            v_new = _split_heads(a @ layer["wv"], self.heads)
            if cache[idx] is None:
                cache[idx] = (k_new, v_new)
            else:
                k_old, v_old = cache[idx]
                cache[idx] = (np.concatenate([k_old, k_new], axis=1),
                              np.concatenate([v_old, v_new], axis=1))
            k_all, v_all = cache[idx]
            scores = q @ k_all.transpose(0, 2, 1) / np.sqrt(d_head)
            if causal is None:
                key_pos = np.arange(k_all.shape[1])
                causal = key_pos[None, :] > np.arange(start, start + t)[:, None]
            scores = np.where(causal[None, :, :], NEG_INF, scores)
            h = h + _merge_heads(_softmax_rows(scores) @ v_all) @ layer["wo"]
            a = _layer_norm(h)
            cq = _split_heads(a @ layer["cq"], self.heads)
            cross = cq @ cross_k[idx].transpose(0, 2, 1) / np.sqrt(d_head)
            h = h + _merge_heads(_softmax_rows(cross) @ cross_v[idx]) @ layer["co"]
            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        logits = _layer_norm(h) @ self._out
        logits[:, self.ids.pad] = NEG_INF
        return logits


class _TransformerSession:
    """Greedy decoding only ever extends the prefix, so the cache only grows."""

    def __init__(self, scorer: TransformerReference, x):
        self.scorer = scorer
        self.state = scorer.encode(tuple(x))
        self._cache = [None] * len(scorer._dec)
        self._length = 0

    def score_positions(self, prefix, positions):
        prefix = tuple(prefix)
        logits = self.scorer.decoder_block(self.state, prefix[self._length:], self._length, self._cache)
        base = self._length
        self._length = len(prefix)
        return np.stack([logits[p - base] for p in positions])
