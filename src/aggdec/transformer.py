"""Forward-only encoder-decoder transformer with seeded random weights.

No training happens here: the decoding engine's correctness and cost
structure do not depend on weight quality, so weights are drawn once from a
seeded generator. The decoder keeps an incremental key/value cache per decode
session, so scoring t new positions after an accepted prefix of length j
costs work proportional to t per layer, not j + t.

A one-position decoder step is dominated by its weight matmuls, which stream
every decoder weight through the CPU caches, so the code around them is kept
to as few numpy calls as possible: the cache is a preallocated per-session
buffer (rejected positions are overwritten in place) that also holds the
sinusoid rows of its positions, the causal mask is only built when a call
scores more than one position, and layer norm and softmax each make one pass
and work in place. None of this changes the arithmetic: every reduction keeps
its summation order and every matmul its operands and shapes, so the logits
are bit-identical to those of the plain implementation that
``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import TokenIds, Vocab
from .scorers import NEG_INF, DecodeSession, Scorer


@dataclass(frozen=True)
class TransformerConfig:
    encoder_layers: int
    decoder_layers: int
    model_dim: int
    heads: int
    ffn_dim: int
    seed: int

    def __post_init__(self):
        if self.encoder_layers < 1 or self.decoder_layers < 1:
            raise ValueError("encoder_layers and decoder_layers must each be >= 1")
        if self.model_dim < 1 or self.ffn_dim < 1 or self.heads < 1:
            raise ValueError("model_dim, ffn_dim, and heads must be positive")
        if self.model_dim % self.heads:
            raise ValueError("model_dim must be divisible by heads")


def decoder_flops_per_position(config: TransformerConfig, context_len: int, memory_len: int) -> float:
    """Multiply-accumulate estimate for decoding one position.

    Scales linearly in decoder_layers when dims are equal, which is the whole
    point of a shallow decoder. Cross-attention K/V are precomputed once per
    input, so only its query/output projections count here.
    """
    d, f = config.model_dim, config.ffn_dim
    self_attn = 4 * d * d + 2 * context_len * d
    cross_attn = 2 * d * d + 2 * memory_len * d
    ffn = 2 * d * f
    return float(config.decoder_layers * (self_attn + cross_attn + ffn))


def _sinusoids(start: int, count: int, dim: int) -> np.ndarray:
    positions = np.arange(start, start + count, dtype=float)[:, None]
    freqs = np.exp(np.arange(0, dim, 2, dtype=float) * (-np.log(10000.0) / dim))
    args = positions * freqs
    table = np.zeros((count, dim))
    table[:, 0::2] = np.sin(args)
    table[:, 1::2] = np.cos(args[:, : dim // 2])
    return table


def _layer_norm(h: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    # np.mean and np.var's own arithmetic (sum, divide by the count; centre,
    # square, sum, divide), so the result matches them bit for bit
    dim = h.shape[-1]
    centred = h - np.add.reduce(h, axis=-1, keepdims=True) / dim
    return centred / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / dim + eps)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _split_heads(h: np.ndarray, heads: int) -> np.ndarray:
    # (L, d) -> (heads, L, d_head)
    length, dim = h.shape
    return h.reshape(length, heads, dim // heads).transpose(1, 0, 2)


def _merge_heads(h: np.ndarray) -> np.ndarray:
    heads, length, d_head = h.shape
    return h.transpose(1, 0, 2).reshape(length, heads * d_head)


@dataclass
class EncoderState:
    """Per-input encoder representation, reusable across all decode iterations."""

    cross_k: list[np.ndarray]          # per decoder layer, (heads, src_len, d_head)
    cross_v: list[np.ndarray]


class _KVCache:
    """Decoder state for positions 0..capacity-1: per layer one (heads,
    capacity, d_head) buffer of self-attention keys and one of values, whose
    first ``length`` positions are valid, and the positions' sinusoid rows.
    A block that starts before ``length`` overwrites the rejected positions in
    place; one that outgrows the buffers doubles them."""

    def __init__(self, layers: int, heads: int, d_head: int, capacity: int):
        self.keys = [np.empty((heads, capacity, d_head)) for _ in range(layers)]
        self.values = [np.empty((heads, capacity, d_head)) for _ in range(layers)]
        self.positions = _sinusoids(0, capacity, heads * d_head)  # never written to
        self.length = 0

    def reserve(self, start: int, end: int) -> None:
        """Make room for positions up to ``end``, keeping those before ``start``."""
        capacity = self.keys[0].shape[1]
        if end <= capacity:
            return
        capacity = max(2 * capacity, end)
        for buffers in (self.keys, self.values):
            for layer, old in enumerate(buffers):
                new = np.empty((old.shape[0], capacity, old.shape[2]))
                new[:, :start] = old[:, :start]
                buffers[layer] = new
        self.positions = _sinusoids(0, capacity, self.positions.shape[1])

    def extend(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write positions start.. of one layer (after ``reserve``) and return
        views of its keys and values up to them."""
        end = start + k.shape[1]
        keys, values = self.keys[layer], self.values[layer]
        keys[:, start:end] = k
        values[:, start:end] = v
        return keys[:, :end], values[:, :end]

    def copy(self) -> "_KVCache":
        dup = object.__new__(_KVCache)
        dup.keys, dup.values = [], []
        for buffers, copies in ((self.keys, dup.keys), (self.values, dup.values)):
            for buf in buffers:
                new = np.empty_like(buf)
                new[:, : self.length] = buf[:, : self.length]
                copies.append(new)
        dup.positions = self.positions
        dup.length = self.length
        return dup


class TinyTransformer(Scorer):
    """Seeded random-weight encoder-decoder scorer:
    embeddings, sinusoidal positions, pre-norm multi-head self-attention,
    encoder-decoder cross-attention, causal decoder masking, PAD-masked logits.

    position_cost: at 12+2 layers, d=256, 8 heads, ffn 512 and 10 tokens of
    context, one aggressive pass with its first drafted token rejected took
    858 / 1002 / 1724 / 2924 us at 1 / 2 / 8 / 20 positions scored (1 BLAS
    thread, 2-CPU Xeon; medians over five inputs, mean of two runs). One
    more position costs about 0.15 of a one-position pass up to 8 positions
    (passes on the random 12+2 benchmark workload average about 5), and
    0.13 up to 20.
    """

    position_cost = 0.15

    def __init__(self, config: TransformerConfig, vocab: Vocab):
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(config.seed)
        d, f, v = config.model_dim, config.ffn_dim, len(vocab)
        scale = d ** -0.5

        def mat(rows: int, cols: int) -> np.ndarray:
            return rng.normal(0.0, rows ** -0.5, size=(rows, cols))

        self._enc_emb = rng.normal(0.0, 1.0, size=(v, d)) * scale
        self._dec_emb = rng.normal(0.0, 1.0, size=(v, d)) * scale
        self._enc_layers = [
            {
                "wq": mat(d, d), "wk": mat(d, d), "wv": mat(d, d), "wo": mat(d, d),
                "w1": mat(d, f), "w2": mat(f, d),
            }
            for _ in range(config.encoder_layers)
        ]
        self._dec_layers = [
            {
                "wq": mat(d, d), "wk": mat(d, d), "wv": mat(d, d), "wo": mat(d, d),
                "cq": mat(d, d), "ck": mat(d, d), "cv": mat(d, d), "co": mat(d, d),
                "w1": mat(d, f), "w2": mat(f, d),
            }
            for _ in range(config.decoder_layers)
        ]
        self._out_proj = mat(d, v)
        # scales as Python floats, equal to the np.sqrt values they replace
        self._emb_scale = float(np.sqrt(d))
        self._attn_scale = float(np.sqrt(d // config.heads))

    def _new_cache(self, capacity: int) -> _KVCache:
        cfg = self.config
        return _KVCache(cfg.decoder_layers, cfg.heads, cfg.model_dim // cfg.heads, capacity)

    # -- encoder ---------------------------------------------------------

    def encode(self, x: TokenIds) -> EncoderState:
        heads = self.config.heads
        ids = np.asarray(tuple(x), dtype=int)
        h = self._enc_emb[ids] * self._emb_scale + _sinusoids(0, len(ids), self.config.model_dim)
        for layer in self._enc_layers:
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], heads)
            k = _split_heads(a @ layer["wk"], heads)
            v = _split_heads(a @ layer["wv"], heads)
            scores = q @ k.transpose(0, 2, 1)
            scores /= self._attn_scale
            h += _merge_heads(_softmax_rows(scores) @ v) @ layer["wo"]
            ffn = _layer_norm(h) @ layer["w1"]
            h += np.maximum(ffn, 0.0, out=ffn) @ layer["w2"]
        memory = _layer_norm(h)
        cross_k = [_split_heads(memory @ layer["ck"], heads) for layer in self._dec_layers]
        cross_v = [_split_heads(memory @ layer["cv"], heads) for layer in self._dec_layers]
        return EncoderState(cross_k=cross_k, cross_v=cross_v)

    # -- decoder ---------------------------------------------------------

    def _decoder_block(
        self, state: EncoderState, new_ids: TokenIds, start: int, cache: _KVCache
    ) -> np.ndarray:
        """Run decoder positions start..start+len(new_ids)-1, extending the cache.

        Returns logits rows for exactly those positions.
        """
        heads = self.config.heads
        t = len(new_ids)
        end = start + t
        cache.reserve(start, end)
        h = self._dec_emb[np.asarray(new_ids, dtype=int)] * self._emb_scale + cache.positions[start:end]
        # query at absolute position start+r may attend keys 0..start+r; a
        # single query attends every key, so it needs no mask
        causal = np.arange(end) > np.arange(start, end)[:, None] if t > 1 else None
        for idx, layer in enumerate(self._dec_layers):
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], heads)
            k_new = _split_heads(a @ layer["wk"], heads)
            v_new = _split_heads(a @ layer["wv"], heads)
            k_all, v_all = cache.extend(idx, start, k_new, v_new)
            scores = q @ k_all.transpose(0, 2, 1)
            scores /= self._attn_scale
            if causal is not None:
                np.copyto(scores, NEG_INF, where=causal)
            h += _merge_heads(_softmax_rows(scores) @ v_all) @ layer["wo"]

            cq = _split_heads(_layer_norm(h) @ layer["cq"], heads)
            cross = cq @ state.cross_k[idx].transpose(0, 2, 1)
            cross /= self._attn_scale
            h += _merge_heads(_softmax_rows(cross) @ state.cross_v[idx]) @ layer["co"]

            ffn = _layer_norm(h) @ layer["w1"]
            h += np.maximum(ffn, 0.0, out=ffn) @ layer["w2"]
        cache.length = end
        logits = _layer_norm(h) @ self._out_proj
        logits[:, self.vocab.pad] = NEG_INF
        return logits

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        prefix = tuple(prefix)
        logits = self._decoder_block(state, prefix, 0, self._new_cache(len(prefix)))
        return logits[list(positions)]

    def session(self, x: TokenIds) -> DecodeSession:
        return _CachedSession(self, x)


class _CachedSession(DecodeSession):
    """Keeps decoder K/V keyed by prefix length. When the incoming prefix
    diverges from the cached one (the verified-then-rejected positions after a
    disagreement), decoding resumes at the divergence and overwrites the
    cached positions from there on."""

    def __init__(self, scorer: TinyTransformer, x: TokenIds):
        super().__init__(scorer, x)
        self._ids: TokenIds = ()
        # room for the first copy pass over the whole input before any growth
        self._cache = scorer._new_cache(len(x))

    def score_positions(self, prefix, positions) -> np.ndarray:
        positions = list(positions)
        if not positions:  # nothing to run, and the cache stays as it is
            return np.empty((0, len(self.scorer.vocab)))
        prefix = tuple(prefix)
        keep = 0
        limit = min(len(self._ids), len(prefix))
        while keep < limit and self._ids[keep] == prefix[keep]:
            keep += 1
        keep = min(keep, min(positions))
        logits = self.scorer._decoder_block(self.state, prefix[keep:], keep, self._cache)
        self._ids = prefix
        return logits[[p - keep for p in positions]]

    def fork(self) -> "_CachedSession":
        dup = copy.copy(self)  # keeps a subclass's type and attributes
        dup._cache = self._cache.copy()
        return dup
