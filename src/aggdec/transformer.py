"""Forward-only encoder-decoder transformer with seeded random weights.

No training happens here: the decoding engine's correctness and cost
structure do not depend on weight quality, so weights are drawn once from a
seeded generator. The decoder keeps an incremental key/value cache per decode
session, so scoring t new positions after an accepted prefix of length j
costs work proportional to t per layer, not j + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TokenIds, Vocab, read_key_values
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

    @classmethod
    def from_file(cls, path: str | Path) -> "TransformerConfig":
        """Load from a key-value file: one `key = value` per line, # comments allowed.

        All six keys are accepted; seed is mandatory for reproducibility.
        """
        values: dict[str, int] = {}
        for lineno, key, value in read_key_values(path):
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = int(value)
        if "seed" not in values:
            raise ValueError(f"{path}: seed is mandatory")
        missing = set(cls.__dataclass_fields__) - set(values)
        if missing:
            raise ValueError(f"{path}: missing keys: {sorted(missing)}")
        return cls(**values)


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
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return (h - mean) / np.sqrt(var + eps)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


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

    memory: np.ndarray                 # (src_len, model_dim)
    cross_k: list[np.ndarray]          # per decoder layer, (heads, src_len, d_head)
    cross_v: list[np.ndarray]


class _KVCache:
    def __init__(self, layers: int):
        self.keys: list[np.ndarray | None] = [None] * layers
        self.values: list[np.ndarray | None] = [None] * layers
        self.length = 0

    def truncate(self, keep: int) -> None:
        if keep >= self.length:
            return
        for l in range(len(self.keys)):
            if self.keys[l] is not None:
                self.keys[l] = self.keys[l][:, :keep]
                self.values[l] = self.values[l][:, :keep]
        self.length = keep

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.keys[layer] is None or self.keys[layer].shape[1] == 0:
            self.keys[layer], self.values[layer] = k, v
        else:
            self.keys[layer] = np.concatenate([self.keys[layer], k], axis=1)
            self.values[layer] = np.concatenate([self.values[layer], v], axis=1)
        return self.keys[layer], self.values[layer]

    def copy(self) -> "_KVCache":
        dup = _KVCache(len(self.keys))
        dup.keys = [None if k is None else k.copy() for k in self.keys]
        dup.values = [None if v is None else v.copy() for v in self.values]
        dup.length = self.length
        return dup


class TinyTransformer(Scorer):
    """Seeded random-weight encoder-decoder scorer:
    embeddings, sinusoidal positions, pre-norm multi-head self-attention,
    encoder-decoder cross-attention, causal decoder masking, PAD-masked logits.
    """

    def __init__(self, config: TransformerConfig, vocab: Vocab, use_cache: bool = True):
        self.config = config
        self.vocab = vocab
        self.use_cache = use_cache
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

    # -- encoder ---------------------------------------------------------

    def encode(self, x: TokenIds) -> EncoderState:
        cfg = self.config
        ids = np.asarray(tuple(x), dtype=int)
        h = self._enc_emb[ids] * np.sqrt(cfg.model_dim) + _sinusoids(0, len(ids), cfg.model_dim)
        for layer in self._enc_layers:
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], cfg.heads)
            k = _split_heads(a @ layer["wk"], cfg.heads)
            v = _split_heads(a @ layer["wv"], cfg.heads)
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(cfg.model_dim // cfg.heads)
            h = h + _merge_heads(_softmax_rows(scores) @ v) @ layer["wo"]
            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        memory = _layer_norm(h)
        cross_k = [_split_heads(memory @ layer["ck"], cfg.heads) for layer in self._dec_layers]
        cross_v = [_split_heads(memory @ layer["cv"], cfg.heads) for layer in self._dec_layers]
        return EncoderState(memory=memory, cross_k=cross_k, cross_v=cross_v)

    # -- decoder ---------------------------------------------------------

    def _decoder_block(
        self, state: EncoderState, new_ids: TokenIds, start: int, cache: _KVCache
    ) -> np.ndarray:
        """Run decoder positions start..start+len(new_ids)-1, extending the cache.

        Returns logits rows for exactly those positions.
        """
        cfg = self.config
        d_head = cfg.model_dim // cfg.heads
        t = len(new_ids)
        ids = np.asarray(new_ids, dtype=int)
        h = self._dec_emb[ids] * np.sqrt(cfg.model_dim) + _sinusoids(start, t, cfg.model_dim)
        causal = None
        for idx, layer in enumerate(self._dec_layers):
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], cfg.heads)
            k_new = _split_heads(a @ layer["wk"], cfg.heads)
            v_new = _split_heads(a @ layer["wv"], cfg.heads)
            k_all, v_all = cache.extend(idx, k_new, v_new)
            scores = q @ k_all.transpose(0, 2, 1) / np.sqrt(d_head)
            if causal is None:
                # query at absolute position start+r may attend keys 0..start+r
                total = k_all.shape[1]
                key_pos = np.arange(total)
                query_pos = np.arange(start, start + t)[:, None]
                causal = key_pos[None, :] > query_pos
            scores = np.where(causal[None, :, :], NEG_INF, scores)
            h = h + _merge_heads(_softmax_rows(scores) @ v_all) @ layer["wo"]

            a = _layer_norm(h)
            cq = _split_heads(a @ layer["cq"], cfg.heads)
            cross = cq @ state.cross_k[idx].transpose(0, 2, 1) / np.sqrt(d_head)
            h = h + _merge_heads(_softmax_rows(cross) @ state.cross_v[idx]) @ layer["co"]

            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        cache.length = start + t
        logits = _layer_norm(h) @ self._out_proj
        logits[:, self.vocab.pad] = NEG_INF
        return logits

    def score_positions(self, state, prefix, positions) -> np.ndarray:
        prefix = tuple(prefix)
        positions = list(positions)
        cache = _KVCache(self.config.decoder_layers)
        logits = self._decoder_block(state, prefix, 0, cache)
        return np.stack([logits[p] for p in positions])

    def session(self, x: TokenIds) -> DecodeSession:
        if not self.use_cache:
            return DecodeSession(self, x)
        return _CachedSession(self, x)


class _CachedSession(DecodeSession):
    """Keeps decoder K/V keyed by prefix length; entries past the accepted
    prefix are dropped whenever the incoming prefix diverges from the cached
    one (the verified-then-rejected positions after a disagreement)."""

    def __init__(self, scorer: TinyTransformer, x: TokenIds):
        super().__init__(scorer, x)
        self._ids: TokenIds = ()
        self._cache = _KVCache(scorer.config.decoder_layers)

    def score_positions(self, prefix, positions) -> np.ndarray:
        prefix = tuple(prefix)
        positions = list(positions)
        keep = 0
        limit = min(len(self._ids), len(prefix))
        while keep < limit and self._ids[keep] == prefix[keep]:
            keep += 1
        keep = min(keep, min(positions))
        self._cache.truncate(keep)
        logits = self.scorer._decoder_block(self.state, prefix[keep:], keep, self._cache)
        self._ids = prefix
        return np.stack([logits[p - keep] for p in positions])

    def fork(self) -> "_CachedSession":
        dup = object.__new__(_CachedSession)
        dup.scorer = self.scorer
        dup.state = self.state
        dup._ids = self._ids
        dup._cache = self._cache.copy()
        return dup
