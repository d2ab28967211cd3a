"""Independent brute-force references the fast implementations are checked against.

These deliberately recompute everything from scratch: the suffix oracle
rescans the window for every suffix length instead of filtering anchors (a
second one keeps the plain candidate scan the fast version replaced), the
verify-loop oracle keeps the decode loop's bookkeeping as plain scans, the
edit-distance oracle is the plain recursion rather than the DP table, and the
argmax oracle is a left-to-right scan. The n-gram oracle counts and
normalises each context's row when it is asked for. The transformer oracle is the decoder
forward pass written plainly (mean/var layer norm, a sinusoid table per call,
a key/value cache grown by concatenation, an np.where causal mask), against
which the optimised one must agree bit for bit.
"""

import math
from functools import lru_cache

import numpy as np


def naive_suffix_match(o, x):
    """Count occurrences from scratch for each suffix length."""
    n = len(x) - 2
    j = len(o) - 1
    window = tuple(x[: n + 1])
    for q in range(j + 1):
        suffix = tuple(o[j - q: j + 1])
        hits = [i for i in range(q, n + 1) if window[i - q: i + 1] == suffix]
        if len(hits) == 1:
            return (hits[0], q)
        if not hits:
            return None
    return None


def scan_suffix_match(o, x):
    """find_suffix_match as it was before it walked the last token's
    occurrences: the first candidates come from testing every position of
    x[0..n]. Returns (i, q) or None."""
    n = len(x) - 2
    j = len(o) - 1
    candidates = [i for i in range(n + 1) if x[i] == o[j]]
    q = 0
    while True:
        if len(candidates) == 1:
            return (candidates[0], q)
        if not candidates:
            return None
        q += 1
        if q > j:
            return None
        tok = o[j - q]
        candidates = [i for i in candidates if i >= q and x[i - q] == tok]


# --- the verify loop ---------------------------------------------------------
#
# The decode loop as it stood before its per-iteration bookkeeping was cut down:
# a suffix search on every aggressive iteration, Python scans for the
# bifurcation and the chosen-logit check, a window recomputed on every pass,
# records built by keyword. Predictions come from each session's rows, by the
# scan, not from predict_positions.


def reference_find_bifurcation(predictions, copied):
    """Smallest 1-based k where the two differ, else None, by a scan."""
    if len(predictions) != len(copied):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(copied)} copied")
    if not copied:
        raise ValueError("verification window must contain at least one token")
    for k, (pred, src) in enumerate(zip(predictions, copied), start=1):
        if pred != src:
            return k
    return None


def reference_check_chosen(chosen, tokens, first):
    """Raise, naming the first accepted row whose chosen logit is not finite."""
    for r in range(len(tokens)):
        logit = chosen[r]
        if not math.isfinite(logit):
            what = "NaN logit" if logit != logit else "all logits are masked" if logit < 0 else "infinite logit"
            raise ValueError(f"{what} at position {first + r}")


def reference_window(rate, cost, cap):
    """The w in 1..cap that maximises (1 - rate^w) / ((1 - rate)(1 + cost(w - 1))),
    searched upward from 1 and stopped at the first fall, on every call."""
    w, term, tokens, best = 1, 1.0, 1.0, 1.0
    while w < cap:
        term *= rate
        tokens += term
        value = tokens / (1.0 + cost * w)
        if value < best:
            break
        best = value
        w += 1
    return w


def reference_propose_draft(o, x, budget):
    """(tokens, source, anchor) or None: an input anchor agreeing with o's last
    two tokens, else the continuation of o's latest earlier last bigram,
    cycled to budget with a PAD slot last, else a one-token input anchor."""
    match = scan_suffix_match(o, x)
    j = len(o) - 1
    if match is not None and match[0] and x[match[0] - 1] == o[j - 1]:
        return (tuple(x[match[0] + 1:]), "input", match)
    earlier = [p for p in range(1, j) if o[p] == o[j] and o[p - 1] == o[j - 1]]
    if earlier:
        best = earlier[-1]
        loop = list(o[best + 1:])
        tokens = [loop[k % len(loop)] for k in range(budget - 1)] + [x[-1]]
        return (tuple(tokens), "output", (best, 1))
    if match is None:
        return None
    return (tuple(x[match[0] + 1:]), "input", (match[0], 0))


def reference_decode(scorer, x, cfg, aggressive):
    """(output, records) of greedy (aggressive=False) or aggressive decoding,
    records as tuples of IterationRecord's fields in order."""
    vocab = scorer.vocab
    max_len = cfg.resolve_max_len(len(x) - 2)
    session = scorer.session(x)
    cost = getattr(scorer, "position_cost", 0.0)
    o = [vocab.bos]
    records = []
    drafted_accepted, drafted_compared = 9, 10
    while o[-1] != vocab.eos and len(o) - 1 < max_len:
        j = len(o) - 1
        draft = reference_propose_draft(o, x, max_len - j) if aggressive else None
        if draft is None:
            tokens, chosen = scan_predictions(session.score_positions(tuple(o), (j,)))
            fallback = None if not aggressive else "ambiguous" if o[j] in x[:-1] else "absent"
            record = ("autoregressive", 1, 1, None, None, None, fallback)
        else:
            drafted, source, anchor = draft
            w = len(drafted) if cfg.l_max is None else min(len(drafted), cfg.l_max)
            if cost:
                w = reference_window(drafted_accepted / drafted_compared, cost, w)
            copied = drafted[:w]
            predicted, chosen = scan_predictions(session.score_positions(tuple(o) + copied[:-1], range(j, j + w)))
            k = reference_find_bifurcation(predicted, copied)
            matched = w if k is None else k - 1
            drafted_accepted += matched
            drafted_compared += min(w, matched + 1)
            accepted = min(w if k is None else k, max_len - j)
            tokens = predicted[:accepted]
            bifurcation = j + k if k is not None and k <= accepted else None
            record = ("aggressive", w, accepted, anchor, bifurcation, source, None)
        reference_check_chosen(chosen, tokens, j)
        if vocab.pad in tokens:
            raise ValueError(f"PAD emitted at position {j + tokens.index(vocab.pad)}")
        o.extend(tokens)
        records.append(record)
    return tuple(o), records


def recursive_levenshtein(a, b) -> int:
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))


def scan_argmax(logits) -> int:
    best_idx = 0
    best_val = float("-inf")
    for idx, val in enumerate(logits):
        if val > best_val:
            best_val = val
            best_idx = idx
    return best_idx


def scan_predictions(rows):
    """(tokens, chosen) by the scan: each row's scan_argmax and its logit."""
    tokens = [scan_argmax(row) for row in rows]
    return tokens, [float(row[t]) for t, row in zip(tokens, rows)]


def same_predictions(prediction, rows) -> bool:
    """Whether a predict_positions answer equals the scan's predictions from
    rows bit for bit, as plain ints and floats."""
    tokens, chosen = prediction
    expected_tokens, expected_chosen = scan_predictions(rows)
    return (
        tokens == expected_tokens
        and all(type(t) is int for t in tokens)
        and all(type(c) is float for c in chosen)
        and np.array(chosen, dtype=float).tobytes() == np.array(expected_chosen, dtype=float).tobytes()
    )


class ReferenceNgram:
    """NgramScorer's scores, each row computed on demand from raw counts as
    log(count + s) - log(total + s * V)."""

    def __init__(self, corpus, order, smoothing, vocab, copy_bias=0.0):
        self.order, self.smoothing, self.vocab, self.copy_bias = order, smoothing, vocab, copy_bias
        self.counts = {}
        for seq in corpus:
            toks = (vocab.bos,) + tuple(seq) + (vocab.eos,)
            for i in range(1, len(toks)):
                ctx = toks[max(0, i - order + 1): i]
                self.counts.setdefault(ctx, np.zeros(len(vocab)))[toks[i]] += 1.0

    def score_positions(self, x, prefix, positions):
        size = len(self.vocab)
        rows = []
        for p in positions:
            ctx = tuple(prefix[max(0, p - self.order + 2): p + 1])
            vec = self.counts.get(ctx, np.zeros(size))
            row = np.log(vec + self.smoothing) - np.log(float(vec.sum()) + self.smoothing * size)
            row[x[p + 1] if p + 1 <= len(x) - 2 else self.vocab.eos] += self.copy_bias
            row[self.vocab.pad] = float("-inf")
            rows.append(row)
        return np.array(rows).reshape(-1, size)


# --- transformer -------------------------------------------------------------


def _sinusoids(start, count, dim):
    positions = np.arange(start, start + count, dtype=float)[:, None]
    freqs = np.exp(np.arange(0, dim, 2, dtype=float) * (-np.log(10000.0) / dim))
    args = positions * freqs
    table = np.zeros((count, dim))
    table[:, 0::2] = np.sin(args)
    table[:, 1::2] = np.cos(args[:, : dim // 2])
    return table


def _layer_norm(h, eps=1e-5):
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return (h - mean) / np.sqrt(var + eps)


def _softmax_rows(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def _split_heads(h, heads):
    length, dim = h.shape
    return h.reshape(length, heads, dim // heads).transpose(1, 0, 2)


def _merge_heads(h):
    heads, length, d_head = h.shape
    return h.transpose(1, 0, 2).reshape(length, heads * d_head)


class _ConcatCache:
    def __init__(self, layers):
        self.keys = [None] * layers
        self.values = [None] * layers
        self.length = 0

    def truncate(self, keep):
        if keep >= self.length:
            return
        for l in range(len(self.keys)):
            if self.keys[l] is not None:
                self.keys[l] = self.keys[l][:, :keep]
                self.values[l] = self.values[l][:, :keep]
        self.length = keep

    def extend(self, layer, k, v):
        if self.keys[layer] is None or self.keys[layer].shape[1] == 0:
            self.keys[layer], self.values[layer] = k, v
        else:
            self.keys[layer] = np.concatenate([self.keys[layer], k], axis=1)
            self.values[layer] = np.concatenate([self.values[layer], v], axis=1)
        return self.keys[layer], self.values[layer]

    def copy(self):
        dup = _ConcatCache(len(self.keys))
        dup.keys = [None if k is None else k.copy() for k in self.keys]
        dup.values = [None if v is None else v.copy() for v in self.values]
        dup.length = self.length
        return dup


class ReferenceTransformer:
    """The forward pass of a ``TinyTransformer``, with its weights, written
    plainly. ``score_positions`` runs the whole prefix from scratch; a
    ``session`` reuses a concatenated key/value cache exactly as the decoder
    session does, so both see matmuls of the same operands and shapes."""

    def __init__(self, scorer):
        self.config = scorer.config
        self.pad = scorer.vocab.pad
        self.enc_emb, self.dec_emb = scorer._enc_emb, scorer._dec_emb
        self.enc_layers, self.dec_layers = scorer._enc_layers, scorer._dec_layers
        self.out_proj = scorer._out_proj

    def encode(self, x):
        cfg = self.config
        ids = np.asarray(tuple(x), dtype=int)
        h = self.enc_emb[ids] * np.sqrt(cfg.model_dim) + _sinusoids(0, len(ids), cfg.model_dim)
        for layer in self.enc_layers:
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], cfg.heads)
            k = _split_heads(a @ layer["wk"], cfg.heads)
            v = _split_heads(a @ layer["wv"], cfg.heads)
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(cfg.model_dim // cfg.heads)
            h = h + _merge_heads(_softmax_rows(scores) @ v) @ layer["wo"]
            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        memory = _layer_norm(h)
        cross_k = [_split_heads(memory @ layer["ck"], cfg.heads) for layer in self.dec_layers]
        cross_v = [_split_heads(memory @ layer["cv"], cfg.heads) for layer in self.dec_layers]
        return cross_k, cross_v

    def decoder_block(self, state, new_ids, start, cache):
        cfg = self.config
        cross_k, cross_v = state
        d_head = cfg.model_dim // cfg.heads
        t = len(new_ids)
        ids = np.asarray(new_ids, dtype=int)
        h = self.dec_emb[ids] * np.sqrt(cfg.model_dim) + _sinusoids(start, t, cfg.model_dim)
        causal = None
        for idx, layer in enumerate(self.dec_layers):
            a = _layer_norm(h)
            q = _split_heads(a @ layer["wq"], cfg.heads)
            k_new = _split_heads(a @ layer["wk"], cfg.heads)
            v_new = _split_heads(a @ layer["wv"], cfg.heads)
            k_all, v_all = cache.extend(idx, k_new, v_new)
            scores = q @ k_all.transpose(0, 2, 1) / np.sqrt(d_head)
            if causal is None:
                key_pos = np.arange(k_all.shape[1])
                query_pos = np.arange(start, start + t)[:, None]
                causal = key_pos[None, :] > query_pos
            scores = np.where(causal[None, :, :], float("-inf"), scores)
            h = h + _merge_heads(_softmax_rows(scores) @ v_all) @ layer["wo"]

            a = _layer_norm(h)
            cq = _split_heads(a @ layer["cq"], cfg.heads)
            cross = cq @ cross_k[idx].transpose(0, 2, 1) / np.sqrt(d_head)
            h = h + _merge_heads(_softmax_rows(cross) @ cross_v[idx]) @ layer["co"]

            a = _layer_norm(h)
            h = h + np.maximum(a @ layer["w1"], 0.0) @ layer["w2"]
        cache.length = start + t
        logits = _layer_norm(h) @ self.out_proj
        logits[:, self.pad] = float("-inf")
        return logits

    def score_positions(self, state, prefix, positions):
        logits = self.decoder_block(state, tuple(prefix), 0, _ConcatCache(self.config.decoder_layers))
        return np.stack([logits[p] for p in positions])

    def session(self, x):
        return _ReferenceSession(self, self.encode(x))


class _ReferenceSession:
    def __init__(self, model, state):
        self.model, self.state = model, state
        self.ids = ()
        self.cache = _ConcatCache(model.config.decoder_layers)

    def score_positions(self, prefix, positions):
        prefix = tuple(prefix)
        positions = list(positions)
        keep = 0
        limit = min(len(self.ids), len(prefix))
        while keep < limit and self.ids[keep] == prefix[keep]:
            keep += 1
        keep = min(keep, min(positions))
        self.cache.truncate(keep)
        logits = self.model.decoder_block(self.state, prefix[keep:], keep, self.cache)
        self.ids = prefix
        return np.stack([logits[p - keep] for p in positions])

    def fork(self):
        dup = _ReferenceSession(self.model, self.state)
        dup.ids = self.ids
        dup.cache = self.cache.copy()
        return dup
