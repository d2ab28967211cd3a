#!/usr/bin/env python3
"""Time greedy and aggressive decoding across encoder/decoder depth splits.

Decoder depth dominates per-step cost, while extra encoder layers run once per
sentence in a single batched pass, so deep-encoder/shallow-decoder splits
decode faster at equal total depth.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from aggdec import DepthRow, TransformerConfig, sweep_depth
from aggdec.metrics import rows_csv, thread_limit
from aggdec.synthetic import random_sentence, synthetic_vocab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentences", type=int, default=8)
    parser.add_argument("--depths", default="3+6,6+6,9+6,6+3,6+9,7+5,8+4,9+3,10+2,11+1")
    parser.add_argument("--model-dim", type=int, default=256)
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--ffn-dim", type=int, default=512)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    vocab = synthetic_vocab(100)
    rng = np.random.default_rng(args.seed)
    corpus = [random_sentence(rng, vocab, 15, 25) for _ in range(args.sentences)]
    configs = []
    for piece in args.depths.split(","):
        enc, _, dec = piece.partition("+")
        configs.append(
            TransformerConfig(
                encoder_layers=int(enc), decoder_layers=int(dec),
                model_dim=args.model_dim, heads=args.heads,
                ffn_dim=args.ffn_dim, seed=args.seed,
            )
        )
    with thread_limit(args.threads):
        rows = sweep_depth(configs, corpus, vocab, repetitions=args.repetitions, warmup=2)
    text = rows_csv(DepthRow, rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
