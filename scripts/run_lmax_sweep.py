#!/usr/bin/env python3
"""Sweep the parallel copy-window cap and report aggregate decoding stats.

With the identity scorer the iteration column shrinks roughly as
ceil((n+1) / l_max) per sentence until the cap covers the longest sentence,
after which larger caps change nothing.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from aggdec import LmaxRow, identity_scorer, sweep_lmax
from aggdec.metrics import rows_csv
from aggdec.synthetic import random_sentence, synthetic_vocab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentences", type=int, default=300)
    parser.add_argument("--max-len", type=int, default=39)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lmax", default="1,2,3,5,10,20,40,unlimited")
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    vocab = synthetic_vocab(120)
    rng = np.random.default_rng(args.seed)
    corpus = [random_sentence(rng, vocab, 3, args.max_len) for _ in range(args.sentences)]
    values = [None if v == "unlimited" else int(v) for v in args.lmax.split(",")]
    rows = sweep_lmax(identity_scorer(vocab), corpus, values, repetitions=3, warmup=1)
    text = rows_csv(LmaxRow, rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
