#!/usr/bin/env python3
"""Per-sentence iteration speedup against edit ratio on a synthetic rewrite
corpus; the CSV is the plotting interface for the speedup-distribution figure.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from aggdec import ScriptedEditScorer, bench, spearman
from aggdec.metrics import SentenceRow, rows_csv
from aggdec.synthetic import rewrite_pairs, synthetic_vocab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sentences", type=int, default=300)
    parser.add_argument("--max-edit-rate", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    vocab = synthetic_vocab(150)
    rng = np.random.default_rng(args.seed)
    pairs = rewrite_pairs(
        rng, args.sentences, vocab, min_len=10, max_len=40,
        edit_rate=(0.0, args.max_edit_rate),
    )
    scorer = ScriptedEditScorer(pairs, vocab)
    reports = bench(scorer, [src for src, _ in pairs], repetitions=1, warmup=0)
    text = rows_csv(SentenceRow, map(SentenceRow.of, reports))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    correlation = spearman(
        [r.edit_ratio for r in reports], [r.iteration_speedup for r in reports]
    )
    print(f"spearman(edit_ratio, iteration_speedup) = {correlation:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
