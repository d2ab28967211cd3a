"""Command line: decode corpora, check greedy equivalence, and run benchmarks.

Subcommands: decode, check, bench, sweep-depth. `check` as csv or json also
prints each `--lmax` value's aggregate totals. Corpora are UTF-8 text, one
sentence per line. Outputs are deterministic for a fixed (config, seed,
corpus) triple, except for wall-clock columns.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .core import (
    AGGRESSIVE,
    UNLIMITED,
    WHITESPACE,
    DecodeConfig,
    TokenIds,
    Vocab,
    build_vocab,
    corpus_to_ids,
    detokenize,
    join_surfaces,
    load_corpus,
    load_parallel_corpus,
    prepare_input,
    tokenize,
)
from .decoding import ALIGNED, OUTPUT, DecodeResult, decode
from .metrics import (
    DepthRow,
    LmaxRow,
    MismatchError,
    SentenceRow,
    bench,
    bench_summary,
    check_equivalence,
    rows_csv,
    rows_json,
    sweep_depth,
    thread_limit,
)
from .scorers import NgramScorer, Scorer, ScriptedEditScorer, identity_scorer
from .transformer import TinyTransformer, TransformerConfig

SCORER_KINDS = ("identity", "scripted", "ngram", "transformer")


_TAGS = {OUTPUT: "look", ALIGNED: "align"}


def emit_trace(result: DecodeResult, vocab: Vocab, scheme: str = WHITESPACE) -> str:
    """Render the output as bracketed per-iteration segments.

    Tokens inside one bracket were emitted by a single sequential iteration
    and are joined as `detokenize` joins them under `scheme`, sentinels
    included; the subscript is the iteration index and the tag is agg (a
    parallel pass verifying a copy of the input), align (a parallel pass
    verifying the input's re-entries after an edit), look (a parallel pass
    verifying a draft looked up in the output) or ar (one-by-one).
    """
    tokens = result.output[1:]
    parts = []
    pos = 0
    for idx, record in enumerate(result.trace.iterations):
        segment = tokens[pos: pos + record.accepted]
        pos += record.accepted
        tag = "ar" if record.mode != AGGRESSIVE else _TAGS.get(record.source, "agg")
        parts.append(f"[{join_surfaces(map(vocab.surface, segment), scheme)}]_{idx}({tag})")
    return " ".join(parts)


def _parse_lmax(text: str) -> list[int | None]:
    values: list[int | None] = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece == UNLIMITED:
            values.append(None)
            continue
        try:
            value = int(piece)
            if value < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"--lmax values must be ints >= 1 or {UNLIMITED!r}, got {piece!r}"
            ) from None
        values.append(value)
    return values


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an int >= 1, got {text!r}")
    return value


def _parse_depths(text: str) -> list[tuple[int, int]]:
    depths = []
    for piece in text.split(","):
        enc, _, dec = piece.strip().partition("+")
        try:
            depths.append((int(enc), int(dec)))
        except ValueError:
            raise ValueError(f"--depths expects ENC+DEC pairs, got {piece.strip()!r}") from None
    return depths


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return p


# A negative number in any float spelling: argparse's own pattern knows only
# plain decimals, so it would take -1e9 or -inf for an option.
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float spelling as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the parents whose options it reads.
    # Subparsers are built with the parent parser's class.
    common = _Parser(add_help=False)  # every subcommand
    common.add_argument("--model-dim", type=int, default=64)
    common.add_argument("--heads", type=int, default=4)
    common.add_argument("--ffn-dim", type=int, default=128)
    common.add_argument("--scheme", choices=("whitespace", "character"), default="whitespace")
    common.add_argument("--max-len", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=_thread_count, default=None)
    common.add_argument("--output", metavar="PATH", default=None)
    common.add_argument("--config", metavar="PATH", help="key-value file overriding flags")

    scoring = _Parser(add_help=False)  # all but sweep-depth
    scoring.add_argument("--scorer", choices=SCORER_KINDS, default="identity")
    scoring.add_argument(
        "--scripted-pairs",
        nargs=2,
        metavar=("SRC", "TGT"),
        help="aligned source/target files backing the scripted scorer",
    )
    scoring.add_argument("--enc-layers", type=int, default=6)
    scoring.add_argument("--dec-layers", type=int, default=6)
    scoring.add_argument("--order", type=int, default=2, help="n-gram order")
    scoring.add_argument("--smoothing", type=float, default=0.1)
    scoring.add_argument("--copy-bias", type=float, default=0.0)
    scoring.add_argument("--lmax", default=UNLIMITED,
                         help=f"comma list of ints or {UNLIMITED!r}; decode and bench take one value")

    beam = _Parser(add_help=False)  # decode and bench
    beam.add_argument("--beam", type=int, default=5)

    parser = _Parser(prog="aggdec", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decode", parents=[common, scoring, beam],
                       help="rewrite a corpus line by line")
    p.add_argument("--mode", choices=("greedy", "beam", "aggressive"), default="aggressive")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--trace", action="store_true", help="render per-iteration segments")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_decode, parser=p)

    p = sub.add_parser("check", parents=[common, scoring],
                       help="verify aggressive output equals greedy output; totals per --lmax value")
    p.add_argument("--corpus", required=True, metavar="PATH")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_check, parser=p)

    p = sub.add_parser("bench", parents=[common, scoring, beam],
                       help="per-sentence speedup report")
    p.add_argument("--corpus", required=True, metavar="PATH")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--with-beam", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_bench, parser=p)

    p = sub.add_parser("sweep-depth", parents=[common],
                       help="wall-clock per encoder+decoder depth")
    p.add_argument("--corpus", required=True, metavar="PATH")
    p.add_argument("--depths", default="6+6,9+3", help="comma list of ENC+DEC pairs")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep_depth, parser=p)
    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    """`--config` lines `key = value` override already-parsed flags.

    A key names any flag of the subcommand that takes a value, but `--config`
    itself; `#` starts a comment. `main` applies the file before it pins BLAS
    threads, so a `threads` key takes effect. Each value goes through its
    flag's own argparse action, so `type`, `nargs` and `choices` are checked
    exactly as on the command line. argparse has no public way to convert one
    option's value outside a full parse, hence the private `_actions` and
    `_get_values`.
    """
    if args.config is None:
        return
    path = _require_file(args.config, "config file")
    parser = args.parser
    actions = {
        a.dest: a for a in parser._actions
        if a.option_strings and a.nargs != 0 and a.dest != "config"
    }
    for lineno, line in enumerate(load_corpus(path), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = (part.strip() for part in text.partition("="))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        strings = [value]
        if action.nargs is not None:
            strings = value.split()
            if len(strings) != action.nargs:
                raise ValueError(
                    f"{path}:{lineno}: {key} expects {action.nargs} values, got {len(strings)}"
                )
        try:
            setattr(args, action.dest, parser._get_values(action, strings))
        except argparse.ArgumentError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def _load_lines(args: argparse.Namespace, attr: str) -> list[str]:
    return load_corpus(_require_file(getattr(args, attr), f"--{attr} corpus"))


def _transformer_config(args: argparse.Namespace, enc: int, dec: int) -> TransformerConfig:
    """The transformer of `enc` encoder and `dec` decoder layers that the
    width, head, FFN and seed flags describe."""
    return TransformerConfig(
        encoder_layers=enc,
        decoder_layers=dec,
        model_dim=args.model_dim,
        heads=args.heads,
        ffn_dim=args.ffn_dim,
        seed=args.seed,
    )


def _make_scorer(args: argparse.Namespace, lines: list[str]) -> Scorer:
    """The `--scorer` over a vocabulary of the corpus (and scripted pairs)."""
    pool = list(lines)
    if args.scorer == "scripted":
        if not args.scripted_pairs:
            raise ValueError("--scorer scripted requires --scripted-pairs SRC TGT")
        src, tgt = load_parallel_corpus(
            _require_file(args.scripted_pairs[0], "scripted source corpus"),
            _require_file(args.scripted_pairs[1], "scripted target corpus"),
        )
        pool += src + tgt
    vocab = build_vocab(pool, args.scheme)
    if args.scorer == "identity":
        return identity_scorer(vocab)
    if args.scorer == "scripted":
        pairs = [
            (tokenize(s, args.scheme, vocab), tokenize(t, args.scheme, vocab))
            for s, t in zip(src, tgt)
        ]
        return ScriptedEditScorer(pairs, vocab)
    if args.scorer == "ngram":
        corpus_ids = corpus_to_ids(lines, args.scheme, vocab)
        return NgramScorer(corpus_ids, args.order, args.smoothing, vocab,
                           copy_bias=args.copy_bias)
    if args.scorer == "transformer":
        if args.seed is None:
            raise ValueError("--scorer transformer requires --seed")
        return TinyTransformer(_transformer_config(args, args.enc_layers, args.dec_layers), vocab)
    raise ValueError(f"unknown scorer kind: {args.scorer!r}")


def _decode_config(args: argparse.Namespace) -> DecodeConfig:
    """The limits `decode` and `bench` share; `bench` sets the mode per decode."""
    return DecodeConfig(
        max_len=args.max_len,
        l_max=_single_lmax(args),
        beam_size=args.beam,
    )


def _single_lmax(args: argparse.Namespace) -> int | None:
    values = _parse_lmax(args.lmax)
    if len(values) > 1:
        raise ValueError(f"{args.subcommand} takes a single --lmax value")
    return values[0]


def _write(args: argparse.Namespace, content: str) -> None:
    if content and not content.endswith("\n"):
        content += "\n"
    if args.output:
        Path(args.output).write_text(content, encoding="utf-8")
    else:
        sys.stdout.write(content)


# --- subcommands ------------------------------------------------------------


@dataclass(frozen=True)
class DecodedLine:
    """One `decode --format csv` row."""

    sentence: int
    iterations: int
    output: str


def _cmd_decode(args: argparse.Namespace) -> int:
    lines = _load_lines(args, "input")
    scorer = _make_scorer(args, lines)
    vocab = scorer.vocab
    cfg = replace(_decode_config(args), mode=args.mode)
    results = []
    for line in lines:
        raw = tokenize(line, args.scheme, vocab)
        results.append(decode(scorer, prepare_input(raw, vocab), cfg))
    outputs = [detokenize(res.output, vocab, args.scheme) for res in results]
    if args.format == "json":
        payload = [
            {
                "input": line,
                "output": output,
                "iterations": res.trace.sequential_iterations,
                "trace": emit_trace(res, vocab, args.scheme),
            }
            for line, output, res in zip(lines, outputs, results)
        ]
        _write(args, rows_json(payload))
    elif args.format == "csv":
        rows = [
            DecodedLine(idx, res.trace.sequential_iterations, output)
            for idx, (output, res) in enumerate(zip(outputs, results))
        ]
        _write(args, rows_csv(DecodedLine, rows))
    else:
        if args.trace:
            outputs = [emit_trace(res, vocab, args.scheme) for res in results]
        # one newline-terminated line per input line, even when a line is empty
        _write(args, "".join(line + "\n" for line in outputs))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    lines = _load_lines(args, "corpus")
    scorer = _make_scorer(args, lines)
    vocab = scorer.vocab
    corpus = _nonempty_corpus(lines, vocab, args.scheme)
    line_numbers = list(corpus)
    report = check_equivalence(
        scorer,
        list(corpus.values()),
        l_max_values=_parse_lmax(args.lmax),
        cfg=DecodeConfig(max_len=args.max_len),
        repetitions=args.repetitions,
        warmup=args.warmup,
    )
    mismatches = [
        {
            "sentence": line_numbers[m.sentence],
            "l_max": UNLIMITED if m.l_max is None else m.l_max,
            "greedy": detokenize(m.greedy_result.output, vocab, args.scheme),
            "aggressive": detokenize(m.aggressive_result.output, vocab, args.scheme),
            "greedy_trace": emit_trace(m.greedy_result, vocab, args.scheme),
            "aggressive_trace": emit_trace(m.aggressive_result, vocab, args.scheme),
        }
        for m in report.mismatches
    ]
    if args.format == "csv":
        _write(args, rows_csv(LmaxRow, report.rows))
    elif args.format == "json":
        _write(args, rows_json({
            "sentences": report.sentences,
            "decode_pairs": report.decode_pairs,
            "mismatches": mismatches,
            "rows": report.rows,
        }))
    else:
        detail = "".join(
            f"sentence {m['sentence']} l_max={m['l_max']}:\n"
            f"  greedy:     {m['greedy']}\n"
            f"  aggressive: {m['aggressive']}\n"
            f"  greedy trace:     {m['greedy_trace']}\n"
            f"  aggressive trace: {m['aggressive_trace']}\n"
            for m in mismatches
        )
        _write(args, detail + report.summary())
    return 0 if report.ok else 1


def _nonempty_corpus(lines: list[str], vocab: Vocab, scheme: str) -> dict[int, TokenIds]:
    """The token ids of each line that has any, keyed by its 0-based line number."""
    return {i: seq for i, seq in enumerate(corpus_to_ids(lines, scheme, vocab)) if seq}


def _cmd_bench(args: argparse.Namespace) -> int:
    lines = _load_lines(args, "corpus")
    scorer = _make_scorer(args, lines)
    corpus = _nonempty_corpus(lines, scorer.vocab, args.scheme)
    try:
        rows = bench(
            scorer,
            list(corpus.values()),
            cfg=_decode_config(args),
            repetitions=args.repetitions,
            warmup=args.warmup,
            with_beam=args.with_beam,
        )
    except MismatchError as exc:  # name the input line, as check does
        raise MismatchError(list(corpus)[exc.sentence], exc.where) from None
    if args.format == "csv":
        _write(args, rows_csv(SentenceRow, rows))
    elif args.format == "json":
        _write(args, rows_json(bench_summary(rows)))
    else:
        summary = bench_summary(rows)
        _write(
            args,
            f"{summary['sentences']} sentences; "
            f"mean iteration speedup {summary['mean_iteration_speedup']:.2f}x; "
            f"mean wall-clock speedup {summary['mean_wall_speedup']:.2f}x",
        )
    return 0


def _cmd_sweep_depth(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("sweep-depth requires --seed for the transformer weights")
    lines = _load_lines(args, "corpus")
    vocab = build_vocab(lines, args.scheme)
    corpus = _nonempty_corpus(lines, vocab, args.scheme)
    configs = [_transformer_config(args, enc, dec) for enc, dec in _parse_depths(args.depths)]
    try:
        rows = sweep_depth(
            configs,
            list(corpus.values()),
            vocab,
            cfg=DecodeConfig(max_len=args.max_len),
            repetitions=args.repetitions,
            warmup=args.warmup,
        )
    except MismatchError as exc:
        raise MismatchError(list(corpus)[exc.sentence], exc.where) from None
    _write(args, rows_json(rows) if args.format == "json" else rows_csv(DepthRow, rows))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config_file(args)
        with thread_limit(args.threads):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
