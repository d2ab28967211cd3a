import csv
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aggdec import (
    DecodeConfig,
    ScriptedEditScorer,
    aggressive_decode,
    greedy_decode,
    identity_scorer,
    prepare_input,
    tokenize,
)
from aggdec import metrics
from aggdec.cli import emit_trace, main
from oracles import PeekingTransformer, SteppingScriptedScorer


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\nc a d\na\n", encoding="utf-8")
    return path


def test_emit_trace_single_segment(vocab):
    raw = tokenize("a b c", "whitespace", vocab)
    result = aggressive_decode(
        identity_scorer(vocab), prepare_input(raw, vocab), DecodeConfig(mode="aggressive")
    )
    assert emit_trace(result, vocab) == "[a b c <eos>]_0(agg)"


def test_emit_trace_mixed_segments(vocab):
    """After the edit X, a scorer without branches steps once and re-enters
    the input; the scripted scorer re-enters it in one aligned pass."""
    pair = (tokenize("a b c d", "whitespace", vocab), tokenize("a b X d", "whitespace", vocab))
    x = prepare_input(pair[0], vocab)
    result = aggressive_decode(SteppingScriptedScorer([pair], vocab), x, DecodeConfig(mode="aggressive"))
    assert emit_trace(result, vocab) == "[a b X]_0(agg) [d]_1(ar) [<eos>]_2(agg)"
    result = aggressive_decode(ScriptedEditScorer([pair], vocab), x, DecodeConfig(mode="aggressive"))
    assert emit_trace(result, vocab) == "[a b X]_0(agg) [d <eos>]_1(align)"


def test_emit_trace_tags_output_lookup_passes(vocab):
    """Once `X a` repeats in the output, its loop `b X a` is drafted from
    the output as running on, and one pass accepts the rest of the target
    and the EOS where the draft ran on."""
    pair = (tokenize("a b c d", "whitespace", vocab), tokenize("X a b X a b X a", "whitespace", vocab))
    x = prepare_input(pair[0], vocab)
    result = aggressive_decode(SteppingScriptedScorer([pair], vocab), x, DecodeConfig(mode="aggressive"))
    assert emit_trace(result, vocab) == (
        "[X]_0(agg) [a]_1(ar) [b X]_2(agg) [a]_3(ar) [b X a <eos>]_4(look)"
    )
    result = aggressive_decode(ScriptedEditScorer([pair], vocab), x, DecodeConfig(mode="aggressive"))
    assert emit_trace(result, vocab) == (
        "[X]_0(agg) [a b X]_1(align) [a]_2(align) [b X a <eos>]_3(look)"
    )


def test_decode_text_output(corpus_file, capsys):
    code = main([
        "decode", "--scorer", "identity", "--input", str(corpus_file),
        "--mode", "aggressive", "--format", "text",
    ])
    assert code == 0
    assert capsys.readouterr().out == "a b c\nc a d\na\n"


def test_decode_trace_zero_edit_single_segment(corpus_file, capsys):
    code = main([
        "decode", "--scorer", "identity", "--input", str(corpus_file),
        "--mode", "aggressive", "--format", "text", "--trace",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[a b c <eos>]_0(agg)"
    assert all(line.count("[") == 1 for line in lines)


def test_decode_greedy_mode(corpus_file, capsys):
    code = main([
        "decode", "--scorer", "identity", "--input", str(corpus_file),
        "--mode", "greedy", "--format", "text",
    ])
    assert code == 0
    assert capsys.readouterr().out == "a b c\nc a d\na\n"


def test_decode_splits_lines_at_newlines_alone(tmp_path, capsys):
    """A form feed inside a line is whitespace in it, not a line break."""
    path = tmp_path / "input.txt"
    path.write_text("a b\fc d\nx y\n", encoding="utf-8")
    assert main(["decode", "--scorer", "identity", "--input", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out == "a b c d\nx y\n"


def test_decode_of_no_lines_writes_no_bytes(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = ["decode", "--scorer", "identity", "--input", str(path), "--format", "text"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == b""


def _universal_line_count(text: str) -> int:
    """Lines in text as universal-newline reading splits it: at \\n, \\r\\n and \\r."""
    return len(io.StringIO(text, newline=None).readlines())


# text with the line breaks, look-alikes and sentinel words a reader can trip on
_TEXT = st.lists(st.one_of(
    st.text(max_size=8),
    st.sampled_from(["\r\n", "\r", "\n", "\n\n", "\f", "\v", "\x85", "\u2028", "<eos>", "<pad>", " "]),
), max_size=12).map("".join)


@settings(max_examples=100, deadline=None)
@given(text=_TEXT, bom=st.booleans(), scheme=st.sampled_from(["whitespace", "character"]))
def test_decode_writes_one_line_per_input_line(text, bom, scheme):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "input.txt"), Path(tmp, "out.txt")
        path.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
        argv = ["decode", "--scorer", "identity", "--scheme", scheme, "--input", str(path)]
        assert main(argv + ["--output", str(out)]) == 0
        written = out.read_bytes().decode("utf-8")
    assert _universal_line_count(written) == _universal_line_count(text)
    assert written == "" or written.endswith("\n")


def test_config_file_may_start_with_a_byte_order_mark(corpus_file, tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_bytes("\ufeffthreads = 1\n".encode("utf-8"))
    argv = ["decode", "--scorer", "identity", "--input", str(corpus_file), "--config", str(config)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "a b c\nc a d\na\n"


def test_corpus_byte_order_mark_is_not_text(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_bytes("\ufeffa b\n".encode("utf-8"))
    assert main(["decode", "--scorer", "identity", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["input"] == "a b"


@pytest.mark.parametrize("argv", [
    ["decode", "--format", "text", "--input"],
    ["check", "--corpus"],
    ["bench", "--repetitions", "1", "--warmup", "0", "--corpus"],
])
def test_a_sentinel_surface_in_the_text_is_an_unknown_word(tmp_path, capsys, argv):
    path = tmp_path / "input.txt"
    path.write_text("x <eos> y\n<pad>\n", encoding="utf-8")
    assert main(argv[:1] + ["--scorer", "identity"] + argv[1:] + [str(path)]) == 0
    if argv[0] == "decode":
        assert capsys.readouterr().out == "x <unk> y\n<unk>\n"


def test_decode_output_file_byte_identical(corpus_file, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        "decode", "--scorer", "ngram", "--input", str(corpus_file),
        "--order", "2", "--copy-bias", "4.0", "--format", "json",
    ]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_decode_scripted_pairs(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("a b c d\n", encoding="utf-8")
    tgt.write_text("a b X d\n", encoding="utf-8")
    code = main([
        "decode", "--scorer", "scripted", "--scripted-pairs", str(src), str(tgt),
        "--input", str(src), "--format", "text",
    ])
    assert code == 0
    assert capsys.readouterr().out == "a b X d\n"


def test_decode_transformer_from_config(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "# shallow decoder\nenc_layers = 1\ndec_layers = 1\nmodel_dim = 16\n"
        "heads = 2\nffn_dim = 16\nseed = 3\n",
        encoding="utf-8",
    )
    argv = ["decode", "--scorer", "transformer", "--input", str(corpus_file)]
    assert main(argv + ["--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert from_config.count("\n") == 3  # one line per input line
    assert main(argv + ["--enc-layers", "1", "--dec-layers", "1", "--model-dim", "16",
                        "--heads", "2", "--ffn-dim", "16", "--seed", "3"]) == 0
    assert capsys.readouterr().out == from_config


def test_check_reports_zero_mismatches(corpus_file, capsys):
    code = main([
        "check", "--scorer", "ngram", "--corpus", str(corpus_file),
        "--lmax", "1,5,unlimited",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0 mismatches / 3 sentences"


def test_check_json_format(corpus_file, capsys):
    code = main([
        "check", "--scorer", "identity", "--corpus", str(corpus_file),
        "--lmax", "2,unlimited", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sentences"] == 3
    assert payload["decode_pairs"] == 6
    assert payload["mismatches"] == []


def test_check_exits_nonzero_on_mismatch(corpus_file, capsys, monkeypatch, vocab):
    """Exit code is 0 iff the mismatch count is 0, in every format; each
    mismatch is shown with both outputs and traces, and an unlimited l_max
    reads `unlimited` in mismatches and per-l_max rows alike."""
    from aggdec import cli as cli_module
    from aggdec.metrics import EquivalenceReport, LmaxRow, Mismatch

    raw = tokenize("a b", "whitespace", vocab)
    x = prepare_input(raw, vocab)
    greedy = greedy_decode(identity_scorer(vocab), x, DecodeConfig())
    rewrite = ScriptedEditScorer([(raw, tokenize("a c", "whitespace", vocab))], vocab)
    aggressive = aggressive_decode(rewrite, x, DecodeConfig(mode="aggressive"))
    fake = EquivalenceReport(
        sentences=1,
        decode_pairs=1,
        mismatches=(
            Mismatch(sentence=0, l_max=None, greedy_result=greedy, aggressive_result=aggressive),
        ),
        rows=(LmaxRow(None, 2, 3, 3, 0.5, False),),
    )
    monkeypatch.setattr(cli_module, "check_equivalence", lambda *a, **k: fake)
    check = ["check", "--scorer", "identity", "--corpus", str(corpus_file)]
    assert main(check) == 1
    assert capsys.readouterr().out == (
        "sentence 0 l_max=unlimited:\n"
        "  greedy:     a b\n"
        "  aggressive: a c\n"
        "  greedy trace:     [a]_0(ar) [b]_1(ar) [<eos>]_2(ar)\n"
        "  aggressive trace: [a c]_0(agg) [<eos>]_1(align)\n"
        "1 mismatches / 1 sentences\n"
    )
    assert main([*check, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "sentences": 1,
        "decode_pairs": 1,
        "mismatches": [{
            "sentence": 0,
            "l_max": "unlimited",
            "greedy": "a b",
            "aggressive": "a c",
            "greedy_trace": "[a]_0(ar) [b]_1(ar) [<eos>]_2(ar)",
            "aggressive_trace": "[a c]_0(agg) [<eos>]_1(align)",
        }],
        "rows": [{
            "l_max": "unlimited",
            "sequential_iterations": 2,
            "positions_scored": 3,
            "tokens_emitted": 3,
            "wall_clock": 0.5,
            "outputs_match_greedy": False,
        }],
    }
    assert main([*check, "--format", "csv"]) == 1
    assert capsys.readouterr().out == (
        "l_max,sequential_iterations,positions_scored,tokens_emitted,wall_clock,outputs_match_greedy\n"
        "unlimited,2,3,3,0.500000,false\n"
    )


def test_bench_csv(corpus_file, capsys):
    code = main([
        "bench", "--scorer", "identity", "--corpus", str(corpus_file),
        "--repetitions", "1", "--warmup", "0", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sentence,input_len,output_len,edit_ratio,greedy_iters")
    assert len(lines) == 4


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bench_all_lines_empty(tmp_path, capsys, fmt):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    code = main([
        "bench", "--scorer", "identity", "--corpus", str(path),
        "--repetitions", "1", "--warmup", "0", "--format", fmt,
    ])
    assert code == 0
    out = capsys.readouterr().out
    if fmt == "text":
        assert out == "0 sentences; mean iteration speedup 0.00x; mean wall-clock speedup 0.00x\n"
    else:
        payload = json.loads(out)
        assert payload["sentences"] == 0 and payload["mean_iteration_speedup"] == 0.0


def test_bench_json(corpus_file, capsys):
    code = main([
        "bench", "--scorer", "identity", "--corpus", str(corpus_file),
        "--repetitions", "1", "--warmup", "0", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sentences"] == 3
    assert payload["mean_edit_ratio"] == 0.0


MISMATCH = "aggressive output differs from greedy output"


@pytest.mark.parametrize("fmt, lmax", [("text", "unlimited"), ("json", "3"), ("csv", "unlimited")])
def test_bench_exits_nonzero_on_mismatch(tmp_path, capsys, monkeypatch, fmt, lmax):
    """bench reports no speedup between two different outputs: on a scorer
    that breaks prefix consistency it prints nothing and exits 1 in every
    format, naming the 0-based input line (line 0 is blank) and the l_max."""
    from aggdec import build_vocab
    from aggdec import cli as cli_module
    from test_metrics import _PeekingScorer

    monkeypatch.setattr(cli_module, "_make_scorer",
                        lambda args, lines: _PeekingScorer(build_vocab(lines, args.scheme)))
    path = tmp_path / "corpus.txt"
    path.write_text("\na b c\nc a\n", encoding="utf-8")
    argv = ["bench", "--corpus", str(path), "--repetitions", "1", "--warmup", "0", "--lmax", lmax]
    assert main([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sentence 1 l_max={lmax}: {MISMATCH}\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--scorer", "ngram", "--repetitions", "0"],
    ["sweep-depth", "--seed", "1", "--repetitions", "0", "--warmup", "-1"],
], ids=["bench", "sweep-depth"])
def test_harness_arguments_checked_on_a_blank_corpus(tmp_path, capsys, argv):
    """A corpus with no sentence to time still has its --repetitions checked."""
    path = tmp_path / "blank.txt"
    path.write_text("\n\n", encoding="utf-8")
    assert main([*argv, "--corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repetitions must be >= 1\n"


def test_sweep_lmax_nonincreasing(corpus_file, capsys):
    code = main([
        "check", "--scorer", "identity", "--corpus", str(corpus_file),
        "--lmax", "1,2,3,unlimited", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    iters = [int(line.split(",")[1]) for line in lines]
    assert iters == sorted(iters, reverse=True)


def test_sweep_lmax_config_overrides_flags(corpus_file, tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("lmax = 1,unlimited\n", encoding="utf-8")
    code = main([
        "check", "--scorer", "identity", "--corpus", str(corpus_file),
        "--lmax", "3", "--config", str(config), "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header + the two configured values
    assert lines[1].startswith("1,")
    assert lines[2].startswith("unlimited,")


def test_sweep_lmax_of_blank_lines_only_is_an_error(tmp_path, capsys):
    """As in text, check's per-l_max table refuses a corpus with no sentence
    to decode, and prints no header."""
    path = tmp_path / "blank.txt"
    path.write_text("\n\n", encoding="utf-8")
    argv = ["check", "--scorer", "identity", "--corpus", str(path), "--lmax", "1,unlimited"]
    assert main(argv + ["--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: equivalence check needs a nonempty corpus\n"


def test_check_of_blank_lines_only_is_an_error(tmp_path, capsys):
    """check, like bench, decodes only the lines that hold a
    token, so a corpus of blank lines has no sentence to check."""
    path = tmp_path / "blank.txt"
    path.write_text("\n \n", encoding="utf-8")
    assert main(["check", "--scorer", "identity", "--corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: equivalence check needs a nonempty corpus\n"


def test_check_names_a_mismatch_by_its_input_line(tmp_path, capsys, monkeypatch, vocab):
    """Blank lines are not sentences to check, but a mismatch still names
    the 0-based number of the line it was decoded from."""
    from aggdec import cli as cli_module
    from aggdec.metrics import EquivalenceReport, Mismatch

    x = prepare_input(tokenize("a b", "whitespace", vocab), vocab)
    result = greedy_decode(identity_scorer(vocab), x, DecodeConfig())
    checked = []

    def fake(scorer, corpus, **kwargs):
        checked.append(corpus)
        return EquivalenceReport(len(corpus), len(corpus), (Mismatch(0, None, result, result),), ())

    monkeypatch.setattr(cli_module, "check_equivalence", fake)
    path = tmp_path / "corpus.txt"
    path.write_text("\na b\n\n", encoding="utf-8")
    assert main(["check", "--scorer", "identity", "--corpus", str(path), "--format", "json"]) == 1
    assert len(checked[0]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["sentences"] == 1
    assert [m["sentence"] for m in report["mismatches"]] == [1]


def test_sweep_config_nargs_value_matches_flag(corpus_file, tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("a b c d\n", encoding="utf-8")
    tgt.write_text("a b X d\n", encoding="utf-8")
    config = tmp_path / "sweep.cfg"
    config.write_text(f"scorer = scripted\nscripted_pairs = {src} {tgt}\n", encoding="utf-8")
    argv = ["check", "--corpus", str(src), "--lmax", "1,unlimited", "--format", "csv"]
    assert main(argv + ["--config", str(config)]) == 0
    from_config = capsys.readouterr().out.splitlines()
    assert main(argv + ["--scorer", "scripted", "--scripted-pairs", str(src), str(tgt)]) == 0
    from_flags = capsys.readouterr().out.splitlines()
    iterations = [[line.split(",")[1] for line in out] for out in (from_config, from_flags)]
    assert iterations[0] == iterations[1] == ["sequential_iterations", "5", "2"]


@pytest.mark.parametrize("line, message", [
    ("format = xml", "invalid choice"),
    ("repetitions = two", "invalid int value"),
    ("scripted_pairs = only-one.txt", "expects 2 values"),
    ("workers = 2", "unknown config key"),
    ("func = x", "unknown config key"),
    ("mode = beam", "unknown config key"),
    ("config = other.cfg", "unknown config key"),
    ("lmax", "expected `key = value`"),
])
def test_sweep_config_value_rejected_like_flag(corpus_file, tmp_path, capsys, line, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"# sweep settings\n{line}\n", encoding="utf-8")
    code = main([
        "check", "--scorer", "identity", "--corpus", str(corpus_file),
        "--lmax", "1,unlimited", "--format", "csv", "--config", str(config),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{config}:2: " in err and message in err


@pytest.mark.parametrize("argv", [["decode", "--input"], ["bench", "--corpus"]])
def test_beam_takes_no_length_penalty(corpus_file, tmp_path, capsys, argv):
    """Beam search ranks by summed log-prob alone: `length_penalty` is an
    unknown config key and `--length-penalty` an unknown flag."""
    config = tmp_path / "beam.cfg"
    config.write_text("length_penalty = 1\n", encoding="utf-8")
    assert main(argv + [str(corpus_file), "--config", str(config)]) == 1
    assert f"{config}:1: unknown config key 'length_penalty'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [str(corpus_file), "--length-penalty", "1"])
    assert excinfo.value.code == 2


def test_sweep_depth_smoke(corpus_file, capsys):
    code = main([
        "sweep-depth", "--corpus", str(corpus_file), "--depths", "1+1,1+2",
        "--model-dim", "16", "--heads", "2", "--ffn-dim", "16", "--seed", "9",
        "--repetitions", "1", "--warmup", "0", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("enc_layers,dec_layers")
    assert len(lines) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_depth_exits_nonzero_on_mismatch(tmp_path, capsys, monkeypatch, fmt):
    """A transformer whose aggressive output differs from greedy's fails the
    sweep in every format, naming the 0-based input line and the depth split."""
    monkeypatch.setattr(metrics, "TinyTransformer", PeekingTransformer)
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\n\na X b\n", encoding="utf-8")
    assert main([*SWEEP_DEPTH, "--corpus", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sentence 2 depth=1+1: {MISMATCH}\n"


def test_decode_csv_quotes_text(tmp_path, capsys):
    line = 'hello, "world" a,b'
    path = tmp_path / "corpus.txt"
    path.write_text(line + "\n", encoding="utf-8")
    code = main(["decode", "--scorer", "identity", "--input", str(path), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows == [["sentence", "iterations", "output"], ["0", "1", line]]


def test_decode_character_scheme_round_trips_text(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("hello world\n", encoding="utf-8")
    argv = ["decode", "--scorer", "identity", "--scheme", "character", "--input", str(path)]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out == "hello world\n"
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["output"] == "hello world"
    assert main(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[1] == ["0", "1", "hello world"]
    assert main(argv + ["--trace"]) == 0
    assert capsys.readouterr().out == "[hello world<eos>]_0(agg)\n"


@pytest.mark.parametrize("subcommand, tail", [
    pytest.param("check", ["--format", "xml"], id="check-xml"),
    pytest.param("sweep-depth", ["--format", "text"], id="sweep-depth-text"),
    # options a subcommand never reads are not accepted either
    pytest.param("check", ["--mode", "beam"], id="check-mode"),
    pytest.param("bench", ["--mode", "greedy"], id="bench-mode"),
    pytest.param("check", ["--lmax", "1,unlimited", "--beam", "2"], id="sweep-lmax-beam"),
    pytest.param("sweep-depth", ["--lmax", "2"], id="sweep-depth-lmax"),
    pytest.param("sweep-depth", ["--scorer", "ngram"], id="sweep-depth-scorer"),
])
def test_format_limited_to_what_subcommand_renders(corpus_file, subcommand, tail):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--corpus", str(corpus_file), *tail])
    assert excinfo.value.code != 0


SWEEP_DEPTH = ["sweep-depth", "--depths", "1+1", "--model-dim", "16", "--heads", "2",
               "--ffn-dim", "16", "--seed", "9", "--repetitions", "1", "--warmup", "0"]


BENCH = ["bench", "--scorer", "identity", "--repetitions", "1", "--warmup", "0"]


@pytest.mark.parametrize("argv, from_config", [
    (BENCH, False),
    (BENCH, True),
    (SWEEP_DEPTH, False),
    (SWEEP_DEPTH, True),
    (["check", "--scorer", "identity", "--lmax", "1,unlimited", "--format", "csv"], True),
], ids=["bench", "bench-config", "sweep-depth", "sweep-depth-config", "sweep-lmax-config"])
def test_threads_pinned_once_per_run(corpus_file, tmp_path, monkeypatch, argv, from_config):
    """`--threads 1`, or `threads = 1` in a config file, asks for the pin
    once; with neither threadpoolctl nor numpy's bundled OpenBLAS to pin
    through, that request warns."""
    if from_config:
        config = tmp_path / "run.cfg"
        config.write_text("threads = 1\n", encoding="utf-8")
        tail = ["--config", str(config)]
    else:
        tail = ["--threads", "1"]
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    monkeypatch.setattr(metrics, "_bundled_openblas", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--corpus", str(corpus_file), *tail]) == 0
    assert sum(issubclass(w.category, RuntimeWarning) for w in caught) == 1


def test_threads_below_one_rejected(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*BENCH, "--corpus", str(corpus_file), "--threads", "0"])
    assert excinfo.value.code != 0
    assert "--threads: expected an int >= 1, got '0'" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("threads = 0\n", encoding="utf-8")
    assert main([*BENCH, "--corpus", str(corpus_file), "--config", str(config)]) == 1
    assert "--threads: expected an int >= 1, got '0'" in capsys.readouterr().err


def test_missing_corpus_is_a_clean_error(capsys):
    code = main(["decode", "--scorer", "identity", "--input", "no-such-file.txt"])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_transformer_without_seed_rejected(corpus_file, capsys):
    code = main([
        "decode", "--scorer", "transformer", "--input", str(corpus_file),
    ])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("--copy-bias", "inf", "copy_bias"),
    ("--copy-bias", "nan", "copy_bias"),
    ("--smoothing", "nan", "smoothing"),
])
def test_ngram_non_finite_setting_is_a_clean_error(corpus_file, capsys, flag, value, name):
    code = main([
        "decode", "--scorer", "ngram", "--input", str(corpus_file), flag, value,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert name in err and "logit" not in err


@pytest.mark.parametrize("value", ["-1e9", "-1E+2", "-.5e1", "-2.5"])
def test_negative_float_flag_in_any_spelling_is_a_value(corpus_file, capsys, value):
    """`--copy-bias -1e9` decodes as `--copy-bias=-1e9` does."""
    argv = ["decode", "--scorer", "ngram", "--input", str(corpus_file), "--format", "json"]
    assert main(argv + [f"--copy-bias={value}"]) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--copy-bias", value]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("flag, value, name", [
    ("--copy-bias", "-inf", "copy_bias"),
    ("--copy-bias", "-Infinity", "copy_bias"),
    ("--copy-bias", "-nan", "copy_bias"),
    ("--smoothing", "-inf", "smoothing"),
    ("--smoothing", "-1e-3", "smoothing"),
])
def test_negative_float_flag_reaches_its_own_check(corpus_file, capsys, flag, value, name):
    """A negative infinity or exponent is parsed as the flag's value, so the
    setting's own check rejects it (exit 1), not argparse (exit 2)."""
    code = main([
        "decode", "--scorer", "ngram", "--mode", "beam", "--input", str(corpus_file), flag, value,
    ])
    assert code == 1
    assert name in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(corpus_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["decode", "--input", str(corpus_file), "--no-such-flag"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("argv, message", [
    pytest.param(["check", "--scorer", "identity", "--lmax", "0"], "lmax", id="lmax-0"),
    pytest.param(["check", "--scorer", "identity", "--lmax", "two"],
                 "--lmax values must be ints >= 1 or 'unlimited', got 'two'", id="lmax-two"),
    pytest.param(["sweep-depth", "--seed", "1", "--depths", "6"],
                 "--depths expects ENC+DEC pairs, got '6'", id="depths-6"),
    pytest.param(["sweep-depth", "--seed", "1", "--depths", "6+x"],
                 "--depths expects ENC+DEC pairs, got '6+x'", id="depths-6+x"),
])
def test_bad_lmax_rejected(corpus_file, capsys, argv, message):
    code = main([*argv, "--corpus", str(corpus_file)])
    assert code == 1
    assert message in capsys.readouterr().err
