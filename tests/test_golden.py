"""Golden CLI output: exact stdout bytes for every subcommand and format.

Wall-clock values are the only nondeterministic output, so every CSV column
and JSON key whose name contains `wall` is masked before comparing; all
other bytes, including iteration counts, speedups and float rendering, must
match the files under tests/golden/.
"""

import re
from pathlib import Path

import pytest

from aggdec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CORPUS = "a b c d\nc a d\n\na b a b X\nd\n"
SOURCE = "a b c d\nc a d\na b a b X\n"
TARGET = "a b X d\nc a d\na b b X\n"

SCRIPTED = ["--scorer", "scripted", "--scripted-pairs", "{src}", "{tgt}"]
NGRAM = ["--scorer", "ngram", "--order", "2", "--copy-bias", "0.5"]
DEPTH = ["--depths", "1+1", "--model-dim", "16", "--heads", "2", "--ffn-dim", "16",
         "--seed", "3", "--repetitions", "1", "--warmup", "0"]
ONCE = ["--repetitions", "1", "--warmup", "0"]

CASES = {
    "decode_text": ["decode", *SCRIPTED, "--input", "{corpus}"],
    "decode_trace": ["decode", *SCRIPTED, "--input", "{corpus}", "--trace"],
    "decode_json": ["decode", *NGRAM, "--input", "{corpus}", "--format", "json"],
    "decode_csv": ["decode", *SCRIPTED, "--input", "{corpus}", "--format", "csv"],
    "check_text": ["check", *NGRAM, "--corpus", "{corpus}", "--lmax", "1,3,unlimited"],
    "check_json": ["check", *NGRAM, "--corpus", "{corpus}", "--lmax", "2,unlimited",
                   "--format", "json"],
    "check_csv": ["check", *NGRAM, "--corpus", "{corpus}", "--lmax", "1,2,unlimited",
                  "--format", "csv"],
    "bench_csv": ["bench", *SCRIPTED, "--corpus", "{corpus}", *ONCE, "--with-beam",
                  "--beam", "2", "--format", "csv"],
    "bench_json": ["bench", *SCRIPTED, "--corpus", "{corpus}", *ONCE, "--format", "json"],
    "sweep_depth_csv": ["sweep-depth", "--corpus", "{corpus}", *DEPTH, "--format", "csv"],
    "sweep_depth_json": ["sweep-depth", "--corpus", "{corpus}", *DEPTH, "--format", "json"],
}

_WALL_JSON = re.compile(r'("\w*wall\w*": )[^,\n]+')


def mask_wall_clock(text: str) -> str:
    """Replace every wall-clock value with `*` in a JSON or CSV report."""
    if text.startswith(("{", "[")):
        return _WALL_JSON.sub(r'\1"*"', text)
    lines = text.split("\n")
    walls = [i for i, name in enumerate(lines[0].split(",")) if "wall" in name]
    if not walls:
        return text
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        masked.append(",".join("*" if i in walls and line else c for i, c in enumerate(cells)))
    return "\n".join(masked)


def run_case(name: str, tmp_path: Path, capsys) -> tuple[int, str]:
    files = {"corpus": CORPUS, "src": SOURCE, "tgt": TARGET}
    paths = {}
    for key, content in files.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(content, encoding="utf-8")
    argv = [arg.format(**paths) for arg in CASES[name]]
    code = main(argv)
    return code, mask_wall_clock(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    code, out = run_case(name, tmp_path, capsys)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
