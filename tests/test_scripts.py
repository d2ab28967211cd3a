"""The corpus script's files feed the CLI's experiments."""

import csv
import subprocess
import sys
from pathlib import Path

from aggdec.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def make_corpus(src: Path, tgt: Path, *args: str) -> None:
    subprocess.run(
        [sys.executable, str(SCRIPTS / "make_corpus.py"),
         "--source", str(src), "--target", str(tgt), *args],
        check=True, capture_output=True, text=True, timeout=120,
    )


def test_make_corpus_writes_aligned_files(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    make_corpus(src, tgt, "--sentences", "2")
    assert len(src.read_text(encoding="utf-8").splitlines()) == 2
    assert len(tgt.read_text(encoding="utf-8").splitlines()) == 2


def test_make_corpus_feeds_scripted_bench(tmp_path, capsys):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    make_corpus(src, tgt, "--sentences", "3", "--min-len", "4", "--max-len", "8",
                "--edit-rate", "0", "0.5", "--seed", "3")
    code = main([
        "bench", "--scorer", "scripted", "--scripted-pairs", str(src), str(tgt),
        "--corpus", str(src), "--repetitions", "1", "--warmup", "0", "--format", "csv",
    ])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["sentence"] for row in rows] == ["0", "1", "2"]
    targets = tgt.read_text(encoding="utf-8").splitlines()
    # the scripted scorer plays each target back, so output lengths are the targets'
    assert [int(row["output_len"]) for row in rows] == [len(t.split()) for t in targets]
