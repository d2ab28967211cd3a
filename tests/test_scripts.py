"""Smoke-run each experiment script at tiny size in a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> None:
    subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        check=True, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, args, header", [
    ("run_lmax_sweep.py", ["--sentences", "2", "--lmax", "1,unlimited"],
     "l_max,sequential_iterations,positions_scored,tokens_emitted,wall_clock,"
     "outputs_match_greedy"),
    ("run_depth_sweep.py", ["--sentences", "1", "--depths", "1+1", "--model-dim", "16",
                            "--heads", "2", "--ffn-dim", "16", "--repetitions", "1"],
     "enc_layers,dec_layers,greedy_iterations,greedy_tokens,greedy_wall,"
     "aggressive_iterations,aggressive_tokens,aggressive_wall"),
    ("speedup_by_edit_ratio.py", ["--sentences", "2"],
     "sentence,input_len,output_len,edit_ratio,greedy_iters,aggressive_iters,beam_iters,"
     "iteration_speedup,wall_speedup,greedy_wall,aggressive_wall,beam_wall"),
])
def test_csv_script_writes_header(tmp_path, name, args, header):
    out = tmp_path / "out.csv"
    run_script(name, *args, "--output", str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_make_corpus_writes_aligned_files(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    run_script("make_corpus.py", "--sentences", "2", "--source", str(src), "--target", str(tgt))
    assert len(src.read_text(encoding="utf-8").splitlines()) == 2
    assert len(tgt.read_text(encoding="utf-8").splitlines()) == 2
