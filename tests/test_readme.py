"""README's examples run against the package as it is."""

import re
import shlex
from pathlib import Path

import pytest

from aggdec.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    aggressive_iters, vs, greedy_iters = capsys.readouterr().out.split()
    assert vs == "vs" and int(aggressive_iters) > 0 and int(greedy_iters) > 0


def test_cli_examples_parse():
    """Every `aggdec ...` command in README's sh blocks, continuation lines
    joined, names a subcommand and options the parser accepts; none is run."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["aggdec"]:
                commands.append(words[1:])
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: aggdec {shlex.join(argv)}")
