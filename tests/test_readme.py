"""README's examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    aggressive_iters, vs, greedy_iters = capsys.readouterr().out.split()
    assert vs == "vs" and int(aggressive_iters) > 0 and int(greedy_iters) > 0
