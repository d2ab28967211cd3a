"""The tier-1 workflow agrees with pyproject.toml, and every Python file
parses as the oldest Python it admits. Both files are read as text, so
that the test needs neither a YAML parser nor tomllib, which the oldest
supported Python lacks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple[int, int]:
    major, minor = text.split(".")
    return int(major), int(minor)


def test_the_tier1_workflow_runs_the_suite_as_pyproject_declares_it():
    """Its lowest matrix Python is the requires-python floor; it installs
    the test extra, pins OpenBLAS, OpenMP and MKL to one thread each, as
    perfbench/run.py does, so that the wall-clock tests run single-threaded
    under any BLAS build, and runs pytest from the sources."""
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', project, re.M)
    matrix = re.search(r"^\s*python-version:\s*\[(.*)\]", workflow, re.M)
    assert floor and matrix
    assert min(map(_version, re.findall(r'"([\d.]+)"', matrix.group(1)))) == _version(floor.group(1))
    assert re.search(r"^\[project\.optional-dependencies\]\ntest\s*=", project, re.M)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert re.search(rf'^\s*{var}:\s*"1"\s*$', workflow, re.M), var
    runs = re.findall(r"^\s*(?:- )?run:\s*(.+)$", workflow, re.M)
    assert any(re.search(r"\bpython -m pip install\b.*\.\[test\]", run) for run in runs)
    assert any(re.match(r"PYTHONPATH=src\b.* python -m pytest\b", run) for run in runs)


def test_the_tier1_job_has_a_timeout():
    """The job sets timeout-minutes, at most 30, so that a hung test (a
    decode loop that never grows its output, say) is cancelled rather than
    holding a runner for GitHub's 360-minute default."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    timeout = re.search(r"^\s*timeout-minutes:\s*(\d+)\s*$", workflow, re.M)
    assert timeout and 0 < int(timeout.group(1)) <= 30


def test_every_python_file_parses_as_python_3_10():
    """Every .py file under src/, tests/, perfbench/ and scripts/ parses
    with Python 3.10's grammar, the oldest that pyproject.toml admits, so
    that syntax newer than it fails here, on any interpreter that runs the
    suite."""
    paths = sorted(p for top in ("src", "tests", "perfbench", "scripts") for p in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
