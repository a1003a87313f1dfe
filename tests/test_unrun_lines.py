"""The line accounting of tools/unrun_lines.py, on a module made to measure."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""


def used(x):
    """A function docstring."""
    if x < 0:
        raise ValueError("negative")
    return x + 1


def spare():  # pragma: no cover
    return 0


if __name__ == "__main__":
    print(used(1))
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load("unrun_lines", TOOL)


@pytest.fixture
def sample(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    return path


def test_docstrings_pragmas_and_the_main_guard_body_are_not_counted(tool, sample):
    # used's def and body, and the guard's own test
    assert sorted(tool.executable_lines(sample)) == [5, 7, 8, 9, 16]


def test_the_raise_that_never_runs_is_the_one_line_listed(tool, sample):
    hits = tool.trace([sample], lambda: load("sample", sample).used(1))
    assert tool.unrun([sample], hits) == [
        (str(sample.resolve()), 8, 'raise ValueError("negative")')
    ]


def test_exit_status_is_pytests(tmp_path):
    test = tmp_path / "test_fails.py"
    test.write_text("def test_fails():\n    assert False\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", str(test)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    # nothing imported chgeom, so every counted line is listed
    line = r"^src/chgeom/errors\.py:\d+: class GeometryError\(Exception\):$"
    assert re.search(line, proc.stdout, re.M)
    missed, total = re.search(r"(\d+) of (\d+) library lines never ran", proc.stderr).groups()
    assert missed == total
