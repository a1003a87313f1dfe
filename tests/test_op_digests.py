"""The digests and the side-by-side report of tools/op_digests.py, on a
made-up tree with one made-up workload."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"

WORKLOADS = '''
class Doubling:
    """Draws seed, seed + 1, ...; the op doubles a draw and fails on 3."""

    name = "doubling"

    def generate(self, seed):
        return [seed, seed + 1, seed + 2], 0

    def decode(self, inputs):
        return inputs

    def op(self, item):
        if item == 3:
            raise ArithmeticError("three")
        return [FACTOR * item, 0.1 * item]


FACTOR = 2
WORKLOADS = {"doubling": Doubling()}
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load("op_digests", TOOL)


def make_tree(root: Path, factor: int = 2) -> Path:
    (root / "src" / "chgeom").mkdir(parents=True)
    (root / "src" / "chgeom" / "__init__.py").write_text("")
    (root / "bench").mkdir()
    (root / "bench" / "workloads.py").write_text(WORKLOADS.replace("FACTOR = 2", f"FACTOR = {factor}"))
    return root


def run(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=120, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digests_hash_every_output_and_a_raise_by_its_type(tool, tmp_path):
    wl = load("workloads", make_tree(tmp_path) / "bench" / "workloads.py").Doubling()
    one, again = tool.digests(wl, 1), tool.digests(wl, 1)
    assert one == again and set(one) == {"inputs", "outputs"}
    # seed 2 draws 2, 3, 4: the raise on 3 is hashed by its type, not skipped
    outputs = [b"[4, 0.2]", b"raise ArithmeticError", b"[8, 0.4]"]
    assert tool.digests(wl, 2)["outputs"] == tool._sha(outputs)
    assert tool.digests(wl, 2)["inputs"] != one["inputs"]


def test_report_names_the_workloads_whose_digests_differ(tool):
    mine = {"a": {"1": {"outputs": "0" * 64}}, "b": {"1": {"outputs": "1" * 64}}}
    other = {"a": {"1": {"outputs": "0" * 64}}, "b": {"1": {"outputs": "2" * 64}}}
    lines = tool.report({"this tree": mine, "REV": other})
    assert lines[-1] == "bits moved: b"
    assert [line.endswith("differs") for line in lines[1:-1]] == [False, True]
    assert tool.report({"this tree": mine})[-1].startswith("b ")


def test_json_output_of_a_tree(tmp_path):
    tree = make_tree(tmp_path / "tree")
    out = json.loads(run("--root", str(tree), "--json", "--seeds", "1", "2"))
    assert list(out) == ["doubling"] and list(out["doubling"]) == ["1", "2"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_a_revision_shows_the_moved_bits(tmp_path):
    tree = make_tree(tmp_path / "tree")
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (tree / "bench" / "workloads.py").write_text(WORKLOADS.replace("FACTOR = 2", "FACTOR = 3"))
    out = run("--root", str(tree), "--seeds", "1", "--against", "HEAD")
    lines = out.splitlines()
    assert lines[0].split()[-2:] == ["tree", "HEAD"]
    assert "differs" in next(line for line in lines if " outputs " in line)
    assert "differs" not in next(line for line in lines if " inputs " in line)
    assert lines[-1] == "bits moved: doubling"
