"""The runtime depends on numpy alone, and imports only what it uses.

scipy stays an oracle for the tests; importing the library or the CLI in a
fresh interpreter must not load any of it.  Every name a module imports is
read somewhere in it, or listed in its __all__.  No module calls argmax:
phases are anchored by core._rephase, whose tie rule argmax would bypass.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = (
        "import chgeom, chgeom.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: Imports kept on purpose, with the reason: (module file, name).
KEPT_IMPORTS = {
    # bench/tests/test_bench.py checks that tracing rebinds chgeom.triples.form
    ("triples.py", "form"),
}


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and (path.name, name) not in KEPT_IMPORTS
    ]


def test_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "chgeom").glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert not unused, unused


def test_no_argmax_in_the_library():
    """argmax picks between near-equal moduli by roundoff; core._rephase is
    the one anchor rule, and it is tie-stable."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "chgeom").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "argmax" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert not calls, calls
