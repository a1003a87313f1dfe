"""List the library lines that a Tier-1 run never executes.

    python tools/unrun_lines.py [pytest arguments]

Runs pytest in this process under a `sys.settrace` line tracer (by default
the Tier-1 suite, `-q --continue-on-collection-errors tests`) and then
prints `file:line: source` for every executable line of `src/chgeom` that
no test ran.  A line is executable when the compiler emits code for it;
docstrings, statements marked `# pragma: no cover` (on a block's header:
the whole block) and the body of an `if __name__ == "__main__":` guard are
not counted.  The exit status is pytest's: the list is a report, not a
coverage gate.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chgeom"
PRAGMA = "# pragma: no cover"


def _code_lines(code) -> set[int]:
    """Lines that `code` and the code objects nested in it emit code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_main_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def executable_lines(path) -> dict[int, str]:
    """The counted lines of the source file at `path`, mapped to their text."""
    source = Path(path).read_text()
    text = source.splitlines()
    tree = ast.parse(source)
    excluded = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                excluded.update(range(first.lineno, first.end_lineno + 1))
        if not isinstance(node, ast.stmt):
            continue
        decorators = getattr(node, "decorator_list", [])
        start = min([node.lineno] + [d.lineno for d in decorators])
        header = node.end_lineno
        if isinstance(body, list) and body:
            header = body[0].lineno - 1
        if any(PRAGMA in text[i - 1] for i in range(start, header + 1)):
            excluded.update(range(start, node.end_lineno + 1))
        if _is_main_guard(node):
            excluded.update(range(node.body[0].lineno, node.end_lineno + 1))
    lines = _code_lines(compile(source, str(path), "exec")) - excluded
    return {n: text[n - 1].strip() for n in sorted(lines) if 0 < n <= len(text)}


def trace(files, fn) -> set[tuple[str, int]]:
    """Run fn() and return the (resolved file, line) pairs it ran in
    `files`.  The trace functions set before the call are restored after it.
    """
    wanted = {str(Path(f).resolve()) for f in files}
    resolved: dict[str, str | None] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((resolved[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            real = os.path.realpath(name)
            resolved[name] = real if real in wanted else None
        if resolved[name] is None:
            return None
        hits.add((resolved[name], frame.f_lineno))
        return local

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return hits


def unrun(files, hits) -> list[tuple[str, int, str]]:
    """(file, line, source) of each counted line of `files` not in `hits`."""
    out = []
    for f in files:
        f = str(Path(f).resolve())
        for line, src in executable_lines(f).items():
            if (f, line) not in hits:
                out.append((f, line, src))
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    args = argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    files = sorted(PACKAGE.glob("*.py"))
    status = []
    hits = trace(files, lambda: status.append(pytest.main(args)))
    missed = unrun(files, hits)
    for f, line, src in missed:
        print(f"{os.path.relpath(f, ROOT)}:{line}: {src}")
    total = sum(len(executable_lines(f)) for f in files)
    print(f"{len(missed)} of {total} library lines never ran", file=sys.stderr)
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
