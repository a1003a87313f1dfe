"""Shared fixtures."""

import sys
from collections import Counter

import pytest

import chgeom  # noqa: F401  (loads every module whose bindings are counted)


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to chgeom functions, by name.

    ``count_calls(core.form, core.gram)`` rebinds every chgeom module
    attribute that holds one of the functions, since a module that did
    ``from .core import form`` keeps its own reference, and returns the
    Counter the wrappers fill.  ``where``, given a call's arguments, picks
    the calls that are counted.
    """
    counts = Counter()

    def counting(fn, where):
        def wrapper(*args, **kwargs):
            if where is None or where(*args, **kwargs):
                counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(*fns, where=None):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "chgeom"]
        for fn in fns:
            wrapped = counting(fn, where)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, key, wrapped)
        return counts

    return install
