"""The benchmark's traced run wraps layer entry points by name; every name
in ``perfbench/run.py``'s ``SPANS`` must still resolve on the package."""

import importlib
import sys
import types
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    """Execute run.py from its source (no bytecode written) as a module."""
    module = types.ModuleType("perfbench_run")
    module.__file__ = str(RUN)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    try:
        exec(compile(RUN.read_text(), str(RUN), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


SPANS = load_run().SPANS


@pytest.mark.parametrize("module, owner, attr, name", SPANS, ids=[s[3] for s in SPANS])
def test_span_resolves(module, owner, attr, name):
    target = importlib.import_module(f"reflekt.{module}")
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr)), name
