"""The bench's per-layer spans wrap program functions by name; a rename in the
program would silently drop a span, so every wrapped name must still exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable_on_its_owner():
    patches = _tracing().PATCHES
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in patches
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
