"""The benchmark times the library by wrapping its functions in place; each
wrapped name must still exist, or a deletion in the library breaks it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"benchmark hooks without a target: {missing}"
