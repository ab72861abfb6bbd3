"""The benchmark's traced run resolves its function names on the package.

``perfbench/spec.py`` names, per layer, the public functions the traced
run wraps by name; a deletion or rename in ``mmvc`` that drops one would
break every traced run. The spec is loaded by path, as the benchmark
loads it, without importing the rest of ``perfbench``.
"""
import importlib
import importlib.util
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _load_spec():
    loader = importlib.util.spec_from_file_location("perfbench_spec", SPEC_PATH)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_layer():
    spec = _load_spec()
    missing = [
        f"mmvc.{layer}.{name}"
        for layer, names in spec.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mmvc.{layer}"), name, None))
    ]
    assert not missing, "perfbench/spec.py traces names mmvc lacks: " + ", ".join(missing)
