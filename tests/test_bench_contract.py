"""The benchmark's programs resolve every mmvc name they use.

``perfbench/spec.py`` names, per layer, the public functions the traced
run wraps by name, and the benchmark's other programs import and call
mmvc names directly; a deletion or rename in ``mmvc`` that drops one
would break every benchmark run. The spec is loaded by path, as the
benchmark loads it, and the other programs are parsed, not imported.
"""
import ast
import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPEC_PATH = PERFBENCH / "spec.py"
# selftest.py checks the benchmark itself; the benchmark command never runs it.
BENCH_PROGRAMS = sorted(p for p in PERFBENCH.glob("*.py") if p.name != "selftest.py")
_MISSING = object()


def _load_spec():
    loader = importlib.util.spec_from_file_location("perfbench_spec", SPEC_PATH)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    """The module or attribute a dotted mmvc name stands for, or _MISSING."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        pass
    head, _, name = dotted.rpartition(".")
    try:
        return getattr(importlib.import_module(head), name)
    except (ImportError, AttributeError):
        return _MISSING


def _mmvc_references(tree: ast.AST) -> list[str]:
    """Dotted mmvc names a program uses: each name it imports from mmvc,
    and each attribute it reads off a name bound to an mmvc module."""
    bound = {}  # local name -> dotted mmvc name
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mmvc":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "mmvc"
                    refs.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "mmvc":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    refs.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and isinstance(_resolve(bound[node.value.id]), types.ModuleType)
        ):
            refs.append(f"{bound[node.value.id]}.{node.attr}")
    return refs


def test_every_traced_name_is_a_function_of_its_layer():
    spec = _load_spec()
    missing = [
        f"mmvc.{layer}.{name}"
        for layer, names in spec.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"mmvc.{layer}"), name, None))
    ]
    assert not missing, "perfbench/spec.py traces names mmvc lacks: " + ", ".join(missing)


def test_every_mmvc_name_the_benchmark_uses_resolves():
    refs = {
        (path.name, ref)
        for path in BENCH_PROGRAMS
        for ref in _mmvc_references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert refs, "found no mmvc reference in perfbench/"
    missing = sorted(f"{name}: {ref}" for name, ref in refs if _resolve(ref) is _MISSING)
    assert not missing, "perfbench uses names mmvc lacks: " + ", ".join(missing)
