"""The names the benchmark binds in tauq must exist.

``bench/tracing.py`` wraps tauq functions and methods by module attribute,
and ``bench/oracles.py`` imports from the package. The benchmark's own
tests are not part of this suite, so a change that moves one of those names
would otherwise pass here and fail only when the benchmark runs.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import tauq

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_bound_names_exist():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, attr, _ in tracing.FUNCTIONS:
        mod = importlib.import_module(f"tauq.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"tauq.{mod_name}.{attr}"
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"tauq.{mod_name}"), cls_name)
        assert attr in vars(cls), f"tauq.{mod_name}.{cls_name}.{attr}"

    tree = ast.parse((BENCH / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "tauq"
                for alias in node.names]
    assert imported
    assert [n for n in imported if n not in tauq.__all__] == []
