"""The benchmark's tracer must find every function it wraps.

``benchmarks/spans.py`` names its targets by module and attribute, so a
rename in the package would otherwise surface only when the benchmark runs.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_span_targets_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    targets = spans.TARGETS
    assert targets
    for name, module_name, attr, owner in targets:
        module = importlib.import_module(module_name)
        holder = vars(getattr(module, owner)) if owner else vars(module)
        assert callable(holder.get(attr)), f"{name}: {module_name}.{owner or ''}{attr}"
