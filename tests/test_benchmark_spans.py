"""The per-layer metrics of benchmarks/run.py name spans by module path, and a
span that no longer resolves silently reads 0.  Every source in SPAN_METRICS
must still be something benchmarks/spans.py wraps under that name."""

import importlib
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

import run  # noqa: E402
import spans  # noqa: E402


def wrapped_by_spans(path):
    """True when spans.install would record a span called path: a public
    function of a layer module, or a public method or arithmetic operator of
    a class defined there."""
    layer, *rest = path.split(".")
    module = importlib.import_module(f"mfchern.{layer}")
    if len(rest) == 1:
        fn = vars(module).get(rest[0])
        return (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and not rest[0].startswith("_")
        )
    cls_name, attr = rest
    cls = vars(module).get(cls_name)
    if not inspect.isclass(cls) or cls.__module__ != module.__name__:
        return False
    member = vars(cls).get(attr)
    fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
    return inspect.isfunction(fn) and (not attr.startswith("_") or attr in spans.OPERATORS)


def test_span_metric_sources_resolve():
    sources = {source for source in run.SPAN_METRICS.values() if source is not None}
    layers = {source for source in sources if "." not in source}
    assert layers <= set(spans.LAYERS)
    missing = sorted(s for s in sources - layers if not wrapped_by_spans(s))
    assert not missing, f"span names that no longer resolve: {missing}"


def test_counted_spans_include_the_solver_and_reroot():
    sources = set(run.SPAN_METRICS.values())
    for name in (
        "rings.QLinearSystem.solve",
        "rings.QLinearSystem.add_row",
        "mf.invert_matrix",
        "geometry.reroot",
    ):
        assert name in sources
        assert wrapped_by_spans(name)
    assert set(spans.OBSERVERS) <= sources
