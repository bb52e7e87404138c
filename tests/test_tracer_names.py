"""The benchmark tracer wraps ``qlrc`` functions by name: every name it lists
must exist, so that removing one fails here and not only in the benchmark."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace() -> dict:
    # executed from its source text, so nothing is written next to the file
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_tracer_names_exist_in_qlrc():
    tracer = _tracer_namespace()
    for layer, names in tracer["WRAPPED"].items():
        module = importlib.import_module(f"qlrc.{layer}")
        assert [n for n in names if not callable(getattr(module, n, None))] == [], layer
    for layer, names in tracer["CACHES"].items():
        module = importlib.import_module(f"qlrc.{layer}")
        assert [n for n in names if not hasattr(getattr(module, n, None), "cache_info")] == [], \
            layer


def test_tracer_hooks_exist_in_qlrc():
    """``SpanTracer.install`` also wraps the codeword generators, and
    ``GfCounter`` replaces the ``Field`` arithmetic methods."""
    tracer = _tracer_namespace()
    code = importlib.import_module("qlrc.code")
    assert callable(getattr(code, "iter_codeword_blocks", None))
    assert callable(getattr(getattr(code, "LinearCode", None), "codewords", None))
    field = importlib.import_module("qlrc.gf").Field
    assert [m for m in tracer["GF_METHODS"] if not callable(getattr(field, m, None))] == []
