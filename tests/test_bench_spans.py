"""The benchmark's tracer wraps library names by `getattr` when it
installs, so every name it lists must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = load_spans()
    for modname, fnames in spans.LAYERS.items():
        module = importlib.import_module(f"frugal.{modname}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"


def test_every_traced_cover_solver_resolves():
    spans = load_spans()
    for label, (modname, cls_name) in spans.COVER_SOLVERS.items():
        cls = getattr(importlib.import_module(f"frugal.{modname}"), cls_name)
        for meth in spans.COVER_QUERIES:
            assert callable(getattr(cls, meth, None)), f"{label} {meth}"
