"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public functions of each `frugal` module
named in `LAYERS` by rebinding the name in every `frugal` module that
holds it (so `solve`, bound in both `cut` and `setsystems`, is traced
wherever it is called), and wraps the query methods of the three cover
solvers on their classes. Each call records one span: name, start, end
and the span that was open when it began. Spans stay in compact arrays
until `write()` dumps them at the end of the run.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so the children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = {
    "graph": ("enumerate_st_paths", "reachable"),
    "lp": ("solve",),
    "setsystems": ("tot", "nu"),
    "eigen": ("build_vc_instance", "ev_run"),
    "flow": ("min_cost_flow", "prune_to_support", "decompose_paths",
             "conflict_graph", "fm_run"),
    "cut": ("min_double_cut", "double_cut_lp", "is_double_cut",
            "prune_redundant", "contract_to_h", "path_edge_ids", "cm_run"),
    "oracle": ("check_truthfulness",),
}

# Cover-solver classes whose three query methods form one layer each.
COVER_SOLVERS = {
    "eigen.cover_query": ("eigen", "BruteForceCoverSolver"),
    "flow.cover_query": ("flow", "FlowCoverSolver"),
    "cut.cover_query": ("cut", "CutCoverSolver"),
}
COVER_QUERIES = ("min_cover", "min_cover_containing", "min_cover_excluding")

MECHANISMS = ("eigen.ev_run", "flow.fm_run", "cut.cm_run")


def _count_rows(counters, args, kwargs, result):
    counters["lp.solve.rows"] += len(args[0].rows)


def _count_paths(counters, args, kwargs, result):
    counters["graph.enumerate_st_paths.paths"] += len(result)


def _count_trials(counters, args, kwargs, result):
    requested = kwargs.get("trials", args[3] if len(args) > 3 else 20)
    counters["oracle.check_truthfulness.trials"] += result.trials
    counters["oracle.check_truthfulness.skipped"] += requested - result.trials


COUNTERS = {
    "lp.solve": _count_rows,
    "graph.enumerate_st_paths": _count_paths,
    "oracle.check_truthfulness": _count_trials,
}
COUNTER_METRICS = ("lp.solve.rows", "graph.enumerate_st_paths.paths",
                   "oracle.check_truthfulness.trials",
                   "oracle.check_truthfulness.skipped")


class Tracer:
    """Spans of the wrapped functions, recorded while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def _wrap(self, label: str, fn):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        nid = self._ids[label]
        count = COUNTERS.get(label)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = perf_counter()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import frugal
        modules = [frugal] + [
            importlib.import_module(f"frugal.{info.name}")
            for info in pkgutil.iter_modules(frugal.__path__)]
        for modname, fnames in LAYERS.items():
            owner = importlib.import_module(f"frugal.{modname}")
            for fname in fnames:
                original = getattr(owner, fname)
                traced = self._wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
        for label, (modname, cls_name) in COVER_SOLVERS.items():
            cls = getattr(importlib.import_module(f"frugal.{modname}"), cls_name)
            for meth in COVER_QUERIES:
                setattr(cls, meth, self._wrap(label, getattr(cls, meth)))

    def layer_totals(self) -> dict:
        """`<layer>.calls`, `<layer>.self_ms` and the counters, as one
        flat dict of metric name -> value."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i in range(n):
            label = self.names[self.name[i]]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - child[i]
        out = {name: self.counters[name] for name in COUNTER_METRICS}
        for label in self.names:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_ms"] = self_s[label] * 1e3
        ids = {label: i for i, label in enumerate(self.names)}
        mech = {ids[m] for m in MECHANISMS}
        replay = ids["oracle.check_truthfulness"]
        in_replay = sum(1 for i in range(n) if self.name[i] in mech
                        and self.parent[i] >= 0
                        and self.name[self.parent[i]] == replay)
        trials = self.counters["oracle.check_truthfulness.trials"]
        out["oracle.mechanism_calls_per_trial"] = (in_replay / trials
                                                   if trials else 0.0)
        return out

    def write(self, path, t0: float) -> None:
        """Dump every span, times in seconds since `t0`."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name),
                "parent": list(self.parent),
                "start": [t - t0 for t in self.start],
                "end": [t - t0 for t in self.end],
            }, fh)
