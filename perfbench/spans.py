"""In-memory spans around elmkit's layers, recorded from outside the package.

``instrumented(tracer)`` replaces every public function of the seven
elmkit modules, at every module-global name through which a caller looks
it up (``elmkit.elm.min_norm_lstsq``, ``elmkit.cli.load_feature_csv``,
...), with a wrapper that opens a span named ``<layer>.<function>``.
The originals are put back on exit.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the part of it that its child
spans cover; the self times of all spans of one flow add up to the
duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("data", "elm", "linalg", "mlp", "modelio", "evaluate", "cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder for one thread of calls; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(name, perf_counter(), parent=self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()


# Work counts recorded at a layer boundary, from a call's arguments and result.
COUNTERS = {
    "elm.build_hidden_matrix": lambda args, kwargs, out: {"hidden_cells": out.shape[0] * out.shape[1]},
    "data.load_csv": lambda args, kwargs, out: {"rows_parsed": out.n_samples},
    "modelio.save_model": lambda args, kwargs, out: {"model_bytes": os.path.getsize(args[1])},
}


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts = counter(args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every public elmkit function through a span while inside."""
    modules = [importlib.import_module(f"elmkit.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[obj] = _wrap(tracer, f"{layer}.{name}", obj)
    patched = []
    try:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    patched.append((module, name, obj))
        yield tracer
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced flow (see perfbench/README.md)."""
    total = defaultdict(float)
    calls = Counter()
    counts = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        counts.update(span.counts)
        layer_self[span.name.split(".", 1)[0]] += own
    m = {
        "mlp.train_s": total["mlp.train_mlp"],
        "mlp.gradient_s": total["mlp.mlp_gradient"],
        "mlp.gradient_calls": calls["mlp.mlp_gradient"],
        "mlp.cost_s": total["mlp.mlp_cost"],
        "mlp.cost_calls": calls["mlp.mlp_cost"],
        "mlp.iteration_ms": 1000.0 * _ratio(total["mlp.train_mlp"], calls["mlp.mlp_gradient"]),
        "linalg.solve_s": total["linalg.min_norm_lstsq"],
        "linalg.svd_s": total["linalg.svd"],
        "linalg.solve_calls": calls["linalg.min_norm_lstsq"],
        "linalg.solve_share": _ratio(total["linalg.min_norm_lstsq"], total["elm.train_elm"]),
        "elm.train_s": total["elm.train_elm"],
        "elm.train_calls": calls["elm.train_elm"],
        "elm.hidden_build_s": total["elm.build_hidden_matrix"],
        "elm.hidden_cells": counts["hidden_cells"],
        "elm.predict_s": total["elm.predict"],
        "elm.decode_s": total["elm.decode_scores"],
        "data.load_csv_s": total["data.load_csv"],
        "data.rows_parsed": counts["rows_parsed"],
        "data.split_s": total["data.stratified_split"],
        "data.scale_s": total["data.fit_scaling"] + total["data.scale_features"],
        "modelio.save_s": total["modelio.save_model"],
        "modelio.bytes": counts["model_bytes"],
        "evaluate.fingerprint_s": total["evaluate.dataset_fingerprint"],
        "trace.spans": len(spans),
    }
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
    return m
