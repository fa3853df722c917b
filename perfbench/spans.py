"""Span tracing of the sbcn package from outside it, and the per-layer
metrics derived from the spans.

``Tracer.installed`` swaps selected public functions of ``sbcn`` for
wrappers that record one span per call.  A function is replaced in every
``sbcn`` module that imported it, so calls through any import path are
seen; the originals come back when the block exits.  Spans stay in memory
until ``export`` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.first_learn = None  # (dataset, dag) of the first learn_sbcn call
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, s.attrs, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the functions in ``targets()`` for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items()) if k == "sbcn" or k.startswith("sbcn.")]
        patches = []
        try:
            for name, owner, attr, observe in targets():
                raw = owner.__dict__[attr]
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, observe))
                    else:
                        new = self._wrap(name, raw, observe)
                    patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                new = self._wrap(name, raw, observe)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            patches.append((module, key, raw))
                            setattr(module, key, new)
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)

    def export(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
                    "start": s.start - self._t0, "end": s.end - self._t0, "attrs": s.attrs,
                }) + "\n")


def _text_bytes(text: str) -> int:
    return len(text.encode())


def _capture_learn(tracer, attrs, args, result):
    if tracer.first_learn is None:
        tracer.first_learn = (args[0], result.dag)


def targets():
    """(span name, owner, attribute, observer) for every traced function.

    An observer records counts from a call's arguments and result after its
    span has closed, so counting is not timed.
    """
    from sbcn import bootstrap, classifier, datagen, learn, model, sampling

    def put(key, fn):
        def observe(tracer, attrs, args, result):
            attrs[key] = fn(args, result)
        return observe

    def fitted(tracer, attrs, args, result):
        attrs["arcs"] = len(result.dag.edges)
        attrs["cpt_entries"] = sum(len(c.table) for c in result.cpts)

    def pruned(tracer, attrs, args, result):
        attrs["kept"] = len(result.dag.edges)
        attrs["learned"] = len(args[0].dag.edges)

    return [
        ("learn.learn_sbcn", learn, "learn_sbcn", _capture_learn),
        ("learn.prima_facie_edges", learn, "prima_facie_edges",
         put("candidates", lambda a, r: len(r.edges))),
        ("learn.hill_climb", learn, "hill_climb", put("arcs", lambda a, r: len(r.edges))),
        ("learn.fit_cpts", learn, "fit_cpts", fitted),
        ("bootstrap.resample", bootstrap, "resample", None),
        ("bootstrap.edge_confidence", bootstrap, "edge_confidence", None),
        ("bootstrap.prune", bootstrap, "prune", pruned),
        ("datagen.sparse_random_instance", datagen, "sparse_random_instance", None),
        ("sampling.ancestral_sample", sampling, "ancestral_sample",
         put("rows", lambda a, r: int(r.shape[0]))),
        ("sampling.stress_sample", sampling, "stress_sample", None),
        ("classifier.label_scenarios", classifier, "label_scenarios", None),
        ("classifier.learn_tree", classifier, "learn_tree", None),
        ("classifier.risky_paths", classifier, "risky_paths", put("paths", lambda a, r: len(r))),
        ("model.from_csv", model.BinaryDataset, "from_csv",
         put("bytes", lambda a, r: _text_bytes(a[1]))),
        ("model.to_json", model.SbcnModel, "to_json", put("bytes", lambda a, r: _text_bytes(r))),
        ("model.from_json", model.SbcnModel, "from_json",
         put("bytes", lambda a, r: _text_bytes(a[1]))),
        ("model.scenarios_to_csv", model, "scenarios_to_csv",
         put("bytes", lambda a, r: _text_bytes(r))),
    ]


# Spans the benchmark opens around its own calls into the package; every
# other span comes from a wrapped library function.
ENTRY_SPANS = ("op", "cli.infer", "cli.stress", "evaluation.run_sweep")


def layer_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced operation rooted at ``root``.

    A layer absent from the operation reads 0: no calls, no time.
    """
    inside = [s for s in spans if s.run == root.run and s is not root]
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in inside:
        by_name.setdefault(s.name, []).append(s)
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def durations(name):
        return [s.duration for s in by_name.get(name, [])]

    def p50_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def p90_ms(name):
        d = durations(name)
        if len(d) < 2:
            return 1e3 * d[0] if d else 0.0
        return 1e3 * statistics.quantiles(d, n=10)[-1]

    def attr_median(name, key):
        values = [s.attrs[key] for s in by_name.get(name, [])]
        return float(statistics.median(values)) if values else 0.0

    def attr_sum(name, key):
        return float(sum(s.attrs[key] for s in by_name.get(name, [])))

    def self_s(name):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in by_name.get(name, []))

    def total_s(name):
        return sum(durations(name))

    kept = attr_sum("bootstrap.prune", "kept")
    learned = attr_sum("bootstrap.prune", "learned")
    by_id = {s.id: s for s in spans}
    covered = sum(
        s.duration for s in inside
        if s.name not in ENTRY_SPANS and by_id[s.parent].name in ENTRY_SPANS
    )
    out = {
        "learn.prima_facie_edges.ms": p50_ms("learn.prima_facie_edges"),
        "learn.candidates": attr_median("learn.prima_facie_edges", "candidates"),
        "learn.hill_climb.calls": float(len(durations("learn.hill_climb"))),
        "learn.hill_climb.ms_p50": p50_ms("learn.hill_climb"),
        "learn.hill_climb.ms_p90": p90_ms("learn.hill_climb"),
        "learn.fit_cpts.ms": p50_ms("learn.fit_cpts"),
        "learn.arcs": attr_median("learn.hill_climb", "arcs"),
        "learn.cpt_entries": attr_median("learn.fit_cpts", "cpt_entries"),
        "bootstrap.resample.ms": p50_ms("bootstrap.resample"),
        "bootstrap.edge_confidence.self_s": self_s("bootstrap.edge_confidence"),
        "bootstrap.arcs_kept": kept,
        "bootstrap.arcs_learned": learned,
        "bootstrap.arcs_kept_ratio": kept / learned if learned else 0.0,
        "evaluation.run_sweep.self_s": self_s("evaluation.run_sweep"),
        "datagen.sparse_random_instance.ms": p50_ms("datagen.sparse_random_instance"),
        "sampling.ancestral_sample.ms": p50_ms("sampling.ancestral_sample"),
        "sampling.ancestral_sample.rows": attr_sum("sampling.ancestral_sample", "rows"),
        "sampling.stress_sample.ms": p50_ms("sampling.stress_sample"),
        "classifier.label_scenarios.ms": p50_ms("classifier.label_scenarios"),
        "classifier.learn_tree.ms": p50_ms("classifier.learn_tree"),
        "classifier.risky_paths": attr_median("classifier.risky_paths", "paths"),
        "cli.infer_s": total_s("cli.infer"),
        "cli.stress_s": total_s("cli.stress"),
        "trace.coverage": covered / root.duration,
    }
    for io in ("from_csv", "to_json", "from_json", "scenarios_to_csv"):
        out[f"model.{io}.ms"] = p50_ms(f"model.{io}")
        out[f"model.{io}.bytes"] = attr_median(f"model.{io}", "bytes")
    return out
