"""In-memory span recorder that wraps seeco's public functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
wrapped function with a timing shim in every ``seeco`` module namespace
that binds it (``seeco.ga.make_evaluator`` and
``seeco.evaluator.make_evaluator`` are the same object, so both get the
shim), and :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, attrs]`` where ``parent`` is
the index of the enclosing span in :attr:`Tracer.spans` (-1 for a root).
The decoder closure that ``make_evaluator`` returns is wrapped too, one
``evaluator.decode`` span per scored chromosome; a chromosome the same
evaluator already scored gets ``attrs = {"repeat": True}``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_REPEAT = {"repeat": True}


def _strategy_span(strategy, *args, **kwargs) -> str:
    return f"baselines.solve.{strategy.kind.value}"


# (module, attribute, span name or name function, post-processor method name)
TARGETS = [
    ("seeco.workflow", "random_workflow", "workflow.random_workflow", None),
    ("seeco.workflow", "compute_deadline", "workflow.compute_deadline", None),
    ("seeco.workflow", "greedy_witness", "workflow.greedy_witness", None),
    ("seeco.workflow", "save_workflow", "workflow.save_workflow", None),
    ("seeco.workflow", "load_workflow", "workflow.load_workflow", None),
    ("seeco.evaluator", "make_evaluator", "evaluator.make_evaluator", "_trace_engine"),
    ("seeco.evaluator", "evaluate", "evaluator.evaluate", None),
    ("seeco.ga", "run", "ga.run", "_note_ga_run"),
    ("seeco.ga", "init_chromosome", "ga.init_chromosome", None),
    ("seeco.ga", "crossover_order", "ga.crossover_order", None),
    ("seeco.ga", "crossover_vectors", "ga.crossover_vectors", None),
    ("seeco.ga", "mutate_order", "ga.mutate_order", None),
    ("seeco.ga", "mutate_vectors", "ga.mutate_vectors", None),
    ("seeco.ga", "GeneConstraints.repair", "ga.repair", None),
    ("seeco.baselines", "solve_detailed", _strategy_span, None),
    ("seeco.cli", "main", "cli.main", None),
    ("seeco.cli", "build_sweep_jobs", "cli.build_sweep_jobs", None),
    ("seeco.cli", "run_sweep", "cli.run_sweep", None),
    ("seeco.cli", "run_job", "cli.run_job", None),
]


class Tracer:
    """Collects spans while enabled; wrapped calls pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def _wrap(self, fn, name, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            return post(rec, result) if post else result

        return traced

    def _trace_engine(self, rec, engine):
        seen = set()
        tracer = self

        def traced_engine(c):
            if not tracer.enabled:
                return engine(c)
            span = tracer.open("evaluator.decode")
            try:
                return engine(c)
            finally:
                tracer.close(span)
                if c in seen:
                    span[4] = _REPEAT
                else:
                    seen.add(c)

        return traced_engine

    def _note_ga_run(self, rec, ga_run):
        p = ga_run.params
        rec[4] = {"evaluations": ga_run.evaluations, "pop": p.pop_size,
                  "iterations": p.iterations, "elitism": p.elitism}
        return ga_run

    def install(self) -> None:
        """Swap every target for its shim in all loaded ``seeco`` modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "seeco" or name.startswith("seeco."))]
        for module_name, attr, name, post in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            shim = self._wrap(original, name, getattr(self, post) if post else None)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, shim)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def write(self, path: Path) -> None:
        """A header line naming the columns, then one JSON array per span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('["id", "name", "start_us", "end_us", "parent", "attrs"]\n')
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps([i, name, (start - t0) / 1e3, (end - t0) / 1e3,
                                     parent, attrs]) + "\n")


class SpanIndex:
    """Per-span duration, self time and root, for turning spans into metrics."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.dur = [(s[2] - s[1]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        self.root = list(range(len(spans)))
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                child[parent] += self.dur[i]
                self.root[i] = self.root[parent]
            self._by_name.setdefault(s[0], []).append(i)
        self.self_s = [d - c for d, c in zip(self.dur, child)]

    def select(self, name: str, roots: tuple[str, ...]) -> list[int]:
        """Indices of spans called ``name`` whose root span is one of ``roots``."""
        spans, root = self.spans, self.root
        return [i for i in self._by_name.get(name, ()) if spans[root[i]][0] in roots]
