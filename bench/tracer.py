"""In-memory span tracer around the public layer functions of qwtopo.

`Tracer.install()` replaces each traced function with a wrapper in its
defining module *and* in every qwtopo module that imported it by name
(`disorder` and `apparatus` import `reflection_amplitudes`, `edges` and
`apparatus` import `evolve`, `cli` imports most runners), so no call
escapes.  Each call records one span: layer, name, start, end, parent,
whether it raised, and the counts its counter derives from the call.
`uninstall()` restores every original binding.  Spans stay in memory
until the benchmark writes them out.

Worker processes of a `WorkerPool` inherit the wrappers but their spans
live and die in the workers, so a pooled run shows the parent's spans,
the map included, and none of the tasks' spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "config", "scattering", "disorder", "walk", "edges",
          "apparatus", "dataio", "svgplot", "parallel")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def nominal_site_steps(t: int) -> int:
    """Kernel work of one t-step reflection run: t steps over the 2t+5
    site window that `qwtopo verify` quotes."""
    return t * (2 * t + 5)


def _count_kernel(args, kwargs, result):
    return {"site_steps": nominal_site_steps(_arg(args, kwargs, 1, "t"))}


def _count_walk(args, kwargs, trajectory):
    return {"site_steps": sum(state.sites for state in trajectory[1:])}


def _count_valid(args, kwargs, pair):
    return {"valid": int(math.isfinite(pair.q0) and math.isfinite(pair.qpi))}


def _count_table(args, kwargs, path):
    rows = _arg(args, kwargs, 2, "rows")
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _count_svg(args, kwargs, text):
    return {"bytes": len(text.encode("utf-8"))}


def _count_map(args, kwargs, results):
    return {"workers": args[0].threads, "tasks": len(results)}


#: (layer, module, attribute, counter).  A dotted attribute is a method.
TARGETS = (
    ("cli", "qwtopo.cli", "entrypoint", None),
    ("config", "qwtopo.config", "load", None),
    ("config", "qwtopo.config", "validate", None),
    ("config", "qwtopo.config", "config_warnings", None),
    ("scattering", "qwtopo.scattering", "reflection_amplitudes", _count_kernel),
    ("scattering", "qwtopo.scattering", "invariants", None),
    ("scattering", "qwtopo.scattering", "scan_line", None),
    ("scattering", "qwtopo.scattering", "phase_diagram", None),
    ("disorder", "qwtopo.disorder", "sample_pattern", None),
    ("disorder", "qwtopo.disorder", "ensemble_r0", None),
    ("disorder", "qwtopo.disorder", "disorder_curve", None),
    ("disorder", "qwtopo.disorder", "transition_locator", None),
    ("walk", "qwtopo.walk", "evolve", _count_walk),
    ("edges", "qwtopo.edges", "run_interface", None),
    ("edges", "qwtopo.edges", "localization_vs_disorder", None),
    ("apparatus", "qwtopo.apparatus", "emulate_measurement", None),
    ("apparatus", "qwtopo.apparatus", "reconstruct_series", None),
    ("apparatus", "qwtopo.apparatus", "measured_invariants", _count_valid),
    ("apparatus", "qwtopo.apparatus", "monte_carlo_errorbars", None),
    ("dataio", "qwtopo.dataio", "write_table", _count_table),
    ("dataio", "qwtopo.dataio", "sha256_file", None),
    ("svgplot", "qwtopo.svgplot", "line_plot", _count_svg),
    ("svgplot", "qwtopo.svgplot", "errorbar_plot", _count_svg),
    ("svgplot", "qwtopo.svgplot", "heatmap", _count_svg),
    ("parallel", "qwtopo.parallel", "WorkerPool.map", _count_map),
    ("parallel", "qwtopo.parallel", "WorkerPool.__exit__", None),
)


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.duration - self.child_s


def _layer_of(fn) -> str:
    layer = getattr(fn, "__module__", "").rpartition(".")[2]
    return layer if layer in LAYERS else "cli"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer, name, fn, counter=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else -1, layer, name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target where it is defined and wherever it was
        imported by name into another qwtopo module."""
        for layer, module_name, attr, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, f"{layer}.{attr}", original, counter)
            if attr == "map":
                wrapper = self._wrap_map(wrapper)
            self._set(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for name, mod in list(sys.modules.items()):
                if mod is owner or not (name == "qwtopo" or name.startswith("qwtopo.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _wrap_map(self, traced_map):
        """Serial maps run their tasks inline: give each task a span in
        the task function's own layer, so its glue code is not charged to
        `parallel`.  Pooled maps pickle the task function, so it stays
        unwrapped there."""
        def map_with_task_spans(pool, fn, tasks):
            tasks = list(tasks)
            if pool.threads == 1 or len(tasks) <= 1:
                fn = self.wrap(_layer_of(fn), f"{_layer_of(fn)}.task", fn)
            return traced_map(pool, fn, tasks)

        return map_with_task_spans

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
