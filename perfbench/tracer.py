"""In-memory spans around the public calls into each ``carpnet`` module.

Nothing inside ``src/`` is changed: :meth:`Tracer.install` replaces each
traced function (and the few traced methods) with a wrapper in every
``carpnet`` module namespace that holds a reference to it, and
:meth:`Tracer.uninstall` puts the originals back. A span is
``(name, start_ns, end_ns, parent, run, count)``: ``parent`` is the index of
the enclosing span or -1, ``run`` is the id shared by all spans of one CLI
call, and ``count`` is a work counter read from the call's result (solver
iterations, panel cells) or -1. Spans are only recorded while ``enabled`` is
true and assume a single calling thread.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

LAYERS = ("domain", "dynamics", "montecarlo", "meanfield", "influence", "mle", "synth", "cli", "utils")

# (span name, module, attribute, work counter read from the result)
FUNCTIONS = (
    ("domain.load_network", "carpnet.domain", "load_network", None),
    ("domain.load_panel", "carpnet.domain", "load_panel", lambda panel: panel.states.size),
    ("domain.save_network", "carpnet.domain", "save_network", None),
    ("domain.save_panel", "carpnet.domain", "save_panel", None),
    ("dynamics.step", "carpnet.dynamics", "step", None),
    ("montecarlo.simulate", "carpnet.montecarlo", "simulate", None),
    ("montecarlo.temporal_influence", "carpnet.montecarlo", "temporal_influence", None),
    ("meanfield.fixed_point", "carpnet.meanfield", "fixed_point", lambda steady: steady.iterations),
    ("meanfield.transition_fractions", "carpnet.meanfield", "transition_fractions", None),
    ("meanfield.stationarity_residual", "carpnet.meanfield", "stationarity_residual", None),
    ("meanfield.ext_int_ratio", "carpnet.meanfield", "ext_int_ratio", None),
    ("influence.influence_matrix", "carpnet.influence", "influence_matrix", None),
    ("influence.category_influence", "carpnet.influence", "category_influence", None),
    ("influence.knockout", "carpnet.influence", "knockout", None),
    ("mle.fit", "carpnet.mle", "fit", lambda result: result.iterations),
    ("synth.generate_synthetic", "carpnet.synth", "generate_synthetic", None),
    ("cli.run", "carpnet.cli", "run", None),
    ("utils.sha256_file", "carpnet.utils", "sha256_file", None),
    ("utils.atomic_write_text", "carpnet.utils", "atomic_write_text", None),
)

# (span name, module, class, attribute); cached properties are rewrapped as such.
METHODS = (
    ("domain.adjacency_matrix", "carpnet.domain", "RiskNetwork", "adjacency_matrix"),
    ("domain.with_normalized_likelihood", "carpnet.domain", "RiskNetwork", "with_normalized_likelihood"),
    ("mle.panel_stats", "carpnet.mle", "PanelStats", "__init__"),
    ("mle.log_likelihood", "carpnet.mle", "PanelStats", "log_likelihood"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.run = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            count = -1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = int(counter(result))
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run, count)

        return traced

    def wrap_map(self, fn):
        """``ordered_map`` as a utils span whose tasks count to the calling layer.

        The tasks are closures of the caller (a fit start, a block of runs, a
        knockout row), so their own time belongs to the caller's module; the
        pool's bookkeeping stays with utils.
        """
        traced = self.wrap("utils.ordered_map", fn)

        @functools.wraps(fn)
        def mapped(task, items, threads=1):
            if not self.enabled:
                return fn(task, items, threads)
            caller = layer_of(self._stack[-1][1]) if self._stack else "utils"
            return traced(self.wrap(f"{caller}.task", task), items, threads)

        return mapped

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "carpnet" or n.startswith("carpnet.")]
        for name, module, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._replace(modules, original, self.wrap(name, original, counter))
        ordered_map = sys.modules["carpnet.utils"].ordered_map
        self._replace(modules, ordered_map, self.wrap_map(ordered_map))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                wrapper = functools.cached_property(self.wrap(name, original.func))
                wrapper.__set_name__(cls, attr)
            else:
                wrapper = self.wrap(name, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def _replace(self, modules, original, wrapper) -> None:
        """Point every module-level reference to ``original`` at ``wrapper``."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,run,name,start_ns,end_ns,count\n")
            for index, (name, start, end, parent, run, count) in enumerate(self.spans):
                handle.write(f"{index},{parent},{run},{name},{start},{end},{count}\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
