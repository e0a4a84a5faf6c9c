"""Outside-in tracing of rankcomp's public entry points.

The traced run replaces selected public functions with timing wrappers.
A function is replaced under every module attribute that refers to it,
so ``from .logreg import train_lreg`` in :mod:`rankcomp.prediction` is
wrapped together with ``rankcomp.logreg.train_lreg``.  Nothing inside
the package changes; calls the package makes to unwrapped helpers count
as self time of the wrapped caller.

Each call opens a span on a stack.  A span's duration excludes time the
tracer spends on its own probes (see :meth:`Tracer.paused`), and a
layer's self time is the span duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer (a rankcomp module) -> its wrapped public entry points; a class
# attribute is written "Class.method".  Missing attributes are skipped, so
# the benchmark keeps running on a package that has renamed or removed one.
ENTRY_POINTS = {
    "competition_log": (
        "synthesize",
        "filter_for_prediction",
        "report_feature_trajectories",
        "report_ranking_agreement",
        "report_win_spread",
    ),
    "text_features": (
        "tokenize",
        "CorpusStats.from_documents",
        "compute_features",
        "tfidf_vector",
        "cosine",
    ),
    "prediction": (
        "build_instances",
        "normalize_per_query",
        "cross_validate",
        "baselines",
        "model_predictions",
        "evaluate",
    ),
    "logreg": ("train_lreg",),
    "kernels": ("grid_screen", "logreg_fit"),
    "grid_oracle": ("grid_nash_search",),
    "equilibria": (
        "exists_equilibrium",
        "candidate_profile",
        "construct_equilibrium",
        "verify_nash",
    ),
    "best_response": ("best_response_value", "best_response_witness"),
    "dynamics": ("run_dynamics",),
    "game": ("utilities",),
}
LAYERS = tuple(ENTRY_POINTS)


class _Span:
    __slots__ = ("name", "layer", "start", "paused_at_start", "child_s", "args", "kwargs")

    def __init__(self, name, layer, start, paused_at_start, args, kwargs):
        self.name = name
        self.layer = layer
        self.start = start
        self.paused_at_start = paused_at_start
        self.child_s = 0.0
        self.args = args
        self.kwargs = kwargs


class Tracer:
    """Span stack plus per-function and per-layer accumulators.

    ``hooks`` maps a span name to a callable that receives (tracer, span,
    duration, result) after the call has been timed.  Hooks run inside
    :meth:`paused`, so their work is not charged to any open span.
    """

    def __init__(self):
        self.stack: list[_Span] = []
        self.calls = defaultdict(int)  # "module.function" -> calls
        self.total_s = defaultdict(float)  # "module.function" -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.durations = defaultdict(list)  # "module.function" -> per-call seconds
        self.hooks = {}
        self.enabled = True
        self._paused_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- probes -----------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Exclude the enclosed work from every open span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def suspended(self):
        """Run the enclosed calls untraced and uncharged, as output checks are."""
        self.enabled = False
        try:
            with self.paused():
                yield
        finally:
            self.enabled = True

    def inside(self, name: str) -> bool:
        return any(span.name == name for span in self.stack)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = _Span(name, layer, 0.0, tracer._paused_s, args, kwargs)
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - span.start - (tracer._paused_s - span.paused_at_start)
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.durations[name].append(duration)
                tracer.self_s[layer] += duration - span.child_s
                if tracer.stack:
                    tracer.stack[-1].child_s += duration
            hook = tracer.hooks.get(name)
            if hook is not None:
                with tracer.paused():
                    hook(tracer, span, duration, result)
            return result

        return wrapper

    def install(self, package: str = "rankcomp"):
        """Wrap every entry point under every module attribute bound to it."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        others = [
            mod
            for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for layer, attrs in ENTRY_POINTS.items():
            module = modules[layer]
            for attr in attrs:
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if not isinstance(raw, classmethod):
                        continue
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer))
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, name, layer)
                for mod in others:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
