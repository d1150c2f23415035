"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces levybridge's public functions (and a few methods)
with wrappers that record a span per call: layer name, start, end, parent
span and the request (benchmark operation) it belongs to. A layer's self
time is its span's duration minus the time its child spans cover. Counts are
taken at the same boundaries. A wrapped name that no longer exists is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# layer name -> (module, attribute, {counter: how}); every layer also gets
# `self_s`. An attribute "Class.method" wraps a method, "*.method" wraps the
# method on every class of the module that defines it. Counter kinds:
#   calls            one per call
#   ("result_size",) elements in the returned array
#   ("arg_size", p)  elements in argument p
#   ("arg_int", p)   integer value of argument p
#   ("fn_nodes", p)  total size of the node arrays passed to callback p
#   ("fn_calls", p)  calls made to callback p
LAYERS = {
    "config.parse_scenario": ("levybridge.config", "parse_scenario", {}),
    "cli.dumps17": ("levybridge.cli", "dumps17", {}),
    "laws.validate": ("levybridge.laws", "TerminalLaw.__post_init__", {"calls": "calls"}),
    "kernels.log_density": (
        "levybridge.kernels", "*.log_density",
        {"calls": "calls", "values": ("result_size",)},
    ),
    "numerics.composite_quad_batch": (
        "levybridge.numerics", "composite_quad_batch",
        {"calls": "calls", "nodes": ("fn_nodes", "fn")},
    ),
    "numerics.integrate": (
        "levybridge.numerics", "integrate", {"calls": "calls", "evals": ("fn_calls", "fn")},
    ),
    "numerics.find_root_monotone": (
        "levybridge.numerics", "find_root_monotone",
        {"calls": "calls", "evals": ("fn_calls", "fn")},
    ),
    "numerics.inverse_cdf": ("levybridge.numerics", "inverse_cdf", {"calls": "calls"}),
    "core.psi_total_many": ("levybridge.core", "psi_total_many", {"states": ("arg_size", "xis")}),
    "core.posterior_mean_many": (
        "levybridge.core", "posterior_mean_many", {"states": ("arg_size", "xis")},
    ),
    "core.psi_total": ("levybridge.core", "psi_total", {"calls": "calls"}),
    "core.conditional_moment": ("levybridge.core", "conditional_moment", {"calls": "calls"}),
    "core.terminal_posterior": ("levybridge.core", "terminal_posterior", {"calls": "calls"}),
    "bridge.transition_cdf": ("levybridge.bridge", "transition_cdf", {"calls": "calls"}),
    "bridge.sample_step": (
        "levybridge.bridge", "sample_step", {"calls": "calls", "draws": ("result_size",)},
    ),
    "sampler.simulate_paths": (
        "levybridge.sampler", "simulate_paths", {"paths": ("arg_int", "n_paths")},
    ),
    "sampler.generator": ("levybridge.sampler", "RandomStream.generator", {"calls": "calls"}),
    "sampler.draw_terminal": ("levybridge.sampler", "draw_terminal", {"calls": "calls"}),
    "pricing.critical_information": (
        "levybridge.pricing", "critical_information", {"calls": "calls"},
    ),
    "pricing.call_price": ("levybridge.pricing", "call_price", {"calls": "calls"}),
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer can report, in table order."""
    names = []
    for layer, (_, _, counters) in LAYERS.items():
        names += [f"{layer}.{c}" for c in counters] + [f"{layer}.self_s"]
    return names


class Tracer:
    """Spans kept in memory (up to ``max_spans``) plus per-layer aggregates."""

    def __init__(self, max_spans: int = 50_000):
        self.enabled = False
        self.request = None
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, next(self._ids), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (span_id, parent[1] if parent else 0, self.request, name, start, end)
            )
        else:
            self.dropped += 1

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "request", "name", "start", "end")
        body = {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "dropped": self.dropped,
        }
        path.write_text(json.dumps(body))

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer that exists; record the others as absent."""
        modules = {}
        for layer, (mod_name, attr, counters) in LAYERS.items():
            try:
                module = modules.setdefault(mod_name, importlib.import_module(mod_name))
            except ImportError:
                self._mark_absent(layer, counters)
                continue
            targets = _targets(module, attr)
            if not targets:
                self._mark_absent(layer, counters)
                continue
            for owner, name, orig in targets:
                hooks = _hooks(orig, counters)
                if hooks is None:
                    self._mark_absent(layer, counters)
                    break
                wrapper = self._wrap(layer, orig, hooks)
                if isinstance(owner, type):
                    setattr(owner, name, wrapper)
                else:
                    _rebind(orig, wrapper)

    def _mark_absent(self, layer: str, counters: dict) -> None:
        self.absent += [f"{layer}.{c}" for c in counters] + [f"{layer}.self_s"]

    def _wrap(self, layer: str, orig, hooks):
        counts = self.counts
        before, after, needs_args = hooks
        signature = inspect.signature(orig) if needs_args else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                before(bound.arguments, counts, layer)
                args, kwargs = bound.args, bound.kwargs
            frame = self.enter(layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.exit(frame)
            after(result, counts, layer)
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round counts and self times of every present layer metric."""
        out = {}
        for name in metric_names():
            if name in self.absent:
                continue
            layer, counter = name.rsplit(".", 1)
            if counter == "self_s":
                out[name] = self.self_s.get(layer, 0.0) / rounds
            else:
                out[name] = self.counts.get(name, 0) / rounds
        return out


def _targets(module, attr: str) -> list[tuple]:
    """(owner, attribute name, original) triples for one table entry."""
    if "." not in attr:
        orig = getattr(module, attr, None)
        return [(module, attr, orig)] if callable(orig) else []
    cls_name, meth = attr.split(".", 1)
    if cls_name == "*":
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    else:
        cls = getattr(module, cls_name, None)
        classes = [cls] if isinstance(cls, type) else []
    return [(c, meth, c.__dict__[meth]) for c in classes if callable(c.__dict__.get(meth))]


def _rebind(orig, wrapper) -> None:
    """Point every levybridge name bound to ``orig`` at ``wrapper``.

    Modules import each other's functions both as attributes and by name
    (``from .config import parse_scenario``), so every binding is replaced.
    """
    import sys

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "levybridge" or mod_name.startswith("levybridge.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)


def _hooks(orig, counters: dict):
    """(before, after, needs_args) count hooks, or None if a parameter is gone."""
    try:
        params = inspect.signature(orig).parameters
    except (TypeError, ValueError):
        params = {}
    pre, post = [], []
    for counter, how in counters.items():
        key = None
        if how == "calls":
            post.append(lambda result, counts, name, c=counter: _add(counts, name, c, 1))
            continue
        kind = how[0]
        if kind == "result_size":
            post.append(lambda result, counts, name, c=counter: _add(counts, name, c, np.size(result)))
            continue
        key = how[1]
        if key not in params:
            return None
        if kind == "arg_size":
            pre.append(lambda a, counts, name, c=counter, k=key: _add(counts, name, c, np.size(a[k])))
        elif kind == "arg_int":
            pre.append(lambda a, counts, name, c=counter, k=key: _add(counts, name, c, int(a[k])))
        elif kind in ("fn_nodes", "fn_calls"):
            pre.append(functools.partial(_count_callback, counter, key, kind == "fn_nodes"))

    def before(arguments, counts, name):
        for hook in pre:
            hook(arguments, counts, name)

    def after(result, counts, name):
        for hook in post:
            hook(result, counts, name)

    return before, after, bool(pre)


def _add(counts, layer: str, counter: str, n) -> None:
    counts[f"{layer}.{counter}"] += int(n)


def _count_callback(counter, key, by_size, arguments, counts, layer):
    fn = arguments[key]
    metric = f"{layer}.{counter}"

    def counted(*a, **k):
        counts[metric] += int(np.size(a[0])) if by_size else 1
        return fn(*a, **k)

    arguments[key] = counted
