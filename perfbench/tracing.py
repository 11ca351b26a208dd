"""Run-time spans and counters around calls into ``causalid``'s public functions.

The benchmark installs these wrappers from its own files; nothing under
``src/`` knows about them. A wrapped function is replaced in every loaded
``causalid`` module that binds it, so direct imports such as
``causalid.identify.find_valid_sequence`` are covered too.

Spans nest along the call stack of the single benchmark thread, so a span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric layer, module, attribute, kind). Kind "span" times every call,
# "count" only counts calls, "probe" counts calls and truthy results.
TARGETS = (
    ("graph.init", "causalid.graph", "MixedGraph.__init__", "span"),
    ("graph.from_dict", "causalid.graph", "MixedGraph.from_dict", "span"),
    ("graph.latent_project", "causalid.graph", "MixedGraph.latent_project", "span"),
    ("graph.descendants", "causalid.graph", "MixedGraph.descendants", "count"),
    ("graph.district_of", "causalid.graph", "MixedGraph.district_of", "count"),
    ("fixing.is_fixable", "causalid.fixing", "is_fixable", "probe"),
    ("fixing.find_valid_sequence", "causalid.fixing", "find_valid_sequence", "span"),
    ("fixing.reachable_closure", "causalid.fixing", "reachable_closure", "span"),
    ("identify.identify", "causalid.identify", "identify", "span"),
    ("identify.decompose", "causalid.identify", "decompose", "span"),
    ("identify.identify_district", "causalid.identify", "identify_district", "span"),
    ("identify.find_hedge", "causalid.identify", "find_hedge", "span"),
    ("identify.hedge_violation", "causalid.identify", "hedge_violation", "span"),
    ("identify.failure_characterizations", "causalid.identify", "failure_characterizations", "span"),
    ("estimand.substitute", "causalid.estimand", "substitute", "span"),
    ("estimand.simplify", "causalid.estimand", "simplify", "span"),
    ("estimand.render_text", "causalid.estimand", "render_text", "span"),
    ("estimand.to_json", "causalid.estimand", "to_json", "span"),
    ("estimand.evaluate", "causalid.estimand", "Evaluator.evaluate", "span"),
    ("tables.marginal", "causalid.tables", "ProbTable.marginal", "span"),
    ("oracle.random_scm", "causalid.oracle", "random_scm", "span"),
    ("oracle.observed_joint", "causalid.oracle", "observed_joint", "span"),
    ("oracle.interventional", "causalid.oracle", "interventional", "span"),
    ("oracle.verify", "causalid.oracle", "verify", "span"),
    ("cli.main", "causalid.cli", "main", "span"),
)

# Spans kept for the span file. Aggregates are exact whatever this cap drops.
MAX_KEPT_SPANS = 200_000


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.op = -1
        self.enabled = True
        self.calls = defaultdict(int)
        self.hits = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []  # (op, span id, parent id, name, start, end)
        self.dropped = 0
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._restore = []

    def start_op(self, op_index: int) -> None:
        self.op = op_index

    def _span(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((self.op, span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1

        return wrapper

    def _count(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not self.enabled:
                return out
            self.calls[name] += 1
            if probe and out:
                self.hits[name] += 1
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``causalid`` module."""
        for name, module, attr, kind in TARGETS:
            owner = sys.modules.get(module)
            if owner is None:  # causalid.cli is only loaded by the CLI workload
                continue
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[fn_name]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn, kind)
                setattr(cls, fn_name, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._restore.append((cls, fn_name, raw))
                continue
            fn = getattr(owner, fn_name)
            wrapped = self._wrap(name, fn, kind)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "causalid" or mod_name.startswith("causalid."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name, fn, kind):
        if kind == "span":
            return self._span(name, fn)
        return self._count(name, fn, probe=kind == "probe")

    def write_spans(self, path) -> None:
        """Tab-separated spans, times in microseconds from the first span."""
        t_base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for op, span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    f"{op}\t{span_id}\t{parent}\t{name}\t"
                    f"{(t0 - t_base) * 1e6:.1f}\t{(t1 - t_base) * 1e6:.1f}\n"
                )

    def summary(self) -> dict:
        """Per-name calls, total seconds, self seconds and probe hits."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s.get(name, 0.0),
                "self_s": self.self_s.get(name, 0.0),
                "hits": self.hits.get(name, 0),
            }
            for name in sorted(self.calls)
        }
