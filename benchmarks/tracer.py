"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public function with a timing
wrapper at the name its caller looks it up by (``quintiq.cli.experiment1``,
``quintiq.adaptive.composite_pair``, ...), and ``Tracer.uninstall`` puts the
originals back.  Spans nest on a stack; each records its parent layer, so a
layer's self time is its duration minus the time of its traced children.
Spans are aggregated per (parent, layer) edge in memory rather than kept one
by one: the integrand alone runs about a million times per tables pass.

A hook whose module or attribute no longer exists, or whose result no
longer has the shape the bookkeeping reads, is reported in ``missing`` and
its metrics read 0; it never raises.
"""
from __future__ import annotations

import dataclasses
import importlib
import time

_clock = time.perf_counter

# (module, attribute, layer).  The searches are hooked where experiments
# and the integrate entry points look them up.
HOOKS = [
    ("quintiq.cli", "main", "cli.request"),
    ("quintiq.expr", "parse", "expr.parse"),
    ("quintiq.expr", "differentiate", "expr.differentiate"),
    ("quintiq.expr", "evaluate", "expr.evaluate"),
    ("quintiq.cli", "integrate_adaptive", "adaptive.integrate"),
    ("quintiq.cli", "integrate_adaptive_cubic", "adaptive.integrate"),
    ("quintiq.adaptive", "_SEARCHES", "adaptive.search"),
    ("quintiq.experiments", "_search_doubling", "adaptive.search"),
    ("quintiq.adaptive", "composite_pair", "composite.pair"),
    ("quintiq.composite", "call_integrand", "composite.integrand"),
    ("quintiq.cli", "check_n_convexity", "convexity.sampled"),
    ("quintiq.cli", "sixth_derivative_sign", "convexity.d6_grid"),
    ("quintiq.cli", "experiment1", "experiments.sweep"),
    ("quintiq.cli", "experiment2", "experiments.sweep"),
]

_BACKENDS = ("double", "dd", "mp40")


def tree_size(root) -> tuple[int, int]:
    """(nodes counted as a tree, distinct node objects) of an expression.

    Walks any node type generically: a child is an attribute value (or an
    element of a tuple/list attribute) whose class lives in the root's
    module; ``span`` attributes are source positions, not children.
    """
    module = type(root).__module__
    sizes: dict[int, int] = {}

    def children(node):
        if dataclasses.is_dataclass(node):
            values = [getattr(node, f.name) for f in dataclasses.fields(node) if f.name != "span"]
        else:
            names = getattr(type(node), "__slots__", None) or list(vars(node))
            values = [getattr(node, n, None) for n in names if n != "span"]
        for v in values:
            for item in v if isinstance(v, (tuple, list)) else (v,):
                if type(item).__module__ == module:
                    yield item

    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in sizes:
            continue
        kids = list(children(node))
        if expanded:
            sizes[key] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in sizes)
    return sizes[id(root)], len(sizes)


class Tracer:
    def __init__(self):
        # open spans: [layer, child seconds, leaf calls, leaf seconds]
        self.stack: list[list] = []
        # (parent layer, layer) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple, list] = {}
        self.missing: list[str] = []
        self.counts = {
            "adaptive.probes": 0,
            "adaptive.evaluations": 0,
            "adaptive.useful_evaluations": 0,
            "convexity.d6_grid.points": 0,
            "experiments.rows": 0,
            "experiments.skipped_rows": 0,
        }
        self.backend_calls = dict.fromkeys(_BACKENDS, 0)
        self.backend_s = dict.fromkeys(_BACKENDS, 0.0)
        self.label = ""  # the running request's label, set by the caller
        self.d6_trees: dict[str, tuple[int, int]] = {}  # label -> (nodes, distinct)
        self._saved: list[tuple] = []
        self._diff_depth = 0
        self._last_derivative = None
        self._useful_seen: dict[int, tuple] = {}  # id(probe) -> (probe, {n})

    # -- spans ---------------------------------------------------------------

    def _record(self, parent, layer, dt, child_s):
        rec = self.edges.get((parent, layer))
        if rec is None:
            rec = self.edges[(parent, layer)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child_s

    def span(self, layer, fn, enter=None, leave=None):
        """Wrap fn as a span.  ``enter(args, kwargs)`` returns a state for
        ``leave(state, args, kwargs, result, frame)``, which runs after the
        span closes; its own time is kept out of the parent's self time."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            state = enter(args, kwargs) if enter else None
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, 0, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self._record(parent[0] if parent else None, layer, dt, frame[1])
                if frame[2]:
                    rec = self.edges.setdefault((layer, "composite.integrand"), [0, 0.0, 0.0])
                    rec[0] += frame[2]
                    rec[1] += frame[3]
                    rec[2] += frame[3]
                if parent:
                    parent[1] += dt
            if leave:
                t1 = _clock()
                try:
                    leave(state, args, kwargs, result, frame)
                except (AttributeError, TypeError, ValueError) as exc:
                    # the layer changed shape: report it like a missing hook
                    note = f"{layer}: {type(exc).__name__}: {exc}"
                    if note not in self.missing:
                        self.missing.append(note)
                if parent:
                    parent[1] += _clock() - t1
            return result

        return wrapper

    def leaf(self, fn):
        """Lean wrapper for the integrand, the hottest call: it only adds
        its time to the enclosing span."""
        stack = self.stack

        def wrapper(*args):
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                if stack:
                    dt = _clock() - t0
                    top = stack[-1]
                    top[1] += dt
                    top[2] += 1
                    top[3] += dt

        return wrapper

    # -- layer-specific bookkeeping ------------------------------------------

    def _pair_leave(self, state, args, kwargs, result, frame):
        ctx = args[3] if len(args) > 3 else kwargs.get("ctx")
        backend = getattr(ctx, "name", "double").replace(":", "")
        if backend in self.backend_calls:
            self.backend_calls[backend] += frame[2]
            self.backend_s[backend] += frame[3]

    def _search_enter(self, args, kwargs):
        probe = args[0]
        return probe, probe.evaluations

    def _search_leave(self, state, args, kwargs, result, frame):
        probe, before = state
        n, history = result
        self.counts["adaptive.probes"] += len(history)
        self.counts["adaptive.evaluations"] += probe.evaluations - before
        _, seen = self._useful_seen.setdefault(id(probe), (probe, set()))
        if n not in seen:
            seen.add(n)
            self.counts["adaptive.useful_evaluations"] += probe.pair(n).evaluation_count

    def _differentiate(self, fn):
        traced = self.span("expr.differentiate", fn)

        def wrapper(node):
            # differentiate recurses through its module global, which is this
            # wrapper: only the outermost call is a span
            if self._diff_depth:
                return fn(node)
            self._diff_depth += 1
            try:
                result = traced(node)
            finally:
                self._diff_depth -= 1
            self._last_derivative = result
            return result

        return wrapper

    def _d6_leave(self, state, args, kwargs, result, frame):
        self.counts["convexity.d6_grid.points"] += getattr(result, "samples_tested", 0)
        if self._last_derivative is not None:
            self.d6_trees[self.label] = tree_size(self._last_derivative)
            self._last_derivative = None

    def _sweep_leave(self, state, args, kwargs, result, frame):
        self.counts["experiments.rows"] += len(result)
        self.counts["experiments.skipped_rows"] += sum(
            1 for r in result
            if getattr(r, "n_quintic", 0) is None or getattr(r, "n_cubic", 0) is None
        )

    def _request_leave(self, state, args, kwargs, result, frame):
        self._useful_seen.clear()  # probes die with their request

    def _wrapper(self, layer, fn):
        if layer == "composite.integrand":
            return self.leaf(fn)
        if layer == "expr.differentiate":
            return self._differentiate(fn)
        hooks = {
            "cli.request": (None, self._request_leave),
            "composite.pair": (None, self._pair_leave),
            "adaptive.search": (self._search_enter, self._search_leave),
            "convexity.d6_grid": (None, self._d6_leave),
            "experiments.sweep": (None, self._sweep_leave),
        }
        enter, leave = hooks.get(layer, (None, None))
        return self.span(layer, fn, enter, leave)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for module_name, attr, layer in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, dict):  # a dispatch table of functions
                for key, fn in list(original.items()):
                    self._saved.append((original, key, fn, True))
                    original[key] = self._wrapper(layer, fn)
            else:
                self._saved.append((module, attr, original, False))
                setattr(module, attr, self._wrapper(layer, original))

    def uninstall(self):
        for target, key, original, is_dict in reversed(self._saved):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    # -- metrics -------------------------------------------------------------

    def _layer(self, *layers):
        calls = total = own = 0
        for (_parent, layer), (c, t, s) in self.edges.items():
            if layer in layers:
                calls += c
                total += t
                own += s
        return calls, total, own

    def metrics(self) -> dict:
        m = {}
        for layer in ("expr.parse", "expr.differentiate", "expr.evaluate", "composite.integrand"):
            calls, total, _ = self._layer(layer)
            m[f"{layer}.calls"] = calls
            m[f"{layer}.s"] = total
        trees = list(self.d6_trees.values())
        m["expr.d6_nodes"] = max((t[0] for t in trees), default=0)
        m["expr.d6_distinct_nodes"] = max((t[1] for t in trees), default=0)
        for b in _BACKENDS:
            calls = self.backend_calls[b]
            m[f"scalars.call_us.{b}"] = 1e6 * self.backend_s[b] / calls if calls else 0.0
        calls, total, own = self._layer("composite.pair")
        m.update({"composite.pair.calls": calls, "composite.pair.s": total,
                  "composite.pair.self_s": own})
        searches = self._layer("adaptive.search")[0]
        evaluations = self.counts["adaptive.evaluations"]
        m["adaptive.searches"] = searches
        m["adaptive.probes"] = self.counts["adaptive.probes"]
        m["adaptive.evaluations"] = evaluations
        m["adaptive.self_s"] = self._layer("adaptive.integrate", "adaptive.search")[2]
        m["adaptive.useful_eval_ratio"] = (
            self.counts["adaptive.useful_evaluations"] / evaluations if evaluations else 0.0
        )
        m["convexity.sampled.s"] = self._layer("convexity.sampled")[1]
        m["convexity.d6_grid.s"] = self._layer("convexity.d6_grid")[1]
        m["convexity.d6_grid.points"] = self.counts["convexity.d6_grid.points"]
        m["experiments.sweep.s"] = self._layer("experiments.sweep")[1]
        m["experiments.rows"] = self.counts["experiments.rows"]
        m["experiments.skipped_rows"] = self.counts["experiments.skipped_rows"]
        calls, _total, own = self._layer("cli.request")
        m["cli.requests"] = calls
        m["cli.self_s"] = own
        m["trace.missing_hooks"] = len(self.missing)
        return m

    def spans(self) -> list:
        return [
            {"parent": parent, "layer": layer, "calls": c, "total_s": t, "self_s": s}
            for (parent, layer), (c, t, s) in sorted(self.edges.items(), key=str)
        ]
