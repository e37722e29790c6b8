"""Per-layer spans and counts for the traced run.

The traced run wraps the functions each layer exposes, from outside
the program: a wrapper records a span (name, layer, start, end,
parent) around a call made inside a request, or only counts the call.
The wrappers exist only while :func:`installed` is active; the
untraced cycles, and every ``--trace 0`` run, call the library
unwrapped.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans
cover; a request's root span belongs to the workload's own layer, so
the self times of one request's spans add up to its duration.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _explore_facts(result, args) -> dict:
    return {"nodes": result.nodes_explored,
            "solutions": len(result.finite_solutions)}


def _query_facts(answer, args) -> dict:
    return {"nodes": answer.nodes_explored,
            "witness": int(answer.meta["short_circuited"])}


def _run_facts(result, args) -> dict:
    return {"steps": result.steps,
            "restarts": sum(result.restarts.values())}


def _check_facts(verdict, args) -> dict:
    return {"events": args[1].length()}


#: wrap key -> (owner, attribute, span name, layer, facts).  ``owner``
#: is ``module`` or ``module:Class``; a span name of ``None`` makes a
#: count-only wrapper.  These are the names the entry points call:
#: the harness calls ``run_supervised`` through its own module.
TARGETS = {
    "compile": ("repro.core.compiled", "compile_description",
                "core.compiled.compile", "core.compiled",
                lambda out, args: {"engaged": int(out is not None)}),
    "build": ("repro.core.solver:SmoothSolutionSolver", "over_channels",
              "core.solver.build", "core.solver", None),
    "explore": ("repro.core.solver:SmoothSolutionSolver", "explore",
                "core.solver.explore", "core.solver", _explore_facts),
    "query": ("repro.core.solver:SmoothSolutionSolver", "query",
              "core.search.query", "core.search", _query_facts),
    "check": ("repro.core.description:Description",
              "is_smooth_solution", "core.description.check",
              "core.description", _check_facts),
    "run_supervised": ("repro.faults.harness", "run_supervised",
                       "faults.supervision.run", "kahn", _run_facts),
    "digest": ("repro.kahn.runtime:RunResult", "digest",
               "kahn.runtime.digest", "kahn", None),
    "cache_get": ("repro.cache.store:CacheStore", "get", "cache.get",
                  "cache", lambda out, args: {"hit": int(out is not None)}),
    "cache_put": ("repro.cache.store:CacheStore", "put", "cache.put",
                  "cache", None),
    "sequence_on": ("repro.traces.trace:Trace", "sequence_on", None,
                    "traces", None),
}

#: every layer a share is reported for; on each request the shares
#: add up to 1
LAYERS = ("core.solver", "core.compiled", "core.search",
          "core.description", "kahn", "cache", "faults.harness")

#: the per-layer metrics, in the order ``BENCHMARK.json`` lists them
PER_LAYER = (
    ("core.solver.explore_ms", "ms"),
    ("core.solver.us_per_node", "us"),
    ("core.solver.build_ms", "ms"),
    ("core.solver.nodes", "count"),
    ("core.solver.solutions", "count"),
    ("core.compiled.compile_ms", "ms"),
    ("core.compiled.engaged", "count"),
    ("core.search.exhaustive_ms", "ms"),
    ("core.search.us_per_node", "us"),
    ("core.search.witness_ms", "ms"),
    ("core.search.witness_nodes", "count"),
    ("core.search.node_ratio", "ratio"),
    ("core.description.check_ms", "ms"),
    ("core.description.events", "count"),
    ("core.description.us_per_event", "us"),
    ("traces.sequence_on_calls", "count"),
    ("faults.supervision.run_ms", "ms"),
    ("faults.supervision.restarts", "count"),
    ("kahn.steps", "count"),
    ("kahn.us_per_step", "us"),
    ("kahn.runtime.digest_ms", "ms"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.writes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("faults.harness.self_ms", "ms"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS) + (
    ("trace.overhead", "ratio"),
)


class Span:
    __slots__ = ("name", "layer", "root", "depth", "start", "end",
                 "child_ns", "facts")

    def __init__(self, name, layer, root, depth):
        self.name = name
        self.layer = layer
        self.root = root if root is not None else self
        self.depth = depth
        self.start = self.end = self.child_ns = 0
        self.facts = {}

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Recorder:
    """Spans of the traced requests, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.roots: list = []
        self.stack: list = []

    def begin(self, layer: str) -> None:
        """Open a request's root span."""
        root = Span(layer, layer, None, 0)
        self.stack.append(root)
        root.start = perf_counter_ns()

    def end(self, verdicts: int, computed: int) -> None:
        root = self.stack.pop()
        root.end = perf_counter_ns()
        root.facts.update(verdicts=verdicts, computed=computed)
        self.roots.append(root)
        self.spans.append(root)

    def abandon(self) -> None:
        """Drop the open request after its call raised."""
        self.stack.clear()


def _timed(recorder: Recorder, fn, name: str, layer: str, facts):
    stack = recorder.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        span = Span(name, layer, parent.root, len(stack))
        stack.append(span)
        span.start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter_ns()
            stack.pop()
            parent.child_ns += span.end - span.start
        recorder.spans.append(span)
        if facts is not None:
            span.facts = facts(out, args)
        return out

    return traced


def _counted(recorder: Recorder, fn, layer: str):
    stack = recorder.stack
    key = f"{layer}.{fn.__name__}"

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if stack:
            facts = stack[0].facts
            facts[key] = facts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return counted


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(recorder: Recorder, keys):
    """Wrap the functions named by ``keys`` (see :data:`TARGETS`)
    for the duration of the block, then put the originals back."""
    patched = []
    try:
        for key in keys:
            path, attr, name, layer, facts = TARGETS[key]
            owner = _owner(path)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = (_counted(recorder, fn, layer) if name is None
                       else _timed(recorder, fn, name, layer, facts))
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            patched.append((owner, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


# -- per-layer metrics ------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def request_shares(root: Span, spans) -> dict:
    """Each layer's self time over the request's duration."""
    self_ns = Counter()
    for span in spans:
        if span.root is root:
            self_ns[span.layer] += span.self_ns
    return {layer: self_ns[layer] / root.dur_ns for layer in LAYERS}


def summarize(recorder: Recorder, root_layer: str,
              overhead: float) -> dict:
    """Every :data:`PER_LAYER` metric from the recorded spans.

    ``_ms`` figures are medians over requests of the self time per
    call (per verdict for ``faults.harness.self_ms``); ``us_per_*``
    and counts are totals over the traced requests divided by the
    work or the calls.
    A layer the workload never enters reads 0.
    """
    by_name: dict = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    roots = recorder.roots

    def spans(name):
        return by_name.get(name, [])

    def per_call_ms(name):
        # median over requests of the self time per call in a request
        per_request: dict = {}
        for span in spans(name):
            t, n = per_request.get(id(span.root), (0, 0))
            per_request[id(span.root)] = (t + span.self_ns, n + 1)
        return _median(t / n / 1e6 for t, n in per_request.values())

    def self_us(spans_):
        return sum(s.self_ns for s in spans_) / 1e3

    def total(name, fact):
        return sum(span.facts.get(fact, 0) for span in spans(name))

    def per_call(name, fact):
        return _ratio(total(name, fact), len(spans(name)))

    queries = spans("core.search.query")
    witness = [s for s in queries if s.facts["witness"]]
    exhaustive = [s for s in queries if not s.facts["witness"]]
    full_tree = _ratio(sum(s.facts["nodes"] for s in exhaustive),
                       len(exhaustive))
    witness_nodes = _ratio(sum(s.facts["nodes"] for s in witness),
                           len(witness))
    compiles = spans("core.compiled.compile")
    gets = spans("cache.get")
    hits = total("cache.get", "hit")
    computed = sum(r.facts["computed"] for r in roots)
    sequence_on = sum(r.facts.get("traces.sequence_on", 0)
                      for r in roots)
    self_ns = Counter()
    for span in recorder.spans:
        self_ns[span.layer] += span.self_ns
    request_ns = sum(r.dur_ns for r in roots)
    harness = (_median(r.self_ns / r.facts["verdicts"] / 1e6
                       for r in roots)
               if root_layer == "faults.harness" else 0.0)

    values = {
        "core.solver.explore_ms": per_call_ms("core.solver.explore"),
        "core.solver.us_per_node": _ratio(
            self_us(spans("core.solver.explore")),
            total("core.solver.explore", "nodes")),
        "core.solver.build_ms": per_call_ms("core.solver.build"),
        "core.solver.nodes": per_call("core.solver.explore", "nodes"),
        "core.solver.solutions": per_call("core.solver.explore",
                                          "solutions"),
        "core.compiled.compile_ms": per_call_ms("core.compiled.compile"),
        "core.compiled.engaged": float(
            bool(compiles) and all(s.facts["engaged"] for s in compiles)),
        "core.search.exhaustive_ms": _median(
            s.self_ns / 1e6 for s in exhaustive),
        "core.search.us_per_node": _ratio(
            self_us(exhaustive), sum(s.facts["nodes"] for s in exhaustive)),
        "core.search.witness_ms": _median(s.self_ns / 1e6 for s in witness),
        "core.search.witness_nodes": witness_nodes,
        "core.search.node_ratio": _ratio(witness_nodes, full_tree),
        "core.description.check_ms": per_call_ms("core.description.check"),
        "core.description.events": per_call("core.description.check",
                                            "events"),
        "core.description.us_per_event": _ratio(
            self_us(spans("core.description.check")),
            total("core.description.check", "events")),
        "traces.sequence_on_calls": _ratio(sequence_on, computed),
        "faults.supervision.run_ms": per_call_ms("faults.supervision.run"),
        "faults.supervision.restarts": per_call("faults.supervision.run",
                                                "restarts"),
        "kahn.steps": per_call("faults.supervision.run", "steps"),
        "kahn.us_per_step": _ratio(
            self_us(spans("faults.supervision.run")),
            total("faults.supervision.run", "steps")),
        "kahn.runtime.digest_ms": per_call_ms("kahn.runtime.digest"),
        "cache.get_ms": per_call_ms("cache.get"),
        "cache.put_ms": per_call_ms("cache.put"),
        "cache.hits": _ratio(hits, len(roots)),
        "cache.misses": _ratio(len(gets) - hits, len(roots)),
        "cache.writes": _ratio(len(spans("cache.put")), len(roots)),
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "faults.harness.self_ms": harness,
        "trace.overhead": overhead,
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = _ratio(self_ns[layer], request_ns)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def to_records(recorder: Recorder, track: str) -> list:
    """The spans as :class:`repro.obs.tracer.SpanRecord` values, ready
    for :func:`repro.obs.perfetto.write_chrome_trace`."""
    from repro.obs.tracer import SpanRecord

    epoch = min((r.start for r in recorder.roots), default=0)
    return [SpanRecord(name=s.name, category=s.layer, track=track,
                       start_ns=s.start - epoch, dur_ns=s.dur_ns,
                       depth=s.depth, args=dict(s.facts))
            for s in sorted(recorder.spans, key=lambda s: s.start)]
