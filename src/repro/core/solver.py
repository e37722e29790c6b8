"""Operational enumeration of smooth solutions (§3.3).

The paper generalizes Kleene iteration to a *tree*: the root is ``⊥``;
a node ``u`` has a son ``v`` iff ``u pre v`` and ``f(v) ⊑ g(u)``.  Every
node of the tree automatically satisfies the smoothness condition (the
path from the root witnesses it), so

* the **finite smooth solutions** are exactly the nodes that also satisfy
  the limit condition ``f(s) = g(s)``, and
* the **infinite smooth solutions** are the lubs of infinite paths whose
  limit condition holds in the limit.

The solver walks this tree to a depth bound in one exploration loop.
The visit order — breadth-first levels, a ranked best-first heap, or
iterative deepening — is a frontier policy plugged into that loop, and
the evaluation engine (reference values or compiled packed traces) is
an adapter under it; neither changes which nodes exist or how they
classify.  One-step extensions are proposed by a *candidate generator* — by default every
``(channel, message)`` pair from the channels' finite alphabets; for
channels with infinite alphabets (the naturals on ``d`` in §2.3) the
caller supplies a generator, typically derived from ``g(u)`` itself
(an output can only extend the trace if the right side already allows
it, so the elements of ``g(u)`` bound the useful candidates).
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass, field
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Optional

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import DEFAULT_DEPTH, Description
from repro.core.search import (
    STRATEGIES,
    QueryResult,
    component_lengths,
    get_heuristic,
    parse_predicate,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Schedule, stable_digest
from repro.obs.replay import ReplayDivergence
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.traces.trace import Trace

#: A candidate generator: finite trace ``u`` ↦ events that may extend it.
CandidateFn = Callable[[Trace], Iterable[Event]]


class CandidateError(RuntimeError):
    """A user-supplied candidate generator raised; names the trace at
    which it failed so the misbehaving case is reproducible."""

    def __init__(self, trace: Trace, original: BaseException):
        super().__init__(
            f"candidate generator failed at trace {trace!r}: "
            f"{type(original).__name__}: {original}"
        )
        self.trace = trace
        self.original = original


def _message_sort_key(channel: Channel, m: object) -> tuple:
    """Deterministic ordering key for alphabet messages.

    Ordering by bare ``repr`` is a trap: objects that inherit
    ``object.__repr__`` render as ``<X object at 0x...>`` — a memory
    address — so the candidate order (and with it every digest and
    cache key downstream) would differ between processes.  Such
    messages are rejected outright; everything else sorts by
    ``(type name, repr)``, which is stable across runs and keeps the
    historical per-type ordering intact.
    """
    if type(m).__repr__ is object.__repr__:
        raise ValueError(
            f"channel {channel.name!r} alphabet member {m!r} has no "
            "deterministic repr (it inherits object.__repr__, which "
            "renders a memory address); give the message type a "
            "stable __repr__ or supply a custom candidate generator")
    return (type(m).__name__, repr(m))


def alphabet_candidates(channels: Iterable[Channel]) -> CandidateFn:
    """The default candidate generator: all events over finite alphabets.

    Raises ``ValueError`` at construction if some channel has no finite
    alphabet — then a custom generator is required — or if some
    alphabet member has no deterministic ``repr`` (candidate order
    must be reproducible across processes; see
    :func:`_message_sort_key`).
    """
    events: list[Event] = []
    for c in sorted(channels):
        if c.alphabet is None:
            raise ValueError(
                f"channel {c.name!r} has no finite alphabet; supply a "
                "custom candidate generator"
            )
        events.extend(
            Event(c, m) for m in sorted(
                c.alphabet, key=lambda m, _c=c: _message_sort_key(_c, m)))

    def candidates(u: Trace) -> Iterable[Event]:
        del u
        return events

    # content identity for the persistent result cache: the generator
    # is fully determined by its event alphabet
    candidates.cache_key = {
        "kind": "alphabet",
        "events": [[e.channel.name, repr(e.message)] for e in events],
    }
    # the published constant alphabet is what makes the generator
    # *compilable*: the solver's packed hot path interns exactly these
    # events (per-node generators have no such attribute and keep the
    # solver on the reference path)
    candidates.constant_events = tuple(events)
    return candidates


@dataclass
class SolverResult:
    """Outcome of a bounded tree exploration.

    Attributes:
        finite_solutions: nodes satisfying the limit condition — exact
            smooth solutions (their smoothness is witnessed by the path).
        frontier: traces at the depth bound that still have admissible
            extensions; each is a prefix of zero or more infinite (or
            deeper finite) smooth solutions.
        dead_ends: nodes with no admissible extension and a failing
            limit condition — communication histories after which the
            description is stuck but not quiescent.
        unvisited: nodes parked by a truncation guard before they were
            ever examined — their limit condition was never checked and
            they may or may not have admissible extensions, so they are
            deliberately *not* on ``frontier`` (which promises
            admissible extensions).  They are exactly the seeds a
            resumed exploration continues from; see :meth:`checkpoint`.
        nodes_explored: total tree nodes visited (cumulative across a
            checkpoint/resume chain).
        depth: the exploration bound used.
        truncated: the exploration hit a resource guard (node budget or
            wall-clock budget) before covering the tree to ``depth``;
            the result is a sound but partial under-approximation, and
            unexamined nodes are parked on ``unvisited``.
        truncation_reason: which guard fired, for diagnostics.
        limit_depth: the limit-check depth the exploration used
            (carried for checkpointing; not part of the digest).
        description_name: the explored description's name (carried for
            checkpointing; not part of the digest).
        metrics: per-run metrics summary (nodes, branching, prunes, …)
            when the solver ran with tracing enabled; empty otherwise.
    """

    finite_solutions: list[Trace] = field(default_factory=list)
    frontier: list[Trace] = field(default_factory=list)
    dead_ends: list[Trace] = field(default_factory=list)
    nodes_explored: int = 0
    depth: int = 0
    truncated: bool = False
    truncation_reason: str = ""
    metrics: dict = field(default_factory=dict)
    unvisited: list[Trace] = field(default_factory=list)
    limit_depth: int = 0
    description_name: str = ""
    #: per-site cost attribution (:class:`repro.obs.profile
    #: .SolverProfile` summary) when the solver ran with tracing
    #: enabled; empty otherwise.  Counters are deterministic, the ns
    #: columns are wall-clock — neither enters the digest or the
    #: cache payload.
    profile: dict = field(default_factory=dict)
    #: strategy-private resume state (e.g. the iterative-deepening
    #: iteration counter and tested-node marks).  Carried into
    #: :meth:`checkpoint` as the checkpoint ``meta`` — outside both
    #: the result digest and the cache payload, so strategies can park
    #: state without perturbing any pinned hash.
    strategy_meta: dict = field(default_factory=dict)

    def solution_set(self) -> set[Trace]:
        return set(self.finite_solutions)

    def digest(self) -> str:
        """Stable content hash of the exploration's outcome.

        Covers the solution/frontier/dead-end/unvisited sets
        (order-normalized) and the exploration shape (nodes, depth,
        truncation) — not metrics or wall-clock.  Two explorations
        with equal digests found the same portion of the §3.3 tree, so
        "re-running the solver reproduces the result" is a one-line
        assertion.  Truncation-parked nodes hash under their own
        ``unvisited`` key, *not* under ``frontier``: the frontier
        invariant (admissible extensions exist) was never established
        for them, and resume correctness depends on the distinction.
        """
        return stable_digest({
            "finite_solutions": sorted(
                _trace_key(t) for t in self.finite_solutions),
            "frontier": sorted(_trace_key(t) for t in self.frontier),
            "dead_ends": sorted(_trace_key(t) for t in self.dead_ends),
            "unvisited": sorted(_trace_key(t) for t in self.unvisited),
            "nodes_explored": self.nodes_explored,
            "depth": self.depth,
            "truncated": self.truncated,
        })

    def checkpoint(self) -> "SolverCheckpoint":
        """Serialize this (typically truncated) result as a resumable
        pure-JSON checkpoint.

        The checkpoint carries every classified set plus the unvisited
        seeds as canonical trace keys, and the exploration shape
        (depth, limit depth, node count, description name).  Feed it
        to :meth:`SmoothSolutionSolver.explore` as ``resume_from=`` to
        continue the Kleene chain; a truncate-then-resume pair is
        digest-equal to the straight run.
        """
        from repro.cache.checkpoint import SolverCheckpoint

        return SolverCheckpoint(
            description=self.description_name,
            depth=self.depth,
            limit_depth=self.limit_depth,
            nodes_explored=self.nodes_explored,
            truncation_reason=self.truncation_reason,
            finite_solutions=[_trace_key(t)
                              for t in self.finite_solutions],
            frontier=[_trace_key(t) for t in self.frontier],
            dead_ends=[_trace_key(t) for t in self.dead_ends],
            unvisited=[_trace_key(t) for t in self.unvisited],
            meta=dict(self.strategy_meta),
        )

    def to_payload(self) -> dict:
        """JSON-ready form for the persistent result cache."""
        return {
            "finite_solutions": [_trace_key(t)
                                 for t in self.finite_solutions],
            "frontier": [_trace_key(t) for t in self.frontier],
            "dead_ends": [_trace_key(t) for t in self.dead_ends],
            "unvisited": [_trace_key(t) for t in self.unvisited],
            "nodes_explored": self.nodes_explored,
            "depth": self.depth,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "limit_depth": self.limit_depth,
            "description_name": self.description_name,
            "digest": self.digest(),
        }


def _trace_key(t: Trace) -> list:
    """JSON-ready canonical form of a finite trace."""
    return [[e.channel.name, repr(e.message)] for e in t]


class SmoothSolutionSolver:
    """Bounded exploration of the §3.3 tree: one loop, with the visit
    order (``strategy``) and the evaluation engine (``compiled``)
    plugged in."""

    def __init__(self, description: Description,
                 candidates: CandidateFn,
                 limit_depth: int = DEFAULT_DEPTH,
                 tracer: Optional[Tracer] = None,
                 cache: Optional[object] = None,
                 compiled: Optional[bool] = None,
                 strategy: str = "bfs",
                 heuristic: str = "rhs-distance",
                 dedup: bool = False):
        self.description = description
        self.candidates = candidates
        self.limit_depth = limit_depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: a :class:`repro.cache.CacheStore` (or None); when set,
        #: :meth:`explore` consults it before searching and stores
        #: completed results after
        self.cache = cache
        #: compiled hot path: ``None`` (default) auto-detects — use
        #: the packed representation when the description and
        #: candidate generator compile (see :mod:`repro.core
        #: .compiled`), else the reference path.  ``False`` forces the
        #: reference path; ``True`` demands compilation and makes
        #: :meth:`explore` raise if it is unavailable.
        self.compiled = compiled
        #: exploration order: ``"bfs"`` (the reference order),
        #: ``"best-first"`` (priority frontier ranked by
        #: ``heuristic``) or ``"iterative-deepening"``.  Strategies
        #: reorder the walk, never the admissibility or limit tests,
        #: so completed runs are digest-identical across strategies.
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; known: "
                f"{', '.join(STRATEGIES)}")
        self.strategy = strategy
        #: best-first ranking heuristic (see
        #: :data:`repro.core.search.HEURISTICS`); validated eagerly so
        #: a typo fails at construction, not mid-search.
        self.heuristic = get_heuristic(heuristic).name
        #: duplicate-state reduction: memoize ``g``, the limit verdict
        #: and the admissible-extension scan per *interned per-channel
        #: projection* — nodes whose channel projections coincide (the
        #: paper's ``b(t)``) share one evaluation.  Every node is
        #: still enumerated and classified, so the solution set (and
        #: digest) is untouched; the saving is evaluation work on
        #: converging interleavings.
        self.dedup = dedup

    @classmethod
    def over_channels(cls, description: Description,
                      channels: Iterable[Channel],
                      limit_depth: int = DEFAULT_DEPTH,
                      tracer: Optional[Tracer] = None,
                      cache: Optional[object] = None,
                      compiled: Optional[bool] = None,
                      strategy: str = "bfs",
                      heuristic: str = "rhs-distance",
                      dedup: bool = False) -> "SmoothSolutionSolver":
        return cls(description, alphabet_candidates(channels),
                   limit_depth=limit_depth, tracer=tracer,
                   cache=cache, compiled=compiled, strategy=strategy,
                   heuristic=heuristic, dedup=dedup)

    # -- tree structure ------------------------------------------------------

    def children(self, u: Trace) -> Iterator[Trace]:
        """Admissible one-step extensions: ``v`` with ``f(v) ⊑ g(u)``."""
        f = self.description.lhs
        gu = self.description.rhs.apply(u)
        for event in self._candidate_events(u, gu):
            v = u.append(event)
            fv = f.apply(v)
            if self.description._leq(fv, gu, self.limit_depth):
                yield v

    def _candidate_events(self, u: Trace,
                          gu: object = None) -> list[Event]:
        """Run the candidate generator, wrapping its failures.

        Generators that publish ``accepts_gu = True`` receive the
        caller's already-computed ``g(u)`` as a second argument — the
        hot-path discipline ("``g`` exactly once per node") extended
        through the generator protocol, so an rhs-guided generator
        does not silently double every ``rhs.apply``.
        """
        try:
            if gu is not None and getattr(self.candidates,
                                          "accepts_gu", False):
                return list(self.candidates(u, gu))
            return list(self.candidates(u))
        except CandidateError:
            raise
        except Exception as exc:
            raise CandidateError(u, exc) from exc

    def is_node(self, u: Trace) -> bool:
        """Is the finite trace ``u`` a node of the tree?

        Equivalent to: the path ``⊥ … u`` exists, i.e. every pre-pair
        along ``u`` satisfies the smoothness condition.
        """
        return self.description.smoothness_holds(
            u, depth=max(u.length(), 1)
        )

    # -- exploration ----------------------------------------------------------

    def explore(self, max_depth: int,
                max_nodes: int = 200_000,
                budget_seconds: Optional[float] = None,
                resume_from: Optional[object] = None,
                _watch: Optional[Callable[[Trace], str]] = None
                ) -> SolverResult:
        """Explore the tree to ``max_depth`` in the configured order.

        Every strategy runs the same loop (:meth:`_walk`); only the
        frontier policy differs, so completed runs are digest-identical
        across strategies and engines.

        Resource guards keep runaway alphabets and hostile candidate
        generators bounded: at most ``max_nodes`` nodes are expanded
        *per call* (a resumed run gets a fresh budget), and an optional
        ``budget_seconds`` wall-clock budget caps the search in time.
        When a guard fires the partial result is returned with
        ``truncated=True`` and the never-examined nodes parked on
        ``result.unvisited`` (not the frontier, whose invariant they
        were never checked against) — a degraded answer beats none.

        ``resume_from`` continues a truncated exploration from a
        :class:`~repro.cache.checkpoint.SolverCheckpoint` (or its dict
        / a path to its JSON) made by :meth:`SolverResult.checkpoint`.
        Every carried trace is replayed as a witness path through the
        live description (checkpoints stay pure JSON, corrupt ones are
        caught), then the frontier is re-seeded from the unvisited
        nodes.  Invariant: truncate-then-resume is digest-equal to the
        straight run.

        A candidate generator that raises aborts the search with a
        :class:`CandidateError` naming the trace it choked on.

        With a ``cache`` store attached (and no ``resume_from``), a hit
        in the persistent result cache is returned rebuilt; completed
        and node-budget-truncated results are stored back.
        Wall-clock-truncated results never are — where the clock fires
        is not a function of the inputs.  With a tracer attached the
        run emits ``solver.*`` spans and events (per-level spans on
        breadth-first runs) and fills ``result.metrics`` and
        ``result.profile``.

        Hot-path discipline: per node ``u``, ``g(u)`` is evaluated
        exactly once (shared by the limit condition and every
        candidate's admissibility test), ``f(u)`` is carried over from
        the parent's scan, and the limit condition is checked exactly
        once; the extendability probe at the depth bound stops at the
        first admissible candidate.  In the compilable finite fragment
        (see :mod:`repro.core.compiled`) the same loop runs over
        packed traces, an order of magnitude faster and bit-identical
        at this API boundary; the ``compiled`` flag picks the engine.
        """
        deadline = (None if budget_seconds is None
                    else time.monotonic() + budget_seconds)
        tracer = self.tracer
        tracing = tracer.enabled
        profile = None
        if tracing:
            from repro.obs.profile import SolverProfile

            profile = SolverProfile()
        cache_key = None
        if self.cache is not None and resume_from is None:
            from repro.cache.keys import solver_cache_key

            cache_key = solver_cache_key(
                self.description, self.candidates, max_depth,
                self.limit_depth, max_nodes, budget_seconds)
            if self.strategy != "bfs":
                # completed runs are strategy-independent, but a
                # node-budget truncation parks a strategy-specific
                # set — the key must tell the entries apart.  Plain
                # BFS keeps the historical key so warm caches stay
                # warm.  ``dedup`` never changes the result, so it
                # stays out of the key on purpose.
                cache_key = dict(cache_key,
                                 strategy=self.strategy,
                                 heuristic=self.heuristic)
            hit = _timed(profile, "cache.get", self.cache.get, "solver",
                         cache_key)
            if hit is not None:
                rebuilt = self._result_from_payload(hit)
                if rebuilt is not None:
                    if tracing:
                        tracer.event(
                            "cache.hit", category="cache",
                            track="solver",
                            key=self.cache.key_digest(cache_key)[:16],
                            nodes_skipped=rebuilt.nodes_explored)
                        rebuilt.profile = profile.summary()
                    return rebuilt
            if tracing:
                tracer.event(
                    "cache.miss", category="cache", track="solver",
                    key=self.cache.key_digest(cache_key)[:16])
        metrics = MetricsRegistry() if tracing else None
        result = SolverResult(
            depth=max_depth, limit_depth=self.limit_depth,
            description_name=getattr(self.description, "name", ""))
        compiled = None
        if self.compiled is not False:
            # imported per call: module-level wrappers see every compile
            from repro.core.compiled import compile_description

            compiled = _timed(profile, "compile.build",
                              compile_description, self.description,
                              self.candidates)
            if compiled is None and self.compiled is True:
                raise ValueError(
                    "compiled=True, but this description/candidate "
                    "pair is outside the compilable fragment (see "
                    "repro.core.compiled for the preconditions)")
        if self.dedup and compiled is None:
            self._require_dedup_eligible()
        run = _Run(tracer, result, max_depth, max_nodes, budget_seconds,
                   deadline, _watch, metrics, profile)
        engine = (_ReferenceEngine(self, metrics, profile)
                  if compiled is None
                  else _CompiledEngine(self, compiled, metrics, profile))
        from repro.core.compiled import CompiledEvalError

        try:
            return self._run(engine, run, resume_from, cache_key)
        except CompiledEvalError as exc:
            # a compiled closure left the finite fragment mid-run
            # (possible only for exotic ops that slipped past the
            # compile-time probe): restart cleanly on the
            # always-correct reference path.  Every description that
            # compiles is dedup-eligible, so ``dedup`` carries over.
            if tracing:
                tracer.event(
                    "solver.compiled_fallback", category="solver",
                    track="solver", reason=str(exc))
            fallback = copy.copy(self)
            fallback.compiled = False
            return fallback.explore(max_depth, max_nodes, budget_seconds,
                                    resume_from, _watch)

    def _run(self, engine, run: "_Run", resume_from: Optional[object],
             cache_key: Optional[dict]) -> SolverResult:
        """Seed the frontier, walk it in the configured order, publish
        the classified nodes, and store cacheable results back."""
        tracer = self.tracer
        tracing = tracer.enabled
        result, max_depth = run.result, run.max_depth
        metrics, profile = run.metrics, run.profile
        if self.dedup:
            engine = _Memo(engine, profile)
        run.engine = engine
        meta: dict = {}
        explored = 0
        if resume_from is None:
            seeds = [(0, engine.root())]
        else:
            checkpoint = self._coerce_checkpoint(resume_from)
            self._validate_checkpoint(checkpoint, max_depth)
            unvisited = self._replay_checkpoint(checkpoint, result)
            explored = checkpoint.nodes_explored
            if not unvisited:
                # checkpoint of a complete exploration: nothing left
                result.nodes_explored = explored
                return result
            seeds = sorted(((u.length(), engine.seed(u))
                            for u in unvisited), key=itemgetter(0))
            meta = checkpoint.meta
        with tracer.span("solver.explore", category="solver",
                         track="solver", depth=max_depth,
                         max_nodes=run.max_nodes,
                         resumed=resume_from is not None,
                         limit_depth=self.limit_depth) as root:
            if self.strategy == "iterative-deepening":
                self._deepen(run, seeds, meta)
            elif self.strategy == "best-first":
                self._walk(run, _RankedFrontier(
                    run, seeds, get_heuristic(self.heuristic)))
            else:
                self._walk(run, _LevelFrontier(run, seeds))
            # unpack at the API boundary: the same Event objects in
            # the same order on either engine, so everything
            # downstream is bit-identical
            unpack = engine.unpack
            result.finite_solutions.extend(map(unpack, run.finite))
            result.frontier.extend(map(unpack, run.bound))
            result.dead_ends.extend(map(unpack, run.dead))
            result.unvisited.extend(map(unpack, run.parked))
            result.nodes_explored = explored + run.session
            if tracing:
                metrics.counter("solver.nodes_expanded").inc(
                    run.session)
                metrics.counter("solver.finite_solutions").inc(
                    len(result.finite_solutions))
                metrics.counter("solver.dead_ends").inc(
                    len(result.dead_ends))
                metrics.gauge("solver.frontier_size").set(
                    len(result.frontier))
                root.annotate(nodes=result.nodes_explored,
                              solutions=len(result.finite_solutions),
                              truncated=result.truncated)
        if cache_key is not None and self._cacheable(result):
            _timed(profile, "cache.put", self.cache.put, "solver",
                   cache_key, result.to_payload())
            if tracing:
                tracer.event(
                    "cache.write", category="cache", track="solver",
                    key=self.cache.key_digest(cache_key)[:16])
        if tracing:
            profile.to_metrics(metrics)
            result.metrics = metrics.summary()
            result.profile = profile.summary()
        return result

    def _walk(self, run: "_Run", frontier) -> None:
        """The exploration loop: the one place nodes are classified.

        The frontier hands out nodes of one depth with their ``g(u)``
        — a chunk of a BFS level, or one best-first or deepening node.
        A node is a finite solution iff ``f(u) = g(u)``; below the
        bound its admissible children (``f(v) ⊑ g(u)``) go back to the
        frontier and having none makes it a dead end unless it is a
        solution; at the bound it is a frontier node iff some extension
        is admissible.  The node budget caps each batch, a wall-clock
        budget shrinks batches to single nodes; when a guard fires or
        the query ``watch`` settles, the frontier parks what is left.
        """
        engine = run.engine
        limit_of = engine.limit
        children_of = engine.children
        extendable = engine.extendable
        add_finite = run.finite.append
        add_bound = run.bound.append
        add_dead = run.dead.append
        max_depth = run.max_depth
        watch = run.watch
        tracer = self.tracer
        tracing = tracer.enabled

        def narrate(name: str, node, depth: int) -> None:
            tracer.event(name, category="solver", track="solver",
                         node=repr(engine.trace(node)), depth=depth)

        try:
            while True:
                depth = frontier.next_depth()
                if depth is None:
                    return
                reason = run.guard(depth)
                if reason:
                    frontier.park(reason)
                    return
                batch, gs = frontier.take(
                    1 if run.deadline is not None
                    else run.max_nodes - run.session)
                run.session += len(batch)
                below = depth < max_depth
                born: list = []
                for i, node in enumerate(batch):
                    gu = gs[i]
                    limit = limit_of(node, gu)
                    kids = children_of(node, gu) if below else None
                    if limit:
                        add_finite(node[0])
                        if tracing:
                            narrate("solver.accept", node, depth)
                    if kids is None:
                        if extendable(node, gu):
                            add_bound(node[0])
                        elif not limit:
                            add_dead(node[0])
                    elif kids:
                        born += kids
                    elif not limit:
                        add_dead(node[0])
                        if tracing:
                            narrate("solver.dead_end", node, depth)
                    if limit and watch is not None:
                        stop = watch(engine.trace(node))
                        if stop:
                            run.session -= len(batch) - i - 1
                            frontier.push(depth, born)
                            frontier.park(stop, batch[i + 1:])
                            return
                frontier.push(depth, born)
        finally:
            frontier.close()

    def _deepen(self, run: "_Run", seeds: list, meta: dict) -> None:
        """Iterative deepening: one bounded walk per iteration ``L``.

        Each walk goes depth-first from the persistent seeds (the
        root, or a checkpoint's parked nodes) and classifies exactly
        the nodes at depth ``L``; shallower nodes are re-expanded as
        uncounted interior rework, so ``nodes_explored`` and completed
        digests match BFS.  The memory footprint is one DFS stack.
        A truncation marks the nodes this iteration already classified
        in ``strategy_meta["tested"]`` (with the iteration number), so
        a resume — which must itself use iterative deepening — never
        re-classifies them.
        """
        tested = {tuple(map(tuple, key))
                  for key in meta.get("tested", [])}

        def was_tested(node) -> bool:
            key = _trace_key(run.engine.trace(node))
            return tuple(map(tuple, key)) in tested

        marked = [(depth, node, bool(tested) and was_tested(node))
                  for depth, node in seeds]
        start = int(meta.get("iteration", seeds[0][0]))
        for level in range(start, run.max_depth + 1):
            frontier = _DeepeningFrontier(run, marked, level)
            self._walk(run, frontier)
            if run.result.truncated or not (frontier.alive
                                            or frontier.held):
                # truncated, or no deeper node exists and no seed
                # waits for a later iteration: the tree is exhausted
                break

    @staticmethod
    def _cacheable(result: SolverResult) -> bool:
        """Is this result a pure function of the cache key?  Complete
        and node-budget-truncated explorations are (the traversal is
        deterministic); wall-clock truncations are not — where the
        clock fires depends on the machine, not the inputs.  Query
        early-exits are not either — the predicate is not part of the
        key.  Results carrying strategy-private resume state
        (``strategy_meta``) stay out too: the cache payload cannot
        round-trip the meta, and a resume without it would
        double-classify nodes."""
        if result.strategy_meta:
            return False
        return not (result.truncated
                    and ("wall-clock" in result.truncation_reason
                         or result.truncation_reason.startswith(
                             "query")))

    # -- strategy layer -------------------------------------------------------

    def _require_dedup_eligible(self) -> None:
        """Duplicate-state reduction keys nodes on their per-channel
        projections (the paper's ``b(t)``); that key is sound only
        when both sides are pure functions of those projections.  The
        compilable expression fragment guarantees it; anything else
        (subclassed descriptions, opaque lambdas) must refuse loudly
        rather than dedup unsoundly."""
        from repro.core.compiled import _leaf_channels

        if type(self.description) is Description \
                and _leaf_channels(self.description.lhs) is not None \
                and _leaf_channels(self.description.rhs) is not None:
            return
        raise ValueError(
            "dedup=True requires a plain Description whose sides "
            "factor through per-channel projections (sides that "
            "inspect whole traces would make the duplicate-state key "
            "unsound); run with dedup=False")

    def _channel_universe(self) -> tuple:
        """The fixed channel set heuristics and dedup keys range over:
        the candidate alphabet's channels plus both sides' observed
        channels — the same universe the compiled engine interns, so
        feature values agree across engines."""
        from repro.core.compiled import _leaf_channels

        chans = set()
        events = getattr(self.candidates, "constant_events", None)
        if events:
            chans.update(e.channel for e in events)
        for side in (self.description.lhs, self.description.rhs):
            leaf = _leaf_channels(side)
            if leaf:
                chans.update(leaf)
        return tuple(sorted(chans, key=lambda c: c.name))

    # -- checkpoint / resume --------------------------------------------------

    @staticmethod
    def _coerce_checkpoint(resume_from: object):
        """Accept a SolverCheckpoint, its dict form, or a JSON path."""
        from repro.cache.checkpoint import SolverCheckpoint

        if isinstance(resume_from, SolverCheckpoint):
            return resume_from
        if isinstance(resume_from, dict):
            return SolverCheckpoint.from_dict(resume_from)
        if isinstance(resume_from, (str, bytes)) or hasattr(
                resume_from, "__fspath__"):
            return SolverCheckpoint.load(str(resume_from))
        raise TypeError(
            "resume_from must be a SolverCheckpoint, its dict form, "
            f"or a path to its JSON (got {type(resume_from).__name__})")

    def _validate_checkpoint(self, checkpoint, max_depth: int) -> None:
        """A checkpoint only resumes the exploration it snapshot."""
        if checkpoint.depth != max_depth:
            raise ValueError(
                f"checkpoint was taken at depth {checkpoint.depth}, "
                f"cannot resume at depth {max_depth}")
        if checkpoint.limit_depth != self.limit_depth:
            raise ValueError(
                f"checkpoint used limit_depth "
                f"{checkpoint.limit_depth}, this solver uses "
                f"{self.limit_depth}")
        mine = getattr(self.description, "name", "")
        if checkpoint.description and mine and \
                checkpoint.description != mine:
            raise ValueError(
                f"checkpoint is of description "
                f"{checkpoint.description!r}, this solver explores "
                f"{mine!r}")
        parked_by = checkpoint.meta.get("strategy", "")
        if parked_by == "iterative-deepening" and \
                self.strategy != "iterative-deepening":
            # a deepening checkpoint parks nodes whose limit condition
            # was already checked (marked in meta); any other strategy
            # would re-classify them and double-count
            raise ValueError(
                "checkpoint was parked by an iterative-deepening "
                f"exploration and must be resumed with it (this "
                f"solver uses strategy {self.strategy!r})")

    def _replay_checkpoint(self, checkpoint, result: SolverResult
                           ) -> list[Trace]:
        """Rebuild a checkpoint's classified traces into ``result``
        and return its unvisited ones, the seeds of the resumed walk.

        Every trace key is replayed as a witness path on the reference
        path, whichever engine resumes, so a checkpoint that does not
        describe this §3.3 tree raises
        :class:`~repro.obs.replay.ReplayDivergence` instead of seeding
        garbage.  The engine's ``seed`` then recomputes each seed's
        ``f(u)`` — the price of keeping checkpoints pure JSON.
        """
        walk = self._walk_path
        result.finite_solutions.extend(
            map(walk, checkpoint.finite_solutions))
        result.frontier.extend(map(walk, checkpoint.frontier))
        result.dead_ends.extend(map(walk, checkpoint.dead_ends))
        return [walk(key) for key in checkpoint.unvisited]

    def _result_from_payload(self, payload: dict
                             ) -> Optional[SolverResult]:
        """Rebuild a cached :class:`SolverResult`, or ``None`` when
        the payload cannot be resolved against the live candidate
        generator (then the caller treats the entry as a miss).

        Rebuilding matches each stored event key against the candidate
        events by ``(channel name, message repr)`` — no admissibility
        re-checks (that would re-run the work the cache is skipping) —
        and then verifies the rebuilt result's digest against the
        stored one, so a drifted generator or an ambiguous ``repr``
        degrades to a miss, never to a wrong answer.
        """
        try:
            result = SolverResult(
                finite_solutions=[
                    self._rebuild_trace(k)
                    for k in payload["finite_solutions"]],
                frontier=[self._rebuild_trace(k)
                          for k in payload["frontier"]],
                dead_ends=[self._rebuild_trace(k)
                           for k in payload["dead_ends"]],
                unvisited=[self._rebuild_trace(k)
                           for k in payload.get("unvisited", [])],
                nodes_explored=int(payload["nodes_explored"]),
                depth=int(payload["depth"]),
                truncated=bool(payload["truncated"]),
                truncation_reason=str(
                    payload.get("truncation_reason", "")),
                limit_depth=int(payload.get("limit_depth", 0)),
                description_name=str(
                    payload.get("description_name", "")),
            )
        except (KeyError, TypeError, ValueError, LookupError):
            return None
        if result.digest() != payload.get("digest"):
            return None
        return result

    def _rebuild_trace(self, key: list) -> Trace:
        """A stored trace key back into a live :class:`Trace` by
        matching candidate events (no admissibility checks); raises
        ``LookupError`` when some step has no matching candidate."""
        u = Trace.empty()
        for channel_name, message_repr in key:
            matched = None
            for event in self._candidate_events(u):
                if event.channel.name == channel_name and \
                        repr(event.message) == message_repr:
                    matched = event
                    break
            if matched is None:
                raise LookupError(
                    f"no candidate event matches "
                    f"({channel_name}, {message_repr}) at {u!r}")
            u = u.append(matched)
        return u

    # -- witness paths (flight-recorder view of §3.3) -----------------------

    def witness_schedule(self, trace: Trace) -> Schedule:
        """Encode a finite trace as a witness path of the §3.3 tree.

        A node of the tree *is* its path from ``⊥`` — the decision
        sequence of the search, exactly as an operational run is its
        oracle decision sequence.  The returned
        :class:`~repro.obs.recorder.Schedule` stores that path in its
        ``path`` stream; :meth:`replay_witness` re-walks it, checking
        each extension's admissibility, so a solver result can ship
        machine-checkable evidence for every solution it claims.
        """
        schedule = Schedule()
        schedule.path = [[e.channel.name, repr(e.message)]
                         for e in trace]
        schedule.meta["kind"] = "solver-path"
        schedule.meta["description"] = getattr(
            self.description, "name", "")
        schedule.meta["limit_holds"] = bool(
            self.description.limit_holds(trace, self.limit_depth))
        return schedule

    def replay_witness(self, schedule: Schedule) -> Trace:
        """Re-walk a witness path, verifying every step is a tree edge.

        Each recorded event must be an admissible one-step extension
        (``f(v) ⊑ g(u)``) of the trace built so far; the first
        recorded event with no matching admissible extension raises
        :class:`~repro.obs.replay.ReplayDivergence` with the path
        index and the live candidate set.  Returns the reconstructed
        node (whose membership in the tree is thereby witnessed).
        """
        return self._walk_path(schedule.path)

    def _walk_path(self, path: list) -> Trace:
        """Re-walk a raw JSON path (``[[channel, message_repr], …]``),
        verifying every step is a tree edge — the engine behind both
        :meth:`replay_witness` and checkpoint resume."""
        u = Trace.empty()
        for index, (channel_name, message_repr) in enumerate(path):
            matched = None
            live = []
            for v in self.children(u):
                last = v.item(v.length() - 1)
                key = [last.channel.name, repr(last.message)]
                live.append(key)
                if key == [channel_name, message_repr]:
                    matched = v
                    break
            if matched is None:
                raise ReplayDivergence(
                    "path", index,
                    "recorded event is not an admissible extension",
                    recorded=[channel_name, message_repr],
                    actual=live)
            u = matched
        return u

    def iter_paths(self, max_depth: int) -> Iterator[Trace]:
        """Depth-first enumeration of all maximal-at-bound tree paths."""

        def go(u: Trace, depth: int) -> Iterator[Trace]:
            if depth == max_depth:
                yield u
                return
            extended = False
            for v in self.children(u):
                extended = True
                yield from go(v, depth + 1)
            if not extended:
                yield u

        yield from go(Trace.empty(), 0)

    # -- queries --------------------------------------------------------------

    def query(self, predicate, max_depth: int, mode: str = "exists",
              max_nodes: int = 200_000,
              budget_seconds: Optional[float] = None,
              resume_from: Optional[object] = None) -> QueryResult:
        """Ask a question about the finite smooth solutions instead of
        enumerating them.

        ``mode="exists"``: does some finite smooth solution within
        ``max_depth`` satisfy ``predicate``?  ``mode="all"``: do they
        all?  The exploration short-circuits the moment the question
        is settled — at the first satisfying solution (``exists``) or
        the first violating one (``all``) — so with a solution-seeking
        strategy (best-first + rhs-distance) the answer typically
        costs a fraction of the full enumeration's node budget.  On
        complete runs the answer provably agrees with
        enumerate-then-filter: the watch only reorders *when* the
        search stops, never which nodes are solutions (pinned by
        ``tests/core/test_query.py``).

        ``predicate`` is a ``Trace -> bool`` callable or the textual
        form :func:`repro.core.search.parse_predicate` understands.
        Returns a :class:`~repro.core.search.QueryResult`; ``holds``
        is ``None`` when a resource guard fired before the question
        was settled.  A positive ``exists`` / negative ``all`` answer
        ships the settling trace plus its replayable
        :meth:`witness_schedule` certificate.
        """
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        if mode not in ("exists", "all"):
            raise ValueError(
                f"unknown query mode {mode!r}; known: exists, all")
        source = (getattr(predicate, "source", None)
                  or getattr(predicate, "__name__", None)
                  or repr(predicate))
        found: list[Trace] = []
        settles = mode == "exists"
        stop = ("query: witness found (exists)" if settles
                else "query: counterexample found (all)")

        def watch(trace: Trace) -> str:
            if bool(predicate(trace)) == settles:
                found.append(trace)
                return stop
            return ""

        result = self.explore(max_depth, max_nodes=max_nodes,
                              budget_seconds=budget_seconds,
                              resume_from=resume_from, _watch=watch)
        witness = found[0] if found else None
        if witness is None:
            # a cache hit (or a checkpoint of a completed run) never
            # ran the watch: settle from the enumerated solutions
            for trace in result.finite_solutions:
                if bool(predicate(trace)) == settles:
                    witness = trace
                    break
        if witness is not None:
            holds: Optional[bool] = settles
        elif result.truncated:
            holds = None
        else:
            holds = not settles
        certificate = (self.witness_schedule(witness)
                       if witness is not None else None)
        return QueryResult(
            mode=mode, predicate=source, holds=holds,
            witness=witness, certificate=certificate,
            nodes_explored=result.nodes_explored,
            strategy=self.strategy, result=result,
            meta={"short_circuited":
                  result.truncation_reason.startswith("query")},
        )


@dataclass(slots=True)
class _Run:
    """What one exploration call shares between :meth:`_walk
    <SmoothSolutionSolver._walk>` and its frontier: the budgets, the
    query watch, and the classified nodes as trace handles
    (``node[0]``), unpacked only at the API boundary."""

    tracer: Tracer
    result: SolverResult
    max_depth: int
    max_nodes: int
    budget_seconds: Optional[float]
    deadline: Optional[float]
    watch: Optional[Callable[[Trace], str]]
    metrics: Optional[MetricsRegistry]
    profile: Optional[object]
    engine: object = None  # set (memoized under dedup) by _run
    session: int = 0  # nodes classified by this call
    finite: list = field(default_factory=list)
    bound: list = field(default_factory=list)
    dead: list = field(default_factory=list)
    parked: list = field(default_factory=list)

    def guard(self, depth: int) -> str:
        """Why the next node (at ``depth``) may not be explored; ``""``
        while both budgets hold."""
        if self.session >= self.max_nodes:
            return (f"node budget ({self.max_nodes}) exhausted at "
                    f"depth {depth}")
        if self.deadline is not None and \
                time.monotonic() > self.deadline:
            return (f"wall-clock budget ({self.budget_seconds}s) "
                    f"exhausted at depth {depth}")
        return ""

    def park(self, reason: str, nodes: Iterable,
             meta: Optional[dict] = None) -> None:
        """Mark the result partial and park never-classified nodes on
        ``unvisited`` — never the frontier, whose invariant ("still
        has admissible extensions") was never checked for them.
        Keeping the buckets apart is what makes resume sound."""
        result = self.result
        result.truncated = True
        result.truncation_reason = reason
        self.parked.extend(node[0] for node in nodes)
        if meta is not None:
            result.strategy_meta = meta
        if self.tracer.enabled:
            self.tracer.event("solver.truncate", category="solver",
                              track="solver", reason=reason,
                              parked=len(self.parked))


class _Frontier:
    """A visit order for :meth:`SmoothSolutionSolver._walk`.

    ``next_depth()`` is the depth of the next node to classify, or
    ``None`` once the frontier is exhausted; ``take(n)`` removes up to
    ``n`` such nodes and returns them with their ``g`` values;
    ``push(depth, born)`` receives the children of the nodes just
    classified at ``depth``; ``park(reason, rest)`` parks what is left
    plus the taken but unclassified ``rest``; ``close()`` ends a walk.
    """

    __slots__ = ("run",)

    def __init__(self, run: _Run) -> None:
        self.run = run

    def close(self) -> None:
        pass


class _LevelFrontier(_Frontier):
    """Breadth-first order: a FIFO of whole levels.

    :meth:`take` hands the current level out in chunks (the loop sizes
    them to the node budget, so truncation points are deterministic)
    and evaluates ``g`` over each chunk with one ``g_batch`` call.
    Checkpoint seeds join their depth's level ahead of the nodes
    derived there.  With a tracer attached every level is bracketed by
    a ``solver.level`` span and closes one entry of the profile's
    per-level series.
    """

    __slots__ = ("pending", "depth", "level", "pos", "next", "span",
                 "mark")

    def __init__(self, run: _Run, seeds: list) -> None:
        super().__init__(run)
        self.pending: dict = {}  # seeds not yet reached, by depth
        for depth, node in seeds:
            self.pending.setdefault(depth, []).append(node)
        self.depth = -1
        self.level: list = []
        self.pos = 0
        self.next: list = []
        self.span = None
        self.mark: tuple = ()

    def next_depth(self) -> Optional[int]:
        if self.pos < len(self.level):
            return self.depth
        self.close()
        pending = self.pending
        if self.next:
            self.depth += 1
            self.level = self.next
        elif pending:
            self.depth = min(pending)
            self.level = pending.pop(self.depth)
        else:
            return None
        self.pos = 0
        self.next = pending.pop(self.depth + 1, [])
        run = self.run
        if run.profile is not None:
            self.span = run.tracer.span(
                "solver.level", category="solver", track="solver",
                depth=self.depth, width=len(self.level))
            self.span.__enter__()
            self.mark = (time.perf_counter_ns(), run.session,
                         len(run.finite), len(run.dead))
        return self.depth

    def take(self, n: int) -> tuple:
        level, pos = self.level, self.pos
        batch = (level if pos == 0 and n >= len(level)
                 else level[pos:pos + n])
        self.pos = pos + len(batch)
        return batch, self.run.engine.g_batch(batch)

    def push(self, depth: int, born: list) -> None:
        self.next += born

    def park(self, reason: str, rest: Iterable = ()) -> None:
        pending = self.pending
        self.run.park(reason, [
            *rest, *self.level[self.pos:], *self.next,
            *(node for depth in sorted(pending)
              for node in pending[depth])])

    def close(self) -> None:
        if self.span is None:
            return
        run, profile = self.run, self.run.profile
        t0, session, accepted, dead = self.mark
        profile.note("expanded", run.session - session)
        profile.note("accepted", len(run.finite) - accepted)
        profile.note("dead_ends", len(run.dead) - dead)
        run.metrics.gauge("solver.level_width").set(len(self.next))
        profile.end_level(self.depth, len(self.level),
                          time.perf_counter_ns() - t0)
        self.span.__exit__(None, None, None)
        self.span = None


class _RankedFrontier(_Frontier):
    """Best-first order: a heap of ``(rank, seq, depth, node, g(u))``.

    The heuristic ranks a node when it is pushed, so ``g`` is
    evaluated then (over a node's children in one ``g_batch``); the
    monotone ``seq`` breaks ties FIFO, so under the ``depth`` ranking
    the pop order is exactly the BFS order.
    """

    __slots__ = ("heap", "seq", "heuristic")

    def __init__(self, run: _Run, seeds: list, heuristic) -> None:
        super().__init__(run)
        self.heap: list = []
        self.seq = 0
        self.heuristic = heuristic
        for depth, node in seeds:
            self._add(depth, [node])

    def _add(self, depth: int, nodes: list) -> None:
        engine = self.run.engine
        heuristic = self.heuristic
        rank_fn = None if heuristic.name == "depth" else heuristic.fn
        values, counts = heuristic.needs_values, heuristic.needs_counts
        for node, gu in zip(nodes, engine.g_batch(nodes)):
            rank = depth if rank_fn is None else rank_fn(
                depth,
                engine.f_lens(node) if values else (),
                engine.g_lens(gu) if values else (),
                engine.counts(node) if counts else ())
            heapq.heappush(self.heap, (rank, self.seq, depth, node, gu))
            self.seq += 1
        if self.run.profile is not None:
            self.run.profile.bump("strategy.best-first.pushed",
                                  len(nodes))

    def next_depth(self) -> Optional[int]:
        return self.heap[0][2] if self.heap else None

    def take(self, n: int) -> tuple:
        _rank, _seq, _depth, node, gu = heapq.heappop(self.heap)
        if self.run.profile is not None:
            self.run.profile.bump("strategy.best-first.popped")
        return [node], [gu]

    def push(self, depth: int, born: list) -> None:
        if born:
            self._add(depth + 1, born)

    def park(self, reason: str, rest: Iterable = ()) -> None:
        nodes = list(rest)
        while self.heap:
            nodes.append(heapq.heappop(self.heap)[3])
        self.run.park(reason, nodes)


class _DeepeningFrontier(_Frontier):
    """One iterative-deepening pass to depth ``level``: a LIFO stack
    started from the persistent seeds.

    Nodes above ``level`` are re-expanded on the way down (interior
    rework: ``g`` and children, no classification); only nodes at
    ``level`` are handed out, and their children are never pushed.
    ``alive`` collects the handed-out nodes that proved extendable,
    ``held`` the seeds sitting this pass out.
    """

    __slots__ = ("level", "stack", "alive", "held", "last")

    def __init__(self, run: _Run, seeds: list, level: int) -> None:
        super().__init__(run)
        self.level = level
        self.alive: list = []
        self.held = [seed for seed in seeds if seed[0] > level
                     or (seed[2] and seed[0] == level)]
        self.stack = [(depth, node) for depth, node, tested
                      in reversed(seeds) if depth < level
                      or (depth == level and not tested)]
        self.last = None

    def next_depth(self) -> Optional[int]:
        stack, engine = self.stack, self.run.engine
        while stack:
            depth, node = stack[-1]
            if depth == self.level:
                return depth
            stack.pop()
            kids = engine.children(node, engine.g(node))
            if self.run.profile is not None:
                self.run.profile.bump(
                    "strategy.iterative-deepening.rework")
            stack.extend((depth + 1, kid) for kid in reversed(kids))
        return None

    def take(self, n: int) -> tuple:
        _depth, node = self.stack.pop()
        self.last = node
        return [node], [self.run.engine.g(node)]

    def push(self, depth: int, born: list) -> None:
        if born:
            self.alive.append(self.last)

    def park(self, reason: str, rest: Iterable = ()) -> None:
        # classified nodes (alive, tested held seeds) are marked so
        # the resumed pass treats them as interior only
        trace = self.run.engine.trace
        tested = [_trace_key(trace(node)) for node in self.alive]
        tested += [_trace_key(trace(node))
                   for _depth, node, marked in self.held if marked]
        self.run.park(reason, [
            *rest, *(node for _depth, node in self.stack),
            *self.alive, *(node for _depth, node, _m in self.held)],
            meta={"strategy": "iterative-deepening",
                  "iteration": self.level, "tested": tested})


class _Memo:
    """Duplicate-state reduction as a wrapper around either engine.

    ``g``, the limit verdict, the admissible edges and the probe are
    computed once per per-channel projection (the paper's ``b(t)``,
    the engine's ``env_key``) and shared by every node with it.  Nodes
    are still classified one by one, so results are untouched.
    """

    __slots__ = ("engine", "profile", "memo", "_node", "_entry")

    def __init__(self, engine, profile) -> None:
        self.engine = engine
        self.profile = profile
        self.memo: dict = {}
        self._node = self._entry = None

    def __getattr__(self, name: str):
        # everything but the shared evaluations is the engine's own
        return getattr(self.engine, name)

    def _lookup(self, node) -> Optional[dict]:
        """The memo entry of ``node``'s projection; ``None`` when it
        has no hashable key (that node just skips the memo)."""
        if node is self._node:
            return self._entry
        key = self.engine.env_key(node)
        entry = None
        if key is not None:
            entry = self.memo.get(key)
            if entry is None:
                entry = self.memo[key] = {}
                if self.profile is not None:
                    self.profile.bump("dedup.states")
        self._node, self._entry = node, entry
        return entry

    def _shared(self, name: str, compute, node, *args):
        entry = self._lookup(node)
        if entry is None:
            return compute(node, *args)
        if name not in entry:
            entry[name] = compute(node, *args)
        elif self.profile is not None:
            self.profile.bump("dedup.hits")
        return entry[name]

    def g(self, node):
        return self._shared("g", self.engine.g, node)

    def g_batch(self, nodes: list) -> list:
        return [self.g(node) for node in nodes]

    def limit(self, node, gu) -> bool:
        return self._shared("limit", self.engine.limit, node, gu)

    def children(self, node, gu) -> list:
        child = self.engine.child
        return [child(node, gu, edge) for edge in
                self._shared("edges", self.engine.edges, node, gu)]

    def extendable(self, node, gu) -> bool:
        return self._shared("ext", self.engine.extendable, node, gu)


class _ReferenceEngine:
    """Exploration adapter over the reference representation.

    A node is ``(trace, f(trace))``: a live :class:`Trace` and its
    left value, carried over from the parent's scan.  Evaluation is
    charged to the profile sites ``rhs.apply``, ``limit_report`` and
    ``lhs.apply.expand``/``probe``/``root``, the sites the compiled
    engine reports too.
    """

    __slots__ = ("solver", "description", "metrics", "profile", "names",
                 "_name_set")

    def __init__(self, solver: SmoothSolutionSolver, metrics,
                 profile) -> None:
        self.solver = solver
        self.description = solver.description
        self.metrics = metrics
        self.profile = profile
        self.names = tuple(c.name
                           for c in solver._channel_universe())
        self._name_set = frozenset(self.names)

    def root(self) -> tuple:
        return _timed(self.profile, "lhs.apply.root", self.seed,
                      Trace.empty())

    def seed(self, trace: Trace) -> tuple:
        return (trace, self.description.lhs.apply(trace))

    def g(self, node: tuple):
        return _timed(self.profile, "rhs.apply",
                      self.description.rhs.apply, node[0])

    def g_batch(self, nodes: list) -> list:
        return [self.g(node) for node in nodes]

    def limit(self, node: tuple, gu) -> bool:
        return _timed(self.profile, "limit_report",
                      self.description.limit_report, node[0],
                      self.solver.limit_depth, lhs_value=node[1],
                      rhs_value=gu).holds

    def edges(self, node: tuple, gu) -> list:
        """The admissible extensions as ``(event, f(v))`` pairs —
        node-independent given the per-channel projection, which is
        what makes them memoizable under dedup."""
        solver = self.solver
        description = self.description
        f = description.lhs
        u = node[0]
        profile = self.profile
        t0 = time.perf_counter_ns() if profile is not None else 0
        events = solver._candidate_events(u, gu)
        out: list = []
        for event in events:
            fv = f.apply(u.append(event))
            if description._leq(fv, gu, solver.limit_depth):
                out.append((event, fv))
            elif self.metrics is not None:
                solver.tracer.event(
                    "solver.prune", category="solver",
                    track="solver", node=repr(u),
                    candidate=repr(event), reason="f(v) ⋢ g(u)")
        _narrate_scan(self, t0, len(events), len(out))
        return out

    @staticmethod
    def child(node: tuple, gu, edge: tuple) -> tuple:
        event, fv = edge
        return (node[0].append(event), fv)

    def children(self, node: tuple, gu) -> list:
        return [self.child(node, gu, e) for e in self.edges(node, gu)]

    def extendable(self, node: tuple, gu) -> bool:
        """The frontier probe: stops at the first admissible hit."""
        solver = self.solver
        f = self.description.lhs
        u = node[0]
        profile = self.profile
        t0 = time.perf_counter_ns() if profile is not None else 0
        tried = 0
        hit = False
        for event in solver._candidate_events(u, gu):
            tried += 1
            if self.description._leq(f.apply(u.append(event)), gu,
                                     solver.limit_depth):
                hit = True
                break
        if profile is not None:
            profile.add("lhs.apply.probe",
                        time.perf_counter_ns() - t0, calls=tried)
        return hit

    @staticmethod
    def unpack(trace: Trace) -> Trace:
        return trace

    @staticmethod
    def trace(node: tuple) -> Trace:
        return node[0]

    def env_key(self, node: tuple):
        """The per-channel projection of the trace — the paper's
        ``b(t)`` — as a hashable key; ``None`` when some message is
        unhashable."""
        per: dict = {}
        for e in node[0]:
            per.setdefault(e.channel.name, []).append(e.message)
        extra = sorted(n for n in per if n not in self._name_set)
        key = (tuple(tuple(per.get(n, ())) for n in self.names)
               + tuple((n, tuple(per[n])) for n in extra))
        try:
            hash(key)
        except TypeError:
            return None
        return key

    @staticmethod
    def f_lens(node: tuple) -> tuple:
        return component_lengths(node[1])

    @staticmethod
    def g_lens(value) -> tuple:
        return component_lengths(value)

    def counts(self, node: tuple) -> tuple:
        per = {n: 0 for n in self.names}
        for e in node[0]:
            per[e.channel.name] = per.get(e.channel.name, 0) + 1
        return tuple(per[n] for n in sorted(per))


class _CompiledEngine:
    """Exploration adapter over the packed representation.

    A node is the flat tuple ``(packed, env, f(u), parent g, cid)``:
    the interned trace, its per-channel messages (the projection, and
    so the dedup key), the left value from the parent's scan, and the
    parent's ``g`` with the channel the last event was appended on —
    ``g`` is re-evaluated incrementally, components that do not read
    that channel reuse the parent's value.  ``f(v) ⊑ g(u)`` is a
    prefix test on flat tuples.  Feature values (lengths, counts) are
    the reference engine's integers, so even truncated best-first
    runs pop identically on both engines.
    """

    __slots__ = ("solver", "metrics", "profile", "table", "lhs", "rhs",
                 "leq", "acts", "unpack")

    def __init__(self, solver: SmoothSolutionSolver, compiled,
                 metrics, profile) -> None:
        self.solver = solver
        self.metrics = metrics
        self.profile = profile
        self.table = compiled.table
        self.lhs = compiled.lhs
        self.rhs = compiled.rhs
        self.leq = compiled.leq
        # acts carries the raw message so the one-slot environment
        # surgery in the scans needs no table call per candidate
        self.acts = tuple(
            (pair, pair[0], self.table.messages[pair[1]], event)
            for pair, _cid, event in compiled.actions)
        self.unpack = self.table.unpack

    def root(self) -> tuple:
        env = self.table.empty_env
        fu = _timed(self.profile, "lhs.apply.root", self.lhs.eval, env)
        return ((), env, fu, None, -1)

    def seed(self, trace: Trace) -> tuple:
        packed = self.table.pack(trace)
        env = self.table.env_of(packed)
        return (packed, env, self.lhs.eval(env), None, -1)

    def g(self, node: tuple):
        return self.g_batch((node,))[0]

    def g_batch(self, nodes) -> list:
        rhs_eval = self.rhs.eval
        after = self.rhs.after
        profile = self.profile
        t0 = time.perf_counter_ns() if profile is not None else 0
        gs = [rhs_eval(env) if pgu is None else after[cid](env, pgu)
              for _packed, env, _fu, pgu, cid in nodes]
        if profile is not None:
            profile.add("rhs.apply", time.perf_counter_ns() - t0,
                        calls=len(gs))
        return gs

    def limit(self, node: tuple, gu) -> bool:
        # the limit condition f(u) = g(u): exact equality, because
        # both values are finite
        if self.profile is None:
            return node[2] == gu
        return _timed(self.profile, "limit_report", eq, node[2], gu)

    def children(self, node: tuple, gu) -> list:
        packed, env, fu, _pgu, _cid = node
        profile = self.profile
        metrics = self.metrics
        t0 = time.perf_counter_ns() if profile is not None else 0
        leq = self.leq
        lhs_after = self.lhs.after
        kids: list = []
        for pair, cid, msg, event in self.acts:
            env_v = env[:cid] + (env[cid] + (msg,),) + env[cid + 1:]
            fv = lhs_after[cid](env_v, fu)
            if leq(fv, gu):
                kids.append((packed + (pair,), env_v, fv, gu, cid))
            elif metrics is not None:
                self.solver.tracer.event(
                    "solver.prune", category="solver",
                    track="solver", node=repr(self.unpack(packed)),
                    candidate=repr(event), reason="f(v) ⋢ g(u)")
        if metrics is not None or profile is not None:
            _narrate_scan(self, t0, len(self.acts), len(kids))
        return kids

    def edges(self, node: tuple, gu) -> list:
        """The admissible extensions as ``(pair, env, f(v), cid)`` —
        node-independent given the environment, which is what makes
        them memoizable under dedup."""
        return [(kid[0][-1], kid[1], kid[2], kid[4])
                for kid in self.children(node, gu)]

    @staticmethod
    def child(node: tuple, gu, edge: tuple) -> tuple:
        pair, env_v, fv, cid = edge
        return (node[0] + (pair,), env_v, fv, gu, cid)

    def extendable(self, node: tuple, gu) -> bool:
        _packed, env, fu, _pgu, _cid = node
        profile = self.profile
        t0 = time.perf_counter_ns() if profile is not None else 0
        leq = self.leq
        lhs_after = self.lhs.after
        tried = 0
        hit = False
        for _pair, cid, msg, _event in self.acts:
            tried += 1
            env_v = env[:cid] + (env[cid] + (msg,),) + env[cid + 1:]
            if leq(lhs_after[cid](env_v, fu), gu):
                hit = True
                break
        if profile is not None:
            profile.add("lhs.apply.probe",
                        time.perf_counter_ns() - t0, calls=tried)
        return hit

    def trace(self, node: tuple) -> Trace:
        return self.unpack(node[0])

    @staticmethod
    def env_key(node: tuple):
        return node[1]

    def f_lens(self, node: tuple) -> tuple:
        fu = node[2]
        return tuple(map(len, fu)) if self.lhs.is_product else (len(fu),)

    def g_lens(self, gu) -> tuple:
        return tuple(map(len, gu)) if self.rhs.is_product else (len(gu),)

    @staticmethod
    def counts(node: tuple) -> tuple:
        return tuple(len(msgs) for msgs in node[1])


def _timed(profile, site: str, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, charged to ``site`` when profiling."""
    if profile is None:
        return fn(*args, **kwargs)
    t0 = time.perf_counter_ns()
    value = fn(*args, **kwargs)
    profile.add(site, time.perf_counter_ns() - t0)
    return value


def _narrate_scan(engine, t0: int, proposed: int, kept: int) -> None:
    """Charge one candidate scan to the ``lhs.apply.expand`` site and
    the branching/prune metrics (each side only when attached)."""
    profile = engine.profile
    if profile is not None:
        profile.add("lhs.apply.expand", time.perf_counter_ns() - t0,
                    calls=proposed)
        profile.note("proposed", proposed)
        profile.note("pruned", proposed - kept)
    metrics = engine.metrics
    if metrics is not None:
        metrics.counter("solver.candidates_proposed").inc(proposed)
        metrics.counter("solver.candidates_pruned").inc(
            proposed - kept)
        metrics.histogram("solver.branching").record(kept)


def solve(description: Description, channels: Iterable[Channel],
          max_depth: int,
          limit_depth: int = DEFAULT_DEPTH,
          tracer: Optional[Tracer] = None,
          cache: Optional[object] = None,
          compiled: Optional[bool] = None,
          strategy: str = "bfs",
          heuristic: str = "rhs-distance",
          dedup: bool = False) -> SolverResult:
    """One-call convenience: explore over the channels' alphabets.

    With ``cache`` (a :class:`repro.cache.CacheStore`), the
    exploration consults the persistent result store first and stores
    its result back — a repeated ``solve`` of the same description /
    alphabet / budgets is a disk read, digest-identical to the
    computed one.  ``compiled`` selects the exploration engine (see
    :class:`SmoothSolutionSolver`): ``None`` auto-detects, ``False``
    forces the reference path, ``True`` demands the compiled one.
    ``strategy`` / ``heuristic`` / ``dedup`` select the exploration
    order (see :mod:`repro.core.search`); every strategy finds the
    same solution set wherever it completes.
    """
    solver = SmoothSolutionSolver.over_channels(
        description, channels, limit_depth=limit_depth, tracer=tracer,
        cache=cache, compiled=compiled, strategy=strategy,
        heuristic=heuristic, dedup=dedup
    )
    return solver.explore(max_depth)


def solve_query(description: Description,
                channels: Iterable[Channel],
                predicate, max_depth: int, mode: str = "exists",
                limit_depth: int = DEFAULT_DEPTH,
                max_nodes: int = 200_000,
                budget_seconds: Optional[float] = None,
                tracer: Optional[Tracer] = None,
                cache: Optional[object] = None,
                compiled: Optional[bool] = None,
                strategy: str = "best-first",
                heuristic: str = "rhs-distance",
                dedup: bool = False) -> "QueryResult":
    """One-call query: "does a finite smooth solution matching
    ``predicate`` exist within ``max_depth``?" (``mode="exists"``) or
    "do all of them match?" (``mode="all"``) — short-circuiting at the
    first witness / counterexample instead of enumerating the full
    solution set.  See :meth:`SmoothSolutionSolver.query`.  Defaults
    to best-first exploration under the rhs-distance heuristic, which
    pops solution-shaped nodes first — the combination the EXT-SEARCH
    benchmark pins as expanding measurably fewer nodes than ``solve``.
    """
    solver = SmoothSolutionSolver.over_channels(
        description, channels, limit_depth=limit_depth, tracer=tracer,
        cache=cache, compiled=compiled, strategy=strategy,
        heuristic=heuristic, dedup=dedup
    )
    return solver.query(predicate, max_depth, mode=mode,
                        max_nodes=max_nodes,
                        budget_seconds=budget_seconds)


def rhs_guided_candidates(channels: Iterable[Channel],
                          description: Description,
                          probe_depth: int = 32) -> CandidateFn:
    """Candidates drawn from what the right side currently allows.

    For a node ``u`` the admissible extensions satisfy ``f(v) ⊑ g(u)``;
    when ``f`` observes single channels, any new event's message must
    already appear in the corresponding component of ``g(u)``.  This
    generator proposes, per channel, the messages occurring in ``g(u)``
    (flattened across tuple components) — a finite set even when the
    channel alphabet is infinite.  It may over-approximate (harmless:
    inadmissible candidates are pruned by the ``f(v) ⊑ g(u)`` test) but
    never misses an admissible output event of the §2.3 kind.
    """
    channel_list = sorted(channels)

    def candidates(u: Trace, gu: object = None) -> Iterable[Event]:
        # ``explore`` computed g(u) for this exact node already (the
        # one-g-per-node discipline); only standalone callers pay for
        # a fresh evaluation
        if gu is None:
            gu = description.rhs.apply(u)
        messages = _flatten_messages(gu, probe_depth)
        for c in channel_list:
            for m in messages:
                if c.admits(m):
                    yield Event(c, m)

    candidates.accepts_gu = True
    candidates.cache_key = {
        "kind": "rhs-guided",
        "channels": [c.name for c in channel_list],
        "probe_depth": probe_depth,
        "description": getattr(description, "name", ""),
    }
    return candidates


def _flatten_messages(value: object, probe_depth: int) -> list:
    """Collect message values occurring in a codomain value."""
    from repro.seq.finite import Seq

    out: list = []
    if isinstance(value, tuple):
        for v in value:
            out.extend(_flatten_messages(v, probe_depth))
        return _dedup(out)
    if isinstance(value, Seq):
        out.extend(value.take(probe_depth).items)
        return _dedup(out)
    if isinstance(value, Trace):
        out.extend(
            e.message for e in value.take(probe_depth)
        )
        return _dedup(out)
    out.append(value)
    return _dedup(out)


def _dedup(items: list) -> list:
    """Order-preserving dedup on ``(type, value)`` identity.

    Plain hash equality would collapse ``True``/``1``/``1.0`` into one
    candidate message (they are equal and hash alike), silently
    shrinking the proposed event set for mixed-type alphabets; keying
    on the concrete type keeps distinct messages distinct.
    """
    seen = set()
    result = []
    for x in items:
        try:
            key = (type(x), x)
            if key in seen:
                continue
            seen.add(key)
        except TypeError:
            if any(type(y) is type(x) and y == x for y in result):
                continue
        result.append(x)
    return result
