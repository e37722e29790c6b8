"""The four closed-loop workloads, one layer each.

A workload turns the workload seed into a fixed cycle of requests and
drives the library's public entry points with them.  ``run`` is the
only timed call; ``verify`` checks the answer against the pinned known
answers in ``known_answers.json`` and runs outside the timed window.
A seed changes the inputs of a cycle, never its mix, so every run
repeats whole cycles of the same work.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
KNOWN = json.loads((HERE / "known_answers.json").read_text("utf-8"))


class Workload:
    """One single-threaded client: requests, timed runs, checks."""

    name = ""
    #: the layer that owns a request's own time (the root span)
    root_layer = ""
    #: the functions the traced run wraps (keys of ``layers.TARGETS``)
    wraps: tuple = ()

    def cycle(self) -> list:
        """The requests of one cycle, in the order they are sent."""
        raise NotImplementedError

    def first_request(self):
        """The request the setup time ends with."""
        return self.cycle()[0]

    def run(self, request):
        raise NotImplementedError

    def verify(self, request, answer) -> bool:
        raise NotImplementedError

    def verdicts(self, answer) -> int:
        """Verdicts in one answer: enumerations, answers or cells."""
        return 1

    def computed(self, answer) -> int:
        """Verdicts computed rather than served from a cache."""
        return self.verdicts(answer)

    def before_cycle(self) -> None:
        """Untimed preparation of the next cycle."""

    def close(self) -> None:
        """Release what the workload opened."""


class Solve(Workload):
    """Enumerate dfm's smooth solutions at depth 6 with BFS on the
    auto-selected engine, as ``python -m repro solve dfm --depth 6``.

    The seed orders the six permutations of the candidate channels; a
    cycle enumerates the tree once per permutation.  The solution set
    and node count do not depend on the order."""

    name = "solve"
    root_layer = "core.solver"
    wraps = ("compile", "build", "explore", "sequence_on")

    def __init__(self, seed: int):
        from repro import par

        scenario = par.get_scenario("dfm")
        self.spec = scenario.spec
        self.known = KNOWN["solve"]
        orders = list(itertools.permutations(scenario.channels))
        random.Random(seed).shuffle(orders)
        self.orders = [list(order) for order in orders]

    def cycle(self) -> list:
        return self.orders

    def run(self, channels):
        from repro.core import SmoothSolutionSolver

        solver = SmoothSolutionSolver.over_channels(self.spec, channels)
        return solver.explore(self.known["depth"])

    def verify(self, channels, result) -> bool:
        known = self.known
        return (not result.truncated
                and result.nodes_explored == known["nodes"]
                and len(result.finite_solutions)
                == known["finite_solutions"]
                and len(result.frontier) == known["frontier"]
                and result.digest() == known["digest"])


class Query(Workload):
    """Ask a fixed bank of dfm questions at depth 6 with the default
    best-first search, as ``python -m repro query dfm``.

    Three quarters of the bank settle on a witness within 7-47 nodes;
    the rest must search the whole tree.  The seed permutes the bank
    and a cycle asks every question once, so ``p50_ms`` falls among
    the witness questions and ``tail_ms`` among the exhaustive ones.
    """

    name = "query"
    root_layer = "core.search"
    wraps = ("compile", "build", "query", "sequence_on")

    def __init__(self, seed: int):
        from repro import par

        scenario = par.get_scenario("dfm")
        self.spec = scenario.spec
        self.channels = list(scenario.channels)
        self.known = KNOWN["query"]
        self.bank = list(self.known["bank"])
        self.order = list(self.bank)
        random.Random(seed).shuffle(self.order)

    def cycle(self) -> list:
        return self.order

    def first_request(self):
        # fixed, so set-up time does not depend on which question a
        # seed happens to put first
        return self.bank[0]

    def run(self, question):
        from repro.core import SmoothSolutionSolver

        solver = SmoothSolutionSolver.over_channels(
            self.spec, self.channels, strategy="best-first")
        return solver.query(question["predicate"], self.known["depth"],
                            mode=question["mode"])

    def verify(self, question, answer) -> bool:
        return (answer.resolved
                and answer.holds == question["holds"]
                and answer.nodes_explored == question["nodes"])


class _Grid(Workload):
    """A serial conformance grid of a registered scenario, as
    ``python -m repro grid <scenario>``; one request is one grid."""

    root_layer = "faults.harness"
    wraps = ("run_supervised", "check", "digest", "cache_get",
             "cache_put", "sequence_on")
    scenario = ""

    def __init__(self, seed: int):
        self.known = KNOWN[self.name]
        self.rng = random.Random(seed)

    def grid(self, seeds, cache=None):
        from repro import par

        return par.run_conformance_parallel(
            self.scenario, seeds=seeds, workers=1, record=True,
            cache=cache)

    def verdicts(self, report) -> int:
        return len(report.cases)

    def computed(self, report) -> int:
        return sum(1 for case in report.cases if not case.cached)

    def conforms(self, report, seeds) -> bool:
        cells = [(plan, seed) for plan in self.known["plans"]
                 for seed in seeds]
        return ([(c.plan, c.seed) for c in report.cases] == cells
                and all(c.outcome == self.known["outcome"]
                        for c in report.cases))


class GridDfm(_Grid):
    """The dfm grid: 3 plans x 4 oracle seeds, recording on, no cache.

    A cycle runs four grids, each with its own four oracle seeds drawn
    from the workload seed.  Most cell time is the smoothness checker
    on traces of 78-160 events at depth 192; trace length is fixed per
    plan, so the seeds change only the interleaving.  A grid's report
    digest must repeat every time it runs."""

    name = "grid-dfm"
    scenario = "dfm"
    grids_per_cycle = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        seeds = self.rng.sample(range(1, 1_000_000),
                                4 * self.grids_per_cycle)
        self.grids = [tuple(seeds[4 * k: 4 * k + 4])
                      for k in range(self.grids_per_cycle)]
        #: oracle seeds -> report digest of the grid's first run
        self.digests: dict = {}

    def cycle(self) -> list:
        return self.grids

    def run(self, seeds):
        return self.grid(seeds)

    def verify(self, seeds, report) -> bool:
        if not self.conforms(report, seeds) or report.cached_cases:
            return False
        return (self.digests.setdefault(seeds, report.digest())
                == report.digest())


class GridAbp(_Grid):
    """The alternating_bit grid: 4 plans x 4 oracle seeds, serial,
    against one ``CacheStore`` opened at set-up.

    The seeds slide along a ring drawn from the workload seed: each
    request re-runs the two newest seeds of the one before (8 cache
    hits) and adds two new ones (8 misses, run and written).  Before
    each cycle the store is emptied and the first request's two old
    seeds are pre-run, untimed, so every request is exactly half
    hits.  A hit must carry the run digest recorded when that cell
    missed."""

    name = "grid-abp"
    scenario = "alternating_bit"
    requests_per_cycle = 8

    def __init__(self, seed: int, cache_dir: Path):
        super().__init__(seed)
        from repro.cache import CacheStore

        n = self.requests_per_cycle
        self.ring = self.rng.sample(range(1, 1_000_000), 2 * n + 2)
        self.cache_dir = Path(cache_dir)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.store = CacheStore(self.cache_dir)
        #: (plan, seed) -> (run digest, schedule digest) of the cell
        #: when it missed
        self.digests: dict = {}
        self.prewarm_ok = True

    def cycle(self) -> list:
        return [self.ring[2 * k: 2 * k + 4]
                for k in range(self.requests_per_cycle)]

    def before_cycle(self) -> None:
        self.store.clear()
        seeds = self.ring[:2]
        report = self.grid(seeds, cache=self.store)
        self.prewarm_ok = (self.prewarm_ok
                           and self.conforms(report, seeds)
                           and self._digests_agree(report, ()))

    def run(self, seeds):
        return self.grid(seeds, cache=self.store)

    def verify(self, seeds, report) -> bool:
        return (self.prewarm_ok and self.conforms(report, seeds)
                and self._digests_agree(report, seeds[:2]))

    def _digests_agree(self, report, cached_seeds) -> bool:
        ok = True
        for case in report.cases:
            hit = case.seed in cached_seeds
            digests = (case.run_digest(), case.schedule.digest())
            ok = ok and case.cached == hit and None not in digests
            recorded = self.digests.setdefault((case.plan, case.seed),
                                               digests)
            ok = ok and digests == recorded
        return ok

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Solve, Query, GridDfm, GridAbp)}


def make(name: str, seed: int, out_dir: Path) -> Workload:
    """Build workload ``name`` for ``seed``; ``out_dir`` holds any
    files it writes (the grid-abp cache store)."""
    cls = WORKLOADS[name]
    if cls is GridAbp:
        return cls(seed, out_dir / f"cache-{seed}")
    return cls(seed)
