"""Tests of the benchmark itself.

    python -m pytest perfbench -q

They drive the workloads in-process for a cycle or two, so they check
what the benchmark reports, not how fast the library is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

#: the per-layer metrics each workload must report as non-zero
ENTERED = {
    "solve": ["core.solver.explore_ms", "core.solver.us_per_node",
              "core.solver.build_ms", "core.solver.nodes",
              "core.solver.solutions", "core.compiled.compile_ms",
              "core.compiled.engaged", "traces.sequence_on_calls",
              "core.solver.share", "core.compiled.share"],
    "query": ["core.search.exhaustive_ms", "core.search.us_per_node",
              "core.search.witness_ms", "core.search.witness_nodes",
              "core.search.node_ratio", "core.compiled.compile_ms",
              "core.compiled.engaged", "core.solver.build_ms",
              "traces.sequence_on_calls", "core.search.share",
              "core.compiled.share", "core.solver.share"],
    "grid-dfm": ["core.description.check_ms", "core.description.events",
                 "core.description.us_per_event",
                 "traces.sequence_on_calls", "faults.supervision.run_ms",
                 "kahn.steps", "kahn.us_per_step",
                 "kahn.runtime.digest_ms", "faults.harness.self_ms",
                 "core.description.share", "kahn.share",
                 "faults.harness.share"],
    "grid-abp": ["core.description.check_ms", "core.description.events",
                 "core.description.us_per_event",
                 "traces.sequence_on_calls", "faults.supervision.run_ms",
                 "kahn.steps", "kahn.us_per_step",
                 "kahn.runtime.digest_ms", "cache.get_ms", "cache.put_ms",
                 "cache.hits", "cache.misses", "cache.writes",
                 "cache.hit_ratio", "faults.harness.self_ms",
                 "core.description.share", "kahn.share", "cache.share",
                 "faults.harness.share"],
}

#: counts that are a function of the seed alone
EXACT = ("core.solver.nodes", "core.solver.solutions",
         "core.search.witness_nodes", "kahn.steps",
         "traces.sequence_on_calls", "cache.hit_ratio")


def traced_run(name, tmp_path):
    """One untraced and one traced cycle, as ``run.py --trace 1``."""
    workload = workloads.make(name, SEED, tmp_path)
    recorder = layers.Recorder()
    try:
        tally = run.measure(workload, 0, recorder)
    finally:
        workload.close()
    metrics = layers.summarize(recorder, workload.root_layer, 0.0)
    return workload, tally, recorder, metrics


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of each workload with the same seed."""
    return {name: [traced_run(name, tmp_path_factory.mktemp(name))
                   for _ in range(2)]
            for name in workloads.WORKLOADS}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_answer_verifies_and_every_layer_reports(traced, name):
    for _workload, tally, recorder, metrics in traced[name]:
        assert tally.failed == 0 and tally.attempted > 0
        assert recorder.roots
        missing = [m for m in ENTERED[name] if not metrics[m][0] > 0]
        assert not missing
        assert set(metrics) == {n for n, _ in layers.PER_LAYER}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_across_runs_of_one_seed(traced, name):
    first, second = (metrics for *_, metrics in traced[name])
    assert [first[m] for m in EXACT] == [second[m] for m in EXACT]


def test_pinned_counts(traced):
    solve = traced["solve"][0][3]
    assert solve["core.solver.nodes"][0] == 21689
    assert solve["core.solver.solutions"][0] == 605
    assert solve["core.compiled.engaged"][0] == 1
    assert traced["grid-abp"][0][3]["cache.hit_ratio"][0] == 0.5
    assert traced["grid-abp"][0][3]["cache.hits"][0] == 8


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_shares_add_up_on_each_request(traced, name):
    _workload, _tally, recorder, _metrics = traced[name][0]
    for root in recorder.roots:
        shares = layers.request_shares(root, recorder.spans)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["grid-dfm", "grid-abp"])
def test_traced_cells_equal_untraced_cells(tmp_path, name):
    workload = workloads.make(name, SEED, tmp_path)
    recorder = layers.Recorder()
    try:
        request = workload.cycle()[0]
        reports = []
        for wrapped in (False, True):
            workload.before_cycle()
            if wrapped:
                with layers.installed(recorder, workload.wraps):
                    recorder.begin(workload.root_layer)
                    reports.append(workload.run(request))
                    recorder.end(0, 0)
            else:
                reports.append(workload.run(request))
    finally:
        workload.close()
    assert len(recorder.spans) > 1
    cells = [[(c.plan, c.seed, c.outcome, c.cached, c.run_digest())
              for c in report.cases] for report in reports]
    assert cells[0] == cells[1]


def test_wrappers_are_removed_after_the_traced_cycle():
    from repro.core.solver import SmoothSolutionSolver
    from repro.traces.trace import Trace

    before = (vars(SmoothSolutionSolver)["over_channels"],
              Trace.sequence_on)
    with layers.installed(layers.Recorder(), layers.TARGETS):
        assert Trace.sequence_on is not before[1]
    assert (vars(SmoothSolutionSolver)["over_channels"],
            Trace.sequence_on) == before


def test_pinned_answers_come_from_the_reference_engine():
    from repro import par
    from repro.core import SmoothSolutionSolver
    from repro.core.search import parse_predicate

    scenario = par.get_scenario("dfm")
    known = workloads.KNOWN
    result = SmoothSolutionSolver.over_channels(
        scenario.spec, scenario.channels, compiled=False).explore(
            known["solve"]["depth"])
    assert (result.nodes_explored, len(result.finite_solutions),
            len(result.frontier), result.digest()) == (
        known["solve"]["nodes"], known["solve"]["finite_solutions"],
        known["solve"]["frontier"], known["solve"]["digest"])
    for question in known["query"]["bank"]:
        predicate = parse_predicate(question["predicate"])
        hits = [predicate(t) for t in result.finite_solutions]
        holds = any(hits) if question["mode"] == "exists" else all(hits)
        assert holds == question["holds"], question


def test_command_prints_one_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid-abp",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
        == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
