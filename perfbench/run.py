#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from
``src/`` and nothing is installed.  The process re-executes itself
once with ``PYTHONHASHSEED`` derived from ``--seed``, then:

1. runs whole cycles of the workload's requests in this process, one
   at a time, for ``--seconds`` seconds, checking every answer
   against ``known_answers.json`` outside the timed window;
2. measures set-up time as the median of several cold starts spread
   over the run, each a fresh interpreter that imports the library,
   builds the workload and answers one verified request;
3. prints every metric with its unit and sample count, then, as the
   last line, one JSON object ``{"correct", "attempted", "failed",
   "metrics"}``.

With ``--trace 1`` every second cycle runs with the per-layer wrappers
of ``layers.py`` installed; the run prints the per-layer table instead
of the end-to-end metrics, writes the spans as a Perfetto trace under
``.perfbench/`` and reports the tracing overhead against the untraced
cycles of the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: everything a run writes: the grid-abp cache store and span exports
OUT_DIR = ROOT / ".perfbench"
#: cold starts per run; ``setup_s`` is their median
SETUP_RUNS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("verdicts_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a workload seed runs under."""
    return str(seed % 4_294_967_295 + 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def answer_first(workload) -> bool:
    """Send the set-up request; is its answer the known one?"""
    workload.before_cycle()
    request = workload.first_request()
    return workload.verify(request, workload.run(request))


def setup_probe(args) -> int:
    """One cold start: build the workload and answer its first request;
    print the monotonic clock at the moment the answer is verified."""
    workload = workloads.make(args.workload, args.seed, OUT_DIR / "probe")
    try:
        ok = answer_first(workload)
        ready = time.monotonic()
    finally:
        workload.close()
    print(json.dumps({"ready": ready, "ok": ok}))
    return 0 if ok else 1


def cold_start(args) -> tuple:
    """Run one set-up probe in a fresh interpreter: (seconds, ok)."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited {done.returncode}")
    ready = json.loads(done.stdout.splitlines()[-1])
    return ready["ready"] - started, ready["ok"] and done.returncode == 0


class Tally:
    """What one run observed, traced and untraced requests apart."""

    def __init__(self):
        #: traced? -> position of the request in the cycle -> seconds
        #: of each of its repeats
        self.repeats = {False: {}, True: {}}
        #: position in the cycle -> verdicts in that request's answer
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        #: seconds of each cold start, and whether all answered right
        self.setup: list = []
        self.setup_ok = True

    def latencies(self, traced: bool = False) -> list:
        """Each request's latency in this run: the fastest of its
        repeats.

        A request recurs once per cycle and does the same work every
        time, so its spread across repeats is the machine's, not the
        program's: the VM's speed moves between levels up to 1.75x
        apart every few seconds.  The fastest repeat is what the
        request costs when nothing slows the machine down."""
        return [min(samples) for samples in self.repeats[traced].values()]

    def samples(self, traced: bool = False) -> int:
        return sum(len(s) for s in self.repeats[traced].values())


def run_cycle(workload, tally: Tally, recorder=None) -> None:
    """Send one cycle of requests, each after the previous answer."""
    traced = recorder is not None
    workload.before_cycle()
    for position, request in enumerate(workload.cycle()):
        tally.attempted += 1
        # each request starts on a clean heap, as in one CLI
        # invocation, whatever the request before it left behind
        gc.collect()
        if traced:
            recorder.begin(workload.root_layer)
        started = time.perf_counter()
        try:
            answer = workload.run(request)
        except Exception:
            traceback.print_exc()
            tally.failed += 1
            if traced:
                recorder.abandon()
            continue
        elapsed = time.perf_counter() - started
        if traced:
            recorder.end(workload.verdicts(answer),
                         workload.computed(answer))
        tally.repeats[traced].setdefault(position, []).append(elapsed)
        tally.verdicts[position] = workload.verdicts(answer)
        if not workload.verify(request, answer):
            tally.failed += 1
        del answer  # freed here, not inside the next timed request


def measure(workload, seconds: float, recorder=None,
            probe=None) -> Tally:
    """Whole cycles for ``seconds`` of the client's own time; with a
    recorder, every second cycle runs with the per-layer wrappers
    installed.

    ``probe`` (a :func:`cold_start`) runs ``SETUP_RUNS`` times, spread
    evenly over the run between cycles and not counted in its length,
    so their median samples the machine at several moments rather
    than one."""
    tally = Tally()
    started = time.monotonic()
    probing = 0.0
    cycle = 0

    def elapsed():
        return time.monotonic() - started - probing

    def cold_start_once():
        nonlocal probing
        before = time.monotonic()
        took, ok = probe()
        probing += time.monotonic() - before
        tally.setup.append(took)
        tally.setup_ok = tally.setup_ok and ok

    while cycle < 2 or elapsed() < seconds:
        if (probe is not None and len(tally.setup) < SETUP_RUNS
                and elapsed() >= len(tally.setup) * seconds / SETUP_RUNS):
            cold_start_once()
        if recorder is not None and cycle % 2:
            with layers.installed(recorder, workload.wraps):
                run_cycle(workload, tally, recorder)
        else:
            run_cycle(workload, tally)
        cycle += 1
    while probe is not None and len(tally.setup) < SETUP_RUNS:
        cold_start_once()
    return tally


def tail(latencies: list) -> float:
    """The 90th percentile of the request mix, interpolated between
    the requests of one cycle."""
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def end_to_end(tally: Tally) -> dict:
    latencies = tally.latencies()
    samples = tally.samples()
    ok = tally.attempted - tally.failed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(tally.setup), len(tally.setup)),
        "ok_share": (ok / tally.attempted, tally.attempted),
        "verdicts_per_s": (sum(tally.verdicts.values()) / sum(latencies),
                           samples),
        "p50_ms": (statistics.median(latencies) * 1e3, samples),
        "tail_ms": (tail(latencies) * 1e3, samples),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.seed))
        os.execve(sys.executable, [sys.executable,
                                   str(Path(__file__).resolve()), *argv],
                  env)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources at {ROOT / 'src'}: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    recorder = layers.Recorder() if args.trace else None
    # set-up time is reported by the untraced run only
    probe = None if args.trace else (lambda: cold_start(args))
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    try:
        # the lazy imports of the first request stay out of the timing
        warm_ok = answer_first(workload)
        tally = measure(workload, args.seconds, recorder, probe)
    finally:
        workload.close()
    setup_ok = warm_ok and tally.setup_ok
    correct = setup_ok and tally.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"PYTHONHASHSEED={hash_seed(args.seed)}")
    print(f"verified {tally.attempted - tally.failed}/{tally.attempted} "
          "requests against the known answers"
          + ("" if setup_ok else "; a set-up request FAILED")
          + (": ok" if correct else ": FAILED"))
    if recorder is None:
        rows = end_to_end(tally)
        metrics = {}
        for name, unit in END_TO_END:
            value, samples = rows[name]
            print(f"  {name:<16} {value:>14.6g} {unit:<6} n={samples}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = traced_metrics(args, workload, tally, recorder)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(args, workload, tally: Tally, recorder) -> dict:
    from repro.obs.perfetto import write_chrome_trace

    untraced = statistics.median(tally.latencies(False))
    traced = statistics.median(tally.latencies(True))
    rows = layers.summarize(recorder, workload.root_layer,
                            traced / untraced - 1)
    print(f"per-layer, {len(recorder.roots)} traced requests "
          f"({tally.samples(False)} untraced):")
    metrics = {}
    for name, (value, unit) in rows.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{args.workload}-{args.seed}.perfetto.json"
    count = write_chrome_trace(layers.to_records(recorder, args.workload),
                               str(out), process_name="perfbench")
    print(f"wrote {count} trace events to {out}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
