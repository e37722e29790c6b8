"""[PERF] Cost curves of the core operations.

Not a paper artifact — an implementation characterization, so adopters
know what scales how:

* smooth-solution checking on the reference path is O(|t|)
  applications of both sides over prefixes (each application O(|t|))
  — quadratic in trace length.  When the description compiles, the
  checker instead walks the trace once over a packed environment
  (:meth:`repro.core.compiled.CompiledDescription.walk`): one
  incremental application of each side per event.  ``EXT-CHECK``
  tracks the gap;
* projection and channel extraction are linear;
* description combination is O(1) (pairing, no normalization).
"""

import timeit

import pytest
from conftest import banner, row

from repro.channels import Channel
from repro.core import Description, combine
from repro.functions import chan, even_of, odd_of
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine([
        Description(even_of(chan(D)), chan(B)),
        Description(odd_of(chan(D)), chan(C)),
    ], name="dfm")


def periodic_solution(length: int) -> Trace:
    block = [(B, 0), (D, 0), (C, 1), (D, 1)]
    events = [block[i % 4] for i in range(length)]
    # truncate to a multiple of the block for quiescence
    cut = length - (length % 4)
    return Trace.from_pairs(events[:cut])


@pytest.mark.parametrize("length", [8, 32, 128])
def test_smooth_check_cost(benchmark, length):
    desc = dfm()
    t = periodic_solution(length)
    ok = benchmark(lambda: desc.is_smooth_solution(
        t, depth=t.length()
    ))
    banner("PERF", f"smooth-solution check, |t| = {t.length()}")
    row("is smooth", ok)
    assert ok


@pytest.mark.parametrize("length", [64, 256, 1024])
def test_projection_cost(benchmark, length):
    t = periodic_solution(length)
    proj = benchmark(lambda: t.project({D}).length())
    banner("PERF", f"projection, |t| = {t.length()}")
    row("events on d", proj)
    assert proj == t.length() // 2


@pytest.mark.parametrize("length", [64, 256, 1024])
def test_channel_sequence_cost(benchmark, length):
    t = periodic_solution(length)
    fn = even_of(chan(D))
    out = benchmark(lambda: len(fn.apply(t)))
    banner("PERF", f"even(d) extraction, |t| = {t.length()}")
    row("length", out)
    assert out == t.length() // 4


class _Reference(Description):
    """Never compiles (compilation refuses subclasses), so every check
    takes the reference path."""


#: the ROADMAP's acceptance target for the compiled checker
MIN_CHECK_SPEEDUP = 5.0


def test_compiled_checker_speedup(benchmark):
    """EXT-CHECK: checked events per ms on the dfm periodic solution
    at |t| = depth = 192 (a conformance-grid cell's depth), compiled
    core vs the reference path, with identical verdicts.  One
    description serves every run, as in a grid, so its compile is
    paid once, before the timed region."""
    t = periodic_solution(192)
    n = t.length()
    fast = dfm()
    ref = _Reference(fast.lhs, fast.rhs, name=fast.name)
    assert fast.check(t, n) == ref.check(t, n)

    def events_per_ms(desc, repeats):
        # timeit pauses the collector; best-of compares algorithms,
        # not allocator luck
        best = min(timeit.repeat(
            lambda: desc.is_smooth_solution(t, n),
            repeat=repeats, number=1))
        return n / (best * 1e3)

    ref_rate = events_per_ms(ref, 3)
    com_rate = events_per_ms(fast, 7)
    ok = benchmark(lambda: fast.is_smooth_solution(t, n))
    speedup = com_rate / ref_rate

    banner("EXT-CHECK", "compiled §3.2 checker vs the reference path")
    row("|t| = depth", n)
    row("is smooth", ok)
    row("reference (events/ms, best-of-3)", round(ref_rate, 1))
    row("compiled (events/ms, best-of-7)", round(com_rate, 1))
    row("speedup", round(speedup, 2))
    row("verdicts identical", True)
    assert ok
    assert speedup >= MIN_CHECK_SPEEDUP, (
        f"compiled checker only {speedup:.1f}x the reference at "
        f"|t| = {n}; floor is {MIN_CHECK_SPEEDUP:.0f}x")
