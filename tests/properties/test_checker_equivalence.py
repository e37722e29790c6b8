"""The compiled §3.2 checker is the reference checker, verdict for verdict.

``Description.check``/``is_smooth_solution``/``smoothness_holds``/
``smoothness_violations`` decide a known-finite trace in one pass of
the compiled core (:meth:`repro.core.compiled.CompiledDescription.walk`)
whenever the description compiles.  The reference side here is a
trivial :class:`Description` subclass: compilation refuses every
subclass, so it always takes the reference path, with no switch.

Every answer is compared in full — the limit report, ``exact`` and
each violation's ``u``, ``v``, ``f(v)`` and ``g(u)`` — on generated dfm
traces (smooth ones and ones with swapped or dropped events), the ABP
service spec, traces longer than the depth, lazy traces, unhashable
messages, a description whose compiled walk leaves the finite
fragment, a description that never compiles, and one description
checked over a growing alphabet.
"""

import pathlib
import pickle
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description, combine
from repro.functions.base import LambdaFn, chan
from repro.functions.seq_fns import even_of, odd_of
from repro.seq.ordering import SEQ_CPO
from repro.traces.trace import Trace
from tests.core.test_compiled_solver import lazy_spec

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent.parent
           / "examples")
)

from alternating_bit import MESSAGES, OUT, service_spec  # noqa: E402

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

INPUTS = [(B, 0), (B, 2), (C, 1), (C, 3)]


class Reference(Description):
    """Never compiles, so every check takes the reference path."""


def reference_of(d: Description) -> Reference:
    return Reference(d.lhs, d.rhs, name=d.name)


def dfm() -> Description:
    return combine([
        Description(even_of(chan(D)), chan(B)),
        Description(odd_of(chan(D)), chan(C)),
    ], name="dfm")


def engaged(d: Description) -> bool:
    """Did the last check run on the compiled core?"""
    return isinstance(d._checker, tuple)


def assert_same_verdicts(fast: Description, ref: Description,
                         t: Trace, depth: int) -> None:
    assert fast.is_smooth_solution(t, depth) == \
        ref.is_smooth_solution(t, depth)
    assert fast.smoothness_holds(t, depth) == \
        ref.smoothness_holds(t, depth)
    got, want = fast.check(t, depth), ref.check(t, depth)
    assert got.limit == want.limit
    assert got.exact == want.exact
    assert got.violations == want.violations
    assert got == want
    assert fast.smoothness_violations(t, depth) == \
        ref.smoothness_violations(t, depth)


@st.composite
def dfm_traces(draw):
    """A dfm run (each input followed by its output on ``d``), then up
    to three adjacent swaps or drops — so some traces are smooth
    solutions, some break the smoothness or the limit condition."""
    events = []
    for channel, message in draw(st.lists(st.sampled_from(INPUTS),
                                          max_size=8)):
        events += [Event(channel, message), Event(D, message)]
    for _ in range(draw(st.integers(0, 3))):
        if len(events) < 2:
            break
        i = draw(st.integers(0, len(events) - 2))
        if draw(st.booleans()):
            events[i], events[i + 1] = events[i + 1], events[i]
        else:
            del events[i]
    return Trace.finite(events)


depths = st.integers(0, 20)


class TestDfm:
    @settings(max_examples=150, deadline=None)
    @given(dfm_traces(), depths)
    def test_packed_equals_reference(self, t, depth):
        fast = dfm()
        assert_same_verdicts(fast, reference_of(fast), t, depth)
        assert engaged(fast)

    def test_some_generated_traces_are_not_smooth(self):
        # the generator must exercise both verdicts, or the property
        # above would only ever compare empty violation lists
        smooth = Trace.from_pairs([(B, 0), (D, 0), (C, 1), (D, 1)])
        swapped = Trace.from_pairs([(D, 0), (B, 0), (C, 1), (D, 1)])
        fast = dfm()
        assert fast.is_smooth_solution(smooth, 8)
        assert not fast.is_smooth_solution(swapped, 8)
        assert fast.check(swapped, 8).violations

    @given(st.integers(1, 40), st.integers(0, 60))
    @settings(deadline=None)
    def test_traces_longer_than_depth(self, blocks, depth):
        block = [(B, 0), (D, 0), (C, 1), (D, 1)]
        # a trailing swap puts a violation past or within the depth
        pairs = block * blocks + [(D, 2), (B, 2)]
        t = Trace.from_pairs(pairs)
        fast = dfm()
        assert_same_verdicts(fast, reference_of(fast), t, depth)

    def test_lazy_traces(self):
        block = [(B, 0), (D, 0), (C, 1), (D, 1)]
        ref = reference_of(dfm())
        for make in (lambda: Trace.cycle_pairs(block),
                     lambda: Trace.lazy(iter(
                         [Event(c, m) for c, m in block * 3]))):
            fast = dfm()
            for depth in (0, 5, 16):
                # fresh traces throughout: a forced lazy trace may
                # become known finite, and a lazy trace has no ==
                a, b = fast.check(make(), depth), ref.check(make(), depth)
                assert (a.limit, a.violations, a.exact) == \
                    (b.limit, b.violations, b.exact)
                assert fast.is_smooth_solution(make(), depth) == \
                    ref.is_smooth_solution(make(), depth)
                assert fast.smoothness_holds(make(), depth) == \
                    ref.smoothness_holds(make(), depth)
        # the infinite trace never reached the compiled core (the
        # finite lazy one may, once the limit check has forced it)
        fast = dfm()
        fast.check(Trace.cycle_pairs(block), 16)
        assert fast._checker is None

    def test_lazy_trace_read_to_its_end(self):
        # the first check reads the lazy trace through, so it is known
        # finite afterwards; the reference code still checks its limit
        # only to the depth, below where f(t) = (<0>, <>) and
        # g(t) = (<0, 2>, <>) part, and every later check must agree
        t = Trace.lazy(iter([Event(B, 0), Event(D, 0), Event(B, 2)]))
        fast, ref = dfm(), reference_of(dfm())
        first = fast.check(t, 1)
        assert t.is_known_finite() and first.is_smooth
        assert fast.is_smooth_solution(t, 1) == \
            ref.is_smooth_solution(t, 1) == first.is_smooth
        assert fast.smoothness_holds(t, 1) == ref.smoothness_holds(t, 1)
        # the limit values are lazy sequences, which have no ==
        again, want = fast.check(t, 1), ref.check(t, 1)
        assert (again.limit.holds, again.limit.exact, again.violations,
                again.exact) == (want.limit.holds, want.limit.exact,
                                 want.violations, want.exact)
        assert fast._checker is None

    @given(dfm_traces(), dfm_traces(), depths)
    @settings(deadline=None)
    def test_one_description_over_two_alphabets(self, t1, t2, depth):
        # the cached compile grows to the union of the alphabets; the
        # verdicts must equal those of descriptions seeing one trace
        reused = dfm()
        for t in (t1, t2, t1):
            assert reused.check(t, depth) == dfm().check(t, depth)
            assert reused.is_smooth_solution(t, depth) == \
                reference_of(reused).is_smooth_solution(t, depth)

    def test_checked_description_still_pickles(self):
        fast = dfm()
        t = Trace.from_pairs([(B, 0), (D, 0), (C, 1), (D, 1)])
        assert fast.is_smooth_solution(t, 8)
        copy = pickle.loads(pickle.dumps(fast))
        assert copy.check(t, 8) == fast.check(t, 8)


class TestAbp:
    @given(st.lists(st.sampled_from(MESSAGES), max_size=5), depths)
    @settings(deadline=None)
    def test_service_spec(self, delivered, depth):
        system = service_spec(MESSAGES)
        fast = system.combined()
        t = Trace.from_pairs((OUT, m) for m in delivered)
        assert_same_verdicts(fast, reference_of(fast), t, depth)
        assert system.check(t, depth) == reference_of(fast).check(t, depth)
        assert engaged(fast)

    def test_system_builds_its_combined_description_once(self):
        system = service_spec(MESSAGES)
        assert system.combined() is system.combined()


class TestFallbacks:
    def test_unhashable_messages(self):
        x = Channel("x")
        y = Channel("y")
        fast = Description(chan(y), chan(x), name="y ⟵ x")
        ref = reference_of(fast)
        for pairs in ([(x, [1]), (y, [1])],
                      [(y, [1]), (x, [1])],
                      [(x, [1]), (y, [2])]):
            t = Trace.from_pairs(pairs)
            for depth in (0, 1, 4):
                assert_same_verdicts(fast, ref, t, depth)
        assert fast._checker is None

    def test_refusal_is_final(self, monkeypatch):
        # an opaque side never compiles: after one refusal no trace,
        # however many new events it brings, is compiled again, and
        # no alphabet is kept
        fast = Description(
            LambdaFn("opaque", lambda t: t.sequence_on(D),
                     codomain=SEQ_CPO),
            chan(B), name="opaque")
        ref = reference_of(fast)
        calls = []
        compile_once = Description.compiled_against
        monkeypatch.setattr(
            Description, "compiled_against",
            lambda d, c: calls.append(c) or compile_once(d, c))
        for pairs in ([(B, 0), (D, 0)], [(B, 2), (D, 2)],
                      [(D, 0), (B, 0), (B, 2)]):
            t = Trace.from_pairs(pairs)
            assert_same_verdicts(fast, ref, t, 4)
        assert len(calls) == 1
        assert fast._checker is False

    @given(st.lists(st.sampled_from(
        [Event(B, 0), Event(B, 2), Event(D, 0), Event(D, 2)]),
        max_size=6).map(Trace.finite), depths)
    @settings(deadline=None)
    def test_walk_that_goes_lazy_lands_on_the_reference_verdict(
            self, t, depth):
        # ``lazy(d)`` compiles (the probe only sees ≤ 1 event), then a
        # compiled closure meets a lazy value at the second ``d`` event
        fast = lazy_spec()
        ref = reference_of(fast)

        def summary(verdict):
            return (verdict.is_smooth, verdict.limit.holds,
                    verdict.exact,
                    [(v.u, v.v) for v in verdict.violations])

        assert fast.is_smooth_solution(t, depth) == \
            ref.is_smooth_solution(t, depth)
        assert fast.smoothness_holds(t, depth) == \
            ref.smoothness_holds(t, depth)
        assert summary(fast.check(t, depth)) == \
            summary(ref.check(t, depth))
        assert [(v.u, v.v) for v in
                fast.smoothness_violations(t, depth)] == \
            [(v.u, v.v) for v in ref.smoothness_violations(t, depth)]
