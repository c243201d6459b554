"""Unit tests for the resilience layer: clock, faults, retry, breaker."""

import pytest

from repro.errors import (
    ArtifactCorruptError,
    DeadlineError,
    InjectedFault,
    TransientIOError,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    StepClock,
    active_injector,
    fire,
    installed,
)


# ----------------------------------------------------------------------
# logical clock and deadlines
# ----------------------------------------------------------------------
class TestStepClock:
    def test_advance_and_now(self):
        clock = StepClock()
        assert clock.now() == 0
        assert clock.advance(3) == 3
        assert clock.advance() == 4

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            StepClock().advance(-1)

    def test_deadline_expires_and_raises(self):
        clock = StepClock()
        deadline = Deadline(clock, 2)
        deadline.check()
        clock.advance(2)
        assert deadline.expired()
        with pytest.raises(DeadlineError):
            deadline.check("unit test")

    def test_unlimited_deadline_never_expires(self):
        clock = StepClock()
        deadline = Deadline(clock, None)
        clock.advance(10_000)
        assert not deadline.expired()
        assert deadline.remaining() is None
        deadline.check()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
def _injection_trace(plan, sites):
    """Booleans: did firing each site in sequence inject a fault?"""
    injector = FaultInjector(plan)
    trace = []
    for site in sites:
        try:
            injector.fire(site)
            trace.append(False)
        except Exception:
            trace.append(True)
    return trace, injector


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("x", kind="nope")
        with pytest.raises(ValueError):
            FaultSpec("x", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("x", start_step=-1)

    def test_kinds_raise_typed_errors(self):
        for kind, exc in (
            ("io", TransientIOError),
            ("corrupt", ArtifactCorruptError),
            ("fail", InjectedFault),
        ):
            injector = FaultInjector(
                FaultPlan(0, (FaultSpec("s", kind=kind),))
            )
            with pytest.raises(exc):
                injector.fire("s")

    def test_same_seed_same_injections(self):
        plan = FaultPlan(123, (FaultSpec("a", probability=0.3),
                               FaultSpec("b", probability=0.6)))
        sites = ["a", "b", "a", "a", "b"] * 40
        trace1, inj1 = _injection_trace(plan, sites)
        trace2, inj2 = _injection_trace(plan, sites)
        assert trace1 == trace2
        assert inj1.stats() == inj2.stats()
        assert True in trace1 and False in trace1

    def test_spec_streams_independent_of_other_sites(self):
        # Removing site-b invocations must not change site-a decisions.
        spec_a = FaultSpec("a", probability=0.5)
        with_b = FaultPlan(9, (spec_a, FaultSpec("b", probability=0.5)))
        without_b = FaultPlan(9, (spec_a,))
        mixed = ["a", "b"] * 50
        only_a = [s for s in mixed if s == "a"]
        trace_mixed, _ = _injection_trace(with_b, mixed)
        trace_only, _ = _injection_trace(without_b, only_a)
        assert [t for s, t in zip(mixed, trace_mixed) if s == "a"] \
            == trace_only

    def test_prefix_matching(self):
        spec = FaultSpec("estimator.*")
        assert spec.matches("estimator.Min-Skew")
        assert spec.matches("estimator.build.Sample")
        assert not spec.matches("storage.read")

    def test_step_schedule_window(self):
        plan = FaultPlan(
            0, (FaultSpec("s", start_step=2, stop_step=4),)
        )
        trace, _ = _injection_trace(plan, ["s"] * 6)
        assert trace == [False, False, True, True, False, False]

    def test_transient_then_recover(self):
        plan = FaultPlan(0, (FaultSpec("s", recover_after=2),))
        trace, injector = _injection_trace(plan, ["s"] * 5)
        assert trace == [True, True, False, False, False]
        assert injector.stats()["injected"] == {"s": 2}
        assert injector.stats()["fired"] == {"s": 5}

    def test_installed_restores_previous(self):
        assert active_injector() is None
        fire("anything")  # no-op without an injector
        outer = FaultInjector(FaultPlan(0))
        inner = FaultInjector(FaultPlan(1))
        with installed(outer):
            assert active_injector() is outer
            with installed(inner):
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_doubles_from_one_step(self):
        # the default schedule the router charges to its step clock
        # after failed attempts 1, 2 and 3
        policy = RetryPolicy(max_attempts=4)
        assert [policy.backoff_for(a) for a in (1, 2, 3)] == [1, 2, 4]


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        clock = StepClock()
        breaker = CircuitBreaker(clock, failure_threshold=2,
                                 reset_after_steps=5)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5)
        assert breaker.state == "half-open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = StepClock()
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 reset_after_steps=4)
        breaker.record_failure()
        clock.advance(4)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"

