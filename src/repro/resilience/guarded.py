"""The guarded estimation pipeline: validation, budgets, fallback.

The availability contract of the estimator service is: **a valid query
always gets a finite estimate**.  A poisoned Min-Skew histogram, a
corrupt artifact, a transient IO fault, or a blown step budget must
cost accuracy, never availability.  :class:`GuardedEstimator` delivers
that contract with a fallback chain — by default

    Min-Skew  →  Sample  →  Uniform

— where each link is built lazily (with bounded retry for retryable
faults), protected by a :class:`CircuitBreaker` so a persistently
failing link stops being tried on every query, and every degradation
is counted in :data:`repro.obs.OBS` under the ``resilience.*``
namespace so operators can see exactly what quality they are getting.

Invalid *inputs* (NaN/inf or inverted query rectangles) are the
caller's bug, not a degradation: they raise typed
:class:`~repro.errors.ValidationError` subclasses immediately and are
never sent down the chain.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import (
    DeadlineError,
    EstimatorFailedError,
    FallbackExhaustedError,
    ReproError,
)
from ..estimators import (
    BucketEstimator,
    SampleEstimator,
    SelectivityEstimator,
    UniformEstimator,
    WORDS_PER_BUCKET,
    WORDS_PER_SAMPLE,
)
from ..geometry import Rect, RectSet
from ..obs import OBS
from .clock import Deadline, StepClock
from .faults import fire
from .retry import RetryPolicy, with_retry

__all__ = [
    "CircuitBreaker",
    "FallbackLink",
    "GuardedEstimator",
    "build_fallback_chain",
    "DEFAULT_CALL_BUDGET_STEPS",
    "LAST_RESORT_LINK",
]

#: Default per-call step budget: generous for a three-link chain (each
#: link attempt costs one step; injected ``slow`` faults cost more).
DEFAULT_CALL_BUDGET_STEPS = 50

#: Pseudo link name reported by :attr:`GuardedEstimator.last_served`
#: when a call was answered by the last-resort constant rather than
#: any link.
LAST_RESORT_LINK = "last-resort"


class CircuitBreaker:
    """A minimal consecutive-failure circuit breaker on step time.

    Closed until ``failure_threshold`` consecutive failures, then open
    for ``reset_after_steps`` clock steps; the first trial after the
    cooldown (half-open) closes it again on success or re-opens it on
    failure.
    """

    __slots__ = (
        "_clock", "failure_threshold", "reset_after_steps",
        "_consecutive", "_opened_at",
    )

    def __init__(
        self,
        clock: StepClock,
        *,
        failure_threshold: int = 3,
        reset_after_steps: int = 25,
    ) -> None:
        if failure_threshold < 1 or reset_after_steps < 0:
            raise ValueError("invalid circuit-breaker parameters")
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_after_steps = reset_after_steps
        self._consecutive = 0
        self._opened_at: Optional[int] = None

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._clock.now() - self._opened_at \
                >= self.reset_after_steps:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may be attempted right now."""
        return self.state != "open"

    def record_success(self) -> None:
        self._consecutive = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._consecutive += 1
        if self._consecutive >= self.failure_threshold:
            self._opened_at = self._clock.now()


class FallbackLink:
    """One link of the chain: a named, lazily built estimator."""

    __slots__ = ("name", "_builder", "_estimator", "breaker")

    def __init__(
        self,
        name: str,
        builder: Callable[[], SelectivityEstimator],
        breaker: CircuitBreaker,
    ) -> None:
        self.name = name
        self._builder = builder
        self._estimator: Optional[SelectivityEstimator] = None
        self.breaker = breaker

    def estimator(
        self, retry: RetryPolicy, clock: StepClock
    ) -> SelectivityEstimator:
        """The built estimator, constructing it on first use.

        Construction announces the ``estimator.build.<name>`` fault
        site and retries retryable faults per ``retry``.
        """
        if self._estimator is None:

            def build() -> SelectivityEstimator:
                fire(f"estimator.build.{self.name}")
                return self._builder()

            self._estimator = with_retry(
                build, retry, clock, label=f"build {self.name}"
            )
        return self._estimator

    @property
    def built(self) -> bool:
        return self._estimator is not None

    @property
    def built_estimator(self) -> Optional[SelectivityEstimator]:
        """The estimator if already built, without building it."""
        return self._estimator


class GuardedEstimator(SelectivityEstimator):
    """Fallback-chain estimator with validation, budgets, breakers.

    Parameters
    ----------
    links:
        Ordered chain, most accurate first.  Each link's estimator is
        built lazily on first use so a link whose *construction* fails
        (corrupt histogram artifact, injected build fault) degrades
        exactly like one whose *queries* fail.
    clock:
        Logical clock charged one step per link attempt; shared with
        the fault injector in chaos runs so ``slow`` faults consume
        call budgets.
    call_budget_steps:
        Per-call deadline budget (``None`` = unlimited).
    retry:
        Retry policy for retryable faults inside one link attempt.
    last_resort:
        Estimate returned when every link fails for a query (the
        degenerate-but-available answer).  Counted separately on
        ``resilience.last_resort``; set to ``None`` to raise
        :class:`FallbackExhaustedError` instead.
    """

    name = "Guarded"

    def __init__(
        self,
        links: Sequence[FallbackLink],
        *,
        clock: Optional[StepClock] = None,
        call_budget_steps: Optional[int] = DEFAULT_CALL_BUDGET_STEPS,
        retry: Optional[RetryPolicy] = None,
        last_resort: Optional[float] = 0.0,
    ) -> None:
        if not links:
            raise ValueError("at least one fallback link is required")
        self.links: List[FallbackLink] = list(links)
        self.clock = clock if clock is not None else StepClock()
        self.call_budget_steps = call_budget_steps
        self.retry = retry if retry is not None else RetryPolicy()
        self.last_resort = last_resort
        #: Name of the link that answered the most recent call
        #: (:data:`LAST_RESORT_LINK` for a last-resort answer, ``None``
        #: before the first); :attr:`is_degraded` derives from it.
        self.last_served: Optional[str] = None

    @property
    def is_degraded(self) -> bool:
        """Whether the most recent call was served below full quality
        (by any link other than the first, or by the last resort)."""
        return (
            self.last_served is not None
            and self.last_served != self.links[0].name
        )

    # ------------------------------------------------------------------
    def _attempt(
        self, link: FallbackLink, query: Rect, deadline: Deadline
    ) -> float:
        """One link attempt for one query; typed errors on any failure."""
        self.clock.advance(1)
        deadline.check(f"estimate via {link.name}")
        estimator = link.estimator(self.retry, self.clock)

        def call() -> float:
            fire(f"estimator.{link.name}")
            return estimator.estimate(query)

        value = with_retry(
            call, self.retry, self.clock, label=f"estimate {link.name}"
        )
        if not np.isfinite(value) or value < 0.0:
            raise EstimatorFailedError(
                f"{link.name} returned a non-finite or negative "
                f"estimate ({value!r})",
                hint="the summary is poisoned; fall back",
            )
        return float(value)

    def estimate(self, query: Rect) -> float:
        """Estimate through the chain; finite for every valid query."""
        OBS.add("resilience.queries")
        deadline = Deadline(self.clock, self.call_budget_steps)
        for position, link in enumerate(self.links):
            if not link.breaker.allow():
                OBS.add("resilience.breaker_open")
                OBS.add(f"resilience.skipped.{link.name}")
                continue
            try:
                value = self._attempt(link, query, deadline)
            except DeadlineError:
                # The per-call budget is gone; trying further links
                # would only blow it further (and spuriously penalise
                # their breakers) — answer with the last resort now.
                OBS.add("resilience.deadline_exceeded")
                break
            except ReproError:
                link.breaker.record_failure()
                OBS.add(f"resilience.link_failures.{link.name}")
                continue
            link.breaker.record_success()
            self.last_served = link.name
            OBS.add(f"resilience.served.{link.name}")
            if position > 0:
                OBS.add("resilience.degraded")
            return value
        OBS.add("resilience.last_resort")
        if self.last_resort is None:
            raise FallbackExhaustedError(
                "every estimator in the fallback chain failed",
                hint="check fault rates / artifact integrity; the "
                     "chain has no healthy link left",
            )
        self.last_served = LAST_RESORT_LINK
        return self.last_resort

    def _estimate_batch(
        self, queries: RectSet
    ) -> npt.NDArray[np.float64]:
        """Batched chain estimate (whole-batch fallback granularity).

        Tries each link on the full batch; a link that raises or
        returns any non-finite value forfeits the batch to the next
        link, so the fallback-chain degradation semantics survive the
        vectorised serving path unchanged.  Per-query granularity (and
        per-query degradation accounting) is available by calling
        :meth:`estimate` per query, which is what the chaos harness
        does.  Invalid query batches never reach the chain — the
        public :meth:`estimate_batch` wrapper validates first and
        raises :class:`~repro.errors.GeometryError`.
        """
        OBS.add("resilience.queries", len(queries))
        deadline = Deadline(self.clock, self.call_budget_steps)
        for position, link in enumerate(self.links):
            if not link.breaker.allow():
                OBS.add("resilience.breaker_open")
                OBS.add(f"resilience.skipped.{link.name}")
                continue
            try:
                self.clock.advance(1)
                deadline.check(f"estimate_batch via {link.name}")
                estimator = link.estimator(self.retry, self.clock)

                def call(
                    est: SelectivityEstimator = estimator,
                    name: str = link.name,
                ) -> "npt.NDArray[np.float64]":
                    fire(f"estimator.{name}")
                    return np.asarray(
                        est.estimate_batch(queries), dtype=np.float64
                    )

                values = with_retry(
                    call, self.retry, self.clock,
                    label=f"estimate_batch {link.name}",
                )
                if values.shape != (len(queries),) \
                        or not bool(np.isfinite(values).all()) \
                        or bool((values < 0.0).any()):
                    raise EstimatorFailedError(
                        f"{link.name} returned non-finite or negative "
                        f"batch estimates",
                        hint="the summary is poisoned; fall back",
                    )
            except DeadlineError:
                OBS.add("resilience.deadline_exceeded")
                break
            except ReproError:
                link.breaker.record_failure()
                OBS.add(f"resilience.link_failures.{link.name}")
                continue
            link.breaker.record_success()
            self.last_served = link.name
            OBS.add(f"resilience.served.{link.name}", len(queries))
            if position > 0:
                OBS.add("resilience.degraded", len(queries))
            return values
        OBS.add("resilience.last_resort", len(queries))
        if self.last_resort is None:
            raise FallbackExhaustedError(
                "every estimator in the fallback chain failed",
                hint="check fault rates / artifact integrity; the "
                     "chain has no healthy link left",
            )
        self.last_served = LAST_RESORT_LINK
        return np.full(
            len(queries), self.last_resort, dtype=np.float64
        )

    def size_words(self) -> int:
        """Footprint of the links built so far."""
        return sum(
            link._estimator.size_words()
            for link in self.links
            if link._estimator is not None
        )

    def serving_link(self) -> Optional[str]:
        """Name of the first currently-allowed link (for reports)."""
        for link in self.links:
            if link.breaker.allow():
                return link.name
        return None


def build_fallback_chain(
    rects: RectSet,
    n_buckets: int,
    *,
    n_regions: int = 2_500,
    sample_seed: int = 0,
    clock: Optional[StepClock] = None,
    call_budget_steps: Optional[int] = DEFAULT_CALL_BUDGET_STEPS,
    retry: Optional[RetryPolicy] = None,
    failure_threshold: int = 3,
    reset_after_steps: int = 25,
) -> GuardedEstimator:
    """The canonical chain: Min-Skew → Sample → Uniform.

    Sample gets the paper's liberal allocation (two sample rectangles
    per bucket of budget, Section 5.4); Uniform is the constant-space
    link of last resort — once built it cannot fail on a valid query.
    """
    shared_clock = clock if clock is not None else StepClock()

    def build_minskew() -> SelectivityEstimator:
        from ..core.minskew import MinSkewPartitioner

        return BucketEstimator.build(
            MinSkewPartitioner(n_buckets, n_regions=n_regions), rects
        )

    def build_sample() -> SelectivityEstimator:
        sample_size = max(
            1, n_buckets * WORDS_PER_BUCKET // WORDS_PER_SAMPLE
        )
        return SampleEstimator(rects, sample_size, seed=sample_seed)

    def build_uniform() -> SelectivityEstimator:
        return UniformEstimator(rects)

    builders: List[Callable[[], SelectivityEstimator]] = [
        build_minskew, build_sample, build_uniform,
    ]
    names = ["Min-Skew", "Sample", "Uniform"]
    links = [
        FallbackLink(
            name,
            builder,
            CircuitBreaker(
                shared_clock,
                failure_threshold=failure_threshold,
                reset_after_steps=reset_after_steps,
            ),
        )
        for name, builder in zip(names, builders)
    ]
    return GuardedEstimator(
        links,
        clock=shared_clock,
        call_budget_steps=call_budget_steps,
        retry=retry,
    )
