"""Bounded retry with deterministic backoff, and a circuit breaker.

Retries are reserved for errors that declare themselves
:attr:`~repro.errors.ReproError.retryable` (transient IO, a dead
shard worker).  Backoff and breaker cooldowns are charged to the
injectable :class:`~repro.resilience.clock.StepClock` — no real
sleeping, no wall clock — so retried runs stay byte-identical and
tests run at full speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .clock import StepClock

__all__ = ["RetryPolicy", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a retryable failure.

    ``backoff_steps * backoff_factor**(attempt-1)`` clock steps are
    charged before attempt ``attempt+1``.
    """

    max_attempts: int = 3
    backoff_steps: int = 1
    backoff_factor: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_steps < 0 or self.backoff_factor < 1:
            raise ValueError("invalid backoff parameters")

    def backoff_for(self, attempt: int) -> int:
        """Steps to wait after failed attempt ``attempt`` (1-based)."""
        return self.backoff_steps * self.backoff_factor ** (attempt - 1)


class CircuitBreaker:
    """A minimal consecutive-failure circuit breaker on step time.

    Closed until ``failure_threshold`` consecutive failures, then open
    for ``reset_after_steps`` clock steps; the first trial after the
    cooldown (half-open) closes it again on success or re-opens it on
    failure.  ``failures`` is the consecutive-failure count.
    """

    __slots__ = (
        "_clock", "failure_threshold", "reset_after_steps",
        "failures", "_opened_at",
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
        self.failures = 0
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
        self.failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._opened_at = self._clock.now()
