"""Per-shard health for the scatter-gather router.

:class:`ShardHealth` maps the router's view of one shard onto the
quarantine state machine

    healthy → suspect → quarantined → recovering → healthy

backed by a :class:`~repro.resilience.CircuitBreaker` on the router's
logical clock, so every transition is a deterministic function of the
recorded successes/failures and elapsed steps — no wall time:

* **healthy**: no consecutive failures; the shard serves normally.
* **suspect**: at least one recent failure, breaker still closed; the
  shard keeps serving (retries may still rescue it).
* **quarantined**: the breaker opened (``failure_threshold``
  consecutive failures); the router stops dispatching to the shard
  entirely and serves its partial degraded (the shard's
  ``Uniform@s<id>`` last resort, computed parent-side).
* **recovering**: the breaker's cooldown elapsed (half-open); the next
  serve is a trial — success closes the loop back to healthy, failure
  re-quarantines.

Event-driven transitions (a recorded success or failure changing the
state) are counted under ``serving.shard.health_transitions`` and
``serving.shard.health.s<id>.<state>``; the quarantined→recovering
edge is clock-driven (it happens by cooldown expiry, observed on the
next :attr:`state` read) and is therefore visible in the state, not
the counters.
"""

from __future__ import annotations

from ..obs import OBS
from ..resilience import CircuitBreaker, StepClock

__all__ = ["ShardHealth", "HEALTH_STATES"]

#: The quarantine state machine's states, in escalation order.
HEALTH_STATES = (
    "healthy", "suspect", "quarantined", "recovering",
)


class ShardHealth:
    """Quarantine state machine for one shard."""

    __slots__ = ("shard_id", "breaker", "_last_state")

    def __init__(
        self,
        shard_id: int,
        clock: StepClock,
        *,
        failure_threshold: int = 3,
        reset_after_steps: int = 25,
    ) -> None:
        self.shard_id = shard_id
        self.breaker = CircuitBreaker(
            clock,
            failure_threshold=failure_threshold,
            reset_after_steps=reset_after_steps,
        )
        self._last_state = "healthy"

    @property
    def state(self) -> str:
        """One of :data:`HEALTH_STATES`."""
        breaker = self.breaker.state
        if breaker == "open":
            return "quarantined"
        if breaker == "half-open":
            return "recovering"
        return "suspect" if self.breaker.failures > 0 else "healthy"

    def allow(self) -> bool:
        """Whether the router may dispatch to the shard right now."""
        # no failures since the last success: the breaker is closed
        return self.breaker.failures == 0 or self.breaker.allow()

    def record_success(self) -> None:
        if self.breaker.failures == 0:
            # already healthy with a closed breaker: nothing can change
            return
        self.breaker.record_success()
        self._note_transition()

    def record_failure(self) -> None:
        self.breaker.record_failure()
        self._note_transition()

    def _note_transition(self) -> None:
        state = self.state
        if state != self._last_state:
            if OBS.enabled:
                OBS.add("serving.shard.health_transitions")
                OBS.add(
                    f"serving.shard.health.s{self.shard_id}.{state}"
                )
            self._last_state = state

    def __repr__(self) -> str:
        return (
            f"ShardHealth(s{self.shard_id}, {self.state}, "
            f"failures={self.breaker.failures})"
        )
