"""Micro-batching: coalesce single queries into kernel-sized batches.

The paper's Min-Skew kernel is cheap *per batch row* but the serving
tier pays real Python dispatch cost *per call* — PR 4's vectorised
``estimate_block`` only amortises when queries arrive in blocks.
:class:`MicroBatcher` is the sans-IO coalescing core of the front door
(:mod:`repro.serving.frontdoor`): callers submit one rectangle at a
time and receive a :class:`PendingReply`; the batcher packs the queue
into micro-batches and dispatches each batch through a single
``estimate_batch`` call, fanning the answers back to the right
replies.

Batches fire under a **dual trigger**:

* **size** — a run of queued queries reaches ``max_batch``;
* **logical wait** — the oldest queued query has waited
  ``max_wait_steps`` on the batcher's :class:`~repro.resilience
  .StepClock` (``tick()``), so latency is bounded in deterministic
  step time, never wall-clock time;

plus an explicit :meth:`flush` that drains everything queued.  The
front door ticks the clock once per idle pass of its event loop, so a
partial batch fires after ``max_wait_steps`` idle passes; it calls
:meth:`flush` only when it closes (``FrontDoor.aclose``).

**Ordering.**  The queue is strictly FIFO and a mutation is a
*barrier*: queries queued before it are dispatched before it applies,
queries queued after it are answered by the post-mutation summary.
Because the served estimator re-syncs its kernel snapshot to the
current epoch before every batch, this gives the same answers as a
sequential reference serving the identical submission order — the
differential property the hypothesis suite asserts under every
trigger interleaving.

**Admission control.**  The queue is bounded (``max_pending``) and
guarded by a :class:`~repro.resilience.CircuitBreaker` fed by dispatch
outcomes; a submit that cannot be admitted raises a typed, retryable
:class:`~repro.errors.OverloadedError` instead of queueing without
bound.  Each reply resolves exactly once — on the error path every
reply of the failed batch carries the dispatch exception.

Counters (``serving.frontdoor.*``): ``submitted``, ``mutations``,
``batches``, ``batched``, ``shed``, ``dispatch_failures``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from ..errors import OverloadedError, ValidationError
from ..geometry import Rect
from ..obs import OBS
from ..resilience import CircuitBreaker, StepClock

__all__ = ["PendingReply", "MicroBatcher"]

#: Default micro-batch ceiling: comfortably past the point where the
#: vectorised kernel dominates per-call dispatch.
DEFAULT_MAX_BATCH = 64

#: Default logical latency bound: a queued query never waits more than
#: this many clock steps before a partial batch fires.
DEFAULT_MAX_WAIT_STEPS = 4

#: Default admission bound on queued work.
DEFAULT_MAX_PENDING = 2048

#: A reply that has not resolved yet (sentinel; never exposed).
_UNSET = object()


class PendingReply:
    """A single-resolution future for one submitted operation.

    The batcher guarantees exactly one resolution per reply — a second
    ``set_result``/``set_error`` is a programming error and raises.
    Done-callbacks run synchronously at resolution time (the front
    door uses them to bridge into ``asyncio`` futures).
    """

    __slots__ = ("_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self._value: Any = _UNSET
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["PendingReply"], None]] = []

    @property
    def done(self) -> bool:
        return self._value is not _UNSET or self._error is not None

    def error(self) -> Optional[BaseException]:
        """The resolving exception, or None."""
        return self._error

    def result(self) -> Any:
        """The resolved value; raises the resolving error, or
        :class:`ValidationError` when not yet resolved."""
        if self._error is not None:
            raise self._error
        if self._value is _UNSET:
            raise ValidationError("reply is not resolved yet")
        return self._value

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def set_result(self, value: Any) -> None:
        if self.done:
            raise ValidationError("reply already resolved")
        self._value = value
        self._run_callbacks()

    def set_error(self, exc: BaseException) -> None:
        if self.done:
            raise ValidationError("reply already resolved")
        self._error = exc
        self._run_callbacks()

    def add_done_callback(
        self, callback: Callable[["PendingReply"], None]
    ) -> None:
        """Run ``callback(reply)`` at resolution (immediately if the
        reply is already resolved)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)


class _Query:
    __slots__ = ("coords", "reply", "step")

    def __init__(
        self,
        coords: Tuple[float, float, float, float],
        reply: PendingReply,
        step: int,
    ) -> None:
        self.coords = coords
        self.reply = reply
        self.step = step


class _Mutation:
    __slots__ = ("kind", "rect", "reply", "step")

    def __init__(
        self, kind: str, rect: Rect, reply: PendingReply, step: int
    ) -> None:
        self.kind = kind
        self.rect = rect
        self.reply = reply
        self.step = step


class MicroBatcher:
    """FIFO query coalescer with mutation barriers and admission.

    Parameters
    ----------
    dispatch:
        ``(n, 4) float64 coords -> (n,) float64 values`` — one
        ``estimate_batch`` call on the served estimator or router,
        behind a :class:`~repro.geometry.RectSet`.
    apply_mutation:
        ``(kind, rect) -> result`` applying one ``"insert"`` or
        ``"delete"``; ``None`` rejects mutations with a typed error.
    max_batch / max_wait_steps / max_pending:
        The dual trigger plus the admission bound.  ``max_wait_steps
        <= 0`` disables the logical-wait trigger (size and flush
        only).
    clock:
        The logical clock the wait trigger is measured on; shared with
        the front door so every frame advances it.
    failure_threshold / reset_after_steps:
        Ingress circuit-breaker knobs (consecutive dispatch failures
        before the door sheds, cooldown steps before a trial batch).
    """

    def __init__(
        self,
        dispatch: Callable[
            ["npt.NDArray[np.float64]"], "npt.NDArray[np.float64]"
        ],
        apply_mutation: Optional[Callable[[str, Rect], Any]] = None,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_steps: int = DEFAULT_MAX_WAIT_STEPS,
        max_pending: int = DEFAULT_MAX_PENDING,
        clock: Optional[StepClock] = None,
        failure_threshold: int = 5,
        reset_after_steps: int = 50,
    ) -> None:
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValidationError("max_pending must be >= 1")
        self._dispatch = dispatch
        self._apply = apply_mutation
        self.max_batch = max_batch
        self.max_wait_steps = max_wait_steps
        self.max_pending = max_pending
        self.clock = clock if clock is not None else StepClock()
        self.breaker = CircuitBreaker(
            self.clock,
            failure_threshold=failure_threshold,
            reset_after_steps=reset_after_steps,
        )
        self._queue: Deque[Union[_Query, _Mutation]] = deque()
        self._queued_mutations = 0
        self.submitted = 0
        self.mutations = 0
        self.batches = 0
        self.batched = 0
        self.shed = 0
        self.dispatch_failures = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Operations queued and not yet dispatched."""
        return len(self._queue)

    def stats(self) -> "dict[str, float]":
        """Lifetime counters plus the derived mean batch size."""
        return {
            "submitted": float(self.submitted),
            "mutations": float(self.mutations),
            "batches": float(self.batches),
            "batched": float(self.batched),
            "shed": float(self.shed),
            "dispatch_failures": float(self.dispatch_failures),
            "pending": float(self.pending),
            "avg_batch": (
                self.batched / self.batches if self.batches else 0.0
            ),
        }

    def _admit(self) -> None:
        if len(self._queue) >= self.max_pending:
            self.shed += 1
            if OBS.enabled:
                OBS.add("serving.frontdoor.shed")
            raise OverloadedError(
                f"front door queue is full "
                f"({self.max_pending} pending operations)",
                hint="retry after a backoff; the tier is draining",
            )
        if not self.breaker.allow():
            self.shed += 1
            if OBS.enabled:
                OBS.add("serving.frontdoor.shed")
            raise OverloadedError(
                "front door circuit breaker is open after repeated "
                "dispatch failures",
                hint="retry after the cooldown",
            )

    # ------------------------------------------------------------------
    def submit(
        self, x1: float, y1: float, x2: float, y2: float
    ) -> PendingReply:
        """Queue one query; may fire a size-triggered batch inline.

        Raises :class:`~repro.errors.OverloadedError` when the request
        cannot be admitted (bounded queue / open breaker) — the shed
        path, so callers translate it into a typed response instead of
        waiting unboundedly.
        """
        self._admit()
        reply = PendingReply()
        self.submitted += 1
        if OBS.enabled:
            OBS.add("serving.frontdoor.submitted")
        self._queue.append(
            _Query((x1, y1, x2, y2), reply, self.clock.now())
        )
        self._pump(force=False)
        return reply

    def submit_mutation(self, kind: str, rect: Rect) -> PendingReply:
        """Queue one mutation barrier (``"insert"`` / ``"delete"``)."""
        if kind not in ("insert", "delete"):
            raise ValidationError(
                f"unknown mutation kind {kind!r}",
                hint="use 'insert' or 'delete'",
            )
        self._admit()
        reply = PendingReply()
        self.mutations += 1
        if OBS.enabled:
            OBS.add("serving.frontdoor.mutations")
        self._queue.append(
            _Mutation(kind, rect, reply, self.clock.now())
        )
        self._queued_mutations += 1
        self._pump(force=False)
        return reply

    def tick(self, steps: int = 1) -> None:
        """Advance logical time; fire any wait-expired partial batch."""
        self.clock.advance(steps)
        self._pump(force=False)

    def flush(self) -> None:
        """Drain everything queued regardless of triggers."""
        self._pump(force=True)

    def close(self) -> None:
        """Flush outstanding work (the flush-on-close trigger)."""
        self.flush()

    # ------------------------------------------------------------------
    def _head_queries(self) -> int:
        """Length of the run of queries at the head of the queue.

        O(1) on the hot path — with no mutation queued (the common
        case under pure query load) the whole queue is the run.
        """
        if not self._queued_mutations:
            return len(self._queue)
        count = 0
        for item in self._queue:
            if not isinstance(item, _Query):
                break
            count += 1
        return count

    def _wait_expired(self) -> bool:
        if self.max_wait_steps <= 0:
            return False
        head = self._queue[0]
        return self.clock.now() - head.step >= self.max_wait_steps

    def _pump(self, *, force: bool) -> None:
        while self._queue:
            head = self._queue[0]
            if isinstance(head, _Mutation):
                self._queue.popleft()
                self._queued_mutations -= 1
                self._apply_one(head)
                continue
            run = self._head_queries()
            if run >= self.max_batch:
                self._fire(self.max_batch)
                continue
            # a mutation behind the run acts as a barrier: the queries
            # ahead of it must dispatch (pre-mutation) before it can
            # apply, so a partial batch fires regardless of triggers
            barrier = run < len(self._queue)
            if force or barrier or self._wait_expired():
                self._fire(run)
                continue
            break

    def _apply_one(self, mutation: _Mutation) -> None:
        if self._apply is None:
            mutation.reply.set_error(ValidationError(
                "this front door serves a read-only estimator",
                hint="start it over a mutable tier (ShardRouter or a "
                     "maintained histogram) to accept mutations",
            ))
            return
        try:
            result = self._apply(mutation.kind, mutation.rect)
        except Exception as exc:
            self.breaker.record_failure()
            self.dispatch_failures += 1
            if OBS.enabled:
                OBS.add("serving.frontdoor.dispatch_failures")
            mutation.reply.set_error(exc)
            return
        self.breaker.record_success()
        mutation.reply.set_result(result)

    def _fire(self, n: int) -> None:
        batch = [self._queue.popleft() for _ in range(n)]
        coords = np.array(
            [item.coords for item in batch], dtype=np.float64
        )
        try:
            values = np.asarray(
                self._dispatch(coords), dtype=np.float64
            )
            if values.shape != (n,):
                raise ValidationError(
                    f"dispatch returned shape {values.shape}, "
                    f"expected ({n},)"
                )
        except Exception as exc:
            self.breaker.record_failure()
            self.dispatch_failures += 1
            if OBS.enabled:
                OBS.add("serving.frontdoor.dispatch_failures")
            for item in batch:
                item.reply.set_error(exc)
            return
        self.breaker.record_success()
        self.batches += 1
        self.batched += n
        if OBS.enabled:
            OBS.add("serving.frontdoor.batches")
            OBS.add("serving.frontdoor.batched", n)
        for item, value in zip(batch, values):
            item.reply.set_result(float(value))

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"max_wait_steps={self.max_wait_steps}, "
            f"pending={self.pending}, batches={self.batches})"
        )
