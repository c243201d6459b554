"""Scatter-gather routing over a :class:`ShardedHistogram`.

:class:`ShardRouter` is the serving front of the sharded tier.  For a
query batch it

1. refreshes its view of every shard's epoch (counting per-shard
   bumps — the observability hook the invalidation tests assert on);
2. intersects the batch against each shard's *routing box* (the
   inflated-bucket MBR, see :mod:`repro.serving.shard`), skipping
   shards no query can touch;
3. clips each sub-batch to the routing box and fans it out — inline
   for ``workers <= 1``, over the long-lived deterministic
   :class:`~repro.serving.parallel.ShardWorkerPool` otherwise — where
   each shard answers it with one pass of its own kernel
   (:meth:`~repro.serving.shard.HistogramShard.estimate_batch_coords`);
4. scatters the partial estimates back, accumulating in shard-id
   order, which keeps the answer bit-identical to the
   :class:`~repro.serving.shard.ShardUnionEstimator` single-engine
   reference.

**Fault tolerance.**  Every fan-out runs under the supervision
policy: the pool bounds each reply wait with a logical deadline (a
dead or wedged worker surfaces as a typed
:class:`~repro.errors.ShardWorkerError` and is respawned, replaying
its write-ahead log); a failed shard dispatch is retried under the
router's :class:`~repro.resilience.RetryPolicy` with deterministic
backoff on the router's step clock; and each shard's consecutive
failures drive its :class:`~repro.serving.supervision.ShardHealth`
quarantine state machine (healthy → suspect → quarantined →
recovering).  A quarantined shard — or one that exhausted its retries
— is served by its **degraded partial**: the shard's ``Uniform@s<id>``
last resort over its routing box, computed parent-side.  The batch
therefore always completes with a well-defined answer; the shards that
were served degraded are annotated on
:attr:`ShardRouter.degraded_shards` after every serve.  Each shard
dispatch announces the ``serving.worker.s<id>`` fault site, so chaos
plans can fail specific shards deterministically.

Mutations route to the owning shard only; in pooled mode they are also
forwarded to the worker holding that shard (the parent keeps an
authoritative copy for routing boxes and ownership, the worker holds
the serving state — both replay the identical per-shard operation
stream, so the two copies cannot diverge).

Counters (``serving.shard.*``): ``requests``, ``queries``, ``fanout``
(shard dispatches), ``subqueries`` (routed query rows), ``skipped``
(shards not consulted), ``epoch_bumps`` plus per-shard
``epoch_bumps.s<id>``, ``routed_mutations``, and the supervision set:
``failures(.s<id>)``, ``retries``, ``degraded(.s<id>)``,
``health_transitions`` — plus ``serving.pool.respawns`` from the
worker pool underneath.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np
import numpy.typing as npt

from ..errors import ReproError
from ..estimators import SelectivityEstimator
from ..geometry import Rect, RectSet, validate_coords_array, \
    validate_extent
from ..obs import OBS
from ..resilience import RetryPolicy, StepClock
from ..resilience.faults import fire
from ..tuning import TuningReport
from .parallel import DEFAULT_POLL_INTERVAL, \
    DEFAULT_REPLY_BUDGET_STEPS, ShardWorkerPool
from .shard import HistogramShard, ShardedHistogram
from .supervision import ShardHealth

__all__ = ["ShardRouter"]

#: One dispatch: the shard plus its method and per-shard arguments.
_Call = Tuple[HistogramShard, str, Tuple[Any, ...]]

#: Placeholder for a dispatch that has produced no outcome yet.
_UNSET = object()


class ShardRouter(SelectivityEstimator):
    """Routes queries and mutations across a sharded histogram.

    Parameters
    ----------
    sharded:
        The shard tier to serve.  The router adopts its ``name`` so
        downstream error tables key identically.
    workers:
        ``<= 1`` serves every shard inline in this process;
        otherwise shards are pickled into a
        :class:`~repro.serving.parallel.ShardWorkerPool` of this many
        long-lived worker processes and sub-batches are fanned out.
    recover:
        Shard id → fresh shard callable handed to the pool for worker
        respawns (:func:`repro.serving.wal.wal_recovery`); ``None``
        re-pickles the parent's authoritative copies.
    retry:
        Per-shard retry policy for retryable dispatch failures.
    budget_steps / poll_interval:
        The pool's logical reply deadline (the fan-out's per-request
        budget) and liveness poll cadence.
    failure_threshold / reset_after_steps:
        Quarantine knobs: consecutive failures before a shard is
        quarantined, and cooldown steps before it may recover.
    """

    def __init__(
        self,
        sharded: ShardedHistogram,
        *,
        workers: int = 1,
        recover: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        budget_steps: Optional[int] = DEFAULT_REPLY_BUDGET_STEPS,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        failure_threshold: int = 3,
        reset_after_steps: int = 25,
    ) -> None:
        self.sharded = sharded
        self.name = sharded.name
        self.workers = max(1, workers)
        self._seen_epochs: Dict[int, int] = {
            s.shard_id: s.epoch for s in sharded.shards
        }
        self._clock = StepClock()
        self._retry = retry if retry is not None else RetryPolicy()
        self._health: Dict[int, ShardHealth] = {
            s.shard_id: ShardHealth(
                s.shard_id, self._clock,
                failure_threshold=failure_threshold,
                reset_after_steps=reset_after_steps,
            )
            for s in sharded.shards
        }
        #: Shard ids served degraded by the most recent serve — the
        #: explicit partial-result annotation of the batch contract.
        self.degraded_shards: Tuple[int, ...] = ()
        self._pool: Optional[ShardWorkerPool] = None
        if self.workers > 1:
            self._pool = ShardWorkerPool(
                {s.shard_id: s for s in sharded.shards},
                workers=self.workers,
                recover=recover,
                budget_steps=budget_steps,
                poll_interval=poll_interval,
            )

    # ------------------------------------------------------------------
    # epoch watching
    # ------------------------------------------------------------------
    def _revalidate(self) -> None:
        """Observe per-shard epochs; refresh stale routing boxes."""
        for shard in self.sharded.shards:
            epoch = shard.epoch
            if epoch != self._seen_epochs[shard.shard_id]:
                self._seen_epochs[shard.shard_id] = epoch
                if OBS.enabled:
                    OBS.add("serving.shard.epoch_bumps")
                    OBS.add(
                        "serving.shard.epoch_bumps"
                        f".s{shard.shard_id}"
                    )
            # recomputed lazily per epoch; calling it here keeps the
            # scatter step allocation-free on the hot path
            shard.routing_box()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def health(self) -> Dict[int, str]:
        """Current quarantine state of every shard."""
        return {
            sid: health.state
            for sid, health in self._health.items()
        }

    def _inline_call(self, call: _Call) -> Any:
        shard, method, args = call
        try:
            return getattr(shard, method)(*args)
        except ReproError as exc:
            return exc

    def _serve_supervised(
        self, calls: List[_Call]
    ) -> Tuple[List[Any], List[int]]:
        """Serve every dispatch under retry + quarantine.

        Returns per-call outcomes (aligned to ``calls``) and the
        positions that must be served degraded — quarantined shards
        that were never dispatched, plus shards whose retries were
        exhausted.  Healthy outcomes arrive in dispatch order, so the
        bit-for-bit accumulation contract survives supervision.
        """
        outcomes: List[Any] = [_UNSET] * len(calls)
        degraded: List[int] = []
        pending: List[int] = []
        for pos, (shard, _method, _args) in enumerate(calls):
            if self._health[shard.shard_id].allow():
                pending.append(pos)
            else:
                degraded.append(pos)
        attempt = 1
        while pending:
            sendable: List[int] = []
            requests: List[Tuple[int, str, Tuple[Any, ...]]] = []
            for pos in pending:
                shard, method, args = calls[pos]
                try:
                    fire(f"serving.worker.s{shard.shard_id}")
                except ReproError as exc:
                    outcomes[pos] = exc
                    continue
                sendable.append(pos)
                requests.append((shard.shard_id, method, args))
            if self._pool is not None:
                replies = self._pool.try_call_many(requests)
            else:
                replies = [
                    self._inline_call(calls[pos])
                    for pos in sendable
                ]
            for pos, reply in zip(sendable, replies):
                outcomes[pos] = reply
            retry: List[int] = []
            for pos in pending:
                shard = calls[pos][0]
                health = self._health[shard.shard_id]
                outcome = outcomes[pos]
                if isinstance(outcome, ReproError):
                    health.record_failure()
                    if OBS.enabled:
                        OBS.add("serving.shard.failures")
                        OBS.add(
                            "serving.shard.failures"
                            f".s{shard.shard_id}"
                        )
                    if outcome.retryable \
                            and attempt < self._retry.max_attempts \
                            and health.allow():
                        retry.append(pos)
                else:
                    health.record_success()
            if not retry:
                break
            if OBS.enabled:
                OBS.add("serving.shard.retries", len(retry))
            self._clock.advance(self._retry.backoff_for(attempt))
            attempt += 1
            pending = retry
        for pos, outcome in enumerate(outcomes):
            if isinstance(outcome, ReproError):
                degraded.append(pos)
        return outcomes, sorted(set(degraded))

    def _note_degraded(self, shard: HistogramShard) -> None:
        if OBS.enabled:
            OBS.add("serving.shard.degraded")
            OBS.add(f"serving.shard.degraded.s{shard.shard_id}")

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def estimate_batch(
        self, queries: RectSet
    ) -> "npt.NDArray[np.float64]":
        """Scatter-gather batch serve under ``serving.shard.*``."""
        validate_coords_array(queries.coords, what="query")
        if OBS.enabled:
            OBS.add("serving.shard.requests")
            OBS.add("serving.shard.queries", len(queries))
        with OBS.timer("serving.shard.batch"):
            # one step per request: quarantine cooldowns elapse with
            # served traffic, the deterministic notion of time here
            self._clock.advance(1)
            self._revalidate()
            return self._scatter_gather(queries)

    def _scatter_gather(
        self, queries: RectSet
    ) -> "npt.NDArray[np.float64]":
        coords = queries.coords
        result = np.zeros(len(queries), dtype=np.float64)
        dispatch: List[Tuple[
            HistogramShard,
            "npt.NDArray[np.int64]",
            "npt.NDArray[np.float64]",
        ]] = []
        skipped = 0
        for shard in self.sharded.shards:
            box = shard.routing_box()
            if box is None:
                skipped += 1
                continue
            mask = (
                (coords[:, 0] <= box.x2)
                & (coords[:, 2] >= box.x1)
                & (coords[:, 1] <= box.y2)
                & (coords[:, 3] >= box.y1)
            )
            idx = np.flatnonzero(mask).astype(np.int64)
            if idx.size == 0:
                skipped += 1
                continue
            sub = coords[idx]
            clipped = np.empty_like(sub)
            np.maximum(sub[:, 0], box.x1, out=clipped[:, 0])
            np.maximum(sub[:, 1], box.y1, out=clipped[:, 1])
            np.minimum(sub[:, 2], box.x2, out=clipped[:, 2])
            np.minimum(sub[:, 3], box.y2, out=clipped[:, 3])
            dispatch.append((shard, idx, clipped))
        if OBS.enabled:
            OBS.add("serving.shard.fanout", len(dispatch))
            OBS.add("serving.shard.skipped", skipped)
            OBS.add(
                "serving.shard.subqueries",
                sum(int(idx.size) for _, idx, _ in dispatch),
            )
        calls: List[_Call] = [
            (shard, "estimate_batch_coords", (clipped,))
            for shard, _, clipped in dispatch
        ]
        partials, degraded_pos = self._serve_supervised(calls)
        degraded_ids: List[int] = []
        for pos in degraded_pos:
            shard, _, clipped = dispatch[pos]
            partials[pos] = self._degraded_batch_partial(
                shard, clipped
            )
            degraded_ids.append(shard.shard_id)
            self._note_degraded(shard)
        self.degraded_shards = tuple(sorted(degraded_ids))
        # shard-id order: the accumulation order is part of the
        # bit-for-bit contract with ShardUnionEstimator
        for (_, idx, _), partial in zip(dispatch, partials):
            result[idx] += partial
        return result

    def _degraded_batch_partial(
        self,
        shard: HistogramShard,
        clipped: "npt.NDArray[np.float64]",
    ) -> "npt.NDArray[np.float64]":
        """The shard's Uniform last resort over its sub-batch —
        computed parent-side, without dispatching to the shard."""
        est = shard.degraded_estimator()
        if est is None:
            return np.zeros(clipped.shape[0], dtype=np.float64)
        sub = RectSet(clipped, copy=False, validate=False)
        return np.asarray(
            est.estimate_batch(sub), dtype=np.float64
        )

    def estimate(self, query: Rect) -> float:
        """Scalar serve: per-shard kernel calls, shard-order sum."""
        validate_extent(
            query.x1, query.y1, query.x2, query.y2, what="query"
        )
        self._clock.advance(1)
        self._revalidate()
        clips: List[Tuple[
            HistogramShard, Tuple[float, float, float, float]
        ]] = []
        skipped = 0
        for shard in self.sharded.shards:
            box = shard.routing_box()
            if box is None or not box.intersects(query):
                skipped += 1
                continue
            clips.append((shard, (
                max(query.x1, box.x1),
                max(query.y1, box.y1),
                min(query.x2, box.x2),
                min(query.y2, box.y2),
            )))
        if OBS.enabled:
            OBS.add("serving.shard.fanout", len(clips))
            OBS.add("serving.shard.skipped", skipped)
            OBS.add("serving.shard.subqueries", len(clips))
        calls: List[_Call] = [
            (shard, "estimate_one", clipped)
            for shard, clipped in clips
        ]
        values, degraded_pos = self._serve_supervised(calls)
        degraded_ids: List[int] = []
        for pos in degraded_pos:
            shard, clipped = clips[pos]
            est = shard.degraded_estimator()
            values[pos] = (
                est.estimate(Rect(*clipped))
                if est is not None else 0.0
            )
            degraded_ids.append(shard.shard_id)
            self._note_degraded(shard)
        self.degraded_shards = tuple(sorted(degraded_ids))
        total = 0.0
        for value in values:
            total += float(value)
        return total

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(self, rect: Rect) -> int:
        """Insert, routed to (and invalidating) one shard only."""
        sid = self.sharded.insert(rect)
        if OBS.enabled:
            OBS.add("serving.shard.routed_mutations")
        if self._pool is not None:
            self._pool.cast(sid, "apply_op", ("insert", rect))
        return sid

    def tune(
        self,
        queries: RectSet,
        *,
        max_ops: int = 2,
        grid_nx: int = 8,
        grid_ny: int = 8,
    ) -> List[Optional[TuningReport]]:
        """One feedback pass per shard, replicated to pool workers.

        The authoritative copies run the tuner
        (:meth:`ShardedHistogram.tune`); in pooled mode each applied
        layout is then shipped to the owning worker via the same
        fire-and-forget channel mutations use, so the worker's
        replica adopts the identical bucket list with its own single
        epoch bump (:meth:`HistogramShard.adopt_buckets`).  A pass
        that found nothing to change casts nothing — the replica's
        epoch only moves when the parent's did.
        """
        reports = self.sharded.tune(
            queries, max_ops=max_ops, grid_nx=grid_nx,
            grid_ny=grid_ny,
        )
        for shard, report in zip(self.sharded.shards, reports):
            if report is None or not report.applied:
                continue
            if OBS.enabled:
                OBS.add("serving.shard.routed_tunes")
            if self._pool is not None:
                self._pool.cast(
                    shard.shard_id, "adopt_buckets",
                    (list(shard.buckets),),
                )
        return reports

    def delete(self, rect: Rect) -> Tuple[int, bool]:
        """Delete via the owning shard; ``(shard id, accepted)``."""
        sid, accepted = self.sharded.delete(rect)
        if OBS.enabled:
            OBS.add("serving.shard.routed_mutations")
        if accepted and self._pool is not None:
            self._pool.cast(sid, "apply_op", ("delete", rect))
        return sid, accepted

    # ------------------------------------------------------------------
    def size_words(self) -> int:
        return self.sharded.size_words()

    def close(self) -> None:
        """Shut the worker pool down (no-op when serving inline)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = (
            f"pool={self.workers}" if self._pool is not None
            else "inline"
        )
        return (
            f"ShardRouter({self.name!r}, "
            f"n_shards={self.sharded.n_shards}, {mode})"
        )
