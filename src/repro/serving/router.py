"""Scatter-gather routing over a :class:`ShardedHistogram`.

:class:`ShardRouter` is the serving front of the sharded tier.  For a
query batch it

1. refreshes its view of every shard's epoch (counting per-shard
   bumps — the observability hook the invalidation tests assert on)
   and, when one moved, what derives from the shards: their *routing
   boxes* (the inflated-bucket MBRs, see :mod:`repro.serving.shard`)
   and, when serving inline, the *tier kernel* — every shard's own
   synced kernel snapshot, concatenated in shard order;
2. intersects the batch with every routing box at once: the ``(M, K)``
   hit mask names the shards the batch consults and counts the rows
   routed to them;
3. serves the consulted shards.  Inline (no worker pool) one pass of
   the tier kernel evaluates the Section 3.1 term of every (query,
   bucket) pair of the tier, and a healthy shard's partial is the row
   sum of its own column range over the whole batch.  A pooled tier
   clips each consulted shard's rows to its routing box and dispatches
   them, with the shard's epoch and kernel snapshot, over the
   long-lived deterministic
   :class:`~repro.serving.parallel.ShardWorkerPool` to the worker the
   shard is pinned to, which answers with the union reference's own
   :func:`~repro.core.bucket.estimate_many_arrays`;
4. adds the partials in shard order, which keeps the answer
   bit-identical to the :class:`~repro.serving.shard.ShardUnionEstimator`
   single-engine reference: the inline pass *is* that reference's
   arithmetic, and on the dispatched path clipping and skipping are
   exact identities (module docstring of :mod:`repro.serving.shard`).

A scalar :meth:`ShardRouter.estimate` is a one-row batch through the
same four steps.

**Fault tolerance.**  Every consulted shard is served under the
supervision policy: the pool bounds each reply wait with a logical
deadline (a dead or wedged worker surfaces as a typed
:class:`~repro.errors.ShardWorkerError` and is respawned empty, to be
sent its shards' kernels again); a failed shard dispatch is retried
under the router's :class:`~repro.resilience.RetryPolicy` with
deterministic backoff on the router's step clock; and each shard's
consecutive failures drive its
:class:`~repro.serving.supervision.ShardHealth` quarantine state
machine (healthy → suspect → quarantined → recovering).  A
quarantined shard — or one that exhausted its retries — is served by
its **degraded partial**: the shard's ``Uniform@s<id>`` last resort
over its clipped rows, computed parent-side.  The batch
therefore always completes with a well-defined answer; the shards that
were served degraded are annotated on
:attr:`ShardRouter.degraded_shards` after every serve.  Each consulted
shard announces the ``serving.worker.s<id>`` fault site, inline tier
kernel included, so chaos plans can fail specific shards
deterministically.

Mutations route to the owning shard only.  Mutations and tuning
passes apply in this process alone, which holds the one copy of every
shard; a worker holds kernels keyed by epoch, so a moved shard's next
dispatch carries its new kernel, and a worker asked for an epoch it
does not hold answers with an error, never with a stale kernel.

Counters (``serving.shard.*``): ``requests`` (serves; a scalar query
is a one-row serve), ``queries`` (rows served), ``fanout`` (shards a
batch's routing boxes hit — the shards consulted),
``subqueries`` (rows those boxes hit, summed over the consulted
shards), ``skipped`` (shards no row hits), ``epoch_bumps`` plus
per-shard ``epoch_bumps.s<id>``, ``routed_mutations``, and the
supervision set: ``failures(.s<id>)``, ``retries``,
``degraded(.s<id>)``, ``health_transitions`` — plus
``serving.pool.respawns`` from the worker pool underneath.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np
import numpy.typing as npt

from ..core.bucket import KERNEL_CHUNK_ROWS, BucketArrays
from ..errors import ReproError
from ..estimators import SelectivityEstimator
from ..geometry import Rect, RectSet, validate_coords_array
from ..obs import OBS
from ..resilience import RetryPolicy, StepClock
from ..resilience.faults import fire
from ..tuning import TuningReport
from .parallel import DEFAULT_POLL_INTERVAL, \
    DEFAULT_REPLY_BUDGET_STEPS, ShardWorkerPool
from .shard import ShardedHistogram
from .supervision import ShardHealth

__all__ = ["ShardRouter"]

#: Sends the given shard positions their requests; one reply per
#: position, a ``ReproError`` standing for a failed dispatch.
_Send = Callable[[List[int]], List[Any]]

_INF = float("inf")


def _in_tier_kernel(positions: List[int]) -> List[Any]:
    """The inline tier's dispatch: the tier kernel already holds every
    consulted shard's buckets, so there is nothing to send."""
    return [None] * len(positions)


class ShardRouter(SelectivityEstimator):
    """Routes queries and mutations across a sharded histogram.

    Parameters
    ----------
    sharded:
        The shard tier to serve.  The router adopts its ``name`` so
        downstream error tables key identically.
    workers:
        ``<= 1`` serves every shard inline in this process, in one
        pass of the tier kernel; otherwise shards are pinned to a
        :class:`~repro.serving.parallel.ShardWorkerPool` of this many
        long-lived worker processes and sub-batches are fanned out.
        A pooled router serves inline once :meth:`close` has shut its
        pool down.
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
        retry: Optional[RetryPolicy] = None,
        budget_steps: Optional[int] = DEFAULT_REPLY_BUDGET_STEPS,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        failure_threshold: int = 3,
        reset_after_steps: int = 25,
    ) -> None:
        self.sharded = sharded
        self.name = sharded.name
        self.workers = max(1, workers)
        shards = sharded.shards
        # per-shard state is kept by position in ``sharded.shards``
        self._seen_epochs: List[int] = [s.epoch for s in shards]
        self._sites: List[str] = [
            f"serving.worker.s{s.shard_id}" for s in shards
        ]
        self._clock = StepClock()
        self._retry = retry if retry is not None else RetryPolicy()
        self._health: List[ShardHealth] = [
            ShardHealth(
                s.shard_id, self._clock,
                failure_threshold=failure_threshold,
                reset_after_steps=reset_after_steps,
            )
            for s in shards
        ]
        #: Shard ids served degraded by the most recent serve — the
        #: explicit partial-result annotation of the batch contract.
        self.degraded_shards: Tuple[int, ...] = ()
        self._pool: Optional[ShardWorkerPool] = None
        if self.workers > 1:
            self._pool = ShardWorkerPool(
                [s.shard_id for s in shards],
                workers=self.workers,
                budget_steps=budget_steps,
                poll_interval=poll_interval,
            )
        self._arrays = BucketArrays(())
        self._columns: List[Tuple[int, int]] = []
        self._lo = self._hi = np.empty((0, 4), dtype=np.float64)
        self._refresh()

    # ------------------------------------------------------------------
    # epoch watching
    # ------------------------------------------------------------------
    def _revalidate(self) -> None:
        """Observe per-shard epochs; refresh what derives from them."""
        moved = False
        for k, shard in enumerate(self.sharded.shards):
            epoch = shard.epoch
            if epoch != self._seen_epochs[k]:
                self._seen_epochs[k] = epoch
                moved = True
                if OBS.enabled:
                    OBS.add("serving.shard.epoch_bumps")
                    OBS.add(
                        "serving.shard.epoch_bumps"
                        f".s{shard.shard_id}"
                    )
        if moved:
            self._refresh()

    def _refresh(self) -> None:
        """Rebuild the routing boxes and, without a pool, the tier
        kernel.

        Shard ``k``'s routing box is kept as two clip corners,
        ``lo[k] = (x1, y1, -inf, -inf)`` and ``hi[k] = (inf, inf, x2,
        y2)``, so ``min(max(row, lo[k]), hi[k])`` clips a query row in
        two operations; a shard with no buckets gets corners no row
        can hit.  The tier kernel concatenates every shard's own
        kernel snapshot in shard order, read through
        :meth:`~repro.serving.shard.HistogramShard.kernel`, so a shard
        re-snapshots only when its own epoch moved.
        """
        shards = self.sharded.shards
        inline = self._pool is None
        lo = np.full((len(shards), 4), -_INF, dtype=np.float64)
        hi = np.full((len(shards), 4), _INF, dtype=np.float64)
        kernels: List[BucketArrays] = []
        columns: List[Tuple[int, int]] = []
        start = 0
        for k, shard in enumerate(shards):
            box = shard.routing_box()
            if box is None:
                lo[k, :2] = _INF
                hi[k, 2:] = -_INF
            else:
                lo[k, :2] = (box.x1, box.y1)
                hi[k, 2:] = (box.x2, box.y2)
            if inline:
                kernel = shard.kernel()
                kernels.append(kernel)
                columns.append((start, start + kernel.n))
                start += kernel.n
        self._lo, self._hi = lo, hi
        if inline:
            self._arrays = BucketArrays.concat(kernels)
            self._columns = columns

    def _hits(
        self, coords: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.bool_]":
        """``(M, K)``: whether row ``m`` intersects shard ``k``'s
        routing box."""
        lo, hi = self._lo, self._hi
        return (
            (coords[:, 0:1] <= hi[:, 2])
            & (coords[:, 2:3] >= lo[:, 0])
            & (coords[:, 1:2] <= hi[:, 3])
            & (coords[:, 3:4] >= lo[:, 1])
        )

    def _clip(
        self, k: int, rows: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.float64]":
        """Query rows clipped to shard ``k``'s routing box."""
        return np.minimum(np.maximum(rows, self._lo[k]), self._hi[k])

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def health(self) -> Dict[int, str]:
        """Current quarantine state of every shard."""
        return {health.shard_id: health.state for health in self._health}

    def _serve_supervised(
        self, consulted: List[int], send: _Send
    ) -> Tuple[Dict[int, Any], List[int]]:
        """Serve every consulted shard under retry + quarantine.

        ``consulted`` holds shard positions in shard order.  Returns
        each dispatched position's reply and the positions that must
        be served degraded — quarantined shards that were never
        dispatched, plus shards whose retries were exhausted — and
        records the latter on :attr:`degraded_shards`.
        """
        outcomes: Dict[int, Any] = {}
        degraded: List[int] = []
        pending: List[int] = []
        for k in consulted:
            if self._health[k].allow():
                pending.append(k)
            else:
                degraded.append(k)
        attempt = 1
        while pending:
            sendable: List[int] = []
            for k in pending:
                try:
                    fire(self._sites[k])
                except ReproError as exc:
                    outcomes[k] = exc
                    continue
                sendable.append(k)
            outcomes.update(zip(sendable, send(sendable)))
            retry: List[int] = []
            for k in pending:
                health = self._health[k]
                outcome = outcomes[k]
                if isinstance(outcome, ReproError):
                    health.record_failure()
                    if OBS.enabled:
                        OBS.add("serving.shard.failures")
                        OBS.add(
                            "serving.shard.failures"
                            f".s{health.shard_id}"
                        )
                    if outcome.retryable \
                            and attempt < self._retry.max_attempts \
                            and health.allow():
                        retry.append(k)
                else:
                    health.record_success()
            if not retry:
                break
            if OBS.enabled:
                OBS.add("serving.shard.retries", len(retry))
            self._clock.advance(self._retry.backoff_for(attempt))
            attempt += 1
            pending = retry
        degraded.extend(
            k for k, outcome in outcomes.items()
            if isinstance(outcome, ReproError)
        )
        degraded.sort()
        ids = [self._health[k].shard_id for k in degraded]
        self.degraded_shards = tuple(sorted(ids))
        if OBS.enabled:
            for sid in ids:
                OBS.add("serving.shard.degraded")
                OBS.add(f"serving.shard.degraded.s{sid}")
        return outcomes, degraded

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
        hits = self._hits(coords)
        consulted: List[int] = np.flatnonzero(hits.any(axis=0)).tolist()
        if OBS.enabled:
            OBS.add("serving.shard.fanout", len(consulted))
            OBS.add(
                "serving.shard.skipped",
                len(self._sites) - len(consulted),
            )
            OBS.add(
                "serving.shard.subqueries", int(np.count_nonzero(hits))
            )
        if self._pool is None:
            return self._serve_fused(coords, hits, consulted)
        return self._serve_dispatched(self._pool, coords, hits, consulted)

    def _serve_fused(
        self,
        coords: "npt.NDArray[np.float64]",
        hits: "npt.NDArray[np.bool_]",
        consulted: List[int],
    ) -> "npt.NDArray[np.float64]":
        """One tier-kernel pass: every healthy consulted shard adds the
        row sums of its column range, in shard order, for every row."""
        _, degraded = self._serve_supervised(consulted, _in_tier_kernel)
        m = coords.shape[0]
        result = np.zeros(m, dtype=np.float64)
        if not consulted:
            return result
        # a degraded partial spread over the whole batch: the +0.0 it
        # adds to rows the shard's box misses is an exact identity
        spread: Dict[int, "npt.NDArray[np.float64]"] = {}
        for k in degraded:
            idx = np.flatnonzero(hits[:, k])
            spread[k] = np.zeros(m, dtype=np.float64)
            spread[k][idx] = self._degraded_batch_partial(
                k, self._clip(k, coords[idx])
            )
        for start in range(0, m, KERNEL_CHUNK_ROWS):
            stop = start + KERNEL_CHUNK_ROWS
            terms = self._arrays.term_block(coords[start:stop])
            out = result[start:stop]
            for k in consulted:
                if k in spread:
                    out += spread[k][start:stop]
                else:
                    lo, hi = self._columns[k]
                    out += terms[:, lo:hi].sum(axis=1)
        return result

    def _serve_dispatched(
        self,
        pool: ShardWorkerPool,
        coords: "npt.NDArray[np.float64]",
        hits: "npt.NDArray[np.bool_]",
        consulted: List[int],
    ) -> "npt.NDArray[np.float64]":
        """Clip each consulted shard's rows to its routing box and
        dispatch them, with the shard's epoch and kernel, to the
        worker the shard is pinned to."""
        shards = self.sharded.shards
        rows: Dict[int, "npt.NDArray[np.int64]"] = {}
        clipped: Dict[int, "npt.NDArray[np.float64]"] = {}
        for k in consulted:
            idx = np.flatnonzero(hits[:, k])
            rows[k] = idx
            clipped[k] = self._clip(k, coords[idx])

        def send(positions: List[int]) -> List[Any]:
            return pool.try_call_many([
                (shards[k].shard_id, shards[k].epoch,
                 (clipped[k], shards[k].kernel()))
                for k in positions
            ])

        partials, degraded = self._serve_supervised(consulted, send)
        result = np.zeros(coords.shape[0], dtype=np.float64)
        # shard order: the accumulation order is part of the
        # bit-for-bit contract with ShardUnionEstimator
        for k in consulted:
            if k in degraded:
                partial = self._degraded_batch_partial(k, clipped[k])
            else:
                partial = partials[k]
            result[rows[k]] += partial
        return result

    def _degraded_batch_partial(
        self, k: int, clipped: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.float64]":
        """Shard ``k``'s Uniform last resort over its clipped rows —
        computed parent-side, without dispatching to the shard."""
        est = self.sharded.shards[k].degraded_estimator()
        if est is None:
            return np.zeros(clipped.shape[0], dtype=np.float64)
        sub = RectSet(clipped, copy=False, validate=False)
        return np.asarray(
            est.estimate_batch(sub), dtype=np.float64
        )

    def estimate(self, query: Rect) -> float:
        """Scalar serve: :meth:`estimate_batch` on a one-row batch."""
        row = np.array(
            [[query.x1, query.y1, query.x2, query.y2]], dtype=np.float64
        )
        queries = RectSet(row, copy=False, validate=False)
        return float(self.estimate_batch(queries)[0])

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def insert(self, rect: Rect) -> int:
        """Insert, routed to (and invalidating) one shard only."""
        sid = self.sharded.insert(rect)
        if OBS.enabled:
            OBS.add("serving.shard.routed_mutations")
        return sid

    def tune(
        self,
        queries: RectSet,
        *,
        max_ops: int = 2,
        grid_nx: int = 8,
        grid_ny: int = 8,
    ) -> List[Optional[TuningReport]]:
        """One feedback pass per shard (:meth:`ShardedHistogram.tune`).

        An applied layout moves its shard's epoch like any mutation,
        so in pooled mode the shard's next dispatch ships the tuned
        kernel.
        """
        reports = self.sharded.tune(
            queries, max_ops=max_ops, grid_nx=grid_nx,
            grid_ny=grid_ny,
        )
        if OBS.enabled:
            for report in reports:
                if report is not None and report.applied:
                    OBS.add("serving.shard.routed_tunes")
        return reports

    def delete(self, rect: Rect) -> Tuple[int, bool]:
        """Delete via the owning shard; ``(shard id, accepted)``."""
        sid, accepted = self.sharded.delete(rect)
        if OBS.enabled:
            OBS.add("serving.shard.routed_mutations")
        return sid, accepted

    # ------------------------------------------------------------------
    def size_words(self) -> int:
        return self.sharded.size_words()

    def close(self) -> None:
        """Shut the worker pool down and serve inline from then on
        (no-op when serving inline already)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._refresh()

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
