"""Batch query serving: the production-path layer over the estimators.

The paper's estimators answer one query at a time; a serving system
answers *workloads*.  An estimator is served as it is: each batch is
one validated, ``sync()``-ed pass of the Section 3.1 kernel over a few
hundred bytes of buckets, which no cache lookup or index probe put in
front of it can beat.  This package provides the pieces around that
kernel, none of which changes a single answer:

* :func:`parallel_map` — a deterministic chunked
  ``ProcessPoolExecutor`` mapper (order-preserving, metrics-merging)
  used by :meth:`repro.eval.ExperimentRunner.evaluate_sweep` and the
  bench harness to parallelise sweeps across techniques and datasets;
* the **sharded scatter-gather tier** — :class:`ShardPlan` (Min-Skew
  as the shard-boundary algorithm), :class:`ShardedHistogram` (one
  live histogram + kernel snapshot per shard, independent epochs),
  :class:`ShardRouter` (clip, fan out inline or over a
  :class:`ShardWorkerPool` of pinned workers, sum partials), and
  :class:`ShardUnionEstimator` (the single-engine differential
  reference);
* the **micro-batching front door** — :class:`MicroBatcher` (the
  sans-IO coalescing core: FIFO queue, dual size/logical-wait trigger
  on a :class:`~repro.resilience.StepClock`, mutation barriers,
  bounded admission with a typed
  :class:`~repro.errors.OverloadedError` shed) and :class:`FrontDoor`
  (the asyncio TCP ingress speaking length-prefixed JSON frames, with
  :class:`FrontDoorClient` / :class:`FrontDoorThread` as its client
  harnesses) — concurrent single-rect clients coalesce into the same
  batches, bit-identical to calling the served estimator directly;
* the **fault-tolerance layer** over that tier — the
  :class:`ShardWorkerPool` supervises its workers (logical reply
  deadlines, typed :class:`~repro.errors.ShardWorkerError`,
  deterministic respawn), :class:`ShardWAL` journals every shard
  mutation with periodic checkpoints so a respawned worker replays
  back to a bit-identical histogram (:func:`attach_wals` /
  :func:`wal_recovery`), and :class:`ShardHealth` drives the router's
  per-shard quarantine state machine (healthy → suspect → quarantined
  → recovering) with degraded ``Uniform@s<id>`` partials for shards
  it cannot reach.

The serving fast paths are locked down by a differential test suite:
batch equals the scalar loop to exact float equality, a ``workers=4``
sweep is byte-identical to ``workers=1``, and the sharded tier's
answers equal the single-engine reference bit-for-bit.

:mod:`repro.serving.cache` and :mod:`repro.serving.index` are not
exported and nothing in the package imports them; they stay only
because the repository benchmark's tracer (``perfbench/tracing.py``)
imports them by path.
"""

from .batcher import MicroBatcher, PendingReply
from .frontdoor import (
    FrontDoor,
    FrontDoorClient,
    FrontDoorThread,
    encode_frame,
)
from .parallel import ShardWorkerPool, parallel_map
from .router import ShardRouter
from .shard import (
    HistogramShard,
    ShardedHistogram,
    ShardPlan,
    ShardUnionEstimator,
    shard_quotas,
)
from .supervision import HEALTH_STATES, ShardHealth
from .wal import ShardWAL, attach_wals, wal_recovery

__all__ = [
    "MicroBatcher",
    "PendingReply",
    "FrontDoor",
    "FrontDoorClient",
    "FrontDoorThread",
    "encode_frame",
    "parallel_map",
    "ShardWorkerPool",
    "ShardPlan",
    "HistogramShard",
    "ShardedHistogram",
    "ShardUnionEstimator",
    "ShardRouter",
    "shard_quotas",
    "ShardHealth",
    "HEALTH_STATES",
    "ShardWAL",
    "attach_wals",
    "wal_recovery",
]
