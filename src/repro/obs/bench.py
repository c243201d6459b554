"""The ``repro-spatial bench`` regression workload.

Runs a fixed benchmark — a Charminar-style synthetic set and a simulated
NJ-Road set, every estimator in :data:`repro.eval.ALL_TECHNIQUES` — with
metrics collection enabled, and emits one ``BENCH_<name>.json`` artifact
(validated against :data:`repro.obs.schema.BENCH_SCHEMA`) containing:

* per-technique build and batch-estimation wall-clock times,
* the hot-path counters and stage timers the run produced
  (Min-Skew splits/heap traffic, R*-tree node accesses, oracle and
  estimator batch sizes, ...),
* the accuracy summary of every technique on the shared workload,
* a measurement of the metrics layer's own overhead, enabled and
  disabled, so the "near-zero when off" claim is checked by CI rather
  than asserted in prose.

The quick configuration (``repro-spatial bench --quick``) finishes in
well under a minute and is the baseline every perf PR compares against;
``--full`` runs the same pipeline at paper scale.

Two resilience knobs ride on top of the plain run:

* ``checkpoint_dir`` — every (dataset, technique) cell is persisted to a
  :class:`repro.storage.CheckpointStore` as soon as it finishes, so a
  run killed mid-way resumes from the last completed cell instead of
  starting over.  The store is fingerprinted by the benchmark config, so
  stale checkpoints from a different configuration are rejected rather
  than silently mixed in.
* ``deterministic`` — zeroes every wall-clock field (timestamps, build
  and estimate times, overhead probes, stage timers), leaving only the
  seed-driven values.  A killed-and-resumed deterministic run is
  byte-identical to an uninterrupted one, which is what the resume test
  asserts.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, Type, Union,
)

import numpy as np
import numpy.typing as npt

from ..core.bucket import assign_by_center
from ..core.maintenance import MaintainedHistogram
from ..core.minskew import MinSkewPartitioner
from ..geometry import RectSet
from ..data import make_dataset
from ..eval import (
    ALL_TECHNIQUES,
    BUCKET_TECHNIQUES,
    ExperimentRunner,
    build_estimator,
    build_partitioner,
)
from ..estimators import (
    BucketEstimator, MaintainedEstimator, SelectivityEstimator,
)
from ..eval.metrics import error_summary
from ..resilience.chaos import WorkerKillConfig, run_worker_kill_chaos
from ..serving import ShardedHistogram, ShardRouter, parallel_map
from ..storage.checkpoint import CheckpointStore, config_fingerprint
from ..storage.persist import atomic_write_text
from ..tuning import FeedbackCollector, FeedbackTuner
from ..workload import LiveOp, live_workload, range_queries
from .metrics import OBS, MetricsRegistry
from .schema import BENCH_SCHEMA, SCHEMA_VERSION, validate_bench

__all__ = [
    "BenchConfig",
    "QUICK_CONFIG",
    "FULL_CONFIG",
    "SERVING_CONFIG",
    "LIVE_CONFIG",
    "SERVER_CONFIG",
    "TUNING_CONFIG",
    "PRESETS",
    "gate_failures",
    "measure_overhead",
    "run_bench",
    "write_bench",
]


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark workload definition.

    ``datasets`` pairs registry names with sizes; every technique in
    ``techniques`` is built once per dataset and evaluated on a shared
    query workload.
    """

    name: str
    datasets: Tuple[Tuple[str, int], ...]
    n_buckets: int = 50
    n_regions: int = 2_500
    n_queries: int = 300
    qsize: float = 0.05
    query_seed: int = 42
    techniques: Tuple[str, ...] = tuple(ALL_TECHNIQUES)
    #: ``"scalar"`` estimates with the plain per-technique batch call;
    #: ``"batch"`` additionally times the scalar one-query-at-a-time
    #: loop, recording the speedup per technique;
    #: ``"live"`` replays an interleaved query/insert/delete stream
    #: against a maintained histogram served directly and checks the
    #: staleness contract (see ``live_matches``);
    #: ``"sharded"`` serves through the scatter-gather
    #: :class:`repro.serving.ShardRouter` over ``n_shards`` Min-Skew
    #: shard boxes and differentially gates the answers against the
    #: single-engine union reference (see ``sharded_matches``);
    #: ``"server"`` serves through the asyncio micro-batching
    #: :class:`repro.serving.FrontDoor` with ``concurrency``
    #: closed-loop TCP clients, records client-observed p50/p99
    #: latency and qps for the batched and the ``max_batch=1``
    #: single-dispatch runs, and differentially gates both against
    #: the direct router call (see ``server_matches``);
    #: ``"tuned"`` replays a *drifting* live stream against a
    #: feedback-tuned histogram and an identically budgeted static
    #: control, recording the ARE differential and the bit-for-bit
    #: rebuild gate (see ``tuned_matches``).
    engine: str = "scalar"
    #: Worker processes for the per-technique cells (1 = in-process).
    workers: int = 1
    #: Length of the interleaved maintenance stream (``engine="live"``,
    #: ``"tuned"`` and ``"sharded"``).
    live_ops: int = 0
    #: Seed of the interleaved stream.
    live_seed: int = 43
    #: Drift threshold of the maintained histograms — low enough that
    #: the default stream actually triggers refreshes (full summary
    #: rebuilds), so the bench exercises every epoch-bump source.
    live_drift: float = 0.02
    #: Shard count of the scatter-gather tier (``engine="sharded"``).
    n_shards: int = 4
    #: Router worker processes for the sharded tier (1 = inline).
    shard_workers: int = 1
    #: Load-generator processes of the front-door run
    #: (``engine="server"``): each drives one pipelined TCP
    #: connection of single-rect frames.
    concurrency: int = 4
    #: Micro-batch size cap of the front-door run.
    server_max_batch: int = 64
    #: Logical-wait trigger of the front-door batcher (StepClock
    #: steps a head-of-queue query may wait before a partial batch
    #: fires; 0 disables the wait trigger).
    server_wait_steps: int = 4
    #: Pipelining window per client: frames sent back to back before
    #: the client reads that window's responses.
    server_window: int = 64
    #: Deterministic per-insert translation bias of the live stream
    #: (fraction of the MBR extent per axis).  The default keeps the
    #: stream byte-identical to the pre-drift one.
    live_drift_xy: Tuple[float, float] = (0.0, 0.0)
    #: Operations between feedback tuning passes (``engine="tuned"``;
    #: 0 disables tuning, leaving only the static control).
    tune_every: int = 0
    #: Hill-climbing rounds per tuning pass.
    tune_max_ops: int = 4
    #: Feedback collector stride: record every Nth served query.
    feedback_sample: int = 1
    #: Tuning passes score the most recent ``tune_window`` collected
    #: queries (accumulated across drains), not just the last drain —
    #: a broad sample keeps the hill-climber from overfitting one
    #: burst of the stream.
    tune_window: int = 2_000
    #: Operation mix of the live stream.  The defaults
    #: match :func:`repro.workload.live_workload`; the tuning preset
    #: raises the insert share so the biased inserts actually move
    #: the distribution within the stream's length.
    live_query_frac: float = 0.6
    live_insert_frac: float = 0.2

    def replace(self, **changes: Any) -> "BenchConfig":
        from dataclasses import replace

        return replace(self, **changes)


#: The CI baseline: small enough to finish in well under a minute.
QUICK_CONFIG = BenchConfig(
    name="quick",
    datasets=(("charminar", 6_000), ("nj_road", 6_000)),
    n_buckets=40,
    n_regions=10_000,
    n_queries=500,
)

#: Paper-scale sweep for manual runs (expect several minutes).
FULL_CONFIG = BenchConfig(
    name="full",
    datasets=(("charminar", 40_000), ("nj_road", 40_000)),
    n_buckets=100,
    n_regions=10_000,
    n_queries=1_000,
)

#: The serving-tier regression workload: the paper's 10 000-query
#: Charminar workload served through the sharded scatter-gather tier
#: (every bucket technique, Min-Skew shard boundaries), differentially
#: gated bit-for-bit against the single-engine union reference, plus a
#: live mutation stream checking that each mutation invalidates only
#: the owning shard.
SERVING_CONFIG = BenchConfig(
    name="serving",
    datasets=(("charminar", 6_000),),
    n_buckets=40,
    n_regions=10_000,
    n_queries=10_000,
    techniques=tuple(BUCKET_TECHNIQUES),
    engine="sharded",
    live_ops=500,
    n_shards=4,
)

#: The live-serving regression workload: each bucket technique is kept
#: in a :class:`~repro.core.maintenance.MaintainedHistogram`, an
#: interleaved query/insert/delete stream is replayed against it
#: (auto-refresh on drift), and the final batch answers are checked
#: bit-identical to a freshly built estimator over the same buckets —
#: the epoch-consistency gate CI asserts.
LIVE_CONFIG = BenchConfig(
    name="live",
    datasets=(("charminar", 4_000),),
    n_buckets=40,
    n_regions=2_500,
    n_queries=500,
    techniques=("Min-Skew", "Equi-Count", "Grid"),
    engine="live",
    live_ops=800,
)

#: The front-door latency/throughput workload: the paper's 10 000-query
#: Charminar workload issued as single-rect frames by four pipelined
#: client processes against the sharded scatter-gather tier, coalesced
#: by the micro-batcher into engine batches, and compared against the
#: *same* server pinned to ``max_batch=1`` (single-query-per-call
#: dispatch).  The committed baseline is the micro-batching speedup CI
#: quotes; answers on both paths are gated bit-for-bit against the
#: direct router call (``server.server_matches``).
SERVER_CONFIG = BenchConfig(
    name="server",
    datasets=(("charminar", 6_000),),
    n_buckets=40,
    n_regions=10_000,
    n_queries=10_000,
    techniques=("Min-Skew",),
    engine="server",
    n_shards=4,
    concurrency=4,
    server_max_batch=128,
    server_window=128,
)

#: The self-tuning regression workload: a drifting live stream (every
#: insert biased toward one corner, so the hotspot migrates) is
#: replayed against two identically built Min-Skew histograms — one
#: offering every served query to a feedback collector and
#: periodically re-split by :class:`repro.tuning.FeedbackTuner`, one
#: left structurally static.  Both are scored against exact ground
#: truth over the *final* data at equal bucket budget; the committed
#: baseline pins ``tuned.are_tuned`` strictly below
#: ``tuned.are_static`` (the differential CI gates on) and
#: ``tuned.tuned_matches`` (the tuned estimator is bit-identical to a
#: fresh rebuild over the tuned buckets).
TUNING_CONFIG = BenchConfig(
    name="tuning",
    datasets=(("charminar", 2_000),),
    n_buckets=16,
    n_regions=2_500,
    n_queries=500,
    techniques=("Min-Skew",),
    engine="tuned",
    live_ops=6_000,
    live_drift_xy=(0.08, 0.06),
    tune_every=300,
    tune_max_ops=4,
    live_query_frac=0.5,
    live_insert_frac=0.35,
)

#: Every preset by name: ``repro-spatial bench --<name>`` runs it.
PRESETS = {
    config.name: config
    for config in (QUICK_CONFIG, FULL_CONFIG, SERVING_CONFIG,
                   LIVE_CONFIG, SERVER_CONFIG, TUNING_CONFIG)
}


# ----------------------------------------------------------------------
# instrumentation overhead
# ----------------------------------------------------------------------
def _per_call_ns(action: Callable[[int], None], calls: int) -> float:
    start = time.perf_counter()
    action(calls)
    return (time.perf_counter() - start) / calls * 1e9


def measure_overhead(
    *, calls: int = 200_000, hot_path_repeats: int = 3
) -> Dict[str, float]:
    """Cost of the metrics layer itself, per call and on a hot path.

    Uses a private registry so the measurement never pollutes (or is
    polluted by) the process-wide :data:`OBS` state.  The hot-path
    numbers build the same small Min-Skew histogram with collection
    disabled and enabled (best of ``hot_path_repeats``), which is the
    end-to-end check that instrumented code costs nothing when off.
    """
    registry = MetricsRegistry(enabled=False)

    def counter_loop(n: int) -> None:
        add = registry.add
        for _ in range(n):
            add("bench.overhead")

    def timer_loop(n: int) -> None:
        timer = registry.timer
        for _ in range(n):
            with timer("bench.overhead"):
                pass

    disabled_counter = _per_call_ns(counter_loop, calls)
    disabled_timer = _per_call_ns(timer_loop, calls // 10)
    registry.enable()
    enabled_counter = _per_call_ns(counter_loop, calls)
    enabled_timer = _per_call_ns(timer_loop, calls // 10)

    data = make_dataset("charminar", 2_000)
    partitioner = MinSkewPartitioner(20, n_regions=400)

    def hot_path_seconds(enabled: bool) -> float:
        best = float("inf")
        for _ in range(hot_path_repeats):
            with OBS.scope(enabled):
                start = time.perf_counter()
                partitioner.partition(data)
                best = min(best, time.perf_counter() - start)
        return best

    return {
        "disabled_counter_ns": disabled_counter,
        "disabled_timer_ns": disabled_timer,
        "enabled_counter_ns": enabled_counter,
        "enabled_timer_ns": enabled_timer,
        "minskew_disabled_s": hot_path_seconds(False),
        "minskew_enabled_s": hot_path_seconds(True),
    }


# ----------------------------------------------------------------------
# the front door's load generator (engine="server")
# ----------------------------------------------------------------------
def _frontdoor_client(
    host: str,
    port: int,
    coords: "npt.NDArray[np.float64]",
    rows: "npt.NDArray[np.int64]",
    window: int,
    out_q: Any,
    barrier: Any,
) -> None:
    """One load-generator process: windowed pipelining over a raw
    socket.

    Sends ``window`` single-rect frames back to back, then reads that
    window's responses before sending the next — the closed-loop
    pipelined client every serving benchmark models.  Runs in a child
    process so client-side CPU (framing, JSON) never contends with the
    server's event loop for the GIL; the barrier keeps process startup
    out of the measured window.  Per-request latency is the gap from
    the window's send to that response's arrival.
    """
    import socket

    from ..serving.frontdoor import encode_frame

    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    n = len(rows)
    values = np.zeros(n, dtype=np.float64)
    latencies = np.zeros(n, dtype=np.float64)
    position = {int(rid): k for k, rid in enumerate(rows)}
    barrier.wait()
    try:
        buffer = bytearray()
        for start in range(0, n, window):
            chunk = rows[start:start + window]
            frames = b"".join(
                encode_frame({
                    "id": int(rid),
                    "op": "estimate",
                    "rect": [
                        float(v) for v in coords[position[int(rid)]]
                    ],
                })
                for rid in chunk
            )
            t0 = time.perf_counter()
            sock.sendall(frames)
            got = 0
            while got < len(chunk):
                data = sock.recv(1 << 16)
                if not data:
                    raise ConnectionError(
                        "front door closed the connection"
                    )
                buffer.extend(data)
                while got < len(chunk) and len(buffer) >= 4:
                    length = int.from_bytes(buffer[:4], "big")
                    if len(buffer) < 4 + length:
                        break
                    response = json.loads(bytes(buffer[4:4 + length]))
                    del buffer[:4 + length]
                    arrived = time.perf_counter()
                    k = position[int(response["id"])]
                    values[k] = float(response["value"])
                    latencies[k] = arrived - t0
                    got += 1
    finally:
        sock.close()
    out_q.put((rows, values, latencies))


def _frontdoor_run(
    backend: Any,
    queries: "RectSet",
    config: BenchConfig,
    max_batch: int,
    wait_steps: int,
) -> Tuple["npt.NDArray[np.float64]", "npt.NDArray[np.float64]",
           float, Dict[str, float]]:
    """Serve ``queries`` through a front door over ``backend``.

    ``config.concurrency`` client processes split the workload and
    drive it with ``config.server_window``-deep pipelining
    (:func:`_frontdoor_client`).
    Returns ``(values, per-request latencies in seconds, wall seconds,
    batcher stats)``.  The caller passes a stateless backend (one
    that caches no answers) so the batched and the ``max_batch=1``
    run see identical per-dispatch work regardless of order.
    """
    import multiprocessing as mp

    from ..serving import FrontDoorThread

    coords = queries.coords
    n = len(queries)
    front = FrontDoorThread(
        backend, max_batch=max_batch, max_wait_steps=wait_steps
    )
    front.start()
    try:
        ctx = mp.get_context("spawn")
        out_q = ctx.Queue()
        n_clients = max(1, min(config.concurrency, n))
        barrier = ctx.Barrier(n_clients + 1)
        slices = np.array_split(
            np.arange(n, dtype=np.int64), n_clients
        )
        procs = [
            ctx.Process(
                target=_frontdoor_client,
                args=(front.host, front.port, coords[rows], rows,
                      max(1, config.server_window), out_q, barrier),
            )
            for rows in slices
        ]
        for proc in procs:
            proc.start()
        barrier.wait()
        t0 = time.perf_counter()
        values = np.zeros(n, dtype=np.float64)
        latencies = np.zeros(n, dtype=np.float64)
        for _ in procs:
            rows, part_values, part_latencies = out_q.get()
            values[rows] = part_values
            latencies[rows] = part_latencies
        seconds = time.perf_counter() - t0
        for proc in procs:
            proc.join(timeout=30.0)
        stats = front.stats()
    finally:
        front.stop()
    return values, latencies, seconds, stats


# ----------------------------------------------------------------------
# engine kinds: how each builds its stack and what it gates
# ----------------------------------------------------------------------
@dataclass
class _Run:
    """What :func:`_run_cell` measured, handed to a kind's hooks."""

    #: the scored batch and its exact answers
    queries: RectSet
    truth: "npt.NDArray[np.float64]"
    estimate_seconds: float = 0.0
    #: counters right after the scored batch, and at the window's end
    batch_counters: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Any] = field(default_factory=dict)
    #: replayed op stream, per op kind
    ops: "Counter[str]" = field(default_factory=Counter)
    replay_seconds: float = 0.0


class _Stack:
    """How one ``BenchConfig.engine`` kind builds and gates a cell.

    :func:`_run_cell` owns the rest.  A kind builds its serving stack
    in :meth:`build` (timed as ``build_seconds``), answers a batch in
    :meth:`serve` (the scored call is timed as ``estimate_seconds``),
    applies one op of the ``live_workload`` stream in :meth:`apply`,
    records its gate against its reference path in :meth:`check`
    (inside the metrics window), and returns its extra cell fields
    from :meth:`record` (after the window closed).
    """

    #: cell key of the extra block (``""``: fields at the top level)
    block = ""
    #: the extra block's wall-clock fields, zeroed by ``deterministic``
    timed: Tuple[str, ...] = ()
    #: when the op stream (``config.live_ops``) replays: ``"before"``
    #: the scored batch, which then answers the rows it left behind;
    #: ``"after"`` it, re-checking the gate over the new state; or
    #: ``""``, never
    stream = ""
    #: what :meth:`serve` and :meth:`size_words` go through
    backend: SelectivityEstimator

    def __init__(
        self, technique: str, data: RectSet, config: BenchConfig
    ) -> None:
        self.technique = technique
        self.config = config
        self.build(data)

    def build(self, data: RectSet) -> None:
        raise NotImplementedError

    def serve(self, queries: RectSet) -> "npt.NDArray[np.float64]":
        return self.backend.estimate_batch(queries)

    def size_words(self) -> int:
        return int(self.backend.size_words())

    def apply(self, op: LiveOp) -> None:
        raise NotImplementedError

    def scored(
        self, queries: RectSet, truth: "npt.NDArray[np.float64]"
    ) -> Tuple[RectSet, "npt.NDArray[np.float64]"]:
        """The batch the accuracy block scores, and its exact answers."""
        return queries, truth

    def check(self, run: _Run, served: "npt.NDArray[np.float64]") -> None:
        """Gate ``served`` against the kind's reference path."""

    def record(self, run: _Run) -> Dict[str, Any]:
        """The kind's extra cell fields."""
        return {}

    def close(self) -> None:
        """Release the stack's worker processes."""


class _Scalar(_Stack):
    """The technique's own batch kernel."""

    def build(self, data: RectSet) -> None:
        self.backend = self.estimator = build_estimator(
            self.technique, data, self.config.n_buckets,
            n_regions=self.config.n_regions,
        )


class _Batch(_Scalar):
    """The vectorised kernel against the scalar loop.

    ``scalar_seconds`` times the one-query-at-a-time loop, ``speedup``
    is its ratio to the kernel's time, and ``scalar_matches`` records
    that the two agreed to exact float equality.
    """

    timed = ("scalar_seconds", "speedup")

    def check(self, run: _Run, served: "npt.NDArray[np.float64]") -> None:
        start = time.perf_counter()
        scalar = np.array(
            [self.estimator.estimate(q) for q in run.queries],
            dtype=np.float64,
        )
        self.scalar_seconds = time.perf_counter() - start
        self.matches = bool(np.array_equal(scalar, served))

    def record(self, run: _Run) -> Dict[str, Any]:
        return {
            "scalar_seconds": self.scalar_seconds,
            "speedup": (
                self.scalar_seconds / run.estimate_seconds
                if run.estimate_seconds > 0.0 else 0.0
            ),
            "scalar_matches": self.matches,
        }


def _maintained(
    technique: str, data: RectSet, config: BenchConfig
) -> MaintainedHistogram:
    return MaintainedHistogram(
        build_partitioner(
            technique, config.n_buckets, n_regions=config.n_regions
        ),
        data,
        drift_threshold=config.live_drift,
    )


class _Live(_Stack):
    """A maintained histogram served while the op stream mutates it.

    The technique's partitioner seeds a
    :class:`~repro.core.maintenance.MaintainedHistogram`, served
    directly by a :class:`~repro.estimators.MaintainedEstimator`; the
    stream's mutations refresh it whenever drift crosses its
    threshold.  ``live.live_matches`` is the staleness contract: after
    the whole stream, the long-lived estimator's batch answers (its
    re-synced kernel snapshot) are bit-identical to a freshly built
    estimator's over the same buckets.  Accuracy is scored against
    exact ground truth over the rows the stream left behind.
    """

    block = "live"
    timed = ("replay_seconds",)
    stream = "before"

    def build(self, data: RectSet) -> None:
        self.hist = _maintained(self.technique, data, self.config)
        self.backend = MaintainedEstimator(self.hist, name=self.technique)

    def apply(self, op: LiveOp) -> None:
        if op.kind == "query":
            self.backend.estimate(op.rect)
            return
        if op.kind == "insert":
            self.hist.insert(op.rect)
        else:
            self.hist.delete(op.rect)
        if self.hist.needs_refresh:
            self.hist.refresh()

    def scored(
        self, queries: RectSet, truth: "npt.NDArray[np.float64]"
    ) -> Tuple[RectSet, "npt.NDArray[np.float64]"]:
        final = self.hist.current_data()
        return queries, ExperimentRunner(final).true_counts(queries)

    def check(self, run: _Run, served: "npt.NDArray[np.float64]") -> None:
        fresh = BucketEstimator(list(self.hist.buckets), name=self.technique)
        self.matches = bool(
            np.array_equal(served, fresh.estimate_batch(run.queries))
        )

    def _stream_fields(self, run: _Run) -> Dict[str, Any]:
        return {
            "ops": sum(run.ops.values()),
            "queries": run.ops["query"],
            "inserts": run.ops["insert"],
            "deletes": run.ops["delete"],
            "final_epoch": int(self.hist.epoch),
            "final_n": len(self.hist),
            "replay_seconds": run.replay_seconds,
        }

    def record(self, run: _Run) -> Dict[str, Any]:
        counters = run.counters
        return {"live": {
            **self._stream_fields(run),
            "refreshes": int(counters.get("maintenance.refreshes", 0)),
            "estimator_rebuilds": int(
                counters.get("serving.epoch.estimator_rebuilds", 0)
            ),
            "live_matches": self.matches,
        }}


class _Tuned(_Live):
    """Query-feedback self-tuning against a static control.

    Two identically built maintained histograms replay the same
    *drifting* stream (``config.live_drift_xy`` biases every insert,
    so the hotspot migrates instead of diffusing).  The tuned side
    offers every query it serves — each scalar query op and the scored
    batch — to its :class:`~repro.tuning.FeedbackCollector`; every
    ``config.tune_every`` operations the collected queries are drained
    and a :class:`~repro.tuning.FeedbackTuner` pass re-splits the
    worst-estimating buckets (merging cold accurate neighbours to pay
    for them).  The static side answers the same queries but is never
    restructured.  Neither side auto-refreshes: the differential
    isolates what feedback tuning buys at a fixed bucket budget.

    Scoring regenerates the paper's query model over the *final* rows
    — the drifted reality both histograms now summarise.
    ``tuned.tuned_matches`` is the epoch contract (the long-lived
    tuned estimator is bit-identical to a fresh one over the tuned
    buckets); ``tuned.count_conserved`` checks the tuned summaries
    still account for exactly the covered rows.
    """

    block = "tuned"

    def build(self, data: RectSet) -> None:
        super().build(data)
        self.collector = FeedbackCollector(
            sample_every=self.config.feedback_sample
        )
        self.static_hist = _maintained(self.technique, data, self.config)
        self.static = MaintainedEstimator(
            self.static_hist, name=self.technique
        )
        self.tuner = FeedbackTuner(
            self.hist, max_ops=self.config.tune_max_ops
        )
        self.window: List["npt.NDArray[np.float64]"] = []
        self.step = 0

    def apply(self, op: LiveOp) -> None:
        if op.kind == "query":
            self.collector.observe(op.rect, self.backend.estimate(op.rect))
            self.static.estimate(op.rect)
        else:
            for hist in (self.hist, self.static_hist):
                if op.kind == "insert":
                    hist.insert(op.rect)
                else:
                    hist.delete(op.rect)
        self.step += 1
        every = self.config.tune_every
        if every and self.step % every == 0:
            feedback, _ = self.collector.drain()
            if len(feedback):
                # score the most recent tune_window collected queries,
                # not just this drain, so one burst cannot overfit
                self.window.append(feedback.coords)
                sample = np.concatenate(self.window)[
                    -self.config.tune_window:
                ]
                self.tuner.tune(RectSet(sample, copy=False, validate=False))

    def serve(self, queries: RectSet) -> "npt.NDArray[np.float64]":
        values = self.backend.estimate_batch(queries)
        self.collector.observe_batch(queries, values)
        return values

    def scored(
        self, queries: RectSet, truth: "npt.NDArray[np.float64]"
    ) -> Tuple[RectSet, "npt.NDArray[np.float64]"]:
        final = self.hist.current_data()
        regenerated = range_queries(
            final, self.config.qsize, self.config.n_queries,
            seed=self.config.query_seed,
        )
        return regenerated, ExperimentRunner(final).true_counts(
            regenerated
        )

    def check(self, run: _Run, served: "npt.NDArray[np.float64]") -> None:
        static = self.static.estimate_batch(run.queries)
        self.are_static = error_summary(
            run.truth, static
        ).average_relative_error
        self.are_tuned = error_summary(
            run.truth, served
        ).average_relative_error
        super().check(run, served)

    def record(self, run: _Run) -> Dict[str, Any]:
        counters = run.counters
        buckets = self.hist.buckets
        covered = assign_by_center(
            self.hist.current_data(), [b.bbox for b in buckets]
        )
        return {"tuned": {
            **self._stream_fields(run),
            "tuning_passes": int(counters.get("tuning.passes", 0)),
            "tuning_pairs": int(counters.get("tuning.splits", 0)),
            "feedback_observed": int(counters.get("tuning.observed", 0)),
            "feedback_scored": int(counters.get("tuning.scored", 0)),
            "n_buckets_static": len(self.static_hist.buckets),
            "n_buckets_tuned": len(buckets),
            "count_conserved": bool(
                int(round(sum(b.count for b in buckets)))
                == int((covered >= 0).sum())
            ),
            "are_static": float(self.are_static),
            "are_tuned": float(self.are_tuned),
            "improvement": float(self.are_static - self.are_tuned),
            "tuned_matches": self.matches,
        }}


def _sharded(
    technique: str, data: RectSet, config: BenchConfig
) -> ShardedHistogram:
    """The technique's partitioner once per Min-Skew shard box (the
    bucket budget apportioned by :func:`repro.serving.shard_quotas`)."""
    return ShardedHistogram.build(
        data,
        n_shards=config.n_shards,
        n_buckets=config.n_buckets,
        partitioner_factory=lambda quota: build_partitioner(
            technique, quota, n_regions=config.n_regions
        ),
        n_regions=config.n_regions,
    )


class _Sharded(_Stack):
    """The scatter-gather tier against the single-engine reference.

    The workload is served through a
    :class:`~repro.serving.ShardRouter` and gated bit-for-bit against
    the :class:`~repro.serving.ShardUnionEstimator` union reference
    (``sharded.sharded_matches``).  The op stream is then routed
    through the router; ``sharded.owner_only_invalidation`` records
    whether every mutation moved the owning shard's epoch *only*, and
    the gate is re-checked over the post-stream state.

    ``sharded.recovery`` is a worker-kill chaos run over a fresh
    write-ahead-logged tier (SIGKILLed workers, WAL replay on
    respawn): request survival, respawns, replayed ops, the
    degraded-dispatch fraction, and whether the recovered tier matched
    the union reference bit-for-bit.  Every field is logical, so the
    block is stable across machines.
    """

    block = "sharded"
    timed = ("single_engine_seconds", "replay_seconds")
    stream = "after"

    def build(self, data: RectSet) -> None:
        self.data = data
        self.sharded = _sharded(self.technique, data, self.config)
        self.backend = self.router = ShardRouter(
            self.sharded, workers=self.config.shard_workers
        )
        self.union = self.sharded.union_estimator()
        self.matches = True
        self.owner_only = True
        self.single_engine_seconds = 0.0

    def apply(self, op: LiveOp) -> None:
        if op.kind == "query":
            self.router.estimate(op.rect)
            return
        before = self.sharded.epochs()
        if op.kind == "insert":
            sid, moved = self.router.insert(op.rect), True
        else:
            sid, moved = self.router.delete(op.rect)
        after = self.sharded.epochs()
        self.owner_only = self.owner_only and all(
            (a != b) == (i == sid and moved)
            for i, (b, a) in enumerate(zip(before, after))
        )

    def check(self, run: _Run, served: "npt.NDArray[np.float64]") -> None:
        start = time.perf_counter()
        reference = self.union.estimate_batch(run.queries)
        self.single_engine_seconds = time.perf_counter() - start
        self.matches = self.matches and bool(
            np.array_equal(served, reference)
        )

    def record(self, run: _Run) -> Dict[str, Any]:
        n_queries = len(run.queries)
        n_shards = self.sharded.n_shards
        served = run.batch_counters
        subqueries = int(served.get("serving.shard.subqueries", 0))
        return {"sharded": {
            "n_shards": int(n_shards),
            "workers": int(self.config.shard_workers),
            "shard_sizes": [len(s) for s in self.sharded.shards],
            "shard_buckets": [len(s.buckets) for s in self.sharded.shards],
            "fanout": int(served.get("serving.shard.fanout", 0)),
            "skipped": int(served.get("serving.shard.skipped", 0)),
            "subqueries": subqueries,
            "fanout_rate": (
                subqueries / (n_queries * n_shards) if n_queries else 0.0
            ),
            "avg_shards_per_query": (
                subqueries / n_queries if n_queries else 0.0
            ),
            "single_engine_seconds": self.single_engine_seconds,
            "replay_seconds": run.replay_seconds,
            "ops": sum(run.ops.values()),
            "mutations": run.ops["insert"] + run.ops["delete"],
            "owner_only_invalidation": self.owner_only,
            "shard_epoch_bumps": [
                int(run.counters.get(f"serving.shard.epoch_bumps.s{i}", 0))
                for i in range(n_shards)
            ],
            "routed_mutations": int(
                run.counters.get("serving.shard.routed_mutations", 0)
            ),
            "sharded_matches": self.matches,
            "recovery": self._recovery(),
        }}

    def _recovery(self) -> Dict[str, Any]:
        # the chaos harness resets the global OBS registry, so this
        # runs after the window; the bench router's pool goes first
        self.router.close()
        config = self.config
        n_regions = min(config.n_regions, 512)
        report = run_worker_kill_chaos(
            WorkerKillConfig(
                n_shards=config.n_shards,
                n_buckets=config.n_buckets,
                n_regions=n_regions,
                workers=max(2, config.shard_workers),
                n_batches=6,
                batch_size=25,
                qsize=config.qsize,
                query_seed=config.query_seed,
            ),
            data=self.data,
            partitioner_factory=lambda quota: build_partitioner(
                self.technique, quota, n_regions=n_regions
            ),
        )
        return {
            "requests": report.requests,
            "survived": report.survived,
            "kills": report.kills,
            "respawns": report.respawns,
            "replayed_ops": report.replayed_ops,
            "degraded_fraction": report.degraded_fraction,
            "recovered_matches": (
                report.recovered_matches and report.digests_match
            ),
        }

    def close(self) -> None:
        self.router.close()


class _Server(_Stack):
    """The micro-batching TCP front door against single dispatch.

    The backend is the sharded tier, whose shards answer every
    sub-batch straight from their kernels and keep no per-query
    state, so every run is stateless.  The scored run is the
    micro-batched front door (``config.server_max_batch``,
    ``config.concurrency`` pipelined client processes).  After the
    metrics window — which so covers only the build and the batched
    run — the *same* server path runs pinned to ``max_batch=1``: the
    honest single-query-per-call baseline, paying identical framing,
    event-loop, and client costs.
    ``server.speedup`` is the qps ratio; ``server.server_matches``
    gates both runs bit-for-bit against a direct
    ``router.estimate_batch`` call.  Latency percentiles are
    client-observed (window send to reply arrival), in milliseconds.
    """

    block = "server"
    # batch composition depends on event-loop timing, so every derived
    # quantity is wall-clock-tainted except the request count, the
    # knobs, and the bit-identity verdict
    timed = (
        "batches", "avg_batch", "shed",
        "batched_seconds", "batched_qps", "p50_ms", "p99_ms",
        "single_seconds", "single_qps",
        "single_p50_ms", "single_p99_ms", "speedup",
    )

    def build(self, data: RectSet) -> None:
        self.backend = self.router = ShardRouter(
            _sharded(self.technique, data, self.config), workers=1,
        )

    def serve(self, queries: RectSet) -> "npt.NDArray[np.float64]":
        self.batched = _frontdoor_run(
            self.router, queries, self.config,
            self.config.server_max_batch, self.config.server_wait_steps,
        )
        return self.batched[0]

    def record(self, run: _Run) -> Dict[str, Any]:
        reference = self.router.estimate_batch(run.queries)
        single, single_lat, single_seconds, _ = _frontdoor_run(
            self.router, run.queries, self.config, 1, 0
        )
        values, latencies, seconds, stats = self.batched
        n = len(run.queries)
        config = self.config
        return {
            "estimate_seconds": seconds,
            "server": {
                "concurrency": int(config.concurrency),
                "max_batch": int(config.server_max_batch),
                "wait_steps": int(config.server_wait_steps),
                "window": int(config.server_window),
                "requests": int(n),
                "batches": int(stats["batches"]),
                "avg_batch": float(stats["avg_batch"]),
                "shed": int(stats["shed"]),
                "batched_seconds": seconds,
                "batched_qps": n / seconds if seconds > 0 else 0.0,
                "p50_ms": float(np.percentile(latencies, 50) * 1e3),
                "p99_ms": float(np.percentile(latencies, 99) * 1e3),
                "single_seconds": single_seconds,
                "single_qps": (
                    n / single_seconds if single_seconds > 0 else 0.0
                ),
                "single_p50_ms": float(
                    np.percentile(single_lat, 50) * 1e3
                ),
                "single_p99_ms": float(
                    np.percentile(single_lat, 99) * 1e3
                ),
                "speedup": (
                    single_seconds / seconds if seconds > 0 else 0.0
                ),
                "server_matches": bool(
                    np.array_equal(values, reference)
                    and np.array_equal(single, reference)
                ),
            },
        }

    def close(self) -> None:
        self.router.close()


_KINDS: Dict[str, Type[_Stack]] = {
    "scalar": _Scalar,
    "batch": _Batch,
    "live": _Live,
    "tuned": _Tuned,
    "sharded": _Sharded,
    "server": _Server,
}


# ----------------------------------------------------------------------
# the cell runner
# ----------------------------------------------------------------------
def _replay(stack: _Stack, ops: List[LiveOp], run: _Run) -> None:
    start = time.perf_counter()
    for op in ops:
        run.ops[op.kind] += 1
        stack.apply(op)
    run.replay_seconds = time.perf_counter() - start


def _run_cell(
    technique: str,
    data: RectSet,
    queries: RectSet,
    truth: "npt.NDArray[np.float64]",
    config: BenchConfig,
    deterministic: bool = False,
) -> Dict[str, Any]:
    """Build, replay, serve and score one technique in a fresh
    metrics window.

    The engine kind (:data:`_KINDS`) supplies the stack, its gate and
    its extra block; everything else happens here, in one order for
    every kind.  ``deterministic`` zeroes the cell's wall-clock fields.
    """
    kind = _KINDS[config.engine]
    OBS.reset()
    start = time.perf_counter()
    stack = kind(technique, data, config)
    build_seconds = time.perf_counter() - start
    try:
        ops = live_workload(
            data, config.qsize, config.live_ops,
            seed=config.live_seed,
            drift=config.live_drift_xy,
            query_frac=config.live_query_frac,
            insert_frac=config.live_insert_frac,
        ) if kind.stream and config.live_ops else []
        run = _Run(queries, truth)
        if kind.stream == "before":
            _replay(stack, ops, run)
        run.queries, run.truth = stack.scored(queries, truth)
        start = time.perf_counter()
        served = stack.serve(run.queries)
        run.estimate_seconds = time.perf_counter() - start
        run.batch_counters = dict(OBS.snapshot()["counters"])
        stack.check(run, served)
        if kind.stream == "after" and ops:
            _replay(stack, ops, run)
            stack.check(run, stack.serve(run.queries))
        cell: Dict[str, Any] = {
            "technique": technique,
            "build_seconds": build_seconds,
            "estimate_seconds": run.estimate_seconds,
            "size_words": stack.size_words(),
            "accuracy": asdict(error_summary(run.truth, served)),
            "metrics": OBS.snapshot(),
        }
        run.counters = cell["metrics"]["counters"]
        cell.update(stack.record(run))
    finally:
        stack.close()
    if deterministic:
        cell["build_seconds"] = cell["estimate_seconds"] = 0.0
        cell["metrics"]["timers"] = {}
        fields = cell[kind.block] if kind.block else cell
        for key in kind.timed:
            # zero in the field's own type, so counts stay integers
            fields[key] = type(fields[key])(0)
    return cell


def _bench_cell_task(
    task: Tuple[str, RectSet, RectSet, "npt.NDArray[np.float64]",
                BenchConfig, bool],
) -> Dict[str, Any]:
    """Worker-side cell evaluation for parallel bench runs.

    Enables the worker's registry itself (``parallel_map`` snapshots a
    worker's registry for the *merge* path, but bench cells carry
    their own per-cell snapshot instead).
    """
    OBS.enable()
    return _run_cell(*task)


def _bench_dataset(
    dataset: str,
    n: int,
    config: BenchConfig,
    *,
    store: Optional[CheckpointStore] = None,
    deterministic: bool = False,
) -> Dict[str, Any]:
    meta_key = f"{dataset}:{n}:meta"
    cells: Dict[str, Any] = {}
    meta: Optional[Dict[str, Any]] = None
    if store is not None:
        meta = store.load(meta_key)
        for technique in config.techniques:
            cached = store.load(f"{dataset}:{n}:{technique}")
            if cached is not None:
                cells[technique] = cached
    missing = [t for t in config.techniques if t not in cells]

    if missing or meta is None:
        data = make_dataset(dataset, n)
        queries = range_queries(
            data, config.qsize, config.n_queries, seed=config.query_seed
        )
        runner = ExperimentRunner(data)

        OBS.reset()
        start = time.perf_counter()
        truth = runner.true_counts(queries)
        truth_seconds = time.perf_counter() - start

        meta = {
            "dataset": dataset,
            "n": int(len(data)),
            "n_queries": int(len(queries)),
            "qsize": config.qsize,
            "truth_seconds": 0.0 if deterministic else truth_seconds,
        }
        if store is not None:
            store.save(meta_key, meta)
        tasks = [
            (technique, data, queries, truth, config, deterministic)
            for technique in missing
        ]
        fresh: Iterable[Dict[str, Any]]
        if config.workers > 1:
            fresh = parallel_map(
                _bench_cell_task, tasks, workers=config.workers
            )
        else:
            # lazily, so each cell is checkpointed as soon as it lands
            fresh = (_run_cell(*task) for task in tasks)
        for technique, cell in zip(missing, fresh):
            cells[technique] = cell
            if store is not None:
                store.save(f"{dataset}:{n}:{technique}", cell)

    record = dict(meta)
    record["techniques"] = [cells[t] for t in config.techniques]
    return record


#: boolean cell fields that must hold, besides every ``*_matches``
_INVARIANTS = ("owner_only_invalidation", "count_conserved")


def gate_failures(fields: Dict[str, Any], prefix: str = "") -> List[str]:
    """The consistency gates a technique cell records as failed.

    Returns dotted field paths (``"sharded.sharded_matches"``), empty
    when every gate holds.  The gates are the bit-for-bit ``*_matches``
    differentials, ``owner_only_invalidation``, ``count_conserved``,
    worker-kill survival (``recovery.survived == recovery.requests``)
    and the tuned cell's ``improvement > 0``; no timing field is one.
    """
    failed = [
        prefix + key
        for key, value in sorted(fields.items())
        if (key.endswith("_matches") or key in _INVARIANTS)
        and value is not True
    ]
    if "survived" in fields and fields["survived"] != fields["requests"]:
        failed.append(prefix + "survived")
    if "improvement" in fields and not fields["improvement"] > 0:
        failed.append(prefix + "improvement")
    for key, value in sorted(fields.items()):
        if isinstance(value, dict) and key != "metrics":
            failed += gate_failures(value, f"{prefix}{key}.")
    return failed


def run_bench(
    config: BenchConfig = QUICK_CONFIG,
    *,
    checkpoint_dir: Union[str, Path, None] = None,
    deterministic: bool = False,
) -> Dict[str, Any]:
    """Run the workload and return the (validated) artifact document.

    With ``checkpoint_dir``, completed (dataset, technique) cells are
    persisted as they finish and reused on the next invocation.  With
    ``deterministic``, every wall-clock field is zeroed so the artifact
    depends only on the config and seeds (and hence an interrupted and
    resumed run is byte-identical to a fresh one).
    """
    start = time.perf_counter()
    # every field but the name, tuples as JSON lists
    fields = json.loads(json.dumps(asdict(config)))
    del fields["name"]
    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        fingerprint = config_fingerprint({
            **fields,
            "schema_version": SCHEMA_VERSION,
            "name": config.name,
            "deterministic": deterministic,
        })
        store = CheckpointStore(checkpoint_dir, fingerprint)

    # a deterministic run zeroes every overhead field the schema names
    overhead = dict.fromkeys(
        BENCH_SCHEMA["properties"]["overhead"]["required"], 0.0
    ) if deterministic else measure_overhead()

    datasets: List[Dict[str, Any]] = []
    with OBS.scope():
        try:
            for dataset, n in config.datasets:
                datasets.append(
                    _bench_dataset(
                        dataset,
                        n,
                        config,
                        store=store,
                        deterministic=deterministic,
                    )
                )
        finally:
            OBS.reset()

    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "created_unix": 0.0 if deterministic else time.time(),
        "config": fields,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "overhead": overhead,
        "datasets": datasets,
        "total_seconds": 0.0 if deterministic
        else time.perf_counter() - start,
    }
    validate_bench(doc)
    return doc


def write_bench(
    config: BenchConfig = QUICK_CONFIG,
    out_dir: Union[str, Path] = ".",
    *,
    checkpoint_dir: Union[str, Path, None] = None,
    deterministic: bool = False,
) -> Tuple[Dict[str, Any], Path]:
    """Run the workload and write ``BENCH_<name>.json`` to ``out_dir``.

    The artifact is written atomically (temp file + fsync + rename), so
    a crash mid-write never leaves a truncated BENCH file behind.
    """
    doc = run_bench(
        config,
        checkpoint_dir=checkpoint_dir,
        deterministic=deterministic,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{config.name}.json"
    atomic_write_text(
        path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    return doc, path
