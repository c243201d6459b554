"""Chaos harness: SIGKILL shard workers mid-stream, prove nothing is lost.

``repro-spatial chaos`` builds a pooled sharded tier behind a
supervised :class:`~repro.serving.ShardRouter`, drives query batches
and mutations through it, and between batches lets a deterministic
:class:`~repro.resilience.faults.FaultPlan` pick worker processes to
SIGKILL.  The pool respawns each killed worker empty and sends it its
shards' kernels again with the next dispatch.  The report says how
many batches survived (every value finite), how many workers were
killed and respawned, what share of shard dispatches the router
served with a degraded ``Uniform@s<id>`` partial, and whether the
recovered tier answers bit-identically to the single-engine union
reference.  With
``through_server`` the batches arrive as in-flight TCP clients of a
front door.  The report embeds a SHA-256 digest of the recovered
estimate vector.

Serving, dataset and workload imports are deferred into
:func:`run_worker_kill_chaos` so importing :mod:`repro.resilience`
stays cheap and cycle-free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..obs import OBS
from .faults import FaultInjector, FaultPlan, FaultSpec, installed

__all__ = [
    "WorkerKillConfig",
    "WorkerKillReport",
    "run_worker_kill_chaos",
    "format_worker_kill_report",
]


@dataclass(frozen=True)
class WorkerKillConfig:
    """One worker-kill chaos experiment (fully seeded).

    A pooled sharded serving tier is driven through interleaved query
    batches and mutations while a seeded
    :class:`~repro.resilience.faults.FaultPlan` decides, between
    batches, which worker processes to SIGKILL.  The experiment
    asserts the fault-tolerance contract: every batch is answered
    (supervision + retry + degraded partials), and once quarantines
    drain the recovered tier answers bit-identically to the
    single-engine union reference.

    With ``through_server`` the same experiment runs over the wire:
    the router sits behind a :class:`~repro.serving.FrontDoorThread`
    and every batch is served by concurrent pipelined TCP clients
    while the kill decisions fire on a separate thread — workers die
    with client requests in flight.  The contract tightens to the
    front-door SLO: every client gets a correct answer or a typed
    error response, and none hangs past ``server_timeout``.
    """

    dataset: str = "charminar"
    n: int = 1_200
    n_shards: int = 4
    n_buckets: int = 24
    n_regions: int = 256
    workers: int = 2
    n_batches: int = 12
    batch_size: int = 25
    mutations_per_batch: int = 4
    qsize: float = 0.1
    query_seed: int = 42
    mutation_seed: int = 11
    plan_seed: int = 7
    kill_rate: float = 0.35
    budget_steps: Optional[int] = 400
    poll_interval: float = 0.01
    failure_threshold: int = 3
    reset_after_steps: int = 25
    through_server: bool = False
    server_concurrency: int = 8
    server_timeout: float = 20.0


@dataclass(frozen=True)
class WorkerKillReport:
    """What a worker-kill chaos run observed."""

    requests: int
    survived: int
    kills: int
    respawns: int
    degraded_dispatches: int
    fanout: int
    recovered_matches: bool
    estimates_sha256: str
    plan_seed: int
    through_server: bool = False
    timeouts: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def survival(self) -> float:
        """Fraction of query batches answered with finite values."""
        if self.requests == 0:
            return 1.0
        return self.survived / self.requests

    @property
    def degraded_fraction(self) -> float:
        """Fraction of shard dispatches served by degraded partials."""
        if self.fanout == 0:
            return 0.0
        return self.degraded_dispatches / self.fanout

    @property
    def passed(self) -> bool:
        """The acceptance gate: nothing lost, nothing corrupted.

        A through-server run additionally requires that no client
        ever hit its deadline — degraded answers and typed errors
        are acceptable, hangs are not.
        """
        return (
            self.survival == 1.0
            and self.recovered_matches
            and self.timeouts == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "survived": self.survived,
            "survival": self.survival,
            "kills": self.kills,
            "respawns": self.respawns,
            "degraded_dispatches": self.degraded_dispatches,
            "fanout": self.fanout,
            "degraded_fraction": self.degraded_fraction,
            "recovered_matches": self.recovered_matches,
            "estimates_sha256": self.estimates_sha256,
            "plan_seed": self.plan_seed,
            "through_server": self.through_server,
            "timeouts": self.timeouts,
        }


def run_worker_kill_chaos(
    config: WorkerKillConfig,
    *,
    data: Optional[Any] = None,
    partitioner_factory: Optional[Any] = None,
) -> WorkerKillReport:
    """SIGKILL shard workers mid-stream; prove nothing is lost.

    The run builds a pooled sharded tier behind a supervised router,
    serves ``n_batches`` query batches with ``mutations_per_batch``
    routed mutations between them, and between batches consults the
    seeded plan's ``chaos.worker-kill.w<i>`` sites to decide which
    workers to SIGKILL.  After the stream it drains any quarantine
    (advancing the router's logical clock past the breaker cooldown)
    and checks that the recovered tier's answer over the full query
    set is bit-identical to the :class:`ShardUnionEstimator`
    reference.  A worker holds only epoch-keyed shard kernels and
    refuses a request for an epoch it does not hold, so a respawned
    worker cannot serve a state its parent has moved past.

    With ``config.through_server`` the router serves behind a
    :class:`~repro.serving.FrontDoorThread` and every query batch is
    driven by pipelined TCP clients while the kill decisions run on a
    concurrent thread, so workers die with client requests in flight.
    Each client must then receive a correct answer or a typed error
    within ``config.server_timeout`` — a synthetic ``TimeoutError``
    response counts as a hang and fails the run.
    """
    import contextlib
    import os
    import signal
    import threading

    from ..data import make_dataset
    from ..geometry import RectSet
    from ..serving import FrontDoorThread, ShardedHistogram, ShardRouter
    from ..workload import live_workload, range_queries
    from .retry import RetryPolicy

    if data is None:
        data = make_dataset(config.dataset, config.n)
    queries = range_queries(
        data, config.qsize,
        config.n_batches * config.batch_size,
        seed=config.query_seed,
    )
    mutations = [
        op for op in live_workload(
            data, config.qsize,
            4 * config.n_batches * config.mutations_per_batch,
            seed=config.mutation_seed,
            query_frac=0.0, insert_frac=0.6,
        )
        if op.kind != "query"
    ]
    plan = FaultPlan(config.plan_seed, (
        FaultSpec("chaos.worker-kill.*", kind="fail",
                  probability=config.kill_rate),
    ))

    kills = 0
    survived = 0
    requests = 0
    timeouts = 0
    with OBS.scope():
        OBS.reset()
        try:
            sharded = ShardedHistogram.build(
                data,
                n_shards=config.n_shards,
                n_buckets=config.n_buckets,
                n_regions=config.n_regions,
                partitioner_factory=partitioner_factory,
            )
            router = ShardRouter(
                sharded,
                workers=config.workers,
                retry=RetryPolicy(max_attempts=3),
                budget_steps=config.budget_steps,
                poll_interval=config.poll_interval,
                failure_threshold=config.failure_threshold,
                reset_after_steps=config.reset_after_steps,
            )
            injector = FaultInjector(plan)
            mutation_iter = iter(mutations)

            def _sigkill(pid: int) -> None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    # the worker died (or was respawned) between
                    # pid snapshot and signal — the race is the
                    # experiment, not an error
                    pass

            def _fire_kills() -> int:
                with installed(injector):
                    return _kill_planned_workers(
                        router._pool, kill=_sigkill
                    )

            front: Optional[FrontDoorThread] = None
            with contextlib.ExitStack() as stack:
                stack.enter_context(router)
                if config.through_server:
                    front = FrontDoorThread(router).start()
                    # LIFO: the door stops before the router
                    # tears the worker pool down
                    stack.callback(front.stop)
                for batch_no in range(config.n_batches):
                    lo = batch_no * config.batch_size
                    batch = RectSet(
                        queries.coords[lo:lo + config.batch_size],
                        copy=False, validate=False,
                    )
                    requests += 1
                    if front is not None:
                        # fire the kill decisions on a thread so
                        # workers die while client requests are
                        # in flight on the wire
                        killer: Optional[threading.Thread] = None
                        kill_box: List[int] = []
                        if router._pool is not None:
                            killer = threading.Thread(
                                target=lambda box=kill_box:
                                    box.append(_fire_kills()),
                                daemon=True,
                            )
                            killer.start()
                        responses = front.estimate_many(
                            batch.coords,
                            concurrency=min(
                                config.server_concurrency,
                                len(batch),
                            ),
                            timeout=config.server_timeout,
                        )
                        if killer is not None:
                            killer.join(timeout=60.0)
                            kills += sum(kill_box)
                        answered = 0
                        for resp in responses:
                            if resp.get("error") == "TimeoutError":
                                timeouts += 1
                            elif resp.get("ok", False):
                                if np.isfinite(float(
                                    resp.get("value", np.nan)
                                )):
                                    answered += 1
                            elif resp.get("error"):
                                answered += 1
                        if answered == len(batch):
                            survived += 1
                    else:
                        if router._pool is not None:
                            kills += _fire_kills()
                        estimates = router.estimate_batch(batch)
                        if (
                            len(estimates) == len(batch)
                            and bool(
                                np.isfinite(estimates).all()
                            )
                        ):
                            survived += 1
                    for _ in range(config.mutations_per_batch):
                        op = next(mutation_iter, None)
                        if op is None:
                            break
                        if front is not None:
                            front.mutate(
                                op.kind,
                                (op.rect.x1, op.rect.y1,
                                 op.rect.x2, op.rect.y2),
                                timeout=config.server_timeout,
                            )
                        elif op.kind == "insert":
                            router.insert(op.rect)
                        else:
                            router.delete(op.rect)
                # drain quarantine: past the cooldown every shard
                # goes recovering, and the trial serve (no more
                # kills) closes the loop back to healthy
                router._clock.advance(config.reset_after_steps + 1)
                if front is not None:
                    front.estimate_many(
                        queries.coords,
                        concurrency=config.server_concurrency,
                        timeout=config.server_timeout,
                    )
                    final_responses = front.estimate_many(
                        queries.coords,
                        concurrency=config.server_concurrency,
                        timeout=config.server_timeout,
                    )
                    all_ok = all(
                        r.get("ok", False)
                        for r in final_responses
                    )
                    annotated = any(
                        r.get("degraded")
                        for r in final_responses
                    )
                    final = np.array(
                        [
                            float(r["value"])
                            if r.get("ok", False) else np.nan
                            for r in final_responses
                        ],
                        dtype=np.float64,
                    )
                    recovered_matches = (
                        all_ok
                        and not annotated
                        and router.degraded_shards == ()
                        and bool(np.array_equal(
                            final,
                            sharded.union_estimator()
                            .estimate_batch(queries),
                        ))
                    )
                else:
                    router.estimate_batch(queries)
                    final = router.estimate_batch(queries)
                    recovered_matches = (
                        router.degraded_shards == ()
                        and bool(np.array_equal(
                            final,
                            sharded.union_estimator()
                            .estimate_batch(queries),
                        ))
                    )
            counters: Dict[str, float] = dict(
                OBS.snapshot()["counters"]
            )
        finally:
            OBS.reset()

    digest = hashlib.sha256(
        np.asarray(final, dtype=np.float64).tobytes()
    ).hexdigest()
    return WorkerKillReport(
        requests=requests,
        survived=survived,
        kills=kills,
        respawns=int(counters.get("serving.pool.respawns", 0)),
        degraded_dispatches=int(
            counters.get("serving.shard.degraded", 0)
        ),
        fanout=int(counters.get("serving.shard.fanout", 0)),
        recovered_matches=recovered_matches,
        estimates_sha256=digest,
        plan_seed=config.plan_seed,
        through_server=config.through_server,
        timeouts=timeouts,
        counters=counters,
    )


def _kill_planned_workers(pool: Any, *, kill: Any) -> int:
    """Consult the armed plan once per worker; SIGKILL the chosen.

    Separated out so the decision sites are plain
    :func:`~repro.resilience.faults.fire` calls — the same seeded
    machinery every other chaos path uses — and the kill itself is
    injected, which keeps the decision unit-testable without
    signals.
    """
    from ..errors import ReproError
    from .faults import fire

    killed = 0
    pids = pool.worker_pids()
    for worker, pid in enumerate(pids):
        try:
            fire(f"chaos.worker-kill.w{worker}")
        except ReproError:
            if pid > 0:
                # snapshot the process before signalling: with kills
                # concurrent to in-flight serving, supervision may
                # respawn the slot before the join — joining the
                # captured (dead) process never blocks on the live
                # replacement
                proc = pool._procs[worker]
                kill(pid)
                proc.join(timeout=10)
                killed += 1
    return killed


def format_worker_kill_report(report: WorkerKillReport) -> str:
    """Human-readable worker-kill report for the CLI."""
    lines = [
        f"# chaos: {report.requests} batches, "
        f"{report.kills} workers killed, "
        f"survival {report.survival:.1%}",
    ]
    if report.through_server:
        lines.append(
            "front door        : kills fired with clients in flight"
            f" ({report.timeouts} deadline timeouts)"
        )
    lines += [
        f"respawns          : {report.respawns}",
        f"degraded partials : {report.degraded_dispatches}"
        f"/{report.fanout} dispatches"
        f" ({report.degraded_fraction:.1%})",
        "recovered answer  : "
        + ("bit-identical to union reference"
           if report.recovered_matches else "MISMATCH"),
        f"estimates sha256  : {report.estimates_sha256}",
    ]
    return "\n".join(lines)
