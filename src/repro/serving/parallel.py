"""Deterministic process pools: chunked mapping and pinned shards.

``parallel_map(func, items, workers=N)`` behaves exactly like
``[func(x) for x in items]`` — same results, same order — but fans the
chunks out over a ``ProcessPoolExecutor``.  Determinism comes from
three choices:

* results are gathered **in submission order**, never completion
  order, so the output list is a positional match for ``items``;
* chunk boundaries cannot influence any result because ``func`` is
  applied per item (chunking only amortises pickling);
* each worker resets its (fork-inherited) metrics registry, collects
  into it alone, and ships a snapshot home; the parent merges the
  snapshots in chunk order via
  :meth:`repro.obs.MetricsRegistry.merge_snapshot`, so counter totals
  equal the serial run exactly.

``workers <= 1`` short-circuits to an inline loop in the parent
process — no pool, no pickling, byte-identical to the serial path —
which is also the fallback the callers use on single-CPU boxes.

``func`` (and every item/result) must be picklable: define workers at
module level, not as closures or lambdas.

:class:`ShardWorkerPool` extends the same determinism discipline to
*pinned* workers.  A ``ProcessPoolExecutor`` cannot pin state to a
specific worker (any worker may pick up any task), so the pool runs
one long-lived ``multiprocessing.Process`` per slot, connected by a
pipe.  A worker holds no shard: it holds a table of shard kernels
(:class:`~repro.core.bucket.BucketArrays`, 8 words per bucket) keyed
by the shard epoch each was snapshotted at.  A request names the
shard's epoch, and the pool ships the kernel with it only when the
worker does not already hold that epoch.  The worker answers with
:func:`~repro.core.bucket.estimate_many_arrays`, the union reference's
own function, and refuses, with an error reply, a request naming an
epoch it does not hold.  Replies are received in request order over
per-worker FIFO pipes, and worker metric snapshots are merged in that
same order, so results and counter totals are independent of
scheduling.

**Supervision.**  Workers are mortal.  Every reply wait runs under a
logical :class:`~repro.resilience.clock.Deadline` on the pool's
:class:`~repro.resilience.clock.StepClock` — wall time appears only as
the liveness poll interval, never in any result — and watches the
worker's exitcode, so a SIGKILLed or wedged worker surfaces as a typed
:class:`~repro.errors.ShardWorkerError` instead of a hung ``recv``.
A failed worker is **respawned** empty in its slot, and the pool
forgets which kernels it shipped there, so the next request to each
of its shards ships the current kernel again.  In-flight requests on
the dead worker fail fast with the same typed error (never silently
dropped, never served stale replies — the slot's pipe is replaced),
so the router above can retry against the respawned worker or serve
the shard degraded.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..core.bucket import BucketArrays, estimate_many_arrays
from ..errors import DeadlineError, ShardWorkerError
from ..geometry import RectSet
from ..obs import OBS
from ..resilience.clock import Deadline, StepClock

__all__ = ["parallel_map", "ShardWorkerPool"]

#: Default per-reply logical budget: with the default poll interval
#: this bounds a silent pipe to a few seconds before the worker is
#: declared wedged.
DEFAULT_REPLY_BUDGET_STEPS = 200

#: Seconds per liveness poll.  Used for waiting only — results never
#: depend on it (the step clock carries the deadline semantics).
DEFAULT_POLL_INTERVAL = 0.025


def _run_chunk(
    func: Callable[[Any], Any],
    chunk: List[Any],
    collect_obs: bool,
) -> Tuple[List[Any], Dict[str, Any]]:
    """Worker-side chunk evaluation.

    Resets the process-wide registry first: under the ``fork`` start
    method the child inherits whatever the parent had already
    collected, and merging that back would double-count it.
    """
    OBS.reset()
    OBS.enable(collect_obs)
    results = [func(item) for item in chunk]
    snapshot = OBS.snapshot() if collect_obs else {}
    return results, snapshot


def parallel_map(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int = 1,
    chunk_size: "int | None" = None,
) -> List[Any]:
    """Order-preserving parallel ``[func(x) for x in items]``.

    Parameters
    ----------
    func:
        A picklable (module-level) single-argument callable.
    items:
        The inputs; the returned list is positionally aligned to it.
    workers:
        Process count.  ``<= 1`` runs inline in the calling process.
    chunk_size:
        Items per task; default splits the input into about four
        chunks per worker to amortise pickling while keeping the pool
        busy.
    """
    n = len(items)
    if n == 0:
        return []
    if workers <= 1:
        return [func(item) for item in items]
    if chunk_size is None:
        chunk_size = max(1, -(-n // (workers * 4)))
    chunks = [
        list(items[start:start + chunk_size])
        for start in range(0, n, chunk_size)
    ]
    collect_obs = OBS.enabled
    results: List[Any] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_chunk, func, chunk, collect_obs)
            for chunk in chunks
        ]
        # submission order, not completion order: the output list and
        # the metrics merge must not depend on scheduling.
        for future in futures:
            chunk_results, snapshot = future.result()
            results.extend(chunk_results)
            if collect_obs:
                OBS.merge_snapshot(snapshot)
    return results


# ----------------------------------------------------------------------
# pinned kernel workers (the sharded serving tier's pool)
# ----------------------------------------------------------------------

#: Pool request: ``(shard_id, epoch, (rows, kernel))`` — a shard's
#: clipped ``(M, 4)`` row block and its kernel snapshot at ``epoch``.
_Request = Tuple[
    int, int, Tuple["npt.NDArray[np.float64]", BucketArrays]
]


def _shard_worker_main(conn: Connection) -> None:
    """One pool worker: shard kernels keyed by epoch, answering rows.

    Each message is ``(shard_id, epoch, rows, kernel, collect)``; a
    ``kernel`` other than ``None`` becomes the shard's entry at
    ``epoch``.  The reply is ``(result, snapshot, error)``: the row
    block answered over the held kernel, or — when the worker holds a
    different epoch of the shard than the request names — an error
    and no answer, so a worker never serves a kernel its parent has
    moved past.

    The registry is reset up front (a ``fork`` child inherits the
    parent's collected metrics; merging them back would double-count)
    and re-enabled per request according to the parent's flag, so a
    request served while the parent collects contributes exactly its
    own counters and nothing else.
    """
    OBS.reset()
    OBS.disable()
    kernels: Dict[int, Tuple[int, BucketArrays]] = {}
    collecting = False
    while True:
        message = conn.recv()
        if message is None:
            break
        sid, epoch, rows, kernel, collect = message
        if collect != collecting:
            OBS.reset()
            OBS.enable(collect)
            collecting = collect
        if kernel is not None:
            kernels[sid] = (epoch, kernel)
        result: "npt.NDArray[np.float64] | None" = None
        error: "str | None" = None
        held = kernels.get(sid)
        if held is None or held[0] != epoch:
            have = "no kernel" if held is None else f"epoch {held[0]}"
            error = f"holds {have}, not the requested epoch {epoch}"
        else:
            queries = RectSet(rows, copy=False, validate=False)
            result = estimate_many_arrays(held[1], queries)
        snapshot = OBS.snapshot() if collecting else None
        if collecting:
            OBS.reset()
            OBS.enable(True)
        conn.send((result, snapshot, error))
    conn.close()


#: Placeholder for a request whose reply has not been collected yet.
_PENDING = object()


class ShardWorkerPool:
    """Long-lived supervised workers, each pinned to fixed shards.

    Parameters
    ----------
    shard_ids:
        The shards the pool serves.  Shard ``i`` (in ascending id
        order) lives on worker ``i % workers`` forever after.
    workers:
        Process count (clamped to the shard count).
    budget_steps:
        Logical step budget per reply wait (``None`` = unlimited,
        which re-opens the hang-forever hole and is only for tests).
    poll_interval:
        Seconds per liveness poll while waiting on a reply.
    """

    def __init__(
        self,
        shard_ids: Sequence[int],
        *,
        workers: int,
        budget_steps: Optional[int] = DEFAULT_REPLY_BUDGET_STEPS,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        ids = sorted(shard_ids)
        if not ids:
            raise ValueError("cannot pool zero shards")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.workers = max(1, min(workers, len(ids)))
        self._worker_of = {
            sid: i % self.workers for i, sid in enumerate(ids)
        }
        #: Shard id -> epoch of the kernel its worker was sent.
        self._shipped: Dict[int, int] = {}
        self._budget_steps = budget_steps
        self._poll_interval = poll_interval
        self._clock = StepClock()
        self.respawns = 0
        self._ctx = multiprocessing.get_context()
        conns: List[Connection] = []
        procs: List[multiprocessing.process.BaseProcess] = []
        self._conns: Optional[List[Connection]] = conns
        self._procs: List[multiprocessing.process.BaseProcess] = procs
        for w in range(self.workers):
            conn, proc = self._spawn(w)
            conns.append(conn)
            procs.append(proc)

    def _spawn(
        self, worker: int
    ) -> Tuple[Connection, multiprocessing.process.BaseProcess]:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn,),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    # ------------------------------------------------------------------
    def worker_of(self, shard_id: int) -> int:
        """Index of the worker pinned to ``shard_id``."""
        return self._worker_of[shard_id]

    def worker_pids(self) -> List[int]:
        """Live worker process ids, by worker index.

        The chaos harness kills these with SIGKILL to prove the
        supervision/respawn path; anything else should treat them as
        opaque.
        """
        return [
            proc.pid if proc.pid is not None else -1
            for proc in self._procs
        ]

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def respawn(self, worker: int) -> None:
        """Replace worker ``worker`` with a fresh, empty process.

        The slot keeps its shard set; the pool forgets the kernels it
        shipped there, so the next request to each of those shards
        ships the current kernel again.  The old process is
        terminated (then killed) if still alive, so a wedged worker
        cannot leak.
        """
        if self._conns is None:
            raise RuntimeError("pool is closed")
        proc = self._procs[worker]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        for sid, w in self._worker_of.items():
            if w == worker:
                self._shipped.pop(sid, None)
        conn, proc = self._spawn(worker)
        self._conns[worker] = conn
        self._procs[worker] = proc
        self.respawns += 1
        if OBS.enabled:
            OBS.add("serving.pool.respawns")
            OBS.add(f"serving.pool.respawns.w{worker}")

    def _down_error(
        self, worker: int, shard_id: int, pending: int, reason: str
    ) -> ShardWorkerError:
        return ShardWorkerError(
            f"shard worker {worker} serving shard {shard_id} "
            f"{reason}",
            hint=(
                f"{pending} request(s) were pending on the worker; "
                "it was respawned and is sent its shards' kernels "
                "again — retry the request or serve the shard degraded"
            ),
        )

    def _recv_reply(
        self, worker: int, shard_id: int, pending: int
    ) -> Tuple[Any, Optional[Dict[str, Any]], Optional[str]]:
        """One reply from ``worker`` under the logical deadline.

        Wall time appears only as the liveness poll interval; progress
        toward the budget is charged on the pool's step clock (one
        step per empty poll), so the deadline semantics stay logical.
        Raises :class:`DeadlineError` on a wedged worker and
        :class:`ShardWorkerError` on a dead one — never blocks
        forever on a silent pipe.
        """
        assert self._conns is not None
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = Deadline(self._clock, self._budget_steps)
        while True:
            deadline.check(f"reply from shard {shard_id}")
            if conn.poll(self._poll_interval):
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._down_error(
                        worker, shard_id, pending,
                        "hung up mid-reply",
                    ) from exc
                result, snapshot, error = reply
                return result, snapshot, error
            if not proc.is_alive():
                raise self._down_error(
                    worker, shard_id, pending,
                    f"died (exitcode {proc.exitcode})",
                )
            self._clock.advance(1)

    def _fail_worker(
        self,
        worker: int,
        outstanding: Dict[int, List[int]],
        results: List[Any],
        error: ShardWorkerError,
    ) -> None:
        """Fail every request still pending on ``worker``; respawn."""
        for pos in outstanding[worker]:
            results[pos] = error
        outstanding[worker].clear()
        if OBS.enabled:
            OBS.add("serving.pool.worker_failures")
        self.respawn(worker)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def try_call_many(self, requests: Sequence[_Request]) -> List[Any]:
        """Serve ``(shard_id, epoch, (rows, kernel))`` requests.

        A request's kernel crosses the pipe only when the shard's
        worker was not already sent ``epoch``.  All requests are sent
        before any reply is read, so workers serve disjoint shards
        concurrently; replies are gathered in request order
        (per-worker pipes are FIFO), and worker metric snapshots are
        merged in that same order, so results and counter totals do
        not depend on scheduling.

        Position ``i`` of the returned list holds either the request's
        answer or the :class:`ShardWorkerError` it failed with — a
        dead or wedged worker fails every request outstanding on it
        (fast, typed, never a hang) and is respawned exactly once,
        while requests on healthy workers complete normally.  An
        error reply (the worker holds another epoch) also forgets the
        shard's shipped epoch, so a retry ships the kernel again.
        Every healthy reply is collected before returning, so no
        stale reply can leak into a later batch.
        """
        if self._conns is None:
            raise RuntimeError("pool is closed")
        collect = OBS.enabled
        results: List[Any] = [_PENDING] * len(requests)
        outstanding: Dict[int, List[int]] = {
            w: [] for w in range(self.workers)
        }
        down: Dict[int, ShardWorkerError] = {}
        for pos, (sid, epoch, (rows, kernel)) in enumerate(requests):
            worker = self._worker_of[sid]
            if worker in down:
                results[pos] = down[worker]
                continue
            ship = None if self._shipped.get(sid) == epoch else kernel
            try:
                self._conns[worker].send(
                    (sid, epoch, rows, ship, collect)
                )
            except (BrokenPipeError, OSError):
                error = self._down_error(
                    worker, sid, len(outstanding[worker]),
                    "is gone (request pipe closed)",
                )
                results[pos] = error
                down[worker] = error
                self._fail_worker(
                    worker, outstanding, results, error
                )
                continue
            self._shipped[sid] = epoch
            outstanding[worker].append(pos)
        for pos, (sid, _epoch, _args) in enumerate(requests):
            if results[pos] is not _PENDING:
                continue
            worker = self._worker_of[sid]
            if not outstanding[worker] \
                    or outstanding[worker][0] != pos:
                # failed en masse when its worker went down
                continue
            try:
                result, snapshot, error = self._recv_reply(
                    worker, sid, len(outstanding[worker])
                )
            except DeadlineError as exc:
                wedged = self._down_error(
                    worker, sid, len(outstanding[worker]),
                    f"wedged past its reply budget ({exc})",
                )
                wedged.__cause__ = exc
                self._fail_worker(
                    worker, outstanding, results, wedged
                )
                continue
            except ShardWorkerError as dead:
                self._fail_worker(
                    worker, outstanding, results, dead
                )
                continue
            outstanding[worker].pop(0)
            if error is not None:
                self._shipped.pop(sid, None)
                results[pos] = ShardWorkerError(
                    f"shard worker for shard {sid} {error}",
                    hint=(
                        "the worker survives and is sent the shard's "
                        "kernel again with the next request"
                    ),
                )
                continue
            if collect and snapshot:
                OBS.merge_snapshot(snapshot)
            results[pos] = result
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release the pipes (idempotent).

        Crash-safe: a pipe whose worker already died must not abort
        the shutdown of the rest — the shutdown message is best
        effort, every process is joined, terminated if it ignores the
        message, and killed if it ignores the terminate, so no worker
        leaks even when ``__exit__`` runs during an in-flight
        failure.
        """
        if self._conns is None:
            return
        conns, procs = self._conns, self._procs
        self._conns = None
        self._procs = []
        for conn in conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError, ValueError):
                pass
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._conns is None else "open"
        return (
            f"ShardWorkerPool(workers={self.workers}, "
            f"shards={len(self._worker_of)}, {state})"
        )
