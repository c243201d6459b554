"""Traced ``repro serve``: spans around the calls into every layer.

Usage (the benchmark runs it with ``--trace 1``)::

    python3 perfbench/tracing.py --out TRACE.npz -- serve --dataset \\
        charminar --shards 4

The launcher wraps the public functions of each layer named below, then
calls the program's own entry point, ``repro.cli.main(["serve", ...])``.
Pool workers are forked from this process, so they inherit the
wrappers.  Nothing under ``src/`` is changed.

* In the server process every wrapped call records a span — name,
  start, end, parent span, request id and two counts — in memory.  A
  request's spans share its id (a sequence number given to the
  batcher's reply object); batch-level spans carry the batch's id, and
  the trace maps every request to its batch.  Top-level spans also
  record the thread's CPU time, so the front door's own CPU (decode,
  validation, asyncio, reply callbacks: everything outside the spans)
  is the main thread's CPU minus theirs.
* In a pool worker the same wrappers add their counts, time and self
  time to the program's OBS registry, which this run (only) enables;
  the pool already ships worker snapshots home with each reply.
* ``ping`` frames whose id is ``mark:<phase>:start|end`` mark the timed
  window: the launcher notes the clock, the main thread's CPU and an
  OBS snapshot when it encodes their replies.

SIGINT ends the server as usual; the launcher then writes every span
to ``--out``.  :func:`fold` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers in report order; a span name's prefix up to the dot.
LAYERS = (
    "frontdoor", "batcher", "router", "parallel", "engine", "cache",
    "index", "estimators", "bucket", "maintenance", "minskew",
)

_perf = time.perf_counter_ns
_cpu = time.thread_time_ns


class Recorder:
    """Spans of the server process, kept in memory until exit."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name: List[int] = []
        self.t0: List[int] = []
        self.t1: List[int] = []
        self.parent: List[int] = []
        self.rid: List[int] = []
        self.n: List[int] = []
        self.m: List[int] = []
        self.cpu: Dict[int, Tuple[int, int]] = {}
        self.failed: Dict[int, str] = {}
        self.stack: List[int] = []
        #: request id of the work in progress (-1: none; a batch's
        #: spans carry ``-(batch + 1)``)
        self.current = -1
        self.seq = 0
        self.batches = 0
        self.queued: "deque[Tuple[int, int]]" = deque()
        self.mut_queued: "deque[Tuple[int, int]]" = deque()
        self.seq_of: Dict[Any, int] = {}
        self.batch_of: List[Tuple[int, int]] = []
        self.waits: List[Tuple[int, int]] = []
        self.marks: Dict[str, Dict[str, Any]] = {}
        self.setup: Dict[str, Tuple[int, int]] = {}
        self.pool_calls: List[Tuple[int, Any, Any, List[Tuple[int, int]]]] = []
        self.snapshots: Optional[List[Tuple[int, int]]] = None

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def enter(self, code: int) -> int:
        idx = len(self.t0)
        stack = self.stack
        self.name.append(code)
        self.parent.append(stack[-1] if stack else -1)
        self.rid.append(self.current)
        self.n.append(0)
        self.m.append(0)
        self.t1.append(0)
        if not stack:
            self.cpu[idx] = (_cpu(), 0)
        stack.append(idx)
        self.t0.append(_perf())
        return idx

    def exit(self, idx: int) -> None:
        self.t1[idx] = _perf()
        self.stack.pop()
        if not self.stack:
            self.cpu[idx] = (self.cpu[idx][0], _cpu())


REC = Recorder()
_WORKER_STACK: List[int] = []


def _in_worker() -> bool:
    return os.getpid() != REC.pid


def _obs() -> Any:
    from repro.obs import OBS
    return OBS


def _worker_call(
    name: str, info: Optional[Callable[..., Tuple[int, int]]],
    original: Callable[..., Any], args: tuple, kwargs: dict,
) -> Any:
    """A wrapped call inside a pool worker: totals into OBS."""
    _WORKER_STACK.append(0)
    t0 = _perf()
    try:
        result = original(*args, **kwargs)
    finally:
        dur = _perf() - t0
        child = _WORKER_STACK.pop()
        if _WORKER_STACK:
            _WORKER_STACK[-1] += dur
    obs = _obs()
    if obs.enabled:
        n, m = info(args, result) if info is not None else (0, 0)
        obs.add(f"perfbench.{name}.calls")
        obs.add(f"perfbench.{name}.ns", dur)
        obs.add(f"perfbench.{name}.self_ns", dur - child)
        obs.add(f"perfbench.{name}.n", n)
        obs.add(f"perfbench.{name}.m", m)
        if m:
            obs.add(f"perfbench.{name}.m_ns", dur)
    return result


def _wrap(
    owner: Any,
    attr: str,
    name: str,
    info: Optional[Callable[..., Tuple[int, int]]] = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``info(args, result) -> (n, m)`` gives the span's two counts.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    code = REC.code(name)
    rec = REC

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _in_worker():
            return _worker_call(name, info, original, args, kwargs)
        idx = rec.enter(code)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            rec.failed[idx] = type(exc).__name__
            rec.exit(idx)
            raise
        rec.exit(idx)
        if info is not None:
            rec.n[idx], rec.m[idx] = info(args, result)
        return result

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)


# ----------------------------------------------------------------------
# the wrappers
# ----------------------------------------------------------------------
def install() -> None:
    """Wrap every layer's public calls (before the server starts)."""
    import repro.cli as cli
    from repro.core.bucket import BucketArrays
    from repro.core.maintenance import MaintainedHistogram
    from repro.core.minskew import MinSkewPartitioner
    from repro.estimators import MaintainedEstimator
    from repro.obs.metrics import MetricsRegistry
    from repro.serving import batcher, frontdoor, parallel
    from repro.serving.cache import QueryCache
    from repro.serving.index import BucketIndex
    from repro.serving.router import ShardRouter
    from repro.serving.shard import HistogramShard, ShardedHistogram

    rec = REC

    # front door: one encoded reply per request; marks delimit phases
    encode = frontdoor.encode_frame
    encode_code = rec.code("frontdoor.encode")

    def encode_frame(obj: Any) -> bytes:
        rid = obj.get("id") if isinstance(obj, dict) else None
        if isinstance(rid, str) and rid.startswith("mark:"):
            rec.marks[rid[5:]] = {
                "t": _perf(), "cpu": _cpu(),
                "obs": _obs().snapshot()["counters"],
            }
            return encode(obj)
        idx = rec.enter(encode_code)
        try:
            return encode(obj)
        finally:
            rec.exit(idx)
            rec.n[idx] = 1 if obj.get("ok") is False else 0

    frontdoor.encode_frame = encode_frame

    # batcher: a sequence number per request, queued FIFO until its
    # batch (or, for a mutation, its router call) takes it
    def admitted(attr: str, queued: "deque[Tuple[int, int]]") -> None:
        original = batcher.MicroBatcher.__dict__[attr]
        code = rec.code(f"batcher.{attr}")

        def wrapper(self: Any, *args: Any) -> Any:
            seq = rec.seq
            rec.seq += 1
            outer, rec.current = rec.current, seq
            idx = rec.enter(code)
            queued.append((seq, rec.t0[idx]))
            try:
                reply = original(self, *args)
            except BaseException as exc:
                # refused at admission: it never joined the queue
                rec.failed[idx] = type(exc).__name__
                queued.pop()
                raise
            finally:
                rec.exit(idx)
                rec.current = outer
            if not reply.done:
                rec.seq_of[reply] = seq
            return reply

        setattr(batcher.MicroBatcher, attr, wrapper)

    admitted("submit", rec.queued)
    admitted("submit_mutation", rec.mut_queued)
    _wrap(batcher.MicroBatcher, "tick", "batcher.tick")

    # replies: the request id is current while its callbacks run
    for attr in ("set_result", "set_error"):
        resolve = batcher.PendingReply.__dict__[attr]

        def resolved(self: Any, value: Any, _resolve: Any = resolve) -> None:
            outer = rec.current
            rec.current = rec.seq_of.pop(self, outer)
            try:
                _resolve(self, value)
            finally:
                rec.current = outer

        setattr(batcher.PendingReply, attr, resolved)

    # router: a batch is the next len(queries) queued requests
    estimate_batch = ShardRouter.__dict__["estimate_batch"]
    router_code = rec.code("router.estimate_batch")

    def router_batch(self: Any, queries: Any) -> Any:
        n = len(queries)
        batch = rec.batches
        rec.batches += 1
        outer, rec.current = rec.current, -(batch + 1)
        idx = rec.enter(router_code)
        t_dispatch = rec.t0[idx]
        for _ in range(min(n, len(rec.queued))):
            seq, t_submit = rec.queued.popleft()
            rec.waits.append((t_dispatch, t_dispatch - t_submit))
            rec.batch_of.append((seq, batch))
        try:
            return estimate_batch(self, queries)
        finally:
            rec.exit(idx)
            rec.current = outer
            rec.n[idx] = n
            rec.m[idx] = len(self.degraded_shards)

    ShardRouter.estimate_batch = router_batch

    for attr in ("insert", "delete"):
        mutate = ShardRouter.__dict__[attr]
        mutate_code = rec.code(f"router.{attr}")

        def router_mutate(
            self: Any, rect: Any, _mutate: Any = mutate,
            _code: int = mutate_code,
        ) -> Any:
            outer = rec.current
            if rec.mut_queued:
                rec.current = rec.mut_queued.popleft()[0]
            idx = rec.enter(_code)
            try:
                return _mutate(self, rect)
            finally:
                rec.exit(idx)
                rec.current = outer

        setattr(ShardRouter, attr, router_mutate)

    # pool: requests out, replies and worker snapshots back
    try_call_many = parallel.ShardWorkerPool.__dict__["try_call_many"]
    pool_code = rec.code("parallel.try_call_many")
    merge = MetricsRegistry.__dict__["merge_snapshot"]

    def merge_snapshot(self: Any, snapshot: Dict[str, Any]) -> None:
        if rec.snapshots is not None:
            ns = snapshot.get("counters", {}).get(
                "perfbench.engine.estimate.ns", 0.0
            )
            rec.snapshots.append(int(ns))
        merge(self, snapshot)

    MetricsRegistry.merge_snapshot = merge_snapshot

    def pool_call(self: Any, requests: Any) -> Any:
        idx = rec.enter(pool_code)
        rec.snapshots = []
        try:
            results = try_call_many(self, requests)
        finally:
            rec.exit(idx)
            engine_ns = rec.snapshots
            rec.snapshots = None
        workers = [self.worker_of(sid) for sid, _m, _a in requests]
        rec.n[idx] = len(requests)
        rec.pool_calls.append((
            idx, list(requests), results,
            list(zip(workers, engine_ns)),
        ))
        return results

    parallel.ShardWorkerPool.try_call_many = pool_call

    def pool_init(self: Any, *args: Any, **kwargs: Any) -> None:
        t0 = _perf()
        pool_init.original(self, *args, **kwargs)
        rec.setup["pool"] = (t0, _perf())

    pool_init.original = parallel.ShardWorkerPool.__init__
    parallel.ShardWorkerPool.__init__ = pool_init

    # engine, cache, index, estimators, kernel, maintenance, Min-Skew
    _wrap(HistogramShard, "estimate_batch_coords", "engine.estimate",
          lambda a, r: (len(r), int(np.count_nonzero(r))))
    _wrap(QueryCache, "lookup_batch", "cache.lookup_batch",
          lambda a, r: (len(a[1]), len(a[1]) - len(r[1])))
    _wrap(QueryCache, "store_batch", "cache.store_batch",
          lambda a, r: (len(a[2]), 0))
    _wrap(QueryCache, "flush", "cache.flush")
    _wrap(BucketIndex, "__init__", "index.build",
          lambda a, r: (len(a[1]), 0))
    _wrap(BucketIndex, "candidates", "index.candidates")
    _wrap(MaintainedEstimator, "sync", "estimators.sync",
          lambda a, r: (0, int(bool(r))))
    _wrap(BucketArrays, "estimate_block", "bucket.estimate_block",
          lambda a, r: (len(r), len(r) * a[0].n))
    _wrap(MaintainedHistogram, "insert", "maintenance.insert")
    _wrap(MaintainedHistogram, "delete", "maintenance.delete",
          lambda a, r: (0, int(bool(r))))
    _wrap(MaintainedHistogram, "refresh", "maintenance.refresh")
    _wrap(MinSkewPartitioner, "partition_full", "minskew.partition",
          lambda a, r: (len(a[1]), 0))

    # set-up phases
    make_dataset = cli.make_dataset

    def timed_dataset(*args: Any, **kwargs: Any) -> Any:
        t0 = _perf()
        data = make_dataset(*args, **kwargs)
        rec.setup["data"] = (t0, _perf())
        return data

    cli.make_dataset = timed_dataset
    build = ShardedHistogram.__dict__["build"].__func__

    def timed_build(cls: Any, *args: Any, **kwargs: Any) -> Any:
        t0 = _perf()
        sharded = build(cls, *args, **kwargs)
        rec.setup["build"] = (t0, _perf())
        return sharded

    ShardedHistogram.build = classmethod(timed_build)
    start = frontdoor.FrontDoor.__dict__["start"]

    async def timed_start(self: Any) -> Any:
        t0 = _perf()
        door = await start(self)
        rec.setup["bind"] = (t0, _perf())
        return door

    frontdoor.FrontDoor.start = timed_start


# ----------------------------------------------------------------------
# writing the trace
# ----------------------------------------------------------------------
def _pickled_bytes(requests: Any, results: Any) -> int:
    sizes = sum(
        len(pickle.dumps(("call", sid, method, tuple(args), True)))
        for sid, method, args in requests
    )
    return sizes + sum(
        len(pickle.dumps((result, None, None))) for result in results
    )


def write(path: Path, t_imported: int) -> None:
    rec = REC
    pool = []
    for idx, requests, results, engine in rec.pool_calls:
        rows = sum(int(args[0].shape[0]) for _s, _m, args in requests)
        useful = sum(
            int(np.count_nonzero(r)) for r in results
            if isinstance(r, np.ndarray)
        )
        per_worker: Dict[int, int] = {}
        for worker, ns in engine:
            per_worker[worker] = per_worker.get(worker, 0) + ns
        pool.append([
            idx, rows, useful, max(per_worker.values(), default=0),
            _pickled_bytes(requests, results),
        ])
    meta = {
        "names": rec.names,
        "marks": rec.marks,
        "setup": rec.setup,
        "t_imported": t_imported,
        "failed": {str(k): v for k, v in rec.failed.items()},
    }
    cpu_idx = np.array(sorted(rec.cpu), dtype=np.int64)
    np.savez(
        path,
        meta=np.array(json.dumps(meta)),
        name=np.array(rec.name, dtype=np.int32),
        t0=np.array(rec.t0, dtype=np.int64),
        t1=np.array(rec.t1, dtype=np.int64),
        parent=np.array(rec.parent, dtype=np.int64),
        rid=np.array(rec.rid, dtype=np.int64),
        n=np.array(rec.n, dtype=np.int64),
        m=np.array(rec.m, dtype=np.int64),
        cpu_idx=cpu_idx,
        cpu=np.array([rec.cpu[i] for i in cpu_idx],
                     dtype=np.int64).reshape(-1, 2),
        waits=np.array(rec.waits, dtype=np.int64).reshape(-1, 2),
        batch_of=np.array(rec.batch_of, dtype=np.int64).reshape(-1, 2),
        pool=np.array(pool, dtype=np.int64).reshape(-1, 5),
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracing.py --out PATH -- serve ...", file=sys.stderr)
        return 2
    out = Path(argv[1])
    import repro.cli
    import repro.eval  # noqa: F401 - imported by serve; timed here
    import repro.serving  # noqa: F401
    from repro.obs import OBS

    t_imported = _perf()
    install()
    OBS.enable()
    code = repro.cli.main(argv[3:])
    write(out, t_imported)
    return int(code)


# ----------------------------------------------------------------------
# folding a trace into per-layer metrics
# ----------------------------------------------------------------------
def _self_times(t0, t1, parent) -> np.ndarray:
    """Duration minus the time covered by direct children (spans are
    properly nested on one thread, so the children do not overlap)."""
    dur = t1 - t0
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def fold(path: Path, segments: List[str]) -> Dict[str, Any]:
    """Per-layer figures over the timed segments of a written trace."""
    z = np.load(path)
    meta = json.loads(str(z["meta"]))
    names = meta["names"]
    marks = meta["marks"]
    t0, t1, parent = z["t0"], z["t1"], z["parent"]
    n, m = z["n"], z["m"]
    code = np.array([names[i] for i in z["name"]]) if len(t0) else \
        np.array([], dtype=str)
    selft = _self_times(t0, t1, parent)
    in_win = np.zeros(len(t0), dtype=bool)
    wins = []
    for segment in segments:
        a = marks[f"{segment}:start"]
        b = marks[f"{segment}:end"]
        wins.append((a, b))
        in_win |= (t0 >= a["t"]) & (t0 < b["t"])

    def sel(name: str) -> np.ndarray:
        return in_win & (code == name)

    # counters of pool workers (and the program's own) over the window
    def obs_delta(key: str) -> float:
        return float(sum(
            b["obs"].get(key, 0.0) - a["obs"].get(key, 0.0)
            for a, b in wins
        ))

    def worker(name: str, what: str) -> float:
        return obs_delta(f"perfbench.{name}.{what}")

    out: Dict[str, float] = {}
    us = 1e-3
    # front door
    enc = sel("frontdoor.encode")
    requests = int(enc.sum())
    out["frontdoor.requests"] = requests
    out["frontdoor.errors"] = int(n[enc].sum())
    out["frontdoor.encode_us"] = _mean((t1 - t0)[enc]) * us
    main_cpu = sum(b["cpu"] - a["cpu"] for a, b in wins)
    cpu_idx, cpu = z["cpu_idx"], z["cpu"]
    top = in_win[cpu_idx]
    spans_cpu = int((cpu[top, 1] - cpu[top, 0]).sum())
    front_self = max(main_cpu - spans_cpu, 0)
    out["frontdoor.self_us_per_req"] = front_self / max(requests, 1) * us
    # batcher
    rb = sel("router.estimate_batch")
    rows = n[rb]
    out["batcher.batches"] = int(rb.sum())
    out["batcher.batch_rows_mean"] = _mean(rows)
    out["batcher.batch_rows_p99"] = _pct(rows, 99)
    waits = z["waits"]
    wsel = np.zeros(len(waits), dtype=bool)
    for a, b in wins:
        wsel |= (waits[:, 0] >= a["t"]) & (waits[:, 0] < b["t"])
    out["batcher.wait_p50_ms"] = _pct(waits[wsel, 1], 50) * 1e-6
    out["batcher.wait_p99_ms"] = _pct(waits[wsel, 1], 99) * 1e-6
    failed = meta["failed"]
    sub = np.flatnonzero(sel("batcher.submit"))
    out["batcher.shed"] = sum(
        1 for i in sub if failed.get(str(i)) == "OverloadedError"
    )
    # router
    n_batches = max(int(rb.sum()), 1)
    out["router.batches"] = int(rb.sum())
    out["router.us_per_batch"] = float(selft[rb].sum()) / n_batches * us
    out["router.us_per_row"] = (
        float(selft[rb].sum()) / max(int(rows.sum()), 1) * us
    )
    eng = sel("engine.estimate")
    pool = z["pool"]
    psel = in_win[pool[:, 0]] if len(pool) else np.zeros(0, dtype=bool)
    pcalls = pool[psel]
    fanout = int(eng.sum()) + int(n[pool[psel, 0]].sum() if len(pool)
                                  else 0)
    out["router.fanout"] = fanout / n_batches
    dispatched = int(n[eng].sum()) + int(pcalls[:, 1].sum())
    useful = int(m[eng].sum()) + int(pcalls[:, 2].sum())
    out["router.useful_rows_frac"] = useful / max(dispatched, 1)
    out["router.retries"] = obs_delta("serving.shard.retries")
    out["router.degraded"] = obs_delta("serving.shard.degraded")
    # pool
    pc = sel("parallel.try_call_many")
    rtt = (t1 - t0)[pc]
    out["parallel.calls"] = int(pc.sum())
    out["parallel.rtt_us"] = _mean(rtt) * us
    out["parallel.worker_us"] = _mean(pcalls[:, 3]) * us
    out["parallel.ipc_us"] = (
        _mean(rtt - pcalls[:, 3]) * us if len(pcalls) else 0.0
    )
    out["parallel.bytes_per_call"] = _mean(pcalls[:, 4])
    out["parallel.respawns"] = obs_delta("serving.pool.respawns")

    # layers that run in the server and, pooled, in its workers
    def layer(name: str) -> Tuple[float, float, float, float, float]:
        s = sel(name)
        return (
            float(s.sum()) + worker(name, "calls"),
            float((t1 - t0)[s].sum()) + worker(name, "ns"),
            float(selft[s].sum()) + worker(name, "self_ns"),
            float(n[s].sum()) + worker(name, "n"),
            float(m[s].sum()) + worker(name, "m"),
        )

    calls, ns, _self, rws, _m = layer("engine.estimate")
    out["engine.calls"] = calls
    out["engine.us_per_call"] = ns / max(calls, 1) * us
    out["engine.rows_per_call"] = rws / max(calls, 1)
    lk = layer("cache.lookup_batch")
    st = layer("cache.store_batch")
    out["cache.lookups"] = lk[3]
    out["cache.hit_frac"] = lk[4] / max(lk[3], 1)
    out["cache.flushes"] = layer("cache.flush")[0]
    out["cache.us_per_row"] = (lk[1] + st[1]) / max(lk[3], 1) * us
    ib = layer("index.build")
    out["index.builds"] = ib[0]
    out["index.build_us"] = ib[1] / max(ib[0], 1) * us
    out["index.probes"] = layer("index.candidates")[0]
    # only the syncs that rebuilt (m = 1); most find nothing to do
    sy = sel("estimators.sync") & (m == 1)
    syncs = float(sy.sum()) + worker("estimators.sync", "m")
    out["estimators.syncs"] = syncs
    out["estimators.sync_us"] = (
        float((t1 - t0)[sy].sum()) + worker("estimators.sync", "m_ns")
    ) / max(syncs, 1) * us
    kc = layer("bucket.estimate_block")
    out["bucket.kernel_calls"] = kc[0]
    out["bucket.kernel_cells"] = kc[4]
    out["bucket.kernel_ns_per_cell"] = kc[1] / max(kc[4], 1)
    ins = sel("maintenance.insert")
    dl = sel("maintenance.delete")
    hit = dl & (m == 1)
    out["maintenance.inserts"] = int(ins.sum())
    out["maintenance.insert_us_p50"] = _pct((t1 - t0)[ins], 50) * us
    out["maintenance.deletes"] = int(hit.sum())
    out["maintenance.delete_ms_p50"] = _pct((t1 - t0)[hit], 50) * 1e-6
    out["maintenance.delete_ms_p99"] = _pct((t1 - t0)[hit], 99) * 1e-6
    out["maintenance.delete_misses"] = int((dl & (m == 0)).sum())
    rf = sel("maintenance.refresh")
    out["maintenance.refreshes"] = int(rf.sum())
    out["maintenance.refresh_ms"] = _mean((t1 - t0)[rf]) * 1e-6
    # Min-Skew runs at set-up (shard plan and shards) and on refresh
    mk = code == "minskew.partition"
    out["minskew.partitions"] = int(mk.sum())
    out["minskew.partition_ms"] = _mean((t1 - t0)[mk]) * 1e-6
    setup = meta["setup"]

    def phase_s(key: str) -> float:
        a, b = setup.get(key, (0, 0))
        return (b - a) * 1e-9

    out["setup.data_s"] = phase_s("data")
    out["setup.build_s"] = phase_s("build")
    out["setup.pool_s"] = phase_s("pool")
    out["setup.bind_s"] = phase_s("bind")
    # server time by layer: self times in the server and its workers;
    # the pool's own share is its round trip minus the workers' engine
    # time on the slowest worker, the front door's is its CPU outside
    # every span (plus encoding)
    share: Dict[str, float] = {layer_: 0.0 for layer_ in LAYERS}
    prefix = np.array([c.split(".", 1)[0] for c in code]) if len(code) \
        else np.array([], dtype=str)
    for layer_ in LAYERS:
        s = in_win & (prefix == layer_)
        share[layer_] += float(selft[s].sum())
    for name in {c for c in names if "." in c}:
        share[name.split(".", 1)[0]] += worker(name, "self_ns")
    share["parallel"] = float((rtt - pcalls[:, 3]).sum()) if len(
        pcalls) else 0.0
    share["frontdoor"] += front_self
    total = sum(share.values())
    for layer_ in LAYERS:
        out[f"{layer_}.share"] = share[layer_] / total if total else 0.0
    out["largest_layer"] = max(LAYERS, key=lambda k: share[k])
    out["t_imported"] = meta["t_imported"]
    return out


def _mean(values: Any) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def _pct(values: Any, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


if __name__ == "__main__":
    sys.exit(main())
