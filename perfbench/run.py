#!/usr/bin/env python3
"""The repository benchmark: ``repro serve`` driven over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload probe --seed 1 --seconds 30 \\
        --trace 0

It starts ``python -m repro serve --dataset charminar --shards 4`` in
its own process, times the set-up from launch to the first answer,
warms the server up, drives the workload's timed phases from one
load-generator process over at most two connections, checks every
answer, stops the server with SIGINT and checks no child outlived it.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A failed correctness gate exits non-zero.  See
``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("probe", "probe-pooled")

#: Open-loop read rate (requests per second, over both connections).
RATE = 1000.0
#: Requests per closed-loop burst on each reading connection, and the
#: bursts each keeps in flight.
WINDOW = 64
DEPTH = 2
#: Distinct hot rectangles re-planned by the optimizer traffic.
HOT = 512
#: Share of optimizer requests that repeat a hot rectangle.
HOT_SHARE = 0.5
#: The paper's query model: extents are 5% of the data MBR per axis.
QSIZE = 0.05
#: Paper workload size; answered in warm-up, scored for ``are``.
N_ARE = 10_000
#: Queries answered after the writes, checked against a replay.
N_PROBE = 10_000
#: Set-up samples per run (the last launch is the one measured).
SETUP_LAUNCHES = 5
#: Cycles the timed segments are interleaved over.
CYCLES = 32
#: Frames encoded per second of closed-loop and change-stream segment;
#: a timed segment that runs its pool dry fails the run.
CLOSED_CAP_PER_S = 45_000
WRITE_CAP_PER_S = 400
#: Open-loop traffic is invalid when the generator's median lateness
#: exceeds one inter-arrival gap: it no longer keeps its schedule, and
#: its latencies would describe the generator, not the server.  (On a
#: shared VM, tail lateness of a few ms is host scheduling; it is
#: reported, not gated.)
LATE_LIMIT_MS = 1000.0 / RATE

#: Share of the VM's CPU the hypervisor may steal in a segment whose
#: figures are always used (see ``Outcome.figures``).
CALM_STEAL = 0.02
#: :func:`loadgen.calibrate` samples taken after warm-up and after each
#: timed segment, while the server is idle.
CAL_SAMPLES = 4
#: The calibration time (ms) of the reference machine the speed figures
#: are scaled to: about the mean on the 2-vCPU VM this benchmark was
#: written on.
CAL_REF_MS = 3.5
#: Figures scaled by the calibration: times by ``CAL_REF_MS /
#: calibration``, rates by its inverse.  ``read_p99_ms`` is not: it is
#: set by where in a shard's rows the run's longest deletes fall, and
#: scaling it only added the calibration's noise to its spread.
SCALED_TIMES = ("read_p50_ms", "cpu_us_per_req", "write_p95_ms")
SCALED_RATES = ("peak_qps", "write_ops_per_s")

#: (name, unit) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("are", "ratio"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("peak_qps", "req/s"),
    ("write_ops_per_s", "ops/s"),
    ("write_p95_ms", "ms"),
)


#: (name, unit) of every per-layer metric (``--trace 1``); the layer
#: prefixes are modules of ``repro.serving`` and ``repro.core``.
PER_LAYER = (
    ("frontdoor.requests", "count"),
    ("frontdoor.errors", "count"),
    ("frontdoor.encode_us", "us"),
    ("frontdoor.self_us_per_req", "us"),
    ("batcher.batches", "count"),
    ("batcher.batch_rows_mean", "rows"),
    ("batcher.batch_rows_p99", "rows"),
    ("batcher.wait_p50_ms", "ms"),
    ("batcher.wait_p99_ms", "ms"),
    ("batcher.shed", "count"),
    ("router.batches", "count"),
    ("router.us_per_batch", "us"),
    ("router.us_per_row", "us"),
    ("router.fanout", "shards"),
    ("router.useful_rows_frac", "fraction"),
    ("router.retries", "count"),
    ("router.degraded", "count"),
    ("parallel.calls", "count"),
    ("parallel.rtt_us", "us"),
    ("parallel.worker_us", "us"),
    ("parallel.ipc_us", "us"),
    ("parallel.bytes_per_call", "bytes"),
    ("parallel.respawns", "count"),
    ("engine.calls", "count"),
    ("engine.us_per_call", "us"),
    ("engine.rows_per_call", "rows"),
    ("cache.lookups", "count"),
    ("cache.hit_frac", "fraction"),
    ("cache.flushes", "count"),
    ("cache.us_per_row", "us"),
    ("index.builds", "count"),
    ("index.build_us", "us"),
    ("index.probes", "count"),
    ("estimators.syncs", "count"),
    ("estimators.sync_us", "us"),
    ("bucket.kernel_calls", "count"),
    ("bucket.kernel_cells", "count"),
    ("bucket.kernel_ns_per_cell", "ns"),
    ("maintenance.inserts", "count"),
    ("maintenance.insert_us_p50", "us"),
    ("maintenance.deletes", "count"),
    ("maintenance.delete_ms_p50", "ms"),
    ("maintenance.delete_ms_p99", "ms"),
    ("maintenance.delete_misses", "count"),
    ("maintenance.refreshes", "count"),
    ("maintenance.refresh_ms", "ms"),
    ("minskew.partitions", "count"),
    ("minskew.partition_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.data_s", "s"),
    ("setup.build_s", "s"),
    ("setup.pool_s", "s"),
    ("setup.bind_s", "s"),
    ("client.lateness_p99_ms", "ms"),
    ("client.cpu_frac", "fraction"),
    ("client.read_p99_ms", "ms"),
    ("client.samples", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.read_p50_overhead_frac", "fraction"),
) + tuple(
    (f"{layer}.share", "fraction") for layer in tracing.LAYERS
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def _pct(values: np.ndarray, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q))


# ----------------------------------------------------------------------
# the traffic of one run, generated from the seed
# ----------------------------------------------------------------------
class Traffic:
    """Every frame of one run, encoded before timing starts (both
    workloads send the same traffic)."""

    def __init__(self, seed: int, seconds: float, data) -> None:
        from loadgen import Requests
        from repro.workload import live_workload, range_queries

        self.seconds = seconds
        gen = np.random.default_rng(seed)
        reqs = self.reqs = Requests()

        def fresh(n: int) -> np.ndarray:
            return range_queries(data, QSIZE, max(n, 1), seed=gen).coords

        def optimizer(n: int) -> np.ndarray:
            """Half hot repeats (prepared predicates re-planned), half
            fresh rectangles."""
            out = fresh(n).copy()
            repeat = gen.random(len(out)) < HOT_SHARE
            out[repeat] = self.hot[gen.integers(0, HOT, int(repeat.sum()))]
            return out

        def pool(kind: str, rate: float) -> int:
            busy = sum(s for k, s in self.segments() if k == kind)
            return int(rate * busy * 1.2) + 256

        # each closed segment opens with DEPTH bursts per connection
        n_closed = pool("closed", CLOSED_CAP_PER_S / 2) + (
            CYCLES * DEPTH * WINDOW
        )
        self.first_rect = fresh(1)[0].tolist()
        ops = live_workload(
            data, QSIZE, int(WRITE_CAP_PER_S * seconds) + 16, seed=gen,
            query_frac=0.0, insert_frac=0.5,
        )
        self.are_ids = reqs.add("estimate", fresh(N_ARE))
        self.hot = fresh(HOT)
        self.warm = [self.are_ids, reqs.add("estimate", self.hot)]
        # the hot set again after each writes segment: a mutation
        # flushes the owning shard's cache
        self.rewarm = [reqs.add("estimate", self.hot) for _ in range(CYCLES)]
        self.reads_open = reqs.add("estimate", optimizer(pool("open", RATE)))
        # one closed-loop pool per connection
        self.reads_closed = [
            reqs.add("estimate", optimizer(n_closed)) for _ in range(2)
        ]
        self.reads_writes = reqs.add("estimate", fresh(pool("writes", RATE)))
        self.mutations = reqs.add_ops(
            (op.kind, op.rect.as_tuple()) for op in ops
        )
        self.probe = reqs.add("estimate", fresh(N_PROBE))
        reqs.seal()

    def segments(self) -> List[Tuple[str, float]]:
        """The timed segments, as ``(kind, seconds)`` in run order.

        ``open``: read-only open loop; ``closed``: closed-loop reads;
        ``writes``: the change stream with open-loop reads alongside.
        The kinds alternate over ``CYCLES`` cycles, so each figure
        samples the whole run rather than one stretch of it (a shared
        VM's speed drifts by 10-30% over seconds to minutes).
        """
        s = self.seconds / CYCLES
        return [
            ("open", 0.25 * s), ("closed", 0.25 * s), ("writes", 0.5 * s),
        ] * CYCLES


# ----------------------------------------------------------------------
# one pass: a server process driven through every segment
# ----------------------------------------------------------------------
def _server_argv(workload: str, n: Optional[int]) -> List[str]:
    argv = ["serve", "--dataset", "charminar", "--shards", "4"]
    if workload == "probe-pooled":
        argv += ["--shard-workers", "2"]
    if n is not None:
        argv += ["--n", str(n)]
    return argv


def _env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Pass:
    """One server process and everything measured against it."""

    def __init__(self, traffic: Traffic, server) -> None:
        self.traffic = traffic
        self.server = server
        self.server_launch = server.t_launch
        #: segment name -> kind, wall window, generator CPU, server CPU
        self.segments: Dict[str, Dict[str, object]] = {}
        self.rss_mb = 0.0
        #: :func:`loadgen.calibrate` seconds, taken between segments
        self.calibration: List[float] = []
        self.problems: List[str] = []

    def run(self) -> None:
        from loadgen import ClosedLoop, Driver, OpenLoop, calibrate

        tr = self.traffic
        driver = Driver("127.0.0.1", self.server.port, tr.reqs)
        # how far each frame pool has been consumed
        opened = written = during = 0
        closed = [0] * len(tr.reads_closed)
        rewarms = iter(tr.rewarm)
        try:
            # warm-up: caches filled, lazy index attachment done
            for ids in tr.warm:
                self._untimed(driver, ids)
            self.calibration += [calibrate() for _ in range(CAL_SAMPLES)]
            for i, (kind, seconds) in enumerate(tr.segments()):
                writer = reader = None
                readers: List[ClosedLoop] = []
                if kind == "writes":
                    writer = ClosedLoop(0, tr.mutations[written:], 1)
                    reader = OpenLoop([1], tr.reads_writes[during:], RATE)
                elif kind == "open":
                    reader = OpenLoop([0, 1], tr.reads_open[opened:], RATE)
                else:
                    readers = [
                        ClosedLoop(c, pool[closed[c]:], WINDOW, DEPTH)
                        for c, pool in enumerate(tr.reads_closed)
                    ]
                sources = [s for s in (writer, reader) if s] + readers
                segment = self._segment(
                    driver, f"{kind}.{i}", kind, seconds, sources
                )
                if writer is not None:
                    written += writer.k
                    segment["writes"] = writer.ids[:writer.k]
                segment["reads"] = [
                    rid for s in sources if s is not writer
                    for rid in s.ids[:s.k]
                ]
                if kind == "writes":
                    during += reader.k
                elif kind == "open":
                    opened += reader.k
                for c, source in enumerate(readers):
                    closed[c] += source.k
                if kind == "writes":
                    segment["rewarm"] = next(rewarms)
                    self._untimed(driver, segment["rewarm"])
                self.calibration += [
                    calibrate() for _ in range(CAL_SAMPLES)
                ]
            self._untimed(driver, tr.probe)
            self.rss_mb = self.server.peak_rss_mb()
        finally:
            driver.close()

    @staticmethod
    def _untimed(driver, ids) -> None:
        from loadgen import ClosedLoop

        half = len(ids) // 2
        driver.run_all([
            ClosedLoop(0, ids[:half], WINDOW),
            ClosedLoop(1, ids[half:], WINDOW),
        ])

    def _segment(self, driver, name: str, kind: str, seconds: float,
                 sources) -> Dict[str, object]:
        from loadgen import steal_seconds

        driver.mark(f"{name}:start")
        driver.drain()
        cpu0 = self.server.cpu_seconds()
        steal0 = steal_seconds()
        window = driver.run(sources, seconds)
        steal = steal_seconds() - steal0
        server_cpu = self.server.cpu_seconds() - cpu0
        driver.mark(f"{name}:end")
        driver.drain()
        self.segments[name] = dict(window, kind=kind, server_cpu=server_cpu,
                                   steal=steal)
        return self.segments[name]


# ----------------------------------------------------------------------
# gates and figures
# ----------------------------------------------------------------------
def _in_windows(times: np.ndarray, windows) -> np.ndarray:
    mask = np.zeros(len(times), dtype=bool)
    for w in windows:
        mask |= (times >= w["t0"]) & (times < w["t1"])
    return mask


class Outcome:
    """Correctness gates and end-to-end figures of one pass."""

    def __init__(self, p: Pass, data, sharded_factory) -> None:
        from loadgen import OK, PENDING
        import reference

        self.p = p
        tr = p.traffic
        reqs = tr.reqs
        self.problems: List[str] = list(p.problems)
        sent = ~np.isnan(reqs.sent)
        self.attempted = int(sent.sum())
        bad = sent & (reqs.status != OK)
        unanswered = int((sent & (reqs.status == PENDING)).sum())
        if unanswered:
            self.problems.append(f"{unanswered} requests never answered")
        if reqs.errors:
            kinds = sorted(set(reqs.errors.values()))
            self.problems.append(
                f"{len(reqs.errors)} typed errors: {', '.join(kinds)}"
            )
        # the in-process tier, replayed in step with the server: every
        # read answered while no mutation was in flight must equal it
        # bit for bit, and replaying exactly the acknowledged mutations
        # must give the results the server acknowledged
        sharded = sharded_factory()
        checked: List[np.ndarray] = []
        expected: List[np.ndarray] = []

        def expect(ids) -> None:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size:
                checked.append(ids)
                expected.append(reference.answers(
                    sharded, np.asarray([reqs.rects[i] for i in ids])
                ))

        self.n_acked = 0
        for ids in tr.warm:
            expect(ids)
        for segment in p.segments.values():
            if "writes" in segment:
                # reads alongside the change stream see moving epochs
                self._replay(sharded, segment["writes"], bad)
            else:
                expect(segment["reads"])
            expect(segment.get("rewarm", ()))
        expect(tr.probe)
        ids = np.concatenate(checked)
        wrong = (reqs.status[ids] == OK) & ~reference.bit_equal(
            reqs.value[ids], np.concatenate(expected)
        )
        if wrong.any():
            self.problems.append(
                f"{int(wrong.sum())} answers differ from the replayed "
                f"reference (first: request {int(ids[wrong][0])})"
            )
        bad[ids[wrong]] = True
        self.failed = int(bad.sum())
        ids = np.asarray(tr.are_ids)
        self.are = reference.are(
            data, [reqs.rects[i] for i in ids], reqs.value[ids]
        )

    def _replay(self, sharded, sent, bad: np.ndarray) -> None:
        from loadgen import OK
        import reference

        reqs = self.p.traffic.reqs
        acked = [int(i) for i in sent if reqs.status[i] == OK]
        replayed = reference.replay(
            sharded, [(reqs.kinds[i], reqs.rects[i]) for i in acked]
        )
        self.n_acked += len(acked)
        if len(replayed) != len(acked):
            self.problems.append(
                f"replay gave {len(replayed)} results for "
                f"{len(acked)} acknowledged mutations"
            )
        for rid, want in zip(acked, replayed):
            got = reqs.results.get(rid)
            if got != want:
                self.problems.append(
                    f"mutation {rid} acknowledged {got!r}, "
                    f"replay gives {want!r}"
                )
                bad[rid] = True

    def figures(self) -> Dict[str, float]:
        """End-to-end figures plus the generator's diagnostics."""
        from loadgen import OK

        p = self.p
        tr = p.traffic
        reqs = tr.reqs
        segs = list(p.segments.values())
        ncpu = os.cpu_count() or 1

        def of(kind: str) -> list:
            return [s for s in segs if s["kind"] == kind]

        def steal(s) -> float:
            return s["steal"] / (ncpu * (s["t1"] - s["t0"]))

        def calm(kind: str) -> list:
            """The segments of ``kind`` in which the hypervisor stole at
            most ``CALM_STEAL`` of the VM's CPU, or no more than in the
            calmest quarter: all of them on a quiet host."""
            mine = of(kind)
            limit = max(CALM_STEAL, _pct([steal(s) for s in mine], 25))
            return [s for s in mine if steal(s) <= limit]

        def seconds(windows) -> float:
            return sum(s["t1"] - s["t0"] for s in windows)

        def reads(pool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Answered open-loop reads: ids, latency from the due
            time, and the generator's lateness (ms)."""
            ids = np.asarray(pool)
            ids = ids[reqs.status[ids] == OK]
            due = reqs.due[ids]
            return ids, (reqs.recv[ids] - due) * 1e3, (
                (reqs.sent[ids] - due) * 1e3
            )

        out: Dict[str, float] = {}
        muts = np.asarray(tr.mutations)
        muts = muts[reqs.status[muts] == OK]
        msent = reqs.sent[muts]
        # reads at RATE in the read-only segments
        ids, lat, late = reads(tr.reads_open)
        due = reqs.due[ids]
        p50s, cpus = [], []
        for s in calm("open"):
            here = (due >= s["t0"]) & (due < s["t1"])
            p50s.append(_pct(lat[here], 50))
            served = int(here.sum()) + int(_in_windows(msent, [s]).sum())
            cpus.append(s["server_cpu"] / max(served, 1) * 1e6)
        # medians over segments: a stretch of host contention spoils
        # the segments it covers, not the figure
        out["read_p50_ms"] = statistics.median(p50s)
        out["cpu_us_per_req"] = statistics.median(cpus)
        out["client.read_p99_ms"] = _pct(lat, 99)
        out["client.samples"] = float(lat.size)
        # reads at RATE while the change stream runs
        wids, wlat, wlate = reads(tr.reads_writes)
        wcalm = calm("writes")
        out["read_p99_ms"] = _pct(
            wlat[_in_windows(reqs.due[wids], wcalm)], 99
        )
        open_loop = of("open") + of("writes")
        lateness = np.concatenate([late, wlate])
        out["client.lateness_p50_ms"] = _pct(lateness, 50)
        out["client.lateness_p99_ms"] = _pct(lateness, 99)
        out["client.cpu_frac"] = sum(
            s["client_cpu_s"] for s in open_loop
        ) / seconds(open_loop)
        # closed-loop reads: completions per second
        done = reqs.recv[np.concatenate(
            [np.asarray(pool) for pool in tr.reads_closed]
        )]
        out["peak_qps"] = float(
            _in_windows(done, calm("closed")).sum()
        ) / seconds(calm("closed"))
        out["client.peak_cpu_frac"] = sum(
            s["client_cpu_s"] for s in of("closed")
        ) / seconds(of("closed"))
        # the change stream: one acknowledged mutation at a time
        wmut = muts[_in_windows(msent, wcalm)]
        out["write_ops_per_s"] = wmut.size / seconds(wcalm)
        # p95, not p99: a pooled run acknowledges a few hundred writes
        # in its calm segments, too few for a steady p99
        out["write_p95_ms"] = _pct(
            (reqs.recv[wmut] - reqs.sent[wmut]) * 1e3, 95
        )
        out["client.write_samples"] = float(wmut.size)
        out["client.steal_frac"] = sum(s["steal"] for s in segs) / (
            ncpu * seconds(segs)
        )
        # the machine's speed over the run: a shared VM's vCPU runs the
        # same work 2-3x slower for tens to hundreds of milliseconds at a
        # time, and for how much of a run varies from run to run
        out["client.calibration_ms"] = float(np.mean(p.calibration)) * 1e3
        speed = CAL_REF_MS / out["client.calibration_ms"]
        for name in SCALED_TIMES + SCALED_RATES:
            out[f"raw.{name}"] = out[name]
            out[name] *= speed if name in SCALED_TIMES else 1.0 / speed
        out["are"] = self.are
        out["rss_mb"] = p.rss_mb
        out["ok_frac"] = 1.0 - self.failed / max(self.attempted, 1)
        if out["client.lateness_p50_ms"] > LATE_LIMIT_MS:
            self.problems.append(
                "open-loop segments invalid: the generator ran "
                f"{out['client.lateness_p50_ms']:.3f} ms late at p50 "
                f"(limit {LATE_LIMIT_MS:g} ms)"
            )
        return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _launch(argv: List[str], traffic: Traffic):
    from loadgen import Server

    server = Server(argv, str(ROOT), _env())
    setup = server.start(traffic.first_rect)
    return server, setup


def _serve_argv(workload: str, n: Optional[int]) -> List[str]:
    return [sys.executable, "-m", "repro", *_server_argv(workload, n)]


def _measure(
    traffic: Traffic, argv: List[str], launches: int
) -> Tuple[Pass, List[float]]:
    """``launches - 1`` set-up-only launches, then one measured pass.

    Every stop is checked: a server child that outlives the server, or
    an unclean exit, fails the lifecycle gate.
    """
    setups: List[float] = []
    problems: List[str] = []
    for _ in range(launches - 1):
        server, setup = _launch(argv, traffic)
        problems += server.stop()
        setups.append(setup)
    server, setup = _launch(argv, traffic)
    setups.append(setup)
    p = Pass(traffic, server)
    try:
        p.run()
    finally:
        problems += server.stop()
    p.problems += problems
    return p, setups


def _emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
    notes: Sequence[str],
) -> None:
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n", type=int, default=None,
        help="dataset size (default: paper scale, 40,000 rects); the "
             "benchmark's own tests run at tiny scale",
    )
    args = parser.parse_args(argv)
    # a shell's background job starts with SIGINT ignored, and an
    # ignored disposition survives exec: the server would then ignore
    # the SIGINT that stops it.  A handler here resets it for children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference

    data = reference.dataset(args.n)
    traffic = Traffic(args.seed, args.seconds, data)
    # the frames live for the whole run: keep them out of collections
    gc.collect()
    gc.freeze()
    if args.trace:
        return _traced(args, traffic, data)
    p, setups = _measure(
        traffic, _serve_argv(args.workload, args.n), SETUP_LAUNCHES
    )
    out = Outcome(p, data, lambda: reference.build(data))
    figures = out.figures()
    figures["setup_s"] = statistics.median(setups)
    metrics = {name: (figures[name], unit) for name, unit in END_TO_END}
    notes = [
        f"workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g}",
        "set-up samples (s): " + " ".join(f"{s:.3f}" for s in setups),
        f"client.lateness_p50_ms {figures['client.lateness_p50_ms']:.3f}"
        f"  client.lateness_p99_ms {figures['client.lateness_p99_ms']:.3f}"
        f"  client.cpu_frac {figures['client.cpu_frac']:.3f}"
        f"  client.peak_cpu_frac {figures['client.peak_cpu_frac']:.3f}",
        f"client.read_p99_ms {figures['client.read_p99_ms']:.3f} over "
        f"{int(figures['client.samples'])} samples (not gated: see "
        "README)",
        f"client.calibration_ms {figures['client.calibration_ms']:.4f} "
        f"(reference {CAL_REF_MS:g}); unscaled: " + "  ".join(
            f"{name} {figures['raw.' + name]:.6g}"
            for name in SCALED_TIMES + SCALED_RATES
        ),
        f"client.steal_frac {figures['client.steal_frac']:.4f} (timed "
        "segments)",
        f"write samples {int(figures['client.write_samples'])}, "
        f"acknowledged mutations {out.n_acked}",
        *(f"GATE FAILED: {problem}" for problem in out.problems),
    ]
    _emit(not out.problems, out.attempted, out.failed, metrics, notes)
    return 1 if out.problems else 0


def _traced(args, traffic: Traffic, data) -> int:
    """An untraced and a traced pass over the same frames."""
    import reference

    def factory():
        return reference.build(data)

    plain, _ = _measure(traffic, _serve_argv(args.workload, args.n), 1)
    base = Outcome(plain, data, factory)
    base_fig = base.figures()
    traffic.reqs.seal()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}.npz"
    if path.exists():
        path.unlink()
    argv = [
        sys.executable, str(HERE / "tracing.py"), "--out", str(path),
        "--", *_server_argv(args.workload, args.n),
    ]
    traced, _ = _measure(traffic, argv, 1)
    out = Outcome(traced, data, factory)
    fig = out.figures()
    layers = tracing.fold(path, list(traced.segments))
    layers["setup.import_s"] = (
        layers.pop("t_imported") * 1e-9 - traced.server_launch
    )
    largest = layers.pop("largest_layer")
    for key in ("client.lateness_p99_ms", "client.cpu_frac",
                "client.read_p99_ms", "client.samples"):
        layers[key] = fig[key]
    layers["trace.overhead_frac"] = 1.0 - fig["peak_qps"] / (
        base_fig["peak_qps"]
    )
    layers["trace.read_p50_overhead_frac"] = (
        fig["read_p50_ms"] / base_fig["read_p50_ms"] - 1.0
    )
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    problems = base.problems + out.problems
    notes = [
        f"workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} (traced)",
        f"largest share of server time: {largest} "
        f"({layers[largest + '.share']:.1%})",
        "untraced read_p50_ms {:.3f} peak_qps {:.0f}; traced {:.3f} "
        "{:.0f}".format(base_fig["read_p50_ms"], base_fig["peak_qps"],
                        fig["read_p50_ms"], fig["peak_qps"]),
        *(f"GATE FAILED: {problem}" for problem in problems),
    ]
    _emit(
        not problems, base.attempted + out.attempted,
        base.failed + out.failed, metrics, notes,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
