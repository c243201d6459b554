"""Front-door suite: micro-batcher contracts, wire protocol, SLOs.

Three layers, three promises:

* the sans-IO :class:`MicroBatcher` fires under exactly the dual
  trigger (size, deterministic logical wait) plus flush, treats every
  mutation as a FIFO barrier, resolves every reply exactly once (on
  success *and* error paths), and sheds with a typed retryable
  :class:`~repro.errors.OverloadedError` when the queue or the
  breaker says no;
* any interleaving of queries and mutations through the batcher —
  under any trigger pattern (size-fired, clock-fired, flush-on-close)
  — answers bit-for-bit like a sequential reference applying the same
  submission order (the hypothesis differential);
* the TCP front door serves those same answers over the wire: a
  pipelined client equals the directly served estimator exactly,
  mutations route through, protocol violations come back as typed
  error responses.

The parameterized ``served_engine`` fixture (conftest) closes the
loop: direct, sharded, pooled, and server stacks all answer the shared
workload bit-identically to the union reference.

The egress contract is pinned separately: every frame is
byte-identical to ``json.dumps`` framing, each dispatched batch
reaches each connection in one transport write, and no flush point
(barrier, disconnect, framing error, close) loses or delays a reply.
"""

import asyncio
import json
import socket
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MaintainedHistogram, MinSkewPartitioner
from repro.data import charminar
from repro.errors import OverloadedError, ReproError, ValidationError
from repro.estimators import BucketEstimator, MaintainedEstimator
from repro.geometry import Rect, RectSet
from repro.resilience import StepClock
from repro.serving import FrontDoorThread, MicroBatcher, PendingReply
from repro.serving.frontdoor import MAX_FRAME_BYTES, encode_frame
from repro.workload import live_workload, range_queries

DATA = charminar(600, seed=53)


class _Recorder:
    """Dispatch stub: records every batch; answers row sums."""

    def __init__(self, fail=None):
        self.batches = []
        self.fail = fail

    def __call__(self, coords):
        self.batches.append(coords.copy())
        if self.fail is not None:
            raise self.fail
        return coords.sum(axis=1)

    @property
    def sizes(self):
        return [len(b) for b in self.batches]


def _batcher(recorder, **kwargs):
    kwargs.setdefault("clock", StepClock())
    return MicroBatcher(recorder, **kwargs)


class TestMicroBatcherTriggers:
    def test_batch_of_one_fires_on_flush(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=8, max_wait_steps=4)
        reply = batcher.submit(0.0, 0.0, 1.0, 2.0)
        assert not reply.done
        assert recorder.sizes == []
        batcher.flush()
        assert reply.done
        assert reply.result() == 3.0
        assert recorder.sizes == [1]

    def test_exactly_max_size_fires_inline(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=4, max_wait_steps=0)
        replies = [
            batcher.submit(float(i), 0.0, float(i) + 1.0, 1.0)
            for i in range(4)
        ]
        # no tick, no flush: the size trigger alone fired the batch
        assert recorder.sizes == [4]
        assert [r.result() for r in replies] == [
            2.0 * i + 2.0 for i in range(4)
        ]
        assert batcher.pending == 0

    def test_overflow_splits_into_max_sized_batches(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=4, max_wait_steps=0)
        replies = [
            batcher.submit(float(i), 0.0, float(i) + 1.0, 1.0)
            for i in range(9)
        ]
        assert recorder.sizes == [4, 4]
        assert batcher.pending == 1
        batcher.flush()
        assert recorder.sizes == [4, 4, 1]
        assert all(r.done for r in replies)
        # FIFO: batch rows are the submission order, never reordered
        submitted = np.array(
            [[float(i), 0.0, float(i) + 1.0, 1.0] for i in range(9)]
        )
        np.testing.assert_array_equal(
            np.vstack(recorder.batches), submitted
        )

    def test_wait_trigger_fires_exactly_at_max_wait_steps(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=64, max_wait_steps=3)
        reply = batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.tick()
        batcher.tick()
        assert not reply.done  # 2 steps: still within the bound
        batcher.tick()
        assert reply.done  # exactly 3: the partial batch fired
        assert recorder.sizes == [1]

    def test_wait_trigger_disabled_by_zero(self):
        recorder = _Recorder()
        batcher = _batcher(recorder, max_batch=64, max_wait_steps=0)
        reply = batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.tick(1_000)
        assert not reply.done
        batcher.close()  # flush-on-close drains it
        assert reply.done

    def test_mutation_is_a_fifo_barrier(self):
        events = []

        def dispatch(coords):
            events.append(("batch", len(coords)))
            return coords.sum(axis=1)

        def apply_mutation(kind, rect):
            events.append(("mutation", kind))
            return {"applied": True}

        batcher = MicroBatcher(
            dispatch, apply_mutation, max_batch=64,
            max_wait_steps=0, clock=StepClock(),
        )
        q1 = batcher.submit(0.0, 0.0, 1.0, 1.0)
        q2 = batcher.submit(0.0, 0.0, 2.0, 2.0)
        mut = batcher.submit_mutation(
            "insert", Rect(0.0, 0.0, 1.0, 1.0)
        )
        # the barrier forced the pre-mutation queries out first, then
        # applied the mutation — regardless of size/wait triggers
        assert events == [("batch", 2), ("mutation", "insert")]
        assert q1.done and q2.done and mut.done
        q3 = batcher.submit(0.0, 0.0, 3.0, 3.0)
        assert not q3.done  # post-barrier query waits for its trigger
        batcher.flush()
        assert events == [
            ("batch", 2), ("mutation", "insert"), ("batch", 1),
        ]
        assert q3.result() == 6.0


class TestMicroBatcherReplies:
    def test_dispatch_failure_errors_every_reply_exactly_once(self):
        boom = RuntimeError("kernel exploded")
        recorder = _Recorder(fail=boom)
        batcher = _batcher(recorder, max_batch=3, max_wait_steps=0)
        replies = [
            batcher.submit(0.0, 0.0, 1.0, 1.0) for _ in range(3)
        ]
        assert batcher.dispatch_failures == 1
        for reply in replies:
            assert reply.error() is boom
            with pytest.raises(RuntimeError):
                reply.result()
            # exactly once: a second resolution is a programming error
            with pytest.raises(ValidationError):
                reply.set_result(1.0)
            with pytest.raises(ValidationError):
                reply.set_error(RuntimeError("again"))

    def test_shape_mismatch_is_a_dispatch_failure(self):
        batcher = MicroBatcher(
            lambda coords: np.zeros(len(coords) + 1),
            max_batch=2, max_wait_steps=0, clock=StepClock(),
        )
        replies = [
            batcher.submit(0.0, 0.0, 1.0, 1.0) for _ in range(2)
        ]
        assert batcher.dispatch_failures == 1
        for reply in replies:
            assert isinstance(reply.error(), ValidationError)

    def test_unresolved_reply_raises_on_result(self):
        reply = PendingReply()
        assert not reply.done
        with pytest.raises(ValidationError):
            reply.result()

    def test_done_callback_runs_immediately_when_resolved(self):
        reply = PendingReply()
        seen = []
        reply.add_done_callback(lambda r: seen.append(("a", r.done)))
        assert seen == []
        reply.set_result(7.0)
        assert seen == [("a", True)]
        reply.add_done_callback(lambda r: seen.append(("b", r.done)))
        assert seen == [("a", True), ("b", True)]

    def test_mutation_failure_sets_error_and_counts(self):
        def apply_mutation(kind, rect):
            raise RuntimeError("shard down")

        batcher = MicroBatcher(
            _Recorder(), apply_mutation, max_batch=8,
            max_wait_steps=0, clock=StepClock(),
        )
        reply = batcher.submit_mutation(
            "insert", Rect(0.0, 0.0, 1.0, 1.0)
        )
        assert isinstance(reply.error(), RuntimeError)
        assert batcher.dispatch_failures == 1

    def test_unknown_mutation_kind_rejected_before_queueing(self):
        batcher = _batcher(_Recorder())
        with pytest.raises(ValidationError):
            batcher.submit_mutation("upsert", Rect(0, 0, 1, 1))
        assert batcher.pending == 0


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_retryable_error(self):
        recorder = _Recorder()
        batcher = _batcher(
            recorder, max_batch=100, max_wait_steps=0, max_pending=2
        )
        batcher.submit(0.0, 0.0, 1.0, 1.0)
        batcher.submit(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(OverloadedError) as exc_info:
            batcher.submit(0.0, 0.0, 1.0, 1.0)
        assert exc_info.value.retryable
        assert batcher.shed == 1
        assert batcher.stats()["shed"] == 1.0
        # draining reopens admission
        batcher.flush()
        assert batcher.submit(0.0, 0.0, 1.0, 1.0) is not None

    def test_breaker_opens_after_failures_and_recovers(self):
        boom = RuntimeError("backend dead")
        recorder = _Recorder(fail=boom)
        batcher = _batcher(
            recorder, max_batch=1, max_wait_steps=0,
            failure_threshold=2, reset_after_steps=3,
        )
        # max_batch=1: every submit dispatches (and fails) inline
        assert batcher.submit(0.0, 0.0, 1.0, 1.0).error() is boom
        assert batcher.submit(0.0, 0.0, 1.0, 1.0).error() is boom
        with pytest.raises(OverloadedError):
            batcher.submit(0.0, 0.0, 1.0, 1.0)
        assert batcher.shed == 1
        # past the cooldown the breaker admits a trial; the healthy
        # backend closes the loop
        recorder.fail = None
        batcher.tick(4)
        reply = batcher.submit(0.0, 0.0, 1.0, 2.0)
        assert reply.result() == 3.0


def _live_engine():
    """A maintained histogram and the live estimator serving it."""
    hist = MaintainedHistogram(
        MinSkewPartitioner(8, n_regions=100), DATA,
        drift_threshold=0.9,
    )
    return hist, MaintainedEstimator(hist)


class TestInterleavingDifferential:
    """The tentpole property: any interleaving == sequential reference.

    One batcher over a live estimator, a second one driven
    sequentially in the identical submission order.  Hypothesis draws
    the workload seed *and* the trigger landscape — tiny max_batch
    (size-fired), tick cadence (clock-fired), and the final ``close``
    (flush trigger) — so every trigger path carries real traffic.
    """

    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(1, 40),
        max_batch=st.integers(1, 8),
        wait_steps=st.integers(0, 3),
        tick_every=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_interleaving_equals_sequential_reference(
        self, seed, n_ops, max_batch, wait_steps, tick_every
    ):
        hist_a, engine_a = _live_engine()
        hist_b, engine_b = _live_engine()

        def apply_mutation(kind, rect):
            return (
                hist_a.insert(rect) if kind == "insert"
                else hist_a.delete(rect)
            )

        batcher = MicroBatcher(
            lambda coords: engine_a.estimate_batch(
                RectSet(coords, copy=False, validate=False)
            ),
            apply_mutation,
            max_batch=max_batch,
            max_wait_steps=wait_steps,
            clock=StepClock(),
        )
        replies, expected = [], []
        for i, op in enumerate(
            live_workload(DATA, 0.1, n_ops, seed=seed)
        ):
            if op.kind == "query":
                rect = op.rect
                replies.append(batcher.submit(
                    rect.x1, rect.y1, rect.x2, rect.y2
                ))
                # the barrier contract: a query answers at the state
                # of its submission point, so the reference serves it
                # before any later mutation applies
                expected.append(engine_b.estimate(rect))
            elif op.kind == "insert":
                batcher.submit_mutation("insert", op.rect)
                hist_b.insert(op.rect)
            else:
                batcher.submit_mutation("delete", op.rect)
                hist_b.delete(op.rect)
            if tick_every and i % tick_every == 0:
                batcher.tick()
        batcher.close()
        got = [reply.result() for reply in replies]
        assert got == expected  # bit-for-bit float equality


class TestFrontDoorWire:
    """End-to-end over TCP: the wire changes nothing."""

    def _door(self, **kwargs):
        hist, engine = _live_engine()

        def mutate(kind, rect):
            return (
                hist.insert(rect) if kind == "insert"
                else hist.delete(rect)
            )

        front = FrontDoorThread(
            engine, mutate=mutate, **kwargs
        ).start()
        return hist, front

    def test_pipelined_client_equals_direct_engine(self):
        hist, front = self._door(max_batch=8, max_wait_steps=2)
        try:
            queries = range_queries(DATA, 0.1, 40, seed=7)
            _, reference_engine = _live_engine()
            expected = reference_engine.estimate_batch(queries)
            responses = front.estimate_many(
                queries.coords, concurrency=4
            )
            assert all(r.get("ok", False) for r in responses)
            values = np.array(
                [r["value"] for r in responses], dtype=np.float64
            )
            np.testing.assert_array_equal(values, expected)
            stats = front.stats()
            assert stats["submitted"] == 40.0
            assert stats["batches"] >= 1.0
        finally:
            front.stop()

    def test_wire_mutations_change_answers_identically(self):
        hist, front = self._door(max_batch=4, max_wait_steps=1)
        try:
            hist_ref, engine_ref = _live_engine()
            query = range_queries(DATA, 0.15, 1, seed=9)[0]
            before = front.estimate(
                query.x1, query.y1, query.x2, query.y2
            )
            assert before == engine_ref.estimate(query)
            # inserting the query rectangle itself guarantees overlap,
            # so the answer must move
            rect = query
            for _ in range(5):
                front.mutate(
                    "insert", (rect.x1, rect.y1, rect.x2, rect.y2)
                )
                hist_ref.insert(rect)
            after = front.estimate(
                query.x1, query.y1, query.x2, query.y2
            )
            assert after == engine_ref.estimate(query)
            assert after != before
        finally:
            front.stop()

    def test_invalid_rect_gets_typed_error_response(self):
        _, front = self._door()
        try:
            response = front.call(
                "estimate", rect=(5.0, 5.0, 1.0, 1.0)
            )
            assert response["ok"] is False
            assert "error" in response and "message" in response
            # the connection survives the bad request
            good = front.call("estimate", rect=(0.0, 0.0, 1.0, 1.0))
            assert good["ok"] is True
        finally:
            front.stop()

    def test_unknown_op_gets_typed_error_response(self):
        _, front = self._door()
        try:
            response = front.call("bogus")
            assert response["ok"] is False
            assert front.call("ping")["ok"] is True
        finally:
            front.stop()

    def test_read_only_door_rejects_mutations(self):
        hist, _ = _live_engine()
        front = FrontDoorThread(
            BucketEstimator(list(hist.buckets), name="ro")
        ).start()
        try:
            with pytest.raises(ReproError):
                front.mutate("insert", (0.0, 0.0, 1.0, 1.0))
        finally:
            front.stop()


class TestAllEngineKindsAgree:
    """The consolidation payoff: one suite, four serving stacks."""

    def test_batch_answers_equal_union_reference(
        self, served_engine, serving_queries
    ):
        np.testing.assert_array_equal(
            served_engine.estimate_batch(serving_queries),
            served_engine.reference(serving_queries),
        )

    def test_answers_track_mutations(
        self, served_engine, serving_dataset, serving_queries
    ):
        before = served_engine.estimate_batch(serving_queries)
        for op in live_workload(serving_dataset, 0.1, 12, seed=91):
            if op.kind == "insert":
                served_engine.insert(op.rect)
            elif op.kind == "delete":
                served_engine.delete(op.rect)
        after = served_engine.estimate_batch(serving_queries)
        np.testing.assert_array_equal(
            after, served_engine.reference(serving_queries)
        )
        assert not np.array_equal(after, before)


class TestServerBenchSmoke:
    """The bench's ``engine="server"`` cell end-to-end, small scale."""

    def test_server_cell_matches_and_validates(self):
        from repro.obs.bench import SERVER_CONFIG, run_bench
        from repro.obs.schema import validate_bench

        config = SERVER_CONFIG.replace(
            datasets=(("charminar", 800),),
            n_buckets=12,
            n_regions=1_000,
            n_queries=600,
            concurrency=2,
            server_max_batch=16,
            server_window=16,
        )
        doc = run_bench(config)
        validate_bench(doc)
        cell = doc["datasets"][0]["techniques"][0]
        server = cell["server"]
        assert server["server_matches"] is True
        assert server["requests"] == 600
        assert server["batches"] >= 1
        assert server["p99_ms"] >= server["p50_ms"] >= 0.0
        assert server["single_qps"] > 0.0 and server["batched_qps"] > 0.0
        # the cell's metrics cover the build and the batched run only:
        # neither the direct-router reference nor the max_batch=1
        # baseline is counted in them
        counters = cell["metrics"]["counters"]
        assert counters["serving.shard.queries"] == server["requests"]


def _json_frame(obj):
    """The reference framing: length prefix + ``json.dumps`` body."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


_IDS = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.floats(),
)
_VALUES = st.one_of(
    st.floats(),  # every float: subnormals, -0.0, +-inf and NaN
    st.sampled_from([-0.0, 5e-324, 1e16, float("inf"), float("-inf"),
                     float("nan")]),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
)


class TestEncodeFrame:
    """Every frame the door sends is ``json.dumps`` framing, byte for
    byte — the answer template included."""

    @given(rid=_IDS, value=_VALUES)
    @example(rid=2 ** 64, value=-0.0)
    @example(rid=-1, value=5e-324)
    @example(rid=0, value=1e16)
    @settings(max_examples=300, deadline=None)
    def test_answer_shape_matches_json_dumps(self, rid, value):
        obj = {"id": rid, "ok": True, "value": value}
        assert encode_frame(obj) == _json_frame(obj)

    @given(
        rid=_IDS,
        ok=st.one_of(st.booleans(), st.integers(0, 1), st.none()),
        value=_VALUES,
        extra=st.dictionaries(
            st.sampled_from(["degraded", "error", "hint"]),
            st.one_of(st.lists(st.integers(0, 7), max_size=3),
                      st.text(max_size=8)),
            max_size=2,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_other_shapes_and_key_orders_match_json_dumps(
        self, rid, ok, value, extra, data
    ):
        items = [("id", rid), ("ok", ok), ("value", value)]
        items += sorted(extra.items())
        obj = dict(data.draw(st.permutations(items)))
        assert encode_frame(obj) == _json_frame(obj)

    def test_frame_bound_error_is_unchanged(self):
        envelope = len(_json_frame({"id": 1, "ok": True, "value": ""}))
        fits = "x" * (MAX_FRAME_BYTES - (envelope - 4))
        frame = encode_frame({"id": 1, "ok": True, "value": fits})
        assert frame == _json_frame({"id": 1, "ok": True, "value": fits})
        assert len(frame) == 4 + MAX_FRAME_BYTES
        with pytest.raises(ValidationError) as exc_info:
            encode_frame({"id": 1, "ok": True, "value": fits + "x"})
        assert str(exc_info.value) == (
            f"frame of {MAX_FRAME_BYTES + 1} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _decode_frames(data):
    """Every frame of a byte string that holds whole frames."""
    frames = []
    while data:
        length = int.from_bytes(data[:4], "big")
        frames.append(json.loads(data[4:4 + length]))
        data = data[4 + length:]
    return frames


class _Wire:
    """A blocking raw-socket client: the test controls every byte."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=10.0)
        self.name = self.sock.getsockname()
        self._buffer = b""

    def send(self, *msgs):
        self.sock.sendall(b"".join(_json_frame(m) for m in msgs))

    def recv(self, n):
        """The next ``n`` reply frames, in arrival order."""
        frames = []
        while len(frames) < n:
            if len(self._buffer) >= 4:
                length = int.from_bytes(self._buffer[:4], "big")
                if len(self._buffer) >= 4 + length:
                    frames.append(
                        json.loads(self._buffer[4:4 + length])
                    )
                    self._buffer = self._buffer[4 + length:]
                    continue
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        return frames

    def at_eof(self):
        return not self._buffer and self.sock.recv(1 << 16) == b""

    def close(self):
        self.sock.close()


def _query(client, seq):
    """Query ``seq`` of ``client``; the stub answers 2*client + 2*seq
    + 2, and a batch row's (x1, y1) names its sender."""
    return {"id": seq, "op": "estimate",
            "rect": [float(client), float(seq), client + 1.0, seq + 1.0]}


class _RowSums:
    """Backend stub: answers row sums and logs each batch it serves."""

    def __init__(self, log):
        self.log = log

    def estimate_batch(self, rects):
        coords = np.array(rects.coords, dtype=np.float64)
        self.log.append(("batch", coords))
        return coords.sum(axis=1)


@pytest.fixture
def egress(monkeypatch):
    """A door over :class:`_RowSums` whose transport writes land in the
    same event log as its batches: ``(log, door, written)``.

    ``written()`` maps each client socket name to the reply frames the
    server has handed to its transport so far, in order.
    """
    log = []
    doors = []
    original = asyncio.StreamWriter.write

    def write(self, data):
        log.append(("write", self.get_extra_info("sockname"),
                    self.get_extra_info("peername"), bytes(data)))
        return original(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)

    def start(**kwargs):
        front = FrontDoorThread(_RowSums(log), **kwargs).start()
        doors.append(front)

        def written():
            out = {}
            for entry in list(log):
                if entry[0] == "write" and entry[1][1] == front.port:
                    out.setdefault(entry[2], []).extend(
                        _decode_frames(entry[3])
                    )
            return out

        return log, front, written

    yield start
    for front in doors:
        front.stop()


class TestFrontDoorEgress:
    """The reply path: one write per connection per batch, in order,
    flushed before anything that could hold an answer back."""

    def test_each_batch_is_one_write_per_connection(self, egress):
        # 64 pipelined queries fill two batches: most chunks fire a
        # batch mid-chunk, so the flush before dispatch is exercised
        log, front, _ = egress(max_batch=32)
        clients = [_Wire(front.port), _Wire(front.port)]
        try:
            for c, wire in enumerate(clients):
                wire.send(*[_query(c, s) for s in range(64)])
            for c, wire in enumerate(clients):
                replies = wire.recv(64)
                # submission order, every answer right
                assert [r["id"] for r in replies] == list(range(64))
                assert [r["value"] for r in replies] == [
                    2.0 * c + 2.0 * s + 2.0 for s in range(64)
                ]
        finally:
            for wire in clients:
                wire.close()
            front.stop()  # join the loop: the log and counters are final
        owner = {wire.name: c for c, wire in enumerate(clients)}
        expected = {}
        batches = 0
        for entry in list(log):
            if entry[0] == "batch":
                # the previous batch went out in full before this one
                assert expected == {}
                batches += 1
                for x1, y1, _x2, _y2 in entry[1]:
                    expected.setdefault(int(x1), []).append(int(y1))
            elif entry[1][1] == front.port:
                c = owner[entry[2]]
                # one write carries all of this batch's replies to c
                assert [r["id"] for r in _decode_frames(entry[3])] \
                    == expected.pop(c)
        assert expected == {}
        assert 4 <= batches <= 128
        assert front.door.replies == 128
        assert front.door.writes <= front.door.replies

    def test_barrier_answers_are_written_before_the_mutation(
        self, egress
    ):
        seen = {}

        def mutate(kind, rect):
            seen["written"] = written()
            return {"applied": kind}

        log, front, written = egress(
            mutate=mutate, max_batch=1000, max_wait_steps=0
        )
        wires = [_Wire(front.port), _Wire(front.port)]
        try:
            for c, wire in enumerate(wires):
                wire.send(*[_query(c, s) for s in range(10)])
            _wait_until(lambda: front.door.batcher.pending == 20)
            wires[0].send({"id": 10, "op": "insert",
                           "rect": [0.0, 0.0, 1.0, 1.0]})
            replies = wires[0].recv(11)
            assert [r["id"] for r in replies] == list(range(11))
            assert replies[-1]["value"] == {"applied": "insert"}
            assert [r["id"] for r in wires[1].recv(10)] == \
                list(range(10))
        finally:
            for wire in wires:
                wire.close()
        # inside the mutate callable, both connections' barrier
        # answers had already been handed to their transports
        assert {
            name: [r["id"] for r in frames]
            for name, frames in seen["written"].items()
        } == {wire.name: list(range(10)) for wire in wires}
        assert [e[0] for e in log].count("batch") == 1

    def test_disconnect_mid_batch_loses_only_its_own_replies(
        self, egress
    ):
        log, front, written = egress(max_batch=20, max_wait_steps=0)
        gone, stays = _Wire(front.port), _Wire(front.port)
        try:
            _wait_until(lambda: front.door.connections == 2)
            gone.send(*[_query(0, s) for s in range(10)])
            _wait_until(lambda: front.door.batcher.pending == 10)
            gone.close()
            _wait_until(lambda: front.door.connections == 1)
            # the size trigger fires the batch holding both clients'
            # queries once the survivor's arrive
            stays.send(*[_query(1, s) for s in range(10)])
            replies = stays.recv(10)
        finally:
            stays.close()
            front.stop()
        assert [r["value"] for r in replies] == [
            2.0 * 1 + 2.0 * s + 2.0 for s in range(10)
        ]
        batches = [e[1] for e in log if e[0] == "batch"]
        assert [len(b) for b in batches] == [20]
        assert gone.name not in written()
        assert front.door.replies == 10

    def test_framing_error_reply_arrives_before_close(self, egress):
        _, front, _ = egress()
        wire = _Wire(front.port)
        try:
            wire.send({"id": "p", "op": "ping"})
            # a header announcing a frame past the bound
            wire.sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            pong, error = wire.recv(2)
            assert pong == {"id": "p", "ok": True, "value": "pong"}
            assert error["ok"] is False
            assert error["error"] == "ValidationError"
            assert wire.at_eof()
        finally:
            wire.close()

    def test_aclose_flushes_what_its_final_flush_resolves(self, egress):
        _, front, _ = egress(max_batch=1000, max_wait_steps=0)
        wire = _Wire(front.port)
        try:
            wire.send(*[_query(0, s) for s in range(5)])
            _wait_until(lambda: front.door.batcher.pending == 5)
            front.stop()  # aclose(): the flush-on-close trigger
            replies = wire.recv(5)
            assert [r["value"] for r in replies] == [
                2.0 * s + 2.0 for s in range(5)
            ]
            assert wire.at_eof()
        finally:
            wire.close()

    def test_stats_count_replies_and_writes(self, capture_counters):
        front = FrontDoorThread(
            _RowSums([]), max_batch=4, max_wait_steps=1
        ).start()

        def interleaving():
            coords = range_queries(DATA, 0.1, 20, seed=17).coords
            answered = front.estimate_many(coords, concurrency=2)
            answered.append(front.call("ping"))
            answered.append(front.call("bogus"))
            answered.append(
                front.call("estimate", rect=(5.0, 5.0, 1.0, 1.0))
            )
            stats = front.stats()
            front.stop()  # inside the scope: every count has landed
            return answered, stats

        try:
            (answered, stats), counters = capture_counters(interleaving)
        finally:
            front.stop()
        assert len(answered) == 23
        assert [r["ok"] for r in answered[-3:]] == [True, False, False]
        # every answered request was one reply; the stats reply itself
        # is counted once it has been written
        assert stats["replies"] == 23.0
        assert 1.0 <= stats["writes"] <= stats["replies"]
        assert front.door.replies == 24
        assert counters["serving.frontdoor.replies"] == 24
        assert counters["serving.frontdoor.writes"] == front.door.writes
