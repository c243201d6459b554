"""The asyncio TCP front door: frames in, micro-batched answers out.

This is the ingress layer of the serving tier — the piece that turns
"a process that can answer query batches" into "a server that answers
*clients*".  Protocol: length-prefixed JSON frames (a 4-byte unsigned
big-endian length, then a UTF-8 JSON body) over TCP.  Requests are
objects with an ``id`` (echoed verbatim so clients can pipeline), an
``op`` (``estimate`` / ``insert`` / ``delete`` / ``ping`` /
``stats``), and for the first three a ``rect`` of four numbers.
Responses carry ``{"id", "ok": true, "value": ...}`` or a typed error
``{"id", "ok": false, "error": <class name>, "message", "retryable",
"hint"}``; an estimate answered while shards were served degraded is
annotated with the shard ids (``"degraded": [...]``).

Every connection feeds one shared :class:`~repro.serving.batcher
.MicroBatcher`, so concurrent clients coalesce into the same
micro-batches and one ``estimate_batch`` call serves them all — the
answers are bit-identical to calling the backend directly because the
vectorised kernels evaluate batch rows independently.  The batcher's
logical clock advances once per idle pass of the event loop: a burst
of pipelined frames lands in the same batch (the size trigger), a
partial batch fires after ``max_wait_steps`` idle passes (the logical
wait trigger), and :meth:`FrontDoor.aclose` flushes whatever remains
(the close trigger).  Mutations ride the same queue as barriers, so
the submission order of one connection — and the arrival order across
connections — is exactly the order the tier observes.

Per-query validation runs *before* admission: a NaN or inverted
rectangle fails its own request with a typed
:class:`~repro.errors.GeometryError` and never poisons a batch.
Admission failures surface as :class:`~repro.errors.OverloadedError`
responses (``retryable: true``) — the front door sheds instead of
queueing unboundedly.

Replies leave one batch at a time.  Each encoded reply goes into its
connection's outbox, and a flush hands every non-empty outbox to its
transport as a single write: at the end of each read chunk, at the end
of each tick, before each dispatch, before each mutation is applied
(so answers a barrier resolved never wait behind a slow delete), and
before the door or a connection closes.  ``replies`` and ``writes``
count the frames and the transport writes that carried them.

Three client-side helpers live here too: :class:`FrontDoorClient`
(asyncio, id-multiplexed, pipelining), :class:`FrontDoorThread` (runs
a server plus client pool on a background event loop, for synchronous
callers — the chaos harness and thread-based tests), and the framing
functions used by both ends.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from .. import errors as _errors
from ..errors import EstimationError, ReproError, ValidationError
from ..estimators import SelectivityEstimator
from ..geometry import Rect, RectSet, validate_extent
from ..obs import OBS
from ..resilience import StepClock
from .batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_MAX_WAIT_STEPS,
    MicroBatcher,
    PendingReply,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "FrontDoor",
    "FrontDoorClient",
    "FrontDoorThread",
]

#: Frames above this are refused outright — a single query is tens of
#: bytes, so anything near this bound is a framing error, not a query.
MAX_FRAME_BYTES = 1 << 20

_LEN_BYTES = 4
_READ_CHUNK = 1 << 16

#: ``json.dumps`` with non-default separators builds a new encoder on
#: every call; one shared encoder gives the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_ANSWER_KEYS = ("id", "ok", "value")


def encode_frame(obj: Any) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON body.

    The body is byte-identical to ``json.dumps(obj, separators=(",",
    ":"))``.  The dominant shape, an answer ``{"id": <int>, "ok":
    true, "value": <finite float>}``, is written from a byte template
    (``%d`` and ``%r`` are the reprs ``json`` itself uses for an int
    and a finite float); everything else goes through the shared
    encoder.
    """
    if type(obj) is dict and tuple(obj) == _ANSWER_KEYS:
        rid, ok, value = obj.values()
        if (ok is True and type(rid) is int and type(value) is float
                and value - value == 0.0):  # finite: NaN and inf fail
            return _framed(
                b'{"id":%d,"ok":true,"value":%r}' % (rid, value)
            )
    return _framed(_ENCODER.encode(obj).encode("utf-8"))


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ValidationError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return len(body).to_bytes(_LEN_BYTES, "big") + body


def _pop_frame(buffer: bytearray) -> Optional[bytes]:
    """Extract one complete frame body from ``buffer``, or None."""
    if len(buffer) < _LEN_BYTES:
        return None
    length = int.from_bytes(buffer[:_LEN_BYTES], "big")
    if length > MAX_FRAME_BYTES:
        raise ValidationError(
            f"peer announced a {length}-byte frame (bound: "
            f"{MAX_FRAME_BYTES})"
        )
    if len(buffer) < _LEN_BYTES + length:
        return None
    body = bytes(buffer[_LEN_BYTES:_LEN_BYTES + length])
    del buffer[:_LEN_BYTES + length]
    return body


def _error_response(rid: Any, exc: BaseException) -> Dict[str, Any]:
    return {
        "id": rid,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
        "hint": str(getattr(exc, "hint", "")),
    }


def response_error(response: Dict[str, Any]) -> ReproError:
    """Reconstruct a typed error from an ``ok: false`` response.

    Unknown class names fall back to
    :class:`~repro.errors.EstimationError` so a newer server never
    breaks an older client.
    """
    kind = response.get("error", "EstimationError")
    cls = getattr(_errors, str(kind), EstimationError)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = EstimationError
    message = str(response.get("message", "front door error"))
    hint = str(response.get("hint", "")) or None
    return cls(message, hint=hint)


def _jsonable(value: Any) -> Any:
    """Coerce a mutation result into something JSON can carry."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return repr(value)


def _default_mutate(
    backend: Any,
) -> Optional[Callable[[str, Rect], Any]]:
    """Route mutations to the backend's own insert/delete when it has
    them (a :class:`ShardRouter` does); read-only otherwise."""
    if hasattr(backend, "insert") and hasattr(backend, "delete"):
        def mutate(kind: str, rect: Rect) -> Any:
            if kind == "insert":
                return backend.insert(rect)
            return backend.delete(rect)

        return mutate
    return None


class FrontDoor:
    """The asyncio TCP server around one shared :class:`MicroBatcher`.

    Parameters
    ----------
    engine:
        The batch backend — a :class:`~repro.serving.ShardRouter`, a
        bare :class:`~repro.estimators.SelectivityEstimator` (a
        :class:`~repro.estimators.MaintainedEstimator` re-syncs itself
        per batch), or anything else with the
        ``estimate_batch(RectSet)`` contract.
    mutate:
        ``(kind, rect) -> result`` applying one mutation.  Defaults to
        the backend's own ``insert``/``delete`` when present, else the
        door is read-only and mutation requests get a typed error.
    host / port:
        Bind address; port ``0`` picks a free port (read
        :attr:`port` after :meth:`start`).
    max_batch / max_wait_steps / max_pending:
        The batcher's dual trigger and admission bound.
    failure_threshold / reset_after_steps:
        Ingress circuit-breaker knobs.
    """

    def __init__(
        self,
        engine: SelectivityEstimator,
        *,
        mutate: Optional[Callable[[str, Rect], Any]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_steps: int = DEFAULT_MAX_WAIT_STEPS,
        max_pending: int = DEFAULT_MAX_PENDING,
        clock: Optional[StepClock] = None,
        failure_threshold: int = 5,
        reset_after_steps: int = 50,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else StepClock()
        if mutate is None:
            mutate = _default_mutate(engine)
        apply_mutation: Optional[Callable[[str, Rect], Any]] = None
        if mutate is not None:
            inner = mutate

            def flushed_mutate(kind: str, rect: Rect) -> Any:
                # answers the barrier just resolved go out before a
                # delete scan can hold them back
                self._flush()
                return inner(kind, rect)

            apply_mutation = flushed_mutate
        self.batcher = MicroBatcher(
            self._dispatch,
            apply_mutation,
            max_batch=max_batch,
            max_wait_steps=max_wait_steps,
            max_pending=max_pending,
            clock=self.clock,
            failure_threshold=failure_threshold,
            reset_after_steps=reset_after_steps,
        )
        self._server: Optional["asyncio.AbstractServer"] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._tick_scheduled = False
        self._last_degraded: Tuple[int, ...] = ()
        #: encoded replies not yet handed to their connection's transport
        self._outbox: Dict["asyncio.StreamWriter", List[bytes]] = {}
        self.connections = 0
        self.replies = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # dispatch: the one place a batch meets the backend
    # ------------------------------------------------------------------
    def _dispatch(
        self, coords: "npt.NDArray[np.float64]"
    ) -> "npt.NDArray[np.float64]":
        # the previous batch's answers leave before this one computes
        self._flush()
        # rows were validated individually at admission, so a bad row
        # fails alone and the RectSet skips its constructor check; the
        # backend's estimate_batch still validates the block for its
        # library callers.  Bit-identity with a direct backend call
        # holds because the kernels evaluate rows independently
        rects = RectSet(coords, copy=False, validate=False)
        values = np.asarray(
            self.engine.estimate_batch(rects), dtype=np.float64
        )
        degraded = getattr(self.engine, "degraded_shards", ())
        self._last_degraded = tuple(int(s) for s in degraded)
        return values

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FrontDoor":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        if OBS.enabled:
            OBS.add("serving.frontdoor.started")
        return self

    async def aclose(self) -> None:
        """Stop accepting, flush the batcher (the close trigger).

        Open connections are cancelled and awaited so no handler
        task outlives the door — a stopped server leaves nothing for
        the event loop to destroy mid-read.
        """
        self.batcher.flush()
        self._flush()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        self._conn_tasks.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        if OBS.enabled:
            OBS.add("serving.frontdoor.connections")
        buffer = bytearray()
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                buffer.extend(chunk)
                while True:
                    try:
                        frame = _pop_frame(buffer)
                    except ValidationError as exc:
                        self._send(writer, _error_response(None, exc))
                        return
                    if frame is None:
                        break
                    self._process(frame, writer)
                self._schedule_tick()
                self._flush()
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            # client went away mid-conversation; its queued queries
            # still dispatch with their batch, and the flush drops
            # their replies
            pass
        except asyncio.CancelledError:
            # door shutdown cancels handlers mid-read; end the task
            # cleanly so the stream protocol's done-callback finds a
            # result, not a cancellation to re-raise
            pass
        finally:
            self.connections -= 1
            self._flush()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):
                # a server shutting down cancels its handler tasks
                # while they drain; that is a clean exit, not an error
                pass
            # tracked until here, so a door closing while this
            # connection drains cancels and awaits it too
            if task is not None:
                self._conn_tasks.discard(task)

    def _process(
        self, payload: bytes, writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            msg = json.loads(payload)
        except ValueError:
            self._send(writer, _error_response(
                None, ValidationError(
                    "frame body is not valid JSON",
                    hint="send length-prefixed JSON objects",
                )
            ))
            return
        if not isinstance(msg, dict):
            self._send(writer, _error_response(
                None, ValidationError("frame body must be an object")
            ))
            return
        rid = msg.get("id")
        op = msg.get("op")
        if op == "estimate":
            self._process_estimate(rid, msg, writer)
        elif op in ("insert", "delete"):
            self._process_mutation(rid, str(op), msg, writer)
        elif op == "ping":
            self._send(writer, {"id": rid, "ok": True, "value": "pong"})
        elif op == "stats":
            stats = dict(self.batcher.stats())
            stats["connections"] = float(self.connections)
            stats["replies"] = float(self.replies)
            stats["writes"] = float(self.writes)
            self._send(writer, {"id": rid, "ok": True, "value": stats})
        else:
            self._send(writer, _error_response(rid, ValidationError(
                f"unknown op {op!r}",
                hint="use estimate, insert, delete, ping, or stats",
            )))

    def _parse_rect(
        self, msg: Dict[str, Any]
    ) -> Tuple[float, float, float, float]:
        rect = msg.get("rect")
        if not isinstance(rect, (list, tuple)) or len(rect) != 4:
            raise ValidationError(
                "rect must be a list of four numbers [x1, y1, x2, y2]"
            )
        try:
            x1, y1, x2, y2 = (float(v) for v in rect)
        except (TypeError, ValueError):
            raise ValidationError(
                "rect coordinates must be numbers"
            ) from None
        # per-query validation at admission: a bad rectangle fails its
        # own request and never reaches the shared batch
        validate_extent(x1, y1, x2, y2, what="query")
        return x1, y1, x2, y2

    def _process_estimate(
        self, rid: Any, msg: Dict[str, Any],
        writer: "asyncio.StreamWriter",
    ) -> None:
        try:
            x1, y1, x2, y2 = self._parse_rect(msg)
            reply = self.batcher.submit(x1, y1, x2, y2)
        except ReproError as exc:
            self._send(writer, _error_response(rid, exc))
            return

        def on_done(done: PendingReply) -> None:
            error = done.error()
            if error is not None:
                self._send(writer, _error_response(rid, error))
                return
            response: Dict[str, Any] = {
                "id": rid, "ok": True, "value": done.result(),
            }
            if self._last_degraded:
                response["degraded"] = list(self._last_degraded)
            self._send(writer, response)

        reply.add_done_callback(on_done)

    def _process_mutation(
        self, rid: Any, kind: str, msg: Dict[str, Any],
        writer: "asyncio.StreamWriter",
    ) -> None:
        try:
            x1, y1, x2, y2 = self._parse_rect(msg)
            reply = self.batcher.submit_mutation(
                kind, Rect(x1, y1, x2, y2)
            )
        except ReproError as exc:
            self._send(writer, _error_response(rid, exc))
            return

        def on_done(done: PendingReply) -> None:
            error = done.error()
            if error is not None:
                self._send(writer, _error_response(rid, error))
                return
            self._send(writer, {
                "id": rid, "ok": True,
                "value": _jsonable(done.result()),
            })

        reply.add_done_callback(on_done)

    def _send(
        self, writer: "asyncio.StreamWriter", obj: Dict[str, Any]
    ) -> None:
        """Queue one reply in its connection's outbox."""
        frame = encode_frame(obj)
        frames = self._outbox.get(writer)
        if frames is None:
            self._outbox[writer] = [frame]
        else:
            frames.append(frame)

    def _flush(self) -> None:
        """Hand each connection's queued replies to its transport in
        one write."""
        if not self._outbox:
            return
        outbox, self._outbox = self._outbox, {}
        replies = writes = 0
        for writer, frames in outbox.items():
            if writer.is_closing():
                # disconnect mid-batch: its answers are simply dropped
                continue
            try:
                writer.write(b"".join(frames))
            except (ConnectionError, RuntimeError, OSError):
                continue
            replies += len(frames)
            writes += 1
        self.replies += replies
        self.writes += writes
        if OBS.enabled:
            OBS.add("serving.frontdoor.replies", replies)
            OBS.add("serving.frontdoor.writes", writes)

    # ------------------------------------------------------------------
    # logical time: one step per idle pass of the event loop
    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        """Arrange one batcher tick after the loop drains its ready
        callbacks.  Frames arriving in the same pass therefore land in
        the same batch; a partial batch fires once ``max_wait_steps``
        idle passes have elapsed with no size trigger."""
        if self._tick_scheduled or self.batcher.pending == 0:
            return
        self._tick_scheduled = True
        asyncio.get_running_loop().call_soon(self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        self.batcher.tick(1)
        self._flush()
        if self.batcher.pending:
            self._schedule_tick()

    def __repr__(self) -> str:
        return (
            f"FrontDoor({self.engine!r}, {self.host}:{self.port}, "
            f"max_batch={self.batcher.max_batch})"
        )


class FrontDoorClient:
    """Pipelining asyncio client: requests multiplexed by ``id``."""

    def __init__(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int
    ) -> "FrontDoorClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        buffer = bytearray()
        try:
            while True:
                chunk = await self._reader.read(_READ_CHUNK)
                if not chunk:
                    break
                buffer.extend(chunk)
                while True:
                    frame = _pop_frame(buffer)
                    if frame is None:
                        break
                    msg = json.loads(frame)
                    rid = msg.get("id")
                    future = self._pending.pop(rid, None)
                    if future is not None and not future.done():
                        future.set_result(msg)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            pending = list(self._pending.values())
            self._pending.clear()
            for future in pending:
                if not future.done():
                    future.set_exception(ConnectionError(
                        "front door connection closed"
                    ))

    async def call(
        self,
        op: str,
        *,
        rect: Optional[Sequence[float]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request/response round trip; returns the raw response.

        Concurrent calls pipeline on the same connection.  ``timeout``
        bounds the wall-clock wait (the client-side hang guard the
        chaos suite relies on).
        """
        rid = self._next_id
        self._next_id += 1
        msg: Dict[str, Any] = {"id": rid, "op": op}
        if rect is not None:
            msg["rect"] = [float(v) for v in rect]
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._pending[rid] = future
        self._writer.write(encode_frame(msg))
        await self._writer.drain()
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(rid, None)

    async def estimate(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        timeout: Optional[float] = None,
    ) -> float:
        """One query; raises the reconstructed typed error on
        ``ok: false``."""
        response = await self.call(
            "estimate", rect=(x1, y1, x2, y2), timeout=timeout
        )
        if not response.get("ok", False):
            raise response_error(response)
        return float(response["value"])

    async def mutate(
        self,
        kind: str,
        rect: Sequence[float],
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        response = await self.call(kind, rect=rect, timeout=timeout)
        if not response.get("ok", False):
            raise response_error(response)
        return response

    async def aclose(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class FrontDoorThread:
    """A front door on a background event loop, driven synchronously.

    The server's backend lives entirely on the loop thread once
    :meth:`start` returns — callers interact only through blocking
    wrappers that post work onto the loop, so mutation ordering and
    batch dispatch stay single-threaded.  Used by the chaos harness
    (`chaos --through-server`) and by tests that need a real server
    without an async test framework.
    """

    def __init__(
        self,
        engine: SelectivityEstimator,
        *,
        mutate: Optional[Callable[[str, Rect], Any]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_steps: int = DEFAULT_MAX_WAIT_STEPS,
        max_pending: int = DEFAULT_MAX_PENDING,
        failure_threshold: int = 5,
        reset_after_steps: int = 50,
    ) -> None:
        self.door = FrontDoor(
            engine,
            mutate=mutate,
            host=host,
            port=port,
            max_batch=max_batch,
            max_wait_steps=max_wait_steps,
            max_pending=max_pending,
            failure_threshold=failure_threshold,
            reset_after_steps=reset_after_steps,
        )
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._client: Optional[FrontDoorClient] = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.door.host

    @property
    def port(self) -> int:
        return self.door.port

    def start(self) -> "FrontDoorThread":
        self._thread = threading.Thread(
            target=self._run, name="front-door", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise EstimationError("front door failed to start in time")
        if self._start_error is not None:
            raise EstimationError(
                f"front door failed to start: {self._start_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.door.start())
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.door.aclose())
        finally:
            loop.close()

    def _submit(
        self, coro: Any, timeout: Optional[float]
    ) -> Any:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def _shared_client(self) -> FrontDoorClient:
        if self._client is None:
            self._client = self._submit(
                FrontDoorClient.connect(self.host, self.port), 10.0
            )
        return self._client

    # ------------------------------------------------------------------
    # blocking wrappers
    # ------------------------------------------------------------------
    def call(
        self,
        op: str,
        rect: Optional[Sequence[float]] = None,
        *,
        timeout: float = 30.0,
    ) -> Dict[str, Any]:
        client = self._shared_client()
        return dict(self._submit(
            client.call(op, rect=rect, timeout=timeout),
            timeout + 5.0,
        ))

    def estimate(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        timeout: float = 30.0,
    ) -> float:
        client = self._shared_client()
        return float(self._submit(
            client.estimate(x1, y1, x2, y2, timeout=timeout),
            timeout + 5.0,
        ))

    def mutate(
        self,
        kind: str,
        rect: Sequence[float],
        *,
        timeout: float = 30.0,
    ) -> Dict[str, Any]:
        client = self._shared_client()
        return dict(self._submit(
            client.mutate(kind, rect, timeout=timeout),
            timeout + 5.0,
        ))

    def stats(self, *, timeout: float = 30.0) -> Dict[str, Any]:
        response = self.call("stats", timeout=timeout)
        value = response.get("value", {})
        return dict(value) if isinstance(value, dict) else {}

    def estimate_many(
        self,
        coords: "npt.NDArray[np.float64]",
        *,
        concurrency: int = 8,
        timeout: float = 30.0,
    ) -> List[Dict[str, Any]]:
        """Serve every row concurrently over ``concurrency``
        pipelined connections; one response dict per row, in row
        order.  A request that exceeds ``timeout`` yields a synthetic
        ``{"ok": false, "error": "TimeoutError"}`` response instead of
        hanging the caller — the "never a hang past the deadline"
        contract the chaos suite asserts.
        """
        return list(self._submit(
            self._many(np.asarray(coords, dtype=np.float64),
                       concurrency, timeout),
            timeout * 2 + 30.0,
        ))

    async def _many(
        self,
        coords: "npt.NDArray[np.float64]",
        concurrency: int,
        timeout: float,
    ) -> List[Dict[str, Any]]:
        n = int(coords.shape[0])
        responses: List[Dict[str, Any]] = [{} for _ in range(n)]
        if n == 0:
            return responses
        n_clients = max(1, min(concurrency, n))
        clients = [
            await FrontDoorClient.connect(self.host, self.port)
            for _ in range(n_clients)
        ]

        async def worker(
            client: FrontDoorClient, rows: "npt.NDArray[np.int64]"
        ) -> None:
            for i in rows:
                rect = [float(v) for v in coords[int(i)]]
                try:
                    responses[int(i)] = await client.call(
                        "estimate", rect=rect, timeout=timeout
                    )
                except asyncio.TimeoutError:
                    responses[int(i)] = {
                        "ok": False,
                        "error": "TimeoutError",
                        "message": f"no response within {timeout}s",
                        "retryable": True,
                        "hint": "",
                    }
                except (ConnectionError, OSError) as exc:
                    responses[int(i)] = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "retryable": True,
                        "hint": "",
                    }

        slices = np.array_split(
            np.arange(n, dtype=np.int64), n_clients
        )
        try:
            await asyncio.gather(*(
                worker(client, rows)
                for client, rows in zip(clients, slices)
            ))
        finally:
            for client in clients:
                await client.aclose()
        return responses

    def stop(self) -> None:
        """Close the client, flush the door, stop the loop thread."""
        if self._loop is None:
            return
        if self._client is not None:
            try:
                self._submit(self._client.aclose(), 10.0)
            except Exception:
                pass
            self._client = None
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "FrontDoorThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
