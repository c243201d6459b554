"""Load generator and server-process handling for the benchmark.

One process drives the server over at most two TCP connections with
``select``: a socket is registered for write readiness only while it
has output pending, so an idle generator sleeps in ``select`` instead
of busy-polling (a generator that stays write-registered burns a core
and inflates the server's CPU per request).  Every frame is encoded
before timing starts.  Processes are never pinned to cores.

Two kinds of traffic source share one event loop:

* :class:`OpenLoop` sends request ``k`` when it is due, at
  ``t0 + k / rate``, whatever the server is doing; its latency is
  timed from the due time, so a stall also counts against the
  requests queued behind it, and the generator's own lateness (send
  time minus due time) is recorded so a run in which the generator
  fell behind can be told apart from a slow server;
* :class:`ClosedLoop` keeps a fixed number of requests in flight on
  one connection and sends the next only when a reply arrives.

The wire protocol is the front door's: a 4-byte big-endian length,
then a JSON object.  Floats are written with ``repr`` precision, so
rectangles and answers cross the wire without rounding.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import struct
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

_LEN = struct.Struct(">I")
_READ_CHUNK = 1 << 16

#: Request states in :attr:`Requests.status`.
PENDING, OK, ERROR = 0, 1, 2


def encode(obj: object) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON body."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


#: The calibration's fixed work: frames like the benchmark's own, and
#: arrays as wide as a 50-bucket histogram.
_CAL_FRAMES = [
    encode({"id": i, "op": "estimate",
            "rect": [i * 0.37, 1.5, i * 0.37 + 2.25, 3.75]})
    for i in range(32)
]
_CAL_LO, _CAL_HI = np.linspace(0.0, 1.0, 2 * 50).reshape(2, 50)


def calibrate(rounds: int = 8) -> float:
    """CPU seconds of a fixed unit of interpreter and NumPy work that
    does not touch the program: how fast this machine's CPU runs right
    now.  CPU time leaves out what the hypervisor steals."""
    t0 = time.thread_time()
    for _ in range(rounds):
        seen: Dict[int, float] = {}
        for frame in _CAL_FRAMES:
            msg = json.loads(frame[4:])
            x1, y1, x2, y2 = msg["rect"]
            width = np.minimum(_CAL_HI, x2) - np.maximum(_CAL_LO, x1)
            seen[msg["id"]] = float(np.clip(width, 0.0, None).sum()) * (
                y2 - y1
            )
        encode({"id": len(seen), "ok": True, "value": sum(seen.values())})
    return time.thread_time() - t0


class Requests:
    """Every request of one run: pre-encoded frames plus outcomes.

    Request ``i`` carries frame id ``i``; times are
    ``time.perf_counter()`` seconds.
    """

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self.kinds: List[str] = []
        self.rects: List[Sequence[float]] = []

    def add(self, op: str, coords: np.ndarray) -> range:
        """Encode one request per row of ``coords``; their ids."""
        first = len(self.frames)
        for row in coords.tolist():
            self.frames.append(encode(
                {"id": len(self.frames), "op": op, "rect": row}
            ))
            self.kinds.append(op)
            self.rects.append(row)
        return range(first, len(self.frames))

    def add_ops(self, ops: Iterable[tuple]) -> range:
        """Encode ``(op, rect)`` pairs in order; their ids."""
        first = len(self.frames)
        for op, row in ops:
            self.frames.append(encode(
                {"id": len(self.frames), "op": op, "rect": list(row)}
            ))
            self.kinds.append(op)
            self.rects.append(list(row))
        return range(first, len(self.frames))

    def seal(self) -> None:
        """Allocate the outcome arrays once every frame is encoded."""
        n = len(self.frames)
        self.due = np.full(n, np.nan)
        self.sent = np.full(n, np.nan)
        self.recv = np.full(n, np.nan)
        self.value = np.full(n, np.nan)
        self.status = np.zeros(n, dtype=np.int8)
        self.errors: Dict[int, str] = {}
        self.results: Dict[int, object] = {}


class _Conn:
    __slots__ = ("sock", "out", "buf")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.buf = bytearray()

    def flush(self) -> None:
        if not self.out:
            return
        try:
            n = self.sock.send(self.out)
        except BlockingIOError:
            return
        del self.out[:n]

    def frames(self) -> List[bytes]:
        """Complete frame bodies now readable (raises on EOF)."""
        try:
            chunk = self.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf = self.buf
        buf += chunk
        bodies = []
        pos = 0
        end = len(buf)
        while end - pos >= 4:
            (size,) = _LEN.unpack_from(buf, pos)
            if end - pos - 4 < size:
                break
            bodies.append(bytes(buf[pos + 4:pos + 4 + size]))
            pos += 4 + size
        del buf[:pos]
        return bodies


class OpenLoop:
    """Send ``ids`` at ``rate`` per second, alternating ``conns``."""

    def __init__(
        self, conns: Sequence[int], ids: Sequence[int], rate: float
    ) -> None:
        self.conns = list(conns)
        self.ids = ids
        self.rate = rate
        self.k = 0
        self.t0 = 0.0
        self.stopped = False

    def start(self, driver: "Driver", t0: float) -> None:
        self.t0 = t0

    def next_wake(self) -> float:
        if self.stopped or self.k >= len(self.ids):
            return float("inf")
        return self.t0 + self.k / self.rate

    def pump(self, driver: "Driver", now: float) -> None:
        reqs = driver.reqs
        while not self.stopped and self.k < len(self.ids):
            due = self.t0 + self.k / self.rate
            if due > now:
                break
            rid = self.ids[self.k]
            reqs.due[rid] = due
            driver.send(self.conns[self.k % len(self.conns)], rid, now)
            self.k += 1
        if self.k >= len(self.ids) and not self.stopped:
            raise RuntimeError(
                "open-loop frame pool exhausted; encode more frames"
            )

    def on_reply(self, driver: "Driver", rid: int) -> None:
        pass


class ClosedLoop:
    """Send ``ids`` on connection ``conn`` in bursts of ``window``.

    Up to ``depth`` bursts are in flight; the next goes out when a
    whole burst has been answered, as a bulk client that costs a batch
    of predicates at a time (and pipelines ``depth`` batches) would.
    Bursts make the server's batches full-sized rather than shaped by
    when replies happen to arrive; a second burst in flight keeps the
    server busy while the generator turns the first one around.
    """

    def __init__(
        self, conn: int, ids: Sequence[int], window: int, depth: int = 1
    ) -> None:
        self.conn = conn
        self.ids = ids
        self.window = window
        self.depth = depth
        self.k = 0
        self.in_flight = 0
        self.stopped = False
        #: a timed phase must not run dry (it would measure the pool);
        #: an untimed one simply ends with it
        self.timed = True

    def start(self, driver: "Driver", t0: float) -> None:
        self.in_flight = 0
        for _ in range(self.depth):
            self._burst(driver, t0)

    def next_wake(self) -> float:
        return float("inf")

    def pump(self, driver: "Driver", now: float) -> None:
        pass

    def _burst(self, driver: "Driver", now: float) -> None:
        if self.stopped:
            return
        if self.k >= len(self.ids):
            if self.timed:
                raise RuntimeError(
                    "closed-loop frame pool exhausted; encode more frames"
                )
            return
        for rid in self.ids[self.k:self.k + self.window]:
            driver.reqs.due[rid] = now
            driver.send(self.conn, rid, now)
            self.k += 1
            self.in_flight += 1

    def on_reply(self, driver: "Driver", rid: int) -> None:
        self.in_flight -= 1
        if self.in_flight <= (self.depth - 1) * self.window:
            self._burst(driver, driver.now)


class Driver:
    """The generator's event loop over its two connections."""

    def __init__(self, host: str, port: int, reqs: Requests) -> None:
        self.reqs = reqs
        self.conns = [_Conn(host, port) for _ in range(2)]
        self._by_sock = {c.sock: c for c in self.conns}
        #: the sources of the current phase (their ids are ranges)
        self.sources: Sequence[object] = ()
        self.outstanding = 0
        self.now = time.perf_counter()
        self._pending_marks = 0

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def send(self, conn: int, rid: int, now: float) -> None:
        self.reqs.sent[rid] = now
        self.conns[conn].out += self.reqs.frames[rid]
        self.outstanding += 1

    def mark(self, name: str) -> None:
        """An in-band ``ping`` named ``mark:<name>`` on connection 0;
        the traced server uses it to delimit the timed window."""
        self.conns[0].out += encode({"id": f"mark:{name}", "op": "ping"})
        self._pending_marks += 1
        self.conns[0].flush()

    def _handle(self, body: bytes) -> None:
        msg = json.loads(body)
        rid = msg.get("id")
        if not isinstance(rid, int):
            if isinstance(rid, str) and rid.startswith("mark:"):
                self._pending_marks -= 1
                return
            raise ConnectionError(f"unexpected frame {msg!r}")
        reqs = self.reqs
        if reqs.status[rid] != PENDING:
            raise ConnectionError(f"second reply for request {rid}")
        reqs.recv[rid] = self.now
        self.outstanding -= 1
        if msg.get("ok"):
            reqs.status[rid] = OK
            value = msg.get("value")
            if reqs.kinds[rid] == "estimate":
                reqs.value[rid] = value
            else:
                reqs.results[rid] = value
        else:
            reqs.status[rid] = ERROR
            reqs.errors[rid] = str(msg.get("error"))
        for source in self.sources:
            if rid in source.ids:
                source.on_reply(self, rid)
                break

    def _poll(self, timeout: float) -> None:
        writers = [c.sock for c in self.conns if c.out]
        readers = [c.sock for c in self.conns]
        readable, writable, _ = select.select(
            readers, writers, [], timeout
        )
        for sock in writable:
            self._by_sock[sock].flush()
        for sock in readable:
            conn = self._by_sock[sock]
            bodies = conn.frames()
            self.now = time.perf_counter()
            for body in bodies:
                self._handle(body)
        for conn in self.conns:
            conn.flush()

    def run(
        self, sources: Sequence[object], seconds: float
    ) -> Dict[str, float]:
        """Drive ``sources`` for ``seconds``, then drain the replies.

        Returns the phase's wall window and the generator's own CPU
        seconds over it.
        """
        self.sources = sources
        # a full collection over the run's frames would stall the
        # generator for milliseconds: no collections while timing
        gc.disable()
        try:
            return self._run(sources, seconds)
        finally:
            gc.enable()

    def _run(
        self, sources: Sequence[object], seconds: float
    ) -> Dict[str, float]:
        cpu0 = time.process_time()
        t0 = self.now = time.perf_counter()
        t_end = t0 + seconds
        for source in sources:
            source.start(self, t0)
        for conn in self.conns:
            conn.flush()
        while True:
            now = self.now = time.perf_counter()
            if now >= t_end:
                break
            for source in sources:
                source.pump(self, now)
            for conn in self.conns:
                conn.flush()
            wake = min(min(s.next_wake() for s in sources), t_end)
            self._poll(max(0.0, wake - time.perf_counter()))
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        for source in sources:
            source.stopped = True
        self.drain()
        return {"t0": t0, "t1": t1, "client_cpu_s": cpu1 - cpu0}

    def run_all(
        self, sources: Sequence["ClosedLoop"], timeout: float = 120.0
    ) -> None:
        """Untimed: send every frame of ``sources``, wait for all."""
        self.sources = sources
        for source in sources:
            source.timed = False
        self.now = time.perf_counter()
        for source in sources:
            source.start(self, self.now)
        self.drain(timeout)
        if self.outstanding or any(
            s.k < len(s.ids) for s in sources
        ):
            raise RuntimeError("untimed phase did not finish in time")

    def drain(self, timeout: float = 30.0) -> None:
        """Wait for every outstanding reply (and mark), or give up."""
        deadline = time.perf_counter() + timeout
        while self.outstanding > 0 or self._pending_marks > 0:
            left = deadline - time.perf_counter()
            if left <= 0:
                return
            self._poll(min(left, 0.05))


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            out = [int(tok) for tok in fh.read().split()]
    except OSError:
        pass
    return out


def _proc_tree(pid: int) -> List[int]:
    tree = [pid]
    for child in _children(pid):
        tree.extend(_proc_tree(child))
    return tree


def _alive(pid: int) -> bool:
    """True when ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid``, from the scheduler's
    nanosecond run-time counters."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:
            pass
    return total / 1e9


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def steal_seconds() -> float:
    """CPU seconds the hypervisor has stolen from this VM, summed over
    its vCPUs (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) <= 8:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server failed to start or to answer its first request."""


class Server:
    """``repro serve`` in its own process, as an operator runs it."""

    def __init__(self, argv: Sequence[str], cwd: str, env: dict) -> None:
        self.argv = list(argv)
        self.cwd = cwd
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.t_launch = 0.0
        self.children: List[int] = []
        self.leaked: List[int] = []
        self.stderr_text = ""

    def start(self, first_rect: Sequence[float]) -> float:
        """Launch, wait for the first answer; the set-up seconds."""
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if "front door on" not in line:
            self.stop()
            raise ServerError(
                f"server did not start: {line.strip()!r} "
                f"{self.stderr_text[-2000:]}"
            )
        self.port = int(line.split(" on ", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        with socket.create_connection(
            ("127.0.0.1", self.port), timeout=60
        ) as sock:
            sock.sendall(encode({
                "id": "setup", "op": "estimate", "rect": list(first_rect),
            }))
            head = _recv_exact(sock, 4)
            body = _recv_exact(sock, _LEN.unpack(head)[0])
        t_first = time.perf_counter()
        self.children = self.pids()[1:]
        if not json.loads(body).get("ok"):
            raise ServerError(f"first request failed: {body!r}")
        return t_first - self.t_launch

    def pids(self) -> List[int]:
        return _proc_tree(self.proc.pid) if self.proc else []

    def cpu_seconds(self) -> float:
        """User+system CPU of the server and its workers so far."""
        return sum(_cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and workers."""
        return sum(_peak_rss_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self) -> List[str]:
        """SIGINT, wait, and make sure no child outlives the server.

        Returns the lifecycle problems: a child still alive after the
        server exited (it is killed, so nothing leaks from the
        benchmark) and an exit code other than a clean SIGINT exit.
        """
        proc = self.proc
        if proc is None:
            return []
        tree = sorted(set(self.children) | set(self.pids()[1:]))
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        self.leaked = [pid for pid in _wait_gone(tree) if _alive(pid)]
        for pid in self.leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_gone(self.leaked)
        self.stderr_text = proc.stderr.read() or ""
        proc.stdout.close()
        proc.stderr.close()
        self.proc = None
        problems = []
        if self.leaked:
            problems.append(
                f"server children {self.leaked} outlived the server"
            )
        if proc.returncode not in (0, -signal.SIGINT):
            problems.append(
                f"server exited with code {proc.returncode}: "
                f"{self.stderr_text[-2000:]}"
            )
        return problems


def _wait_gone(pids: List[int], seconds: float = 5.0) -> List[int]:
    deadline = time.perf_counter() + seconds
    while any(_alive(pid) for pid in pids) \
            and time.perf_counter() < deadline:
        time.sleep(0.01)
    return pids


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ServerError("server closed the set-up connection")
        data += chunk
    return bytes(data)
