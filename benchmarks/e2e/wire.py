"""Server process control and the raw JSON-lines load generator.

The generator is one asyncio task set in the harness process — one
thread, at most two TCP connections (``nproc`` is 2 on the reference
box); a *window* is per-connection pipelining depth, not extra threads.
It writes and parses the wire protocol itself instead of going through
``repro.serve.client``, so a client-library change cannot move a server
number. Latencies are taken with ``time.perf_counter`` around the write
of a request and the parse of its reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sys
import time
from typing import NamedTuple

from pinned import OUT_DIR, REPO_ROOT, SRC_DIR, rss_mb

#: Flags every served workload launches ``repro serve`` with.
BASE_FLAGS = ("--index", "delta", "--shards", "1", "--port", "0")
LISTENING = "repro-serve listening on "
#: Span names of one request on the wire, by request kind.
WIRE_SPAN = {"q": "wire.query", "i": "wire.insert"}


class HarnessError(RuntimeError):
    """The benchmark could not run as pinned (not a measured failure)."""


class Janitor:
    """Owns every process and directory a run creates, so that none
    survives it: ``close`` kills, reaps and removes; ``leftovers`` is
    what the exit check reports."""

    def __init__(self):
        self.root = os.path.join(OUT_DIR, f"run-{os.getpid()}")
        self.procs: list = []
        self._dirs = 0
        self._shm_before = _shm_segments()

    def new_dir(self, label: str) -> str:
        """A fresh directory path under the run's scratch root (the
        parent exists, the directory itself does not yet)."""
        os.makedirs(self.root, exist_ok=True)
        self._dirs += 1
        return os.path.join(self.root, f"{label}-{self._dirs}")

    def close(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    os.waitpid(proc.pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    continue  # already gone, or reaped by asyncio
        shutil.rmtree(self.root, ignore_errors=True)

    def leftovers(self) -> list[str]:
        found = [
            f"process {proc.pid}" for proc in self.procs if _alive(proc.pid)
        ]
        if os.path.exists(self.root):
            found.append(self.root)
        found.extend(sorted(_shm_segments() - self._shm_before))
        return found


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _shm_segments() -> set[str]:
    try:
        return {
            f"/dev/shm/{name}"
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-")
        }
    except OSError:
        return set()


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, proc, host: str, port: int, drain):
        self.proc = proc
        self.host = host
        self.port = port
        self._drain = drain

    @classmethod
    async def spawn(cls, janitor: Janitor, data_dir: str, flags=(), layout=None):
        """Launch over ``data_dir`` and wait for the listening line.

        With ``layout`` given, fails fast unless the server's printed
        ``Layout:`` line is that layout: a differing line is the symptom
        of a cold start through the calibrated ``default_cost_model()``
        instead of the warm restart from the harness's snapshot.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR, *filter(None, [env.get("PYTHONPATH")])]
        )
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", *BASE_FLAGS,
            "--data-dir", data_dir, *flags,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
            cwd=REPO_ROOT,
        )
        janitor.procs.append(proc)
        banner: list[str] = []
        while True:
            line = await asyncio.wait_for(proc.stdout.readline(), timeout=120)
            if not line:
                raise HarnessError(
                    "server exited before listening:\n" + "\n".join(banner)
                )
            text = line.decode("utf-8", "replace").rstrip()
            banner.append(text)
            if text.startswith(LISTENING):
                host, _, port = text[len(LISTENING):].rpartition(":")
                break
        if layout is not None:
            want = f"Layout: {layout.describe()} ({layout.num_cells} cells)"
            got = [text for text in banner if text.startswith("Layout: ")]
            if got != [want]:
                raise HarnessError(
                    f"server layout {got} differs from the pinned {want!r}"
                )
        # Keep the pipe drained so the child can never block on print.
        drain = asyncio.get_running_loop().create_task(proc.stdout.read())
        return cls(proc, host, int(port), drain)

    async def connect(self):
        return await asyncio.open_connection(self.host, self.port, limit=1 << 20)

    async def op(self, message: dict) -> dict:
        """One request on a connection of its own (ops, checks)."""
        reader, writer = await self.connect()
        try:
            writer.write(json.dumps(message).encode() + b"\n")
            line = await asyncio.wait_for(reader.readline(), timeout=120)
        finally:
            writer.close()
        if not line:
            raise HarnessError(f"no reply to {message.get('op', 'query')!r}")
        return json.loads(line)

    def rss_mb(self, field: str = "VmRSS") -> float:
        return rss_mb(self.proc.pid, field)

    async def shutdown(self) -> None:
        """Graceful stop (final checkpoint runs); SIGKILL after 30 s."""
        if self.proc.returncode is None:
            try:
                await self.op({"op": "shutdown"})
                await asyncio.wait_for(self.proc.wait(), timeout=30)
            except (OSError, asyncio.TimeoutError, HarnessError):
                await self.kill()
        await self._drain

    async def kill(self) -> None:
        """``kill -9``: no checkpoint, no flush, no goodbye."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            await self.proc.wait()
        await self._drain


# --------------------------------------------------------------- requests
def query_body(query, agg: str = "count", dim: str | None = None) -> bytes:
    """A query request line minus its ``{"id":N,`` head."""
    message = {
        "ranges": {d: [int(lo), int(hi)] for d, (lo, hi) in query.ranges.items()},
        "agg": agg,
    }
    if dim is not None:
        message["dim"] = dim
    return json.dumps(message).encode()[1:] + b"\n"


def insert_body(row: dict) -> bytes:
    """A single-row insert line minus its ``{"id":N,`` head."""
    return json.dumps({"op": "insert", "row": row}).encode()[1:] + b"\n"


class Completion(NamedTuple):
    """One request's outcome as the generator saw it."""

    kind: str  # "q" query, "i" insert
    key: int  # position in the workload's query pool / insert rows
    start: float  # send time; the *due* time in an open loop
    done: float
    ok: bool
    result: object
    #: The reply's ``stats.total_time`` (queries only).
    server_seconds: float | None
    #: Insert acks: ``(merges, last_merge_seconds, buffered_rows,
    #: checkpoints)``. Open loop: how late the sender ran, in seconds.
    extra: object


def _digest(kind: str, key, start: float, done: float, reply: dict, extra=None):
    ok = reply.get("ok") is True
    server_seconds = None
    if kind == "q":
        stats = reply.get("stats")
        if stats:
            server_seconds = stats.get("total_time")
    elif ok:
        durability = reply.get("durability") or {}
        extra = (
            reply.get("merges", 0),
            reply.get("last_merge_seconds", 0.0),
            reply.get("buffered_rows", 0),
            durability.get("checkpoints", 0),
        )
    return Completion(
        kind, key, start, done, ok, reply.get("result"), server_seconds, extra
    )


async def closed_loop(
    conn, source, window: int, stop_at: float, log: list, tracer=None, name: str = ""
) -> int:
    """Keep ``window`` requests in flight on ``conn`` until ``stop_at``.

    ``source()`` yields ``(kind, key, body)`` or ``None`` when it has
    nothing more to send. Every completion is appended to ``log``; with
    a ``tracer`` each also becomes a span carrying the reply's ``stats``
    (request id ``name`` + wire id, so connections do not collide).
    Returns the number of requests sent; the caller compares it with the
    completions to count requests that never got a reply.
    """
    reader, writer = conn
    clock = time.perf_counter
    pending: dict[int, tuple] = {}
    sent = 0

    def send() -> bool:
        nonlocal sent
        item = source()
        if item is None:
            return False
        kind, key, body = item
        pending[sent] = (kind, key, clock())
        writer.write(b'{"id":%d,' % sent + body)
        sent += 1
        return True

    for _ in range(window):
        if not send():
            break
    while pending:
        line = await reader.readline()
        done = clock()
        if not line:
            break  # server went away: what is pending counts as failed
        reply = json.loads(line)
        kind, key, start = pending.pop(reply["id"])
        log.append(_digest(kind, key, start, done, reply))
        if tracer is not None:
            tracer.add(
                WIRE_SPAN[kind], start, done, request=f"{name}{reply['id']}",
                attrs=reply.get("stats"),
            )
        if done < stop_at:
            send()
    return sent


class OpenLoop:
    """Send on a fixed schedule over ``conns`` whatever the replies do."""

    def __init__(self, conns, log: list):
        self.conns = conns
        self.log = log
        #: Set to a Tracer to record a span per request from now on.
        self.tracer = None
        self.pending: dict[int, tuple] = {}
        self._next_id = 0
        self._idle = asyncio.Event()
        self._idle.set()
        loop = asyncio.get_running_loop()
        self._readers = [loop.create_task(self._read(conn)) for conn in conns]

    async def _read(self, conn) -> None:
        reader, _ = conn
        clock = time.perf_counter
        while True:
            line = await reader.readline()
            done = clock()
            if not line:
                return
            reply = json.loads(line)
            key, due, late = self.pending.pop(reply["id"])
            self.log.append(_digest("q", key, due, done, reply, extra=late))
            if self.tracer is not None:
                self.tracer.add(
                    WIRE_SPAN["q"], due, done, request=reply["id"],
                    attrs=reply.get("stats"),
                )
            if not self.pending:
                self._idle.set()

    async def window(self, bodies, rate: float, seconds: float, grace: float = 1.0):
        """Send ``rate * seconds`` requests, one every ``1 / rate`` s.

        Returns ``(sent, backlog)``: ``backlog`` is how many replies were
        still missing ``grace`` seconds after the window's end. The call
        itself waits (bounded) for the queue to empty, so the next window
        starts on an idle server.
        """
        clock = time.perf_counter
        count = int(rate * seconds)
        begin = clock() + 0.02
        for i in range(count):
            due = begin + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            key, body = bodies()
            request = self._next_id
            self._next_id += 1
            self._idle.clear()
            self.pending[request] = (key, due, clock() - due)
            self.conns[i % len(self.conns)][1].write(b'{"id":%d,' % request + body)
        backlog = 0
        try:
            await asyncio.wait_for(
                self._idle.wait(), max(begin + seconds + grace - clock(), 0.001)
            )
        except asyncio.TimeoutError:
            backlog = len(self.pending)
            try:
                await asyncio.wait_for(self._idle.wait(), 30)
            except asyncio.TimeoutError:
                pass  # still pending: the caller counts them as failed
        return count, backlog

    async def close(self) -> None:
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
