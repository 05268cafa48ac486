"""Crash-fault integration tests: kill -9 the serving process mid-
insert-stream, restart on the same ``--data-dir``, and prove that every
*acknowledged* insert survived.

This is the durability tier's acceptance test (ISSUE 7): the writer
streams sentinel rows (``order_key >= 1_000_000``, far outside the tpch
generator's range, so recovered rows are unambiguously identifiable),
records exactly which acks it received, and the process dies with
``SIGKILL`` — no atexit hooks, no flush-on-exit, nothing but what the
WAL already persisted. The restarted server must report every acked
sentinel present, and the totals must match an oracle recounted from the
acks themselves.
"""

import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.serve.client import FloodClient, ServerError

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SMOKE_TIMEOUT = 120
#: tpch order_key tops out at n/4; sentinels live far above it.
SENTINEL_BASE = 1_000_000
_ROWS = 4000


def _spawn(data_dir, fsync="batch", merge_threshold=150, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--rows", str(_ROWS), "--index", "delta", "--shards", "1",
            "--max-delay-ms", "1",
            "--merge-threshold", str(merge_threshold),
            "--data-dir", str(data_dir), "--fsync", fsync,
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    watchdog = threading.Timer(SMOKE_TIMEOUT, proc.kill)
    watchdog.start()
    address, banner = None, []
    for _ in range(500):
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line.rstrip())
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            address = (match.group(1), int(match.group(2)))
            break
    return proc, watchdog, address, banner


def _sentinel_row(i):
    return {
        "ship_date": 1000 + i,
        "receipt_date": 1100 + i,
        "quantity": 1 + (i % 50),
        "discount": i % 11,
        "order_key": SENTINEL_BASE + i,
        "supp_key": i % 100,
    }


def _sentinel_count(client):
    result, _ = client.query(
        {"order_key": (SENTINEL_BASE, SENTINEL_BASE + 10_000_000)}
    )
    return result


class TestKill9Recovery:
    def test_acknowledged_inserts_survive_kill9(self, tmp_path):
        """The headline guarantee: stream inserts, SIGKILL mid-stream
        (with merges/checkpoints churning underneath), restart, and every
        acked row is back — counts matching the ack-log oracle exactly."""
        data_dir = tmp_path / "state"
        proc, watchdog, address, banner = _spawn(data_dir)
        acked = []
        try:
            assert address, f"no address; output: {banner}"
            with FloodClient(*address, timeout=60) as client:
                # Stream sentinels; the 150-row merge threshold forces
                # several merge+checkpoint cycles under the stream, so
                # the kill lands with state split across snapshot + WAL.
                for i in range(400):
                    reply = client.insert(_sentinel_row(i))
                    assert reply.get("durability", {}).get("data_dir")
                    acked.append(i)
                live = _sentinel_count(client)
                assert live == len(acked)
        finally:
            watchdog.cancel()
        # kill -9: no flush, no atexit, no shutdown checkpoint.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        assert len(acked) == 400

        proc2, watchdog2, address2, banner2 = _spawn(data_dir)
        try:
            assert address2, f"no address after restart; output: {banner2}"
            # The warm-restart banner: recovery, not a fresh build.
            assert any("Recovered from" in line for line in banner2), banner2
            assert not any("Loading tpch" in line for line in banner2), (
                "restart regenerated the dataset instead of recovering"
            )
            with FloodClient(*address2, timeout=60) as client:
                # Oracle: the ack log itself. Every acked insert must be
                # present — zero acknowledged-but-lost rows.
                assert _sentinel_count(client) == len(acked)
                # Per-row presence, not just totals: spot-check every
                # sentinel id via an exact-range count.
                for i in (0, 1, 199, 398, 399):
                    result, _ = client.query(
                        {"order_key": (SENTINEL_BASE + i, SENTINEL_BASE + i)}
                    )
                    assert result == 1, f"acked sentinel {i} lost"
                # Non-sentinel rows are exactly the built table.
                total, _ = client.query({"order_key": (0, SENTINEL_BASE - 1)})
                assert total == _ROWS
                # And the recovered server keeps serving writes durably.
                reply = client.insert(_sentinel_row(400))
                assert reply["inserted"] == 1
                assert _sentinel_count(client) == len(acked) + 1
                client.shutdown()
            assert proc2.wait(timeout=60) == 0
        finally:
            watchdog2.cancel()
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()

    def test_double_restart_is_idempotent(self, tmp_path):
        """Recovering, killing again without writes, and recovering again
        yields the same row count and generation — replaying the same WAL
        twice must not duplicate rows."""
        data_dir = tmp_path / "state"
        proc, watchdog, address, _ = _spawn(data_dir, merge_threshold=0)
        try:
            assert address
            with FloodClient(*address, timeout=60) as client:
                for i in range(25):
                    client.insert(_sentinel_row(i))
        finally:
            watchdog.cancel()
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        states = []
        for _ in range(2):
            proc, watchdog, address, banner = _spawn(
                data_dir, merge_threshold=0
            )
            try:
                assert address, banner
                with FloodClient(*address, timeout=60) as client:
                    stats = client.server_stats()
                    mutable = stats["mutable"]
                    states.append(
                        (
                            mutable["generation"],
                            mutable["buffered_rows"],
                            _sentinel_count(client),
                        )
                    )
            finally:
                watchdog.cancel()
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        assert states[0] == states[1]
        assert states[0][2] == 25


class TestBadInsertOverTcp:
    def test_rejected_insert_is_neither_logged_nor_buffered(self, tmp_path):
        """A non-numeric, an out-of-range, and a list-valued insert each
        get an error reply; nothing reaches the WAL or the buffer, so the
        live recount and the post-kill -9 recount both see only the one
        good row."""
        data_dir = tmp_path / "state"
        proc, watchdog, address, banner = _spawn(data_dir, merge_threshold=0)
        try:
            assert address, f"no address; output: {banner}"
            with FloodClient(*address, timeout=60) as client:
                client.insert(_sentinel_row(0))
                for i, bad in enumerate(("abc", 1e300, [1, 2]), start=1):
                    with pytest.raises(ServerError):
                        client.insert(dict(_sentinel_row(i), quantity=bad))
                assert _sentinel_count(client) == 1
                durability = client.server_stats()["mutable"]["durability"]
                assert durability["rows_logged"] == 1
        finally:
            watchdog.cancel()
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)

        proc2, watchdog2, address2, banner2 = _spawn(data_dir, merge_threshold=0)
        try:
            assert address2, f"no restart address; output: {banner2}"
            with FloodClient(*address2, timeout=60) as client:
                assert _sentinel_count(client) == 1
                client.shutdown()
            assert proc2.wait(timeout=60) == 0
        finally:
            watchdog2.cancel()
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()


class TestGroupCommitKill9:
    def test_group_commit_fsync_always_survives_kill9(self, tmp_path):
        """Group commit must not weaken the contract it accelerates:
        under ``--group-commit --fsync always``, every *acked* insert is
        on disk when the ack leaves the server — so kill -9 right after
        the last ack loses nothing acked."""
        data_dir = tmp_path / "state"
        proc, watchdog, address, banner = _spawn(
            data_dir,
            fsync="always",
            extra_args=("--group-commit",),
        )
        acked = []
        try:
            assert address, f"no address; output: {banner}"
            assert any("group commit: on" in line.lower() for line in banner)
            with FloodClient(*address, timeout=60) as client:
                for i in range(150):
                    reply = client.insert(_sentinel_row(i))
                    group = reply["durability"]["group_commit"]
                    assert group is not None, reply
                    acked.append(i)
                assert group["records_grouped"] >= 150
        finally:
            watchdog.cancel()
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        proc2, watchdog2, address2, banner2 = _spawn(
            data_dir, fsync="always", extra_args=("--group-commit",)
        )
        try:
            assert address2, f"no restart address; output: {banner2}"
            assert any("Recovered from" in line for line in banner2), banner2
            with FloodClient(*address2, timeout=60) as client:
                assert _sentinel_count(client) == len(acked)
                client.shutdown()
            assert proc2.wait(timeout=60) == 0
        finally:
            watchdog2.cancel()
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()
