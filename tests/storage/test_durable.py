"""DurableDeltaFlood: WAL-before-buffer, checkpoints, warm recovery,
recovery idempotence, and fault-injected failure surfacing."""

import numpy as np
import pytest

from repro.core.durable import DurableDeltaFlood
from repro.core.layout import GridLayout
from repro.core.protocol import supports_insert
from repro.errors import DurabilityError, SchemaError
from repro.query.predicate import Query
from repro.storage.table import Table
from repro.storage.visitor import CountVisitor
from repro.storage.wal import list_segments
from tests.storage.fault import CrashPoint, FaultyIO

_LAYOUT = GridLayout(("x", "y"), (4,))


def _table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        {"x": rng.integers(0, 100, n), "y": rng.integers(0, 100, n)},
        compress=False,
    )


def _build(tmp_path, **kwargs):
    kwargs.setdefault("merge_threshold", None)
    index = DurableDeltaFlood(_LAYOUT, str(tmp_path), **kwargs)
    return index.build(_table())


def _count(index, lo=0, hi=100):
    visitor = CountVisitor()
    index.query(Query({"x": (lo, hi), "y": (lo, hi)}), visitor)
    return visitor.result


def _total_rows(index):
    return len(index.table) + index.buffered_rows


class TestProtocol:
    def test_satisfies_the_mutable_protocol(self, tmp_path):
        index = _build(tmp_path)
        assert supports_insert(index)
        index.close()

    def test_queries_see_buffered_and_merged_rows(self, tmp_path):
        index = _build(tmp_path)
        base = _count(index)
        index.insert({"x": 50, "y": 50})
        index.insert_many({"x": [1, 2], "y": [3, 4]})
        assert _count(index) == base + 3
        index.merge()
        assert _count(index) == base + 3
        assert index.buffered_rows == 0
        index.close()

    def test_schema_violations_do_not_touch_the_wal(self, tmp_path):
        index = _build(tmp_path)
        logged = index.durability_stats()["rows_logged"]
        with pytest.raises(SchemaError):
            index.insert({"x": 1})  # missing dim
        with pytest.raises(SchemaError):
            index.insert_many({"x": [1, 2], "y": [3]})  # ragged
        assert index.durability_stats()["rows_logged"] == logged
        index.close()

    def test_use_before_build_raises_structured(self, tmp_path):
        index = DurableDeltaFlood(_LAYOUT, str(tmp_path))
        with pytest.raises(DurabilityError):
            index.insert({"x": 1, "y": 2})

    @pytest.mark.parametrize(
        "op, payload",
        [
            ("insert", {"x": 1, "y": "abc"}),
            ("insert", {"x": 1e300, "y": 2}),
            ("insert", {"x": [1, 2], "y": 5}),
            ("insert_many", {"x": [1, 2], "y": [3, float("nan")]}),
        ],
        ids=["non-numeric", "out-of-range", "list-valued", "batch-non-finite"],
    )
    def test_bad_values_touch_neither_wal_nor_buffer(self, tmp_path, op, payload):
        index = _build(tmp_path)
        index.insert({"x": 50, "y": 50})
        base = _count(index)
        stats = index.durability_stats()
        generation = index.generation
        with pytest.raises(SchemaError):
            getattr(index, op)(payload)
        after = index.durability_stats()
        assert after["rows_logged"] == stats["rows_logged"]
        assert after["wal_records"] == stats["wal_records"]
        assert index.generation == generation
        assert index.buffered_rows == 1
        assert _count(index) == base
        index.close()  # crash-equivalent: the reopen replays the WAL

        reopened = DurableDeltaFlood.open(str(tmp_path), merge_threshold=None)
        assert reopened.recovered_rows == 1
        assert _count(reopened) == base
        reopened.merge()
        assert _count(reopened) == base
        assert reopened.table.values("x").min() >= 0
        reopened.shutdown()


class TestRecovery:
    def test_warm_recovery_replays_the_wal_tail(self, tmp_path):
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(10), "y": np.arange(10)})
        index.merge()  # snapshot covers these 10
        index.insert({"x": 5, "y": 5})
        index.insert_many({"x": [6, 7], "y": [6, 7]})  # WAL tail only
        expected_rows = _total_rows(index)
        expected_gen = index.generation
        expected_count = _count(index)
        index.close()  # no checkpoint: crash-equivalent

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.recovered
        assert recovered.recovered_rows == 3
        assert recovered.buffered_rows == 3
        assert _total_rows(recovered) == expected_rows
        assert recovered.generation == expected_gen
        assert _count(recovered) == expected_count
        assert recovered.merges == index.merges
        recovered.close()

    def test_unclean_recovery_surfaces_reason_in_stats(self, tmp_path):
        index = _build(tmp_path)
        index.insert_many({"x": [1, 2, 3], "y": [1, 2, 3]})
        index.close()
        _, active = list_segments(str(tmp_path))[-1]
        with open(active, "ab") as fh:
            fh.write(b"\x99" * 5)  # torn partial frame

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.recovered_rows == 3  # the tear cost no rows
        stats = recovered.durability_stats()
        assert stats["recovery_clean"] is False
        assert "wal-" in stats["recovery_reason"]
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(20), "y": np.arange(20)})
        index.merge()
        index.insert_many({"x": [1, 2, 3], "y": [1, 2, 3]})
        index.close()

        first = DurableDeltaFlood.open(str(tmp_path))
        state_one = (first.generation, _total_rows(first), _count(first))
        first.close()
        second = DurableDeltaFlood.open(str(tmp_path))
        state_two = (second.generation, _total_rows(second), _count(second))
        second.close()
        assert state_one == state_two

    def test_merge_boundary_splitting_a_batch_record(self, tmp_path):
        # One batch record of 10 rows; a merge that covers only 6 of
        # them (the other 4 arrived "mid-merge" in delta terms). Replay
        # must slice the record: 6 merged rows skipped, 4 replayed.
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(10), "y": np.arange(10)})
        prepared = index.prepare_merge()
        # Simulate mid-merge arrivals *between* prepare and commit.
        index.insert_many({"x": [90] * 4, "y": [90] * 4})
        assert prepared.rows_merged == 10
        index.commit_merge(prepared)
        index.checkpoint()
        expected = _total_rows(index)
        index.close()

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.recovered_rows == 4
        assert _total_rows(recovered) == expected
        assert _count(recovered, 90, 90) == 4
        recovered.close()

    def test_crash_between_commit_and_checkpoint(self, tmp_path):
        # commit_merge rotated the WAL but the snapshot never landed:
        # recovery replays from the *old* snapshot + retained segments,
        # reconstructing the merged rows into the buffer. Same totals.
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(8), "y": np.arange(8)})
        index.commit_merge(index.prepare_merge())  # NO checkpoint()
        expected = _total_rows(index)
        expected_count = _count(index)
        index.close()

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.recovered_rows == 8
        assert _total_rows(recovered) == expected
        assert _count(recovered) == expected_count
        # The pending checkpoint died with the process; a later merge
        # re-covers those rows and pruning catches up.
        recovered.insert({"x": 1, "y": 1})
        recovered.merge()
        assert _total_rows(recovered) == expected + 1
        recovered.close()

    def test_open_without_state_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="no snapshot"):
            DurableDeltaFlood.open(str(tmp_path))

    def test_build_refuses_dir_with_snapshot(self, tmp_path):
        _build(tmp_path).close()
        with pytest.raises(DurabilityError, match="open"):
            DurableDeltaFlood(_LAYOUT, str(tmp_path)).build(_table())

    def test_build_refuses_orphan_wal_with_rows(self, tmp_path):
        index = _build(tmp_path)
        index.insert({"x": 1, "y": 2})
        index.close()
        (tmp_path / "snapshot.bin").unlink()
        with pytest.raises(DurabilityError, match="refusing"):
            DurableDeltaFlood(_LAYOUT, str(tmp_path)).build(_table())

    def test_shutdown_checkpoints_pending_state(self, tmp_path):
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(5), "y": np.arange(5)})
        index.commit_merge(index.prepare_merge())
        assert index.durability_stats()["checkpoint_pending"]
        index.shutdown()

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.recovered_rows == 0  # snapshot covered everything
        assert len(recovered.table) == 205
        recovered.close()


class TestMaintenance:
    def test_auto_merge_threshold(self, tmp_path):
        index = _build(tmp_path, merge_threshold=4)
        for i in range(4):
            index.insert({"x": i, "y": i})
        assert index.buffered_rows == 0  # threshold hit: merged + snapshot
        assert index.merges == 1
        assert index.durability_stats()["checkpoints"] == 2  # initial + merge
        index.close()

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        index = _build(tmp_path)
        index.insert_many({"x": np.arange(6), "y": np.arange(6)})
        index.merge()
        index.insert({"x": 1, "y": 1})
        index.merge()
        # Every merged row is covered: only the active segment remains.
        assert [s for s, _ in list_segments(str(tmp_path))] == [3]
        index.close()

    def test_empty_merge_is_a_no_op(self, tmp_path):
        index = _build(tmp_path)
        checkpoints = index.checkpoints
        index.merge()
        assert index.merges == 0
        assert index.checkpoints == checkpoints  # nothing pending
        index.close()


class TestFaultInjection:
    def test_failed_wal_append_raises_and_skips_the_buffer(self, tmp_path):
        io = FaultyIO()
        index = DurableDeltaFlood(
            _LAYOUT, str(tmp_path), merge_threshold=None, io=io
        ).build(_table())
        index.insert({"x": 1, "y": 1})
        io.fail["write"] = io.counts.get("write", 0) + 1  # next write fails
        with pytest.raises(DurabilityError):
            index.insert({"x": 2, "y": 2})
        # The un-acked row is NOT in the buffer: recovered ⊇ acked holds
        # with equality on the happy path, never with phantom rows.
        assert index.buffered_rows == 1
        # Fail-stop: the next insert refuses too.
        with pytest.raises(DurabilityError, match="disabled"):
            index.insert({"x": 3, "y": 3})
        index.close()

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.buffered_rows == 1  # exactly the acked row
        recovered.close()

    def test_failed_checkpoint_keeps_state_pending(self, tmp_path):
        io = FaultyIO()
        index = DurableDeltaFlood(
            _LAYOUT, str(tmp_path), merge_threshold=None, io=io
        ).build(_table())
        index.insert_many({"x": np.arange(4), "y": np.arange(4)})
        index.commit_merge(index.prepare_merge())
        io.fail["replace"] = io.counts.get("replace", 0) + 1
        with pytest.raises(DurabilityError):
            index.checkpoint()
        assert index.durability_stats()["checkpoint_pending"]
        # Retry succeeds and drains the pending state.
        assert index.checkpoint()
        assert not index.durability_stats()["checkpoint_pending"]
        index.close()

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert len(recovered.table) == 204
        assert recovered.recovered_rows == 0
        recovered.close()

    def test_crash_during_wal_append_loses_nothing_acked(self, tmp_path):
        io = FaultyIO()
        index = DurableDeltaFlood(
            _LAYOUT, str(tmp_path), merge_threshold=None, io=io
        ).build(_table())
        index.insert({"x": 1, "y": 1})  # acked
        io.crash_at = ("write", io.counts.get("write", 0) + 1)
        with pytest.raises(CrashPoint):
            index.insert({"x": 2, "y": 2})  # dies mid-append, never acked

        recovered = DurableDeltaFlood.open(str(tmp_path))
        assert recovered.buffered_rows == 1
        assert _count(recovered, 1, 1) >= 1
        recovered.close()

    def test_corrupt_snapshot_is_loud_not_silent(self, tmp_path):
        _build(tmp_path).close()
        path = tmp_path / "snapshot.bin"
        data = bytearray(path.read_bytes())
        data[50] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DurabilityError, match="CRC"):
            DurableDeltaFlood.open(str(tmp_path))


class TestGroupCommit:
    """``group_commit=True``: inserts return tickets, acks wait for the
    covering sync, and recovery still honours recovered ⊇ acked."""

    def test_insert_returns_a_ticket_that_resolves(self, tmp_path):
        index = _build(tmp_path, group_commit=True)
        ticket = index.insert({"x": 1, "y": 2})
        assert ticket is not None
        assert ticket.result(timeout=10) is None  # durable once resolved
        stats = index.durability_stats()
        assert stats["group_commit"]["records_grouped"] == 1
        index.shutdown()

    def test_without_group_commit_insert_returns_none(self, tmp_path):
        index = _build(tmp_path)
        assert index.insert({"x": 1, "y": 2}) is None
        assert index.durability_stats()["group_commit"] is None
        index.shutdown()

    def test_acked_rows_survive_reopen(self, tmp_path):
        index = _build(tmp_path, group_commit=True)
        tickets = [index.insert({"x": i, "y": i}) for i in range(20)]
        rows = {
            "x": np.arange(20, 40, dtype=np.int64),
            "y": np.arange(20, 40, dtype=np.int64),
        }
        tickets.append(index.insert_many(rows))
        for ticket in tickets:
            ticket.result(timeout=10)
        total = _total_rows(index)
        index.shutdown()
        reopened = DurableDeltaFlood.open(
            str(tmp_path), group_commit=True, merge_threshold=None
        )
        assert _total_rows(reopened) == total
        reopened.shutdown()

    def test_already_failed_ticket_raises_and_skips_the_buffer(
        self, tmp_path
    ):
        """Once the flusher is fail-stopped, a new insert must raise
        inline and leave the buffer untouched — same contract as a
        failed synchronous append."""
        from repro.storage.wal import GroupCommitLog

        index = _build(tmp_path, group_commit=True)
        assert isinstance(index._wal, GroupCommitLog)
        # Fail-stop the flusher by closing the log behind its back.
        index._wal.close()
        before = _total_rows(index)
        with pytest.raises(DurabilityError):
            index.insert({"x": 1, "y": 2})
        assert _total_rows(index) == before
