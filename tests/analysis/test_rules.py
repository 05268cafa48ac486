"""Per-rule fixture tests: a positive, a negative, and a suppression for
each invariant, using small in-memory sources placed at serve/-like paths."""

import pytest

from repro.analysis.core import Project, SourceFile, get_rules

SERVE = "src/repro/serve/mod.py"
CORE = "src/repro/core/mod.py"


def check(rule_name, *sources):
    """Run one rule over ``(path, text)`` sources; returns (active, suppressed)."""
    project = Project([SourceFile(path, text) for path, text in sources])
    return project.run(get_rules([rule_name]))


def active(rule_name, *sources):
    return check(rule_name, *sources)[0]


class TestLoopSafety:
    def test_direct_blocking_call_in_async_def(self):
        found = active("loop-safety", (SERVE, (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )))
        assert len(found) == 1
        assert found[0].line == 3
        assert "time.sleep" in found[0].message

    def test_transitive_blocking_through_sync_helper(self):
        found = active("loop-safety", (SERVE, (
            "import time\n"
            "def helper():\n"
            "    time.sleep(1)\n"
            "async def handler():\n"
            "    helper()\n"
        )))
        assert len(found) == 1
        # The reachability finding anchors at the async call site and
        # names the synchronous chain that reaches the blocker.
        assert found[0].line == 5
        assert "helper" in found[0].message
        assert "time.sleep" in found[0].message

    def test_heavy_core_call_flagged(self):
        found = active("loop-safety", (SERVE, (
            "async def handler(index):\n"
            "    index.prepare_merge()\n"
        )))
        assert len(found) == 1

    def test_sync_executor_wait_flagged(self):
        found = active("loop-safety", (SERVE, (
            "async def handler(pool, fn):\n"
            "    value = pool.submit(fn).result()\n"
            "    return value\n"
        )))
        assert len(found) == 1

    def test_executor_offload_is_clean(self):
        found = active("loop-safety", (SERVE, (
            "import asyncio\n"
            "def work():\n"
            "    pass\n"
            "async def handler():\n"
            "    await asyncio.sleep(0)\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, work)\n"
        )))
        assert found == []

    def test_only_serve_package_is_scoped(self):
        found = active("loop-safety", (CORE, (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("loop-safety", (SERVE, (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)  # repro: allow(loop-safety)\n"
        )))
        assert found == []
        assert len(suppressed) == 1

    def test_warmup_kernels_on_the_loop_flagged(self):
        # First-call JIT compilation takes seconds; serve pre-warms at
        # startup, so a warm-up reachable from a coroutine is a bug.
        found = active("loop-safety", (SERVE, (
            "from repro.storage.kernels import warmup_kernels\n"
            "async def handler():\n"
            "    warmup_kernels()\n"
        )))
        assert len(found) == 1
        assert "warmup_kernels" in found[0].message
        assert "JIT" in found[0].message

    def test_warmup_kernels_transitively_reached_flagged(self):
        found = active("loop-safety", (SERVE, (
            "from repro.storage.kernels import warmup_kernels\n"
            "def prepare():\n"
            "    warmup_kernels()\n"
            "async def handler():\n"
            "    prepare()\n"
        )))
        assert len(found) == 1
        assert "warmup_kernels" in found[0].message

    def test_flush_group_commit_on_the_loop_flagged(self):
        """The group-commit drain blocks on the in-flight fsync batch —
        a heavy call when reached from a serving coroutine."""
        found = active("loop-safety", (SERVE, (
            "async def handler(wal):\n"
            "    wal.flush_group_commit()\n"
        )))
        assert len(found) == 1
        assert "flush_group_commit" in found[0].message

    def test_flush_group_commit_in_sync_context_is_clean(self):
        found = active("loop-safety", (SERVE, (
            "def rotate(wal):\n"
            "    wal.flush_group_commit()\n"
            "    wal.rotate()\n"
        )))
        assert found == []

    def test_warmup_kernels_at_sync_startup_is_clean(self):
        # The supported pattern: warm up before the loop exists.
        found = active("loop-safety", (SERVE, (
            "from repro.storage.kernels import warmup_kernels\n"
            "def main():\n"
            "    warmup_kernels()\n"
            "async def handler():\n"
            "    return 1\n"
        )))
        assert found == []


class TestResourceRelease:
    def test_discarded_producer_result(self):
        found = active("resource-release", (CORE, (
            "def publish(table):\n"
            "    SharedMemoryTable.from_table(table)\n"
        )))
        assert len(found) == 1
        assert "discarded" in found[0].message

    def test_bound_but_never_released(self):
        found = active("resource-release", (CORE, (
            "def publish(table):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    return None\n"
        )))
        assert len(found) == 1
        assert "unreleased" in found[0].message

    def test_released_on_some_paths_only(self):
        found = active("resource-release", (CORE, (
            "def publish(table, c):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    if c:\n"
            "        shm.close()\n"
        )))
        assert len(found) == 1
        assert "on some path" in found[0].message

    def test_missing_error_edge_release(self):
        # shm.validate() is no hand-off (passing shm TO a call would be)
        # and can raise between acquisition and the close.
        found = active("resource-release", (CORE, (
            "def publish(table):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    shm.validate()\n"
            "    shm.close()\n"
        )))
        assert len(found) == 1
        assert "exception edges" in found[0].message

    def test_attempted_release_in_try_is_clean(self):
        # close() inside the try discharges on both of its own edges: a
        # raise *from the release call itself* is not a leak this rule
        # can assign to the caller.
        found = active("resource-release", (CORE, (
            "def publish(table):\n"
            "    try:\n"
            "        shm = SharedMemoryTable.from_table(table)\n"
            "        shm.close()\n"
            "    except ValueError:\n"
            "        pass\n"
        )))
        assert found == []

    def test_finally_release_is_clean(self):
        found = active("resource-release", (CORE, (
            "def publish(table, work):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    try:\n"
            "        work(shm)\n"
            "    finally:\n"
            "        shm.close()\n"
        )))
        assert found == []

    def test_ownership_handoff_is_clean(self):
        found = active("resource-release", (CORE, (
            "def make(table):\n"
            "    return SharedMemoryTable.from_table(table)\n"
            "class Holder:\n"
            "    def adopt(self, table):\n"
            "        self._shm = SharedMemoryTable.from_table(table)\n"
            "def pooled(table):\n"
            "    backend = ProcessBackend(table, workers=2)\n"
            "    backend.shutdown()\n"
            "def handed(table, sink):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    sink(shm)\n"
        )))
        assert found == []

    def test_nested_scope_capture_is_untracked(self):
        # A name referenced by a closure escapes this function's CFG; the
        # rule declines rather than guesses.
        found = active("resource-release", (CORE, (
            "def publish(table):\n"
            "    shm = SharedMemoryTable.from_table(table)\n"
            "    def finish():\n"
            "        shm.close()\n"
            "    return finish\n"
        )))
        assert found == []

    def test_wal_producer_is_tracked(self):
        found = active("resource-release", (CORE, (
            "def open_log(path):\n"
            "    wal = WriteAheadLog(path)\n"
            "    return None\n"
        )))
        assert len(found) == 1

    def test_process_backend_is_tracked(self):
        found = active("resource-release", (CORE, (
            "def pooled(table):\n"
            "    backend = ProcessBackend(table, workers=2)\n"
            "    return None\n"
        )))
        assert len(found) == 1

    def test_prepared_merge_is_not_a_resource(self):
        # A prepared merge holds a plain in-memory index: no pool, no shm.
        found = active("resource-release", (SERVE, (
            "async def merge(loop, index):\n"
            "    prepared = await loop.run_in_executor(None, index.prepare_merge)\n"
            "    direct = index.prepare_relayout([])\n"
            "    return None\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("resource-release", (CORE, (
            "def publish(table):\n"
            "    # repro: allow(resource-release)\n"
            "    SharedMemoryTable.from_table(table)\n"
        )))
        assert found == []
        assert len(suppressed) == 1


class TestAwaitAtomicity:
    def test_guarded_read_write_across_await(self):
        found = active("await-atomicity", (SERVE, (
            "class Batcher:\n"
            "    async def stop(self):\n"
            "        if self._task is None:\n"
            "            return\n"
            "        await self._task\n"
            "        self._task = None\n"
        )))
        assert len(found) == 1
        assert "_task" in found[0].message
        assert "await in between" in found[0].message

    def test_augassign_across_await(self):
        found = active("await-atomicity", (SERVE, (
            "class Counter:\n"
            "    async def bump(self, f):\n"
            "        self.total += await f()\n"
        )))
        assert len(found) == 1
        assert "total" in found[0].message

    def test_claim_then_await_is_clean(self):
        found = active("await-atomicity", (SERVE, (
            "class Batcher:\n"
            "    async def stop(self):\n"
            "        task, self._task = self._task, None\n"
            "        if task is None:\n"
            "            return\n"
            "        await task\n"
        )))
        assert found == []

    def test_write_before_await_is_clean(self):
        found = active("await-atomicity", (SERVE, (
            "class Batcher:\n"
            "    async def kick(self, f):\n"
            "        if self._task is None:\n"
            "            self._task = f()\n"
            "        await self._task\n"
        )))
        assert found == []

    def test_sync_methods_exempt(self):
        found = active("await-atomicity", (SERVE, (
            "class Batcher:\n"
            "    def stop(self, waiter):\n"
            "        if self._task is None:\n"
            "            return\n"
            "        waiter(self._task)\n"
            "        self._task = None\n"
        )))
        assert found == []

    def test_non_serve_packages_exempt(self):
        found = active("await-atomicity", (CORE, (
            "class Batcher:\n"
            "    async def stop(self):\n"
            "        if self._task is None:\n"
            "            return\n"
            "        await self._task\n"
            "        self._task = None\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("await-atomicity", (SERVE, (
            "class Batcher:\n"
            "    async def stop(self):\n"
            "        # repro: allow(await-atomicity)\n"
            "        if self._task is None:\n"
            "            return\n"
            "        await self._task\n"
            "        self._task = None\n"
        )))
        assert found == []
        assert len(suppressed) == 1


STORAGE = "src/repro/storage/mod.py"

_SYNCED_SAVE = (
    "class SnapshotWriter:\n"
    "    def save(self, io, tmp, final, directory, payload):\n"
    "        handle = io.open(tmp, 'wb')\n"
    "        io.write(handle, payload)\n"
    "        io.flush(handle)\n"
    "        io.fsync(handle)\n"
    "        handle.close()\n"
    "        io.replace(tmp, final)\n"
    "        io.fsync_dir(directory)\n"
)


class TestCrashOrdering:
    def test_rename_without_fsync(self):
        found = active("crash-ordering", (STORAGE, (
            "class SnapshotWriter:\n"
            "    def save(self, io, tmp, final, directory, payload):\n"
            "        handle = io.open(tmp, 'wb')\n"
            "        io.write(handle, payload)\n"
            "        handle.close()\n"
            "        io.replace(tmp, final)\n"
            "        io.fsync_dir(directory)\n"
        )))
        assert len(found) == 1
        assert "without an fsync" in found[0].message

    def test_fsync_on_one_branch_only(self):
        found = active("crash-ordering", (STORAGE, (
            "class SnapshotWriter:\n"
            "    def save(self, io, tmp, final, directory, payload, fast):\n"
            "        handle = io.open(tmp, 'wb')\n"
            "        io.write(handle, payload)\n"
            "        if not fast:\n"
            "            io.fsync(handle)\n"
            "        handle.close()\n"
            "        io.replace(tmp, final)\n"
            "        io.fsync_dir(directory)\n"
        )))
        assert len(found) == 1
        assert "every path" in found[0].message

    def test_write_after_fsync_invalidates_it(self):
        found = active("crash-ordering", (STORAGE, (
            "class SnapshotWriter:\n"
            "    def save(self, io, tmp, final, directory, payload):\n"
            "        handle = io.open(tmp, 'wb')\n"
            "        io.write(handle, payload)\n"
            "        io.fsync(handle)\n"
            "        io.write(handle, payload)\n"
            "        handle.close()\n"
            "        io.replace(tmp, final)\n"
            "        io.fsync_dir(directory)\n"
        )))
        assert len(found) == 1

    def test_rename_without_dir_fsync(self):
        # Both the tmp-file creation and the rename owe a directory
        # fsync; neither is paid, so both obligations report.
        found = active("crash-ordering", (STORAGE, (
            "class SnapshotWriter:\n"
            "    def save(self, io, tmp, final, payload):\n"
            "        handle = io.open(tmp, 'wb')\n"
            "        io.write(handle, payload)\n"
            "        io.fsync(handle)\n"
            "        handle.close()\n"
            "        io.replace(tmp, final)\n"
        )))
        assert len(found) == 2
        assert all("fsync_dir" in f.message for f in found)

    def test_canonical_sequence_is_clean(self):
        found = active("crash-ordering", (STORAGE, _SYNCED_SAVE))
        assert found == []

    def test_prune_before_snapshot(self):
        found = active("crash-ordering", (STORAGE, (
            "class Checkpointer:\n"
            "    def checkpoint(self, wal):\n"
            "        wal.prune()\n"
            "        self.write_snapshot()\n"
        )))
        assert len(found) == 1
        assert "prune" in found[0].message

    def test_snapshot_then_prune_is_clean(self):
        found = active("crash-ordering", (STORAGE, (
            "class Checkpointer:\n"
            "    def checkpoint(self, wal):\n"
            "        self.write_snapshot()\n"
            "        wal.prune()\n"
        )))
        assert found == []

    def test_str_replace_is_not_a_rename(self):
        found = active("crash-ordering", (STORAGE, (
            "def normalize(dtype):\n"
            "    return dtype.str.replace('>', '<')\n"
        )))
        assert found == []

    def test_io_classes_are_the_seam(self):
        # Classes named *IO implement the raw syscalls themselves; the
        # ordering obligations live in their callers.
        found = active("crash-ordering", (STORAGE, (
            "import os\n"
            "class StorageIO:\n"
            "    def replace(self, src, dst):\n"
            "        os.replace(src, dst)\n"
        )))
        assert found == []

    def test_suppression(self):
        # Deliberately unsynced rename (anchor: the replace line) with a
        # waiver; the dirsync obligations are paid so only that finding
        # exists, and it is suppressed.
        found, suppressed = check("crash-ordering", (STORAGE, (
            "class SnapshotWriter:\n"
            "    def save(self, io, tmp, final, directory, payload):\n"
            "        handle = io.open(tmp, 'wb')\n"
            "        io.write(handle, payload)\n"
            "        handle.close()\n"
            "        io.replace(tmp, final)  # repro: allow(crash-ordering)\n"
            "        io.fsync_dir(directory)\n"
        )))
        assert found == []
        assert len(suppressed) == 1


class TestGenerationDiscipline:
    def test_make_key_without_generation(self):
        found = active("generation-discipline", (SERVE, (
            "def key_for(cache, query):\n"
            "    return cache.make_key(query, 'count', None)\n"
        )))
        assert len(found) == 1
        assert "stale" in found[0].message

    def test_generation_kwarg_is_clean(self):
        found = active("generation-discipline", (SERVE, (
            "def key_for(cache, query, index):\n"
            "    a = cache.make_key(query, generation=index.generation)\n"
            "    b = cache.make_key(query, index=index)\n"
            "    c = cache.make_key(query, 'count', None, 3)\n"
            "    return a, b, c\n"
        )))
        assert found == []

    def test_hand_built_cache_key_tuple_warns(self):
        found = active("generation-discipline", (SERVE, (
            "def remember(self, query, value):\n"
            "    self.cache.put((query, 'count'), value)\n"
        )))
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_put_of_prebuilt_key_is_clean(self):
        found = active("generation-discipline", (SERVE, (
            "def remember(self, key, value):\n"
            "    self.cache.put(key, value)\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("generation-discipline", (SERVE, (
            "def key_for(cache, query):\n"
            "    return cache.make_key(query)  # repro: allow(generation-discipline)\n"
        )))
        assert found == []
        assert len(suppressed) == 1


class TestStrictJson:
    def test_bare_dumps_and_loads_flagged(self):
        found = active("strict-json", (SERVE, (
            "import json\n"
            "def encode(x):\n"
            "    return json.dumps(x)\n"
            "def decode(s):\n"
            "    return json.loads(s)\n"
        )))
        assert [f.line for f in found] == [3, 5]

    def test_explicit_allow_nan_true_still_flagged(self):
        found = active("strict-json", (SERVE, (
            "import json\n"
            "def encode(x):\n"
            "    return json.dumps(x, allow_nan=True)\n"
        )))
        assert len(found) == 1

    def test_strict_call_forms_are_clean(self):
        found = active("strict-json", (SERVE, (
            "import json\n"
            "def encode(x):\n"
            "    return json.dumps(x, allow_nan=False)\n"
            "def decode(s, reject):\n"
            "    return json.loads(s, parse_constant=reject)\n"
        )))
        assert found == []

    def test_only_serve_package_is_scoped(self):
        found = active("strict-json", (CORE, (
            "import json\n"
            "def encode(x):\n"
            "    return json.dumps(x)\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("strict-json", (SERVE, (
            "import json\n"
            "def encode(x):\n"
            "    return json.dumps(x)  # repro: allow(strict-json)\n"
        )))
        assert found == []
        assert len(suppressed) == 1


VISITOR_BASE = (
    "class Visitor:\n"
    "    pass\n"
)


class TestVisitorProtocol:
    def test_fresh_without_merge(self):
        found = active("visitor-protocol", (CORE, VISITOR_BASE + (
            "class Partial(Visitor):\n"
            "    def fresh(self):\n"
            "        return Partial()\n"
        )))
        assert len(found) == 1
        assert "not merge" in found[0].message

    def test_merge_without_fresh(self):
        found = active("visitor-protocol", (CORE, VISITOR_BASE + (
            "class Partial(Visitor):\n"
            "    def merge(self, other):\n"
            "        pass\n"
        )))
        assert len(found) == 1
        assert "not fresh" in found[0].message

    def test_required_init_args_need_fresh_and_reset_overrides(self):
        found = active("visitor-protocol", (CORE, VISITOR_BASE + (
            "class CountVisitor(Visitor):\n"
            "    def fresh(self):\n"
            "        return CountVisitor()\n"
            "    def merge(self, other):\n"
            "        pass\n"
            "class WindowedVisitor(CountVisitor):\n"
            "    def __init__(self, width):\n"
            "        self.width = width\n"
        )))
        messages = " | ".join(f.message for f in found)
        assert len(found) == 2
        assert "reset()" in messages and "fresh()" in messages

    def test_dtype_truncation_warns(self):
        found = active("visitor-protocol", (CORE, VISITOR_BASE + (
            "class SumVisitor(Visitor):\n"
            "    def fresh(self):\n"
            "        return SumVisitor()\n"
            "    def merge(self, other):\n"
            "        self.total += other.total\n"
            "    def visit(self, values):\n"
            "        self.total += int(values.sum())\n"
        )))
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert ".item()" in found[0].fix_hint

    def test_complete_protocol_is_clean(self):
        found = active("visitor-protocol", (CORE, VISITOR_BASE + (
            "class SumVisitor(Visitor):\n"
            "    def __init__(self, dim='x'):\n"
            "        self.dim = dim\n"
            "        self.total = 0\n"
            "    def fresh(self):\n"
            "        return SumVisitor(self.dim)\n"
            "    def merge(self, other):\n"
            "        self.total += other.total\n"
            "    def visit(self, values):\n"
            "        self.total += values.sum().item()\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("visitor-protocol", (CORE, VISITOR_BASE + (
            "# repro: allow(visitor-protocol)\n"
            "class Partial(Visitor):\n"
            "    def fresh(self):\n"
            "        return Partial()\n"
        )))
        assert found == []
        assert len(suppressed) == 1


class TestWriteBarrier:
    def test_inline_insert_in_async_def(self):
        found = active("write-barrier", (SERVE, (
            "async def handle(self, row):\n"
            "    self.index.insert(row)\n"
        )))
        assert len(found) == 1
        assert "insert" in found[0].message

    def test_direct_generation_poke(self):
        found = active("write-barrier", (SERVE, (
            "async def bump(index):\n"
            "    index.generation += 1\n"
        )))
        assert len(found) == 1
        assert "generation" in found[0].message

    def test_barrier_closure_is_clean(self):
        found = active("write-barrier", (SERVE, (
            "async def handle(self, row):\n"
            "    index = self.index\n"
            "    def write():\n"
            "        index.insert(row)\n"
            "    await self.batcher.submit_write(write)\n"
        )))
        assert found == []

    def test_sync_code_and_other_packages_unscoped(self):
        found = active("write-barrier", (CORE, (
            "async def handle(self, row):\n"
            "    self.index.insert(row)\n"
        )), (SERVE, (
            "def handle(self, row):\n"
            "    self.index.insert(row)\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("write-barrier", (SERVE, (
            "async def handle(self, row):\n"
            "    self.index.insert(row)  # repro: allow(write-barrier)\n"
        )))
        assert found == []
        assert len(suppressed) == 1


class TestDurabilityAck:
    def test_ack_before_insert_flagged(self):
        found = active("durability-ack", (SERVE, (
            "async def handle(self, writer, row, reply):\n"
            "    writer.write(reply)\n"
            "    await writer.drain()\n"
            "    self.index.insert(row)\n"
        )))
        # Both the write and the drain precede the mutation.
        assert len(found) == 2
        assert found[0].line == 2
        assert "ack" in found[0].message

    def test_ack_before_submit_write_flagged(self):
        found = active("durability-ack", (SERVE, (
            "async def handle(self, sock, write, reply):\n"
            "    sock.sendall(reply)\n"
            "    await self.batcher.submit_write(write)\n"
        )))
        assert len(found) == 1
        assert "submit_write" in found[0].message

    def test_write_then_ack_is_clean(self):
        found = active("durability-ack", (SERVE, (
            "async def handle(self, writer, row, reply):\n"
            "    self.index.insert(row)\n"
            "    writer.write(reply)\n"
            "    await writer.drain()\n"
        )))
        assert found == []

    def test_nested_mutation_inside_send_is_clean(self):
        # await send(await self._handle_request(...)) positions the send
        # first textually, but the mutation resolves before the send runs.
        found = active("durability-ack", (SERVE, (
            "async def serve_query(self, send, message):\n"
            "    await send(await self.mutable.apply_insert(message))\n"
        )))
        assert found == []

    def test_storage_layer_writes_unscoped(self):
        # A WAL handle's .write() is not a wire ack; only writer-ish
        # receivers and socket sends count as acks.
        found = active("durability-ack", (SERVE, (
            "async def handle(self, handle, row):\n"
            "    self.io.write(handle, b'frame')\n"
            "    self.index.insert(row)\n"
        )), (CORE, (
            "async def handle(self, writer, row, reply):\n"
            "    writer.write(reply)\n"
            "    self.index.insert(row)\n"
        )))
        assert found == []

    def test_suppression(self):
        found, suppressed = check("durability-ack", (SERVE, (
            "async def handle(self, writer, row, reply):\n"
            "    writer.write(reply)  # repro: allow(durability-ack)\n"
            "    self.index.insert(row)\n"
        )))
        assert found == []
        assert len(suppressed) == 1
