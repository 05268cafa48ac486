"""Column arrays in OS shared memory, for zero-copy multi-process scans.

The process-pool sharded scan (:mod:`repro.core.shard`) runs one
query's shard scans on worker *processes*, so the CPU-bound parts of a
scan — residual-mask evaluation, visitor accumulation — escape the GIL.
That only pays off if the workers do not have to deserialize the table:
pickling even one column of a bench-scale table costs more than the scan
it parallelizes.

:class:`SharedMemoryTable` solves this by placing every column (and every
cumulative-aggregate companion column) in ``multiprocessing.shared_memory``
segments. The owning process pays one copy at construction; worker
processes then :meth:`~SharedMemoryTable.attach` numpy views directly onto
the shared pages via a tiny picklable :class:`ShmTableHandle` — no column
bytes ever cross the process boundary. Slice access (``values``) returns
views of the shared pages, so the scan kernels in
:mod:`repro.storage.scan` read shared memory with zero copies.

Lifecycle: POSIX shared memory outlives the process that created it
unless explicitly unlinked, so leak-freedom is a contract here, not an
accident. Every segment this module *creates* is tracked in a
process-local registry and unlinked either by
:meth:`SharedMemoryTable.unlink` (``ProcessBackend.shutdown`` calls it) or
by the ``atexit`` sweep — whichever comes first; both are idempotent.
Neither helps against ``kill -9`` (no atexit runs), so segment names
embed the owning pid (``repro-<pid>-<token>``) and
:func:`sweep_stale_segments` unlinks any ``repro``-prefixed segment
whose owner is no longer alive — the serving fleet runs it at startup,
so a SIGKILLed fleet cannot leak ``/dev/shm`` across restarts.
"""

from __future__ import annotations

import atexit
import os
import re
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import SchemaError
from repro.storage.table import Table

#: Segments created (not merely attached) by this process, by name.
#: The atexit sweep unlinks whatever is still registered, so a process
#: that forgets to call ``unlink()`` cannot leak segments past its exit.
_OWNED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _register_owned(segment: shared_memory.SharedMemory) -> None:
    _OWNED_SEGMENTS[segment.name] = segment


def _unlink_owned(name: str) -> None:
    segment = _OWNED_SEGMENTS.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # live views; the memory still unlinks below
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # already unlinked elsewhere
        pass


def _cleanup_all_owned() -> None:
    """The ``atexit`` sweep: unlink every still-registered segment."""
    for name in list(_OWNED_SEGMENTS):
        _unlink_owned(name)


atexit.register(_cleanup_all_owned)


def owned_segment_names() -> list[str]:
    """Names of shm segments this process created and has not yet unlinked
    (exposed so the leak tests can assert emptiness after shutdown)."""
    return sorted(_OWNED_SEGMENTS)


#: Owner-pid-embedded segment name (the pid is what lets the sweep
#: decide liveness); the legacy pidless form is matched too so a sweep
#: after an upgrade still reclaims segments an old process leaked.
_SEGMENT_NAME_RE = re.compile(r"^repro-(?:(\d+)-)?[0-9a-f]{16}$")


def _new_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh named segment: collision-resistant, owner-pid-embedded."""
    name = f"repro-{os.getpid()}-{secrets.token_hex(8)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
    _register_owned(segment)
    return segment


def sweep_stale_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink ``repro``-prefixed segments whose owning process is dead.

    The registry + ``atexit`` sweep cover every *clean* exit; a SIGKILL
    (crash-fault harness, ``kill -9`` on a fleet process) skips both and
    leaves the segment in ``/dev/shm`` forever. This startup sweep scans
    the shm filesystem for our naming pattern, extracts the embedded
    owner pid, and unlinks segments whose owner no longer exists.
    Legacy pidless names (no embedded pid) are unlinked too — nothing
    running can own one. Segments owned by a *live* process (including
    this one) are left alone, as is every foreign name. Returns the
    names unlinked; a missing ``shm_dir`` (non-Linux) returns ``[]``.
    """
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    removed: list[str] = []
    for name in names:
        match = _SEGMENT_NAME_RE.match(name)
        if match is None:
            continue
        pid = match.group(1)
        if pid is not None:
            pid = int(pid)
            if pid == os.getpid():
                continue
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                pass  # owner is gone: stale
            except OSError:
                continue  # exists but not ours to signal: alive
            else:
                continue  # alive
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        except (FileNotFoundError, OSError):
            continue  # raced with another sweep, or not really a segment
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):
            continue
        removed.append(name)
    return removed


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python's ``resource_tracker`` (before 3.13's ``track=False``) also
    registers *attachments*; that is harmless here — worker processes
    share the owner's tracker (it is inherited across fork/spawn), where
    re-registering an already-tracked name is a no-op and cleanup only
    runs once every tracked process has exited. Explicitly unregistering
    would instead erase the *owner's* registration and double-unlink.
    """
    return shared_memory.SharedMemory(name=name, create=False)


@dataclass(frozen=True)
class ShmTableHandle:
    """The picklable identity of a :class:`SharedMemoryTable`.

    Only names, lengths, and dtypes — a handle is a few hundred bytes no
    matter how large the table, which is what makes per-worker attach
    cheap. ``columns`` and ``cumulative`` map dimension name to
    ``(segment name, element count, dtype string)``.
    """

    num_rows: int
    columns: tuple[tuple[str, str, int, str], ...]
    cumulative: tuple[tuple[str, str, int, str], ...]


class SharedMemoryTable(Table):
    """A :class:`~repro.storage.table.Table` whose arrays live in shared
    memory segments.

    Construct with :meth:`from_table` (the owner: copies the source
    table's decoded columns into fresh segments) or :meth:`attach` (a
    view: maps an owner's segments by name, zero-copy). Both variants
    behave exactly like an uncompressed ``Table`` — ``values`` returns
    dtype-preserving views of the shared pages, ``cumulative_sum``
    answers from the shared prefix arrays — so every scan kernel and
    visitor works unchanged.
    """

    def __init__(self, *_args, **_kwargs):
        raise SchemaError(
            "use SharedMemoryTable.from_table(table) or "
            "SharedMemoryTable.attach(handle)"
        )

    @classmethod
    def _construct(
        cls,
        columns: dict[str, np.ndarray],
        cumulative: dict[str, np.ndarray],
        segments: list[shared_memory.SharedMemory],
        num_rows: int,
        owner: bool,
    ) -> "SharedMemoryTable":
        self = object.__new__(cls)
        # Mirror Table.__init__'s uncompressed layout without re-copying:
        # the arrays are already int64 views over the shm buffers.
        self.num_rows = num_rows
        self.compressed = False
        self._columns = columns
        self._cumulative = cumulative
        self._segments = segments
        self._owner = owner
        return self

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def from_table(cls, table: Table) -> "SharedMemoryTable":
        """Copy ``table`` (columns + cumulative companions) into shared
        memory; the one copy the zero-copy workers amortize.

        The returned table owns its segments: :meth:`unlink` (or the
        ``atexit`` sweep) releases them.
        """
        if table.num_rows == 0:
            raise SchemaError("cannot share an empty table")
        segments: list[shared_memory.SharedMemory] = []
        columns: dict[str, np.ndarray] = {}
        cumulative: dict[str, np.ndarray] = {}
        for dim in table.dims:
            columns[dim] = cls._share_array(table.values(dim), segments)
        for dim in table.dims:
            if table.has_cumulative(dim):
                prefix = table._cumulative[dim]
                cumulative[dim] = cls._share_array(prefix, segments)
        return cls._construct(columns, cumulative, segments, table.num_rows, owner=True)

    @staticmethod
    def _share_array(
        values: np.ndarray, segments: list[shared_memory.SharedMemory]
    ) -> np.ndarray:
        # Preserve the column dtype (int64 or float64; Table guarantees
        # one of the two) — forcing int64 here would silently truncate
        # float columns on their way into shared memory.
        values = np.ascontiguousarray(values)
        segment = _new_segment(values.nbytes)
        segments.append(segment)
        view = np.ndarray(values.shape, dtype=values.dtype, buffer=segment.buf)
        view[:] = values
        return view

    @property
    def handle(self) -> ShmTableHandle:
        """The picklable descriptor workers attach through."""
        return ShmTableHandle(
            num_rows=self.num_rows,
            columns=tuple(
                (dim, seg.name, arr.size, arr.dtype.str)
                for (dim, arr), seg in zip(self._columns.items(), self._segments)
            ),
            cumulative=tuple(
                (dim, seg.name, arr.size, arr.dtype.str)
                for (dim, arr), seg in zip(
                    self._cumulative.items(), self._segments[len(self._columns):]
                )
            ),
        )

    @classmethod
    def attach(cls, handle: ShmTableHandle) -> "SharedMemoryTable":
        """Map an owner's segments by name; zero-copy, read-only views.

        Raises ``FileNotFoundError`` when the owner has already unlinked
        (the leak tests rely on exactly that signal).
        """
        segments: list[shared_memory.SharedMemory] = []
        columns: dict[str, np.ndarray] = {}
        cumulative: dict[str, np.ndarray] = {}
        try:
            for dim, name, size, dtype in handle.columns:
                columns[dim] = cls._attach_array(name, size, dtype, segments)
            for dim, name, size, dtype in handle.cumulative:
                cumulative[dim] = cls._attach_array(name, size, dtype, segments)
        except FileNotFoundError:
            for segment in segments:
                segment.close()
            raise
        return cls._construct(
            columns, cumulative, segments, handle.num_rows, owner=False
        )

    @staticmethod
    def _attach_array(
        name: str, size: int, dtype: str, segments: list[shared_memory.SharedMemory]
    ) -> np.ndarray:
        segment = _attach_segment(name)
        segments.append(segment)
        view = np.ndarray((size,), dtype=np.dtype(dtype), buffer=segment.buf)
        view.flags.writeable = False  # workers scan; they never mutate
        return view

    # ------------------------------------------------------------------ table
    def add_cumulative(self, name: str) -> None:
        """Add a prefix-sum companion column, itself in shared memory.

        Only meaningful on the owner, and only *before* handing the handle
        to a worker pool — a handle is a snapshot, so workers attached
        earlier will not see the new column (they fall back to scanning,
        which stays correct, just slower).
        """
        if not self._owner:
            raise SchemaError("add_cumulative on an attached SharedMemoryTable view")
        self._require(name)
        prefix = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(self.values(name), out=prefix[1:])
        self._cumulative[name] = self._share_array(prefix, self._segments)

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Drop this process's views and mappings (idempotent).

        Does not unlink: other attached processes keep working. An owner
        normally calls :meth:`unlink` instead, which implies close.
        """
        # numpy views pin the shm buffers; drop them before closing or
        # SharedMemory.close() raises BufferError on the exported pages.
        self._columns = {}
        self._cumulative = {}
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # a caller still holds a view; skip
                pass
        self._segments = []

    def unlink(self) -> None:
        """Release the shared segments system-wide (owner only, idempotent).

        After this, :meth:`attach` on the old handle raises
        ``FileNotFoundError``; processes already attached keep valid
        mappings until they close (POSIX semantics).
        """
        if not self._owner:
            raise SchemaError("unlink on an attached SharedMemoryTable view")
        names = [segment.name for segment in self._segments]
        self.close()
        for name in names:
            _unlink_owned(name)

    def size_bytes(self) -> int:
        """Footprint of the shared segments (uncompressed int64 arrays)."""
        total = sum(arr.nbytes for arr in self._columns.values())
        total += sum(arr.nbytes for arr in self._cumulative.values())
        return int(total)
