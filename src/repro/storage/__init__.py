"""In-memory column store substrate (paper Section 7.1).

Every index in this repository — Flood and all baselines — executes on this
store, mirroring the paper's methodology ("each implemented on the same
column store and using the same optimizations where applicable"):

- :mod:`repro.storage.column` -- block-delta compressed columns (128-value
  blocks, each value encoded as a delta to its block minimum) with
  constant-time element access.
- :mod:`repro.storage.dictionary` -- order-preserving dictionary encoding
  for string attributes.
- :mod:`repro.storage.scaling` -- decimal scaling of floats to int64.
- :mod:`repro.storage.table` -- the table abstraction: named columns, row
  permutation (clustering), and cumulative-aggregate companion columns.
- :mod:`repro.storage.visitor` -- aggregation visitors (COUNT / SUM / AVG /
  MIN / MAX / collect) accumulated during scans, with the mergeable
  protocol (``fresh`` / ``merge``) sharded scans ship partial aggregates
  through.
- :mod:`repro.storage.scan` -- the scan-and-filter kernel, including the
  exact-range optimization that skips per-value checks.
- :mod:`repro.storage.shm` -- the table mirrored into
  ``multiprocessing.shared_memory`` so worker processes scan zero-copy.
- :mod:`repro.storage.wal` -- the segmented, CRC-framed write-ahead log
  the durability tier appends every insert to before acknowledging it.
- :mod:`repro.storage.snapshot` -- atomic (write-tmp-then-rename)
  snapshots of the clustered table + learned layout, taken after each
  committed merge so restarts are warm.
"""

from repro.storage.column import CompressedColumn, BLOCK_SIZE
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.scaling import DecimalScaler
from repro.storage.scan import scan_range
from repro.storage.shm import SharedMemoryTable, ShmTableHandle
from repro.storage.snapshot import Snapshot, has_snapshot, load_snapshot, write_snapshot
from repro.storage.table import Table
from repro.storage.wal import (
    StorageIO,
    WalRecord,
    WriteAheadLog,
    encode_record,
    scan_records,
)
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
    Visitor,
)

__all__ = [
    "CompressedColumn",
    "BLOCK_SIZE",
    "DictionaryEncoder",
    "DecimalScaler",
    "scan_range",
    "Table",
    "SharedMemoryTable",
    "ShmTableHandle",
    "StorageIO",
    "WriteAheadLog",
    "WalRecord",
    "encode_record",
    "scan_records",
    "Snapshot",
    "has_snapshot",
    "load_snapshot",
    "write_snapshot",
    "Visitor",
    "CountVisitor",
    "SumVisitor",
    "AvgVisitor",
    "MinVisitor",
    "MaxVisitor",
    "CollectVisitor",
]
