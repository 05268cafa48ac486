"""The queryable-index protocol the serving stack programs against.

Until this module existed, :class:`~repro.core.engine.BatchQueryEngine`
hard-required a :class:`~repro.core.index.FloodIndex`, which made the
whole serving stack read-only: :class:`~repro.core.delta.DeltaBufferedFlood`
(inserts) and any future index variant could not sit behind the engine,
the micro-batcher, or the TCP server. The stack is now polymorphic over
anything satisfying :class:`QueryableIndex`:

- ``query(query, visitor) -> QueryStats`` — the vectorized single-query
  path.
- ``query_percell(query, visitor) -> QueryStats`` — the seed's reference
  path, used as the identity oracle by tests and benchmarks.
- ``generation`` — monotonic table-content counter. Immutable indexes
  pin it at 0; mutable ones bump it on every insert/merge, and the
  serving result cache folds it into keys so a stale hit is impossible
  by construction.
- ``table`` — the built clustered table (raises
  :class:`~repro.errors.BuildError` before ``build()``).
- ``size_bytes()`` — index footprint, for the stats surface.

Known implementations: :class:`FloodIndex`,
:class:`~repro.core.shard.ShardedFloodIndex`, and
:class:`~repro.core.delta.DeltaBufferedFlood`.

:class:`MutableIndex` extends the protocol with the write surface
(``insert`` / ``insert_many`` / ``merge`` plus the buffered-row and
merge counters); :func:`supports_insert` is how the server decides
whether to accept ``insert`` ops on the wire.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import QueryError
from repro.query.predicate import Query
from repro.query.stats import QueryStats
from repro.storage.visitor import Visitor


@runtime_checkable
class QueryableIndex(Protocol):
    """Structural type of anything servable by engine/batcher/server."""

    generation: int

    @property
    def table(self): ...

    def query(self, query: Query, visitor: Visitor) -> QueryStats: ...

    def query_percell(self, query: Query, visitor: Visitor) -> QueryStats: ...

    def size_bytes(self) -> int: ...


@runtime_checkable
class MutableIndex(QueryableIndex, Protocol):
    """A queryable index that also accepts buffered inserts."""

    merges: int
    last_merge_seconds: float

    @property
    def buffered_rows(self) -> int: ...

    def insert(self, row: dict) -> None: ...

    def insert_many(self, rows: dict) -> None: ...

    def merge(self) -> None: ...


def require_queryable(index) -> None:
    """Validate ``index`` against :class:`QueryableIndex`, eagerly.

    Raises :class:`~repro.errors.QueryError` for structurally wrong
    objects (a baseline index, a layout, ...) and lets the index's own
    :class:`~repro.errors.BuildError` propagate when it exists but has
    not been built — touching ``.table`` is deliberate, so misuse fails
    at construction time instead of on the first served query.
    """
    missing = [
        name
        for name in ("query", "query_percell", "size_bytes")
        if not callable(getattr(index, name, None))
    ]
    if missing or not hasattr(index, "generation"):
        raise QueryError(
            f"{type(index).__name__} does not satisfy the queryable-index "
            "protocol (query/query_percell/generation/size_bytes); "
            "use FloodIndex, ShardedFloodIndex, or DeltaBufferedFlood"
        )
    index.table  # raises BuildError when not built


def supports_insert(index) -> bool:
    """Whether ``index`` exposes the mutable surface (duck-typed
    :class:`MutableIndex`); the server gates wire ``insert`` ops on it."""
    return all(
        callable(getattr(index, name, None))
        for name in ("insert", "insert_many", "merge")
    ) and hasattr(index, "buffered_rows")


def mutable_stats(index) -> dict:
    """The mutable-index counter block for the ``stats`` op.

    Zeros for immutable indexes, so operators see one stable shape
    (``buffered_rows`` / ``merges`` / ``last_merge_seconds`` /
    ``generation``) whatever is being served.
    """
    return {
        "generation": int(getattr(index, "generation", 0)),
        "buffered_rows": int(getattr(index, "buffered_rows", 0)),
        "merges": int(getattr(index, "merges", 0)),
        "last_merge_seconds": float(getattr(index, "last_merge_seconds", 0.0)),
        "retrains": int(getattr(index, "retrains", 0)),
    }
