"""Aggregation visitors accumulated during scans.

Paper Appendix A: "the user provides ... a Visitor object which will
accumulate the statistic of the aggregation." A visitor receives physical
ranges plus an optional match mask (``None`` means the range is *exact*:
every row matches the filter, enabling the paper's exact-range
optimizations — skipping per-value checks and, for SUM/COUNT, answering
from cumulative-aggregate columns without touching the data at all).

Parallel scans add a second contract, the **mergeable-visitor protocol**:
a visitor that implements both :meth:`Visitor.fresh` (a new empty visitor
of the same configuration) and :meth:`Visitor.merge` (fold another
instance's partial aggregate into this one) lets the sharded scan in
:mod:`repro.core.shard` give each worker process its own private visitor
and combine the compact partial aggregates afterwards, in deterministic
storage (shard) order. Workers then ship back a handful of counters
instead of recorded ``(start, stop, mask)`` lists. Visitors that
implement neither are still fully supported — the sharded scan falls
back to :class:`RecordingVisitor` replay, which works for arbitrary
visitors.

The built-in aggregates also take a whole run group at once:
:meth:`CountVisitor.visit_rows` and its siblings consume the ascending
row ids of a group's matches, so the classic scan
(:func:`repro.storage.scan.scan_runs`) feeds them one call per group
instead of one :meth:`Visitor.visit` per run. The scan matches them by
exact type; a subclass may override ``visit`` and keeps every call.

Aggregates preserve the column dtype: SUM/MIN/MAX accumulate through
numpy scalars (``.item()``), so float-valued tables (anything duck-typing
``Table`` with float columns) aggregate exactly instead of being silently
truncated to int.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np


def fold_min(prev, local):
    """Order-independent running MIN: NaN on either side wins.

    Python's ``min(a, b)`` returns ``a`` whenever the comparison with a
    NaN is False, so a NaN partial would survive or vanish depending on
    *which run delivered it first* — and coalescing, sharding, and the
    fused kernels all change run boundaries. Propagating NaN from either
    side (numpy reduction semantics) makes MIN/MAX deterministic across
    every scan path. ``prev`` may be ``None`` (no rows seen yet).
    """
    if prev is None:
        return local
    if local != local or prev != prev:  # NaN-aware without importing math
        return float("nan")
    return min(prev, local)


def fold_max(prev, local):
    """Order-independent running MAX: NaN on either side wins."""
    if prev is None:
        return local
    if local != local or prev != prev:
        return float("nan")
    return max(prev, local)


def is_mergeable(visitor: "Visitor") -> bool:
    """Whether ``visitor`` implements the mergeable-visitor protocol
    (both :meth:`Visitor.fresh` and :meth:`Visitor.merge` overridden)."""
    cls = type(visitor)
    return cls.fresh is not Visitor.fresh and cls.merge is not Visitor.merge


class Visitor(ABC):
    """Accumulates an aggregate over the rows fed to :meth:`visit`."""

    @abstractmethod
    def visit(self, table, start: int, stop: int, mask: np.ndarray | None) -> None:
        """Consume rows ``[start, stop)``; ``mask`` selects matches (None = all)."""

    @property
    @abstractmethod
    def result(self):
        """The accumulated aggregate."""

    def reset(self) -> None:
        """Restore the initial state so the visitor can be reused.

        The default re-invokes ``__init__`` — but only when that is
        provably safe (no required constructor arguments). A subclass
        whose constructor takes required arguments must override
        ``reset``; forgetting to used to explode with a bare
        ``TypeError`` deep inside reuse paths, so it is diagnosed here.
        """
        init = type(self).__init__
        required = [
            name
            for name, param in inspect.signature(init).parameters.items()
            if name != "self"
            and param.default is inspect.Parameter.empty
            and param.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        if required:
            raise NotImplementedError(
                f"{type(self).__name__}.__init__ requires {required}; "
                "override reset() to restore initial state"
            )
        init(self)

    # ------------------------------------------------- mergeable protocol
    def fresh(self) -> "Visitor":
        """A new *empty* visitor with this one's configuration.

        Part of the mergeable protocol; the default marks the visitor
        non-mergeable (sharded scans fall back to recording + replay).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the mergeable protocol"
        )

    def merge(self, other: "Visitor") -> None:
        """Fold ``other``'s partial aggregate into this visitor.

        ``other`` is always a :meth:`fresh` sibling fed a disjoint,
        earlier-or-later span of the scan; sharded scans merge in storage
        (shard) order, so order-sensitive visitors stay deterministic.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the mergeable protocol"
        )


class CountVisitor(Visitor):
    """COUNT(*) over matching rows."""

    def __init__(self):
        self.count = 0

    def reset(self) -> None:
        self.count = 0

    def visit(self, table, start, stop, mask):
        if mask is None:
            self.count += stop - start
        else:
            self.count += int(np.count_nonzero(mask))

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self.count += rows.size

    def fresh(self) -> "CountVisitor":
        return type(self)()

    def merge(self, other: "CountVisitor") -> None:
        self.count += other.count

    @property
    def result(self) -> int:
        return self.count


class SumVisitor(Visitor):
    """SUM(dim) over matching rows.

    For exact ranges on tables with a cumulative column for ``dim``, the sum
    is answered in O(1) from the prefix sums (paper Section 7.1, optimization
    2); ``cumulative_hits`` counts how often that fast path fired.
    """

    def __init__(self, dim: str, use_cumulative: bool = True):
        self.dim = dim
        self.use_cumulative = use_cumulative
        self.total = 0
        self.cumulative_hits = 0

    def reset(self) -> None:
        self.total = 0
        self.cumulative_hits = 0

    def visit(self, table, start, stop, mask):
        if mask is None:
            if self.use_cumulative and table.has_cumulative(self.dim):
                self.total += table.cumulative_sum(self.dim, start, stop)
                self.cumulative_hits += 1
                return
            # .item() keeps the column's dtype: int columns stay exact
            # python ints, float columns stay floats (no truncation).
            self.total += table.values(self.dim, start, stop).sum().item()
        else:
            values = table.values(self.dim, start, stop)
            self.total += values[mask].sum().item()

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self.total += table.take(self.dim, rows).sum().item()

    def fresh(self) -> "SumVisitor":
        return type(self)(self.dim, self.use_cumulative)

    def merge(self, other: "SumVisitor") -> None:
        self.total += other.total
        self.cumulative_hits += other.cumulative_hits

    @property
    def result(self):
        return self.total


class AvgVisitor(Visitor):
    """AVG(dim) over matching rows (None when no rows match)."""

    def __init__(self, dim: str):
        self.dim = dim
        self._sum = SumVisitor(dim)
        self._count = CountVisitor()

    def reset(self) -> None:
        self._sum.reset()
        self._count.reset()

    def visit(self, table, start, stop, mask):
        self._sum.visit(table, start, stop, mask)
        self._count.visit(table, start, stop, mask)

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self._sum.visit_rows(table, rows)
        self._count.visit_rows(table, rows)

    def fresh(self) -> "AvgVisitor":
        return type(self)(self.dim)

    def merge(self, other: "AvgVisitor") -> None:
        self._sum.merge(other._sum)
        self._count.merge(other._count)

    @property
    def result(self):
        if self._count.result == 0:
            return None
        return self._sum.result / self._count.result


class MinVisitor(Visitor):
    """MIN(dim) over matching rows (None when no rows match)."""

    def __init__(self, dim: str):
        self.dim = dim
        self._min = None

    def reset(self) -> None:
        self._min = None

    def visit(self, table, start, stop, mask):
        values = table.values(self.dim, start, stop)
        if mask is not None:
            values = values[mask]
        if values.size:
            local = values.min().item()  # dtype-preserving (no int truncation)
            self._min = fold_min(self._min, local)

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self._min = fold_min(self._min, table.take(self.dim, rows).min().item())

    def fresh(self) -> "MinVisitor":
        return type(self)(self.dim)

    def merge(self, other: "MinVisitor") -> None:
        if other._min is not None:
            self._min = fold_min(self._min, other._min)

    @property
    def result(self):
        return self._min


class MaxVisitor(Visitor):
    """MAX(dim) over matching rows (None when no rows match)."""

    def __init__(self, dim: str):
        self.dim = dim
        self._max = None

    def reset(self) -> None:
        self._max = None

    def visit(self, table, start, stop, mask):
        values = table.values(self.dim, start, stop)
        if mask is not None:
            values = values[mask]
        if values.size:
            local = values.max().item()  # dtype-preserving (no int truncation)
            self._max = fold_max(self._max, local)

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self._max = fold_max(self._max, table.take(self.dim, rows).max().item())

    def fresh(self) -> "MaxVisitor":
        return type(self)(self.dim)

    def merge(self, other: "MaxVisitor") -> None:
        if other._max is not None:
            self._max = fold_max(self._max, other._max)

    @property
    def result(self):
        return self._max


class RecordingVisitor(Visitor):
    """Captures ``visit`` calls verbatim for later replay.

    The any-visitor fallback of the sharded scan: each shard's worker
    records the expensive part of the scan (column decode + residual
    masking) here, then the recorded ``(start, stop, mask)`` triples are
    replayed into the caller's real visitor in storage order — any
    visitor works unchanged, and the visit sequence the caller observes
    is deterministic regardless of worker scheduling.
    """

    def __init__(self):
        self.visits: list[tuple[int, int, np.ndarray | None]] = []

    def reset(self) -> None:
        self.visits = []

    def visit(self, table, start, stop, mask):
        self.visits.append((start, stop, mask))

    def replay(self, table, visitor: Visitor) -> None:
        """Re-issue every recorded visit against ``visitor``, in order."""
        for start, stop, mask in self.visits:
            visitor.visit(table, start, stop, mask)

    def fresh(self) -> "RecordingVisitor":
        return type(self)()

    def merge(self, other: "RecordingVisitor") -> None:
        self.visits.extend(other.visits)

    @property
    def result(self) -> list:
        """The recorded ``(start, stop, mask)`` triples."""
        return self.visits


class CollectVisitor(Visitor):
    """Collects the physical row ids of matching rows.

    The result is sorted per visited range; across ranges the order follows
    visit order. Used heavily by the correctness tests to compare indexes
    against brute force (compare as sets or after sorting).
    """

    def __init__(self):
        self._chunks: list[np.ndarray] = []

    def reset(self) -> None:
        self._chunks = []

    def visit(self, table, start, stop, mask):
        if mask is None:
            self._chunks.append(np.arange(start, stop, dtype=np.int64))
        else:
            self._chunks.append(np.nonzero(mask)[0].astype(np.int64) + start)

    def visit_rows(self, table, rows: np.ndarray) -> None:
        """Consume the matching rows ``rows`` (ascending int64 row ids, at
        least one)."""
        self._chunks.append(rows)

    def fresh(self) -> "CollectVisitor":
        return type(self)()

    def merge(self, other: "CollectVisitor") -> None:
        self._chunks.extend(other._chunks)

    @property
    def result(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._chunks)
