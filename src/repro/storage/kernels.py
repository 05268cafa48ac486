"""Fused scan kernels: residual filter + aggregate in one compiled pass.

The classic scan path (:func:`repro.storage.scan.scan_runs`) builds a
boolean residual mask per run (on the compressed columns' delta codes
where runs are long), turns it into matching row ids, and feeds the
built-in visitors one ``take`` of the aggregate column per run group.
For the aggregates that dominate the paper's workloads
(COUNT/SUM/AVG/MIN/MAX, plus row collection) the whole batch of
coalesced runs sharing one residual filter can instead be answered in a
*single fused pass*: decode each filter dimension once across all runs,
check bounds and fold the aggregate in the same loop, with no mask or
row-id arrays, and touch the visitor exactly once with the finished
partial.

The kernels are ``@numba.njit(nogil=True, cache=True)`` loops compiled
per dtype signature. ``nogil`` means engine worker threads scale: their
scans spend their time outside the GIL even for the Python-heavy visitor
shapes. numba is **never** a hard dependency; it is an extras tag
(``pip install repro[kernels]``). The platform picks the scan path, no
setting does: :func:`get_kernel` hands out the fused kernel when numba
imports and ``None`` otherwise, and ``None`` means the classic
``scan_runs`` path. Without numba the decorator is the identity, so the
same kernel bodies still run as plain Python wherever a
:class:`ScanKernel` is constructed directly — that is how the tests hold
them to the classic path on every install.

Dispatch rules (:meth:`ScanKernel.fused_scan`): the fused path fires only
for the exact built-in mergeable visitor types (subclasses fall back —
they may override ``visit``), only for int64/float64 columns, and only
when the residual filter is non-empty (exact runs keep the cumulative
fast path). Anything else returns ``None`` and the caller runs the
classic path — the fallback guarantee is structural, not a mode.

Float caveat: SUM/AVG over float64 accumulate in one sequential loop
here and pairwise in numpy, so float sums agree with the classic
path to ~1e-9 relative tolerance rather than bit-for-bit;
COUNT/MIN/MAX/collect and all-int64 aggregates are bit-identical. MIN/MAX
over a match set containing NaN is NaN on both paths (numpy semantics).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import QueryError
from repro.storage.scan import gather_runs
from repro.storage.visitor import (
    AvgVisitor,
    CollectVisitor,
    CountVisitor,
    MaxVisitor,
    MinVisitor,
    SumVisitor,
    fold_max,
    fold_min,
)

#: Spec strings accepted by :func:`resolve_kernel`; ``'numpy'`` names
#: the classic ``scan_runs`` path.
KERNEL_NAMES = ("auto", "numba", "numpy")

try:  # soft dependency: the classic path must work without numba installed
    from numba import njit

    _HAVE_NUMBA = True
    _njit = njit(nogil=True, cache=True)
except ImportError:  # pragma: no cover - exercised on numba-less installs
    _HAVE_NUMBA = False

    def _njit(fn):
        return fn


def numba_available() -> bool:
    """Whether the compiled tier can be used in this process."""
    return _HAVE_NUMBA


def resolve_kernel(spec: str) -> str:
    """Resolve a kernel spec to ``'numba'`` (fused) or ``'numpy'`` (classic).

    ``'auto'`` picks ``'numba'`` when numba imports, else ``'numpy'``.
    An explicit ``'numba'`` on an install without numba is a
    :class:`~repro.errors.QueryError` — silently degrading a tier the
    caller asked for by name would hide a 2x+ perf regression.
    """
    if spec not in KERNEL_NAMES:
        raise QueryError(
            f"unknown scan kernel {spec!r}; use one of {KERNEL_NAMES}"
        )
    if spec == "auto":
        return "numba" if _HAVE_NUMBA else "numpy"
    if spec == "numba" and not _HAVE_NUMBA:
        raise QueryError(
            "the numba kernel tier needs numba installed "
            "(pip install repro[kernels]); 'auto' falls back to the "
            "classic numpy scan"
        )
    return spec


# ----------------------------------------------------------------- kernels
# Compiled once per dtype signature, lazily on first call (or eagerly via
# warmup_kernels). All kernels take the residual filter split by dtype:
# ivals is a (k_int, n) int64 matrix with per-dim inclusive bounds
# ilo/ihi, fvals the float64 counterpart. Query bounds are always ints
# (Query coerces), so int dims compare exactly (see _int64_bounds) and
# float dims compare against exact float64 conversions — identical to
# numpy broadcasting. NaN never matches a bound check (`v >= lo` is
# False), same as numpy.


@_njit
def _nb_count(ivals, ilo, ihi, fvals, flo, fhi):
    matched = 0
    for j in range(ivals.shape[1]):
        ok = True
        for d in range(ivals.shape[0]):
            v = ivals[d, j]
            if v < ilo[d] or v > ihi[d]:
                ok = False
                break
        if ok:
            for d in range(fvals.shape[0]):
                v = fvals[d, j]
                if not (v >= flo[d] and v <= fhi[d]):
                    ok = False
                    break
        if ok:
            matched += 1
    return matched


@_njit
def _nb_sum_int(ivals, ilo, ihi, fvals, flo, fhi, agg):
    matched = 0
    total = 0
    for j in range(agg.shape[0]):
        ok = True
        for d in range(ivals.shape[0]):
            v = ivals[d, j]
            if v < ilo[d] or v > ihi[d]:
                ok = False
                break
        if ok:
            for d in range(fvals.shape[0]):
                v = fvals[d, j]
                if not (v >= flo[d] and v <= fhi[d]):
                    ok = False
                    break
        if ok:
            matched += 1
            total += agg[j]
    return matched, total


@_njit
def _nb_sum_float(ivals, ilo, ihi, fvals, flo, fhi, agg):
    matched = 0
    total = 0.0
    for j in range(agg.shape[0]):
        ok = True
        for d in range(ivals.shape[0]):
            v = ivals[d, j]
            if v < ilo[d] or v > ihi[d]:
                ok = False
                break
        if ok:
            for d in range(fvals.shape[0]):
                v = fvals[d, j]
                if not (v >= flo[d] and v <= fhi[d]):
                    ok = False
                    break
        if ok:
            matched += 1
            total += agg[j]
    return matched, total


@_njit
def _nb_minmax(ivals, ilo, ihi, fvals, flo, fhi, agg):
    # mn/mx are only meaningful when matched > 0; NaN aggregates are
    # tracked explicitly (comparisons against NaN are always False,
    # so a plain min/max loop would silently drop them).
    matched = 0
    has_nan = False
    first = True
    mn = agg[0]
    mx = agg[0]
    for j in range(agg.shape[0]):
        ok = True
        for d in range(ivals.shape[0]):
            v = ivals[d, j]
            if v < ilo[d] or v > ihi[d]:
                ok = False
                break
        if ok:
            for d in range(fvals.shape[0]):
                v = fvals[d, j]
                if not (v >= flo[d] and v <= fhi[d]):
                    ok = False
                    break
        if ok:
            matched += 1
            a = agg[j]
            if a != a:
                has_nan = True
            elif first:
                mn = a
                mx = a
                first = False
            else:
                if a < mn:
                    mn = a
                if a > mx:
                    mx = a
    return matched, mn, mx, has_nan


@_njit
def _nb_select(ivals, ilo, ihi, fvals, flo, fhi, out):
    # out is a caller-allocated int64[n]; the first `matched` slots
    # receive the *positions* (0-based within the batch) of matches.
    matched = 0
    for j in range(ivals.shape[1]):
        ok = True
        for d in range(ivals.shape[0]):
            v = ivals[d, j]
            if v < ilo[d] or v > ihi[d]:
                ok = False
                break
        if ok:
            for d in range(fvals.shape[0]):
                v = fvals[d, j]
                if not (v >= flo[d] and v <= fhi[d]):
                    ok = False
                    break
        if ok:
            out[matched] = j
            matched += 1
    return matched


_INT64_MAX = int(np.iinfo(np.int64).max)
_INT64_MIN = int(np.iinfo(np.int64).min)


def _int64_bounds(low: int, high: int) -> tuple[int, int]:
    """Inclusive int bounds as int64 values admitting the same int64 rows.

    Query bounds are unbounded Python ints. A bound past the int64 range
    admits every value or none, so it must not be clipped onto the range
    edge, where it would admit ``INT64_MAX`` (or ``INT64_MIN``) itself:
    a range entirely outside int64 becomes the empty ``(1, 0)``, and an
    out-of-range bound on the open side drops to the edge it covers.
    """
    if low > _INT64_MAX or high < _INT64_MIN:
        return 1, 0
    return max(low, _INT64_MIN), min(high, _INT64_MAX)


#: Fused aggregate kind per *exact* visitor type. Subclasses deliberately
#: miss: they may override ``visit`` and must see every call.
_FUSED_KINDS = {
    CountVisitor: "count",
    SumVisitor: "sum",
    AvgVisitor: "avg",
    MinVisitor: "min",
    MaxVisitor: "max",
    CollectVisitor: "collect",
}

_SUPPORTED_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


class ScanKernel:
    """The fused-scan entry point plus usage counters.

    :func:`get_kernel` hands out one process-wide instance, and only when
    numba imports; its counters feed the server's ``kernel`` stats block.
    Counter updates are locked — engine worker threads drive one kernel
    from many queries at once. Constructed directly on an install
    without numba, an instance runs the kernel bodies as plain Python.
    """

    __slots__ = ("fused_groups", "fused_rows", "_lock")

    def __init__(self):
        self.fused_groups = 0
        self.fused_rows = 0
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScanKernel(fused_groups={self.fused_groups})"

    def stats_payload(self) -> dict:
        with self._lock:
            return {
                "fused_groups": self.fused_groups,
                "fused_rows": self.fused_rows,
            }

    def _count_fused(self, rows: int) -> None:
        with self._lock:
            self.fused_groups += 1
            self.fused_rows += rows

    # ------------------------------------------------------------ dispatch
    def fused_scan(self, table, bounds, runs, visitor):
        """Answer one code group's runs in fused filter+aggregate passes.

        Returns ``(points_scanned, points_matched)`` with the visitor
        already fed the finished partial aggregate, or ``None`` when the
        combination is not fusable (caller falls back to the classic
        path). ``bounds`` must be non-empty — exact runs are the
        cumulative-aggregate path's business, not ours.

        Decode strategy is ``scan_runs``'s (:func:`gather_runs`, priced
        by runs times checked dims): many short runs are gathered into
        one batch (one ``take`` per dimension), while few or long runs
        decode as contiguous per-run slices. Either way the filter and
        the aggregate fuse: no ``values[mask]`` row copies, no per-run
        visitor dispatch.
        """
        kind = _FUSED_KINDS.get(type(visitor))
        if kind is None or not bounds:
            return None
        agg_dim = None
        if kind in ("sum", "avg", "min", "max"):
            agg_dim = visitor.dim
            if agg_dim not in table:
                return None  # let the visitor raise exactly as before
        runs = [(start, stop) for start, stop in runs if stop > start]
        if not runs:
            return 0, 0
        # One-row dtype probe per column, before any visitor mutation:
        # unsupported dtypes must decline with the visitor untouched.
        probe = runs[0][0]
        dims = [dim for dim, _, _ in bounds]
        if agg_dim is not None:
            dims.append(agg_dim)
        for dim in dims:
            if table.values(dim, probe, probe + 1).dtype not in _SUPPORTED_DTYPES:
                return None
        gathered = gather_runs(runs, len(bounds))
        if gathered is None:
            total = matched = 0
            for start, stop in runs:
                total += stop - start
                matched += self._scan_batch(
                    table, bounds, agg_dim, kind, visitor, start, stop, None
                )
        else:
            indices = gathered[0]
            total = indices.size
            matched = self._scan_batch(
                table, bounds, agg_dim, kind, visitor, 0, total, indices
            )
        self._count_fused(total)
        return total, matched

    def _scan_batch(self, table, bounds, agg_dim, kind, visitor, start, stop, indices):
        """Fused filter+aggregate over one contiguous slice (``indices``
        None) or one gathered batch; returns the batch's match count."""
        if indices is None:
            def column(dim):
                return table.values(dim, start, stop)
        else:
            def column(dim):
                return table.take(dim, indices)

        total = stop - start
        int_rows, int_lo, int_hi = [], [], []
        flt_rows, flt_lo, flt_hi = [], [], []
        for dim, low, high in bounds:
            values = column(dim)
            if values.dtype.kind == "f":
                flt_rows.append(values)
                flt_lo.append(low)
                flt_hi.append(high)
            else:
                low, high = _int64_bounds(low, high)
                int_rows.append(values)
                int_lo.append(low)
                int_hi.append(high)
        # Single-dim filters reshape to a (1, n) view; np.stack would copy.
        if len(int_rows) == 1:
            ivals = np.ascontiguousarray(int_rows[0]).reshape(1, -1)
        elif int_rows:
            ivals = np.stack(int_rows)
        else:
            ivals = np.empty((0, total), dtype=np.int64)
        ilo = np.asarray(int_lo, dtype=np.int64)
        ihi = np.asarray(int_hi, dtype=np.int64)
        if len(flt_rows) == 1:
            fvals = np.ascontiguousarray(flt_rows[0]).reshape(1, -1)
        elif flt_rows:
            fvals = np.stack(flt_rows)
        else:
            fvals = np.empty((0, total), dtype=np.float64)
        flo = np.asarray(flt_lo, dtype=np.float64)
        fhi = np.asarray(flt_hi, dtype=np.float64)
        agg_values = column(agg_dim) if agg_dim is not None else None
        if kind == "count":
            matched = int(_nb_count(ivals, ilo, ihi, fvals, flo, fhi))
            visitor.count += matched
        elif kind in ("sum", "avg"):
            if agg_values.dtype.kind == "f":
                matched, local = _nb_sum_float(
                    ivals, ilo, ihi, fvals, flo, fhi, agg_values
                )
                local = float(local)
            else:
                matched, local = _nb_sum_int(
                    ivals, ilo, ihi, fvals, flo, fhi, agg_values
                )
                local = int(local)
            matched = int(matched)
            if kind == "sum":
                if matched:
                    visitor.total += local
            else:
                if matched:
                    visitor._sum.total += local
                visitor._count.count += matched
        elif kind in ("min", "max"):
            matched, mn, mx, has_nan = _nb_minmax(
                ivals, ilo, ihi, fvals, flo, fhi, agg_values
            )
            matched = int(matched)
            if matched:
                if has_nan:
                    local = float("nan")
                elif agg_values.dtype.kind == "f":
                    local = float(mn if kind == "min" else mx)
                else:
                    local = int(mn if kind == "min" else mx)
                if kind == "min":
                    visitor._min = fold_min(visitor._min, local)
                else:
                    visitor._max = fold_max(visitor._max, local)
        else:  # collect
            out = np.empty(total, dtype=np.int64)
            matched = int(_nb_select(ivals, ilo, ihi, fvals, flo, fhi, out))
            if matched:
                positions = out[:matched]
                if indices is None:
                    ids = positions + start
                else:
                    ids = indices[positions]
                visitor._chunks.append(ids)
        return matched


# -------------------------------------------------------------- singleton
_KERNEL = ScanKernel()

#: Last warm-up cost, surfaced in the server's kernel stats block.
_WARMUP = {"seconds": 0.0}


def get_kernel(spec: str = "auto") -> ScanKernel | None:
    """The process-wide fused :class:`ScanKernel`, or ``None`` when
    ``spec`` resolves to ``'numpy'`` (the classic ``scan_runs`` path).

    Sharing one instance keeps the usage counters global and shares the
    compiled dispatch cache across every index in the process.
    """
    return _KERNEL if resolve_kernel(spec) == "numba" else None


def warmup_kernels() -> dict:
    """Compile every fused kernel signature now, off the serving path.

    numba compiles lazily on first call — seconds of JIT work that must
    never land on a serving event loop (the loop-safety checker flags
    calls reachable from coroutines). ``repro serve`` calls this once at
    startup, before binding the socket. Without numba there is nothing
    to compile and warm-up is a no-op.

    Returns ``{"tier": ..., "seconds": ...}``; the seconds are also
    surfaced in the server's ``kernel`` stats block.
    """
    start = time.perf_counter()
    if _HAVE_NUMBA:
        ivals = np.zeros((1, 2), dtype=np.int64)
        ibounds = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        fvals = np.zeros((1, 2), dtype=np.float64)
        fbounds = np.zeros(1, dtype=np.float64), np.ones(1, dtype=np.float64)
        iagg = np.arange(2, dtype=np.int64)
        fagg = np.arange(2, dtype=np.float64)
        out = np.empty(2, dtype=np.int64)
        args = (ivals, *ibounds, fvals, *fbounds)
        _nb_count(*args)
        _nb_sum_int(*args, iagg)
        _nb_sum_float(*args, fagg)
        _nb_minmax(*args, iagg)
        _nb_minmax(*args, fagg)
        _nb_select(*args, out)
    seconds = time.perf_counter() - start
    _WARMUP["seconds"] = seconds
    return {"tier": resolve_kernel("auto"), "seconds": seconds}


def stats_payload() -> dict:
    """The ``kernel`` observability block (server stats op).

    ``tier`` is the scan path this process serves with. The fusion
    counters cover this process only — on a sharded index, fusions in
    its scan worker processes count there, so the per-query truth is
    ``QueryStats.kernel_groups``.
    """
    return {
        "tier": resolve_kernel("auto"),
        "numba_available": _HAVE_NUMBA,
        "warmup_seconds": _WARMUP["seconds"],
        **_KERNEL.stats_payload(),
    }
