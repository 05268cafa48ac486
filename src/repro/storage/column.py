"""Block-delta compressed columns.

Paper Section 7.1: "in each column, the data is divided into consecutive
blocks of 128 values, and each value is encoded as the delta to the minimum
value in its block. Our encoding scheme allows constant-time element access."

A :class:`CompressedColumn` stores one int64 block-minimum per 128-value
block plus a delta array in the narrowest unsigned dtype that holds the
largest delta. Random access is ``mins[i >> 7] + deltas[i]``; slice access
is fully vectorized. :meth:`CompressedColumn.range_mask` evaluates a range
predicate on the narrow deltas themselves, so long scans never widen the
column to int64.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

_DELTA_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
_DELTA_MAX = {np.dtype(dtype): int(np.iinfo(dtype).max) for dtype in _DELTA_DTYPES}

#: Ranges shorter than this compare decoded values: below it the fixed
#: cost of the per-block bounds outweighs the narrower compares (the
#: crossover measured on 400 k-row uint8/uint16 columns, 2-core x86).
_CODES_MIN_ROWS = 8192


class CompressedColumn:
    """An immutable int64 column with block-delta compression."""

    __slots__ = ("_mins", "_deltas", "n", "_edges")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("a column must be 1-D")
        values = values.astype(np.int64, copy=False)
        self.n = int(values.size)
        self._edges = None
        if self.n == 0:
            self._mins = np.empty(0, dtype=np.int64)
            self._deltas = np.empty(0, dtype=np.uint8)
            return
        num_blocks = (self.n + BLOCK_SIZE - 1) // BLOCK_SIZE
        # Pad to a whole number of blocks for a clean reshape, then compute
        # per-block minima. Padding repeats the final value so it never
        # perturbs a block minimum.
        padded_len = num_blocks * BLOCK_SIZE
        padded = np.empty(padded_len, dtype=np.int64)
        padded[: self.n] = values
        padded[self.n :] = values[-1]
        blocks = padded.reshape(num_blocks, BLOCK_SIZE)
        self._mins = blocks.min(axis=1)
        deltas64 = (blocks - self._mins[:, None]).reshape(-1)[: self.n]
        max_delta = int(deltas64.max()) if self.n else 0
        for dtype in _DELTA_DTYPES:
            if max_delta <= np.iinfo(dtype).max:
                self._deltas = deltas64.astype(dtype)
                break
        # Clamping edges for range_mask: every value lies in [lo, hi], so
        # a bound clamped into them minus any block minimum fits int64.
        # Absent (decoded compares) for uint64 deltas or a value span too
        # wide for that.
        lo = int(self._mins.min())
        hi = int(self._mins.max()) + max_delta
        if self._deltas.dtype != np.uint64 and hi - lo < 2**62:
            self._edges = (lo, hi)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n)
            if step != 1:
                raise ValueError("compressed columns support unit-step slices only")
            return self.slice(start, stop)
        index = int(key)
        if index < 0:
            index += self.n
        if not 0 <= index < self.n:
            raise IndexError("column index out of range")
        return int(self._mins[index // BLOCK_SIZE]) + int(self._deltas[index])

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode values[start:stop] into a fresh int64 array."""
        start = max(0, int(start))
        stop = min(self.n, int(stop))
        if stop <= start:
            return np.empty(0, dtype=np.int64)
        first_block = start // BLOCK_SIZE
        last_block = (stop - 1) // BLOCK_SIZE
        if first_block == last_block:
            # Common case for per-cell scans: one block minimum.
            return self._deltas[start:stop].astype(np.int64) + self._mins[first_block]
        expanded = np.repeat(self._mins[first_block : last_block + 1], BLOCK_SIZE)
        offset = start - first_block * BLOCK_SIZE
        out = expanded[offset : offset + (stop - start)]
        out += self._deltas[start:stop].astype(np.int64)
        return out

    def range_mask(self, start: int, stop: int, low: int, high: int) -> np.ndarray:
        """Mask of rows ``[start, stop)`` whose values lie in ``[low, high]``.

        Long ranges compare the delta codes, never decoding to int64:
        block ``b`` admits exactly the deltas in ``[low - min_b, high -
        min_b]``, clamped into the delta dtype, and a block that cannot
        match gets the empty interval ``(1, 0)``. Short ranges, uint64
        deltas, columns spanning most of int64 and non-integer bounds
        compare decoded values. Integer bounds may be of any size.
        """
        start = max(0, int(start))
        stop = min(self.n, int(stop))
        if stop <= start:
            return np.zeros(0, dtype=bool)
        edges = self._edges
        if (
            stop - start < _CODES_MIN_ROWS
            or edges is None
            or not isinstance(low, (int, np.integer))
            or not isinstance(high, (int, np.integer))
        ):
            values = self.slice(start, stop)
            return (values >= low) & (values <= high)
        low, high = int(low), int(high)
        if low > high or high < edges[0] or low > edges[1]:
            return np.zeros(stop - start, dtype=bool)
        first = start // BLOCK_SIZE
        last = (stop - 1) // BLOCK_SIZE
        mins = self._mins[first : last + 1]
        dtype = self._deltas.dtype
        # Clamped into the edges, the bounds differ from any block minimum
        # by less than 2**62.
        lo = max(low, edges[0]) - mins
        hi = min(high, edges[1]) - mins
        np.maximum(lo, 0, out=lo)
        np.minimum(hi, _DELTA_MAX[dtype], out=hi)
        empty = hi < lo
        lo[empty] = 1
        hi[empty] = 0
        lo = lo.astype(dtype)[:, None]
        hi = hi.astype(dtype)[:, None]
        # Whole blocks from `first`, compared as a (blocks, 128) matrix; a
        # partial last block (the column's tail) is compared on its own.
        base = first * BLOCK_SIZE
        codes = self._deltas[base : min(self.n, (last + 1) * BLOCK_SIZE)]
        full = codes.size // BLOCK_SIZE * BLOCK_SIZE
        out = np.empty(codes.size, dtype=bool)
        if full:
            blocks = codes[:full].reshape(-1, BLOCK_SIZE)
            matrix = out[:full].reshape(-1, BLOCK_SIZE)
            np.greater_equal(blocks, lo[: full // BLOCK_SIZE], out=matrix)
            matrix &= blocks <= hi[: full // BLOCK_SIZE]
        if full < codes.size:
            tail = codes[full:]
            np.greater_equal(tail, lo[-1], out=out[full:])
            out[full:] &= tail <= hi[-1]
        return out[start - base : stop - base]

    def decode(self) -> np.ndarray:
        """Decode the entire column."""
        return self.slice(0, self.n)

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Decode values at arbitrary positions (gather)."""
        indices = np.asarray(indices, dtype=np.int64)
        return self._mins[indices // BLOCK_SIZE] + self._deltas[indices].astype(np.int64)

    # ------------------------------------------------------------------- size
    def size_bytes(self) -> int:
        """Compressed footprint: block minima plus delta array."""
        return int(self._mins.nbytes + self._deltas.nbytes)

    def uncompressed_bytes(self) -> int:
        """Footprint of the equivalent raw int64 array."""
        return self.n * 8

    def compression_ratio(self) -> float:
        """Fraction of space saved vs. raw int64 (0 = none, 0.77 = paper's)."""
        if self.n == 0:
            return 0.0
        return 1.0 - self.size_bytes() / self.uncompressed_bytes()
