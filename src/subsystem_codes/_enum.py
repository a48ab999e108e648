"""Exhaustive span enumeration kernel.

Given k generator rows over F_p whose columns are grouped into ``n_groups``
blocks of ``group_size`` prime-field digits, the kernel scans counters in
[lo, hi) of the mixed-radix odometer over F_p^k (digit j of a counter is
the coefficient of row j) and reports the minimum block weight (number of
nonzero digit groups) or the histogram of block weights.

Counters are evaluated in vectorized numpy blocks.  Results do not depend
on how the counter range is partitioned between worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["min_weight_range", "weight_distribution"]

_NUMPY_BLOCK = 1 << 15


def _numpy_block_weights(gens, p, n_groups, group_size, ts):
    k = gens.shape[0]
    powers = p ** np.arange(k, dtype=np.int64)
    digits = (ts[:, None] // powers) % p
    vecs = (digits @ gens) % p
    nz = vecs.reshape(len(ts), n_groups, group_size).any(axis=2)
    return nz.sum(axis=1)


def _min_weight(gens, p, n_groups, group_size, lo, hi):
    best = n_groups + 1
    for start in range(lo, hi, _NUMPY_BLOCK):
        ts = np.arange(start, min(hi, start + _NUMPY_BLOCK), dtype=np.int64)
        wts = _numpy_block_weights(gens, p, n_groups, group_size, ts)
        best = min(best, int(wts.min()))
        if best <= 1:
            break
    return best


def _chunk_ranges(lo: int, hi: int, parts: int):
    span = hi - lo
    step = (span + parts - 1) // parts
    return [(lo + i * step, min(hi, lo + (i + 1) * step))
            for i in range(parts) if lo + i * step < hi]


def min_weight_range(gens: np.ndarray, p: int, n_groups: int, group_size: int,
                     lo: int, hi: int, workers: int = 1) -> int:
    """Minimum block weight over span counters in [lo, hi).

    The scan stops at the first element of weight 1, which is exact when
    no counter in the range gives the zero vector: the rows are linearly
    independent and ``lo >= 1``.  ``workers`` threads split the range.
    """
    if lo >= hi:
        raise ValueError("empty enumeration range")
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    if workers <= 1 or hi - lo < 4 * _NUMPY_BLOCK:
        return _min_weight(gens, p, n_groups, group_size, lo, hi)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return min(pool.map(
            lambda r: _min_weight(gens, p, n_groups, group_size, *r),
            _chunk_ranges(lo, hi, workers)))


def weight_distribution(gens: np.ndarray, p: int, n_groups: int,
                        group_size: int, lo: int, hi: int) -> np.ndarray:
    """Histogram of block weights over span counters in [lo, hi)."""
    dist = np.zeros(n_groups + 1, dtype=np.int64)
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    for start in range(lo, hi, _NUMPY_BLOCK):
        ts = np.arange(start, min(hi, start + _NUMPY_BLOCK), dtype=np.int64)
        wts = _numpy_block_weights(gens, p, n_groups, group_size, ts)
        dist += np.bincount(wts, minlength=n_groups + 1)
    return dist
