"""Exhaustive span enumeration kernel.

Given k generator rows over F_p whose columns are grouped into ``n_groups``
blocks of ``group_size`` prime-field digits, the kernel scans counters in
[lo, hi) of the mixed-radix odometer over F_p^k (digit j of a counter is
the coefficient of row j) and reports the minimum block weight (number of
nonzero digit groups) or the histogram of block weights.

The scan meets in the middle.  The low ``kl = ceil(k/2)`` rows and the
high ``k - kl`` rows each get a table of their span, in the same counter
order (row 0 least significant), so counter ``h * p^kl + l`` is the sum
of low entry ``l`` and high entry ``h``.  A group of that sum is zero
exactly when the low entry's digits equal the negated high entry's.  So
each table stores one integer key per group, its digits read in base p,
in the smallest unsigned dtype that holds p^group_size values (exact for
every prime p, up to 2^63 values), and a group adds to the weight
through one key comparison.  High rows are scanned in batches against
the whole low table; the first and last batch are clipped to [lo, hi).
The kernel keeps the last span's low table, so the per-class ranges of
one coset scan build one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["min_weight_range", "weight_distribution"]

# counters per batch: the comparison and weight arrays stay near 256 kB
_BATCH = 1 << 18
_last_low = [None, None]        # [key, low table] of the last span only


def _low_rows(k: int) -> int:
    """Rows in the low half of a k-row span: ceil(k / 2)."""
    return (k + 1) // 2


def _keys(gens, p, group_size, counters):
    """Keys of the span elements at ``counters``: (groups, counters) array.

    Row i of ``gens`` has coefficient digit i of the counter.
    """
    digits = counters[:, None] // p ** np.arange(len(gens)) % p
    vecs = (digits @ gens % p).reshape(len(counters), -1, group_size)
    keys = vecs @ p ** np.arange(group_size)
    return np.ascontiguousarray(
        keys.T, dtype=np.min_scalar_type(p**group_size - 1))


def _low_table(low_gens, p, group_size):
    """Read-only keys of the span of ``low_gens``, kept for the next scan
    of the same rows; the kept table is freed before another is built."""
    key = (p, group_size, low_gens.shape, low_gens.tobytes())
    if _last_low[0] != key:
        _last_low[:] = None, None
        _last_low[:] = key, _keys(low_gens, p, group_size,
                                  np.arange(p**len(low_gens)))
        _last_low[1].flags.writeable = False
    return _last_low[1]


def _weights(gens, p, n_groups, group_size, lo, hi):
    """Block weights of the span counters in [lo, hi), batch by batch of
    high rows."""
    if p**group_size > 1 << 63:
        raise ValueError(f"a group of {group_size} digits over F_{p} "
                         "does not fit a 63-bit key")
    gens = np.asarray(gens, dtype=np.int64)
    kl = _low_rows(len(gens))
    low_size = p**kl
    h_first = lo // low_size
    low = _low_table(gens[:kl], p, group_size)
    # negated high rows: a group of a sum is zero iff the keys agree
    high = _keys(-gens[kl:] % p, p, group_size,
                 np.arange(h_first, (hi - 1) // low_size + 1))
    rows = max(1, _BATCH // low_size)
    cmp = np.empty((min(rows, high.shape[1]), low_size), dtype=bool)
    wts = np.empty(cmp.shape, dtype=np.min_scalar_type(n_groups))
    for a in range(0, high.shape[1], rows):
        batch = high[:, a:a + rows, None]
        c, w = cmp[:batch.shape[1]], wts[:batch.shape[1]]
        w.fill(0)
        for low_keys, neg_high in zip(low, batch):
            np.not_equal(low_keys, neg_high, out=c)
            w += c
        base = (h_first + a) * low_size
        yield w.reshape(-1)[max(0, lo - base):hi - base]


def min_weight_range(gens: np.ndarray, p: int, n_groups: int, group_size: int,
                     lo: int, hi: int) -> int:
    """Minimum block weight over span counters in [lo, hi).

    The scan stops at the first element of weight 1, which is exact when
    no counter in the range gives the zero vector: the rows are linearly
    independent and ``lo >= 1``.
    """
    if lo >= hi:
        raise ValueError("empty enumeration range")
    best = n_groups + 1
    for w in _weights(gens, p, n_groups, group_size, lo, hi):
        best = min(best, int(w.min()))
        if best <= 1:
            break
    return best


def weight_distribution(gens: np.ndarray, p: int, n_groups: int,
                        group_size: int, lo: int, hi: int) -> np.ndarray:
    """Histogram of block weights over span counters in [lo, hi)."""
    dist = np.zeros(n_groups + 1, dtype=np.int64)
    if lo >= hi:
        return dist
    for w in _weights(gens, p, n_groups, group_size, lo, hi):
        dist += np.bincount(w, minlength=n_groups + 1)
    return dist
