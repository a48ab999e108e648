"""The enumeration kernel against a naive span oracle."""

from itertools import product

import numpy as np
import pytest

from subsystem_codes import _enum, codes, linalg
from subsystem_codes.gf import FieldSpec


def _independent_gens(rng, p, k, groups, gsize):
    """Random k x (groups * gsize) generator rows of full rank over F_p."""
    while True:
        gens = rng.integers(0, p, size=(k, groups * gsize)).astype(np.int64)
        if linalg.rank(gens, FieldSpec(p)) == k:
            return gens


def _naive_weights(gens, p, groups, gsize):
    """Block weight of every span element, indexed by odometer counter.

    Explicit span construction: digit j of the counter (least significant
    first) is the coefficient of row j.
    """
    k = gens.shape[0]
    weights = []
    for coeffs in product(range(p), repeat=k):
        v = (np.array(coeffs[::-1]) @ gens) % p
        weights.append(int(v.reshape(groups, gsize).any(axis=1).sum()))
    return np.array(weights)


@pytest.mark.parametrize("gsize", [2, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_against_naive_oracle(p, gsize):
    rng = np.random.default_rng(44 + p + gsize)
    k = {2: 6, 3: 4, 5: 3, 7: 3}[p]
    groups = 3
    for _ in range(3):
        gens = _independent_gens(rng, p, k, groups, gsize)
        weights = _naive_weights(gens, p, groups, gsize)
        assert _enum.min_weight_range(gens, p, groups, gsize,
                                      1, p**k) == weights[1:].min()
        dist = _enum.weight_distribution(gens, p, groups, gsize, 0, p**k)
        assert np.array_equal(dist, np.bincount(weights,
                                                minlength=groups + 1))
        # coset ranges: B spanned by the first kb rows, A by all k
        for kb in range(1, k):
            assert _enum.min_weight_range(
                gens, p, groups, gsize, p**kb, p**k) == weights[p**kb:].min()
            part = _enum.weight_distribution(gens, p, groups, gsize,
                                             p**kb, p**k)
            assert np.array_equal(part, np.bincount(weights[p**kb:],
                                                    minlength=groups + 1))


def test_empty_ranges():
    gens = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError):
        _enum.min_weight_range(gens, 2, 1, 2, 3, 3)
    assert not _enum.weight_distribution(gens, 2, 1, 2, 3, 3).any()


@pytest.mark.parametrize("p,k", [(3, 1), (3, 3), (3, 5), (2, 7), (5, 1)])
def test_uneven_halves(p, k):
    # odd k: the low half has one row more than the high half; k = 1
    # leaves the high half empty
    rng = np.random.default_rng(47 + p + k)
    groups, gsize = 4, 2
    gens = _independent_gens(rng, p, k, groups, gsize)
    weights = _naive_weights(gens, p, groups, gsize)
    assert _enum.min_weight_range(gens, p, groups, gsize,
                                  1, p**k) == weights[1:].min()
    dist = _enum.weight_distribution(gens, p, groups, gsize, 0, p**k)
    assert np.array_equal(dist, np.bincount(weights, minlength=groups + 1))


@pytest.mark.parametrize("batch", [None, 2])
def test_bounds_inside_rows_and_batches(monkeypatch, batch):
    # lo and hi fall inside a high-half row (3^3 counters wide here) and,
    # with batches of two rows, inside a batch; every batch is counted in
    # several slices of 7 weights, the last one short
    rng = np.random.default_rng(48)
    p, k, groups, gsize = 3, 6, 4, 2
    if batch:
        monkeypatch.setattr(_enum, "_BATCH", batch * p**_enum._low_rows(k))
    monkeypatch.setattr(_enum, "_SLICE", 7)
    gens = _independent_gens(rng, p, k, groups, gsize)
    weights = _naive_weights(gens, p, groups, gsize)
    bounds = [(1, 2), (5, 9), (26, 28), (40, 200), (100, 101), (1, 700),
              (13, p**k), (p**k - 4, p**k)]
    bounds += [tuple(sorted(rng.choice(np.arange(1, p**k + 1), 2,
                                       replace=False))) for _ in range(20)]
    for lo, hi in bounds:
        lo, hi = int(lo), int(hi)
        assert _enum.min_weight_range(gens, p, groups, gsize,
                                      lo, hi) == weights[lo:hi].min()
        dist = _enum.weight_distribution(gens, p, groups, gsize, lo, hi)
        assert np.array_equal(dist, np.bincount(weights[lo:hi],
                                                minlength=groups + 1))


@pytest.mark.parametrize("p,k,gsize", [(3, 4, 3), (3, 4, 6), (5, 3, 3),
                                       (131, 2, 2), (131, 2, 4),
                                       (131, 2, 8)])
def test_group_keys_exact(p, k, gsize):
    # group sizes that fill no machine word, and a prime above 128 (digit
    # sums would overflow a byte) with 16-, 32- and 64-bit keys
    rng = np.random.default_rng(49 + p + gsize)
    groups = 3
    gens = _independent_gens(rng, p, k, groups, gsize)
    weights = _naive_weights(gens, p, groups, gsize)
    assert _enum.min_weight_range(gens, p, groups, gsize,
                                  1, p**k) == weights[1:].min()
    dist = _enum.weight_distribution(gens, p, groups, gsize, 0, p**k)
    assert np.array_equal(dist, np.bincount(weights, minlength=groups + 1))


def test_group_beyond_key_rejected():
    # 131^10 > 2^63: such a group would not fit one int64 key
    gens = np.eye(2, 20, dtype=np.int64)
    with pytest.raises(ValueError, match="63-bit key"):
        _enum.min_weight_range(gens, 131, 2, 10, 1, 131**2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_classes_match_full_scan(p):
    # one vector per F_p scalar class gives the minimum over the whole
    # coset space span(A) minus span(B), on random codes and subcodes
    rng = np.random.default_rng(50 + p)
    field = FieldSpec(p)
    n = 4
    ka = {2: 7, 3: 5, 5: 4, 7: 3}[p]
    for _ in range(4):
        a = codes.AdditiveCode(n, field, rng.integers(0, p, size=(ka, 2 * n)))
        for kb in range(a.rank):
            sub = a.mat[rng.permutation(a.rank)[:kb]]
            b = codes.AdditiveCode(n, field, sub if kb else [])
            gens = codes._coset_rows(a, b)[0]
            weights = _naive_weights(gens, p, n, 2)
            full = weights[p**kb:].min()
            assert codes._min_scan(a, b if kb else None,
                                   codes.DEFAULT_POLICY) == (
                full, "exhaustive")
            assert codes._class_min(gens, p, n, kb) == full


@pytest.mark.parametrize("p", [2, 3, 5])
def test_interleaved_spans_never_share_a_wrong_low_table(p):
    # class scans of one span share the kernel's low table; scans of other
    # spans in between must each get their own: other rows, only other
    # high rows, or the same rows cut into other groups
    rng = np.random.default_rng(60 + p)
    k, groups, gsize = {2: 6, 3: 4, 5: 3}[p], 3, 2
    kl = _enum._low_rows(k)
    a = _independent_gens(rng, p, k, groups, gsize)
    b = _independent_gens(rng, p, k, groups, gsize)
    while True:
        high = np.concatenate([a[:kl], b[kl:]])
        if linalg.rank(high, FieldSpec(p)) == k:
            break
        b = _independent_gens(rng, p, k, groups, gsize)
    scans = [(a, groups, gsize), (b, groups, gsize), (high, groups, gsize),
             (a, 2 * groups, gsize // 2)]
    naive = [_naive_weights(g, p, n, size) for g, n, size in scans]
    for i in range(k):
        for (g, n, size), weights in zip(scans, naive):
            assert _enum.min_weight_range(g, p, n, size, p**i, 2 * p**i) == (
                weights[p**i:2 * p**i].min())
    for (g, n, size), weights in zip(scans, naive):
        assert np.array_equal(_enum.weight_distribution(g, p, n, size, 0,
                                                        p**k),
                              np.bincount(weights, minlength=n + 1))
