"""The enumeration kernel on one small span, against explicit span construction."""

import numpy as np

from subsystem_codes import _enum, linalg
from subsystem_codes.gf import FieldSpec


def _independent_case(rng, p, k, groups, gsize):
    while True:
        gens = rng.integers(0, p, size=(k, groups * gsize)).astype(np.int64)
        if linalg.rank(gens, FieldSpec(p)) == k:
            return gens


def _span_weights(gens, p, groups, gsize):
    # counter idx has coefficient digit j (least significant first) on row j
    k = gens.shape[0]
    weights = []
    for idx in range(p**k):
        coeffs = []
        t = idx
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        v = (np.array(coeffs) @ gens) % p
        weights.append(int(v.reshape(groups, gsize).any(axis=1).sum()))
    return weights


def test_against_naive_oracle():
    rng = np.random.default_rng(44)
    p, k, groups, gsize = 3, 4, 3, 2
    gens = _independent_case(rng, p, k, groups, gsize)
    weights = _span_weights(gens, p, groups, gsize)
    assert _enum.min_weight_range(gens, p, groups, gsize, 1, p**k) \
        == min(weights[1:])
    hist = np.bincount(weights, minlength=groups + 1)
    dist = _enum.weight_distribution(gens, p, groups, gsize, 0, p**k)
    assert np.array_equal(dist, hist)


def test_range_restriction_and_stop_at():
    # the scan stops at the first weight-1 element; on independent rows that
    # is still the exact minimum, over the full span and over a sub-range
    rng = np.random.default_rng(45)
    p, k, groups, gsize = 2, 6, 4, 2
    gens = _independent_case(rng, p, k, groups, gsize)
    weights = _span_weights(gens, p, groups, gsize)
    full = _enum.min_weight_range(gens, p, groups, gsize, 1, p**k)
    assert full == min(weights[1:])
    # a sub-range can only see part of the span
    part = _enum.min_weight_range(gens, p, groups, gsize, p**3, p**k)
    assert part == min(weights[p**3:])
    assert part >= full
