"""The enumeration kernel against a naive span oracle."""

from itertools import product

import numpy as np
import pytest

from subsystem_codes import _enum, linalg
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


def test_workers_agree():
    # 3^11 counters are more than four kernel blocks, so two threads split
    # the range; the weight-1 early stop cannot fire on this span
    rng = np.random.default_rng(46)
    p, k, groups, gsize = 3, 11, 8, 2
    assert p**k > 4 * _enum._NUMPY_BLOCK
    while True:
        gens = _independent_gens(rng, p, k, groups, gsize)
        weights = _naive_weights(gens, p, groups, gsize)
        if weights[1:].min() > 1:
            break
    for lo in (1, p**3):
        single = _enum.min_weight_range(gens, p, groups, gsize, lo, p**k)
        multi = _enum.min_weight_range(gens, p, groups, gsize, lo, p**k,
                                       workers=2)
        assert single == multi == weights[lo:].min()
