"""Propagation rules: constructive trades, length changes, combining."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from subsystem_codes import linalg, rs, rules
from subsystem_codes.codes import (AdditiveCode, ClassicalCode, dual_symp,
                                   min_swt, radical, swt_distribution)
from subsystem_codes.gf import FieldSpec, TowerSpec
from subsystem_codes.known import bacon_shor_code, five_qubit_code
from subsystem_codes.rules import (MdsFamilySpec, RuleResult, _extend_code,
                                   _tower_for_q, certify_mds,
                                   combine_disjoint, combine_nested,
                                   classical_modify, extend_length, grow_k,
                                   hermitian_to_symplectic, mds_family,
                                   shorten_length, shrink_k,
                                   stabilizer_to_subsystem,
                                   subsystem_to_stabilizer)
from subsystem_codes.rs import (evaluation_code, hermitian_self_orthogonal_rs,
                                mds_min_weight_codeword)
from subsystem_codes.subsystem import (ParamRecord, Policy, PurityError,
                                       bracket_params, derive)


def _hamming_distribution(X):
    """Independent oracle: the Hamming weights of all of X's codewords,
    listed as every combination of its rows in field table operations."""
    f = X.field
    coeffs = np.array(list(product(range(f.q), repeat=X.rank)),
                      dtype=np.int64).reshape(-1, X.rank)
    words = np.zeros((len(coeffs), X.n), dtype=np.int64)
    for c, row in zip(coeffs.T, X.mat):
        words = f.add_arr(words, f.mul_arr(c[:, None], row))
    return np.bincount((words != 0).sum(axis=1), minlength=X.n + 1)


@pytest.fixture(scope="module")
def five():
    return derive(five_qubit_code())


@pytest.fixture(scope="module")
def shor():
    return derive(bacon_shor_code())


# -- dimension trading -------------------------------------------------------

def test_shrink_grow_roundtrip(five):
    shrunk = shrink_k(five)
    assert shrunk.output.params() == (5, 1, 2, 3)
    assert all(v == "verified_exhaustive"
               for v in shrunk.verification.values())
    grown = grow_k(shrunk.output)
    assert grown.output.params() == (5, 2, 1, 3)
    assert grown.output.is_pure


def test_pure_to_claim_keeps_input_method(five):
    # the target min(d, d') is an upper bound when the input's d is a
    # witness; the output's exact swt(C') >= 3 still proves "pure to 3"
    assert shrink_k(five).verification["pure to 3"] == "verified_exhaustive"
    wit = derive(five_qubit_code(), Policy(distance_mode="witness"))
    assert wit.d_method == "witness" and wit.is_pure
    out = shrink_k(wit)
    assert out.output.swt_c_method == "exhaustive" and out.output.swt_c >= 3
    assert out.verification["pure to 3"] == "verified_exhaustive"


def test_shrink_preconditions(five, shor):
    shrunk = shrink_k(five).output       # ((5,1,2,3)): K = 1
    with pytest.raises(ValueError):
        shrink_k(shrunk)
    # K = p with impure input is rejected
    with pytest.raises(PurityError):
        shrink_k(shor)                   # K = 2 = p, impure


def test_grow_preconditions(five, shor):
    with pytest.raises(PurityError):
        grow_k(shor)                     # impure
    with pytest.raises(ValueError):
        grow_k(five)                     # R = 1


def test_linear_coeff_degree():
    f9 = FieldSpec(3, 2)
    # rank-1 isotropic F_9-linear code: K = 9, R = 1, pure
    C = AdditiveCode(2, f9, [[1, 0, 0, 0]], coeff_degree=2)
    code = derive(C)
    res = shrink_k(code)                 # t defaults to m: one q-unit
    assert res.output.k_exp == code.k_exp - 2
    assert res.output.C.t == 2           # linearity is preserved
    res1 = shrink_k(derive(C.as_additive()))   # finer trades: t = 1
    assert res1.output.k_exp == code.k_exp - 1
    assert res1.output.C.t == 1


def test_stabilizer_to_subsystem_range(five):
    res = stabilizer_to_subsystem(five, 0)
    assert res.output is five
    with pytest.raises(ValueError):
        stabilizer_to_subsystem(five, 1)   # r = k is out of range
    with pytest.raises(ValueError):
        stabilizer_to_subsystem(shrink_k(five).output, 0)  # R != 1


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (5, 1, 1),
                                   (2, 2, 1), (2, 2, 2), (3, 2, 2)])
def test_stabilizer_to_subsystem_is_successive_shrinks(p, m, t):
    # trading r log_q units at once adjoins the pairs that r*m/t one-pair
    # trades adjoin, in the same order
    rng = np.random.default_rng([61, p, m, t])
    f, skip = FieldSpec(p, m), Policy("skip")
    cases = 0
    for _ in range(8):
        n = int(rng.integers(2, 5))
        gens = rng.integers(0, f.q, size=(int(rng.integers(1, 4)), 2 * n))
        D = radical(AdditiveCode(n, f, gens, t))      # isotropic
        if D.rank == 0:
            continue
        code = derive(D, skip)
        assert code.r_exp == 0 and code.C.t == t
        chain = code
        for r in range(1, -(-code.k_exp // m)):
            for _ in range(m // t):
                chain = shrink_k(chain, policy=skip).output
            out = stabilizer_to_subsystem(code, r, skip).output
            assert out.C == chain.C
            assert (out.k_exp, out.r_exp) == (chain.k_exp, chain.r_exp)
            assert (out.k_exp, out.r_exp) == (code.k_exp - r * m, r * m)
            cases += 1
    assert cases >= 2           # 36 cases over the six fields


def test_to_stabilizer_roundtrip(five):
    sub = shrink_k(five).output          # ((5,1,2,3))
    res = subsystem_to_stabilizer(sub)
    assert res.output.params() == (5, 2, 1, 3)
    assert res.output.is_pure


# -- length rules ------------------------------------------------------------

def test_extend_length(five, shor):
    res = extend_length(five)
    assert res.output.params() == (6, 2, 1, 3)
    assert res.output.swt_c == 1         # pure to 1 exactly
    res2 = extend_length(shor)
    assert res2.output.params() == (10, 2, 16, 3)
    with pytest.raises(ValueError):
        extend_length(shrink_k(five).output)   # K = 1


def test_extend_dual_identity_random():
    rng = np.random.default_rng(50)
    for p in (2, 3):
        f = FieldSpec(p)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            C = AdditiveCode(n, f, rng.integers(0, p, size=(3, 2 * n)))
            assert dual_symp(_extend_code(C)) == _extend_code(dual_symp(C))


def _extend_by_entries(X):
    """The F_q-entry extension oracle: contract each row, place it, append
    the alpha = p^j rows, build a validated AdditiveCode."""
    n, f = X.n, X.field
    gens = []
    for g in map(X._contract_row, X.mat):
        row = np.zeros(2 * (n + 1), dtype=np.int64)
        row[:n] = g[:n]
        row[n + 1: 2 * n + 1] = g[n:]
        gens.append(row)
    for alpha in ([1] if X.t == f.m else [f.p**j for j in range(f.m)]):
        row = np.zeros(2 * (n + 1), dtype=np.int64)
        row[n] = alpha
        gens.append(row)
    return AdditiveCode(n + 1, f, gens, X.t)


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (5, 1, 1),
                                   (2, 2, 1), (2, 2, 2), (3, 2, 1),
                                   (3, 2, 2)])
def test_extension_in_coefficient_space_matches_entry_oracle(p, m, t):
    rng = np.random.default_rng([51, p, m, t])
    f = FieldSpec(p, m)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gens = rng.integers(0, f.q, size=(int(rng.integers(0, 4)), 2 * n))
        C = AdditiveCode(n, f, gens, t)
        assert _extend_code(C) == _extend_by_entries(C)


def test_shorten_length(five):
    res = shorten_length(five)
    assert res.output.bracket() == "[[4,2,0,2]]_2"
    assert res.output.pure is True
    with pytest.raises(PurityError):
        shorten_length(derive(bacon_shor_code()))
    rec = bracket_params(five)
    rec.d = 1
    with pytest.raises(ValueError):
        shorten_length(rec)


# -- combining ---------------------------------------------------------------

def test_combine_disjoint(five):
    short = shorten_length(five).output              # [[4,2,0,2]]
    res = combine_disjoint(five, short, 0)
    assert res.output.bracket() == "[[7,1,0,>=3]]_2"
    assert res.claims[-1] == "d' >= min(d1, d1 + d2 - k2 - r2) = 3"
    assert res.output.pure is None                   # purity not claimed
    with pytest.raises(ValueError):
        combine_disjoint(five, short, 1)       # r >= k1 + r1 = 1
    bad = bracket_params(five)
    bad.q = 3
    with pytest.raises(ValueError):
        combine_disjoint(bad, short, 0)


def test_combine_disjoint_trivial_bound():
    # d1 + d2 - k2 - r2 = 1 + 1 - 3 < 1: only the trivial d' >= 1 holds
    a = ParamRecord(n=3, q=2, k=1, r=0, d=1, pure=True)
    b = ParamRecord(n=5, q=2, k=3, r=0, d=1, pure=True)
    res = combine_disjoint(a, b, 0)
    assert res.output.bracket() == "[[5,1,0,>=1]]_2"
    assert res.output.d == 1 and res.output.d_method == "lower"
    assert res.claims[-1] == ("d' >= 1 is the trivial bound "
                              "(min(d1, d1 + d2 - k2 - r2) = -1)")


def test_combine_disjoint_length_check(five):
    big = bracket_params(five)
    big.k, big.r = 6, 0                  # k2 + r2 > n1 = 5
    big.n = 12
    with pytest.raises(ValueError):
        combine_disjoint(five, big, 0)


def test_combine_nested(five):
    res = combine_nested(five, five, 0, subset_assumed=True)
    assert res.output.bracket() == "[[10,2,0,>=3]]_2"
    assert res.output.pure is True
    boundary = combine_nested(five, five, 2, subset_assumed=True)
    assert boundary.output.k == 0
    with pytest.raises(ValueError):
        combine_nested(five, five, 0)    # subset not asserted
    with pytest.raises(ValueError):
        combine_nested(five, five, 3, subset_assumed=True)


@pytest.mark.parametrize("rule", [
    lambda a, b: [shorten_length(a), shorten_length(b)][1],     # each one
    lambda a, b: combine_disjoint(a, b, 0),
    lambda a, b: combine_nested(a, b, 0, subset_assumed=True),
], ids=["shorten", "combine-disjoint", "combine-nested"])
def test_parameter_rules_refuse_a_witness_d(five, rule):
    # a witness d is only an upper bound, so it bounds no d' from below;
    # the rules read d' off the inputs' d and turned it into a proved one
    witness = replace(five, d_method="witness")
    assert witness.is_pure                  # swt(C) >= hi(d) still holds
    for a, b in ((five, witness), (witness, five)):
        with pytest.raises(ValueError,
                           match="a witness d is only an upper bound"):
            rule(a, b)
    assert rule(five, five).output.d is not None


# -- Hermitian construction --------------------------------------------------

def test_hermitian_expansion_example():
    f4 = FieldSpec(2, 2)
    X = ClassicalCode(2, f4, [[1, 1]])
    C = hermitian_to_symplectic(X)
    assert C.rank_p == 2                 # |C| = |X| = 4
    assert min_swt(C) == 2               # = wt(X)
    assert C.contains_vector([1, 1, 0, 0])
    assert C.contains_vector([0, 0, 1, 1])
    assert C.contains_vector([1, 1, 1, 1])


def test_hermitian_expansion_rejects():
    f4 = FieldSpec(2, 2)
    with pytest.raises(ValueError):
        hermitian_to_symplectic(ClassicalCode(2, f4, [[1, 0]]))
    with pytest.raises(ValueError):
        hermitian_to_symplectic(ClassicalCode(2, FieldSpec(3), [[1, 1]]))


def test_hermitian_zero_code():
    f4 = FieldSpec(2, 2)
    C = hermitian_to_symplectic(ClassicalCode(3, f4, []))
    assert C.rank == 0


@pytest.mark.parametrize("family,q,delta,r", [("vi", 4, 1, 0), ("vi", 4, 1, 2),
                                             ("v", 5, 2, 1)])
def test_mds_family_refuses_a_planted_non_isotropic_x(monkeypatch, family, q,
                                                       delta, r):
    # mds_family expands X's rows without checking them again: planted
    # rows that are not Hermitian self-orthogonal must miss the promised
    # dimensions
    real = rs.hermitian_self_orthogonal_rs

    def planted(tower, length, delta):
        rows = real(tower, length, delta).copy()
        rows[-1] = 0
        rows[-1, -1] = 1                 # e_{n-1}, Hermitian norm 1
        X = ClassicalCode(length, tower.top, rows)
        assert X.rank == len(rows) and not X.is_hermitian_self_orthogonal()
        return rows

    monkeypatch.setattr(rs, "hermitian_self_orthogonal_rs", planted)
    with pytest.raises(AssertionError, match="^mds_family: derived "):
        mds_family(MdsFamilySpec(q=q, family=family, delta=delta, r=r))


# -- evaluation codes --------------------------------------------------------

def test_evaluation_code_mds():
    f9 = FieldSpec(3, 2)
    pts = list(range(1, 9))              # 8 distinct nonzero elements
    code = evaluation_code(f9, pts, range(3))
    assert (code.n, code.rank) == (8, 3)
    assert code.min_wt() == 8 - 3 + 1    # MDS
    cw = mds_min_weight_codeword(code)
    assert int((cw != 0).sum()) == 6


def test_self_orthogonal_family_codes():
    for q, p, m in [(3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        tw = TowerSpec(FieldSpec(p, m))
        for length in (q - 1, q, q * q - 1, q * q):
            delta = 1 if length > q else 0
            rows = hermitian_self_orthogonal_rs(tw, length, delta)
            X = ClassicalCode(length, tw.top, rows)
            assert X.is_hermitian_self_orthogonal()


def _admitted_deltas(q, family):
    """The deltas MdsFamilySpec admits for ``family`` over q, with r = 0."""
    out = []
    for delta in range(q):
        try:
            MdsFamilySpec(q=q, family=family, delta=delta)
        except ValueError:
            continue
        out.append(delta)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_family_rows_span_the_evaluation_code(q):
    # the rows span the code the families built before, by
    # rs.evaluation_code on the same points and exponents, and it is
    # Hermitian self-orthogonal; the first delta past each range,
    # (1 + subfield) delta >= q - 1, is refused
    tower = _tower_for_q(q)
    for family, (subfield, zero) in rules._CONSTRUCTIVE.items():
        length = (q if subfield else q * q) - 1 + zero
        points = rs._field_points(tower.top, zero, q + 1 if subfield else 1)
        past = (q - 1 + subfield) // (1 + subfield)
        deltas = _admitted_deltas(q, family)
        # k >= 1 also leaves out the top of the range for some members
        assert deltas == list(range(len(deltas))) and len(deltas) <= past
        for delta in deltas:
            rows = hermitian_self_orthogonal_rs(tower, length, delta)
            exps = range(1 - zero, delta + 1)
            assert rows.shape == (len(exps), length)
            X = ClassicalCode(length, tower.top, rows)
            assert X.rank == len(rows)
            assert X == evaluation_code(tower.top, points, exps)
            assert X.is_hermitian_self_orthogonal()
        with pytest.raises(AssertionError,
                           match="not Hermitian self-orthogonal"):
            hermitian_self_orthogonal_rs(tower, length, past)


def test_family_members_build_no_code_over_f_q2(monkeypatch):
    # as for the catalog parents, the rows are expanded as they are: no
    # member (every delta, r <= 2) builds a ClassicalCode or eliminates
    # over F_{q^2}
    built, fields = [], []
    init, rref = ClassicalCode.__init__, linalg.rref

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ClassicalCode, "__init__", counting_init)
    monkeypatch.setattr(linalg, "rref", lambda mat, field: fields.append(
        field.q) or rref(mat, field))
    members = 0
    for q in (2, 3, 4, 5, 7):
        for family in rules._CONSTRUCTIVE:
            for delta in _admitted_deltas(q, family):
                for r in range(3):
                    try:
                        spec = MdsFamilySpec(q=q, family=family, delta=delta,
                                             r=r)
                    except ValueError:
                        continue
                    start = len(fields)
                    mds_family(spec, Policy(threshold=1))
                    assert fields[start:] and q * q not in fields[start:]
                    members += 1
    assert not built
    assert members == 134


# -- MDS families ------------------------------------------------------------

@pytest.mark.parametrize("fam,q,delta,r,want", [
    ("iii", 5, 1, 1, (4, 1, 1, 2)),
    ("iv", 3, 0, 0, (3, 1, 0, 2)),
    ("v", 3, 1, 5, (8, 1, 5, 2)),
    ("vi", 3, 1, 4, (9, 1, 4, 3)),
    ("v", 4, 1, 2, (15, 11, 2, 2)),
])
def test_family_members(fam, q, delta, r, want):
    res = mds_family(MdsFamilySpec(q=q, family=fam, delta=delta, r=r))
    got = bracket_params(res.output)
    assert (got.n, int(got.k), int(got.r), got.d) == want
    assert f"MDS: k + r = n - 2d + 2 = {want[0] - 2 * want[3] + 2}" \
        in res.verification


def test_family_parameter_level():
    res = mds_family(MdsFamilySpec(q=7, family="i", n=6, d=3, r=1))
    assert res.output.bracket() == "[[6,1,1,3]]_7"
    assert res.verification[f"[[6,1,1,3]]_7 exists"] == "asserted"
    res2 = mds_family(MdsFamilySpec(q=4, family="ii", delta=1, r=0))
    assert res2.output.bracket() == "[[8,4,0,3]]_4"


def test_family_out_of_range():
    with pytest.raises(ValueError):
        MdsFamilySpec(q=3, family="iii", delta=1, r=0)   # delta >= (q-1)/2
    with pytest.raises(ValueError):
        MdsFamilySpec(q=3, family="v", delta=1, r=7)     # r too large
    with pytest.raises(ValueError):
        MdsFamilySpec(q=3, family="bogus", delta=1)
    with pytest.raises(ValueError):
        MdsFamilySpec(q=7, family="i", n=8, d=3)         # n > q


def _reference_family(q, family, delta=None, r=0, n=None, d=None):
    """(n, k, r, d) of a family member by its per-family formulas, or the
    ValueError message that refuses it."""
    if family not in ("i", "ii", "iii", "iv", "v", "vi"):
        return f"unknown family {family!r}"
    if q < 2:
        return "q must be a prime power >= 2"
    if family == "i":
        if n is None or d is None:
            return "family i needs explicit n and d"
        if not (3 <= n <= q and 1 <= d <= n // 2 + 1
                and 0 <= r <= n - 2 * d + 1):
            return "family i parameters out of range"
        return (n, n - 2 * d + 2 - r, r, d)
    if delta is None:
        return "delta is required for this family"
    ok, params = {
        "ii": (0 <= delta <= q - 2
               and 0 <= r <= (delta + 1) * q - 2 * delta - 3,
               ((delta + 1) * q, (delta + 1) * q - 2 * delta - 2 - r, r,
                delta + 2)),
        "iii": (0 <= delta < (q - 1) / 2 and 0 <= r <= q - 2 * delta - 1,
                (q - 1, q - 1 - 2 * delta - r, r, delta + 1)),
        "iv": (0 <= delta < (q - 1) / 2 and 0 <= r < q - 2 * delta - 2,
               (q, q - 2 * delta - 2 - r, r, delta + 2)),
        "v": (0 <= delta < q - 1 and 0 <= r < q * q - 2 * delta - 1,
              (q * q - 1, q * q - 2 * delta - 1 - r, r, delta + 1)),
        "vi": (0 <= delta < q - 1 and 0 <= r < q * q - 2 * delta - 2,
               (q * q, q * q - 2 * delta - 2 - r, r, delta + 2)),
    }[family]
    return params if ok else f"family {family} parameters out of range"


def test_family_spec_matches_per_family_formulas():
    def spec_outcome(**kw):
        try:
            return MdsFamilySpec(**kw).target_params()
        except ValueError as exc:
            return str(exc)

    cases = [dict(q=q, family=fam, delta=delta, r=r)
             for q in (1, 2, 3, 4, 5, 7, 9)
             for fam in ("ii", "iii", "iv", "v", "vi", "bogus")
             for delta in [None] + list(range(-1, 10))
             for r in range(-2, 83)]
    cases += [dict(q=q, family="i", n=n, d=d, r=r)
              for q in (2, 3, 4, 5, 7, 9)
              for n in (None, 2, 3, 4, 5, 7, 8, 9, 10)
              for d in (None, 0, 1, 2, 3, 4, 5, 6)
              for r in range(-2, 10)]
    accepted = 0
    for kw in cases:
        want = _reference_family(**kw)
        assert spec_outcome(**kw) == want, kw
        accepted += isinstance(want, tuple)
    assert accepted > 1000


def test_certify_mds_needs_the_singleton_bound():
    # [[3,1,0,2]]_4 of family iii; threshold 1 takes every code beyond it
    tower = _tower_for_q(4)
    X = ClassicalCode(3, tower.top, hermitian_self_orthogonal_rs(tower, 3, 1))
    C = hermitian_to_symplectic(X)
    beyond = Policy(threshold=1)

    def derived(C):
        return RuleResult("certify", derive(C, Policy("skip")))

    res = derived(C)
    assert certify_mds(res, 2, "d = 2", beyond) is None   # it adds claims
    assert (res.output.d, res.output.d_method) == (2, "witness")
    assert res.verification == {"d = 2": "witness_consistent",
                                "pure": "asserted"}
    with pytest.raises(AssertionError):
        certify_mds(derived(C), 3, "d = 3", beyond)   # a planted design d + 1
    with pytest.raises(AssertionError):
        # t = 1: not F_q-linear
        certify_mds(derived(C.as_additive()), 2, "d = 2", beyond)
    # "exact" beyond the threshold is the same witness bound; it never raises
    res = derived(C)
    certify_mds(res, 2, "d = 2", Policy("exact", threshold=1))
    assert (res.output.d, res.output.d_method) == (2, "witness")
    res = derived(C)
    certify_mds(res, 2, "d = 2")
    assert res.verification == {"d = 2": "verified_exhaustive",
                                "pure": "verified_exhaustive"}
    code = res.output
    assert (code.d, code.d_method, code.swt_c_method) == (2, "exhaustive",
                                                          "exhaustive")


def test_planted_wrong_promise_names_its_producer(monkeypatch, five):
    # with no pair adjoined the derived dimensions are not the ones each
    # producer promised, and the one check after derive says whose they were
    stabilizer = mds_family(MdsFamilySpec(q=3, family="vi", delta=1)).output
    assert stabilizer.r_exp == 0 and stabilizer.k_exp > 1
    monkeypatch.setattr(rules, "_adjoin_fresh_pairs", lambda C, count: C)
    for producer, call in [
            ("shrink_k", lambda: shrink_k(five)),
            ("stabilizer_to_subsystem",
             lambda: stabilizer_to_subsystem(stabilizer, 1)),
            ("mds_family",
             lambda: mds_family(MdsFamilySpec(q=3, family="vi", delta=1,
                                              r=2)))]:
        with pytest.raises(AssertionError, match=f"^{producer}: derived "
                           r"\(log_p K, log_p R\)"):
            call()


def test_family_k0_boundary():
    res = mds_family(MdsFamilySpec(q=3, family="iii", delta=0, r=2))
    got = bracket_params(res.output)
    assert (got.n, int(got.k), int(got.r), got.d) == (2, 0, 2, 1)


def test_weight_distribution_isometry():
    # expansion preserves the full weight distribution, not just minimums
    tw = TowerSpec(FieldSpec(3, 1))
    X = ClassicalCode(8, tw.top, hermitian_self_orthogonal_rs(tw, 8, 1))
    C = hermitian_to_symplectic(X)
    assert np.array_equal(swt_distribution(C), _hamming_distribution(X))


def test_classical_modify():
    f = FieldSpec(3)
    X = ClassicalCode(3, f, [[1, 1, 1]])
    assert classical_modify(X, "extend_parity").n == 4
    assert classical_modify(X, "puncture", 0).n == 2
    assert classical_modify(X, "puncture").n == 2    # defaults to last
    with pytest.raises(ValueError):
        classical_modify(X, "fold")
