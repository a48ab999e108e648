"""The catalog of optimal pure MDS subsystem codes must reproduce exactly."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import invoke
from subsystem_codes import _enum, linalg, rules, subsystem
from subsystem_codes.codes import (DEFAULT_THRESHOLD, AdditiveCode,
                                   ClassicalCode, dual_swt_exceeds, dual_symp,
                                   min_swt, min_swt_coset)
from subsystem_codes.rs import (_field_points, evaluation_code, grs_distance,
                                hermitian_self_orthogonal_rs,
                                mds_min_weight_codeword)
from subsystem_codes.rules import (MdsFamilySpec, _tower_for_q, grow_k,
                                   hermitian_to_symplectic, mds_family)
from subsystem_codes.subsystem import PurityError, analysis_report
from subsystem_codes.table1 import (Table1Row, _ROWS, _parent_code,
                                    generate_table, rows_to_csv, rows_to_json)


@pytest.fixture(scope="module")
def rows_q3():
    return generate_table(3)


def _expand_vector(tower, row):
    """(u|v) of length 2n with row = u + beta*v entrywise; a matrix is
    expanded row by row."""
    return np.concatenate([tower._ex_u[row], tower._ex_v[row]], axis=-1)


def _row_points(tower, row):
    """The evaluation points of a catalog row's parent."""
    pts = _field_points(tower.top, row.mark == "extended")
    return pts[:-1] if row.mark == "punctured" else pts


def _parent(tower, row):
    """A row's parent Y as a reduced ClassicalCode, built apart from the
    catalog by :func:`rs.evaluation_code`."""
    return evaluation_code(tower.top, _row_points(tower, row),
                           range(row.parent[1]))


def test_q3_block_fully_verified(rows_q3):
    assert [r.subsystem for r in rows_q3] == [
        (8, 1, 5, 2), (8, 4, 2, 2), (8, 5, 1, 2),
        (9, 1, 4, 3), (9, 4, 1, 3)]
    for row in rows_q3:
        v = dict(row.verification)
        assert v.pop("parent_distance") == "verified_algebraic"
        assert set(v.values()) == {"verified_exhaustive"}
        assert row.code is not None
        n, k, r, d = row.subsystem
        m = row.code.field.m
        assert (row.code.n, row.code.k_exp, row.code.r_exp) == (n, k * m, r * m)
        assert row.code.d == d


def test_q3_marks_and_parents(rows_q3):
    marks = [r.mark for r in rows_q3]
    assert marks == ["", "", "", "extended", "extended"]
    for row in rows_q3:
        n, kappa, dist = row.parent
        assert dist == n - kappa + 1                # parent is MDS
        iota = kappa - row.subsystem[2]
        assert row.subsystem[3] == iota + 1


@pytest.mark.parametrize("q,count", [(4, 4), (5, 7), (7, 1)])
def test_large_q_blocks(q, count):
    rows = generate_table(q)
    assert len(rows) == count
    for row in rows:
        v = row.verification
        assert v["parent_distance"] == "verified_algebraic"
        assert v["radical_self_orthogonal"] == "verified_exhaustive"
        assert v["dimensions"] == "verified_exhaustive"
        assert v["distance"] in ("verified_exhaustive", "witness_consistent")
        assert v["mds_slack_zero"] == "verified_exhaustive"


def test_unknown_q_rejected():
    with pytest.raises(ValueError):
        generate_table(11)


def test_row_count_matches_catalog():
    assert sum(len(v) for v in _ROWS.values()) == 17


def test_csv_shape(rows_q3):
    text = rows_to_csv(rows_q3)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["subsystem", "parent", "mark", "offset",
                         "verification"]
    assert len(parsed) == 1 + len(rows_q3)
    assert parsed[1][0] == "[[8,1,5,2]]_3"
    assert parsed[1][1] == "[8,6,3]_3^2"


def test_json_shape(rows_q3):
    data = rows_to_json(rows_q3)
    json.dumps(data)                                 # serializable
    assert data[0]["subsystem"] == "[[8,1,5,2]]_3"
    assert set(data[0]) == {"q", "subsystem", "parent", "mark", "offset",
                            "verification"}


def test_rows_deterministic(rows_q3):
    again = generate_table(3)
    assert rows_to_json(again) == rows_to_json(rows_q3)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_report_matches_golden(q):
    # tests/golden holds the reports of `subsys table1 --q <q>`; any kernel
    # or verification change must leave them byte for byte as they are
    golden = Path(__file__).parent / "golden" / f"table1_q{q}.json"
    res = invoke(["table1", "--q", str(q)])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == golden.read_bytes()


@pytest.mark.parametrize("q", [3, 5])
def test_csv_report_matches_golden(q):
    # the JSON goldens sort keys; the CSV also pins each row's claim order
    golden = Path(__file__).parent / "golden" / f"table1_q{q}.csv"
    res = invoke(["--format", "csv", "table1", "--q", str(q)])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == golden.read_bytes()


def test_rows_and_members_derived_once(monkeypatch):
    # each row and member is derived once, so its radical is computed once;
    # beyond the threshold D^perp_s is never scanned, so certification must
    # not build it (derive takes the radical from the Gram matrix and builds
    # no dual either)
    derived, radicals, duals = [], [], []
    real_derive, real_dual = rules.derive, subsystem.dual_symp
    real_radical = subsystem.radical
    monkeypatch.setattr(subsystem, "radical", lambda C: radicals.append(C)
                        or real_radical(C))
    monkeypatch.setattr(rules, "derive", lambda C, policy: derived.append(C)
                        or real_derive(C, policy))
    for mod in (subsystem, rules):
        monkeypatch.setattr(mod, "dual_symp", lambda code: duals.append(code)
                            or real_dual(code))
    rows = generate_table(4)
    assert (len(derived), len(radicals), len(duals)) == (len(rows),) * 2 + (0,)
    derived.clear()
    res = mds_family(MdsFamilySpec(q=4, family="v", delta=2, r=1))
    assert res.output.d_method == "witness"
    assert (len(derived), len(duals)) == (1, 0)


def test_asserted_purity_is_not_certified():
    # beyond the threshold purity is only asserted: nothing may treat the
    # row code as certified pure
    code = generate_table(4)[0].code
    assert (code.d, code.d_method) == (3, "witness")
    assert code.swt_c is None and code.swt_c_method is None
    assert analysis_report(code)["purity"]["kind"] != "pure"
    with pytest.raises(PurityError):
        grow_k(code)


def _coset_witness(tower, radical, C):
    """Weight of a minimum-weight word of radical^perp_h outside C.

    The expansion keeps weights and spans D^perp_s, so this is an upper
    bound on d found by search, independent of the Singleton bound.
    """
    cw = mds_min_weight_codeword(
        radical.dual("hermitian"),
        accept=lambda cw: not C.contains_vector(_expand_vector(tower, cw)))
    return int((cw != 0).sum())


@pytest.mark.parametrize("q,member", [
    (4, ("v", 2, 1)), (5, ("vi", 3, 4)), (7, ("iii", 1, 2)),
])
def test_singleton_bound_agrees_with_witness_search(q, member):
    # beyond the threshold the certified d and parent distance come from
    # the Singleton bounds; a search must find codewords of those weights
    tower = _tower_for_q(q)
    for row in generate_table(q):
        assert row.verification["distance"] == "witness_consistent"
        dist = row.parent[2]
        Y = _parent(tower, row)
        assert int((mds_min_weight_codeword(Y) != 0).sum()) == dist
        assert _coset_witness(tower, Y.hermitian_radical(),
                              row.code.C) == row.subsystem[3]
    family, delta, r = member
    spec = MdsFamilySpec(q=q, family=family, delta=delta, r=r)
    res = mds_family(spec)
    d = spec.target_params()[3]
    assert res.verification[f"d = {d}"] == "witness_consistent"
    n = res.output.n
    X = ClassicalCode(n, tower.top, hermitian_self_orthogonal_rs(tower, n,
                                                                 delta))
    assert _coset_witness(tower, X, res.output.C) == d


def _members_within_threshold():
    """Every family iii-vi member over q <= 9 whose D^perp_s is enumerated
    (n m <= 24 leaves out only members far beyond the threshold)."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = _tower_for_q(q).base.m
        for family in ("iii", "iv", "v", "vi"):
            for delta in range(q):
                for r in range(12):
                    try:
                        spec = MdsFamilySpec(q=q, family=family, delta=delta,
                                             r=r)
                    except ValueError:
                        continue
                    if spec.target_params()[0] * m > 24:
                        continue
                    res = mds_family(spec)
                    if getattr(res.output, "d_method", None) == "exhaustive":
                        out.append((spec, res.output))
    return out


def test_certificate_agrees_with_span_enumeration(rows_q3):
    # the coordinate-set search and a scan of D^perp_s give the same
    # swt(D^perp_s), which is the design d, on every q = 3 row and every
    # family member within the threshold
    cases = [(r.subsystem[3], r.code) for r in rows_q3]
    members = _members_within_threshold()
    cases += [(spec.target_params()[3], code) for spec, code in members]
    assert len(members) >= 50
    assert {d for d, _ in cases} == {1, 2, 3, 4}
    for d, code in cases:
        dual = dual_symp(code.D)
        assert min_swt(dual) == d
        assert dual_swt_exceeds(code.D, d - 1)
        assert not dual_swt_exceeds(code.D, d)
        assert (code.d, code.d_method, code.swt_c_method) == (
            d, "exhaustive", "exhaustive")
        assert code.swt_c == min_swt(code.C) >= d
    for row in rows_q3:
        # the coset scan the certificate replaced
        d = row.subsystem[3]
        assert min_swt_coset(dual_symp(row.code.D), row.code.C) == (
            d, "exhaustive")


@pytest.mark.parametrize("q,family,delta", [(3, "vi", 1), (5, "iv", 1),
                                            (7, "iv", 2), (8, "iii", 3)])
def test_certificate_refuses_two_dependent_columns(q, family, delta):
    # make x_1 a multiple of x_0 in every row of the radical: then D^perp_s
    # holds a vector on y_0 and y_1 alone, and a certificate for d >= 3
    # must refuse, as span enumeration confirms
    code = mds_family(MdsFamilySpec(q=q, family=family, delta=delta)).output
    D, f, d = code.D, code.field, code.d
    assert d >= 3 and dual_swt_exceeds(D, d - 1)
    rows = D.mat.copy()
    rows[:, 1] = f.mul_arr(rows[:, 0], f.generator)
    planted = AdditiveCode(D.n, f, rows, D.t)
    assert not dual_swt_exceeds(planted, 2)
    assert not dual_swt_exceeds(planted, d - 1)
    assert min_swt(dual_symp(planted)) <= 2


def test_catalog_scans_no_dual_and_few_vectors(monkeypatch):
    # the q = 3 rows get d from the coordinate-set search, so no scan of
    # D^perp_s is made, and the parents' distances come from their
    # construction, so no parent is scanned either: a catalog pass
    # requests only the swt(C) scans of the q = 3 rows (the F_p-class scans
    # with D^perp_s minus C requested 17.5 M, the parent scans 0.97 M)
    calls, parent_calls = [], []
    real = _enum.min_weight_range
    monkeypatch.setattr(
        _enum, "min_weight_range",
        lambda gens, p, groups, size, lo, hi, **kw: calls.append(
            (len(gens), hi - lo)) or real(gens, p, groups, size, lo, hi, **kw))
    # neither a parent's distance nor its radical Y ^ Y^perp_h is computed
    for name in ("min_wt", "hermitian_radical"):
        monkeypatch.setattr(ClassicalCode, name,
                            lambda self, *a, **kw: parent_calls.append(self))
    rows = generate_table(3)
    # a scan of D^perp_s, or of a coset in it, ends on all of its rows
    smallest = min(2 * r.code.n * r.code.field.m - r.code.D.rank_p
                   for r in rows)
    assert calls and max(k for k, _ in calls) < smallest
    for q in (4, 5, 7):
        generate_table(q)
    assert not parent_calls
    assert sum(vectors for _, vectors in calls) <= 600_000


def _catalog():
    """(row, parent code, proved parent distance) for all 17 rows."""
    out = []
    for q in sorted(_ROWS):
        tower = _tower_for_q(q)
        for row in generate_table(q):
            Y = _parent(tower, row)
            out.append((row, Y, grs_distance(_row_points(tower, row),
                                             range(Y.rank))))
    return out


def test_parent_expansion_matches_the_validated_expansion():
    # the catalog expands the evaluation rows themselves, with no Y built;
    # the oracle expands Y's reduced basis into a validated AdditiveCode
    catalog = _catalog()
    assert len(catalog) == 17
    for row, Y, _ in catalog:
        tower = _tower_for_q(row.q)
        gens = np.concatenate([Y.mat, tower.top.mul_arr(Y.mat, tower.beta)])
        want = AdditiveCode(Y.n, tower.base, _expand_vector(tower, gens),
                            tower.base.m)
        assert want.rank == 2 * Y.rank == 2 * row.parent[1]
        assert _parent_code(tower, row.parent, row.mark) == want


def test_catalog_pass_eliminates_over_f_q_only(monkeypatch):
    # each parent is expanded from its evaluation rows, so no elimination
    # of a pass runs over F_{q^2}
    fields = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda mat, field: fields.append(
        field.q) or real(mat, field))
    for q in (3, 4, 5, 7):
        start = len(fields)
        generate_table(q)
        assert q * q not in fields[start:]
    assert len(fields) == 34


def test_parent_certificate_agrees_with_enumeration():
    # the 12 parents whose span fits under the threshold are enumerated
    # and have exactly the distance their construction proves; the other
    # 5 are cross-checked by the codeword search of
    # test_singleton_bound_agrees_with_witness_search
    within = 0
    for row, Y, dist in _catalog():
        assert dist == row.parent[2] == Y.n - Y.rank + 1
        if Y.field.q ** Y.rank <= DEFAULT_THRESHOLD:
            assert Y.min_wt() == dist
            within += 1
        if row.mark == "punctured":
            # evaluating on one point fewer is puncturing the plain code
            tower = _tower_for_q(row.q)
            full = evaluation_code(tower.top, _field_points(tower.top, False),
                                   range(Y.rank))
            assert Y == full.puncture(full.n - 1)
    assert within == 12


@pytest.mark.parametrize("points,exponents,refusal", [
    ([1, 2, 3, 4], [0, 1, 3], "not a run"),
    ([1, 2, 2, 4], [0, 1, 2], "not distinct"),
    ([1, 2, 3, 0], [1, 2], "multiplier 0"),
    ([1, 2, 3], [0, 1, 2, 3], "exceeds the length"),
])
def test_grs_certificate_refuses_planted_inputs(points, exponents, refusal):
    with pytest.raises(AssertionError, match=refusal):
        grs_distance(points, exponents)
    # inputs that meet every condition are accepted
    assert grs_distance([1, 2, 3, 4], [2, 3, 4]) == 2
    assert grs_distance([1, 2, 3, 0], [0, 1]) == 3


def test_planted_rows_are_refused(monkeypatch):
    tower = _tower_for_q(3)
    # a parent distance its construction does not prove
    with pytest.raises(AssertionError, match="not the row's"):
        _parent_code(tower, (8, 6, 4), "")
    # consistent bookkeeping, but the parent's radical has dimension 1, not 2
    monkeypatch.setitem(_ROWS, 3, [((8, 0, 4, 3), (8, 6, 3), "")])
    with pytest.raises(AssertionError, match="^generate_table: derived"):
        generate_table(3)
    # the right dimensions with d != iota + 1: zero Singleton slack refuses
    for d, refusal in [(3, "violate k\\+r <= n-2d\\+2"),
                       (1, "Singleton bound does not give d <= 1")]:
        monkeypatch.setitem(_ROWS, 3, [((8, 1, 5, d), (8, 6, 3), "")])
        with pytest.raises(AssertionError, match=refusal):
            generate_table(3)


def test_derived_radical_is_the_expansion_of_the_hermitian_radical():
    # derive reads D off the Gram matrix of the expansion of Y; the
    # independent oracle is the expansion of Y intersect Y^perp_h
    for row, Y, _ in _catalog():
        assert row.code.D == hermitian_to_symplectic(Y.hermitian_radical())
