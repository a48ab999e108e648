"""The catalog of optimal pure MDS subsystem codes must reproduce exactly."""

import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from subsystem_codes import rules, subsystem
from subsystem_codes.cli import main
from subsystem_codes.rs import (hermitian_self_orthogonal_rs,
                                mds_min_weight_codeword)
from subsystem_codes.rules import (MdsFamilySpec, _expand_vector,
                                   _tower_for_q, grow_k, mds_family)
from subsystem_codes.subsystem import PurityError, analysis_report
from subsystem_codes.table1 import (Table1Row, _ROWS, _find_offset,
                                    generate_table, rows_to_csv,
                                    rows_to_json)


@pytest.fixture(scope="module")
def rows_q3():
    return generate_table(3)


def test_q3_block_fully_verified(rows_q3):
    assert [r.subsystem for r in rows_q3] == [
        (8, 1, 5, 2), (8, 4, 2, 2), (8, 5, 1, 2),
        (9, 1, 4, 3), (9, 4, 1, 3)]
    for row in rows_q3:
        assert set(row.verification.values()) == {"verified_exhaustive"}
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
        assert v["parent_distance"] in ("verified_exhaustive",
                                        "witness_consistent")
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
    res = CliRunner().invoke(main, ["table1", "--q", str(q)])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == golden.read_bytes()


def test_rows_and_members_derived_once(monkeypatch):
    # each row and member is derived once; beyond the threshold D^perp_s is
    # never scanned, so certification must not build it (derive takes the
    # radical from the Gram matrix and builds no dual either)
    derived, duals = [], []
    real_derive, real_dual = rules.derive, subsystem.dual_symp
    monkeypatch.setattr(rules, "derive", lambda C, policy: derived.append(C)
                        or real_derive(C, policy))
    for mod in (subsystem, rules):
        monkeypatch.setattr(mod, "dual_symp", lambda code: duals.append(code)
                            or real_dual(code))
    rows = generate_table(4)
    assert (len(derived), len(duals)) == (len(rows), 0)
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
        n, kappa, dist = row.parent
        iota = kappa - row.subsystem[2]
        _, Y, Ys = _find_offset(tower, row.parent, row.mark, iota)
        assert int((mds_min_weight_codeword(Y) != 0).sum()) == dist
        assert _coset_witness(tower, Ys, row.code.C) == row.subsystem[3]
    family, delta, r = member
    spec = MdsFamilySpec(q=q, family=family, delta=delta, r=r)
    res = mds_family(spec)
    d = spec.target_params()[3]
    assert res.verification[f"d = {d}"] == "witness_consistent"
    X = hermitian_self_orthogonal_rs(tower, res.output.n, delta)
    assert _coset_witness(tower, X, res.output.C) == d
