"""End-to-end command-line behavior, run in process through ``invoke``."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import invoke
from subsystem_codes import codes
from subsystem_codes.cli import _PARAM_RE, main, parse_params
from subsystem_codes.codes import AdditiveCode
from subsystem_codes.gf import FieldSpec
from subsystem_codes.known import bacon_shor_code, five_qubit_code


@pytest.fixture()
def five_path(tmp_path):
    path = tmp_path / "five.json"
    five_qubit_code().save(path)
    return str(path)


@pytest.fixture()
def shor_path(tmp_path):
    path = tmp_path / "shor.json"
    bacon_shor_code().save(path)
    return str(path)


def test_analyze_five_qubit(five_path):
    res = invoke(["analyze", five_path])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["bracket"] == "[[5,1,0,3]]_2"
    assert report["bounds"]["hamming"]["attained"] is True
    assert report["bounds"]["singleton"]["slack"] == 0


def test_analyze_text_format(shor_path):
    res = invoke(["--format", "text", "analyze", shor_path])
    assert res.exit_code == 0, res.output
    assert "code: [[9,1,4,3]]_2" in res.output
    assert "purity: impure" in res.output
    assert "distance: 3 [exhaustive]" in res.output


def test_version():
    res = invoke(["--version"])
    assert res.exit_code == 0, res.output
    assert "0.1.0" in res.output


def test_checkout_runs_without_install():
    # README: PYTHONPATH=src python3 -m subsystem_codes.cli ... in a checkout
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-m", "subsystem_codes.cli",
                          "--version"], cwd=root, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert "0.1.0" in res.stdout


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = invoke(["analyze", str(bad)])
    assert res.exit_code != 0
    assert "cannot load code file" in res.output


def test_analyze_non_primitive_modulus(tmp_path):
    # x^10 + ... + x + 1 is irreducible over F_2, but x has order 11 only:
    # the field must multiply as it does under the Conway modulus
    brackets = []
    for modulus in ([1] * 11, None):
        data = {"p": 2, "m": 10, "n": 1, "coeff_degree": 10,
                "generators": [[1, 0]]}
        if modulus:
            data["modulus"] = modulus
        path = tmp_path / f"gf1024_{len(brackets)}.json"
        path.write_text(json.dumps(data))
        res = invoke(["analyze", str(path)])
        assert res.exit_code == 0, res.output
        brackets.append(json.loads(res.output)["bracket"])
    assert brackets == ["[[1,0,0,1]]_1024"] * 2


def test_analyze_refuses_reducible_modulus(tmp_path):
    # x^2 + 1 = (x + 1)^2 over F_2
    bad = tmp_path / "reducible.json"
    bad.write_text(json.dumps({"p": 2, "m": 2, "modulus": [1, 0, 1], "n": 1,
                               "coeff_degree": 1, "generators": [[1, 0]]}))
    res = invoke(["analyze", str(bad)])
    assert res.exit_code == 1
    assert f"cannot load code file {bad}: " in res.output
    assert "is not irreducible" in res.output


@pytest.mark.parametrize("fields", [
    {"coeff_degree": 1, "generators": [[7, 0, 0, 1]]},
    {"coeff_degree": 2, "generators": [[7, 0, 0, 1]]},
    {"coeff_degree": 2, "generators": [[-1, 0, 0, 1]]},
    {"coeff_degree": 1, "generators": [[1.5, 0, 0, 1]]},
    {"coeff_degree": 1, "generators": [[1, 0, 0]]},
    {"coeff_degree": 1, "generators": 5},
    # a coefficient degree other than 1 and m
    {"m": 4, "coeff_degree": 2, "generators": [[1, 0, 0, 0]]},
    # modulus coefficients outside 0..p-1, read as [1, 1, 1] mod 2 before
    {"modulus": [3, 1, 1], "coeff_degree": 1, "generators": [[1, 0, 0, 1]]},
    {"modulus": [-1, 1, 1], "coeff_degree": 1, "generators": [[1, 0, 0, 1]]},
])
def test_analyze_rejects_bad_entries(tmp_path, fields):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "m": 2, "n": 2, **fields}))
    res = invoke(["analyze", str(bad)])
    assert res.exit_code != 0
    assert "cannot load code file" in res.output
    # a clean refusal, not an exception escaping with a traceback
    assert isinstance(res.exception, SystemExit)


_DATA = Path(__file__).parents[1] / "data"
_FIVE = json.loads((_DATA / "five_qubit.json").read_text())


@pytest.mark.parametrize("key,value", [
    ("n", 5.7), ("p", 2.9), ("m", 1.5), ("coeff_degree", True), ("n", "5"),
    ("m", 1.0), ("p", None), ("modulus", [1, 1.0]), ("modulus", [1, True]),
])
def test_analyze_rejects_non_integer_fields(tmp_path, key, value):
    # int() read each of these edits as the five-qubit code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_FIVE, key: value}))
    res = invoke(["analyze", str(bad)])
    assert res.exit_code == 1
    assert f"cannot load code file {bad}: field {key!r}" in res.output


_NOT_AN_INTEGER = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=4),
    st.integers(-2, 20).map(str), st.lists(st.integers(0, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=2))


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(["n", "p", "m", "coeff_degree", "modulus"]),
       value=_NOT_AN_INTEGER)
def test_malformed_code_files_fail_cleanly(tmp_path_factory, key, value):
    data = dict(_FIVE)
    if key == "modulus":
        data[key] = [value, 1]
    else:
        data[key] = value
    path = tmp_path_factory.mktemp("code") / "bad.json"
    path.write_text(json.dumps(data))
    res = invoke(["analyze", str(path)])
    assert res.exit_code == 1
    assert "cannot load code file" in res.output
    # an uncaught exception would have been a traceback
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


_NOT_A_LIST = st.one_of(
    st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
    st.text(max_size=12), st.dictionaries(st.text(max_size=2),
                                          st.integers(0, 1), max_size=2))


@st.composite
def _generator_edits(draw):
    """The five-qubit code file with one malformed generator list or n."""
    data = json.loads(json.dumps(_FIVE))
    gens = data["generators"]
    i = draw(st.integers(0, len(gens) - 1))
    j = draw(st.integers(0, len(gens[i]) - 1))
    edit = draw(st.sampled_from(
        ["ragged", "nested", "row", "generators", "empty", "huge n",
         "n <= 0"]))
    if edit == "ragged":
        if draw(st.booleans()):
            del gens[i][j]
        else:
            gens[i].insert(j, draw(st.integers(0, 1)))
    elif edit == "nested":
        gens[i][j] = draw(st.lists(st.integers(0, 1), max_size=3))
    elif edit == "row":
        gens[i] = draw(_NOT_A_LIST)
    elif edit == "generators":
        data["generators"] = draw(_NOT_A_LIST)
    elif edit == "empty":
        data["generators"] = []
    elif edit == "huge n":
        data["n"] = draw(st.integers(6, 10**40))
    else:
        data["n"] = draw(st.integers(-10**40, 0))
    return data


@settings(max_examples=300, deadline=None)
@given(data=_generator_edits())
@example(data={**_FIVE, "n": -5})
@example(data={**_FIVE, "n": 10**30, "generators": []})
@example(data={**_FIVE, "generators": [[[1, 0]] + _FIVE["generators"][0][1:]]
               + _FIVE["generators"][1:]})
def test_malformed_generator_lists_fail_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("code") / "bad.json"
    path.write_text(json.dumps(data))
    res = invoke(["analyze", str(path)])
    assert res.exit_code == 1
    assert "cannot load code file" in res.output
    # the message names the field, the entry or the generator at fault,
    # not numpy's array shapes or a negative entry count
    assert re.search(r"field '(n|generators)'|generator (entry|must have)"
                     r"|is not a list", res.output)
    assert "inhomogeneous" not in res.output
    assert "must have -" not in res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["analyze", str(_DATA / "five_qubit.json")],
    ["transform", str(_DATA / "five_qubit.json"), "--rule", "shrink-k"],
    ["table1", "--q", "3"],
    ["family", "--family", "vi", "--q", "3", "--delta", "1", "-r", "4"],
])
def test_unwritable_emit_path_fails_cleanly(tmp_path, args):
    # AdditiveCode.save (transform) and the report writer (the others)
    path = tmp_path / "missing_dir" / "out.json"
    res = invoke(["--emit", str(path), *args])
    assert res.exit_code == 1
    assert f"cannot write {path}: No such file or directory" in res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_transform_shrink_emits_code(five_path, tmp_path):
    out_path = tmp_path / "shrunk.json"
    res = invoke(["--emit", str(out_path), "transform",
                  five_path, "--rule", "shrink-k"])
    assert res.exit_code == 0, res.output
    emitted = AdditiveCode.load(out_path)
    assert emitted.n == 5 and emitted.rank_p == 6    # ((5,1,2,3)) gauge group
    # csv is refused with or without --emit, before any file is written
    csv_path = tmp_path / "csv.json"
    for emit in ([], ["--emit", str(csv_path)]):
        res = invoke(["--format", "csv", *emit, "transform",
                      five_path, "--rule", "shrink-k"])
        assert res.exit_code == 2
        assert "CSV output is only available for table1" in res.output
    assert not csv_path.exists()


def test_transform_grow_on_impure_fails(shor_path):
    res = invoke(["transform", shor_path, "--rule", "grow-k"])
    assert res.exit_code != 0
    assert "grid" in res.output or "absorb" in res.output.lower()


@pytest.mark.parametrize("p", [2, 3])
def test_transform_grow_refuses_a_lone_hyperbolic_pair(tmp_path, p):
    # [[1,0,1,1]]_p: the gauge code is one pair with a trivial radical, so
    # dropping the pair would leave the zero code
    path = tmp_path / "pair.json"
    AdditiveCode(1, FieldSpec(p), [[1, 0], [0, 1]]).save(path)
    assert json.loads(invoke(["analyze", str(path)]).stdout)["bracket"] == (
        f"[[1,0,1,1]]_{p}")
    res = invoke(["transform", str(path), "--rule", "grow-k"])
    assert res.exit_code == 1
    assert res.output == ("Error: the radical is trivial; the gauge code is "
                          "one hyperbolic pair, and dropping it leaves no "
                          "code\n")


@pytest.mark.parametrize("pre, code, rule, message", [
    (["--threshold", "1"], "five", "shrink-k", "purity of the input could "
     "not be established"),
    (["--distance", "skip"], "five", "shrink-k", "purity of the input could "
     "not be established"),
    (["--threshold", "1"], "five", "to-stabilizer", "purity of the input "
     "could not be established"),
    ([], "shor", "shrink-k", "shrinking K = p^t = 2 to 1 requires a pure "
     "input code"),
    ([], "shor", "to-stabilizer", "only pure subsystem codes collapse to a "
     "stabilizer code of the same distance"),
])
def test_purity_refusal_names_its_cause(five_path, shor_path, pre, code,
                                        rule, message):
    # the five-qubit code is pure, but not proved so when swt(C) is not
    # enumerated; the Bacon-Shor code is proved impure
    path = five_path if code == "five" else shor_path
    res = invoke([*pre, "transform", path, "--rule", rule])
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


_ASSERTED_WARNING = ("warning: some results rest on witness or asserted "
                      "verification only\n")


def test_transform_shorten_params():
    res = invoke(["transform", "--rule", "shorten-n",
                  "--params", "[[5,1,0,3]]_2 pure"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["output"]["bracket"] == "[[4,2,0,2]]_2"
    # every claim of a parameter-level rule is asserted, which is flagged
    assert res.stderr == _ASSERTED_WARNING


def test_strict_refuses_parameter_level_rules():
    res = invoke(["--strict", "transform", "--rule", "shorten-n",
                  "--params", "[[5,1,0,3]]_2 pure"])
    assert res.exit_code == 3
    assert json.loads(res.stdout)["output"]["bracket"] == "[[4,2,0,2]]_2"
    assert res.stderr == (
        "warning: some results rest on witness or asserted verification "
        "only: n' = n - 1, k' = k + 1, r' = r, d' = d - 1 (asserted), "
        "pure (asserted)\n")


def test_transform_combine_params():
    res = invoke([
        "transform", "--rule", "combine-nested", "-r", "0",
        "--subset-assumed",
        "--params", "[[5,1,0,3]]_2 pure", "--params", "[[5,1,0,3]]_2 pure"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["output"]["bracket"] == "[[10,2,0,>=3]]_2"
    assert res.stderr == _ASSERTED_WARNING


@pytest.mark.parametrize("second,bracket,claim", [
    ("[[4,2,0,2]]_2 pure", "[[7,1,0,>=3]]_2",
     "d' >= min(d1, d1 + d2 - k2 - r2) = 3"),
    # d1 + d2 - k2 - r2 = -1 was refused with "distance must be >= 1"
    ("[[5,3,0,1]]_2 pure", "[[5,1,0,>=1]]_2",
     "d' >= 1 is the trivial bound (min(d1, d1 + d2 - k2 - r2) = -1)"),
])
def test_transform_combine_disjoint(second, bracket, claim):
    first = "[[5,1,0,3]]_2 pure" if "[[4," in second else "[[3,1,0,1]]_2 pure"
    res = invoke(["transform", "--rule", "combine-disjoint",
                  "--params", first, "--params", second])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["output"]["bracket"] == bracket
    assert payload["claims"][-1] == claim
    assert res.stderr == _ASSERTED_WARNING


def test_transform_missing_params():
    res = invoke(["transform", "--rule", "combine-disjoint",
                  "--params", "[[5,1,0,3]]_2"])
    assert res.exit_code != 0
    assert "two --params" in res.output


def test_table1_csv():
    res = invoke(["--format", "csv", "table1", "--q", "3"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("subsystem,parent,mark")
    assert len(lines) == 6
    assert "[[9,4,1,3]]_3" in lines[-1]


def test_table1_unknown_q():
    res = invoke(["table1", "--q", "11"])
    assert res.exit_code != 0
    assert "no catalog rows" in res.output


@pytest.mark.parametrize("args,kind,value", [
    # d is a witness upper bound, so swt(C) = 2 < d proves no impurity
    (["--distance", "witness"], "pure_to", 2),
    # swt(C) is a witness too: the code is pure to 1, which every code is
    (["--threshold", "8"], "pure_to", 1),
])
def test_analyze_witness_distance_is_not_impure(args, kind, value):
    res = invoke(args + ["analyze", str(_DATA / "bacon_shor.json")])
    assert res.exit_code == 0, res.output
    purity = json.loads(res.stdout)["purity"]
    assert (purity["kind"], purity["value"]) == (kind, value)


@pytest.mark.parametrize("t,gens,bound", [
    # F_4-linear [[3,2,1,d]]_4: a witness d = 3 has Singleton slack -4
    (2, [[1, 0, 0, 0, 1, 0], [0, 1, 2, 0, 0, 0]], "singleton"),
    # t = 1, true d = 1: a witness d = 3 breaks the Hamming bound
    (1, [[1, 1, 1, 0, 0, 0], [2, 2, 2, 0, 0, 0]], "hamming"),
])
@pytest.mark.parametrize("args,status", [
    (["--distance", "witness"], 0),
    (["--threshold", "8"], 0),
    (["--strict", "--distance", "witness"], 3),
])
def test_witness_overshoot_is_no_bound_violation(monkeypatch, tmp_path, t,
                                                 gens, bound, args, status):
    # a witness d is an upper bound: past a bound it says the true d is
    # smaller, where a proved d would be an internal error
    monkeypatch.setattr(codes, "WITNESS_RANDOM_SAMPLES", 8)
    monkeypatch.setattr(codes, "_witness_search",
                        lambda gens, p, n_groups, *rest: n_groups)
    path = tmp_path / "code.json"
    AdditiveCode(3, FieldSpec(2, 2), gens, t).save(path)
    res = invoke(args + ["analyze", str(path)])
    assert res.exit_code == status, res.output
    report = json.loads(res.stdout)
    assert (report["distance"]["value"], report["distance"]["method"]) == (
        3, "witness")
    rep = report["bounds"][bound]
    assert rep["slack"] < 0 and not rep["attained"]
    assert rep["notes"][-1] == (
        "the witness d exceeds the bound, so the true d is smaller")


@pytest.mark.parametrize("mode,rule,claim", [
    # the output's exact swt(C') >= 3 proves it, whatever the input's d
    ("witness", "shrink-k", "pure to 3"),
    # every nonzero vector has swt >= 1, measured or not
    ("skip", "extend-n", "pure to 1"),
])
def test_transform_exact_value_proves_claim(mode, rule, claim):
    res = invoke(["--distance", mode, "transform",
                  str(_DATA / "five_qubit.json"), "--rule", rule])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["verification"][claim] == (
        "verified_exhaustive")


def test_table1_strict_downgrade_exits_3():
    # q = 4 distances rest on witnesses, so --strict must refuse
    res = invoke(["--strict", "table1", "--q", "4"])
    assert res.exit_code == 3


def test_strict_names_downgraded_claims(shor_path):
    res = invoke(["--strict", "--distance", "witness",
                  "analyze", shor_path])
    assert res.exit_code == 3
    assert res.stderr.endswith("verification only: distance (witness)\n")
    res = invoke(["--strict", "table1", "--q", "4"])
    assert res.exit_code == 3
    assert "[[15,1,10,3]]_4 distance (witness_consistent)" in res.stderr
    assert "[[16,1,9,4]]_4 pure (asserted)" in res.stderr
    # without --strict the warning stays as it was and names nothing
    res = invoke(["table1", "--q", "4"])
    assert res.exit_code == 0
    assert res.stderr == ("warning: some results rest on witness or "
                          "asserted verification only\n")
    # family names asserted claims as well as downgraded values, as
    # transform does
    res = invoke(["--strict", "family", "--family", "v",
                  "--q", "4", "--delta", "2", "-r", "1"])
    assert res.exit_code == 3
    assert res.stderr.endswith(
        "verification only: distance (witness), pure (asserted)\n")
    # --distance changes nothing for table1 and family, so it is refused
    for mode in ("witness", "skip"):
        for args in (["table1", "--q", "3"],
                     ["family", "--family", "vi", "--q", "3", "--delta", "1",
                      "-r", "4"]):
            res = invoke(["--distance", mode] + args)
            assert res.exit_code == 2
            assert "--distance has no effect" in res.stderr
    res = invoke(["--distance", "exact", "table1", "--q", "3"])
    assert res.exit_code == 0


def test_threshold_env_and_bad_value(shor_path):
    res = invoke(["analyze", shor_path],
                 env={"SUBSYS_THRESHOLD": "8"})
    assert res.exit_code == 0
    assert json.loads(res.stdout)["distance"]["method"] == "witness"
    for args, message in [
            (["--threshold", "0", "table1", "--q", "3"],
             "threshold must be >= 1"),
            (["--seed", "-1", "analyze", shor_path], "seed must be >= 0"),
            (["--seed", "-2", "analyze", shor_path], "seed must be >= 0")]:
        res = invoke(args)
        assert res.exit_code == 2
        assert f"Invalid value: {message}" in res.output


def test_family_command():
    res = invoke(["family", "--family", "vi", "--q", "3",
                  "--delta", "1", "-r", "4"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["output"]["bracket"] == "[[9,1,4,3]]_3"


def test_family_delta0_member_has_singleton_witness():
    # d = 1 is an upper bound from the Singleton bound, as for delta > 0;
    # every distance is at least 1, so that witness proves d = 1
    res = invoke(["family", "--family", "v", "--q", "4",
                  "--delta", "0", "-r", "1"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert payload["output"]["distance"]["method"] == "witness"
    assert payload["verification"]["d = 1"] == "verified_exhaustive"


def test_family_distance_one_is_proved_and_strict_passes():
    # d = 1 and swt(C) >= 1 hold for every code: no claim is left open
    args = ["family", "--family", "v", "--q", "4", "--delta", "0", "-r", "1"]
    payload = json.loads(invoke(args).stdout)
    assert payload["output"]["params"]["d"] == 1
    assert payload["output"]["purity"]["kind"] == "pure"
    assert {payload["verification"][c] for c in ("d = 1", "pure")} == {
        "verified_exhaustive"}
    res = invoke(["--strict", *args])
    assert res.exit_code == 0 and res.stderr == "", res.output


def test_family_parameter_level():
    res = invoke(["family", "--family", "i", "--q", "7",
                  "--n", "6", "--d", "3", "-r", "1"])
    assert res.exit_code == 0, res.output
    # the existence claim is asserted, which is flagged on stderr
    body = "".join(line for line in res.output.splitlines(keepends=True)
                   if not line.startswith("warning:"))
    payload = json.loads(body)
    assert payload["output"]["bracket"] == "[[6,1,1,3]]_7"
    assert payload["verification"]["[[6,1,1,3]]_7 exists"] == "asserted"


@pytest.mark.parametrize("args,option", [
    (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r", "4",
      "--n", "100", "--d", "50"], "--n applies only to family i"),
    (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r", "4",
      "--d", "50"], "--d applies only to family i"),
    (["family", "--family", "i", "--q", "7", "--n", "6", "--d", "3", "-r",
      "1", "--delta", "5"], "--delta does not apply to family i"),
    (["transform", "FILE", "--rule", "shrink-k", "-r", "3"],
     "--target-r applies only to to-subsystem and the"),
    (["transform", "FILE", "--rule", "grow-k", "-r", "0"],
     "--target-r applies only to to-subsystem and the"),
    # inputs the rule would not read: --params, the code file, the flag
    (["transform", "FILE", "--rule", "shrink-k", "--params", "[[9,9,9,9]]_2"],
     "--params applies only to the parameter-level rules"),
    (["transform", "FILE", "--rule", "shorten-n", "--params",
      "[[5,1,0,3]]_2 pure"], "FILE applies only to the constructive rules"),
    (["transform", "--rule", "shorten-n", "--subset-assumed", "--params",
      "[[5,1,0,3]]_2 pure"], "--subset-assumed applies only to combine-nested"),
    # no witness search runs in table1 or family
    (["--seed", "7", "table1", "--q", "3"], "--seed has no effect on table1"),
    (["--seed", "0", "family", "--family", "vi", "--q", "3", "--delta", "1",
      "-r", "4"], "--seed has no effect on family"),
    # the attached spellings of the same options are refused alike
    (["transform", "FILE", "--rule", "grow-k", "-r3"],
     "--target-r applies only to to-subsystem and the"),
    (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r", "4",
      "--n=100"], "--n applies only to family i"),
])
def test_options_that_do_not_apply_are_refused(five_path, args, option):
    res = invoke([five_path if a == "FILE" else a for a in args])
    assert res.exit_code == 2
    assert f"Error: {option}" in res.stderr
    assert res.stdout == ""


def test_options_that_apply_or_come_from_the_environment(five_path):
    # the same options where they apply, and values the environment sets
    # for every run, still succeed
    for args, env in [
            (["family", "--family", "i", "--q", "7", "--n", "6", "--d", "3",
              "-r", "1"], {}),
            (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r",
              "4"], {"SUBSYS_FAMILY_N": "100", "SUBSYS_FAMILY_D": "50"}),
            (["family", "--family", "i", "--q", "7", "--n", "6", "--d", "3",
              "-r", "1"], {"SUBSYS_FAMILY_DELTA": "5"}),
            (["transform", five_path, "--rule", "to-subsystem", "-r", "0"],
             {}),
            (["transform", five_path, "--rule", "shrink-k"],
             {"SUBSYS_TRANSFORM_TARGET_R": "3"}),
            (["transform", "--rule", "shorten-n", "--params",
              "[[5,1,0,3]]_2 pure"], {"SUBSYS_TRANSFORM_SUBSET_ASSUMED": "1"}),
            (["table1", "--q", "3"], {"SUBSYS_SEED": "7"}),
            (["table1", "--q", "3"], {"SUBSYS_DISTANCE": "witness"}),
            (["table1", "--q", "3"], {"SUBSYS_DISTANCE": "skip"}),
            (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r",
              "4"], {"SUBSYS_DISTANCE": "witness"}),
            (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r",
              "4"], {"SUBSYS_DISTANCE": "skip"})]:
        res = invoke(args, env=env)
        assert res.exit_code == 0, (args, res.output)
        json.loads(res.stdout)
    res = invoke(["transform", "--rule", "combine-disjoint",
                  "-r", "0", "--params", "[[5,1,0,3]]_2 pure",
                  "--params", "[[5,1,0,3]]_2 pure"])
    assert res.exit_code == 0, res.output


_PURE5 = "[[5,1,0,3]]_2 pure"


@pytest.mark.parametrize("args,env,message", [
    (["transform", "--rule", "combine-nested", "-r", "0", "--params", _PURE5,
      "--params", _PURE5], {},
     "combine-nested needs --subset-assumed to confirm"),
    # a false value from the environment leaves the flag unset
    (["transform", "--rule", "combine-nested", "-r", "0", "--params", _PURE5,
      "--params", _PURE5], {"SUBSYS_TRANSFORM_SUBSET_ASSUMED": "0"},
     "combine-nested needs --subset-assumed to confirm"),
    (["family", "--family", "v", "--q", "4"], {}, "family v needs --delta"),
    (["family", "--family", "ii", "--q", "3", "-r", "1"], {},
     "family ii needs --delta"),
    (["family", "--family", "i", "--q", "4", "--n", "4"], {},
     "family i needs --n and --d"),
    (["family", "--family", "i", "--q", "4", "--d", "2"], {},
     "family i needs --n and --d"),
    (["family", "--family", "i", "--q", "4"], {"SUBSYS_FAMILY_N": "4"},
     "family i needs --n and --d"),
])
def test_missing_inputs_are_usage_errors_naming_the_flag(args, env, message):
    # refused before the library runs, in the CLI's words, not its keywords
    res = invoke(args, env=env)
    assert res.exit_code == 2
    assert res.stderr == f"Error: {message}" + (
        " that the second code is contained in the first\n"
        if "subset" in message else "\n")
    assert res.stdout == ""


@pytest.mark.parametrize("args,env", [
    (["transform", "--rule", "combine-nested", "-r", "0", "--params", _PURE5,
      "--params", _PURE5], {"SUBSYS_TRANSFORM_SUBSET_ASSUMED": "1"}),
    (["family", "--family", "v", "--q", "4"], {"SUBSYS_FAMILY_DELTA": "1"}),
    (["family", "--family", "i", "--q", "4", "--n", "4"],
     {"SUBSYS_FAMILY_D": "2"}),
])
def test_missing_inputs_may_come_from_the_environment(args, env):
    res = invoke(args, env=env)
    assert res.exit_code == 0, res.output
    json.loads(res.stdout)


def test_family_bad_range():
    res = invoke(["family", "--family", "iii", "--q", "3",
                  "--delta", "1"])
    assert res.exit_code != 0


def test_deterministic_output(five_path):
    args = ["--seed", "7", "analyze", five_path]
    first = invoke(args)
    second = invoke(args)
    assert first.output == second.output


def test_parse_params():
    rec = parse_params("[[9,1,4,>=3]]_2 impure linear")
    assert (rec.n, int(rec.k), int(rec.r), rec.d) == (9, 1, 4, 3)
    assert rec.d_method == "lower" and rec.pure is False and rec.linear is True
    with pytest.raises(Exception):
        parse_params("[[9,1,4]]_2")


@pytest.mark.parametrize("words", ["pure impure", "impure pure",
                                   "impure linear pure"])
def test_params_both_pure_and_impure_are_refused(words):
    # one record cannot be both, and neither word may win silently
    text = f"[[5,1,0,3]]_2 {words}"
    res = invoke(["transform", "--rule", "shorten-n", "--params", text])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == (f"Error: Invalid value: {text!r} is both pure "
                          "and impure\n")


@pytest.mark.parametrize("text,refused", [
    ("[[5,1/2,0,3]]_4 pure", None), ("[[5,1,2/3,3]]_8 pure", None),
    ("[[5,1/3,0,3]]_2 pure", "k = 1/3"), ("[[5,1,1/2,3]]_8 pure", "r = 1/2"),
])
def test_params_are_multiples_of_one_over_m(text, refused):
    # log_q of a power of p for q = p^m
    res = invoke(["transform", "--rule", "shorten-n",
                  "--params", text])
    if refused is None:
        assert res.exit_code == 0, res.output
    else:
        assert res.exit_code == 2
        assert f"{refused} must be a multiple of 1/m" in res.output


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args,name", [
    (["family", "--family", "v", "--q", "4", "--delta", "2", "-r", "1"],
     "family_v_q4_d2_r1"),
    (["family", "--family", "vi", "--q", "4", "--delta", "2", "-r", "4"],
     "family_vi_q4_d2_r4"),
    (["family", "--family", "vi", "--q", "5", "--delta", "3", "-r", "4"],
     "family_vi_q5_d3_r4"),
    (["family", "--family", "vi", "--q", "3", "--delta", "1", "-r", "4"],
     "family_vi_q3_d1_r4"),
    (["transform", str(_DATA / "five_qubit.json"), "--rule", "shrink-k"],
     "transform_five_qubit_shrink_k"),
    (["analyze", str(_DATA / "five_qubit.json")], "analyze_five_qubit"),
    (["analyze", str(_DATA / "bacon_shor.json")], "analyze_bacon_shor"),
    (["--distance", "witness", "analyze", str(_DATA / "bacon_shor.json")],
     "analyze_bacon_shor_witness"),
    (["--threshold", "8", "analyze", str(_DATA / "bacon_shor.json")],
     "analyze_bacon_shor_threshold8"),
])
def test_rule_report_matches_golden(args, name):
    # reports that adjoin hyperbolic pairs, and the analyze reports whose
    # bounds and purity rest on the field arithmetic, must not move
    res = invoke(args)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (_GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("args,name", [
    (["analyze", str(_DATA / "five_qubit.json")], "analyze_five_qubit"),
    (["transform", str(_DATA / "five_qubit.json"), "--rule", "shrink-k"],
     "transform_five_qubit_shrink_k"),
])
def test_in_process_call_matches_golden(args, name):
    # the call perfbench/worker.py makes for its small-codes operations
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main.main(args=args, prog_name="subsys", standalone_mode=False)
    assert out.getvalue().encode() == (_GOLDEN / f"{name}.json").read_bytes()


def test_huge_report_integers_print_exactly():
    # K = 64^4093 has 7,393 digits, beyond the default int -> str limit
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-m", "subsystem_codes.cli",
                          "family", "--family", "v", "--q", "64",
                          "--delta", "1"], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = str(64**4093)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert re.search(r'"K": (\d+)', res.stdout).group(1) == want
    # the report writer restores the limit it lifted
    assert invoke(["family", "--family", "v", "--q", "64",
                   "--delta", "1"]).exit_code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


_PRIMES = [2, 3, 5, 7, 11, 13]
_NUM = st.integers(0, 40).map(str)
_FRACTION = st.one_of(_NUM, st.tuples(_NUM, _NUM).map("/".join))
_NOT_PRIME_POWER = st.one_of(
    st.sampled_from([0, 1]),
    st.tuples(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES),
              st.integers(1, 10**6)).filter(lambda t: t[0] != t[1])
    .map(lambda t: t[0] * t[1] * t[2]),
    st.integers(65537, 10**40))


def _params(n, k, r, d, q, words):
    return f"[[{n},{k},{r},{d}]]_{q}{words}"


_WORDS = st.sampled_from(["", " pure", " impure linear"])
_BAD_PARAMS = st.one_of(
    # not of the form [[n,k,r,d]]_q
    st.text(max_size=30).filter(lambda s: _PARAM_RE.match(s.strip()) is None),
    # q not a prime power
    st.builds(_params, _NUM, _FRACTION, _FRACTION, _NUM, _NOT_PRIME_POWER,
              _WORDS),
    # a zero denominator in k or r
    st.builds(_params, _NUM, _NUM.map(lambda a: a + "/0"), _FRACTION, _NUM,
              st.sampled_from(_PRIMES), _WORDS),
    st.builds(_params, _NUM, _FRACTION, _NUM.map(lambda a: a + "/0"), _NUM,
              st.sampled_from(_PRIMES), _WORDS),
)


@settings(max_examples=300, deadline=None)
@given(bad=_BAD_PARAMS, rule=st.sampled_from(["shorten-n", "combine-nested"]))
@example(bad="[[5,1/0,0,3]]_2 pure", rule="shorten-n")
@example(bad="[[5,1,0,3]]_6 pure", rule="shorten-n")
@example(bad="[[5,1,0,3]]_1 pure", rule="shorten-n")
# k not a multiple of 1/m for q = p^m: read as [[4,4/3,0,2]]_2, and in
# combine-disjoint int(k2 + r2) truncated 1/2 to give n' = 12
@example(bad="[[5,1/3,0,3]]_2 pure", rule="shorten-n")
@example(bad="[[7,1/2,0,3]]_2 pure", rule="combine-disjoint")
def test_malformed_params_fail_cleanly(bad, rule):
    args = ["transform", "--rule", rule, "--params", bad]
    if rule == "combine-nested":
        args += ["--params", "[[5,1,0,3]]_2 pure", "--subset-assumed"]
    elif rule == "combine-disjoint":
        args += ["--params", "[[5,1/2,0,3]]_2 pure"]
    res = invoke(args)
    assert res.exit_code != 0
    # an uncaught exception would have been a traceback
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


_FIVE_FILE = str(_DATA / "five_qubit.json")
_SHOR_FILE = str(_DATA / "bacon_shor.json")
_P1, _P2 = "[[5,1,0,3]]_2 pure", "[[4,2,0,2]]_2 pure"


# variable, its value, the same value as a flag, another value as a flag,
# and the arguments, with "@" where the flag goes
@pytest.mark.parametrize("var,value,same,other,args", [
    ("SUBSYS_THRESHOLD", "8", ["--threshold", "8"],
     ["--threshold", "1000000"], ["@", "analyze", _SHOR_FILE]),
    ("SUBSYS_SEED", "-1", ["--seed", "-1"], ["--seed", "2"],
     ["@", "analyze", _SHOR_FILE]),
    ("SUBSYS_FORMAT", "text", ["--format", "text"], ["--format", "json"],
     ["@", "analyze", _FIVE_FILE]),
    ("SUBSYS_STRICT", "0", [], ["--strict"],
     ["@", "--distance", "witness", "analyze", _SHOR_FILE]),
    ("SUBSYS_EMIT", "env.json", ["--emit", "env.json"],
     ["--emit", "flag.json"], ["@", "analyze", _FIVE_FILE]),
    ("SUBSYS_DISTANCE", "witness", ["--distance", "witness"],
     ["--distance", "exact"], ["@", "analyze", _SHOR_FILE]),
    ("SUBSYS_TRANSFORM_RULE", "extend-n", ["--rule", "extend-n"],
     ["--rule", "shrink-k"], ["transform", _FIVE_FILE, "@"]),
    ("SUBSYS_TRANSFORM_PARAMS", _P1, ["--params", _P1], ["--params", _P2],
     ["transform", "--rule", "shorten-n", "@"]),
    ("SUBSYS_TRANSFORM_TARGET_R", "1", ["-r", "1"], ["--target-r", "0"],
     ["transform", "--rule", "combine-disjoint", "--params", _P1,
      "--params", _P2, "@"]),
    ("SUBSYS_TRANSFORM_SUBSET_ASSUMED", "0", [], ["--subset-assumed"],
     ["transform", "--rule", "combine-nested", "--params", _P1, "--params",
      _P1, "@"]),
    ("SUBSYS_TABLE1_Q", "3", ["--q", "3"], ["--q", "4"], ["table1", "@"]),
    ("SUBSYS_FAMILY_FAMILY", "v", ["--family", "v"], ["--family", "vi"],
     ["family", "--q", "4", "--delta", "2", "-r", "1", "@"]),
    ("SUBSYS_FAMILY_Q", "4", ["--q", "4"], ["--q", "5"],
     ["family", "--family", "vi", "--delta", "2", "-r", "4", "@"]),
    ("SUBSYS_FAMILY_DELTA", "2", ["--delta", "2"], ["--delta", "3"],
     ["family", "--family", "vi", "--q", "5", "-r", "4", "@"]),
    ("SUBSYS_FAMILY_TARGET_R", "4", ["-r", "4"], ["--target-r", "1"],
     ["family", "--family", "vi", "--q", "4", "--delta", "2", "@"]),
    ("SUBSYS_FAMILY_N", "6", ["--n", "6"], ["--n", "8"],
     ["family", "--family", "i", "--q", "7", "--d", "3", "-r", "1", "@"]),
    ("SUBSYS_FAMILY_D", "3", ["--d", "3"], ["--d", "2"],
     ["family", "--family", "i", "--q", "7", "--n", "6", "-r", "1", "@"]),
])
def test_each_variable_sets_its_option_and_the_flag_wins(
        tmp_path, monkeypatch, var, value, same, other, args):
    # SUBSYS_ + the command for its own options + the long flag
    monkeypatch.chdir(tmp_path)

    def outcome(flag, env=None):
        res = invoke([t for a in args for t in (flag if a == "@" else [a])],
                     env=env)
        emitted = sorted(p.name for p in tmp_path.iterdir())
        for path in tmp_path.iterdir():
            path.unlink()
        return res.exit_code, res.stdout, res.stderr, emitted

    assert outcome(same) != outcome(other)        # the case can tell
    assert outcome([], {var: value}) == outcome(same)
    assert outcome(other, {var: value}) == outcome(other)


def test_variable_forms():
    # a flag's variable reads the boolean words and refuses any other
    base = ["--distance", "witness", "analyze", _SHOR_FILE]
    for word in ("1", "true", "t", "Yes", "y", "on"):
        assert invoke(base, env={"SUBSYS_STRICT": word}).exit_code == 3
    for word in ("0", "false", "f", "No", "n", "off"):
        assert invoke(base, env={"SUBSYS_STRICT": word}).exit_code == 0
    for word in ("ture", "2"):
        res = invoke(base, env={"SUBSYS_STRICT": word})
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", f"Error: Invalid value for SUBSYS_STRICT: {word!r} is "
                   "not a valid boolean\n")
    # the names derived from Python parameters before are not read
    for env, args in [
            ({"SUBSYS_FMT": "text"}, ["analyze", _FIVE_FILE]),
            ({"SUBSYS_FAMILY_R": "1"},
             ["family", "--family", "vi", "--q", "4", "--delta", "2"]),
            ({"SUBSYS_TRANSFORM_PARAMS_LIST": _P1},
             ["transform", "--rule", "shorten-n", "--params", _P2])]:
        assert invoke(args, env=env).stdout == invoke(args).stdout


@pytest.mark.parametrize("flag,value,env", [
    ("--threshold", "-5", "SUBSYS_THRESHOLD"), ("--threshold", "0", None),
    ("--seed", "-1", "SUBSYS_SEED")])
def test_bad_value_names_its_option(flag, value, env):
    message = (f"Error: Invalid value: {flag[2:]} must be >= "
               f"{1 if flag == '--threshold' else 0} ({flag})\n")
    res = invoke([flag, value, "analyze", _FIVE_FILE])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", message)
    if env:
        res = invoke(["analyze", _FIVE_FILE], env={env: value})
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", message)


@pytest.mark.parametrize("args,env,message", [
    (["analyze", "missing.json"], None,
     "argument FILE: File 'missing.json' does not exist."),
    (["transform", ".", "--rule", "shrink-k"], None,
     "argument FILE: File '.' is a directory."),
    (["--emit", ".", "table1", "--q", "4"], None,
     "argument --emit: File '.' is a directory."),
    (["analyze", _FIVE_FILE], {"SUBSYS_EMIT": "."},
     "argument --emit: File '.' is a directory.")])
def test_bad_paths_are_refused_before_any_work(tmp_path, monkeypatch, args,
                                               env, message):
    monkeypatch.chdir(tmp_path)
    res = invoke(args, env=env)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "",
                                                       f"Error: {message}\n")


@pytest.mark.parametrize("args", [
    ["--thr", "5", "analyze", _FIVE_FILE], ["--thr=5", "analyze", _FIVE_FILE],
    ["--thresh", "5", "table1", "--q", "3"],
    ["analyze", "--foo", _FIVE_FILE],
    ["transform", _FIVE_FILE, "--ru", "shrink-k"],
    ["family", "--fam", "vi", "--q", "3", "--delta", "1"]])
def test_unknown_or_abbreviated_option_is_refused(args):
    res = invoke(args)
    assert res.exit_code == 2
    assert res.stderr.startswith("Error: ")
    assert res.stdout == ""


def test_help_lists_the_commands():
    res = invoke(["--help"])
    assert res.exit_code == 0
    for command in ("analyze", "transform", "table1", "family"):
        assert command in res.stdout


def test_version_line():
    assert invoke(["--version"]).stdout == "subsys, version 0.1.0\n"
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-m", "subsystem_codes.cli",
                          "--version"], cwd=root, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.stdout == "python -m subsystem_codes.cli, version 0.1.0\n"


def test_cli_import_leaves_click_out():
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run(
        [sys.executable, "-c", "import sys, subsystem_codes.cli; "
         "print('click' in sys.modules)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
