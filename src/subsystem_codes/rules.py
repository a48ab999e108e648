"""Propagation rules for subsystem codes.

Each rule takes an existing code (or abstract parameter record), builds a
new one, and returns a :class:`RuleResult` listing the guaranteed claims
together with how far each claim could actually be checked:

* ``verified_exhaustive`` -- the claim was confirmed by exact computation
  (dimension arithmetic, weight enumeration or a coordinate-set search);
* ``verified_algebraic`` -- the claim follows by a theorem from checked
  construction data, with no search (the distance of a catalog parent,
  :func:`subsystem_codes.rs.grs_distance`);
* ``witness_consistent`` -- only an upper bound was available (a witness
  search, or the Singleton bound for F_q-linear MDS constructions) and it
  does not contradict the claim;
* ``asserted`` -- the claim rests on the general argument alone (all
  parameter-level rules).

A claim about measured values gets its tag from one rule,
:func:`_status` over :func:`subsystem_codes.subsystem.ge_verdict`:
``asserted`` if a value is unknown, ``verified_exhaustive`` if proved,
``witness_consistent`` if open; a refuted claim raises.

The dimension-trading rules are constructive: a hyperbolic pair is
adjoined to (or removed from) the gauge code, moving one unit of
dimension between subsystem and co-subsystem.  Length extension appends a
coordinate whose x-part ranges over the field.  Shortening and the two
combining rules operate on parameters only.
Every constructed gauge code is derived and checked against the
(log_p K, log_p R) its producer promised in one step,
:func:`_derive_checked`; the MDS families and the catalog in
:mod:`subsystem_codes.table1` share one certifier, :func:`certify_mds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import rs
from .bounds import _params, singleton_check
from .codes import (AdditiveCode, ClassicalCode, _field, _pairings,
                    dual_swt_exceeds, dual_symp, min_swt)
from .gf import FieldSpec, TowerSpec, prime_power
from .subsystem import (DEFAULT_POLICY, ParamRecord, Policy, PurityError,
                        SubsystemCode, _dual_fits, derive, ge_verdict)
from .symplectic import fresh_pair, hyperbolic_decompose

__all__ = [
    "RuleResult", "MdsFamilySpec",
    "shrink_k", "grow_k", "stabilizer_to_subsystem",
    "subsystem_to_stabilizer", "extend_length", "shorten_length",
    "combine_disjoint", "combine_nested",
    "hermitian_to_symplectic", "certify_mds", "mds_family",
    "classical_modify",
]

VERIFIED = "verified_exhaustive"
ALGEBRAIC = "verified_algebraic"
WITNESS = "witness_consistent"
ASSERTED = "asserted"


@dataclass
class RuleResult:
    """Outcome of a rule: the new code plus claim-by-claim verification."""

    rule: str
    output: Union[SubsystemCode, ParamRecord]
    verification: Dict[str, str] = dc_field(default_factory=dict)

    @property
    def claims(self) -> List[str]:
        return list(self.verification)

    def add(self, claim: str, status: str) -> None:
        self.verification[claim] = status

    def __repr__(self):
        return f"RuleResult({self.rule!r}, {self.output!r})"


# ---------------------------------------------------------------------------
# constructive building blocks
# ---------------------------------------------------------------------------

def _adjoin_fresh_pair(C: AdditiveCode) -> AdditiveCode:
    """C + span{x, z} for the first fresh hyperbolic pair commuting with C."""
    dec = hyperbolic_decompose(C)
    return replace(dec, pairs=dec.pairs + [fresh_pair(dec)]).span()


def _drop_last_pair(C: AdditiveCode) -> AdditiveCode:
    """C with its last hyperbolic pair (in canonical order) removed."""
    dec = hyperbolic_decompose(C)
    if not dec.pairs:
        raise ValueError("the code has no hyperbolic pair to drop")
    return replace(dec, pairs=dec.pairs[:-1]).span()


def _derive_checked(rule: str, C: AdditiveCode, k_exp: int, r_exp: int,
                    claims: Tuple[str, ...], policy: Policy) -> RuleResult:
    """Derive the gauge code C that ``rule`` constructed and check the
    (log_p K, log_p R) it promised; ``claims`` state those dimensions and
    are recorded as verified."""
    out = derive(C, policy)
    if (out.k_exp, out.r_exp) != (k_exp, r_exp):
        raise AssertionError(
            f"{rule}: derived (log_p K, log_p R) = ({out.k_exp}, "
            f"{out.r_exp}), promised ({k_exp}, {r_exp})")
    res = RuleResult(rule, out)
    for claim in claims:
        res.add(claim, VERIFIED)
    return res


def _working_code(code: SubsystemCode, t: Optional[int]) -> AdditiveCode:
    """The gauge code of ``code`` viewed over the coefficient field F_{p^t}."""
    if t in (None, code.C.t):
        return code.C
    if t == 1:
        return code.C.as_additive()
    raise ValueError(
        f"coefficient degree {t} requires an F_q-linear input code")


def _status(lhs: Optional[int], lhs_method: Optional[str], rhs: Optional[int],
            rhs_method: Optional[str], equal: bool = False) -> str:
    """The tag of the claim lhs >= rhs (lhs = rhs if ``equal``)."""
    if lhs is None or rhs is None:
        return ASSERTED
    verdicts = {ge_verdict(lhs, lhs_method, rhs, rhs_method)}
    if equal:
        verdicts.add(ge_verdict(rhs, rhs_method, lhs, lhs_method))
    if False in verdicts:
        raise AssertionError(f"claim refuted: {lhs} against {rhs}")
    return WITNESS if None in verdicts else VERIFIED


def _pure(code: SubsystemCode) -> str:
    """The tag of the claim that ``code`` is pure, swt(C) >= d."""
    return _status(code.swt_c, code.swt_c_method, code.d, code.d_method)


def _add_pure_to(res: RuleResult, out: SubsystemCode,
                 code: SubsystemCode) -> None:
    """The claim that ``out`` is pure to min(d, d'), d' the input's level."""
    if code.d is None:
        res.add("pure to min(d, d')", ASSERTED)
        return
    kind, level = code.purity           # a pure_to level is exact
    target, method = ((code.d, code.d_method) if kind == "pure" else
                      (level, code.swt_c_method) if kind == "impure" else
                      (level, "exhaustive"))
    res.add(f"pure to {target}",
            _status(out.swt_c, out.swt_c_method, target, method))


# ---------------------------------------------------------------------------
# dimension trading
# ---------------------------------------------------------------------------

def _require_pure(code: SubsystemCode, impure: str) -> None:
    """Refuse an input not proved pure; ``impure`` says why if impure."""
    kind = code.purity[0]
    if kind != "pure":
        raise PurityError(impure if kind == "impure" else
                          "purity of the input could not be established")


def shrink_k(code: SubsystemCode, coeff_degree: Optional[int] = None,
             policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Trade one unit of subsystem dimension for co-subsystem dimension.

    From ((n,K,R,d))_q pure to d', build ((n, K/p^t, p^t R, >= d))_q pure
    to min{d, d'} by adjoining a fresh hyperbolic pair to the gauge code.
    Requires K > p^t, or K = p^t with the code pure.
    """
    C = _working_code(code, coeff_degree)
    t, p = C.t, code.p
    if code.k_exp == 0:
        raise ValueError("the subsystem is already trivial (K = 1)")
    if code.k_exp < t:
        raise ValueError(f"K = {code.K} is smaller than p^t = {p**t}")
    if code.k_exp == t:
        _require_pure(code, f"shrinking K = p^t = {p**t} to 1 requires a "
                      "pure input code")

    res = _derive_checked("shrink_k", _adjoin_fresh_pair(C),
                          code.k_exp - t, code.r_exp + t,
                          (f"K' = K/{p**t}", f"R' = {p**t}*R"), policy)
    out = res.output
    res.add("d' >= d", _status(out.d, out.d_method, code.d, code.d_method))
    _add_pure_to(res, out, code)
    return res


def grow_k(code: SubsystemCode, coeff_degree: Optional[int] = None,
           policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Trade one unit of co-subsystem dimension back into the subsystem.

    From a pure ((n,K,R,d))_q code with R > 1, build a pure
    ((n, p^t K, R/p^t, d))_q code by dropping the last hyperbolic pair of
    the gauge code.  Purity of the input is essential: for an impure code
    the distance can drop (the 3x3 grid code with gauge pairs removed
    would otherwise beat the best known stabilizer parameters).
    """
    C = _working_code(code, coeff_degree)
    t, p = C.t, code.p
    if code.r_exp < t:
        raise ValueError(f"R = {code.R} is smaller than p^t = {p**t}")
    _require_pure(code, "growing the subsystem requires a pure input code; "
                  "the gauge group of an impure code can absorb low-weight "
                  "errors that become logical after the trade")

    res = _derive_checked("grow_k", _drop_last_pair(C),
                          code.k_exp + t, code.r_exp - t,
                          (f"K' = {p**t}*K", f"R' = R/{p**t}"), policy)
    out = res.output
    res.add("d' = d", _status(out.d, out.d_method, code.d, code.d_method,
                              equal=True))
    res.add("pure", _pure(out))
    return res


def stabilizer_to_subsystem(code: SubsystemCode, r: int,
                            policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Turn a stabilizer code into an [[n, k-r, r, >= d]]_q subsystem code.

    Adjoins r fresh hyperbolic pairs (r counted in log_q units) to the
    stabilizer.  Requires R = 1 and 0 <= r < k.
    """
    if code.r_exp != 0:
        raise ValueError("input must be a stabilizer code (R = 1)")
    m = code.field.m
    k_q = Fraction(code.k_exp, m)
    if not 0 <= r < k_q:
        raise ValueError(f"r = {r} out of range [0, {k_q})")
    steps_p = r * m
    t = code.C.t
    if steps_p % t != 0:
        raise ValueError(f"r = {r} is not reachable in F_{{p^{t}}} steps")
    if r == 0:
        res = RuleResult("stabilizer_to_subsystem", code)
        res.add("identity (r = 0)", VERIFIED)
        return res
    C = code.C
    for _ in range(steps_p // t):
        C = _adjoin_fresh_pair(C)
    res = _derive_checked("stabilizer_to_subsystem", C,
                          code.k_exp - steps_p, steps_p,
                          (f"k' = k - {r}", f"r' = {r}"), policy)
    out = res.output
    res.add("d' >= d", _status(out.d, out.d_method, code.d, code.d_method))
    _add_pure_to(res, out, code)
    return res


def subsystem_to_stabilizer(code: SubsystemCode,
                            policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Collapse a pure subsystem code to its [[n, k+r, d]]_q stabilizer code.

    Dropping every hyperbolic pair of the gauge code leaves exactly its
    radical D, which generates the stabilizer.
    """
    _require_pure(code, "only pure subsystem codes collapse to a "
                  "stabilizer code of the same distance")
    if code.D.rank == 0:
        raise ValueError("the radical is trivial; the associated stabilizer "
                         "code is the full space")
    res = _derive_checked("subsystem_to_stabilizer", code.D,
                          code.k_exp + code.r_exp, 0,
                          ("k' = k + r", "r' = 0"), policy)
    out = res.output
    res.add("d' = d", _status(out.d, out.d_method, code.d, code.d_method,
                              equal=True))
    res.add("pure", _pure(out))
    return res


# ---------------------------------------------------------------------------
# length modification
# ---------------------------------------------------------------------------

def _extend_code(X: AdditiveCode) -> AdditiveCode:
    """X' = {(a alpha | b 0) : (a|b) in X, alpha in F_q} of length n+1."""
    n, f = X.n, X.field
    gens = []
    for g in map(X._contract_row, X.mat):
        row = np.zeros(2 * (n + 1), dtype=np.int64)
        row[:n] = g[:n]
        row[n + 1: 2 * n + 1] = g[n:]
        gens.append(row)
    # x-part alpha: 1 spans F_q over itself; for t < m, the encoded basis
    # elements alpha^j = p^j span it over F_{p^t}
    for alpha in ([1] if X.t == f.m else [f.p**j for j in range(f.m)]):
        row = np.zeros(2 * (n + 1), dtype=np.int64)
        row[n] = alpha
        gens.append(row)
    return AdditiveCode(n + 1, f, gens, X.t)


def extend_length(code: SubsystemCode,
                  policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Append a coordinate: ((n,K,R,d))_q -> ((n+1,K,R,>=d))_q pure to 1.

    The new x-coordinate ranges over the whole field and the new
    y-coordinate is zero, so dualization commutes with the extension
    (checked explicitly below).
    """
    if code.k_exp == 0:
        raise ValueError("extension requires K > 1")
    C_ext = _extend_code(code.C)
    res = _derive_checked("extend_length", C_ext, code.k_exp, code.r_exp,
                          ("n' = n + 1", "K' = K", "R' = R"), policy)
    out = res.output
    if dual_symp(C_ext) != _extend_code(dual_symp(code.C)):
        raise AssertionError("dualization does not commute with extension")
    res.add("dual of extension = extension of dual", VERIFIED)
    res.add("d' >= d", _status(out.d, out.d_method, code.d, code.d_method))
    res.add("pure to 1", VERIFIED)      # every nonzero vector has swt >= 1
    return res


def shorten_length(params: Union[SubsystemCode, ParamRecord]) -> RuleResult:
    """Pure ((n,K,R,d))_q -> pure ((n-1, qK, R, d-1))_q, parameter level."""
    rec = _params(params)
    if rec.pure is not True:
        raise PurityError("shortening requires a pure input code")
    if rec.d is None or rec.d < 2:
        raise ValueError("shortening requires d >= 2")
    if rec.n < 2:
        raise ValueError("shortening requires n >= 2")
    out = ParamRecord(
        n=rec.n - 1, q=rec.q, k=rec.k + 1, r=rec.r, d=rec.d - 1,
        d_is_bound=rec.d_is_bound, pure=True, linear=rec.linear,
        provenance=list(rec.provenance) + ["shorten_length"])
    res = RuleResult("shorten_length", out)
    res.add("n' = n - 1, k' = k + 1, r' = r, d' = d - 1", ASSERTED)
    res.add("pure", ASSERTED)
    return res


# ---------------------------------------------------------------------------
# combining codes (parameter level)
# ---------------------------------------------------------------------------

def combine_disjoint(p1: Union[SubsystemCode, ParamRecord],
                     p2: Union[SubsystemCode, ParamRecord],
                     r: int) -> RuleResult:
    """Concatenation-style combination of two pure binary subsystem codes.

    [[n1,k1,r1,d1]]_2 and [[n2,k2,r2,d2]]_2 with k2+r2 <= n1 give
    [[n1+n2-k2-r2, k1+r1-r, r, >= min{d1, d1+d2-k2-r2}]]_2 for
    0 <= r < k1+r1; a minimum below 1 leaves the trivial d' >= 1.  Purity
    of the output is not guaranteed.
    """
    a, b = _params(p1), _params(p2)
    if a.q != 2 or b.q != 2:
        raise ValueError("this combination rule applies to q = 2 only")
    if a.pure is not True or b.pure is not True:
        raise PurityError("both input codes must be pure")
    if a.d is None or b.d is None:
        raise ValueError("both input distances must be known")
    if b.k + b.r > a.n:
        raise ValueError(f"k2 + r2 = {b.k + b.r} exceeds n1 = {a.n}")
    if not 0 <= r < a.k + a.r:
        raise ValueError(f"r = {r} out of range [0, {a.k + a.r})")
    d = min(a.d, a.d + b.d - int(b.k + b.r))
    out = ParamRecord(
        n=a.n + b.n - int(b.k + b.r), q=2, k=a.k + a.r - r, r=r,
        d=max(d, 1), d_is_bound=True, pure=None,
        provenance=a.provenance + b.provenance + ["combine_disjoint"])
    res = RuleResult("combine_disjoint", out)
    res.add("n' = n1 + n2 - k2 - r2, k' = k1 + r1 - r, r' = r", ASSERTED)
    res.add(f"d' >= min(d1, d1 + d2 - k2 - r2) = {d}" if d >= 1 else
            f"d' >= 1 is the trivial bound (min(d1, d1 + d2 - k2 - r2) "
            f"= {d})", ASSERTED)
    return res


def combine_nested(p1: Union[SubsystemCode, ParamRecord],
                   p2: Union[SubsystemCode, ParamRecord],
                   r: int, subset_assumed: bool = False) -> RuleResult:
    """Combine two pure equal-length codes, the second nested in the first.

    [[n,k1,r1,d1]]_q and [[n,k2,r2,d2]]_q with Q2 inside Q1 give a pure
    [[2n, k1+k2+r1+r2-r, r, >= min{d1, 2 d2}]]_q code for
    0 <= r <= k1+k2+r1+r2.  The nesting cannot be checked from parameters
    alone, so the caller must set ``subset_assumed``.
    """
    a, b = _params(p1), _params(p2)
    if not subset_assumed:
        raise ValueError("set subset_assumed=True to confirm that the second "
                         "code is contained in the first")
    if a.n != b.n or a.q != b.q:
        raise ValueError("both codes must share length and field size")
    if a.pure is not True or b.pure is not True:
        raise PurityError("both input codes must be pure")
    if a.d is None or b.d is None:
        raise ValueError("both input distances must be known")
    total = a.k + a.r + b.k + b.r
    if not 0 <= r <= total:
        raise ValueError(f"r = {r} out of range [0, {total}]")
    d = min(a.d, 2 * b.d)
    out = ParamRecord(
        n=2 * a.n, q=a.q, k=total - r, r=r, d=d, d_is_bound=True,
        pure=True, provenance=a.provenance + b.provenance
        + ["combine_nested", "nesting assumed by caller"])
    res = RuleResult("combine_nested", out)
    res.add("n' = 2n, k' = k1 + k2 + r1 + r2 - r, r' = r", ASSERTED)
    res.add(f"d' >= min(d1, 2*d2) = {d}", ASSERTED)
    res.add("pure", ASSERTED)
    return res


# ---------------------------------------------------------------------------
# Hermitian construction
# ---------------------------------------------------------------------------

def _tower_for(field: FieldSpec) -> TowerSpec:
    """The tower whose top field is ``field`` (which must be a square)."""
    if field.m % 2 != 0:
        raise ValueError("the code must live over a square field F_{q^2}")
    tower = _tower_for_q(field.p**(field.m // 2))
    if tuple(tower.top.modulus) != tuple(field.modulus):
        raise ValueError("the field modulus is not the standard one; "
                         "rebuild the code over the default field")
    return tower


def _expand_vector(tower: TowerSpec, row: np.ndarray) -> np.ndarray:
    """(u|v) of length 2n with row = u + beta*v entrywise; a matrix is
    expanded row by row."""
    return np.concatenate([tower._ex_u[row], tower._ex_v[row]], axis=-1)


def hermitian_to_symplectic(X: ClassicalCode,
                            require_self_orthogonal: bool = True) -> AdditiveCode:
    """C = {(u|v) : u + beta*v in X}, an F_q-linear code in F_q^{2n}.

    For Hermitian self-orthogonal X the result is symplectic
    self-orthogonal with |C| = |X|, and expansion preserves weights:
    swt of the image of x equals the Hamming weight of x.
    """
    tower = _tower_for(X.field)
    if require_self_orthogonal and not X.is_hermitian_self_orthogonal():
        raise ValueError("X is not Hermitian self-orthogonal")
    gens = np.concatenate([_expand_vector(tower, X.mat), _expand_vector(
        tower, X.field.mul_arr(X.mat, tower.beta))])
    C = AdditiveCode(X.n, tower.base, gens, coeff_degree=tower.base.m)
    if C.rank != 2 * X.rank:
        raise AssertionError("expansion lost dimensions")
    if require_self_orthogonal and _pairings(C.mat, C.mat, C.n, C.field,
                                             C.t).any():
        raise AssertionError("image is not symplectic self-orthogonal")
    return C


# ---------------------------------------------------------------------------
# MDS families
# ---------------------------------------------------------------------------

# the constructive families evaluate on F_q (subfield) or F_{q^2}, without
# or with 0
_CONSTRUCTIVE = {"iii": (True, 0), "iv": (True, 1), "v": (False, 0),
                 "vi": (False, 1)}


@dataclass
class MdsFamilySpec:
    """Parameters selecting one member of the MDS subsystem families.

    Families iii-vi are constructive (evaluation codes); families i and
    ii are supported at parameter level only.  ``delta`` is the design
    parameter (``nu`` for family ii), ``r`` the co-subsystem log_q
    dimension; family i instead takes explicit ``n`` and ``d``.

    A constructive member evaluates on F_q* (the subfield) or F_{q^2}*:
    n = q - 1 or q^2 - 1 and d = delta + 1, both one larger with 0 among
    the points; 0 <= 2 delta < q - 1 on the subfield, 0 <= delta < q - 1
    otherwise and in family ii.  Every family has k = n - 2d + 2 - r >= 1
    and r >= 0; family iii also allows k = 0.
    """

    q: int
    family: str
    delta: Optional[int] = None
    r: int = 0
    n: Optional[int] = None
    d: Optional[int] = None

    @property
    def constructive(self) -> bool:
        return self.family in _CONSTRUCTIVE

    def __post_init__(self):
        if self.family not in ("i", "ii", *_CONSTRUCTIVE):
            raise ValueError(f"unknown family {self.family!r}")
        if self.q < 2:
            raise ValueError("q must be a prime power >= 2")
        if self.family == "i":
            if self.n is None or self.d is None:
                raise ValueError("family i needs explicit n and d")
            ok = 3 <= self.n <= self.q and 1 <= self.d <= self.n // 2 + 1
        elif self.delta is None:
            raise ValueError("delta is required for this family")
        else:
            subfield = _CONSTRUCTIVE.get(self.family, (False,))[0]
            ok = 0 <= (1 + subfield) * self.delta < self.q - 1
        k_min = 0 if self.family == "iii" else 1
        if not (ok and self.r >= 0 and self.target_params()[1] >= k_min):
            raise ValueError(f"family {self.family} parameters out of range")

    def target_params(self):
        """(n, k, r, d) of the produced code."""
        if self.family == "i":
            n, d = self.n, self.d
        elif self.family == "ii":
            n, d = (self.delta + 1) * self.q, self.delta + 2
        else:
            subfield, zero = _CONSTRUCTIVE[self.family]
            n = (self.q if subfield else self.q * self.q) - 1 + zero
            d = self.delta + 1 + zero
        return (n, n - 2 * d + 2 - self.r, self.r, d)


@lru_cache(maxsize=None)
def _tower_for_q(q: int) -> TowerSpec:
    """The one F_{q^2} over F_q tower per q, shared by every construction."""
    return TowerSpec(_field(*prime_power(q), None))


def certify_mds(res: RuleResult, d: int, claim: str,
                policy: Policy = DEFAULT_POLICY) -> None:
    """Certify the derived code of an MDS construction at its design d and
    add its claims ``claim`` (d = design d) and "pure" to ``res``.

    ``res`` comes from :func:`_derive_checked` in "skip" mode, and its
    gauge code must be F_q-linear with zero slack at the design d, so the
    Singleton bound k + r <= n - 2d + 2 of such codes gives d <= design d:
    d is a witness.  If D^perp_s fits the policy (asked before it is
    built), a complete search over coordinate sets proves swt(D^perp_s)
    >= d (:func:`codes.dual_swt_exceeds`), and C lies in D^perp_s: d is
    exact, C pure, and swt(C) is enumerated; else swt(C) stays unset.
    """
    code = res.output
    code.d = d
    if not singleton_check(code).attained:          # F_q-linear, slack 0
        raise AssertionError(f"the Singleton bound does not give d <= {d}")
    code.d_method = "witness"
    if _dual_fits(code, policy):
        code.swt_c = min_swt(code.C, policy.threshold)
        code.d_method = code.swt_c_method = "exhaustive"
        if not (dual_swt_exceeds(code.D, d - 1) and code.is_pure):
            raise AssertionError(f"D^perp_s has a vector of weight below {d}")
    res.add(claim, _status(d, code.d_method, d, "exhaustive"))
    res.add("pure", _pure(code))


def mds_family(spec: MdsFamilySpec,
               policy: Policy = DEFAULT_POLICY) -> RuleResult:
    """Instantiate a member of the MDS subsystem code families.

    Families iii-vi: build the Hermitian self-orthogonal evaluation code
    over F_{q^2}, expand it to a symplectic self-orthogonal gauge code,
    adjoin r fresh hyperbolic pairs, derive the result once and certify it
    with :func:`certify_mds`.  Families i and ii return parameter records only.
    """
    n, k, r, d = spec.target_params()
    if not spec.constructive:
        out = ParamRecord(n=n, q=spec.q, k=k, r=r, d=d, pure=True,
                          linear=True,
                          provenance=[f"mds-family-{spec.family}",
                                      "non-constructive"])
        res = RuleResult("mds_family", out)
        res.add(f"[[{n},{k},{r},{d}]]_{spec.q} exists", ASSERTED)
        res.add(f"MDS: k + r = n - 2d + 2 = {n - 2 * d + 2}", VERIFIED)
        return res

    tower = _tower_for_q(spec.q)
    X = rs.hermitian_self_orthogonal_rs(tower, n, spec.delta)
    C = hermitian_to_symplectic(X)
    for _ in range(r):
        C = _adjoin_fresh_pair(C)

    if C.rank == 0:
        # delta = 0 and r = 0 for the punctured lengths: the trivial code
        out = ParamRecord(n=n, q=spec.q, k=k, r=0, d=1, pure=True,
                          linear=True,
                          provenance=[f"mds-family-{spec.family}", "trivial"])
        res = RuleResult("mds_family", out)
        res.add(f"[[{n},{n},0,1]]_{spec.q} (trivial code)", VERIFIED)
        return res

    m = tower.base.m
    res = _derive_checked("mds_family", C, k * m, r * m,
                          (f"k = {k}, r = {r}",), Policy("skip"))
    res.add(f"MDS: k + r = n - 2d + 2 = {n - 2 * d + 2}", VERIFIED)
    certify_mds(res, d, f"d = {d}", policy)
    return res


# ---------------------------------------------------------------------------
# classical modifications
# ---------------------------------------------------------------------------

def classical_modify(X: ClassicalCode, op: str,
                     coord: Optional[int] = None) -> ClassicalCode:
    """Puncture a coordinate or append an overall-parity coordinate."""
    if op == "puncture":
        if coord is None:
            coord = X.n - 1
        return X.puncture(coord)
    if op == "extend_parity":
        return X.extend_parity()
    raise ValueError(f"unknown modification {op!r}")
