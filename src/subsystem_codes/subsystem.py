"""Deriving subsystem codes from classical additive codes.

From an additive code C <= F_q^{2n} with radical D = C intersect C^perp_s,
the derived subsystem code has dimensions K = q^n / sqrt(|C| |D|) and
R = sqrt(|C| / |D|), both integral powers of the characteristic p and kept
as exact base-p exponents.  The minimum distance is the minimum symplectic
weight over D^perp_s minus C (or over D^perp_s minus 0 when the two agree,
which happens exactly when K = 1).

D is read off the Gram matrix G = C M C^T of C's generators
(:func:`subsystem_codes.codes.radical`), so C^perp_s is never built.
Within the threshold, d comes from the weight distribution of D by the
MacWilliams identity, read off the same scan of C that gives swt(C);
D^perp_s is built only for a witness bound on d.

One frozen :class:`Policy` (of :mod:`.codes`) says, in the CLI's words,
how every weight scan measures; :meth:`Policy.fits` is the one size test.
A value carries the method backing it, and :func:`interval` reads the
bounds it proves (every swt is at least 1).  One rule, :func:`ge_verdict`,
decides every claim between such values, purity too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .codes import (DEFAULT_POLICY, AdditiveCode, Policy, _distributions,
                    _krawtchouk, dual_symp, min_swt_coset, radical)
from .gf import prime_power

__all__ = ["PurityError", "Policy", "DEFAULT_POLICY", "SubsystemCode",
           "ParamRecord", "derive", "measure_distance", "interval",
           "ge_verdict", "bracket_params", "analysis_report"]


def interval(value: Optional[int], method: Optional[str]) -> tuple:
    """Bounds (lo, hi) on a value: (v, v) if "exhaustive" or stated (None),
    (1, v) if "witness", (v, None) if "lower", (1, None) if v is unknown."""
    if method not in (None, "exhaustive", "witness", "lower"):
        raise ValueError(f"unknown distance method {method!r}")
    lo = 1 if value is None or method == "witness" else value
    return lo, (None if value is None or method == "lower" else value)


def ge_verdict(lhs: Optional[int], lhs_method: Optional[str],
               rhs: Optional[int], rhs_method: Optional[str]
               ) -> Optional[bool]:
    """Whether lhs >= rhs is proved (True), refuted (False) or open (None):
    proved iff lo(lhs) >= hi(rhs), refuted iff hi(lhs) < lo(rhs)."""
    lo, hi = interval(lhs, lhs_method)
    rhs_lo, rhs_hi = interval(rhs, rhs_method)
    if rhs_hi is not None and lo >= rhs_hi:
        return True
    return False if hi is not None and hi < rhs_lo else None


class PurityError(ValueError):
    """A purity requirement is violated (e.g. an impure code with K = 1)."""


@dataclass
class SubsystemCode:
    """A Clifford subsystem code together with its derived parameters."""

    C: AdditiveCode
    D: AdditiveCode
    k_exp: int                 # log_p K
    r_exp: int                 # log_p R
    d: Optional[int] = None
    d_method: Optional[str] = None   # exhaustive | witness | lower
    swt_c: Optional[int] = None
    swt_c_method: Optional[str] = None

    @property
    def n(self) -> int:
        return self.C.n

    @property
    def field(self):
        return self.C.field

    @property
    def p(self) -> int:
        return self.C.field.p

    @property
    def K(self) -> int:
        return self.p**self.k_exp

    @property
    def R(self) -> int:
        return self.p**self.r_exp

    @property
    def case(self) -> str:             # (a): D^perp_s != C, (b): equal
        return "b" if self.k_exp == 0 else "a"

    @property
    def is_linear(self) -> bool:
        return self.C.t == self.C.field.m

    @property
    def purity(self) -> Tuple[str, Optional[int]]:
        """One of ("pure", None), ("pure_to", d'), ("impure", swt_C): swt(C)
        >= d proved, refuted (only a lower bound on d can refute it), or
        open, and then pure to the lower bound on swt(C), 1 at least."""
        verdict = ge_verdict(self.swt_c, self.swt_c_method, self.d,
                             self.d_method)
        if verdict is not None:
            return ("pure", None) if verdict else ("impure", self.swt_c)
        return ("pure_to", interval(self.swt_c, self.swt_c_method)[0])

    @property
    def is_pure(self) -> bool:
        return self.purity[0] == "pure"

    def params(self) -> Tuple[int, int, int, Optional[int]]:
        """((n, K, R, d))_q tuple."""
        return (self.n, self.K, self.R, self.d)

    def __repr__(self):
        q = self.field.q
        return f"SubsystemCode(({self.n},{self.K},{self.R},{self.d}))_{q}"


@dataclass
class ParamRecord:
    """Abstract ((n,K,R,d))_q parameters in log_q form, with provenance."""

    n: int
    q: int
    k: Fraction
    r: Fraction
    d: Optional[int] = None
    d_method: Optional[str] = None   # what d proves, read by interval()
    pure: Optional[bool] = None
    pure_to: Optional[int] = None
    linear: Optional[bool] = None
    provenance: List[str] = dc_field(default_factory=list)

    def __post_init__(self):
        self.k = Fraction(self.k)
        self.r = Fraction(self.r)
        p, m = prime_power(self.q)
        for name, x in (("k", self.k), ("r", self.r)):
            if x < 0:
                raise ValueError(f"{name} = {x} must be >= 0")
            if (x * m).denominator != 1:        # log_q of a power of p
                raise ValueError(f"{name} = {x} must be a multiple of 1/m "
                                 f"for q = p^m = {p}^{m}")
        if self.n < 1:
            raise ValueError("length must be >= 1")
        if self.d is not None and self.d < 1:
            raise ValueError("distance must be >= 1")
        interval(self.d, self.d_method)         # refuses an unknown method
        if self.k + self.r > self.n:
            raise ValueError("K*R exceeds q^n")

    def bracket(self) -> str:
        d = "?" if self.d is None else (
            f">={self.d}" if self.d_method == "lower" else str(self.d))
        return f"[[{self.n},{self.k},{self.r},{d}]]_{self.q}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "k": str(self.k),
            "r": str(self.r),
            "d": self.d,
            "d_is_bound": self.d_method == "lower",
            "pure": self.pure,
            "pure_to": self.pure_to,
            "linear": self.linear,
            "bracket": self.bracket(),
            "provenance": list(self.provenance),
        }


def derive(C: AdditiveCode, policy: Policy = DEFAULT_POLICY) -> SubsystemCode:
    """Build the subsystem code of an additive code C != {0}.

    Its distance and swt(C) are measured as ``policy.distance_mode``
    says (see :func:`measure_distance`); "skip" leaves them unset.
    """
    if C.rank == 0:
        raise ValueError("C must be nonzero")
    D = radical(C)
    rc, rd = C.rank_p, D.rank_p
    if (rc + rd) % 2 != 0:
        raise AssertionError("|C| |D| is not an even power of p")
    code = SubsystemCode(C=C, D=D, k_exp=C.n * C.field.m - (rc + rd) // 2,
                         r_exp=(rc - rd) // 2)
    if policy.distance_mode != "skip":
        measure_distance(code, policy)
    return code


def measure_distance(code: SubsystemCode, policy: Policy) -> None:
    """Set d and swt(C) of a derived code, with the methods that back them.

    d is the minimum over D^perp_s minus C (minus 0 in case (b)), with D
    from :func:`derive`'s Gram matrix.  In "exact" mode both come from
    :func:`_exact_distance` when D^perp_s is within the threshold.
    Otherwise d is a scan of D^perp_s in the policy's mode (see
    :func:`min_swt_coset`), and swt(C) a scan of C in "exact" mode, unset
    for the whole space beyond the threshold.
    """
    if policy.distance_mode != "exact" or not _exact_distance(code, policy):
        C, nm = code.C, code.n * code.field.m
        # case (b): D^perp_s = C, and d is the minimum over all of it
        sub = None if code.case == "b" else C
        code.d, code.d_method = min_swt_coset(dual_symp(code.D), sub, policy)
        if C.rank_p < 2 * nm or policy.fits(code.p, C.rank_p):
            code.swt_c, code.swt_c_method = min_swt_coset(
                C, None, replace(policy, distance_mode="exact"))

    if code.K == 1 and code.purity[0] == "impure":
        raise PurityError(
            f"an ((n,1,R,d))_q subsystem code must be pure; "
            f"swt(C) = {code.swt_c} < d = {code.d}")


def _exact_distance(code: SubsystemCode, policy: Policy) -> bool:
    """The one exact engine, shared with :func:`rules.certify_mds`: if
    D^perp_s fits the policy, set d and swt(C) "exhaustive" from one scan
    of C, D's rows first (:func:`_dual_distance`), and return True."""
    if not policy.fits(code.p, 2 * code.n * code.field.m - code.D.rank_p):
        return False
    dist_d, dist_c = _distributions(code.C, code.D)
    code.d = _dual_distance(code, dist_d, dist_c)
    code.swt_c = next(w for w, a in enumerate(dist_c) if w and a)
    code.d_method = code.swt_c_method = "exhaustive"
    return True


def _dual_distance(code: SubsystemCode, dist_d, dist_c) -> int:
    """d from the weight distributions (index = weight) of D and C.

    The quantum MacWilliams identity (Ketkar, Klappenecker, Kumar &
    Sarvepalli, "Nonbinary stabilizer codes over finite fields", IEEE TIT
    2006) gives A(D^perp_s) = K A(D) / |D|, K the Krawtchouk matrix of
    length n over q^2 letters, in exact integers.  d is the least w >= 1
    with A_w(D^perp_s) > A_w(C), or A_w(D^perp_s) > 0 in case (b), where
    D^perp_s = C.
    """
    size_d = code.p**code.D.rank_p
    sums = [sum(k * int(a) for k, a in zip(row, dist_d))
            for row in _krawtchouk(code.n, code.field.q**2)]
    if any(s % size_d for s in sums):
        raise AssertionError("MacWilliams transform of A(D) is not "
                             "divisible by |D|")
    dual, dist_c = [s // size_d for s in sums], [int(a) for a in dist_c]
    if any(b < c for b, c in zip(dual, dist_c)):
        raise AssertionError("A(D^perp_s) is below A(C) at some weight")
    if sum(dual) != code.p**(2 * code.n * code.field.m - code.D.rank_p):
        raise AssertionError("A(D^perp_s) does not total |D^perp_s|")
    if code.case == "b" and dual != dist_c:
        raise AssertionError("case (b), but A(D^perp_s) != A(C)")
    floor = [0] * len(dual) if code.case == "b" else dist_c
    return next(w for w in range(1, len(dual)) if dual[w] > floor[w])


def bracket_params(code: SubsystemCode) -> ParamRecord:
    """[[n,k,r,d]]_q form with k = log_q K, r = log_q R (rational if needed)."""
    m = code.field.m
    purity = code.purity
    return ParamRecord(
        n=code.n,
        q=code.field.q,
        k=Fraction(code.k_exp, m),
        r=Fraction(code.r_exp, m),
        d=code.d,
        d_method=code.d_method,
        pure={"pure": True, "impure": False}.get(purity[0]),
        pure_to=code.d if purity[0] == "pure" else purity[1],
        linear=code.is_linear,
        provenance=["derive"],
    )


def analysis_report(code: SubsystemCode, rec=None) -> dict:
    """JSON-friendly analysis report for a derived subsystem code; ``rec``
    is its :func:`bracket_params` record if the caller has built it."""
    purity = code.purity
    rec = bracket_params(code) if rec is None else rec
    return {
        "params": {
            "n": code.n,
            "q": code.field.q,
            "K": code.K,
            "R": code.R,
            "d": code.d,
        },
        "bracket": rec.bracket(),
        "linear": code.is_linear,
        "purity": {"kind": purity[0], "value": purity[1],
                   "swt_C": code.swt_c, "method": code.swt_c_method},
        "distance": {"value": code.d, "method": code.d_method,
                     "case": code.case},
        "log_p_size_C": code.C.rank_p,
        "log_p_size_D": code.D.rank_p,
    }
