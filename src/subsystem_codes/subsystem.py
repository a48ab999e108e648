"""Deriving subsystem codes from classical additive codes.

From an additive code C <= F_q^{2n} with radical D = C intersect C^perp_s,
the derived subsystem code has dimensions K = q^n / sqrt(|C| |D|) and
R = sqrt(|C| / |D|), both integral powers of the characteristic p and kept
as exact base-p exponents.  The minimum distance is the minimum symplectic
weight over D^perp_s minus C (or over D^perp_s minus 0 when the two agree,
which happens exactly when K = 1).

D is read off the Gram matrix G = C M C^T of C's generators
(:func:`subsystem_codes.codes.radical`), so C^perp_s is never built;
D^perp_s is built only to measure d.

One frozen :class:`Policy`, in the CLI's words, says how distances are
measured, and :meth:`Policy.fits` sizes every span.  A measured value
carries the method backing it: ``exhaustive`` (proved, see
:func:`is_exact`) or ``witness`` (an upper bound).  One rule,
:func:`ge_verdict`, decides every claim between such values, purity too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import List, Optional, Tuple

from .codes import (DEFAULT_THRESHOLD, AdditiveCode, dual_symp, min_swt,
                    min_swt_coset, radical)
from .gf import prime_power

__all__ = ["PurityError", "Policy", "DEFAULT_POLICY", "SubsystemCode",
           "ParamRecord", "derive", "measure_distance", "is_exact",
           "ge_verdict", "bracket_params", "analysis_report"]

_DISTANCE_MODES = ("exact", "witness", "skip")


@dataclass(frozen=True)
class Policy:
    """How derived codes get their distances measured.

    distance_mode, as the CLI's --distance: "exact" (enumerate each span
    that :meth:`fits`, else a witness bound, recorded in the method),
    "witness" or "skip"; :func:`is_exact` tells a proved value from a
    bound.  threshold: the largest span enumerated; seed: witness seed.
    """

    distance_mode: str = "exact"
    threshold: int = DEFAULT_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        if self.distance_mode not in _DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def fits(self, p: int, log_p_size: int) -> bool:
        """True iff a span of p^log_p_size vectors is within the threshold."""
        return p**log_p_size <= self.threshold


DEFAULT_POLICY = Policy()


def is_exact(method: Optional[str]) -> bool:
    """True iff a value with this method tag was proved."""
    return method == "exhaustive"


def ge_verdict(lhs: Optional[int], lhs_method: Optional[str],
               rhs: Optional[int], rhs_method: Optional[str]
               ) -> Optional[bool]:
    """Whether lhs >= rhs is proved (True), refuted (False) or open (None).

    A proved value is exact; a witness (a found vector's weight, or the
    Singleton bound's design d) is an upper bound on the true value.  So
    lhs >= rhs needs an exact lhs, lhs < rhs an exact rhs, and an unknown
    value (None) leaves the claim open."""
    if lhs is None or rhs is None or not is_exact(
            lhs_method if lhs >= rhs else rhs_method):
        return None
    return lhs >= rhs


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
    d_method: Optional[str] = None   # exhaustive | witness
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
        >= d proved, refuted (only a proved d can refute it), or open, and
        then pure to swt(C) if it is exact, else to 1, as every code is."""
        verdict = ge_verdict(self.swt_c, self.swt_c_method, self.d,
                             self.d_method)
        if verdict is not None:
            return ("pure", None) if verdict else ("impure", self.swt_c)
        return ("pure_to", self.swt_c if is_exact(self.swt_c_method) else 1)

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
    d_is_bound: bool = False         # True: d is a lower bound ">= d"
    d_witness: bool = False          # True: d is a witness, an upper bound
    pure: Optional[bool] = None
    pure_to: Optional[int] = None
    linear: Optional[bool] = None
    provenance: List[str] = dc_field(default_factory=list)

    def __post_init__(self):
        self.k = Fraction(self.k)
        self.r = Fraction(self.r)
        p, m = prime_power(self.q)
        for name, x in (("k", self.k), ("r", self.r)):
            if (x * m).denominator != 1:        # log_q of a power of p
                raise ValueError(f"{name} = {x} must be a multiple of 1/m "
                                 f"for q = p^m = {p}^{m}")
        if self.n < 1:
            raise ValueError("length must be >= 1")
        if self.d is not None and self.d < 1:
            raise ValueError("distance must be >= 1")
        if self.k + self.r > self.n:
            raise ValueError("K*R exceeds q^n")

    def bracket(self) -> str:
        d = "?" if self.d is None else (f">={self.d}" if self.d_is_bound else str(self.d))
        return f"[[{self.n},{self.k},{self.r},{d}]]_{self.q}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "k": str(self.k),
            "r": str(self.r),
            "d": self.d,
            "d_is_bound": self.d_is_bound,
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


def _dual_fits(code: SubsystemCode, policy: Policy) -> bool:
    """Whether D^perp_s, of p^(2nm) / |D| vectors, fits before it is built."""
    return policy.fits(code.p, 2 * code.n * code.field.m - code.D.rank_p)


def measure_distance(code: SubsystemCode, policy: Policy) -> None:
    """Set d and swt(C) of a derived code, with the methods that back them.

    d is the minimum over D^perp_s minus C (minus 0 in case (b)), with D
    from :func:`derive`'s Gram matrix.  :meth:`Policy.fits` sizes D^perp_s
    and C before either is scanned: "exact" enumerates d when D^perp_s
    fits, else bounds it by a witness, as "witness" does outright; swt(C)
    is enumerated when C fits, else a witness bound, in every mode.
    """
    C, mode = code.C, policy.distance_mode
    if mode == "exact" and not _dual_fits(code, policy):
        mode = "witness"
    # case (b): D^perp_s = C, and d is the minimum over all of it
    sub = None if code.case == "b" else C
    opts = dict(threshold=policy.threshold, seed=policy.seed)
    code.d, code.d_method = min_swt_coset(dual_symp(code.D), sub, mode=mode,
                                          **opts)

    if policy.fits(code.p, C.rank_p):
        code.swt_c = min_swt(C, threshold=policy.threshold)
        code.swt_c_method = "exhaustive"
    elif C.rank_p < 2 * code.n * C.field.m:
        code.swt_c, code.swt_c_method = min_swt_coset(
            C, None, mode="witness", **opts)

    if code.K == 1 and code.purity[0] == "impure":
        raise PurityError(
            f"an ((n,1,R,d))_q subsystem code must be pure; "
            f"swt(C) = {code.swt_c} < d = {code.d}")


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
        d_witness=code.d_method == "witness",
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
