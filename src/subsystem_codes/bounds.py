"""Singleton and Hamming bound checks for subsystem code parameters.

The Singleton bound for subsystem codes reads k + r <= n - 2d + 2; codes
attaining it with equality are MDS.  The bound is proved for F_q-linear
codes and conjectured in general, which the report records.  Perfectness
is judged by the standard quantum Hamming bound applied to the associated
[[n, k+r, d]]_q stabilizer code of a pure subsystem code:

    sum_{j=0}^{floor((d-1)/2)} C(n,j) (q^2-1)^j  <=  q^(n-k-r),

evaluated in exact integer arithmetic.  A bound violated under a proved d
is an internal error; a witness d, an upper bound, only overshoots the
true d, which the report notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb
from typing import List, Optional, Union

from .subsystem import ParamRecord, PurityError, SubsystemCode, bracket_params

__all__ = ["BoundReport", "singleton_check", "hamming_check"]


@dataclass
class BoundReport:
    """Result of a bound evaluation on one parameter set."""

    bound: str                       # "singleton" | "hamming"
    slack: int
    attained: bool                   # MDS (singleton) / perfect (hamming)
    notes: List[str] = dc_field(default_factory=list)

    @property
    def mds(self) -> bool:
        return self.bound == "singleton" and self.attained

    @property
    def perfect(self) -> bool:
        return self.bound == "hamming" and self.attained

    def to_json(self) -> dict:
        return {"bound": self.bound, "slack": self.slack,
                "attained": self.attained, "notes": list(self.notes)}


def _params(p: Union[SubsystemCode, ParamRecord]) -> ParamRecord:
    return p if isinstance(p, ParamRecord) else bracket_params(p)


def _integral(rec: ParamRecord) -> tuple:
    if rec.k.denominator != 1 or rec.r.denominator != 1:
        raise ValueError("bound checks need integral k and r")
    if rec.d is None:
        raise ValueError("bound checks need a known distance")
    return int(rec.k), int(rec.r), rec.d


def _violated(rec: ParamRecord, notes: List[str], message: str) -> None:
    """Raise ``message`` for a proved d; note a witness d's overshoot."""
    if not rec.d_witness:
        raise AssertionError(message)
    notes.append("the witness d exceeds the bound, so the true d is smaller")


def singleton_check(p: Union[SubsystemCode, ParamRecord]) -> BoundReport:
    """slack = (n - 2d + 2) - (k + r); zero slack on a linear code is MDS."""
    rec = _params(p)
    k, r, d = _integral(rec)
    slack = (rec.n - 2 * d + 2) - (k + r)
    notes = []
    if rec.d_is_bound:
        notes.append("d is a lower bound; slack is an upper estimate")
    if not rec.linear:
        notes.append("bound is conjectural for non-linear codes")
    elif slack < 0:
        _violated(rec, notes, f"linear parameters {rec.bracket()} violate "
                  "k+r <= n-2d+2")
    attained = slack == 0 and bool(rec.linear)
    if slack == 0 and not rec.linear:
        notes.append("attains the bound but MDS status needs linearity")
    return BoundReport("singleton", slack, attained, notes)


def hamming_check(p: Union[SubsystemCode, ParamRecord]) -> BoundReport:
    """Quantum Hamming bound on the associated stabilizer code of a pure code.

    Exact integers throughout: slack = q^(n-k-r) - sphere volume; equality
    means the code is perfect.
    """
    rec = _params(p)
    if rec.pure is not True:
        raise PurityError("perfectness is defined for pure subsystem codes")
    k, r, d = _integral(rec)
    q = rec.q
    radius = (d - 1) // 2
    volume = sum(comb(rec.n, j) * (q * q - 1) ** j for j in range(radius + 1))
    rhs = q ** (rec.n - k - r)
    slack = rhs - volume
    notes = ["standard quantum Hamming bound on the associated "
             f"[[{rec.n},{k + r},{d}]]_{q} stabilizer code"]
    if slack < 0:
        _violated(rec, notes,
                  f"parameters {rec.bracket()} violate the Hamming bound")
    return BoundReport("hamming", slack, slack == 0, notes)
