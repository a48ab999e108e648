"""Additive codes in F_q^{2n}, classical codes, their duals and weights.

Both kinds share one canonical form (:class:`_Code`): the reduced row
echelon basis of the generator matrix over a coefficient field, its
pivots and its rank.  An :class:`AdditiveCode` is F_{p^t}-linear, where
t = 1 gives an additive (F_p-linear) code and t = m an F_q-linear one.
For t = 1 each F_q coordinate is expanded into m prime field columns; the
fixed column order is x-block then y-block, coordinate-major,
basis-coefficient-minor.  A :class:`ClassicalCode` over F_q has
coefficient field F_q.  Two codes are equal iff they are of one kind, in
one space (n, field, coefficient degree) and have equal canonical
matrices, which makes equality and hashing cheap; membership,
containment, :func:`intersect` and the weight scans serve both kinds.

Minimum weights of both code kinds go through :func:`_min_scan`, which
refuses a B that is not a subcode of A and an empty A minus B, and share
their layout with symplectic weight distributions: :func:`_split` orders
the rows of a code A over its coefficient field F_{p^t} as a subcode B's
rows, then the rows of A whose pivots B lacks, read off the two canonical
forms; :func:`_layout` writes each row g as its t prime-field digit rows
alpha^j g with each coordinate's digits contiguous, for the
:mod:`subsystem_codes._enum` kernel.  The minimum scan visits one vector
per F_{p^t} scalar class of A minus B: the counter ranges [p^i, 2 p^i) of
the whole layout for i = kb, kb + t, .. (:func:`_class_ranges`).  The
same ranges, each class counted p^t - 1 times, give the weight
distributions of a code and of a subcode in one scan
(:func:`_distributions`), and :func:`_krawtchouk` moves a distribution
across to the dual by the MacWilliams identity: the one exact distance
of :mod:`subsystem_codes.subsystem`.  Every scan
takes one frozen :class:`Policy`, whose :meth:`Policy.fits` is the one
size test.  A scan that returns its method reads the mode as ``derive``
does: beyond the threshold, or in "witness" mode, a randomized witness
search gives an upper bound.  A scan that returns a bare number
enumerates in every mode, and raises :class:`EnumerationLimitError`
beyond the threshold.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice, product
from math import comb
from typing import List, Optional, Tuple

import numpy as np

from . import _enum, linalg
from .gf import FieldSpec

__all__ = [
    "EnumerationLimitError",
    "AdditiveCode",
    "dual_symp",
    "intersect",
    "radical",
    "min_swt",
    "min_swt_coset",
    "ClassicalCode",
    "DEFAULT_THRESHOLD",
    "Policy",
    "DEFAULT_POLICY",
    "WITNESS_RANDOM_SAMPLES",
]

DEFAULT_THRESHOLD = 1 << 26
WITNESS_RANDOM_SAMPLES = 10**6
_WITNESS_COMBO_CAP = 10**6


@dataclass(frozen=True)
class Policy:
    """How weights and distances are measured.

    distance_mode, as the CLI's --distance: "exact" (enumerate each span
    that :meth:`fits`, else a witness bound, recorded in the method),
    "witness" or "skip"; threshold: the largest span enumerated; seed:
    the witness seed.
    """

    distance_mode: str = "exact"
    threshold: int = DEFAULT_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        if self.distance_mode not in ("exact", "witness", "skip"):
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def fits(self, p: int, log_p_size: int) -> bool:
        """True iff a span of p^log_p_size vectors is within the threshold."""
        return p**log_p_size <= self.threshold


DEFAULT_POLICY = Policy()


class EnumerationLimitError(RuntimeError):
    """Raised when a bare-number scan would enumerate beyond the threshold."""


# ---------------------------------------------------------------------------
# the canonical form of both code kinds; additive codes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _field(p: int, m: int, modulus: Optional[Tuple[int, ...]]) -> FieldSpec:
    """The one FieldSpec per (p, m, modulus); invalid ones raise each time."""
    return FieldSpec(p, m, modulus)


def _coeff_field(field: FieldSpec, t: int) -> FieldSpec:
    """F_{p^t} for t = m or t = 1; the prime field is built once per p."""
    if t == field.m:
        return field
    if t == 1:
        return _field(field.p, 1, None)
    raise ValueError(
        f"coefficient degree t={t} unsupported (only t=1 and t=m={field.m})")


def _field_row(row, field: FieldSpec, size: int) -> np.ndarray:
    """``row`` as ``size`` integer-encoded elements of GF(q), or ValueError."""
    # numpy reads an entry True as 1 and fails on a nested entry with a
    # message about array shapes, so a list is checked entry by entry first
    if isinstance(row, np.ndarray):
        bad = (row.dtype.kind not in "iu"
               or (row.size and (row.min() < 0 or row.max() >= field.q)))
        entries = row.tolist() if bad else []
    elif isinstance(row, (list, tuple)):
        entries = row
    else:
        raise ValueError(f"generator {row!r} is not a list of {size} entries")
    for x in entries:
        if (isinstance(x, (bool, np.bool_))
                or not isinstance(x, (int, np.integer))
                or not 0 <= x < field.q):
            raise ValueError(
                f"generator entry {x!r} is not an element of "
                f"GF({field.q}) (an integer 0..{field.q - 1})")
    arr = np.asarray(row, dtype=np.int64)
    if arr.shape != (size,):
        raise ValueError(f"generator must have {size} entries, got {arr.size}")
    return arr


def _plain_int(value, name: str) -> int:
    """An integer field of a code file; int() would read 5.7, "5" or true
    as another code, so anything else is a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def _json_field(data: dict) -> FieldSpec:
    """The field of a code file: integers p and m, optional modulus."""
    modulus = data.get("modulus")
    if modulus is not None:
        modulus = tuple(_plain_int(c, "modulus") for c in modulus)
    return _field(_plain_int(data["p"], "p"),
                  _plain_int(data.get("m", 1), "m"), modulus)


class _Code:
    """The canonical form both code kinds share: ``mat``, the reduced row
    echelon basis of the code over its coefficient field, its ``pivots``
    and its ``rank``.  A subclass sets n, field and coeff_field and gives
    ``_row`` (one validated generator as a coefficient row) and ``ncols``.
    """

    def _reduce(self, rows: np.ndarray, pivots: Optional[List[int]] = None):
        """Set the canonical form to the rref of ``rows``; rows given with
        their ``pivots`` are already reduced and are taken as they are."""
        if pivots is None:
            rows, pivots = linalg.rref(rows, self.coeff_field)
        self.mat, self.pivots, self.rank = rows, pivots, rows.shape[0]

    def _spanned(self, rows: np.ndarray, pivots: Optional[List[int]] = None):
        """This code's kind and space, spanned by ``rows`` the library
        computed itself, so they are not validated again."""
        out = copy(self)
        out._reduce(rows, pivots)
        return out

    def _rows(self, generators) -> np.ndarray:
        rows = [self._row(g) for g in generators]
        return (np.stack(rows) if rows
                else np.zeros((0, self.ncols), dtype=np.int64))

    @property
    def rank_p(self) -> int:
        """log_p of the code cardinality."""
        return self.rank * self.coeff_field.m

    @property
    def _space(self) -> tuple:
        """(kind, n, field, coefficient degree) of the space the code is in."""
        return type(self), self.n, self.field, self.coeff_field.m

    def _check_compatible(self, other: "_Code"):
        if self._space != other._space:
            raise ValueError("codes live in different spaces")

    def __eq__(self, other):
        return (isinstance(other, _Code) and self._space == other._space
                and np.array_equal(self.mat, other.mat))

    def __hash__(self):
        return hash((self._space, self.mat.tobytes()))

    def contains_vector(self, v) -> bool:
        return linalg.row_space_contains(self.mat, self.pivots, self._row(v),
                                         self.coeff_field) is not None

    def contains_code(self, other: "_Code") -> bool:
        """The pivot columns of ``mat`` hold an identity, so the only
        candidate coefficients of a row of ``other`` are its pivot entries
        and one product answers for all rows at once."""
        self._check_compatible(other)
        coeffs = other.mat[:, self.pivots]
        return np.array_equal(
            linalg.matmul(coeffs, self.mat, self.coeff_field), other.mat)


class AdditiveCode(_Code):
    """An F_{p^t}-linear subspace of F_q^{2n} in canonical generator form."""

    def __init__(self, n: int, field: FieldSpec, generators,
                 coeff_degree: int = 1):
        if coeff_degree < 1 or field.m % coeff_degree != 0:
            raise ValueError(f"coeff_degree {coeff_degree} does not divide m={field.m}")
        self.n, self.field, self.t = int(n), field, int(coeff_degree)
        self.coeff_field = _coeff_field(field, self.t)
        self._reduce(self._rows(generators))

    # perfbench/spans.py wraps these two in this class's own __dict__
    contains_vector = _Code.contains_vector
    contains_code = _Code.contains_code

    # -- representation helpers --------------------------------------------

    @property
    def u(self) -> int:
        """Coefficient-field columns per F_q coordinate."""
        return self.field.m // self.t

    @property
    def ncols(self) -> int:
        return 2 * self.n * self.u

    def _row(self, row) -> np.ndarray:
        row = _field_row(row, self.field, 2 * self.n)
        if self.t == self.field.m:
            return row
        # expand each F_q entry into its m prime-field digits
        return self.field._dig[row].reshape(-1)

    def _contract_row(self, row: np.ndarray) -> np.ndarray:
        """Inverse of _row, giving 2n integer-encoded F_q entries."""
        if self.t == self.field.m:
            return np.asarray(row, dtype=np.int64)
        return np.asarray(row, dtype=np.int64).reshape(2 * self.n, self.field.m) @ self.field._pw

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, field: FieldSpec, coeff_degree: int = 1) -> "AdditiveCode":
        return cls(n, field, [], coeff_degree)

    @classmethod
    def _from_coeff_matrix(cls, n, field, coeff_degree, mat,
                           pivots=None) -> "AdditiveCode":
        """The code spanned by coefficient rows ``mat``, taken as they are
        when given with their ``pivots`` (see :meth:`_Code._reduce`)."""
        code = cls.__new__(cls)
        code.n, code.field, code.t = n, field, coeff_degree
        code.coeff_field = _coeff_field(field, coeff_degree)
        code._reduce(mat, pivots)
        return code

    def as_additive(self) -> "AdditiveCode":
        """The same set of vectors as a t=1 (prime-field) code."""
        if self.t == 1:
            return self
        return AdditiveCode._from_coeff_matrix(
            self.n, self.field, 1, _digit_rows(self.mat, self.field))

    def __repr__(self):
        return (f"AdditiveCode(n={self.n}, {self.field!r}, t={self.t}, "
                f"rank={self.rank})")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "m": self.field.m,
            "modulus": list(self.field.modulus),
            "n": self.n,
            "coeff_degree": self.t,
            "generators": [[int(v) for v in self._contract_row(r)]
                           for r in self.mat],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AdditiveCode":
        n, gens = _plain_int(data["n"], "n"), data["generators"]
        if n < 1:
            raise ValueError(f"field 'n' must be at least 1, got {n}")
        if not isinstance(gens, list):
            raise ValueError(
                f"field 'generators' must be a list, got {gens!r}")
        # every report derives the code, and the zero code has no derivation
        if not gens:
            raise ValueError(
                "field 'generators' must list at least one generator")
        return cls(n, _json_field(data), gens,
                   _plain_int(data.get("coeff_degree", 1), "coeff_degree"))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AdditiveCode":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@lru_cache(maxsize=None)
def _trace_block(field: FieldSpec, u: int) -> np.ndarray:
    """T_ab = tr(alpha_a alpha_b) over F_p: the trace form on the u > 1
    digits of one x_i or y_i (read-only); for u = 1 T is (1), no product."""
    T = np.array([[field.trace(field.mul(field.p**a, field.p**b))
                   for b in range(u)] for a in range(u)], dtype=np.int64)
    T.flags.writeable = False
    return T


def _pairings(U, V, n: int, field: FieldSpec, t: int) -> np.ndarray:
    """Form values <u_i|v_j> = U M V^T over the coefficient field F_{p^t}.

    U and V are coefficient rows (one vector may be given as a 1-D row).
    With V None the result is U M: row i holds the coefficients of
    x -> <u_i|x>.  M has blocks -T at (x_i, y_i) and T at (y_i, x_i), so
    U M = (U_y T | -U_x T), T from :func:`_trace_block`, with no product.
    """
    cf, h = _coeff_field(field, t), n * field.m // t
    U = np.asarray(U, dtype=np.int64).reshape(-1, 2 * h)
    if h > n:       # T acts on each coordinate's u = h/n digits
        T = _trace_block(field, h // n)
        U = (U.reshape(-1, len(T)) @ T % field.p).reshape(len(U), 2 * h)
    UM = np.concatenate([U[:, h:], cf.neg_arr(U[:, :h])], axis=1)
    return UM if V is None else linalg.matmul(UM, np.atleast_2d(V).T, cf)


def dual_symp(code: AdditiveCode) -> AdditiveCode:
    """Trace-symplectic dual, with the same coefficient degree.

    For an F_q-linear code the trace-symplectic dual coincides with the dual
    under the untraced symplectic form and is again F_q-linear, so the
    computation stays over F_q.
    """
    a = _pairings(code.mat, None, code.n, code.field, code.t)
    return code._spanned(*linalg.reduced_nullspace(a, code.coeff_field))


def _kernel_span(code, mat: np.ndarray):
    """The span of a·code.mat, a the first code.rank entries of each vector
    of the reduced basis of ker(mat), which must hold every pivot.  With a
    and code.mat reduced, row r of a·code.mat is zero left of the pivot of
    code.mat's row piv[r], 1 there and 0 at the other such pivots."""
    a, piv = linalg.reduced_nullspace(mat, code.coeff_field)
    return code._spanned(linalg.matmul(a[:, :code.rank], code.mat,
                                       code.coeff_field),
                         [code.pivots[i] for i in piv])


def radical(code: AdditiveCode) -> AdditiveCode:
    """C intersect C^perp_s from the Gram matrix G = C M C^T of C's rows:
    a·C lies in C^perp_s iff G a^T = 0, so C^perp_s is never built."""
    return _kernel_span(code, _pairings(code.mat, code.mat, code.n,
                                        code.field, code.t))


def intersect(c1, c2):
    """Intersection of two codes of one kind and space, in canonical form:
    a·c1.mat for (a, b) in the kernel of the stacked rows' transpose; c2's
    rows are independent, so a != 0 and holds its vector's pivot."""
    c1._check_compatible(c2)
    return _kernel_span(c1, np.concatenate([c1.mat, c2.mat]).T)


# ---------------------------------------------------------------------------
# minimum weights by enumeration
# ---------------------------------------------------------------------------

def _layout(code, rows: np.ndarray) -> np.ndarray:
    """Prime-field rows with each coordinate's digits contiguous: each of
    ``rows`` (rows of ``code``'s space over its coefficient field F_{p^t})
    becomes its t digit rows alpha^j g, alpha^0 g first, not reduced again.
    A coordinate group is the 2m digits of (x_i, y_i) for an additive code
    and the m digits of x_i for a classical one."""
    digits = _digit_rows(rows, code.coeff_field)
    n, m = code.n, code.field.m
    perm = np.arange(digits.shape[1]).reshape(-1, n, m).transpose(1, 0, 2)
    return digits[:, perm.reshape(-1)]


def _digit_rows(mat: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Rows alpha^j g (j < m) of each row g over F_q, in F_p digits."""
    (k, n), m = mat.shape, field.m
    scaled = field.mul_arr(mat[:, None, :], field._pw[:, None])
    return field._dig[scaled].reshape(k * m, n * m)


def _split(a, b) -> np.ndarray:
    """B's rows, then A's rows whose pivot B lacks, in A's order, for codes
    in canonical form, span(B) in span(A): B's pivots are among A's, so
    these are rank A rows with distinct pivots, hence independent."""
    taken = set(b.pivots)
    return np.concatenate([b.mat, a.mat[[i for i, c in enumerate(a.pivots)
                                         if c not in taken]]])


def _coset_rows(a, b) -> Tuple[np.ndarray, int, int]:
    """A's rows over its coefficient field F_{p^t} split by :func:`_split`
    and laid out, B's digit-row count, and t; B None is {0}."""
    rows = a.mat if b is None else _split(a, b)
    return _layout(a, rows), 0 if b is None else b.rank_p, a.coeff_field.m


def _exact(code, policy: Policy) -> Policy:
    """``policy`` in "exact" mode, for a bare-number scan of ``code``."""
    p, k = code.field.p, code.rank_p
    if not policy.fits(p, k):
        raise EnumerationLimitError(
            f"span size {p}^{k} exceeds threshold {policy.threshold}")
    return replace(policy, distance_mode="exact")


def _min_scan(a, b, policy: Policy) -> Tuple[int, str]:
    """Minimum group weight over span(A) minus span(B) and the method that
    backs it, for codes of either kind; B a subcode of A, None is {0}.
    See :func:`min_swt_coset` for the modes."""
    if b is not None and not a.contains_code(b):
        raise ValueError("B is not a subcode of A")
    if a.rank_p == (0 if b is None else b.rank_p):
        raise ValueError("A equals B: the difference set is empty")
    if policy.distance_mode == "skip":
        raise ValueError("distance mode 'skip' measures no weight")
    p = a.field.p
    exact = policy.distance_mode == "exact" and policy.fits(p, a.rank_p)
    gens, kb, t = _coset_rows(a, b)
    if not exact and p**len(gens) > WITNESS_RANDOM_SAMPLES:
        return _witness_search(gens, p, a.n, gens.shape[1] // a.n, kb,
                               len(gens) - kb, policy.seed), "witness"
    # a witness of a span no larger than the random search would draw is
    # its exact minimum, the tightest upper bound
    return (_class_min(gens, p, a.n, kb, t),
            "exhaustive" if exact else "witness")


def _class_ranges(p: int, t: int, lo: int, hi: int) -> List[Tuple[int, int]]:
    """Counter ranges holding one vector per F_{p^t} scalar class of
    span(gens[:hi]) minus span(gens[:lo]), for the t digit rows alpha^j g
    (alpha^0 g first) of each row g over F_{p^t}; lo and hi are multiples
    of t.  Such a vector divided by its top nonzero F_{p^t} coefficient
    keeps its weight, stays in the difference and has coefficient 1 on
    alpha^0 g and 0 after it: counters [p^i, 2 p^i) of all gens (zero on
    rows above i, so all share one low table), i = lo, lo + t, ..; for
    p^t = 2 they join into [2^lo, 2^hi)."""
    if p**t == 2:
        return [(1 << lo, 1 << hi)] if lo < hi else []
    return [(p**i, 2 * p**i) for i in range(lo, hi, t)]


def _class_min(gens: np.ndarray, p: int, n: int, kb: int, t: int = 1) -> int:
    """Minimum group weight over span(gens) minus the span of its first kb,
    one vector per scalar class (:func:`_class_ranges`)."""
    best, size = n + 1, gens.shape[1] // n
    for lo, hi in _class_ranges(p, t, kb, len(gens)):
        best = min(best, _enum.min_weight_range(gens, p, n, size, lo, hi))
        if best <= 1:
            break
    return best


def _distributions(a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Group weight distributions (index = weight) of span(B) and span(A),
    B a subcode of A (None is {0}), from one scan of the
    :func:`_coset_rows` layout, B's rows first: one vector per F_{p^t}
    scalar class (:func:`_class_ranges`), each counted p^t - 1 times."""
    gens, kb, t = _coset_rows(a, b)
    p, n = a.field.p, a.n
    dist = np.zeros(n + 1, dtype=np.int64)
    dist[0] = 1
    out = []
    for lo, hi in ((0, kb), (kb, len(gens))):
        for start, stop in _class_ranges(p, t, lo, hi):
            dist += (p**t - 1) * _enum.weight_distribution(
                gens, p, n, gens.shape[1] // n, start, stop)
        out.append(dist.copy())
    return tuple(out)


@lru_cache(maxsize=None)
def _krawtchouk(n: int, Q: int) -> Tuple[Tuple[int, ...], ...]:
    """K[w][j] = sum_s (-1)^s (Q-1)^(w-s) C(j, s) C(n-j, w-s) in exact
    integers: the MacWilliams transform of weight distributions of length
    n over an alphabet of Q letters, K K = Q^n I."""
    return tuple(tuple(sum((-1)**s * (Q - 1)**(w - s) * comb(j, s)
                           * comb(n - j, w - s) for s in range(w + 1))
                       for j in range(n + 1)) for w in range(n + 1))


def min_swt(code: AdditiveCode, policy: Policy = DEFAULT_POLICY) -> int:
    """Exact minimum symplectic weight by full span enumeration, in every
    distance mode; EnumerationLimitError beyond ``policy.threshold``."""
    return _min_scan(code, None, _exact(code, policy))[0]


def min_swt_coset(a: AdditiveCode, b: Optional[AdditiveCode],
                  policy: Policy = DEFAULT_POLICY) -> Tuple[int, str]:
    """Minimum symplectic weight over A \\ B (B a subcode of A; None is {0}).

    "exact" enumerates span(A) if it fits the policy, tag "exhaustive",
    else falls back to "witness": an upper bound, the exact minimum when
    span(A) has at most ``WITNESS_RANDOM_SAMPLES`` elements, else the
    result of a bounded search (generator combinations plus random
    sampling from ``policy.seed``).  "skip" is refused.
    """
    return _min_scan(a, b, policy)


def _witness_search(gens, p, n_groups, group_size, kb, ke, seed) -> int:
    """Upper bound on the coset minimum weight.

    Tries all small combinations of extension generators (joined with small
    B-side combinations) and then seeded random sampling of coefficient
    vectors with a nonzero extension part.
    """
    k = kb + ke
    best = n_groups + 1

    def weights(coeffs: np.ndarray) -> np.ndarray:
        vecs = (coeffs @ gens) % p
        return vecs.reshape(len(coeffs), n_groups, group_size).any(
            axis=2).sum(axis=1)

    # combinations of up to 3 generators, not all inside B (a subset is
    # sorted, so its last index is its largest)
    combos = ((subset, coefs) for size in (1, 2, 3)
              for subset in combinations(range(k), size) if subset[-1] >= kb
              for coefs in product(range(1, p), repeat=size))
    for subset, coefs in islice(combos, _WITNESS_COMBO_CAP):
        coeffs = np.zeros((1, k), dtype=np.int64)
        coeffs[0, list(subset)] = coefs
        best = min(best, int(weights(coeffs)[0]))

    rng = np.random.default_rng(seed)
    for start in range(0, WITNESS_RANDOM_SAMPLES, 1 << 12):
        if best == 1:
            break
        bsz = min(1 << 12, WITNESS_RANDOM_SAMPLES - start)
        coeffs = rng.integers(0, p, size=(bsz, k), dtype=np.int64)
        # force a nonzero extension coefficient to stay outside B
        fix = rng.integers(kb, k, size=bsz)
        coeffs[np.arange(bsz), fix] = rng.integers(1, p, size=bsz,
                                                   dtype=np.int64)
        best = min(best, int(weights(coeffs).min()))
    return best


def swt_distribution(code: AdditiveCode,
                     policy: Policy = DEFAULT_POLICY) -> np.ndarray:
    """Histogram of symplectic weights (index = weight), as :func:`min_swt`."""
    _exact(code, policy)
    return _distributions(code, None)[1]


# ---------------------------------------------------------------------------
# classical codes
# ---------------------------------------------------------------------------

def _conj(field: FieldSpec, a) -> np.ndarray:
    """Frobenius x -> x^sqrt(q) on every entry, for a square field."""
    if field.m % 2 != 0:
        raise ValueError("Hermitian operations need a square field")
    return field.pow_arr(a, field.p**(field.m // 2))


def _hermitian_gram(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """conj(G) G^T: <g_i|g_j>_h = sum g_i^sqrt(q) g_j of the rows of G."""
    return linalg.matmul(_conj(field, rows), rows.T, field)


class ClassicalCode(_Code):
    """A linear code over F_q (or F_{q^2}) in canonical generator form."""

    def __init__(self, length: int, field: FieldSpec, generators):
        self.n = int(length)
        self.field = self.coeff_field = field
        self._reduce(self._rows(generators))

    @property
    def ncols(self) -> int:
        return self.n

    def _row(self, row) -> np.ndarray:
        return _field_row(row, self.field, self.n)

    def __repr__(self):
        return f"ClassicalCode([{self.n},{self.rank}] over {self.field!r})"

    # -- duals ---------------------------------------------------------------

    def dual(self, kind: str = "euclidean") -> "ClassicalCode":
        if kind == "euclidean":
            mat = self.mat
        elif kind == "hermitian":
            mat = _conj(self.field, self.mat)
        else:
            raise ValueError(f"unknown dual kind {kind!r}")
        return self._spanned(*linalg.reduced_nullspace(mat, self.field))

    def is_hermitian_self_orthogonal(self) -> bool:
        """All Hermitian products of generators vanish: conj(G) G^T = 0."""
        return not _hermitian_gram(self.field, self.mat).any()

    def hermitian_radical(self) -> "ClassicalCode":
        """Y intersect Y^perp_h: a·G is in it iff conj(G) G^T a^T = 0."""
        return _kernel_span(self, _hermitian_gram(self.field, self.mat))

    def intersect(self, other: "ClassicalCode") -> "ClassicalCode":
        return intersect(self, other)

    # -- weights -------------------------------------------------------------

    def min_wt(self, policy: Policy = DEFAULT_POLICY) -> int:
        """Exact minimum Hamming weight by enumeration, as :func:`min_swt`."""
        return _min_scan(self, None, _exact(self, policy))[0]

    def min_wt_coset(self, sub: "ClassicalCode",
                     policy: Policy = DEFAULT_POLICY) -> Tuple[int, str]:
        """Minimum Hamming weight over self \\ sub, as min_swt_coset."""
        return _min_scan(self, sub, policy)

    # -- classical modifications --------------------------------------------

    def puncture(self, coord: int) -> "ClassicalCode":
        if not 0 <= coord < self.n:
            raise ValueError(f"coordinate {coord} out of range for length {self.n}")
        mat = np.delete(self.mat, coord, axis=1)
        return ClassicalCode(self.n - 1, self.field, mat)

    def extend_parity(self) -> "ClassicalCode":
        """Append an overall-parity coordinate (negated coordinate sum)."""
        sums = linalg.matmul(self.mat, np.ones((self.n, 1), dtype=np.int64),
                             self.field)
        mat = np.concatenate([self.mat, self.field.neg_arr(sums)], axis=1)
        return ClassicalCode(self.n + 1, self.field, mat)
