"""Finite field arithmetic for GF(p^m) and quadratic extension towers.

Field elements are encoded as integers in [0, p^m - 1] whose base-p digits
are the coefficients of the polynomial-basis representation (least
significant digit = constant term).  The default modulus for GF(p^m) is the
Conway polynomial, computed on first use and cached, so that serialized
codes are reproducible across implementations.

Every field multiplies, inverts and raises to powers through one pair of
log/exp tables built from its generator: the first primitive element in
encoding order (x for a Conway modulus, the smallest primitive root mod p
for a prime field).  log(0) is a sentinel that lands every sum of logs with
a zero operand in the zero tail of the exp table, so a product is one
lookup with no zero test.  Powers of whole arrays (``pow_arr``), the
generator-power order of the elements and a tower's subfield embedding
are slices and lookups of the same tables.  Scalar ``add``, ``neg``,
``mul`` and ``pow`` are the array operations applied to scalars.

A user-given modulus is checked for irreducibility by trial division: a
monic polynomial of degree m is reducible iff it has a monic factor of
degree at most m/2, and under the field-size cap that is at most 510
divisions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "conway_polynomial",
    "prime_power",
    "FieldSpec",
    "TowerSpec",
]


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient tuples over F_p, low degree first)
# ---------------------------------------------------------------------------

def _poly_mod(a: list, f: Sequence[int], p: int) -> list:
    """Reduce polynomial a modulo the monic polynomial f, in place."""
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, f, p)


def _poly_powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _is_one(a: Sequence[int]) -> bool:
    return len(a) >= 1 and a[0] == 1 and all(c == 0 for c in a[1:])


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _is_primitive(g: Sequence[int], f: Sequence[int], p: int) -> bool:
    """True iff g generates the multiplicative group of F_p[x]/(f).

    For g = x this implies irreducibility of f provided f(0) != 0 and
    deg f >= 1.
    """
    order = p**(len(f) - 1) - 1
    # g^order must be 1 ...
    if not _is_one(_poly_powmod(g, order, f, p)):
        return False
    # ... and no proper divisor of the order may already give 1.
    return not any(_is_one(_poly_powmod(g, order // ell, f, p))
                   for ell in _prime_factors(order))


def _poly_is_irreducible(f: Sequence[int], p: int) -> bool:
    """True iff the monic f of degree m >= 1 has no monic factor of degree
    1..m/2 over F_p: at most 510 trial divisions under the field-size cap."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        for low in range(p**d):
            g = [low // p**i % p for i in range(d)] + [1]
            if not any(_poly_mod(list(f), g, p)):
                return False
    return True


@lru_cache(maxsize=None)
def conway_polynomial(p: int, m: int) -> Tuple[int, ...]:
    """Conway polynomial of degree m over F_p, low-degree-first coefficients.

    Computed by searching candidates in the standard Conway ordering for the
    first primitive polynomial compatible with the Conway polynomials of all
    proper subfields.  Cached per (p, m).
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    divisors = [d for d in range(1, m) if m % d == 0]
    sub = {d: conway_polynomial(p, d) for d in divisors}
    order = p**m - 1

    # Candidates f = x^m + a_{m-1} x^{m-1} + ... + a_0 are enumerated in the
    # standard ordering: lexicographic in the word (b_{m-1}, ..., b_0) with
    # b_i = (-1)^(m-i) a_i mod p, most significant digit first.
    for word in range(p**m):
        coeffs = [0] * (m + 1)
        coeffs[m] = 1
        t = word
        for i in range(m):          # b_i is digit i of the word
            b = t % p
            t //= p
            coeffs[i] = b if (m - i) % 2 == 0 else (-b) % p
        if coeffs[0] == 0:
            continue
        f = tuple(coeffs)
        if not _is_primitive([0, 1], f, p):
            continue
        for d in divisors:
            # the image of the degree-d generator must be a root of C(p, d),
            # evaluated by Horner's rule
            y = _poly_powmod([0, 1], order // (p**d - 1), f, p)
            acc = [0]
            for c in reversed(sub[d]):
                acc = _poly_mulmod(acc, y, f, p)
                acc[0] = (acc[0] + c) % p
            if any(acc):
                break
        else:
            return f
    raise RuntimeError(f"no Conway polynomial found for p={p}, m={m}")


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

_MAX_Q = 1 << 16             # practical cap on field size


def prime_power(q: int) -> Tuple[int, int]:
    """(p, m) with q = p^m, p prime and q within the field-size cap; else
    ValueError.  The cap also bounds the trial division."""
    if q > _MAX_Q:
        raise ValueError(f"q = {q} exceeds the field size cap {_MAX_Q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


class FieldSpec:
    """Arithmetic in GF(p^m) on integer-encoded elements.

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree.
    modulus : optional monic irreducible polynomial over F_p given as a
        sequence of m+1 coefficients in 0..p-1, low degree first (a
        coefficient outside that range is a ValueError).  Defaults to the
        Conway polynomial.  A given modulus is checked by trial division
        by every monic polynomial of degree 1..m/2 (ValueError "not
        irreducible" on a factor).

    ``generator`` is the first primitive element in encoding order: x for a
    Conway modulus, the smallest primitive root for a prime field.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # checked first: p^m for a huge m, or trial division of a huge p,
        # would not finish
        if p > _MAX_Q or m >= _MAX_Q.bit_length() or p**m > _MAX_Q:
            raise ValueError(f"field size {p}^{m} exceeds supported cap {_MAX_Q}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            modulus = conway_polynomial(p, m)
        else:
            modulus = tuple(int(c) for c in modulus)
            if not all(0 <= c < p for c in modulus):
                raise ValueError(f"modulus {modulus} has a coefficient "
                                 f"outside 0..{p - 1}")
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is not irreducible over F_{p}")
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- encoding -----------------------------------------------------------

    def digits(self, a: int) -> Tuple[int, ...]:
        """Base-p digit vector (polynomial coefficients) of an element."""
        return tuple(int(d) for d in self._dig[a])

    def from_digits(self, ds: Iterable[int]) -> int:
        return sum((int(d) % self.p) * self.p**i for i, d in enumerate(ds))

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        # digit decomposition, used for vectorized addition
        self._pw = p ** np.arange(m)
        self._dig = np.arange(q)[:, None] // self._pw % p

        # the first primitive element in encoding order, its digits without
        # trailing zeros so that the power loop multiplies short polynomials
        for g in range(1, q):
            gd = list(self.digits(g))
            while gd[-1] == 0:
                gd.pop()
            if _is_primitive(gd, self.modulus, p):
                break
        self.generator = g

        # exp is cyclic up to index 2(q-1)-2 and 0 from 2(q-1)-1 on, and
        # log(0) = 2(q-1)-1: a sum of two logs with a zero operand lands in
        # the zero tail
        pw = self._pw.tolist()
        powers, cur = [], [1]
        for _ in range(q - 1):
            powers.append(sum(c * w for c, w in zip(cur, pw)))
            cur = _poly_mulmod(cur, gd, self.modulus, p)
        exp = np.zeros(4 * (q - 1) - 1, dtype=np.int64)
        exp[:q - 1] = powers
        exp[q - 1:2 * (q - 1) - 1] = powers[:-1]
        log = np.full(q, 2 * (q - 1) - 1, dtype=np.int64)
        log[exp[:q - 1]] = np.arange(q - 1)
        self._exp, self._log = exp, log

        # Frobenius x -> x^p and inverses, from the logs of the nonzero
        # elements
        lg = log[1:]
        frob = np.zeros(q, dtype=np.int64)
        frob[1:] = exp[lg * p % (q - 1)]
        self._inv_table = np.zeros(q, dtype=np.int64)
        self._inv_table[1:] = exp[-lg % (q - 1)]

        # trace to F_p: the sum of x^(p^i) for i < m, an element of the
        # prime subfield encoded as itself
        tr, x = np.zeros(q, dtype=np.int64), np.arange(q)
        for _ in range(m):
            tr, x = self.add_arr(tr, x), frob[x]
        if np.any(tr >= p):
            raise AssertionError("trace left the prime subfield")
        self._trace_table = tr

    # -- scalar ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_arr(a))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_arr(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return int(self._inv_table[a])

    def pow(self, a: int, e: int) -> int:
        return int(self.pow_arr(a, e))

    def trace(self, a: int) -> int:
        """Trace down to the prime field F_p (returned as an int < p)."""
        return int(self._trace_table[a])

    # -- vectorized ops on integer-encoded ndarrays -------------------------

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return ((self._dig[a] + self._dig[b]) % self.p) @ self._pw

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return np.copy(a)
        return ((-self._dig[a]) % self.p) @ self._pw

    def mul_arr(self, a: np.ndarray, b) -> np.ndarray:
        if self.m == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def pow_arr(self, a, e) -> np.ndarray:
        """a^e elementwise, a broadcast against e, with 0^0 = 1."""
        a, e = np.asarray(a), np.asarray(e)
        # reducing e first keeps the product of log and exponent below q^2
        powers = self._exp[self._log[a] * (e % (self.q - 1)) % (self.q - 1)]
        return np.where(a == 0, e == 0, powers)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


# ---------------------------------------------------------------------------
# quadratic extension tower GF(q^2) / GF(q)
# ---------------------------------------------------------------------------

class TowerSpec:
    """The tower F_p <= F_q <= F_{q^2} with distinguished basis {1, beta}.

    beta is the residue class of the Conway generator of GF(p^{2m}); the
    subfield embedding GF(p^m) -> GF(p^{2m}) follows the Conway norm
    compatibility, so arithmetic is consistent across the tower.  The
    embedding and the {1, beta} expansion are read from the log/exp
    tables of both fields.
    """

    def __init__(self, base: FieldSpec):
        if base.modulus != conway_polynomial(base.p, base.m):
            raise ValueError("tower construction requires Conway moduli")
        self.base = base
        self.top = top = FieldSpec(base.p, 2 * base.m)
        q, q2 = base.q, top.q

        # the base generator's i-th power maps to g^((q+1) i), g the top
        # generator: g^(q+1) generates the multiplicative group of F_q
        embed = np.zeros(q, dtype=np.int64)
        embed[base._exp[:q - 1]] = top._exp[:(q + 1) * (q - 1):q + 1]
        if np.bincount(embed).max() != 1:
            raise AssertionError("subfield embedding is not injective")
        self._embed = embed

        # basis expansion table: x = u + beta*v  <->  (u, v)
        self.beta = top.generator
        u, v = np.divmod(np.arange(q2), q)
        x = top.add_arr(embed[u], top.mul_arr(embed[v], self.beta))
        if np.bincount(x).max() != 1:
            raise AssertionError("{1, beta} does not span the extension")
        self._ex_u = np.zeros(q2, dtype=np.int64)
        self._ex_v = np.zeros(q2, dtype=np.int64)
        self._ex_u[x], self._ex_v[x] = u, v
