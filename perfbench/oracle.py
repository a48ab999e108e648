"""Reference data and a brute-force oracle, independent of the library.

Nothing here imports ``subsystem_codes``.  The oracle works on the set
F_p^{2nm} itself: it lists every vector of the space, marks which lie in
the gauge code C, in its trace-symplectic dual, in the radical
D = C ∩ C^⊥s and in D^⊥s, and reads off

    log_p K = nm - (log_p|C| + log_p|D|) / 2,
    log_p R = (log_p|C| - log_p|D|) / 2,
    d       = min swt over D^⊥s \\ C   (over D^⊥s \\ {0} when K = 1),
    swt(C)  = min swt over C \\ {0}.

Field elements use the file format's encoding: the base-p digits of an
integer are the coefficients of its polynomial-basis representation,
least significant first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# The paper's table of optimal pure MDS subsystem codes, [[n, k, r, d]]_q.
PAPER_CATALOG: Dict[int, List[Tuple[int, int, int, int]]] = {
    3: [(8, 1, 5, 2), (8, 4, 2, 2), (8, 5, 1, 2), (9, 1, 4, 3), (9, 4, 1, 3)],
    4: [(15, 1, 10, 3), (15, 9, 2, 3), (15, 10, 1, 3), (16, 1, 9, 4)],
    5: [(24, 1, 17, 4), (24, 16, 2, 4), (24, 17, 1, 4), (24, 19, 1, 3),
        (24, 21, 1, 2), (23, 1, 18, 3), (23, 16, 3, 3)],
    7: [(48, 1, 37, 6)],
}

MAX_SPACE = 1 << 20          # largest F_p^{2nm} the oracle will list
_CHUNK = 1 << 16


def family_params(family: str, q: int, delta: int, r: int) -> Tuple[int, int, int, int]:
    """[[n, k, r, d]]_q of the paper's MDS families v (n = q^2 - 1) and vi (n = q^2)."""
    if family == "v":
        return (q * q - 1, q * q - 2 * delta - 1 - r, r, delta + 1)
    if family == "vi":
        return (q * q, q * q - 2 * delta - 2 - r, r, delta + 2)
    raise ValueError(f"no formula for family {family!r}")


def family_members(family: str, q: int, rs: Sequence[int]) -> List[Tuple[int, int]]:
    """Every valid (delta, r) with r in ``rs``: 0 <= delta < q-1, k >= 1."""
    out = []
    for delta in range(q - 1):
        for r in rs:
            n, k, _, _ = family_params(family, q, delta, r)
            if k >= 1:
                out.append((delta, r))
    return out


def singleton_tight(n: int, k: int, r: int, d: int) -> bool:
    return k + r == n - 2 * d + 2


# ---------------------------------------------------------------------------
# arithmetic in GF(p^m), enough for the trace form and scalar multiples
# ---------------------------------------------------------------------------

class _Field:
    def __init__(self, p: int, modulus: Sequence[int]):
        self.p = p
        self.m = len(modulus) - 1
        self.q = p ** self.m
        self.modulus = [int(c) % p for c in modulus]

    def digits(self, a: int) -> List[int]:
        return [(a // self.p ** i) % self.p for i in range(self.m)]

    def encode(self, ds: Sequence[int]) -> int:
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(ds))

    def mul(self, a: int, b: int) -> int:
        p, m, f = self.p, self.m, self.modulus
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, m - 1, -1):
            c = prod[top]
            if c:
                for i in range(m + 1):
                    prod[top - m + i] = (prod[top - m + i] - c * f[i]) % p
        return self.encode(prod[:m])

    def trace(self, a: int) -> int:
        """tr(a) = a + a^p + ... + a^(p^(m-1)), an element of F_p."""
        acc, x = [0] * self.m, a
        for _ in range(self.m):
            acc = [(u + v) % self.p for u, v in zip(acc, self.digits(x))]
            y = 1
            for _ in range(self.p):
                y = self.mul(y, x)
            x = y
        if any(acc[1:]):
            raise AssertionError("trace left the prime field")
        return acc[0]


def _prime_rows(field: _Field, n: int, generators, coeff_degree: int) -> np.ndarray:
    """F_p spanning rows of the code, on the 2nm digit columns."""
    gens = [list(map(int, g)) for g in generators]
    for g in gens:
        if len(g) != 2 * n or min(g, default=0) < 0 or max(g, default=0) >= field.q:
            raise ValueError("generator has the wrong length or an entry out of range")
    if coeff_degree == 1:
        scalars = [1]
    elif coeff_degree == field.m:
        scalars = [field.p ** j for j in range(field.m)]   # 1, x, x^2, ...
    else:
        raise ValueError(f"coefficient degree {coeff_degree} not handled")
    rows = [[dg for e in g for dg in field.digits(field.mul(s, e))]
            for g in gens for s in scalars]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n * field.m)


def _gram(field: _Field, n: int) -> np.ndarray:
    """W with <u,v> = u W v^T = tr(sum_i v_x,i u_y,i - u_x,i v_y,i)."""
    m, p = field.m, field.p
    T = np.array([[field.trace(field.mul(p ** a, p ** b)) for b in range(m)]
                  for a in range(m)], dtype=np.int64)
    W = np.zeros((2 * n * m, 2 * n * m), dtype=np.int64)
    for i in range(n):
        x, y = i * m, (n + i) * m
        W[y:y + m, x:x + m] = T
        W[x:x + m, y:y + m] = (-T) % p
    return W


class _Space:
    """All of F_p^N, vector i having base-p digits i (column c = digit c)."""

    def __init__(self, p: int, N: int):
        if p ** N > MAX_SPACE:
            raise ValueError(f"space {p}^{N} is too large to list")
        self.p, self.N, self.size = p, N, p ** N
        idx = np.arange(self.size, dtype=np.int64)
        self.vecs = np.empty((self.size, N), dtype=np.int8)
        for c in range(N):
            self.vecs[:, c] = idx % p
            idx //= p
        self.pw = p ** np.arange(N, dtype=np.int64)

    def encode(self, vecs: np.ndarray) -> np.ndarray:
        return (np.asarray(vecs, dtype=np.int64) % self.p) @ self.pw

    def span(self, rows: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Membership mask of the F_p span of ``rows`` and a basis of it."""
        mask = np.zeros(self.size, dtype=bool)
        mask[0] = True
        members = np.zeros(1, dtype=np.int64)
        basis = []
        for row in rows:
            if mask[self.encode(row.reshape(1, -1))[0]]:
                continue
            base = self.vecs[members].astype(np.int64)
            grown = [members]
            for c in range(1, self.p):
                grown.append(self.encode(base + c * row))
            members = np.concatenate(grown)
            mask[members] = True
            basis.append(row)
        return mask, basis

    def orthogonal(self, W: np.ndarray, basis: List[np.ndarray]) -> np.ndarray:
        """Mask of vectors pairing to zero with every row of ``basis``."""
        if not basis:
            return np.ones(self.size, dtype=bool)
        B = (W @ np.stack(basis).T) % self.p
        out = np.empty(self.size, dtype=bool)
        for lo in range(0, self.size, _CHUNK):
            chunk = self.vecs[lo:lo + _CHUNK].astype(np.int64)
            out[lo:lo + _CHUNK] = ~((chunk @ B) % self.p).any(axis=1)
        return out

    def min_swt(self, mask: np.ndarray, n: int, m: int) -> Optional[int]:
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        best = None
        for lo in range(0, idx.size, _CHUNK):
            v = self.vecs[idx[lo:lo + _CHUNK]].reshape(-1, 2, n, m)
            w = int(v.any(axis=(1, 3)).sum(axis=1).min())
            best = w if best is None else min(best, w)
        return best


def _log_p(count: int, p: int) -> int:
    e, x = 0, count
    while x % p == 0 and x > 1:
        x //= p
        e += 1
    if x != 1:
        raise AssertionError(f"{count} is not a power of {p}")
    return e


def brute_force(p: int, modulus: Sequence[int], n: int, generators,
                coeff_degree: int = 1) -> dict:
    """Parameters of the subsystem code of C = span(generators), by listing F_p^{2nm}."""
    field = _Field(p, modulus)
    m = field.m
    space = _Space(p, 2 * n * m)
    W = _gram(field, n)
    in_c, c_basis = space.span(_prime_rows(field, n, generators, coeff_degree))
    if not c_basis:
        raise ValueError("C must be nonzero")
    in_d = in_c & space.orthogonal(W, c_basis)
    _, d_basis = space.span(space.vecs[np.flatnonzero(in_d)].astype(np.int64))
    in_dperp = space.orthogonal(W, d_basis)
    c_exp = _log_p(int(in_c.sum()), p)
    d_exp = _log_p(int(in_d.sum()), p)
    if _log_p(int(in_dperp.sum()), p) != 2 * n * m - d_exp:
        raise AssertionError("|D| |D^perp| != |F_p^{2nm}|")
    if (c_exp + d_exp) % 2:
        raise AssertionError("|C| |D| is not an even power of p")
    k_exp = n * m - (c_exp + d_exp) // 2
    r_exp = (c_exp - d_exp) // 2
    nonzero = np.ones(space.size, dtype=bool)
    nonzero[0] = False
    logical = in_dperp & (nonzero if k_exp == 0 else ~in_c)
    return {
        "n": n, "q": field.q, "k_exp": k_exp, "r_exp": r_exp,
        "K": p ** k_exp, "R": p ** r_exp,
        "d": space.min_swt(logical, n, m),
        "swt_c": space.min_swt(in_c & nonzero, n, m),
        "log_p_C": c_exp, "log_p_D": d_exp,
    }


def brute_force_file(data: dict) -> dict:
    """Oracle on the JSON code-file format (``p``, ``m``, ``modulus``, ``n``, ...)."""
    p, m = int(data["p"]), int(data.get("m", 1))
    modulus = data.get("modulus") or ([0, 1] if m == 1 else None)
    if modulus is None:
        raise ValueError("the oracle needs an explicit modulus for m > 1")
    return brute_force(p, modulus, int(data["n"]), data["generators"],
                       int(data.get("coeff_degree", 1)))
