"""Hyperbolic decomposition, symplectic partners and fresh pairs.

Works over the coefficient field of the input code (the trace-symplectic
form for t = 1, the untraced one over F_q for t = m), with every form
value from ``codes._pairings``.  Vectors are coefficient rows in the
canonical column order of :mod:`subsystem_codes.codes`.

Completion has two steps, one elimination each.  The partner step
solves for every isotropic vector's partner at once, then moves each by
the earlier isotropic vectors, in one matrix product, so that the
partners pair to 0 with each other.  The complement step takes the
canonical (reduced echelon) complement of the span so far: its first row
v and the first later row pairing non-trivially with v, scaled to
<v|w> = 1, are the next fresh pair.  :func:`fresh_pair` runs each step
once, which is all that adjoining one pair to a gauge code needs;
:func:`extend_to_full_symplectic_basis` repeats the complement step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from . import linalg
from .codes import AdditiveCode, _coeff_field, _pairings
from .gf import FieldSpec

__all__ = ["HyperbolicDecomposition", "hyperbolic_decompose",
           "extend_to_full_symplectic_basis", "fresh_pair"]

Pair = Tuple[np.ndarray, np.ndarray]


@dataclass
class HyperbolicDecomposition:
    """Basis of a code split into an isotropic part and hyperbolic pairs.

    ``isotropic`` spans the radical C intersect C^perp_s; each entry of
    ``pairs`` is (x, z) with <x|z> = 1 and all other pairings zero.
    """

    n: int
    field: FieldSpec
    coeff_degree: int
    isotropic: List[np.ndarray]
    pairs: List[Pair]

    @property
    def s(self) -> int:
        return len(self.isotropic)

    @property
    def r(self) -> int:
        return len(self.pairs)

    @property
    def dim(self) -> int:
        """Dimension of F_q^{2n} over the coefficient field."""
        return 2 * self.n * self.field.m // self.coeff_degree

    def coeff_field(self) -> FieldSpec:
        return _coeff_field(self.field, self.coeff_degree)

    def pairings(self, U, V) -> np.ndarray:
        """Form values <u_i|v_j> for the rows of U and V (U M for V None)."""
        return _pairings(U, V, self.n, self.field, self.coeff_degree)

    def all_vectors(self) -> List[np.ndarray]:
        out = list(self.isotropic)
        for x, z in self.pairs:
            out.extend((x, z))
        return out

    def matrix(self) -> np.ndarray:
        """The rows of :meth:`all_vectors` as one (possibly empty) matrix."""
        vecs = self.all_vectors()
        return np.array(vecs, dtype=np.int64).reshape(len(vecs), self.dim)

    def span(self) -> AdditiveCode:
        return AdditiveCode._from_coeff_matrix(
            self.n, self.field, self.coeff_degree, self.matrix())

    def validate(self) -> None:
        """Check all pairing relations; raises AssertionError on failure."""
        V = self.matrix()
        G = self.pairings(V, V)
        s, neg1 = self.s, self.coeff_field().neg(1)
        expect = np.zeros_like(G)
        for j in range(self.r):
            xi, zi = s + 2 * j, s + 2 * j + 1
            expect[xi, zi] = 1
            expect[zi, xi] = neg1
        if not np.array_equal(G, expect):
            raise AssertionError("pairing relations violated")


def hyperbolic_decompose(code: AdditiveCode) -> HyperbolicDecomposition:
    """Symplectic Gram-Schmidt split of a code into radical + pairs.

    Deterministic for canonical input: generators are consumed in canonical
    row order, and the first generator pairing non-trivially with the
    current pivot is selected as its partner.
    """
    cf = code.coeff_field
    dec = HyperbolicDecomposition(code.n, code.field, code.t, [], [])
    gens = code.mat.copy()
    while len(gens):
        v, gens = gens[0], gens[1:]
        vg = dec.pairings(v, gens)[0]              # <v|g> for every g left
        hit = np.flatnonzero(vg)
        if not hit.size:
            dec.isotropic.append(v)
            continue
        i = hit[0]
        w = cf.mul_arr(gens[i], cf.inv(int(vg[i])))  # now <v|w> = 1
        gens, b = np.delete(gens, i, axis=0), np.delete(vg, i)
        a = dec.pairings(w, gens)[0]                 # <w|g>
        # g <- g + <w|g> v - <v|g> w  kills both pairings
        gens = cf.add_arr(gens, cf.add_arr(
            cf.mul_arr(a[:, None], v), cf.mul_arr(cf.neg_arr(b)[:, None], w)))
        dec.pairs.append((v, w))
    # isotropic candidates are revisited against the final vector set
    dec.validate()
    if dec.span() != code:
        raise AssertionError("decomposition does not span the input code")
    return dec


def _partner_pairs(dec: HyperbolicDecomposition) -> List[Pair]:
    """(x_i, z_i) for every isotropic z_i of a decomposition.

    x_i pairs to 1 with z_i and to 0 with every other vector of ``dec``
    and with the other partners.  One elimination of [R | -I_s]
    (R x = <taken|x>) gives x0_i, free variables zero: <x0_j|z_m> is
    delta_jm and <x0_j|.> vanishes on the pairs.  Then x_i = x0_i -
    sum_{j<i} <x0_j|x0_i> z_j: the z_j lie in the radical, so no pairing
    with ``dec`` moves, and <x_j|x_i> = <x0_j|x0_i> - <x0_j|x0_i> = 0.
    Callers validate the completed pairs; bad input raises AssertionError."""
    cf = dec.coeff_field()
    V = dec.matrix()
    # row j holds the coefficients of x -> <taken_j|x> = -<x|taken_j>
    rows = dec.pairings(V, None)
    rhs = cf.neg(1) * np.eye(len(rows), dec.s, dtype=np.int64)
    solved = linalg.solve_many(rows, rhs, cf)
    if solved is None:
        raise AssertionError("no symplectic partner exists; invalid input")
    X0, Z = solved[0], V[:dec.s]
    L = np.tril(dec.pairings(X0, X0).T, -1)        # L[i, j] = <x0_j|x0_i>
    X = cf.add_arr(X0, cf.neg_arr(linalg.matmul(L, Z, cf)))
    return list(zip(X, dec.isotropic))


def _complement_pair(dec: HyperbolicDecomposition, pairs: List[Pair]) -> Pair:
    """First hyperbolic pair of the canonical complement of ``pairs``."""
    cf = dec.coeff_field()
    V = replace(dec, isotropic=[], pairs=pairs).matrix()
    comp, _ = linalg.reduced_nullspace(dec.pairings(V, None), cf)
    vals = dec.pairings(comp[0], comp[1:])[0]
    hit = np.flatnonzero(vals)
    if not hit.size:
        raise AssertionError("restricted form is degenerate; invalid input")
    return comp[0], cf.mul_arr(comp[1 + hit[0]], cf.inv(int(vals[hit[0]])))


def _complete(dec: HyperbolicDecomposition,
              fresh: int) -> HyperbolicDecomposition:
    """``dec``'s partners and own pairs, then ``fresh`` fresh pairs: a
    validated decomposition with no isotropic part."""
    pairs = _partner_pairs(dec) + list(dec.pairs)
    for _ in range(fresh):
        pairs.append(_complement_pair(dec, pairs))
    basis = replace(dec, isotropic=[], pairs=pairs)
    basis.validate()
    return basis


def fresh_pair(dec: HyperbolicDecomposition) -> Pair:
    """The first fresh hyperbolic pair completing a valid decomposition.

    Equal to ``extend_to_full_symplectic_basis(dec).pairs[dec.s + dec.r]``,
    without completing the rest of the basis.  The pair is validated with
    the partners and ``dec``'s own pairs.  Raises ValueError when the code
    and the partners of its isotropic vectors already fill the space.
    """
    if 2 * (dec.s + dec.r) >= dec.dim:
        raise ValueError("no room left for a fresh hyperbolic pair")
    return _complete(dec, 1).pairs[-1]


def extend_to_full_symplectic_basis(
        dec: HyperbolicDecomposition) -> HyperbolicDecomposition:
    """Complete a valid decomposition to a symplectic basis of the space.

    Every isotropic vector z_i receives a partner x_i; the remaining space
    is filled with fresh hyperbolic pairs.  The result has no isotropic
    part; its pairs are the partners, then ``dec``'s own pairs, then the
    fresh pairs from index ``dec.s + dec.r`` on.  Deterministic: linear
    solves fix free variables to zero and fresh pivots are taken in
    canonical (lexicographic reduced-basis) order.
    """
    basis = _complete(dec, dec.dim // 2 - dec.s - dec.r)
    if 2 * basis.r != basis.dim:
        raise AssertionError("basis does not span the full space")
    return basis
