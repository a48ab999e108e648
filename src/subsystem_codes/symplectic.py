"""Hyperbolic decomposition and symplectic basis completion.

Works over the coefficient field of the input code: the trace-symplectic
form on prime-field coordinates for t = 1, the untraced symplectic form
over F_q for t = m.  All vectors below are coefficient rows in the fixed
canonical column order of :mod:`subsystem_codes.codes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .codes import AdditiveCode, _coeff_field, _symplectic_gram
from .gf import FieldSpec

__all__ = ["HyperbolicDecomposition", "hyperbolic_decompose",
           "extend_to_full_symplectic_basis", "SymplecticBasis"]


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
    pairs: List[Tuple[np.ndarray, np.ndarray]]

    @property
    def s(self) -> int:
        return len(self.isotropic)

    @property
    def r(self) -> int:
        return len(self.pairs)

    def coeff_field(self) -> FieldSpec:
        return _coeff_field(self.field, self.coeff_degree)

    def gram(self) -> np.ndarray:
        return _symplectic_gram(self.n, self.field, self.coeff_degree)

    def form(self, u: np.ndarray, v: np.ndarray) -> int:
        M = self.gram()
        cf = self.coeff_field()
        w = linalg.matmul(u.reshape(1, -1), M, cf)
        return int(linalg.matmul(w, v.reshape(-1, 1), cf)[0, 0])

    def all_vectors(self) -> List[np.ndarray]:
        out = list(self.isotropic)
        for x, z in self.pairs:
            out.extend((x, z))
        return out

    def span(self) -> AdditiveCode:
        vecs = self.all_vectors()
        if not vecs:
            return AdditiveCode.zero(self.n, self.field, self.coeff_degree)
        return AdditiveCode._from_coeff_matrix(
            self.n, self.field, self.coeff_degree, np.stack(vecs))

    def validate(self) -> None:
        """Check all pairing relations; raises AssertionError on failure."""
        cf = self.coeff_field()
        vecs = self.all_vectors()
        if not vecs:
            return
        V = np.stack(vecs)
        G = linalg.matmul(linalg.matmul(V, self.gram(), cf), V.T, cf)
        s = self.s
        expect = np.zeros_like(G)
        for j in range(self.r):
            xi, zi = s + 2 * j, s + 2 * j + 1
            expect[xi, zi] = 1
            expect[zi, xi] = cf.neg(1)
        if not np.array_equal(G, expect):
            raise AssertionError("pairing relations violated")


@dataclass
class SymplecticBasis:
    """A full symplectic basis of F_q^{2n} over the coefficient field.

    ``pairs[k]`` = (x_k, z_k); pairs are ordered so that partners of the
    input's isotropic vectors come first, the input's own pairs next, and
    freshly completed pairs last (``fresh_from`` marks their start index).
    """

    n: int
    field: FieldSpec
    coeff_degree: int
    pairs: List[Tuple[np.ndarray, np.ndarray]]
    fresh_from: int

    def validate(self) -> None:
        dec = HyperbolicDecomposition(self.n, self.field, self.coeff_degree,
                                      [], self.pairs)
        dec.validate()
        dim = 2 * self.n * self.field.m // self.coeff_degree
        if 2 * len(self.pairs) != dim:
            raise AssertionError("basis does not span the full space")


def _form_all(M: np.ndarray, cf: FieldSpec, u: np.ndarray,
              vs: np.ndarray) -> np.ndarray:
    """Row of form values <u|v_i> for the rows v_i of vs."""
    w = linalg.matmul(u.reshape(1, -1), M, cf)
    return linalg.matmul(w, vs.T, cf)[0]


def hyperbolic_decompose(code: AdditiveCode) -> HyperbolicDecomposition:
    """Symplectic Gram-Schmidt split of a code into radical + pairs.

    Deterministic for canonical input: generators are consumed in canonical
    row order, and the first generator pairing non-trivially with the
    current pivot is selected as its partner.
    """
    cf = code.coeff_field
    M = _symplectic_gram(code.n, code.field, code.t)
    gens = [row.copy() for row in code.mat]
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    iso: List[np.ndarray] = []
    while gens:
        v = gens.pop(0)
        partner_idx = None
        for i, g in enumerate(gens):
            if _form_all(M, cf, v, g.reshape(1, -1))[0] != 0:
                partner_idx = i
                break
        if partner_idx is None:
            iso.append(v)
            continue
        w = gens.pop(partner_idx)
        c = _form_all(M, cf, v, w.reshape(1, -1))[0]
        w = cf.mul_arr(w, cf.inv(int(c)))  # now <v|w> = 1
        for i, g in enumerate(gens):
            a = int(_form_all(M, cf, w, g.reshape(1, -1))[0])   # <w|g>
            b = int(_form_all(M, cf, v, g.reshape(1, -1))[0])   # <v|g>
            # g <- g + <w|g> v - <v|g> w  kills both pairings
            g = cf.add_arr(g, cf.mul_arr(v, a))
            g = cf.add_arr(g, cf.mul_arr(w, cf.neg(b)))
            gens[i] = g
        pairs.append((v, w))
    dec = HyperbolicDecomposition(code.n, code.field, code.t, iso, pairs)
    # isotropic candidates are revisited against the final vector set
    dec.validate()
    if dec.span() != code:
        raise AssertionError("decomposition does not span the input code")
    return dec


def extend_to_full_symplectic_basis(dec: HyperbolicDecomposition) -> SymplecticBasis:
    """Complete a valid decomposition to a symplectic basis of the space.

    Every isotropic vector z_i receives a partner x_i; the remaining space
    is filled with fresh hyperbolic pairs.  Deterministic: linear solves
    fix free variables to zero and fresh pivots are taken in canonical
    (lexicographic reduced-basis) order.
    """
    dec.validate()
    cf = dec.coeff_field()
    M = dec.gram()
    dim = 2 * dec.n * dec.field.m // dec.coeff_degree

    taken: List[np.ndarray] = dec.all_vectors()
    partner_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    for i, z in enumerate(dec.isotropic):
        # constraints: <x|z> = 1, zero pairing with every other basis vector
        others = [v for v in taken if v is not z]
        rows = [_row_constraint(M, z, cf)]
        rhs = [1]
        for v in others:
            rows.append(_row_constraint(M, v, cf))
            rhs.append(0)
        for x_prev, _ in partner_pairs:
            rows.append(_row_constraint(M, x_prev, cf))
            rhs.append(0)
        sol = linalg.solve(np.stack(rows), np.array(rhs, dtype=np.int64), cf)
        if sol is None:
            raise AssertionError("no symplectic partner exists; invalid input")
        partner_pairs.append((sol, z))
        taken.append(sol)

    pairs = partner_pairs + list(dec.pairs)
    fresh_from = len(pairs)

    while 2 * len(pairs) < dim:
        V = np.stack([v for p in pairs for v in p]) if pairs else \
            np.zeros((0, dim), dtype=np.int64)
        constraints = linalg.matmul(V, M, cf) if V.shape[0] else V
        comp = linalg.nullspace(constraints, cf) if V.shape[0] else \
            np.eye(dim, dtype=np.int64)
        comp, _ = linalg.rref(comp, cf)
        v = comp[0]
        w = None
        for cand in comp[1:]:
            c = int(_form_all(M, cf, v, cand.reshape(1, -1))[0])
            if c != 0:
                w = cf.mul_arr(cand, cf.inv(c))
                break
        if w is None:
            raise AssertionError("restricted form is degenerate; invalid input")
        pairs.append((v, w))

    basis = SymplecticBasis(dec.n, dec.field, dec.coeff_degree, pairs,
                            fresh_from)
    basis.validate()
    return basis


def _row_constraint(M: np.ndarray, v: np.ndarray, cf: FieldSpec) -> np.ndarray:
    """Coefficient row a with a . x = <x|v> for unknown x."""
    # <x|v> = x M v^T, so the row is (M v^T)^T
    return linalg.matmul(M, v.reshape(-1, 1), cf)[:, 0]
