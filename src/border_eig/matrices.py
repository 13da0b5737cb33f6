"""Multiplication matrices for the coordinate functions, and the commutation check.

A_i represents multiplication by x_i on span{x^beta : beta in I}, with any
product landing outside I rewritten through the border relations.  Row
beta of A_i is the normal form of x_i x^beta: a unit row when beta + e_i
stays in I, else the coefficient row of the relation for beta + e_i.  So
every A_i is a gather from the #I + #J normal forms [Id; coeffs] of the
monomials of I and J, and the family is kept as those normal forms plus
one shift table; no A_i is stored.  Products follow the same way: row r
of A_i X is row shifts[i, r] of normal_forms @ X = [X; coeffs @ X], so
only A_i's coefficient rows are multiplied.  The family commutes (Mourrain
1999; Kehrein & Kreuzer 2005) iff [A_i, M(c)] = 0 for every i and every c,
M(c) = sum c_i A_i; as that is linear in c, n commutators against one
generic M (see spectral.criterion) stand for the n(n-1)/2 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import BorderSystem


@dataclass
class MultMatrixFamily:
    """The n multiplication matrices as normal forms gathered through a shift table.

    normal_forms is the (#I + #J, #I) stack [Id; coeffs]: row s is the
    normal form of the s-th monomial of I followed by J.  A_i is
    normal_forms[shifts[i]]: shifts[i, r] indexes beta_r + e_i in that
    stack, a unit row below #I and a coefficient row from #I on.
    """

    normal_forms: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)  # (n, #I) integer

    def __len__(self):
        return len(self.shifts)

    @property
    def size(self):
        return self.normal_forms.shape[1]

    @property
    def unit_row_count(self) -> list[int]:
        return np.count_nonzero(self.shifts < self.size, axis=1).tolist()

    @property
    def coeff_row_count(self) -> list[int]:
        return [self.size - u for u in self.unit_row_count]


@dataclass
class CommutationReport:
    defects: np.ndarray
    max_defect: float
    tolerance_used: float
    commuting: bool
    norms: np.ndarray = field(repr=False)  # ||A_i||_F, the scale of each A_i

    def to_json(self):
        return {
            "defects": self.defects.tolist(),
            "max_defect": self.max_defect,
            "tolerance_used": self.tolerance_used,
            "commuting": self.commuting,
        }


def build_family(sys: BorderSystem, dtype=None) -> MultMatrixFamily:
    """The normal forms [Id; coeffs] and the shift table of all n multiplication matrices.

    The shift table is the border's `up` table: shifts[i, r] indexes
    beta_r + e_i in I followed by J.  By default the normal forms are
    float64 when every coefficient is real (no imaginary part is nonzero),
    else complex; dtype=complex keeps the coefficients as they are, signed
    zeros too.
    """
    if dtype is None:
        dtype = complex if np.any(sys.coeffs.imag) else float
    coeffs = sys.coeffs if np.dtype(dtype).kind == "c" else sys.coeffs.real
    normal_forms = np.concatenate([np.eye(len(sys.I), dtype=coeffs.dtype), coeffs])
    return MultMatrixFamily(normal_forms, sys.J.up)


def commutation_report(fam: MultMatrixFamily, M: np.ndarray, tol: float) -> CommutationReport:
    """Defects ||A_i M - M A_i||_F / max(1, ||A_i||_F ||M||_F), one per A_i,
    against a generic combination M of the family (module docstring).

    Each commutator multiplies only A_i's coefficient rows, in A_i M and in
    M A_i, so it holds a few #I x #I arrays at a time.
    """
    nf, shifts = fam.normal_forms, fam.shifts
    norms = np.array([np.linalg.norm(nf[index]) for index in shifts])
    scale = np.linalg.norm(M)
    defects = np.empty(len(fam))
    for i, (index, unit) in enumerate(zip(shifts, shifts < fam.size)):
        C = _product(nf, index, unit, M)
        C -= M[:, ~unit] @ nf[index[~unit]]
        C[:, index[unit]] -= M[:, unit]  # distinct columns: M A_i on the unit rows
        defects[i] = np.linalg.norm(C) / max(1.0, norms[i] * scale)
    max_defect = float(defects.max(initial=0.0))
    return CommutationReport(defects, max_defect, tol, max_defect <= tol, norms)


def _product(nf: np.ndarray, left: np.ndarray, unit: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A_i X for A_i = nf[left], where unit = left < #I.

    Row r is row left[r] of [X; coeffs @ X]: a row of X where A_i has a
    unit row, else A_i's coefficient row times X.
    """
    out = np.empty_like(X)
    out[unit] = X[left[unit]]
    out[~unit] = nf[left[~unit]] @ X
    return out
