"""Multiplication matrices for the coordinate functions, and commutation checks.

A_i represents multiplication by x_i on span{x^beta : beta in I}, with any
product landing outside I rewritten through the border relations.  Row
beta of A_i is the normal form of x_i x^beta: a unit row when beta + e_i
stays in I, else the coefficient row of the relation for beta + e_i.  So
every A_i is a gather from the #I + #J normal forms [Id; coeffs] of the
monomials of I and J, and the family is kept as those normal forms plus
one shift table; no A_i is stored.  Products follow the same way: row r
of A_i A_j is row shifts[i, r] of normal_forms @ A_j = [A_j; coeffs @ A_j]
(the commutation condition of Mourrain 1999 and of Kehrein & Kreuzer 2005,
as gathers), so only A_i's coefficient rows are multiplied.
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


def commutation_report(fam: MultMatrixFamily, tol: float) -> CommutationReport:
    """Pairwise commutator defects ||A_i A_j - A_j A_i||_F, normalized by
    ||A_i||_F ||A_j||_F with floor 1.

    Each pair forms its two products as gathers (module docstring) and
    multiplies only the coefficient rows it needs, so it holds a few
    #I x #I arrays at a time; no A_i outlives its pair.
    """
    nf, shifts = fam.normal_forms, fam.shifts
    n = len(fam)
    units = shifts < fam.size
    norms = np.array([np.linalg.norm(nf[index]) for index in shifts])
    defects = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            num = np.linalg.norm(_product(nf, shifts[i], units[i], shifts[j])
                                 - _product(nf, shifts[j], units[j], shifts[i]))
            defects[i, j] = defects[j, i] = num / max(1.0, norms[i] * norms[j])
    max_defect = float(defects.max()) if n else 0.0
    return CommutationReport(defects, max_defect, tol, max_defect <= tol, norms)


def _product(nf: np.ndarray, left: np.ndarray, unit: np.ndarray, right: np.ndarray) -> np.ndarray:
    """A_i A_j for A_i = nf[left] and A_j = nf[right], where unit = left < #I.

    Row r is row left[r] of [A_j; coeffs @ A_j]: a row of A_j where A_i has
    a unit row, else A_i's coefficient row times A_j.
    """
    Aj = nf[right]
    out = np.empty_like(Aj)
    out[unit] = Aj[left[unit]]
    out[~unit] = nf[left[~unit]] @ Aj
    return out
