"""Multiplication matrices for the coordinate functions, and commutation checks.

A_i represents multiplication by x_i on span{x^beta : beta in I}, with any
product landing outside I rewritten through the border relations.  Row
beta of A_i is the normal form of x_i x^beta: a unit row when beta + e_i
stays in I, else the coefficient row of the relation for beta + e_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexsets import add_unit
from .system import BorderSystem


@dataclass
class MultMatrixFamily:
    """The n dense #I x #I matrices, plus per-matrix row bookkeeping."""

    matrices: list[np.ndarray] = field(repr=False)
    unit_row_count: list[int]
    coeff_row_count: list[int]

    def __len__(self):
        return len(self.matrices)

    @property
    def size(self):
        return self.matrices[0].shape[0]


@dataclass
class CommutationReport:
    defects: np.ndarray
    max_defect: float
    tolerance_used: float
    commuting: bool

    def to_json(self):
        return {
            "defects": self.defects.tolist(),
            "max_defect": self.max_defect,
            "tolerance_used": self.tolerance_used,
            "commuting": self.commuting,
        }


def build_family(sys: BorderSystem, dtype=None) -> MultMatrixFamily:
    """All n multiplication matrices, from one shift table over the normal forms.

    The normal forms of the monomials of I are unit rows and those of J the
    coefficient rows.  shifts[i, r] indexes beta_r + e_i in I followed by J:
    below #I it is a unit entry of A_i, scattered into zeroed memory; from
    #I on it names the coefficient row gathered into A_i.  A J that is not
    the border of I raises KeyError.  By default the family is float64 when
    every coefficient is real (no imaginary part is nonzero), else complex;
    dtype=complex keeps the coefficients as they are, signed zeros too.
    """
    I, J = sys.I, sys.J
    size = len(I)
    if dtype is None:
        dtype = complex if np.any(sys.coeffs.imag) else float
    coeffs = sys.coeffs if np.dtype(dtype).kind == "c" else sys.coeffs.real
    row = {**I.position, **{alpha: size + r for alpha, r in J.position.items()}}
    shifts = np.array([[row[add_unit(beta, i)] for beta in I] for i in range(sys.dimension)])
    unit = shifts < size
    family = np.zeros((sys.dimension, size, size), dtype=coeffs.dtype)
    family[(*np.nonzero(unit), shifts[unit])] = 1.0
    family[~unit] = coeffs[shifts[~unit] - size]
    units = np.count_nonzero(unit, axis=1).tolist()
    return MultMatrixFamily(list(family), units, [size - u for u in units])


def commutation_report(fam: MultMatrixFamily, tol: float) -> CommutationReport:
    """Pairwise commutator defects, Frobenius-normalized with floor 1."""
    n = len(fam)
    defects = np.zeros((n, n))
    norms = [np.linalg.norm(A) for A in fam.matrices]
    for i in range(n):
        for j in range(i + 1, n):
            Ai, Aj = fam.matrices[i], fam.matrices[j]
            num = np.linalg.norm(Ai @ Aj - Aj @ Ai)
            defects[i, j] = defects[j, i] = num / max(1.0, norms[i] * norms[j])
    max_defect = float(defects.max()) if n else 0.0
    return CommutationReport(defects, max_defect, tol, max_defect <= tol)
