"""Node sets, poisedness, and synthesis of the system vanishing on them.

A node set of size #I is poised (unisolvent) for the lower set I when its
Vandermonde matrix is invertible; interpolating every border monomial on a
poised node set produces the unique border system whose solution set is
exactly those nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SchemaError, UnisolvenceError
from .indexsets import LowerSet, _as_int, border
from .system import BorderSystem, _complex_rows, _load_json, monomial_eval


@dataclass
class PoisednessReport:
    smallest_singular_value: float
    largest_singular_value: float
    condition: float
    poised: bool
    tolerance_used: float

    def to_json(self):
        return {
            "smallest_singular_value": self.smallest_singular_value,
            "largest_singular_value": self.largest_singular_value,
            "condition": self.condition if math.isfinite(self.condition) else None,
            "poised": self.poised,
            "tolerance_used": self.tolerance_used,
        }


def _sigma_test(V: np.ndarray, tol: float) -> PoisednessReport:
    """Singular-value test of the Vandermonde matrix V.

    Poised iff sigma_min > tol * sigma_max; the relative cut separates true
    rank deficiency from mere ill-conditioning.  sigma_min = 0 is never
    poised, whatever the tolerance.
    """
    s = np.linalg.svd(V, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    poised = smin > max(tol * smax, 0.0)
    cond = smax / smin if poised else np.inf
    return PoisednessReport(smin, smax, float(cond), poised, tol)


def system_from_nodes(I: LowerSet, nodes, tol: float = 1e-10) -> BorderSystem:
    """The border system whose relations all vanish on the given poised nodes.

    nodes is a (#I, n) array, or #I points of length n, all finite.  One
    monomial_eval of the stack (BorderSet.stack) at the nodes gives the
    Vandermonde matrix V, its first #I columns, and every border monomial's
    values, which are interpolated over I with one LU factorization of V.
    Raises UnisolvenceError, carrying the poisedness report of V, when the
    nodes are not poised or the interpolation is not finite (a V singular
    to working precision that the cut let through); a system built carries
    that report too.
    """
    Z = np.asarray(nodes, dtype=complex)
    if Z.shape != (len(I), I.dimension):
        raise ValueError(f"nodes of shape {Z.shape}, expected ({len(I)}, {I.dimension})")
    if not np.all(np.isfinite(Z)):
        raise ValueError("non-finite node coordinate")
    J = border(I)
    values = monomial_eval(J.stack, Z)
    V = values[:, :len(I)]
    report = _sigma_test(V, tol)
    if not report.poised:
        raise UnisolvenceError("node set is not poised for this lower set", report)
    with warnings.catch_warnings():  # an exact zero pivot is reported below, not on stderr
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        coeffs = scipy.linalg.lu_solve(scipy.linalg.lu_factor(V), values[:, len(I):]).T
    if not np.all(np.isfinite(coeffs)):
        report.poised, report.condition = False, np.inf
        raise UnisolvenceError("node set is singular to working precision for this lower set", report)
    return BorderSystem(I, J, coeffs, poisedness=report)


def _point_rows(points, n, row_path) -> np.ndarray:
    """The (p, n) complex array of a list of points, point s at
    row_path.format(s): each an array of n numbers or [re, im] pairs."""
    for s, pt in enumerate(points):
        if not isinstance(pt, list) or len(pt) != n:
            raise SchemaError(f"expected {n} coordinates", row_path.format(s))
    return _complex_rows(points, row_path, n)


def nodes_from_json(obj, n_expected=None) -> np.ndarray:
    """Parse {"n": ..., "points": [[...], ...]} into a (p, n) complex array;
    bare reals accepted."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise SchemaError("expected an object with a 'points' array")
    n = _as_int(obj.get("n", n_expected), "n", 1)
    if n_expected is not None and n != n_expected:
        raise SchemaError(f"points have dimension {n}, index set has {n_expected}", "n")
    points = obj["points"]
    if not isinstance(points, list):
        raise SchemaError("must be an array", "points")
    return _point_rows(points, n, "points[{}]")


def parse_nodes(text, n_expected=None):
    return nodes_from_json(_load_json(text), n_expected)
