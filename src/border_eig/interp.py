"""Node sets, poisedness, and synthesis of the system vanishing on them.

A node set of size #I is poised (unisolvent) for the lower set I when its
Vandermonde matrix is invertible; interpolating every border monomial on a
poised node set produces the unique border system whose solution set is
exactly those nodes.
"""

from __future__ import annotations

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
        import math

        return {
            "smallest_singular_value": self.smallest_singular_value,
            "largest_singular_value": self.largest_singular_value,
            "condition": self.condition if math.isfinite(self.condition) else None,
            "poised": self.poised,
            "tolerance_used": self.tolerance_used,
        }


def _check_nodes(I: LowerSet, nodes) -> np.ndarray:
    """Validate the node list and stack it as a (#I, n) complex array."""
    nodes = [np.asarray(z, dtype=complex) for z in nodes]
    if len(nodes) != len(I):
        raise ValueError(f"{len(nodes)} nodes for a basis of size {len(I)}")
    for z in nodes:
        if z.shape != (I.dimension,):
            raise ValueError(f"node of shape {z.shape}, expected ({I.dimension},)")
        if not np.all(np.isfinite(z)):
            raise ValueError("non-finite node coordinate")
    return np.array(nodes).reshape(len(I), I.dimension)


def vandermonde(I: LowerSet, nodes) -> np.ndarray:
    """Node-by-monomial evaluation matrix, columns in canonical order of I."""
    return monomial_eval(I.exponents, _check_nodes(I, nodes))


def _sigma_test(V: np.ndarray, tol: float) -> PoisednessReport:
    s = np.linalg.svd(V, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    poised = smin > tol * smax
    cond = smax / smin if poised and smin > 0 else np.inf
    return PoisednessReport(smin, smax, float(cond), poised, tol)


def poisedness(I: LowerSet, nodes, tol: float = 1e-10) -> PoisednessReport:
    """Singular-value test of the Vandermonde matrix.

    Poised iff sigma_min > tol * sigma_max; the relative cut separates true
    rank deficiency from mere ill-conditioning.
    """
    return _sigma_test(vandermonde(I, nodes), tol)


def _factor_poised(I: LowerSet, nodes, tol: float):
    """LU factors of the Vandermonde matrix and the poisedness report of that same matrix."""
    V = vandermonde(I, nodes)
    report = _sigma_test(V, tol)
    if not report.poised:
        raise UnisolvenceError("node set is not poised for this lower set", report)
    return scipy.linalg.lu_factor(V), report


def interpolate(I: LowerSet, nodes, values, tol: float = 1e-10) -> np.ndarray:
    """Coefficients c over I with sum_beta c_beta node_s^beta = values[s].

    Raises UnisolvenceError (carrying the poisedness report) when the node
    set is not poised.
    """
    lu, _ = _factor_poised(I, nodes, tol)
    return scipy.linalg.lu_solve(lu, np.asarray(values, dtype=complex))


def system_from_nodes(I: LowerSet, nodes, tol: float = 1e-10) -> BorderSystem:
    """The border system whose relations all vanish on the given poised nodes.

    Each border monomial is interpolated over I at the nodes; one LU
    factorization of the Vandermonde matrix serves all right-hand sides.
    The returned system carries the poisedness report of that matrix.
    """
    nodes = _check_nodes(I, nodes)
    lu, report = _factor_poised(I, nodes, tol)
    J = border(I)
    coeffs = scipy.linalg.lu_solve(lu, monomial_eval(J.exponents, nodes)).T  # rows per border index
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
