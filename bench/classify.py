"""Classify each CLI operation against its ground truth as ok, failed or wrong.

* failed: the exit code or verdict differs from the truth, or the call
  raised.  Known weaknesses of the program land here and are counted.
* wrong: the operation claimed success (exit 0) but its output contradicts
  the truth.  Any wrong operation fails the run's correctness check.

Every check here recomputes what it needs with numpy from the planted
nodes and the files involved; nothing is taken from the library.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from inputs import border_members, monomials, total_degree_members

TOL_ROOT = 1e-6  # largest root-to-node distance a successful solve may have
# A point is a root of a system when its relative residual is at most this:
# the CLI's default tol_accept, which verify applies.
TOL_ACCEPT = 1e-6


class Result:
    """Outcome of one operation: status, detail, and the planted-root error if any.

    usable: later ops of the same chain may read this op's output.  True
    for every ok op, and for a failed solve that still printed its roots.
    """

    __slots__ = ("status", "detail", "error", "usable")

    def __init__(self, status, detail="", error=None, usable=None):
        self.status = status
        self.detail = detail
        self.error = error
        self.usable = status == "ok" if usable is None else usable


def _complex(value):
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def matching_error(found: np.ndarray, planted: np.ndarray) -> float:
    """Largest distance under the optimal one-to-one matching of found to planted points."""
    found = np.asarray(found, dtype=complex).reshape(len(found), -1)
    planted = np.asarray(planted, dtype=complex).reshape(len(planted), -1)
    cost = np.linalg.norm(found[:, None, :] - planted[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def system_arrays(obj: dict, n: int, m: int):
    """Basis, border and coefficient block of a system JSON object over the
    total-degree set (n, m); raises ValueError when it does not have that shape."""
    basis = total_degree_members(n, m)
    J = border_members(basis)
    if obj.get("index_set") != {"type": "total_degree", "n": n, "m": m}:
        raise ValueError(f"index set {obj.get('index_set')!r}")
    if "basis" in obj and [tuple(b) for b in obj["basis"]] != basis:
        raise ValueError("basis differs from the canonical total-degree order")
    rows = {tuple(rel["alpha"]): rel["coeffs"] for rel in obj["relations"]}
    if sorted(rows) != sorted(J) or len(rows) != len(obj["relations"]):
        raise ValueError("relations do not cover the border exactly once")
    coeffs = np.array([[_complex(c) for c in rows[alpha]] for alpha in J], dtype=complex)
    if coeffs.shape != (len(J), len(basis)):
        raise ValueError(f"coefficient block of shape {coeffs.shape}")
    return basis, J, coeffs


def node_residuals(basis, J, coeffs, nodes) -> np.ndarray:
    """Per node: max_alpha |z^alpha - sum_beta a[alpha,beta] z^beta| / max(1, max_beta |z^beta|)."""
    V = monomials(nodes, basis)
    R = monomials(nodes, J) - V @ coeffs.T
    return np.max(np.abs(R), axis=1) / np.maximum(1.0, np.max(np.abs(V), axis=1))


def _from_points(out, truth, ctx):
    basis, J, coeffs = system_arrays(out, truth["n"], truth["m"])
    worst = float(np.max(node_residuals(basis, J, coeffs, truth["nodes"])))
    if not worst <= TOL_ACCEPT:
        return Result("wrong", f"planted node residual {worst:.3e} in the emitted system")
    ctx["system"] = out
    return Result("ok", error=worst)


def _solve(out, truth, ctx):
    if out["verdict"]["maximal"] is not True:
        return Result("wrong", "exit 0 without a maximal verdict")
    if any(r["flagged"] for r in out["roots"]):
        return Result("wrong", "exit 0 with flagged roots")
    found, nodes = ctx["roots"], truth["nodes"]
    if len(found) != len(nodes):
        return Result("wrong", f"{len(found)} roots for {len(nodes)} planted nodes")
    err = matching_error(found, nodes)
    if not err <= TOL_ROOT:
        return Result("wrong", f"root matching error {err:.3e}")
    return Result("ok", error=err)


def _read_roots(stdout: str, n: int, ctx):
    """Keep the roots a solve printed, whatever its exit code, for the verify after it."""
    ctx.pop("roots", None)
    try:
        roots = json.loads(stdout)["roots"]
        found = np.array([[_complex(c) for c in r["z"]] for r in roots], dtype=complex)
    except (ValueError, KeyError, TypeError, IndexError):
        return
    if found.ndim == 2 and found.shape[0] >= 1 and found.shape[1] == n:
        ctx["roots"] = found


def _verify_expected(truth, ctx):
    """Exit codes verify may give: 0 when every point is a root to within
    tol_accept by our own evaluation, 1 when one is not.  Points within a
    factor of two of the tolerance may go either way."""
    basis, J, coeffs = system_arrays(ctx["system"], truth["n"], truth["m"])
    points = ctx.get("roots", truth["nodes"])
    worst = float(np.max(node_residuals(basis, J, coeffs, points)))
    if worst <= TOL_ACCEPT / 2:
        return {0}
    if worst > 2 * TOL_ACCEPT:
        return {1}
    return {0, 1}


def _verify(out, truth, ctx):
    claimed = ctx.get("roots", truth["nodes"])
    if out["all_pass"] is not True:
        return Result("wrong", "exit 0 without all_pass")
    rows = out["roots"]
    if len(rows) != len(claimed):
        return Result("wrong", f"{len(rows)} rows for {len(claimed)} points")
    got = np.array([[_complex(c) for c in r["z"]] for r in rows])
    if not np.array_equal(got, np.asarray(claimed, dtype=complex).reshape(got.shape)):
        return Result("wrong", "verified points differ from the input points")
    if not all(r["residual"] <= out["tol_accept"] for r in rows):
        return Result("wrong", "all_pass with a residual above tol_accept")
    return Result("ok")


def _check(out, truth, ctx):
    if out["verdict"]["maximal"] is not True:
        return Result("wrong", "exit 0 without a maximal verdict")
    nodes = truth["nodes"]
    err = 0.0
    for i, rep in enumerate(out["semisimplicity"]):
        values = [
            _complex(c["eigenvalue"]) for c in rep["clusters"] for _ in range(c["algebraic"])
        ]
        if len(values) != len(nodes):
            return Result("ok", f"{len(values)} eigenvalues for {len(nodes)} nodes")
        err = max(err, matching_error(np.array(values), nodes[:, i]))
    return Result("ok", error=err)


def _matrices(out, truth, ctx):
    basis, J, coeffs = system_arrays(ctx["system"], truth["n"], truth["m"])
    if [tuple(b) for b in out["basis"]] != basis:
        return Result("wrong", "basis differs from the system's")
    row_of = {alpha: r for r, alpha in enumerate(J)}
    pos = {beta: k for k, beta in enumerate(basis)}
    n = truth["n"]
    if len(out["A"]) != n:
        return Result("wrong", f"{len(out['A'])} matrices for n = {n}")
    for i, A in enumerate(out["A"]):
        A = np.array([[_complex(c) for c in row] for row in A])
        expected = np.zeros((len(basis), len(basis)), dtype=complex)
        for r, beta in enumerate(basis):
            shifted = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            if shifted in pos:
                expected[r, pos[shifted]] = 1.0
            else:
                expected[r] = coeffs[row_of[shifted]]
        if not np.array_equal(A, expected):
            return Result("wrong", f"A_{i + 1} is not the multiplication matrix of the system")
    return Result("ok")


CHECKS = {
    "from-points": _from_points,
    "solve": _solve,
    "verify": _verify,
    "check": _check,
    "matrices": _matrices,
}


def expected_exits(op, ctx) -> set[int]:
    if op.command == "check":
        return {0} if op.truth["maximal"] else {1}
    if op.command == "verify":
        return _verify_expected(op.truth, ctx)
    return {0}


def classify(op, outcome, stdout: str, ctx: dict) -> Result:
    """Classify one operation.

    outcome is the exit code, or the exception the call raised.  ctx carries
    what earlier operations of the same chain established: "system" (the
    emitted system object) and "roots" (the roots a solve printed).
    """
    if isinstance(outcome, BaseException):
        return Result("failed", f"raised {type(outcome).__name__}: {outcome}")
    if op.command == "solve":
        _read_roots(stdout, op.truth["n"], ctx)
    expected = expected_exits(op, ctx)
    if outcome not in expected:
        if outcome == 0:
            return Result("wrong", f"exit 0, but the truth calls for exit {min(expected)}")
        usable = op.command == "solve" and "roots" in ctx
        return Result("failed", f"exit {outcome}", usable=usable)
    if outcome != 0:
        return Result("ok")
    try:
        out = json.loads(stdout)
        return CHECKS[op.command](out, op.truth, ctx)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Result("wrong", f"exit 0 with unusable output: {type(exc).__name__}: {exc}")


def digits(error: float) -> float:
    """Correct decimal digits of an absolute error, capped at 17."""
    return -math.log10(max(error, 1e-17))
