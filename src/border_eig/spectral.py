"""Eigendecomposition, the maximality criterion, root recovery.

The solver reduces a border system to one eigenproblem.  For a commuting
family, every multiplication matrix is semisimple with #I joint
eigenvalues -- the system has the maximal #I distinct solutions -- exactly
when a generic combination M = sum c_i A_i has a simple spectrum; the
eigenvectors of M are then the evaluation vectors of the roots.
`criterion` eigendecomposes one seeded M, decides from it, and keeps the
eigenbasis and the root coordinates it read off; `solve` reuses both and
only reads the verdict, so root extraction never feeds back into it.

One rule separates two values x_j, x_k with first-order error bounds
b_j, b_k (Moeller & Stetter 1995): they are told apart when

    |x_j - x_k| > b_j + b_k,

read off the gap-ratio matrix of `_gap_ratios` as R[j, k] > 1.  It has
three uses: `separation` is the smallest ratio among M's eigenvalues
(simple spectrum iff > 1); the per-coordinate reports link coordinates
the rule cannot tell apart and that also lie within the TOL_CLUSTER
radius; and `_dedup` links roots at a looser cut when their eigenvalues
are unseparated.

One rule groups values (Corless, Gianni & Trager 1997): the connected
components (`_components`) of a "near" graph, each component one cluster.
A chain of values, each near the next, is one cluster even where its ends
are far apart.  The per-coordinate clusters and `_dedup` both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenConvergenceError
from .matrices import CommutationReport, MultMatrixFamily, build_family, commutation_report
from .system import BorderSystem, Records, _residual, relation_jacobian, relation_values, residual

EPS = np.finfo(float).eps
# per-coordinate reports: coordinates within TOL_CLUSTER * (1 + ||A_i||_F)
# that the separation rule (module docstring) cannot tell apart link into
# one cluster
TOL_CLUSTER = 1e-7
# roots within TOL_DEDUP * (1 + max |z|) of each other count as one (see _dedup)
TOL_DEDUP = 1e-6
# solve reports a root as real when no coordinate's imaginary part exceeds TOL_REAL
TOL_REAL = 1e-10
# eigen fails when an eigenpair residual exceeds TOL_EIG * (1 + ||A||_F)
TOL_EIG = 1e-8


@dataclass
class Config:
    """The values a caller decides: one verdict, acceptance or seed each.

    Every field is also a CLI flag and a BORDER_EIG_* variable (see cli).
    """

    # commuting iff every normalized commutator defect (see matrices) is at most this
    tol_commute: float = 1e-8
    # a root whose residual exceeds tol_accept is flagged and not counted
    tol_accept: float = 1e-6
    # nodes are poised iff sigma_min(V) > tol_poised * sigma_max(V)
    tol_poised: float = 1e-10
    # seeds the coefficients of the generic combination M
    seed: int = 42


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # unit-norm columns
    residuals: np.ndarray


@dataclass
class SemisimplicityReport:
    """One coordinate's clustered eigenvalues; the algebraic counts sum to #I."""

    clusters: list[tuple[complex, int]]  # (mean, algebraic)
    worst_gap: float  # smallest distance between two cluster means

    def to_json(self):
        return {
            "clusters": Records({
                "eigenvalue": np.array([lam for lam, _ in self.clusters], dtype=complex),
                "algebraic": np.array([alg for _, alg in self.clusters], dtype=int),
            }),
            "worst_gap": self.worst_gap if math.isfinite(self.worst_gap) else None,
        }


@dataclass
class Verdict:
    commuting: bool
    # M has a simple spectrum; for a commuting family that is exactly
    # "every A_i semisimple with #I joint eigenvalues"
    all_semisimple: bool
    maximal: bool
    commutation: CommutationReport
    semisimplicity: list[SemisimplicityReport]
    separation: float | None  # see criterion; None for a single eigenvalue
    # the spectral pass that solve reuses: M's eigendecomposition, the root
    # coordinates Z[k, i], and each eigenvalue's first-order error bound
    decomposition: EigenDecomposition | None = field(default=None, repr=False)
    coordinates: np.ndarray | None = field(default=None, repr=False)
    error_bounds: np.ndarray | None = field(default=None, repr=False)
    # largest column norm of A_i V - V diag(Z[:, i]) over all i, taken
    # from the products A_i V that gave Z
    extraction_residual: float | None = field(default=None, repr=False)

    def to_json(self):
        return {
            "commuting": self.commuting,
            "all_semisimple": self.all_semisimple,
            "maximal": self.maximal,
        }


@dataclass
class SolutionSet:
    roots: list[np.ndarray]
    residuals: list[float]
    flagged: list[bool]  # residual above tol_accept after refinement
    distinct_count: int
    verdict: Verdict
    strategy: str
    diagnostics: dict

    def to_json(self):
        Z = np.array(self.roots)  # solve finds at least one root
        return {
            "verdict": self.verdict.to_json(),
            "strategy": self.strategy,
            "roots": Records({
                "z": Z,
                "residual": np.array(self.residuals, dtype=float),
                "real": np.max(np.abs(Z.imag), axis=1) <= TOL_REAL,
                "flagged": np.array(self.flagged, dtype=bool),
            }),
            "distinct_count": self.distinct_count,
            "diagnostics": self.diagnostics,
        }


def eigen(A: np.ndarray) -> EigenDecomposition:
    """Dense nonsymmetric eigendecomposition with unit-norm eigenvectors.

    A real A stays real for the eigensolver and the residual check, so its
    real eigenvalues and eigenvectors have imaginary part exactly 0 and its
    non-real ones come in exact conjugate pairs; the eigenvalues and
    eigenvectors are returned complex either way.  Raises
    EigenConvergenceError when A has a non-finite entry, when the QR
    iteration fails, or when an eigenpair residual exceeds TOL_EIG * (1 + ||A||_F).
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if not np.all(np.isfinite(A)):
        raise EigenConvergenceError("non-finite matrix entry")
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver did not converge: {exc}") from exc
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    res = np.linalg.norm(A @ V - V * w, axis=0)
    scale = TOL_EIG * (1.0 + np.linalg.norm(A))
    if np.any(res > scale):
        raise EigenConvergenceError(f"eigenpair residual {res.max():.3e} exceeds {scale:.3e}")
    return EigenDecomposition(w.astype(complex), V.astype(complex), res)


def _gap_ratios(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """R[j, k] = |x_j - x_k| / (bound_j + bound_k); x_j and x_k are separated
    iff R[j, k] > 1.  An undefined ratio (0/0) counts as 0; the diagonal is inf."""
    with np.errstate(all="ignore"):
        R = np.abs(np.subtract.outer(x, x)) / np.add.outer(bound, bound)
    R[np.isnan(R)] = 0.0
    np.fill_diagonal(R, np.inf)
    return R


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix, ordered
    by their smallest member, members ascending.

    Every node starts labelled with itself; each round it takes the smallest
    label among its neighbours, then its label's label (pointer jumping),
    until nothing changes.  Labels only decrease and stay inside the
    component, so each component ends labelled with its smallest member.
    """
    src, dst = np.nonzero(adj)
    label = np.arange(len(adj))
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, src, label[dst])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _eigenbasis_inverse(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V^-1 for the eigenvectors V of a real matrix, exact in their structure.

    eig gives a conjugate pair as adjacent columns a + ib, a - ib, the one
    with Im w > 0 first, and a real eigenvalue a real column.  So V = W T,
    with W the real matrix holding a, b in the pair's columns and T the
    block diag([[1, 1], [i, -i]]); with X = W^-1, the rows of V^-1 = T^-1 X
    are (X_a - i X_b) / 2, (X_a + i X_b) / 2 for a pair and X's rows for
    real eigenvalues: exact conjugates, and exactly real.
    """
    pair = np.flatnonzero(w.imag > 0)
    W = V.real.copy()
    W[:, pair + 1] = V[:, pair].imag
    X = np.linalg.inv(W)
    Y = X.astype(complex)
    Y[pair] = (X[pair] - 1j * X[pair + 1]) / 2
    Y[pair + 1] = (X[pair] + 1j * X[pair + 1]) / 2
    return Y


def criterion(fam: MultMatrixFamily, cfg: Config = Config()) -> Verdict:
    """The maximality predicate: commuting family whose generic combination is simple.

    M = sum c_i A_i with c drawn from N(0, Id) under cfg.seed and scaled to
    unit length.  With V the unit-column eigenvectors of M and Y = V^-1,
    kappa_k = ||Y[k]|| is the condition number of eigenvalue lambda_k and
    bound_k = eps * ||M||_F * kappa_k its first-order error bound (eps the
    machine epsilon).  The spectrum is simple when every pair is farther
    apart than its two error bounds:

        |lambda_j - lambda_k| > bound_j + bound_k    for all j != k.

    A singular V, or a non-finite Y, leaves the spectrum not simple.  The
    seeded c is taken as generic: then the family commutes iff every A_i
    commutes with M (see matrices), and for a commuting family a simple
    spectrum is exactly "every A_i semisimple with #I joint eigenvalues",
    each A_i being a polynomial in M.  On a simple spectrum the coordinates
    of root k are the two-sided Rayleigh quotients Z[k, i] = (Y A_i V)[k, k];
    otherwise Y is not trusted and the one-sided quotients v_k^H A_i v_k
    stand in.  A real family gives a real M and a Y exact in its conjugate
    structure (`_eigenbasis_inverse`), so a real eigenvalue's coordinates
    have imaginary part exactly 0 and a conjugate pair's are exact
    conjugates.  An M that overflows raises EigenConvergenceError.
    """
    c = np.random.default_rng(cfg.seed).normal(size=len(fam))
    c /= np.linalg.norm(c)
    nf = fam.normal_forms
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves M non-finite
        M = np.zeros((fam.size, fam.size), dtype=nf.dtype)
        for ci, index in zip(c, fam.shifts):
            M += ci * nf[index]
        comm = commutation_report(fam, M, cfg.tol_commute)
    dec = eigen(M)
    V = dec.eigenvectors
    with np.errstate(all="ignore"):
        try:
            Y = _eigenbasis_inverse(V, dec.eigenvalues) if np.isrealobj(M) else np.linalg.inv(V)
        except np.linalg.LinAlgError:
            Y = np.full_like(V, np.nan)
        kappa = np.nan_to_num(np.linalg.norm(Y, axis=1), nan=np.inf)
        bound = EPS * np.linalg.norm(M) * kappa
    separation = float(_gap_ratios(dec.eigenvalues, bound).min()) if len(bound) > 1 else None
    simple = separation is None or separation > 1.0
    left = Y.T if simple else V.conj()
    # A_i V = (normal_forms @ V)[shifts[i]], with normal_forms @ V = [V; coeffs @ V]
    products = np.concatenate([V, nf[fam.size:] @ V])
    columns, extraction, reports = [], [], []
    for index, norm in zip(fam.shifts, comm.norms):
        AV = products[index]
        z = np.sum(left * AV, axis=0)
        columns.append(z)
        extraction.append(float(np.max(np.linalg.norm(AV - V * z, axis=0))))
        # A_i shares M's eigenvectors, hence kappa
        link = (_gap_ratios(z, EPS * norm * kappa) <= 1.0) & (
            np.abs(np.subtract.outer(z, z)) <= TOL_CLUSTER * (1.0 + norm))
        groups = _components(link)
        means = np.array([z[g[0]] if len(g) == 1 else np.mean(z[g]) for g in groups])
        gaps = np.abs(np.subtract.outer(means, means))[np.triu_indices(len(means), 1)]
        clusters = [(complex(lam), len(g)) for lam, g in zip(means, groups)]
        reports.append(SemisimplicityReport(clusters, gaps.min(initial=math.inf)))
    Z = np.array(columns).T
    return Verdict(comm.commuting, simple, comm.commuting and simple, comm, reports, separation,
                   dec, Z, bound, max(extraction))


def _gauss_newton(sys: BorderSystem, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Newton step for every root (the rows of Z) together: the
    stepped roots and their residuals.

    The monomial stack is evaluated once at Z and once at the candidates.
    Each root solves one least-squares problem against its relation
    Jacobian, gathered from its stack values; one Jacobian is held at a
    time.  A root keeps its step only when the step is finite and does not
    raise its residual; a root whose residual is exactly 0 takes no step.
    """
    values, rel = relation_values(sys, Z)
    res = _residual(sys, values, rel)
    live = np.flatnonzero(res > 0.0)
    at = Z[live]
    steps = [np.linalg.lstsq(relation_jacobian(sys, values[k]), -rel[k], rcond=None)[0]
             for k in live]
    cand = at + np.reshape(steps, at.shape)
    finite = np.all(np.isfinite(cand), axis=1)
    cand_res = np.full(live.size, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        cand_res[finite] = residual(sys, cand[finite])
    take = cand_res <= res[live]
    Z = Z.copy()
    Z[live[take]] = cand[take]
    res[live[take]] = cand_res[take]
    return Z, res


def _dedup(Z: np.ndarray, w: np.ndarray, bound: np.ndarray) -> list[int]:
    """Indices of distinct roots among the rows of Z, ascending: the first
    row of each cluster (module docstring) of the rows' near graph.

    Rows j and k are near within TOL_DEDUP * (1 + max |Z|), or within
    sqrt(TOL_DEDUP) * (1 + max |Z|) when their eigenvalues w_j, w_k of M
    are not separated: copies of a root of multiplicity mu split by about
    eps^(1/mu), and Gauss-Newton closes that gap only linearly.  A chain of
    rows, each near the next, is one root even where its ends are not near.
    """
    scale = 1.0 + float(np.max(np.abs(Z)))
    cut = np.where(_gap_ratios(w, bound) > 1.0, TOL_DEDUP, math.sqrt(TOL_DEDUP)) * scale
    dist = np.sqrt(sum(np.abs(np.subtract.outer(z, z)) ** 2 for z in Z.T))
    return [int(g[0]) for g in _components(dist <= cut)]


def solve(sys: BorderSystem, cfg: Config = Config()) -> SolutionSet:
    """Recover the solutions of a border system from the criterion's eigenbasis.

    The candidate roots are the coordinates `criterion` read off the
    eigenvectors of its generic combination M; then one Gauss-Newton step
    (`_gauss_newton`) and deduplication.  The strategy is "generic", or
    "generic-degenerate" when M's spectrum is not simple.
    """
    verdict = criterion(build_family(sys), cfg)
    degenerate = not verdict.all_semisimple
    Z, res = _gauss_newton(sys, verdict.coordinates)
    keep = _dedup(Z, verdict.decomposition.eigenvalues, verdict.error_bounds)
    roots, res = list(Z[keep]), res[keep]
    flagged = (res > cfg.tol_accept).tolist()
    # flagged candidates stay in the report but do not count as solutions
    distinct = sum(1 for f in flagged if not f)

    diagnostics = {
        "commutation": verdict.commutation.to_json(),
        "semisimplicity": [rep.to_json() for rep in verdict.semisimplicity],
        "separation": verdict.separation,
        "extraction_residual_max": verdict.extraction_residual,
        "degenerate_spectrum": degenerate,
        "warnings": [],
    }
    if verdict.maximal != (distinct == len(sys.I)):
        said = "maximal" if verdict.maximal else "not maximal"
        diagnostics["warnings"].append(
            f"criterion says {said} but {distinct} distinct roots found "
            f"for #I = {len(sys.I)}; tolerances may be inconsistent"
        )
    strategy = "generic-degenerate" if degenerate else "generic"
    return SolutionSet(roots, res.tolist(), flagged, distinct, verdict, strategy, diagnostics)
