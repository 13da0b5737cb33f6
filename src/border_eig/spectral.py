"""Eigendecomposition, semisimplicity, the maximality criterion, root recovery.

The solver reduces a border system to eigenproblems of its multiplication
matrices.  When the family commutes and every matrix is semisimple, the
joint eigenvectors are exactly the evaluation vectors of the roots and the
system attains the maximal count of #I distinct solutions; the criterion
checker decides that predicate independently of root extraction.  `solve`
reuses the eigendecompositions the criterion computed, one per matrix, and
only reads the verdict, so root extraction never feeds back into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EigenConvergenceError
from .matrices import CommutationReport, MultMatrixFamily, build_family, commutation_report
from .system import BorderSystem, relation_jacobian, relation_values, residual


@dataclass
class Config:
    """Tolerances and knobs for the criterion and the solver."""

    tol_commute: float = 1e-8
    tol_cluster: float = 1e-7
    tol_rank: float = 1e-10
    tol_dedup: float = 1e-6
    tol_accept: float = 1e-6
    tol_poised: float = 1e-10
    tol_eig: float = 1e-8
    seed: int = 42
    # Gauss-Newton polish takes at most refine_iters steps per root (0 turns
    # it off).  A root stops at its first step that would raise its residual
    # or leave a non-finite coordinate (that step is discarded), and once its
    # residual is exactly 0.
    refine_iters: int = 3
    max_retries: int = 5
    size_cap: int = 10_000
    force_generic: bool = False  # test hook: skip the single-matrix shortcut

    def with_overrides(self, **kwargs):
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)  # unit-norm columns
    residuals: np.ndarray
    vector_condition: float


@dataclass
class SemisimplicityReport:
    clusters: list[tuple[complex, int, int]]  # (representative, algebraic, geometric)
    semisimple: bool
    worst_gap: float

    def to_json(self):
        return {
            "clusters": [
                {
                    "eigenvalue": [lam.real, lam.imag],
                    "algebraic": alg,
                    "geometric": geo,
                }
                for lam, alg, geo in self.clusters
            ],
            "semisimple": self.semisimple,
            "worst_gap": self.worst_gap if math.isfinite(self.worst_gap) else None,
        }


@dataclass
class Verdict:
    commuting: bool
    all_semisimple: bool
    maximal: bool
    commutation: CommutationReport
    semisimplicity: list[SemisimplicityReport]
    # one per matrix of the family, in order; solve reuses them
    decompositions: list[EigenDecomposition] = field(default_factory=list, repr=False)

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

    def to_json(self, tol_real=1e-10):
        return {
            "verdict": self.verdict.to_json(),
            "strategy": self.strategy,
            "roots": [
                {
                    "z": [[c.real, c.imag] for c in z],
                    "residual": r,
                    "real": bool(np.max(np.abs(z.imag)) <= tol_real),
                    "flagged": flag,
                }
                for z, r, flag in zip(self.roots, self.residuals, self.flagged)
            ],
            "distinct_count": self.distinct_count,
            "diagnostics": self.diagnostics,
        }


def eigen(A: np.ndarray, tol_eig: float = 1e-8) -> EigenDecomposition:
    """Dense nonsymmetric eigendecomposition with unit-norm eigenvectors.

    Raises EigenConvergenceError when the underlying QR iteration fails.
    """
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite matrix entry")
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver did not converge: {exc}") from exc
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    res = np.linalg.norm(A @ V - V * w, axis=0)
    try:
        cond = float(np.linalg.cond(V))
    except np.linalg.LinAlgError:
        cond = math.inf
    scale = tol_eig * (1.0 + np.linalg.norm(A))
    if np.any(res > scale):
        raise EigenConvergenceError(
            f"eigenpair residual {res.max():.3e} exceeds {scale:.3e}",
            converged_size=int(np.sum(res <= scale)),
        )
    return EigenDecomposition(w, V, res, cond)


def _cluster(values: np.ndarray, delta: float) -> list[list[int]]:
    """Single-linkage clustering of complex values at distance delta."""
    k = len(values)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= delta:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    # deterministic order: by the smallest member index
    return sorted(groups.values(), key=lambda g: g[0])


def semisimplicity(A: np.ndarray, dec: EigenDecomposition, cfg: Config) -> SemisimplicityReport:
    """Compare algebraic and geometric multiplicities per eigenvalue cluster.

    Every eigenvalue has 1 <= geometric <= algebraic multiplicity, so a
    cluster of one eigenvalue has geometric multiplicity 1 and gets no rank
    test.  For a cluster of two or more, the geometric multiplicity is
    #I - rank(A - lambda*Id), lambda the cluster mean, with the rank cut at
    cfg.tol_rank relative to the largest singular value.
    """
    A = np.asarray(A, dtype=complex)
    size = A.shape[0]
    delta = cfg.tol_cluster * (1.0 + np.linalg.norm(A))
    groups = _cluster(dec.eigenvalues, delta)
    clusters = []
    ok = True
    for g in groups:
        lam = complex(np.mean(dec.eigenvalues[g]))
        alg = len(g)
        if alg == 1:
            geo = 1
        else:
            s = np.linalg.svd(A - lam * np.eye(size), compute_uv=False)
            cut = cfg.tol_rank * (s[0] if s[0] > 0 else 1.0)
            geo = size - int(np.sum(s > cut))
        clusters.append((lam, alg, geo))
        if geo != alg:
            ok = False
    reps = [c[0] for c in clusters]
    worst = math.inf
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            worst = min(worst, abs(reps[i] - reps[j]))
    return SemisimplicityReport(clusters, ok, worst)


def criterion(fam: MultMatrixFamily, cfg: Config = Config()) -> Verdict:
    """The maximality predicate: commuting family with every matrix semisimple."""
    comm = commutation_report(fam, cfg.tol_commute)
    decs = [eigen(A, cfg.tol_eig) for A in fam.matrices]
    reports = [semisimplicity(A, dec, cfg) for A, dec in zip(fam.matrices, decs)]
    all_ss = all(rep.semisimple for rep in reports)
    return Verdict(comm.commuting, all_ss, comm.commuting and all_ss, comm, reports, decs)


def _gaps_separated(w: np.ndarray, delta: float) -> bool:
    """True when all pairwise eigenvalue distances exceed delta."""
    return all(np.all(np.abs(w[i + 1:] - w[i]) > delta) for i in range(len(w) - 1))


def _gauss_newton(sys: BorderSystem, Z: np.ndarray, iters: int) -> np.ndarray:
    """Gauss-Newton polish of every root (the rows of Z) together.

    Each step solves one least-squares problem per root against the batched
    relation Jacobian; the stopping rule is the one documented on
    Config.refine_iters, applied root by root.
    """
    Z = Z.copy()
    current = residual(sys, Z)
    live = np.flatnonzero(current > 0.0)
    for _ in range(iters):
        if live.size == 0:
            break
        at = Z[live]
        r = relation_values(sys, at)
        jac = relation_jacobian(sys, at)
        steps = [np.linalg.lstsq(J, -v, rcond=None)[0] for J, v in zip(jac, r)]
        cand = at + np.array(steps)
        finite = np.all(np.isfinite(cand), axis=1)
        cand_res = np.full(live.size, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            cand_res[finite] = residual(sys, cand[finite])
        take = cand_res <= current[live]
        Z[live[take]] = cand[take]
        current[live[take]] = cand_res[take]
        live = live[take & (cand_res > 0.0)]
    return Z


def _dedup(Z: np.ndarray, tol_dedup: float) -> list[int]:
    """Indices of cluster representatives among the rows of Z, first-seen order."""
    cut = tol_dedup * (1.0 + float(np.max(np.abs(Z))))
    reps: list[int] = []
    for k in range(len(Z)):
        if not reps or np.min(np.linalg.norm(Z[reps] - Z[k], axis=1)) > cut:
            reps.append(k)
    return reps


def solve(sys: BorderSystem, cfg: Config = Config()) -> SolutionSet:
    """Recover the solutions of a border system through eigenvectors.

    Strategy ladder: use a single matrix when one has fully separated
    eigenvalues, otherwise a seeded random real combination of the family
    (retried up to cfg.max_retries).  Coordinates come from Rayleigh
    quotients of each eigenvector, then optional Gauss-Newton polish,
    deduplication, and the independently computed criterion verdict.
    """
    fam = build_family(sys)
    n = sys.dimension
    verdict = criterion(fam, cfg)

    strategy = None
    vectors = None
    degenerate = False

    if not cfg.force_generic:
        for i, (A, dec) in enumerate(zip(fam.matrices, verdict.decompositions)):
            delta = cfg.tol_cluster * (1.0 + np.linalg.norm(A))
            if _gaps_separated(dec.eigenvalues, delta):
                strategy = f"single({i + 1})"
                vectors = dec.eigenvectors
                break

    if vectors is None:
        rng = np.random.default_rng(cfg.seed)
        last = None
        for _ in range(cfg.max_retries):
            c = rng.normal(size=n)
            c /= np.linalg.norm(c)
            M = sum(ci * A for ci, A in zip(c, fam.matrices))
            dec = eigen(M, cfg.tol_eig)
            last = dec
            delta = cfg.tol_cluster * (1.0 + np.linalg.norm(M))
            if _gaps_separated(dec.eigenvalues, delta):
                strategy = "generic"
                vectors = dec.eigenvectors
                break
        if vectors is None:
            # every combination has a clustered spectrum (defective or
            # repeated roots); extract what the last eigenbasis offers and
            # let the verdict carry the explanation
            degenerate = True
            strategy = "generic-degenerate"
            vectors = last.eigenvectors

    # Rayleigh quotient of every eigenvector against every A_i, all at once
    norms2 = np.sum(np.abs(vectors) ** 2, axis=0)
    products = [A @ vectors for A in fam.matrices]
    Z = np.array([np.sum(vectors.conj() * AV, axis=0) / norms2 for AV in products]).T
    extraction = max(
        float(np.max(np.linalg.norm(AV - vectors * Z[:, i], axis=0) / np.sqrt(norms2)))
        for i, AV in enumerate(products)
    )
    if cfg.refine_iters > 0:
        Z = _gauss_newton(sys, Z, cfg.refine_iters)

    keep = _dedup(Z, cfg.tol_dedup)
    roots = list(Z[keep])
    res = residual(sys, Z[keep])
    residuals = res.tolist()
    flagged = (res > cfg.tol_accept).tolist()
    # flagged candidates stay in the report but do not count as solutions
    distinct = sum(1 for f in flagged if not f)

    diagnostics = {
        "commutation": verdict.commutation.to_json(),
        "semisimplicity": [rep.to_json() for rep in verdict.semisimplicity],
        "extraction_residual_max": extraction,
        "degenerate_spectrum": degenerate,
        "warnings": [],
    }
    if verdict.maximal != (distinct == len(sys.I)):
        said = "maximal" if verdict.maximal else "not maximal"
        diagnostics["warnings"].append(
            f"criterion says {said} but {distinct} distinct roots found "
            f"for #I = {len(sys.I)}; tolerances may be inconsistent"
        )
    return SolutionSet(roots, residuals, flagged, distinct, verdict, strategy, diagnostics)
