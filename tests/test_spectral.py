import numpy as np
import pytest

from border_eig import (
    BorderSystem,
    Config,
    border,
    build_family,
    criterion,
    eigen,
    residual,
    semisimplicity,
    solve,
    system_from_nodes,
    total_degree_set,
)

from border_eig import spectral
from border_eig.spectral import _gauss_newton
from conftest import matching_error, random_separated_nodes


def univariate(coeff_row):
    m = len(coeff_row) - 1
    I = total_degree_set(1, m)
    return BorderSystem(I, border(I), np.array([coeff_row], dtype=complex))


def noncommuting_system():
    I = total_degree_set(2, 1)
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 0] = 1.0
    coeffs[2, 0] = 1.0
    return BorderSystem(I, border(I), coeffs)


class TestEigen:
    def test_swap_matrix(self):
        dec = eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sorted(dec.eigenvalues.real) == pytest.approx([-1.0, 1.0])
        assert np.all(dec.residuals <= 1e-12)
        assert np.allclose(np.linalg.norm(dec.eigenvectors, axis=0), 1.0)

    def test_jordan_block_condition_diverges(self):
        dec = eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, 0.0)
        assert dec.vector_condition > 1e12

    def test_cubic_companion(self):
        # x^3 = x factors as x(x-1)(x+1)
        A = build_family(univariate([0.0, 1.0, 0.0])).matrices[0]
        dec = eigen(A)
        assert sorted(dec.eigenvalues.real) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)


def unit_modulus_system(n, m, seed):
    rng = np.random.default_rng(seed)
    I = total_degree_set(n, m)
    return system_from_nodes(I, list(np.exp(2j * np.pi * rng.uniform(size=(len(I), n)))))


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVDs semisimplicity makes (install after eigen has run)."""
    calls = []
    original = spectral.np.linalg.svd

    def install(fail=False):
        def counting(*args, **kwargs):
            calls.append(1)
            if fail:
                raise AssertionError("no SVD expected")
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral.np.linalg, "svd", counting)
        return calls

    return install


class TestSemisimplicity:
    def test_jordan_block(self, svd_calls):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = eigen(A)
        calls = svd_calls()
        rep = semisimplicity(A, dec, Config())
        assert not rep.semisimple
        [(lam, alg, geo)] = rep.clusters
        assert abs(lam) <= 1e-12 and alg == 2 and geo == 1
        assert len(calls) == 1

    def test_identity(self):
        A = np.eye(4)
        rep = semisimplicity(A, eigen(A), Config())
        assert rep.semisimple
        [(lam, alg, geo)] = rep.clusters
        assert lam == pytest.approx(1.0) and alg == geo == 4

    def test_idempotent_matrix(self, idempotent_system, svd_calls):
        A1 = build_family(idempotent_system).matrices[0]
        assert np.allclose(A1 @ A1, A1)  # idempotent, hence diagonalizable
        dec = eigen(A1)
        calls = svd_calls()
        rep = semisimplicity(A1, dec, Config())
        assert rep.semisimple
        mults = sorted((round(lam.real), alg, geo) for lam, alg, geo in rep.clusters)
        assert mults == [(0, 2, 2), (1, 1, 1)]
        assert len(calls) == 1  # only the double eigenvalue takes a rank test

    def test_simple_spectrum_makes_no_svd(self, svd_calls):
        A = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1)
        dec = eigen(A)
        svd_calls(fail=True)
        rep = semisimplicity(A, dec, Config())
        assert rep.semisimple
        assert [(alg, geo) for _, alg, geo in rep.clusters] == [(1, 1)] * 4


class TestCriterion:
    def test_idempotent_maximal(self, idempotent_system):
        v = criterion(build_family(idempotent_system))
        assert v.commuting and v.all_semisimple and v.maximal

    def test_nilpotent_fails_semisimple(self):
        v = criterion(build_family(univariate([0.0, 0.0])))
        assert v.commuting
        assert not v.all_semisimple
        assert not v.maximal

    def test_noncommuting_fails(self):
        v = criterion(build_family(noncommuting_system()))
        assert not v.commuting
        assert v.maximal is False

    def test_gaussian_singletons_are_simple(self):
        # N(0,1) nodes at n=2, m=10 (#I = 66): a rank cut on a singleton
        # cluster of A_i once reported geometric multiplicity != 1 here and
        # turned a maximal system non-maximal
        I = total_degree_set(2, 10)
        nodes = list(np.random.default_rng(1).normal(size=(len(I), 2)))
        v = criterion(build_family(system_from_nodes(I, nodes)))
        assert v.maximal
        singles = [geo for rep in v.semisimplicity for _, alg, geo in rep.clusters if alg == 1]
        assert singles and all(geo == 1 for geo in singles)


class TestSolve:
    def test_x_squared_one(self):
        sol = solve(univariate([1.0, 0.0]))
        assert sol.verdict.maximal
        assert sol.distinct_count == 2
        roots = sorted(z[0].real for z in sol.roots)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert all(r <= 1e-10 for r in sol.residuals)

    def test_idempotent_roots(self, idempotent_system):
        sol = solve(idempotent_system)
        assert sol.verdict.maximal and sol.distinct_count == 3
        expected = [np.array([0, 0]), np.array([1, 0]), np.array([0, 1])]
        assert matching_error(sol.roots, expected) <= 1e-10

    def test_nilpotent(self):
        sol = solve(univariate([0.0, 0.0]))
        assert not sol.verdict.maximal
        assert sol.distinct_count == 1
        assert abs(sol.roots[0][0]) <= 1e-8

    def test_residual_postcondition(self):
        rng = np.random.default_rng(5)
        I = total_degree_set(3, 1)
        s = system_from_nodes(I, random_separated_nodes(rng, 3, len(I), sep=0.1))
        sol = solve(s)
        assert not any(sol.flagged)
        assert all(r <= 1e-6 for r in sol.residuals)

    def test_strategy_agreement(self):
        # where the single-matrix shortcut applies, the generic combination
        # must reproduce the same root multiset
        rng = np.random.default_rng(17)
        for _ in range(5):
            I = total_degree_set(2, 2)
            s = system_from_nodes(I, random_separated_nodes(rng, 2, len(I), sep=0.1))
            fast = solve(s)
            slow = solve(s, Config(force_generic=True))
            assert slow.strategy == "generic"
            if fast.strategy.startswith("single"):
                assert matching_error(fast.roots, slow.roots) <= 1e-6

    def test_determinism(self, idempotent_system):
        a = solve(idempotent_system, Config(seed=42))
        b = solve(idempotent_system, Config(seed=42))
        assert a.strategy == b.strategy
        assert all(np.array_equal(x, y) for x, y in zip(a.roots, b.roots))

    def test_seed_independence_of_roots(self):
        rng = np.random.default_rng(23)
        I = total_degree_set(2, 1)
        s = system_from_nodes(I, random_separated_nodes(rng, 2, len(I), sep=0.3))
        a = solve(s, Config(seed=7, force_generic=True))
        b = solve(s, Config(seed=42, force_generic=True))
        assert matching_error(a.roots, b.roots) <= 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        I = total_degree_set(3, 1)
        nodes = random_separated_nodes(rng, 3, len(I), sep=0.2)
        perm = [2, 0, 1]
        permuted_nodes = [z[perm] for z in nodes]
        sol = solve(system_from_nodes(I, nodes))
        sol_p = solve(system_from_nodes(I, permuted_nodes))
        assert matching_error([z[perm] for z in sol.roots], sol_p.roots) <= 1e-6

    def test_refinement_non_worsening(self):
        rng = np.random.default_rng(31)
        I = total_degree_set(2, 2)
        s = system_from_nodes(I, random_separated_nodes(rng, 2, len(I), sep=0.15))
        raw = solve(s, Config(refine_iters=0))
        polished = solve(s, Config(refine_iters=3))
        assert max(polished.residuals) <= max(raw.residuals) + 1e-14

    def test_refinement_stopping_rule(self):
        # x^2 = 1: from 1e-3 the Newton step lands near 500 and raises the
        # residual, so that root stays put; 0.99 converges; 1 is exact
        s = univariate([1.0, 0.0])
        out = _gauss_newton(s, np.array([[1e-3], [0.99], [1.0]], dtype=complex), 3)
        assert out[0, 0] == 1e-3
        assert abs(out[1, 0] - 1.0) <= 1e-12
        assert out[2, 0] == 1.0

    def test_maximal_iff_distinct_count(self):
        # forward over random poised systems, converse over the degenerate corpus
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            I = total_degree_set(n, m)
            s = system_from_nodes(I, random_separated_nodes(rng, n, len(I), sep=0.05))
            sol = solve(s)
            assert sol.verdict.maximal
            assert sol.distinct_count == len(I)
        for s in (univariate([0.0, 0.0]), noncommuting_system()):
            sol = solve(s)
            assert not sol.verdict.maximal
            assert sol.distinct_count < len(s.I)


class TestSpectralPass:
    """solve eigendecomposes each A_i once, inside criterion."""

    @pytest.fixture
    def eigen_args(self, monkeypatch):
        args = []
        original = spectral.eigen

        def counting(A, *rest, **kwargs):
            args.append(A)
            return original(A, *rest, **kwargs)

        monkeypatch.setattr(spectral, "eigen", counting)
        return args

    def test_criterion_keeps_decompositions(self):
        fam = build_family(unit_modulus_system(2, 3, 3))
        v = criterion(fam)
        assert len(v.decompositions) == len(fam)
        for A, dec in zip(fam.matrices, v.decompositions):
            assert np.array_equal(dec.eigenvalues, eigen(A).eigenvalues)
        assert "decompositions" not in v.to_json()
        assert "decompositions" not in repr(v)

    def test_single_strategy_eigen_calls(self, eigen_args):
        s = unit_modulus_system(2, 3, 3)
        sol = solve(s)
        assert sol.strategy.startswith("single")
        assert len(eigen_args) == s.dimension
        for A, B in zip(build_family(s).matrices, eigen_args):
            assert np.array_equal(A, B)

    def test_generic_strategy_eigen_calls(self, eigen_args):
        s = unit_modulus_system(2, 3, 3)
        sol = solve(s, Config(force_generic=True))
        # one generic attempt: its first combination is already separated
        assert sol.strategy == "generic"
        assert len(eigen_args) == s.dimension + 1
        assert not any(np.array_equal(A, eigen_args[-1]) for A in build_family(s).matrices)


class TestWarnings:
    def test_non_maximal_with_all_roots_warns(self):
        # a negative commutation tolerance rejects every family, so the
        # verdict is non-maximal while solve still finds all #I roots
        s = unit_modulus_system(2, 3, 3)
        sol = solve(s, Config(tol_commute=-1.0))
        assert not sol.verdict.maximal
        assert sol.distinct_count == len(s.I)
        [warning] = sol.diagnostics["warnings"]
        assert "not maximal" in warning and f"#I = {len(s.I)}" in warning

    def test_no_warning_when_consistent(self, idempotent_system):
        assert solve(idempotent_system).diagnostics["warnings"] == []
        # non-maximal with fewer than #I roots: nothing suspect
        assert solve(univariate([0.0, 0.0])).diagnostics["warnings"] == []


class TestSolveBeyondSmallSets:
    """n=3, m=5 (#I = 56) with well-conditioned unit-modulus nodes."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(56)
        I = total_degree_set(3, 5)
        nodes = list(np.exp(2j * np.pi * rng.uniform(size=(len(I), 3))))
        return system_from_nodes(I, nodes), nodes

    def test_all_roots_recovered(self, case):
        s, nodes = case
        sol = solve(s)
        assert sol.verdict.maximal
        assert len(sol.roots) == sol.distinct_count == 56
        assert not any(sol.flagged)
        assert matching_error(sol.roots, nodes) <= 1e-10

    def test_refinement_non_worsening_per_root(self, case):
        s, _ = case
        raw = solve(s, Config(refine_iters=0))
        polished = solve(s, Config(refine_iters=3))
        # same eigenbasis, and no duplicates dropped, so roots pair up by position
        assert len(raw.roots) == len(polished.roots) == 56
        for r0, r3 in zip(raw.residuals, polished.residuals):
            assert r3 <= r0
