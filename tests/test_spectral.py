import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from border_eig import (
    BorderSystem,
    Config,
    border,
    build_family,
    criterion,
    eigen,
    residual,
    solve,
    system_from_nodes,
    total_degree_set,
    validate_lower_set,
)

from border_eig import spectral
from border_eig.errors import EigenConvergenceError
from border_eig.indexsets import ADMISSION_BUDGET
from border_eig.spectral import TOL_DEDUP, _components, _dedup, _gap_ratios, _gauss_newton
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
        # both unit eigenvectors are e_1 up to roundoff: V is singular
        dec = eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, 0.0)
        v0, v1 = dec.eigenvectors.T
        assert abs(np.vdot(v0, v1)) >= 1 - 1e-12

    def test_real_matrix_returns_complex(self):
        # a real spectrum: eig works in float64, the result is complex with
        # imaginary parts exactly 0
        dec = eigen(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert dec.eigenvalues.dtype == dec.eigenvectors.dtype == complex
        assert sorted(dec.eigenvalues.real) == pytest.approx([2.0, 3.0])
        assert np.all(dec.eigenvalues.imag == 0) and np.all(dec.eigenvectors.imag == 0)

    def test_real_matrix_conjugate_pair(self):
        dec = eigen(np.array([[0.0, -1.0], [1.0, 0.0]]))
        w, V = dec.eigenvalues, dec.eigenvectors
        assert w[1] == w[0].conjugate() and w[0].imag == pytest.approx(1.0)
        assert np.array_equal(V[:, 1], V[:, 0].conj())

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_entry_is_a_numerical_failure(self, entry):
        with pytest.raises(EigenConvergenceError, match="non-finite"):
            eigen(np.array([[1.0, entry], [0.0, 1.0]]))

    def test_cubic_companion(self):
        # x^3 = x factors as x(x-1)(x+1)
        fam = build_family(univariate([0.0, 1.0, 0.0]))
        A = fam.normal_forms[fam.shifts[0]]
        dec = eigen(A)
        assert sorted(dec.eigenvalues.real) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)


def reference_cluster(values, delta, bound):
    """Union-find single linkage, one pair at a time: i and j link when
    |values[i] - values[j]| <= min(delta, bound[i] + bound[j]).  Groups are
    ordered by their smallest member, members ascending."""
    k = len(values)
    values, bound = values.tolist(), bound.tolist()
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= min(delta, bound[i] + bound[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def reference_separation(w, bound):
    """min over pairs of |w_j - w_k| / (bound_j + bound_k), one row of pairs
    at a time, an undefined ratio counting as 0; None for a single value."""
    if len(w) < 2:
        return None
    with np.errstate(all="ignore"):
        sep = np.min([np.min(np.abs(w[k + 1:] - w[k]) / (bound[k + 1:] + bound[k]))
                      for k in range(len(w) - 1)])
    return 0.0 if np.isnan(sep) else float(sep)


def linked_groups(x, delta, bound):
    """The per-matrix report clusters: the criterion's link rule."""
    link = (_gap_ratios(x, bound) <= 1.0) & (np.abs(np.subtract.outer(x, x)) <= delta)
    return [g.tolist() for g in _components(link)]


def unit_modulus_system(n, m, seed):
    rng = np.random.default_rng(seed)
    I = total_degree_set(n, m)
    return system_from_nodes(I, list(np.exp(2j * np.pi * rng.uniform(size=(len(I), n)))))


def unit_square_double_roots():
    """{0,1}^2 with x^2 = 2x - 1 and y^2 = 1: roots (1, 1) and (1, -1), each double."""
    I = validate_lower_set([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    J = border(I)
    rows = {  # over the basis 1, x, y, xy
        (2, 0): [-1, 2, 0, 0],
        (0, 2): [1, 0, 0, 0],
        (2, 1): [0, 0, -1, 2],
        (1, 2): [0, 1, 0, 0],
    }
    return BorderSystem(I, J, np.array([rows[a] for a in J.members], dtype=complex))


def triple_root_system():
    """(x - 1)^3 (x + 1) (x - 2): #I = 5, three distinct roots."""
    return univariate(list(-np.poly([1, 1, 1, -1, 2])[1:][::-1]))


def double_root_system(k):
    """(x^k - 1)(x - 1) = 0 as x^(k+1) = x^k + x - 1: a double root at 1."""
    row = np.zeros(k + 1)
    row[0], row[1], row[k] = -1.0, 1.0, 1.0
    return univariate(row)


def gaussian_system(n, m, seed):
    """The system vanishing on #I real N(0, 1) nodes: every root is real."""
    I = total_degree_set(n, m)
    return system_from_nodes(I, np.random.default_rng(seed).normal(size=(len(I), n)))


class TestRealSystems:
    """Real coefficients: real roots come out exactly real, non-real ones in
    exact conjugate pairs, for the criterion's coordinates and solve's roots."""

    # (system, count of non-real roots): the k-th roots of unity other than
    # +-1; x^5 = 1 has a simple spectrum with conjugate pairs, so its
    # coordinates come from the two-sided quotients through V^-1
    cases = {
        "double-root-k10": (lambda: double_root_system(10), 8),
        "double-root-k55": (lambda: double_root_system(55), 54),
        "x5-is-1": (lambda: univariate([1.0, 0.0, 0.0, 0.0, 0.0]), 4),
        "gauss-n2m6": (lambda: gaussian_system(2, 6, 0), 0),
        "gauss-n3m4": (lambda: gaussian_system(3, 4, 0), 0),
    }

    @staticmethod
    def assert_conjugate_closed(Z, nonreal):
        """Exactly `nonreal` rows have a nonzero imaginary part (every other
        row is exactly real), and they pair off with exact conjugates."""
        mask = np.any(Z.imag != 0, axis=1)
        assert np.count_nonzero(mask) == nonreal
        assert Counter(map(tuple, Z[mask].tolist())) == Counter(map(tuple, Z[mask].conj().tolist()))

    @pytest.mark.parametrize("case", cases)
    def test_family_is_float64(self, case):
        fam = build_family(self.cases[case][0]())
        assert fam.normal_forms.dtype == np.float64

    @pytest.mark.parametrize("case", cases)
    def test_criterion_coordinates(self, case):
        make, nonreal = self.cases[case]
        v = criterion(build_family(make()))
        Z, w = v.coordinates, v.decomposition.eigenvalues
        self.assert_conjugate_closed(Z, nonreal)
        # a real eigenvalue of M gives exactly real coordinates
        assert np.array_equal(np.any(Z.imag != 0, axis=1), w.imag != 0)

    @pytest.mark.parametrize("case", cases)
    def test_solve_roots(self, case):
        make, nonreal = self.cases[case]
        sol = solve(make())
        self.assert_conjugate_closed(np.array(sol.roots), nonreal)
        real = [root["real"] for root in sol.to_json()["roots"]]
        assert real == [bool(np.all(z.imag == 0)) for z in sol.roots]


class TestSeparationRule:
    """The gap-ratio matrix and its components against the pair loops."""

    def cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            k = int(rng.integers(1, 40))
            x = rng.normal(size=k) + 1j * rng.normal(size=k)
            x = x[rng.integers(0, k, size=k)] if rng.random() < 0.3 else x  # exact duplicates
            bound = 10.0 ** rng.uniform(-3, 0, size=k)
            kind = rng.integers(0, 4)
            if kind == 1:
                bound[rng.random(k) < 0.5] = 0.0  # 0/0 on duplicates
            elif kind == 2:
                bound[rng.random(k) < 0.3] = np.inf
            elif kind == 3:
                bound[:] = 0.0
            yield x, float(10.0 ** rng.uniform(-2, 1)), bound

    def test_matches_reference_loops(self):
        for x, delta, bound in self.cases():
            assert linked_groups(x, delta, bound) == reference_cluster(x, delta, bound)
            if len(x) > 1:
                assert _gap_ratios(x, bound).min() == reference_separation(x, bound)

    def test_single_value(self):
        assert _gap_ratios(np.array([1j]), np.array([0.0])).tolist() == [[np.inf]]
        assert linked_groups(np.array([1j]), 1.0, np.array([0.0])) == [[0]]

    def test_undefined_ratio_counts_as_zero(self):
        # the second and third values coincide with zero bounds: 0/0
        R = _gap_ratios(np.array([0.0, 1.0, 1.0], dtype=complex), np.array([0.1, 0.0, 0.0]))
        assert R[1, 2] == R[2, 1] == 0.0 and R.min() == 0.0

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_long_chain_is_one_group(self, shuffle):
        # neighbours 0.9x the link distance apart: one group only through
        # 199 links in a row, and many rounds of label propagation
        bound = np.full(200, 0.5)
        x = 0.9 * np.arange(200) * (1 + 1j) / abs(1 + 1j)
        if shuffle:
            x = x[np.random.default_rng(7).permutation(200)]
        groups = linked_groups(x, 10.0, bound)
        assert groups == [list(range(200))] == reference_cluster(x, 10.0, bound)
        assert len(linked_groups(x / 0.9 * 1.1, 10.0, bound)) == 200


class TestSemisimplicity:
    """The per-coordinate reports, read off the joint eigenbasis."""

    def test_jordan_block(self):
        v = criterion(build_family(univariate([0.0, 0.0])))
        [rep] = v.semisimplicity
        [(lam, alg)] = rep.clusters
        assert abs(lam) <= 1e-12 and alg == 2

    def test_idempotent_matrix(self, idempotent_system):
        fam = build_family(idempotent_system)
        A1 = fam.normal_forms[fam.shifts[0]]
        assert np.allclose(A1 @ A1, A1)  # idempotent, hence diagonalizable
        rep = criterion(fam).semisimplicity[0]
        mults = sorted((round(lam.real), alg) for lam, alg in rep.clusters)
        assert mults == [(0, 2), (1, 1)]

    def test_close_coordinates_stay_apart(self):
        # x-coordinates 1e-8 apart lie inside the TOL_CLUSTER radius, but far
        # outside their error bounds: distinct eigenvalues of A_1, not a mean
        nodes = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0 + 1e-8, 1.0])]
        v = criterion(build_family(system_from_nodes(total_degree_set(2, 1), nodes)))
        assert v.maximal
        values = sorted(lam.real for lam, alg in v.semisimplicity[0].clusters)
        assert values == pytest.approx([0.0, 1.0, 1.0 + 1e-8], abs=1e-13)
        assert [alg for _, alg in v.semisimplicity[0].clusters] == [1, 1, 1]

    def test_simple_spectrum_makes_no_svd(self, monkeypatch):
        # the only SVD of the criterion is the one inside eigen
        original = spectral.eigen

        def then_forbid_svd(*args, **kwargs):
            dec = original(*args, **kwargs)

            def no_svd(*a, **k):
                raise AssertionError("no SVD expected")

            monkeypatch.setattr(spectral.np.linalg, "svd", no_svd)
            return dec

        monkeypatch.setattr(spectral, "eigen", then_forbid_svd)
        v = criterion(build_family(unit_modulus_system(2, 3, 3)))
        assert v.maximal
        assert [sum(alg for _, alg in rep.clusters) for rep in v.semisimplicity] == [10, 10]


def unit_square():
    """The roots {0, 1}^2: x^2 = x, y^2 = y, x^2 y = xy, x y^2 = xy."""
    I = validate_lower_set([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    return system_from_nodes(I, [np.array(p, dtype=float) for p in I.members])


class TestReportContract:
    """What bench/classify.py reads: each coordinate's clusters count every
    eigenvalue of M once, so the algebraic counts sum to #I."""

    cases = {
        "unit-n2m3": (lambda: unit_modulus_system(2, 3, 3), True),
        "unit-n3m2": (lambda: unit_modulus_system(3, 2, 5), True),
        "unit-square": (unit_square, True),
        "triple-root": (triple_root_system, False),
        "jordan-block": (lambda: univariate([0.0, 0.0]), False),
    }

    @pytest.mark.parametrize("case", cases)
    def test_algebraic_counts_sum_to_size(self, case):
        make, maximal = self.cases[case]
        s = make()
        v = criterion(build_family(s))
        assert v.maximal is maximal
        assert len(v.semisimplicity) == s.dimension
        for rep in v.semisimplicity:
            assert sum(alg for _, alg in rep.clusters) == len(s.I)
            assert all(alg >= 1 for _, alg in rep.clusters)

    def test_unit_square_clusters(self):
        v = criterion(build_family(unit_square()))
        for rep in v.semisimplicity:
            assert {round(lam.real): alg for lam, alg in rep.clusters} == {0: 2, 1: 2}
            assert rep.worst_gap == pytest.approx(1.0)


def greedy_dedup(Z, w, bound):
    """The former per-root loop: row k is a new root unless it lies within the
    cut of a root kept before it."""
    scale = 1.0 + float(np.max(np.abs(Z)))
    separated = _gap_ratios(w, bound) > 1.0
    reps = []
    for k in range(len(Z)):
        cut = np.where(separated[reps, k], TOL_DEDUP, math.sqrt(TOL_DEDUP)) * scale
        if np.all(np.linalg.norm(Z[reps] - Z[k], axis=1) > cut):
            reps.append(k)
    return reps


def near_graph(Z, w, bound):
    """The pairs within the cut, one pair at a time."""
    scale = 1.0 + float(np.max(np.abs(Z)))
    separated = _gap_ratios(w, bound) > 1.0
    k = len(Z)
    near = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            tol = TOL_DEDUP if separated[i, j] else math.sqrt(TOL_DEDUP)
            near[i, j] = np.linalg.norm(Z[i] - Z[j]) <= tol * scale
    return near


@st.composite
def roots_near_a_grid(draw):
    """Rows of Z within `spread` of integer grid points, and eigenvalues of M
    that are separated exactly when their labels differ (gap ratio 0 or at
    least 1.25).  A spread of 0.2 TOL_DEDUP keeps copies of a grid point within
    the tight cut; 30 TOL_DEDUP puts them between the two cuts."""
    k, n = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    centers = np.reshape(draw(st.lists(st.integers(-2, 2), min_size=k * n, max_size=k * n)), (k, n))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * k * n, max_size=2 * k * n))
    offsets = np.reshape(parts, (2, k, n))
    spread = draw(st.sampled_from([0.2, 30.0])) * TOL_DEDUP
    labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    Z = centers + spread * (offsets[0] + 1j * offsets[1])
    return Z, np.array(labels, dtype=complex), np.full(k, 0.4)


class TestDedup:
    """One root per connected component of the near graph."""

    def test_chain_is_one_root(self):
        # three roots 0.8 cuts apart, with separated eigenvalues: the first and
        # the last are 1.6 cuts apart, yet one chain links them
        w, bound = np.array([0, 1, 2], dtype=complex), np.zeros(3)
        step = 0.8 * TOL_DEDUP * 2.0  # the cut is TOL_DEDUP * (1 + max |Z|) > 2 TOL_DEDUP
        Z = (1.0 + step * np.arange(3)).astype(complex)[:, None]
        assert _dedup(Z, w, bound) == [0]
        assert greedy_dedup(Z, w, bound) == [0, 2]
        # beyond the cut, each is its own root
        assert _dedup(1.0 + 2.0 * (Z - 1.0), w, bound) == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(roots_near_a_grid())
    def test_matches_greedy_loop_without_chains(self, case):
        Z, w, bound = case
        near = near_graph(Z, w, bound)
        assume(np.array_equal(near.astype(int) @ near.astype(int) > 0, near))  # no chains
        assert _dedup(Z, w, bound) == greedy_dedup(Z, w, bound)


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

    def test_triple_root_not_maximal(self):
        v = criterion(build_family(triple_root_system()))
        assert v.commuting and not v.all_semisimple and not v.maximal
        assert v.separation < 1.0

    def test_unit_square_double_roots_not_maximal(self):
        v = criterion(build_family(unit_square_double_roots()))
        assert v.commuting and not v.maximal

    def test_separation_reported(self, idempotent_system):
        v = criterion(build_family(idempotent_system))
        assert v.separation > 1.0
        assert criterion(build_family(univariate([-2.0]))).separation is None  # #I = 1

    def test_singular_eigenbasis_warns_nothing(self, recwarn):
        # x^3 = 0: every eigenvector of M is e_1, so V is singular
        v = criterion(build_family(univariate([0.0, 0.0, 0.0])))
        assert not v.maximal and v.separation == 0.0
        assert np.all(np.isfinite(v.coordinates))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_gaussian_singletons_are_simple(self):
        # N(0,1) nodes at n=2, m=10 (#I = 66): a rank cut on a singleton
        # cluster of A_i once reported geometric multiplicity != 1 here and
        # turned a maximal system non-maximal
        I = total_degree_set(2, 10)
        nodes = list(np.random.default_rng(1).normal(size=(len(I), 2)))
        v = criterion(build_family(system_from_nodes(I, nodes)))
        assert v.maximal
        # distinct N(0, 1) coordinates: every cluster of every report is one eigenvalue
        for rep in v.semisimplicity:
            assert [alg for _, alg in rep.clusters] == [1] * len(I)


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

    def test_triple_root_not_reported_five_times(self):
        sol = solve(triple_root_system())
        assert not sol.verdict.maximal
        assert sol.strategy == "generic-degenerate"
        assert sol.distinct_count == 3
        roots = sorted(z[0].real for z, f in zip(sol.roots, sol.flagged) if not f)
        assert roots == pytest.approx([-1.0, 1.0, 2.0], abs=1e-4)
        assert sol.diagnostics["warnings"] == []

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

    def test_determinism(self, idempotent_system):
        a = solve(idempotent_system, Config(seed=42))
        b = solve(idempotent_system, Config(seed=42))
        assert a.strategy == b.strategy
        assert all(np.array_equal(x, y) for x, y in zip(a.roots, b.roots))

    def test_seed_independence_of_roots(self):
        rng = np.random.default_rng(23)
        I = total_degree_set(2, 1)
        s = system_from_nodes(I, random_separated_nodes(rng, 2, len(I), sep=0.3))
        a = solve(s, Config(seed=7))
        b = solve(s, Config(seed=42))
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
        raw = residual(s, criterion(build_family(s)).coordinates)
        polished = solve(s)
        assert max(polished.residuals) <= max(raw) + 1e-14

    def test_refinement_stopping_rule(self):
        # x^2 = 1: from 1e-3 the Newton step lands near 500 and raises the
        # residual, so that root stays put; 0.99 takes the Newton step; 1 is exact
        s = univariate([1.0, 0.0])
        out, res = _gauss_newton(s, np.array([[1e-3], [0.99], [1.0]], dtype=complex))
        assert out[0, 0] == 1e-3
        assert abs(out[1, 0] - (0.99**2 + 1) / 1.98) <= 1e-15
        assert out[2, 0] == 1.0
        # the residuals are those of the returned rows, taken or not
        assert np.array_equal(res, residual(s, out)) and res[2] == 0.0

    def test_refinement_memory_within_admission(self):
        # n=60, m=1 is admitted (#I 61, #J 1830); the (p, #J, n) Jacobian stack
        # of all roots would take 107 MB, one root's Jacobian 1.8 MB
        rng = np.random.default_rng(47)
        nodes = np.exp(2j * np.pi * rng.uniform(size=(61, 60)))
        s = system_from_nodes(total_degree_set(60, 1), nodes)
        Z = nodes * np.exp(1e-6j * rng.normal(size=nodes.shape))
        tracemalloc.start()
        try:
            _, res = _gauss_newton(s, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * ADMISSION_BUDGET
        assert res.max() < 1e-3 * residual(s, Z).min()  # every root took its step

    @pytest.mark.parametrize("make", [lambda: unit_modulus_system(2, 3, 3),
                                      lambda: gaussian_system(3, 4, 0), triple_root_system],
                             ids=["unit-n2m3", "gauss-n3m4", "triple-root"])
    def test_residuals_are_the_reported_roots(self, make):
        # solve reuses the refinement step's residuals instead of evaluating again
        s = make()
        sol = solve(s)
        assert np.array_equal(sol.residuals, residual(s, np.array(sol.roots)))

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

    @pytest.mark.parametrize("scale", [
        pytest.param(1e-3, marks=pytest.mark.xfail(
            strict=True, reason="_dedup's floor 1 + max|z| merges the triple root into 2s")),
        1e-2,
        1.0,
    ])
    def test_triple_root_distinct_at_scale(self, scale):
        # (x - s)^3 (x + s) (x - 2s) has 3 distinct roots at every scale s
        s = univariate(list(-np.poly(scale * np.array([1, 1, 1, -1, 2]))[1:][::-1]))
        assert solve(s).distinct_count == 3


class TestSpectralPass:
    """check and solve eigendecompose one generic combination, once."""

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
        assert v.decomposition.eigenvectors.shape == (fam.size, fam.size)
        assert v.coordinates.shape == (fam.size, len(fam))
        V = v.decomposition.eigenvectors
        assert v.extraction_residual == max(float(np.max(np.linalg.norm(A @ V - V * z, axis=0)))
                                            for A, z in zip(fam.normal_forms[fam.shifts], v.coordinates.T))
        for field in ("decomposition", "coordinates", "error_bounds", "extraction_residual"):
            assert field not in v.to_json()
            assert field not in repr(v)

    def test_generic_strategy_eigen_calls(self, eigen_args):
        s = unit_modulus_system(2, 3, 3)
        sol = solve(s)
        assert sol.strategy == "generic"
        [M] = eigen_args
        fam = build_family(s)
        assert not any(np.array_equal(fam.normal_forms[index], M) for index in fam.shifts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_eigen_call(self, eigen_args, n):
        s = unit_modulus_system(n, 2, 5)
        criterion(build_family(s))
        assert len(eigen_args) == 1
        sol = solve(s)
        assert len(eigen_args) == 2  # solve's own criterion call, nothing more
        assert sol.verdict.maximal and sol.distinct_count == len(s.I)


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


class TestGaussianRegression:
    """N(0,1) nodes at n=3, m=6 (#I = 84), default_rng(4): the per-cluster
    rank test once called this commuting family non-maximal."""

    def test_maximal_with_all_roots(self):
        I = total_degree_set(3, 6)
        nodes = list(np.random.default_rng(4).normal(size=(len(I), 3)))
        sol = solve(system_from_nodes(I, nodes))
        assert sol.verdict.maximal
        assert sol.distinct_count == len(sol.roots) == 84
        assert not any(sol.flagged)
        assert matching_error(sol.roots, nodes) <= 1e-6


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
        raw = residual(s, criterion(build_family(s)).coordinates)
        polished = solve(s)
        # same eigenbasis, and no duplicates dropped, so roots pair up by position
        assert len(raw) == len(polished.residuals) == 56
        for r0, r1 in zip(raw, polished.residuals):
            assert r1 <= r0
