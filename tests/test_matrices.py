import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from border_eig import (
    BorderSystem,
    Config,
    UnisolvenceError,
    border,
    build_family,
    commutation_report,
    criterion,
    monomial_eval,
    residual,
    system_from_nodes,
    total_degree_set,
    validate_lower_set,
)
from border_eig.cli import main
from conftest import random_lower_set, random_separated_nodes, serialize_system

EPS = np.finfo(float).eps


def univariate(coeff_row):
    m = len(coeff_row) - 1
    I = total_degree_set(1, m)
    return BorderSystem(I, border(I), np.array([coeff_row], dtype=complex))


def seeded_c(n):
    """criterion's unit-length c, drawn under the default seed."""
    c = np.random.default_rng(Config().seed).normal(size=n)
    return c / np.linalg.norm(c)


def seeded_combination(fam):
    """criterion's M = sum c_i A_i, from the dense A_i."""
    return sum(ci * A for ci, A in zip(seeded_c(len(fam)), fam.normal_forms[fam.shifts]))


def report(fam, tol=1e-8):
    return commutation_report(fam, seeded_combination(fam), tol)


def assert_defects_match_dense(fam, M, rep):
    """Each defect against the dense ||A_i M - M A_i||_F, to a few ulps of the
    products' scale, in the commutator and in the norms."""
    assert rep.defects.shape == (len(fam),)
    for defect, A in zip(rep.defects, fam.normal_forms[fam.shifts]):
        scale = np.linalg.norm(A) * np.linalg.norm(M)
        dense = np.linalg.norm(A @ M - M @ A)
        assert abs(defect * max(1.0, scale) - dense) <= 64 * EPS * scale


def pairwise_defect(fam):
    """The pairwise oracle: max ||A_i A_j - A_j A_i||_F / max(1, ||A_i||_F ||A_j||_F)."""
    A = fam.normal_forms[fam.shifts]
    return max((np.linalg.norm(A[i] @ A[j] - A[j] @ A[i])
                / max(1.0, np.linalg.norm(A[i]) * np.linalg.norm(A[j]))
                for i in range(len(A)) for j in range(i + 1, len(A))), default=0.0)


def noncommuting_system():
    """x^2 = 1, xy = 0, y^2 = 1: the classic commutator counterexample."""
    I = total_degree_set(2, 1)
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0, 0] = 1.0  # x^2 = 1
    coeffs[2, 0] = 1.0  # y^2 = 1
    return BorderSystem(I, border(I), coeffs)


class TestBuildMatrix:
    def test_univariate_companion(self):
        a0, a1 = 0.75, -0.25
        s = univariate([a0, a1])
        fam = build_family(s)
        A = fam.normal_forms[fam.shifts[0]]
        assert np.array_equal(A, np.array([[0, 1], [a0, a1]], dtype=complex))
        # characteristic polynomial x^2 - a1 x - a0, checked via trace/det
        assert np.trace(A) == pytest.approx(a1)
        assert np.linalg.det(A) == pytest.approx(-a0)

    def test_idempotent_pair(self, idempotent_system):
        fam = build_family(idempotent_system)
        A1, A2 = (fam.normal_forms[index] for index in fam.shifts)
        assert np.allclose(A1, [[0, 1, 0], [0, 1, 0], [0, 0, 0]])
        assert np.allclose(A2, [[0, 0, 1], [0, 0, 0], [0, 0, 1]])
        assert np.allclose(A1 @ A2, 0)
        assert np.allclose(A2 @ A1, 0)

    def test_noncommuting_pair(self):
        s = noncommuting_system()
        fam = build_family(s)
        A1, A2 = (fam.normal_forms[index] for index in fam.shifts)
        assert np.allclose(A1, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.allclose(A2, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert not np.allclose(A1 @ A2, A2 @ A1)

    def test_unit_row_structure(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = rng.integers(1, 4)
            m = rng.integers(1, 4)
            I = total_degree_set(n, m)
            nodes = random_separated_nodes(rng, n, len(I))
            s = system_from_nodes(I, nodes)
            fam = build_family(s)
            coeff_rows = {tuple(np.round(row, 12)) for row in s.coeffs}
            for A in (fam.normal_forms[index] for index in fam.shifts):
                for row in A:
                    is_unit = (
                        np.count_nonzero(row) == 1 and row[np.nonzero(row)][0] == 1.0
                    )
                    assert is_unit or tuple(np.round(row, 12)) in coeff_rows

    def test_coeff_row_count_total_degree(self):
        for n, m in [(1, 2), (2, 1), (2, 3), (3, 2)]:
            I = total_degree_set(n, m)
            rng = np.random.default_rng(n * 10 + m)
            s = system_from_nodes(I, random_separated_nodes(rng, n, len(I)))
            fam = build_family(s)
            k = math.comb(n + m - 1, n - 1)  # size of the top degree slice
            assert all(c == k for c in fam.coeff_row_count)
            assert all(u + c == len(I) for u, c in zip(fam.unit_row_count, fam.coeff_row_count))

    def test_eigen_identity_at_roots(self):
        rng = np.random.default_rng(7)
        I = total_degree_set(2, 2)
        nodes = random_separated_nodes(rng, 2, len(I), sep=0.2)
        s = system_from_nodes(I, nodes)
        fam = build_family(s)
        for z in nodes:
            assert residual(s, z) <= 1e-10
            v = monomial_eval(I.exponents, z)
            for i, index in enumerate(fam.shifts):
                A = fam.normal_forms[index]
                err = np.linalg.norm(A @ v - z[i] * v)
                assert err <= 1e-8 * (1 + np.linalg.norm(A)) * np.linalg.norm(v)


def shift(beta, i):
    return tuple(b + (k == i) for k, b in enumerate(beta))


def reference(s, i):
    """A_i one row at a time: a unit row where beta + e_i stays in I, else its relation row."""
    I = s.I
    A = np.zeros((len(I), len(I)), dtype=complex)
    for r, beta in enumerate(I.members):
        alpha = shift(beta, i)
        if alpha in I:
            A[r, I.position[alpha]] = 1.0
        else:
            A[r] = s.coeffs[s.J.position[alpha]]
    return A


lower_sets = dict(n=st.integers(1, 4), steps=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(**lower_sets)
def test_gather_matches_row_loop(n, steps, seed):
    rng = np.random.default_rng(seed)
    I = random_lower_set(n, steps, rng)
    J = border(I)
    shape = (len(J), len(I))
    s = BorderSystem(I, J, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    fam = build_family(s)
    assert len(fam) == n
    for i in range(n):
        assert np.array_equal(fam.normal_forms[fam.shifts[i]], reference(s, i))
        units = sum(shift(beta, i) in I for beta in I.members)
        assert fam.unit_row_count[i] == units
        assert fam.coeff_row_count[i] == len(I) - units


class TestDtype:
    def system(self, seed=3):
        I = total_degree_set(2, 3)
        rng = np.random.default_rng(seed)
        return BorderSystem(I, border(I), rng.normal(size=(len(border(I)), len(I))).astype(complex))

    def test_real_coefficients_give_float64(self):
        s = self.system()
        fam = build_family(s)
        assert fam.normal_forms.dtype == np.float64
        for i, index in enumerate(fam.shifts):
            assert np.array_equal(fam.normal_forms[index], reference(s, i))

    def test_one_imaginary_coefficient_keeps_complex(self):
        s = self.system()
        s.coeffs[4, 2] += 1e-300j
        fam = build_family(s)
        assert fam.normal_forms.dtype == np.complex128
        for i, index in enumerate(fam.shifts):
            assert np.array_equal(fam.normal_forms[index], reference(s, i))

    def test_complex_dtype_keeps_signed_zeros(self):
        s = self.system()
        s.coeffs.imag = -0.0
        assert build_family(s).normal_forms.dtype == np.float64
        fam = build_family(s, complex)
        for i, index in enumerate(fam.shifts):
            A, ref = fam.normal_forms[index], reference(s, i)
            assert np.array_equal(np.signbit(A.imag), np.signbit(ref.imag))
            assert np.count_nonzero(np.signbit(A.imag)) == fam.coeff_row_count[i] * len(A)


@settings(max_examples=50, deadline=None)
@given(**lower_sets)
def test_eigen_identity_at_complex_nodes(n, steps, seed):
    rng = np.random.default_rng(seed)
    I = random_lower_set(n, steps, rng)
    nodes = rng.normal(size=(len(I), n)) + 1j * rng.normal(size=(len(I), n))
    try:
        s = system_from_nodes(I, nodes)
    except UnisolvenceError:
        assume(False)
    fam = build_family(s)
    for i, index in enumerate(fam.shifts):
        A = fam.normal_forms[index]
        for z, v in zip(nodes, monomial_eval(I.exponents, nodes)):
            err = np.linalg.norm(A @ v - z[i] * v)
            assert err <= 1e-8 * (1 + np.linalg.norm(A)) * np.linalg.norm(v)


class TestCompanionDegeneration:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_char_poly_matches_relation(self, m):
        rng = np.random.default_rng(m)
        row = rng.normal(size=m + 1)
        s = univariate(list(row))
        fam = build_family(s)
        A = fam.normal_forms[fam.shifts[0]]
        # determinant-expansion oracle: char poly of the companion matrix
        # must be x^{m+1} - a_m x^m - ... - a_0
        cp = np.poly(A)  # leading-first coefficients of det(xI - A)
        expected = np.concatenate(([1.0], -row[::-1]))
        assert np.allclose(cp.real, expected, atol=1e-10)


class TestCommutation:
    def test_single_matrix_trivial(self):
        # n = 1: M = +-A_1, whose commutator with A_1 is rounding alone
        for row in ([1.0, 0.0], [0.75, -0.25, 2.0, 1.5, -3.0]):
            rep = report(build_family(univariate(row)))
            assert rep.defects.shape == (1,)
            assert rep.defects[0] <= 64 * EPS
            assert rep.commuting

    def test_idempotent_commutes(self, idempotent_system):
        rep = report(build_family(idempotent_system))
        assert rep.commuting
        assert rep.max_defect <= 1e-14

    def test_noncommuting_defect_value(self):
        fam = build_family(noncommuting_system())
        M = seeded_combination(fam)
        rep = commutation_report(fam, M, 1e-8)
        assert not rep.commuting
        assert_defects_match_dense(fam, M, rep)
        # [A_1, M] = c_2 [A_1, A_2] and [A_1, A_2] = E23 - E32 (norm sqrt(2));
        # ||A_1|| = ||A_2|| = ||M|| = sqrt(2) for unit c, so defect i is |c_j| / sqrt(2)
        assert math.hypot(*rep.defects) == pytest.approx(1 / math.sqrt(2))
        assert rep.max_defect == max(rep.defects)

    def test_nonsimple_combination_of_noncommuting_pair(self, tmp_path, capsys):
        """A_y = (N - c_1 A_x) / c_2 puts M = N, a Jordan block, so M is not
        simple; the family does not commute, and both A_i fail against M."""
        I = validate_lower_set([(0, 0), (1, 0)], 2)
        J = border(I)
        c = seeded_c(2)
        Ax = np.array([[0.0, 1.0], [-1.0, 2.0]])
        Ay = (np.array([[1.0, 1.0], [0.0, 1.0]]) - c[0] * Ax) / c[1]
        coeffs = np.zeros((len(J), 2), dtype=complex)
        coeffs[J.position[(2, 0)]] = Ax[1]  # x * x
        coeffs[J.position[(0, 1)]] = Ay[0]  # y * 1
        coeffs[J.position[(1, 1)]] = Ay[1]  # y * x
        s = BorderSystem(I, J, coeffs)
        fam = build_family(s)
        assert pairwise_defect(fam) > 0.1
        v = criterion(fam)
        assert v.separation <= 1.0
        assert not v.commuting and not v.maximal
        assert v.commutation.defects.shape == (2,)
        assert np.all(v.commutation.defects > Config().tol_commute)
        path = tmp_path / "jordan.json"
        path.write_bytes(serialize_system(s))
        assert main(["check", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["commutation"]["commuting"] is False


def perturbed(s, delta, rng):
    """s with every coefficient scaled by 1 + delta * N(0, 1)."""
    return BorderSystem(s.I, s.J, s.coeffs * (1.0 + delta * rng.normal(size=s.coeffs.shape)))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 4), steps=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_commuting_matches_pairwise_oracle(n, steps, seed):
    """Against M, the verdict is the pairwise one: on a system synthesized
    from nodes, which commutes, and on it perturbed by a relative 1e-5."""
    rng = np.random.default_rng(seed)
    I = random_lower_set(n, steps, rng)
    try:
        s = system_from_nodes(I, rng.normal(size=(len(I), n)))
    except UnisolvenceError:
        assume(False)
    tol = Config().tol_commute
    for delta in (0.0, 1e-5):
        fam = build_family(perturbed(s, delta, rng))
        assert report(fam, tol).commuting == (pairwise_defect(fam) <= tol)


def random_system(n, m, seed, dtype):
    """Random coefficients over total_degree_set(n, m): a non-commuting family."""
    rng = np.random.default_rng(seed)
    I = total_degree_set(n, m)
    shape = (len(border(I)), len(I))
    coeffs = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
    return BorderSystem(I, border(I), coeffs)


def commuting_system(n, m, seed, dtype):
    """The system of total_degree_set(n, m) vanishing on random real or complex nodes."""
    rng = np.random.default_rng(seed)
    I = total_degree_set(n, m)
    nodes = rng.normal(size=(len(I), n)) + (1j * rng.normal(size=(len(I), n)) if dtype is complex else 0)
    return system_from_nodes(I, nodes)


product_cases = pytest.mark.parametrize("make, dtype", [
    (random_system, float), (random_system, complex),
    (commuting_system, float), (commuting_system, complex),
])


class TestGatheredProducts:
    """The products through the shift table against the dense A_i they stand for."""

    @product_cases
    def test_norms_match_dense(self, make, dtype):
        fam = build_family(make(3, 3, 5, dtype))
        dense = [np.linalg.norm(A) for A in fam.normal_forms[fam.shifts]]
        assert np.array_equal(report(fam).norms, dense)

    @product_cases
    def test_defects_match_dense(self, make, dtype):
        fam = build_family(make(3, 3, 5, dtype))
        assert fam.normal_forms.dtype == np.dtype(dtype)
        M = seeded_combination(fam)
        rep = commutation_report(fam, M, 1e-8)
        assert_defects_match_dense(fam, M, rep)
        assert rep.commuting == (make is commuting_system)

    @product_cases
    def test_products_with_eigenbasis_match_dense(self, make, dtype):
        """A_i V = [V; coeffs @ V][shifts[i]]: exact on unit rows, close on the
        others; criterion's coordinates and extraction residual come from it."""
        fam = build_family(make(3, 3, 5, dtype))
        v = criterion(fam)
        V, Z = v.decomposition.eigenvectors, v.coordinates
        stacked = np.concatenate([V, fam.normal_forms[fam.size:] @ V])
        extraction = 0.0
        for i, index in enumerate(fam.shifts):
            A = fam.normal_forms[index]
            AV = A @ V
            unit = index < fam.size
            assert np.array_equal(stacked[index][unit], AV[unit])
            assert np.allclose(stacked[index], AV, rtol=0, atol=64 * EPS * np.linalg.norm(A))
            extraction = max(extraction, float(np.max(np.linalg.norm(AV - V * Z[:, i], axis=0))))
            if v.all_semisimple:
                left = np.linalg.inv(V)
                expected = np.sum(left.T * AV, axis=0)
                assert np.allclose(Z[:, i], expected, rtol=1e-9, atol=1e-9 * np.linalg.norm(A))
        assert v.extraction_residual == pytest.approx(extraction, rel=1e-6, abs=1e-12)

    def test_products_hold_a_few_square_matrices_at_a_time(self):
        # n=60, m=1: #J = 1830 is 30 times #I = 61, so the full product
        # coeffs @ M would take 30 squares and the dense family 60; each
        # commutator multiplies only A_i's coefficient rows
        fam = build_family(random_system(60, 1, 5, float))
        square = fam.size**2 * fam.normal_forms.itemsize
        M = seeded_combination(fam)
        tracemalloc.start()
        try:
            rep = commutation_report(fam, M, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * square
        assert_defects_match_dense(fam, M, rep)

    def test_family_is_normal_forms_and_shifts(self):
        s = commuting_system(3, 3, 5, complex)
        fam = build_family(s)
        assert not hasattr(fam, "matrices")
        assert np.array_equal(fam.normal_forms, np.concatenate([np.eye(len(s.I)), s.coeffs]))
        assert fam.shifts.shape == (3, len(s.I))
