from itertools import product

import numpy as np
import pytest

from border_eig import (
    UnisolvenceError,
    border,
    monomial_eval,
    residual,
    solve,
    system_from_nodes,
    total_degree_set,
    validate_lower_set,
)
from border_eig.interp import parse_nodes

from conftest import matching_error, random_separated_nodes


def corner_nodes():
    return [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def vandermonde(I, nodes):
    """The first #I columns of the monomial stack at the nodes."""
    return monomial_eval(border(I).stack, np.array(nodes))[:, :len(I)]


def relation_row(s, alpha):
    return s.coeffs[s.J.position[alpha]]


class TestVandermonde:
    def test_corner_nodes(self):
        V = vandermonde(total_degree_set(2, 1), corner_nodes())
        assert np.allclose(V, [[1, 0, 0], [1, 1, 0], [1, 0, 1]])

    def test_univariate(self):
        V = vandermonde(total_degree_set(1, 1), [np.array([0.0]), np.array([1.0])])
        assert np.allclose(V, [[1, 0], [1, 1]])

    def test_repeated_node_rows_coincide(self):
        z = np.array([0.3, -0.2])
        V = vandermonde(total_degree_set(2, 1), [z, z, np.array([1.0, 1.0])])
        assert np.array_equal(V[0], V[1])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="nodes of shape"):
            system_from_nodes(total_degree_set(2, 1), corner_nodes()[:2])
        with pytest.raises(ValueError, match="non-finite"):
            system_from_nodes(total_degree_set(2, 1), [*corner_nodes()[:2], np.array([0, np.inf])])


class TestPoisedness:
    def test_corner_nodes_poised(self):
        rep = system_from_nodes(total_degree_set(2, 1), corner_nodes()).poisedness
        assert rep.poised
        assert rep.condition < 10

    def test_collinear_not_poised(self):
        nodes = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        with pytest.raises(UnisolvenceError) as exc:
            system_from_nodes(total_degree_set(2, 1), nodes)
        rep = exc.value.report
        assert not rep.poised
        assert rep.smallest_singular_value <= 1e-10 * rep.largest_singular_value

    def test_grid_on_unit_square(self):
        I = validate_lower_set(list(product((0, 1), repeat=2)), 2)
        nodes = [np.array(p, dtype=float) for p in product((0.0, 1.0), repeat=2)]
        rep = system_from_nodes(I, nodes).poisedness
        assert rep.poised


class TestInterpolate:
    """Interpolation of the border monomials at the nodes, done by system_from_nodes."""

    def test_unpoised_raises(self):
        nodes = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        with pytest.raises(UnisolvenceError) as exc:
            system_from_nodes(total_degree_set(2, 1), nodes)
        assert exc.value.report is not None


class TestSystemFromNodes:
    def test_idempotent_synthesis(self):
        s = system_from_nodes(total_degree_set(2, 1), corner_nodes())
        expected = {
            (2, 0): [0, 1, 0],  # x^2 = x
            (1, 1): [0, 0, 0],  # xy = 0
            (0, 2): [0, 0, 1],  # y^2 = y
        }
        for alpha, row in expected.items():
            assert np.allclose(relation_row(s, alpha), row, atol=1e-12)

    def test_pm_one_nodes(self):
        s = system_from_nodes(
            total_degree_set(1, 1), [np.array([-1.0]), np.array([1.0])]
        )
        assert np.allclose(relation_row(s, (2,)), [1, 0], atol=1e-14)  # x^2 = 1

    def test_unit_square_grid(self):
        I = validate_lower_set(list(product((0, 1), repeat=2)), 2)
        nodes = [np.array(p, dtype=float) for p in product((0.0, 1.0), repeat=2)]
        s = system_from_nodes(I, nodes)
        basis = {b: k for k, b in enumerate(I.members)}
        x_pos, y_pos, xy_pos = basis[(1, 0)], basis[(0, 1)], basis[(1, 1)]

        def row_of(mono):
            out = np.zeros(len(I))
            out[basis[mono]] = 1.0
            return out

        assert np.allclose(relation_row(s, (2, 0)), row_of((1, 0)), atol=1e-12)
        assert np.allclose(relation_row(s, (0, 2)), row_of((0, 1)), atol=1e-12)
        assert np.allclose(relation_row(s, (2, 1)), row_of((1, 1)), atol=1e-12)
        assert np.allclose(relation_row(s, (1, 2)), row_of((1, 1)), atol=1e-12)

    def test_nodes_are_roots(self):
        rng = np.random.default_rng(13)
        I = total_degree_set(3, 1)
        nodes = random_separated_nodes(rng, 3, len(I), sep=0.1)
        s = system_from_nodes(I, nodes)
        for z in nodes:
            assert residual(s, z) <= 1e-10

    def test_repeated_node_raises(self):
        z = np.array([0.5, 0.5])
        with pytest.raises(UnisolvenceError):
            system_from_nodes(total_degree_set(2, 1), [z, z, np.array([0.0, 0.0])])

    def test_carries_poisedness_report(self):
        rng = np.random.default_rng(19)
        I = total_degree_set(2, 2)
        nodes = random_separated_nodes(rng, 2, len(I), sep=0.1)
        s = system_from_nodes(I, nodes, tol=1e-9)
        sv = np.linalg.svd(vandermonde(I, nodes), compute_uv=False)
        rep = s.poisedness
        assert (rep.smallest_singular_value, rep.largest_singular_value) == (sv[-1], sv[0])
        assert rep.condition == sv[0] / sv[-1] and rep.poised
        assert s.poisedness.tolerance_used == 1e-9
        assert "poisedness" not in repr(s)


class TestRoundTrip:
    def test_random_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            I = total_degree_set(n, m)
            if len(I) > 20:
                continue
            nodes = random_separated_nodes(rng, n, len(I), sep=0.05)
            sol = solve(system_from_nodes(I, nodes))
            assert sol.verdict.maximal
            assert sol.distinct_count == len(I)
            assert matching_error(sol.roots, nodes) <= 1e-6

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(43)
        I = total_degree_set(2, 1)
        nodes = random_separated_nodes(rng, 2, len(I), sep=0.3)
        for t in (2.0, -0.5, 3.0):
            scaled = [t * z for z in nodes]
            sol = solve(system_from_nodes(I, scaled))
            assert matching_error(sol.roots, scaled) <= 1e-6 * max(1, abs(t))


class TestNodeParsing:
    def test_bare_reals(self):
        nodes = parse_nodes('{"n": 2, "points": [[0, 0], [1, 0], [0, 1]]}')
        assert len(nodes) == 3
        assert np.array_equal(nodes[1], np.array([1 + 0j, 0j]))

    def test_complex_pairs(self):
        nodes = parse_nodes('{"n": 1, "points": [[[0, 1]], [[0, -1]]]}')
        assert nodes[0][0] == 1j and nodes[1][0] == -1j
