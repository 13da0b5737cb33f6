import json
import tracemalloc

import numpy as np
import pytest

from border_eig import (
    BorderSystem,
    SchemaError,
    SizeLimitError,
    UnknownRelationError,
    border,
    monomial_eval,
    parse_system,
    residual,
    serialize_system,
    system_from_nodes,
    total_degree_set,
)
from border_eig.system import relation_jacobian, relation_values
from conftest import random_lower_set


def univariate(coeff_row):
    """x^{m+1} = sum_j a_j x^j with the given row."""
    m = len(coeff_row) - 1
    I = total_degree_set(1, m)
    return BorderSystem(I, border(I), np.array([coeff_row], dtype=complex))


class TestMonomialEval:
    def test_zero_index_is_one(self):
        assert monomial_eval((0, 0), np.array([3.0, -7.0])) == 1

    def test_hand_value(self):
        assert monomial_eval((2, 1), np.array([2.0, 3.0])) == 12

    def test_complex(self):
        z = np.array([1j, 1j])
        assert monomial_eval((1, 1), z) == pytest.approx(-1)

    def test_zero_to_zero(self):
        assert monomial_eval((0,), np.array([0.0])) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batch_matches_scalar_products(self, n):
        rng = np.random.default_rng(40 + n)
        E = random_lower_set(n, 12, rng).exponents
        Z = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        Z[0] = 0.0  # every monomial but the constant vanishes; 0^0 = 1
        Z[1, 0] = 0.0
        out = monomial_eval(E, Z)
        assert out.shape == (len(Z), len(E))
        for s, z in enumerate(Z):
            for r, beta in enumerate(E):
                expected = 1.0 + 0.0j
                for b, zi in zip(beta, z):
                    expected *= complex(zi) ** int(b)
                assert out[s, r] == pytest.approx(expected, rel=1e-13, abs=0)
        assert np.array_equal(monomial_eval(E, Z[2]), out[2])
        assert np.array_equal(monomial_eval(E[3], Z), out[:, 3])
        assert monomial_eval(E[3], Z[2]) == out[2, 3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            monomial_eval((1, 2, 3), np.array([1.0, 2.0]))


def test_relation_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    I = random_lower_set(3, 10, rng)
    nodes = list(np.exp(2j * np.pi * rng.uniform(size=(len(I), 3))))
    s = system_from_nodes(I, nodes)
    Z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    jac = relation_jacobian(s, Z)
    assert jac.shape == (4, len(s.J), 3)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (relation_values(s, Z + e) - relation_values(s, Z - e)) / (2 * h)
        assert np.allclose(jac[:, :, j], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
    assert np.allclose(relation_jacobian(s, Z[1]), jac[1], rtol=1e-14, atol=0)


class TestEvalRelation:
    def test_root(self):
        s = univariate([1.0, 0.0])  # x^2 = 1
        assert relation_values(s, np.array([1.0])) == pytest.approx([0])

    def test_nonroot(self):
        s = univariate([1.0, 0.0])
        assert relation_values(s, np.array([2.0])) == pytest.approx([3])

    def test_idempotent_relation(self, idempotent_system):
        values = relation_values(idempotent_system, np.array([1.0, 0.0]))
        assert abs(values[idempotent_system.J.members.index((2, 0))]) < 1e-12

    def test_unknown_relation(self):
        s = univariate([1.0, 0.0])
        with pytest.raises(UnknownRelationError):
            s.relation_row((3,))


class TestResidual:
    def test_exact_root(self):
        s = univariate([1.0, 0.0])
        assert residual(s, np.array([-1.0])) <= 1e-12

    def test_at_zero(self):
        s = univariate([1.0, 0.0])
        assert residual(s, np.array([0.0])) == pytest.approx(1.0)

    def test_far_point_positive(self):
        s = univariate([1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.uniform(2, 5, size=1)
            assert residual(s, z) > 0

    def test_scaling_tames_large_roots(self):
        # x^2 = 100^2 has roots +-100; the relative measure stays tiny there
        s = univariate([10000.0, 0.0])
        assert residual(s, np.array([100.0])) <= 1e-12


def test_univariate_horner_cross_check():
    rng = np.random.default_rng(3)
    for m in range(1, 6):
        row = rng.normal(size=m + 1)
        s = univariate(list(row))
        for z in rng.normal(size=4):
            (direct,) = relation_values(s, np.array([z]))
            # Horner oracle for z^{m+1} - sum a_j z^j, leading coefficient 1
            acc = 1.0
            for c in (-row[j] for j in range(m, -1, -1)):
                acc = acc * z + c
            assert direct == pytest.approx(acc, rel=1e-12, abs=1e-12)


class TestSerialization:
    def test_round_trip(self, idempotent_system):
        blob = serialize_system(idempotent_system)
        back = parse_system(blob)
        assert back.I == idempotent_system.I
        assert back.J.members == idempotent_system.J.members
        assert np.array_equal(back.coeffs, idempotent_system.coeffs)

    def test_minimal_file(self):
        text = json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 1, "m": 1},
                "relations": [{"alpha": [2], "coeffs": [1, 0]}],
            }
        )
        s = parse_system(text)
        assert residual(s, np.array([1.0])) <= 1e-12

    def test_basis_emitted(self, idempotent_system):
        obj = json.loads(serialize_system(idempotent_system))
        assert obj["basis"] == [[0, 0], [1, 0], [0, 1]]

    def test_alpha_inside_I(self):
        text = json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 1, "m": 1},
                "relations": [{"alpha": [1], "coeffs": [1, 0]}],
            }
        )
        with pytest.raises(SchemaError, match="inside I"):
            parse_system(text)

    def test_wrong_row_length(self):
        text = json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 2, "m": 1},
                "relations": [
                    {"alpha": [2, 0], "coeffs": [1, 0]},
                    {"alpha": [1, 1], "coeffs": [0, 0, 0]},
                    {"alpha": [0, 2], "coeffs": [0, 0, 1]},
                ],
            }
        )
        with pytest.raises(SchemaError, match="length 2"):
            parse_system(text)

    def test_missing_relation(self):
        text = json.dumps(
            {
                "index_set": {"type": "total_degree", "n": 2, "m": 1},
                "relations": [{"alpha": [2, 0], "coeffs": [0, 1, 0]}],
            }
        )
        with pytest.raises(SchemaError, match="missing relations"):
            parse_system(text)

    def test_wide_index_set_refused_within_small_memory(self):
        # one index of length 3000: its border would hold 3000 indices of
        # length 3000, so admission must come before the border is built
        text = json.dumps({"index_set": {"type": "explicit", "n": 3000, "indices": [[0] * 3000]},
                           "relations": []})
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                parse_system(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_truncated_json(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_system(b'{"index_set": {')

    def test_complex_scalars_round_trip(self):
        I = total_degree_set(1, 1)
        s = BorderSystem(I, border(I), np.array([[1 + 2j, -0.5j]]))
        back = parse_system(serialize_system(s))
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_nonfinite_rejected(self):
        I = total_degree_set(1, 1)
        with pytest.raises(ValueError):
            BorderSystem(I, border(I), np.array([[np.nan, 0.0]]))
