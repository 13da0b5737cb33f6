import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from border_eig import (
    BorderSystem,
    SchemaError,
    SizeLimitError,
    border,
    monomial_eval,
    parse_system,
    residual,
    system_from_nodes,
    total_degree_set,
)
from border_eig.cli import _roots_from_json
from border_eig import system
from border_eig.interp import parse_nodes
from border_eig.system import (
    Records,
    RowGather,
    _as_complex,
    _complex_rows,
    dump,
    dumps,
    relation_jacobian,
    relation_values,
)
from conftest import random_lower_set, serialize_system


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


def relations(s, z):
    return relation_values(s, z)[1]


def test_relation_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    I = random_lower_set(3, 10, rng)
    nodes = list(np.exp(2j * np.pi * rng.uniform(size=(len(I), 3))))
    s = system_from_nodes(I, nodes)
    Z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    values, _ = relation_values(s, Z)
    assert values.shape == (4, len(s.I) + len(s.J))
    jac = np.array([relation_jacobian(s, v) for v in values])
    assert jac.shape == (4, len(s.J), 3)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (relations(s, Z + e) - relations(s, Z - e)) / (2 * h)
        assert np.allclose(jac[:, :, j], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
    # one point's stack values are those of its row in a batch
    assert np.array_equal(relation_values(s, Z[1])[0], values[1])


def shifted_gradients(E, z):
    """(k, n): d z^E[r] / d z_j = E[r, j] z^(E[r] - e_j), each column from
    monomial_eval on the shifted exponents."""
    n = E.shape[1]
    out = np.empty(E.shape, dtype=complex)
    for j in range(n):
        out[:, j] = monomial_eval(np.maximum(E - np.eye(n, dtype=E.dtype)[j], 0), z) * E[:, j]
    return out


def test_gathered_jacobian_equals_shifted_exponents():
    # the gather through BorderSet.down gives the shifted-exponent Jacobian
    # value for value (signed zeros aside, where alpha_j = 0)
    rng = np.random.default_rng(17)
    j_to_j = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        I = random_lower_set(n, int(rng.integers(0, 20)), rng)
        J = border(I)
        shape = (len(J), len(I))
        s = BorderSystem(I, J, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        Z = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        Z[0, 0] = 0.0
        values, _ = relation_values(s, Z)
        for z, v in zip(Z, values):
            expected = shifted_gradients(J.exponents, z) - s.coeffs @ shifted_gradients(I.exponents, z)
            assert np.array_equal(relation_jacobian(s, v), expected)
        # alpha in J with alpha - e_j in J: a down table over I alone misses it
        j_to_j += np.any(J.down[:, len(I):] >= len(I))
    assert j_to_j > 0


class TestEvalRelation:
    def test_root(self):
        s = univariate([1.0, 0.0])  # x^2 = 1
        assert relations(s, np.array([1.0])) == pytest.approx([0])

    def test_nonroot(self):
        s = univariate([1.0, 0.0])
        assert relations(s, np.array([2.0])) == pytest.approx([3])

    def test_idempotent_relation(self, idempotent_system):
        values = relations(idempotent_system, np.array([1.0, 0.0]))
        assert abs(values[idempotent_system.J.members.index((2, 0))]) < 1e-12

    def test_stack_values(self, idempotent_system):
        # I = 1, x, y followed by J = x^2, xy, y^2
        values, _ = relation_values(idempotent_system, np.array([2.0, 3.0]))
        assert np.array_equal(values, [1, 2, 3, 4, 6, 9])

    def test_border_of_another_set_refused(self):
        I = total_degree_set(1, 1)
        with pytest.raises(ValueError, match="not the border"):
            BorderSystem(I, border(total_degree_set(1, 2)), np.zeros((1, 2)))


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
            (direct,) = relations(s, np.array([z]))
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


def plain(obj):
    """obj with every array in its list form, complex entries as [re, im] lists."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


_finite = st.floats(allow_nan=False, allow_infinity=False)
_zero_heavy = st.sampled_from([0.0, -0.0]) | _finite  # signed zeros in about half the entries
# (dtype, elements): finite arrays take the formatting fast path, any NaN or
# inf the scalar path
_ELEMENTS = [
    (np.float64, _finite),
    (np.float64, _zero_heavy),
    (np.complex128, st.complex_numbers(allow_nan=False, allow_infinity=False)),
    (np.complex128, st.builds(complex, _zero_heavy, _zero_heavy)),
    (np.float64, st.floats()),
    (np.complex128, st.complex_numbers(allow_nan=True, allow_infinity=True)),
]
_shapes = array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_float_arrays = st.one_of(arrays(dtype, _shapes, elements=elements) for dtype, elements in _ELEMENTS)
# blocks of numbers the writer formats and writes at once: one number, a
# few, and the default, so a small array spans one chunk or many
_block_sizes = st.sampled_from([1, 2, 5, system._BLOCK])


def streamed(obj, block):
    """The text dump writes for obj, with blocks of `block` numbers."""
    out = io.StringIO()
    with mock.patch.object(system, "_BLOCK", block):
        dump(obj, out)
    return out.getvalue()


@st.composite
def _gathers(draw):
    """A RowGather of a finite or non-finite float or complex `rows` (rows of
    any shape, empty ones too) through an index of up to two axes; an index
    of more entries than rows repeats some, and one of fewer leaves some
    unused."""
    dtype, elements = draw(st.sampled_from(_ELEMENTS))
    count = draw(st.integers(1, 4))
    row_shape = draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    rows = draw(arrays(dtype, (count, *row_shape), elements=elements))
    index = draw(arrays(np.intp, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                        elements=st.integers(-count, count - 1)))
    return RowGather(rows, index)


@st.composite
def _records(draw):
    """Records of zero to four records, with float, int, bool or complex
    columns of any trailing shape (empty axes too), finite or not."""
    count = draw(st.integers(0, 4))
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    columns = {}
    for key in keys:
        dtype, elements = draw(st.sampled_from([
            *_ELEMENTS,
            (np.int64, st.integers(-(2**63), 2**63 - 1)),
            (np.bool_, st.booleans()),
        ]))
        trailing = draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
        columns[key] = draw(arrays(dtype, (count, *trailing), elements=elements))
    return Records(columns)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _float_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(obj=_json_values, block=_block_sizes)
    @example(obj=np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e300]), block=1)
    @example(obj=np.array([[0.0, -0.0j], [5e-324 - 5e-324j, 1e16]]), block=5)
    @example(obj=np.array([np.nan, np.inf, -np.inf, -0.0]), block=1)
    @example(obj=np.array([[1 + 1j, complex(0.0, np.nan)]]), block=5)
    @example(obj={"A": np.zeros((2, 0, 3), dtype=complex), "e": np.array([]), "l": [], "d": {}}, block=1)
    @example(obj={"z": np.ones((2, 3, 4)), "n": [None, True, False, -7, "\u00e9\n\""]}, block=5)
    @example(obj=np.zeros((1, 1, 1), dtype=complex) * -1, block=1)
    @example(obj=[np.array([[-0.0, 0.0, 2.5], [0.0, -0.0, 0.0]]), np.eye(3, dtype=complex)], block=5)
    def test_matches_stdlib(self, obj, block):
        expected = json.dumps(plain(obj), indent=2)
        assert dumps(obj) == expected
        assert streamed(obj, block) == expected

    @settings(max_examples=300, deadline=None)
    @given(g=_gathers(), block=_block_sizes)
    @example(g=RowGather(np.array([[-0.0 - 0.0j, 1 - 0.0j], [complex(-0.0, 2.5), 0j]]),
                         np.array([[1, 0], [0, 1]])), block=1)
    @example(g=RowGather(np.array([[1.5, -2.0], [3.0, 4.0]]), np.array([[0, 0, 0], [1, 1, 0]])), block=5)
    @example(g=RowGather(np.array([[1.0 + 0j], [-0.5 - 0.0j]]), np.array([[1], [1]])), block=1)  # #I = 1
    @example(g=RowGather(np.array([[1.0, complex(0.0, np.nan)], [np.inf, -0.0]]),
                         np.array([[0, 1], [1, 1]])), block=5)
    @example(g=RowGather(np.eye(3, dtype=complex), np.array([[1, 2, 2], [2, 2, 1]])), block=2)
    @example(g=RowGather(np.array([[[-0.0]], [[0.0]]]), np.array([[1, 1], [1, 1]])), block=1)
    def test_gather_matches_stdlib(self, g, block):
        dense = np.asarray(g.rows[g.index])
        expected = json.dumps(plain({"A": dense, "l": [dense]}), indent=2)
        assert dumps({"A": g, "l": [g]}) == expected
        assert streamed({"A": g, "l": [g]}, block) == expected

    @settings(max_examples=300, deadline=None)
    @given(r=_records(), block=_block_sizes)
    @example(r=Records({"z": np.array([[1 - 0.0j, complex(-0.0, 2)], [np.nan, 1e300j]]),
                        "residual": np.array([1e-17, np.inf]), "real": np.array([True, False]),
                        "flagged": np.array([False, True])}), block=1)
    @example(r=Records({"alpha": np.array([[2, 0], [1, 1]]), "coeffs": np.ones((2, 3), complex)}), block=5)
    @example(r=Records({"%s": np.array([1.5]), "%": np.array([-0.0]), "%%d": np.array([7])}), block=1)
    @example(r=Records({"eigenvalue": np.zeros(0, complex), "algebraic": np.zeros(0, int)}), block=5)
    @example(r=Records({"alpha": np.array([[3, 0], [2, 1], [1, 2]]),
                        "coeffs": np.array([[-0.0j, 1, 0], [0, -0.0, 0.5j], [0, 0, 0]])}), block=2)
    def test_records_match_stdlib(self, r, block):
        # as a list of the dicts that iterating gives, alone and nested
        assert dumps(r) == streamed(r, block) == json.dumps(plain(list(r)), indent=2)
        nested = {"l": [r, {"r": r}]}
        expected = json.dumps(plain({"l": [list(r), {"r": list(r)}]}), indent=2)
        assert dumps(nested) == streamed(nested, block) == expected

    def test_records_iterate_as_dicts(self):
        z = np.array([[1 + 2j, 3.0], [0.5j, -1.0]])
        r = Records({"z": z, "residual": np.array([0.25, 1e-9]), "real": np.array([True, False]),
                     "count": np.array([3, 4])})
        first, second = list(r)
        assert len(r) == 2 and list(first) == ["z", "residual", "real", "count"]
        assert np.array_equal(first["z"], z[0]) and np.array_equal(second["z"], z[1])
        assert (first["residual"], first["real"], first["count"]) == (0.25, True, 3)
        assert all(type(v) in (float, bool, int) for k, v in second.items() if k != "z")

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            dumps({1: 2})
        with pytest.raises(TypeError):
            dumps({"x": {1, 2}})


# ints beyond 2^53 round to the nearest float, and -0.0 keeps its sign
_numbers = (st.integers(-(2**80), 2**80) | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 2**53 + 1, -(2**53) - 3, 2**63 + 1, -(2**64) - 1]))
_pairs = st.tuples(_numbers, _numbers).map(list)
# entries _as_complex refuses: bools, ints beyond the float range,
# non-finite floats, text, lists that are not pairs, pairs with such a part
_bad = st.one_of(
    st.booleans(),
    st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024)),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=2) | st.none(),
    st.lists(_numbers, max_size=3).filter(lambda x: len(x) != 2),
    st.tuples(_numbers, st.booleans() | st.sampled_from([float("nan"), 2**1100])).map(list),
)


@st.composite
def _blocks(draw):
    """Rows of one width, of bare numbers, [re, im] pairs or both; in half of
    the draws some entries are ones _as_complex refuses."""
    width = draw(st.integers(1, 4))
    entry = _numbers | _pairs | (_bad if draw(st.booleans()) else st.nothing())
    return draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=4))


def entry_by_entry(rows, row_path):
    """Each entry of rows through _as_complex: the (len(rows), width) array,
    or the SchemaError that names the first failing entry."""
    try:
        return np.array([[_as_complex(c, f"{row_path.format(r)}[{j}]") for j, c in enumerate(row)]
                         for r, row in enumerate(rows)], dtype=complex)
    except SchemaError as exc:
        return exc


# each block reader: its row path and how it reads a block
_RELATIONS_2 = [[2, 0], [1, 1], [0, 2]]  # the border of {1, x, y}, canonical order
_READERS = {
    "block": ("rows[{}]", lambda rows: _complex_rows(rows, "rows[{}]", len(rows[0]))),
    "points": ("points[{}]", lambda rows: parse_nodes(
        json.dumps({"n": len(rows[0]), "points": rows}))),
    "solve roots": ("roots[{}].z", lambda rows: _roots_from_json(
        json.loads(json.dumps({"roots": [{"z": row} for row in rows]})), len(rows[0]))),
    "coefficients": ("relations[{}].coeffs", lambda rows: parse_system(json.dumps({
        "index_set": {"type": "total_degree", "n": 2, "m": 1},
        "relations": [{"alpha": a, "coeffs": row} for a, row in zip(_RELATIONS_2, rows)]})).coeffs),
}


class TestCoefficientRow:
    """Every block reader gives what _as_complex gives entry by entry."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_blocks())
    @example(rows=[[-0.0, 0, 5e-324, 2**70 + 1]])
    @example(rows=[[[-0.0, -0.0], [0, -0.0], [-5e-324, 2**70 + 1]]])
    @example(rows=[[[1.0, -0.0], -0.0, 2], [[0, -0.0], 2**70 + 1, [3, 0.5]]])
    @example(rows=[[[1, 0], 2], [True, 0.5]])
    @example(rows=[[1, 2**1100], [float("nan"), "x"]])
    @example(rows=[[0.5, 1], [[1, 2], [2, 3]], [3, 4]])
    @example(rows=[[2**53 + 1, [-0.0, 2**53 + 1]], [-0.0, [2**64 + 1, -0.0]], [[0, 0], -(2**63) - 1]])
    def test_equals_entry_by_entry(self, rows):
        for name, (row_path, read) in _READERS.items():
            if not rows or (name == "coefficients" and (len(rows), len(rows[0])) != (3, 3)):
                continue
            expected = entry_by_entry(rows, row_path)
            if isinstance(expected, SchemaError):
                with pytest.raises(SchemaError) as info:
                    read(rows)
                assert (info.value.path, str(info.value)) == (expected.path, str(expected)), name
            else:
                # equal bytes: the same values, signs of zero included
                got = read(rows)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("row, bad", [
        ([0.5, True], 1),
        ([0.5, "1"], 1),
        ([0.5, 10**400], 1),
        ([[1, 0], [10**400, 0]], 1),
        ([[1, 0], [0, float("inf")]], 1),
        ([0.5, [1]], 1),
        ([0.5, [1, 2, 3]], 1),
        ([[1, 0], [1]], 1),
        ([[1, 0], 2, [0, True]], 2),
        ([[1, 0], 2, "x"], 2),
        ([-0.0, [1, -0.0], 2**1100], 2),
        ([[1, -0.0], float("nan")], 1),
        ([0.5, None], 1),
        ([0.5, {"re": 1}], 1),
        ([[0.5, 1], [1, [2]]], 1),
    ])
    def test_rejected_entry_named(self, row, bad):
        text = json.dumps({"index_set": {"type": "total_degree", "n": 1, "m": len(row) - 1},
                           "relations": [{"alpha": [len(row)], "coeffs": row}]})
        with pytest.raises(SchemaError) as info:
            parse_system(text)
        path = f"relations[0].coeffs[{bad}]"
        with pytest.raises(SchemaError) as entry:
            _as_complex(json.loads(text)["relations"][0]["coeffs"][bad], path)
        assert info.value.path == path and str(info.value) == str(entry.value)


@pytest.mark.parametrize("alpha, path, message", [
    (5, "relations[1].alpha", "expected an array, got 5"),
    ([1, True], "relations[1].alpha[1]", "expected an integer >= 0, got True"),
    ([1, -1], "relations[1].alpha[1]", "expected an integer >= 0, got -1"),
    ([1.0, 1], "relations[1].alpha[0]", "expected an integer >= 0, got 1.0"),
    ([1, "1"], "relations[1].alpha[1]", "expected an integer >= 0, got '1'"),
    ([0, 1], "relations[1].alpha", "alpha [0, 1] inside I"),
    ([0, 3], "relations[1].alpha", "alpha [0, 3] is not in the border of I"),
    ([2, 0], "relations[1]", "duplicate relation for alpha [2, 0]"),
])
def test_alpha_checked_in_one_pass_names_the_entry(alpha, path, message):
    # the exponents are checked all at once; a failing one is named as a
    # check of each entry in turn names it, after the relations before it
    relations = [{"alpha": a, "coeffs": [0, 1, 0]} for a in _RELATIONS_2]
    relations[1]["alpha"] = alpha
    text = json.dumps({"index_set": {"type": "total_degree", "n": 2, "m": 1},
                       "relations": relations})
    with pytest.raises(SchemaError) as info:
        parse_system(text)
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")
    # an earlier relation's error comes first
    relations[0]["coeffs"] = [0, 1]
    with pytest.raises(SchemaError, match="coefficient row has length 2") as info:
        parse_system(json.dumps({"index_set": {"type": "total_degree", "n": 2, "m": 1},
                                 "relations": relations}))
    assert info.value.path == "relations[0].coeffs"
