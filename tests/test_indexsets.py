import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from border_eig import (
    LowerSetError,
    SizeLimitError,
    border,
    total_degree_set,
    validate_lower_set,
)
from border_eig.indexsets import ADMISSION_BUDGET, add_unit, index_set_from_json, sub_unit
from conftest import grlex_key, random_lower_set


def brute_total_degree(n, m):
    """Independent enumeration oracle: filter the full grid by degree."""
    return {a for a in product(range(m + 1), repeat=n) if sum(a) <= m}


class TestTotalDegreeSet:
    def test_univariate_degree_one(self):
        I = total_degree_set(1, 1)
        assert I.members == [(0,), (1,)]

    def test_bivariate_degree_one(self):
        I = total_degree_set(2, 1)
        assert I.members == [(0, 0), (1, 0), (0, 1)]

    def test_n3_m2_cardinality(self):
        # oracle: enumerate all triples with sum <= 2
        oracle = brute_total_degree(3, 2)
        assert len(oracle) == 10
        I = total_degree_set(3, 2)
        assert set(I.members) == oracle

    @pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 3), (4, 2)])
    def test_cardinality_binomial(self, n, m):
        I = total_degree_set(n, m)
        assert len(I) == math.comb(n + m, n)
        assert set(I.members) == brute_total_degree(n, m)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            total_degree_set(5, 20)

    def test_canonical_order_is_positional(self):
        I = total_degree_set(3, 3)
        for k, a in enumerate(I.members):
            assert I.position[a] == k
        assert I.members == sorted(I.members, key=grlex_key)


class TestAdmission:
    @pytest.mark.parametrize("n,m", [(1, 2046), (2, 52)])
    def test_largest_admitted(self, n, m):
        count = math.comb(n + m, n)
        assert n * count * (count + n) <= ADMISSION_BUDGET
        assert len(total_degree_set(n, m)) == count

    @pytest.mark.parametrize("n,m", [(1, 2047), (2, 53)])
    def test_smallest_refused(self, n, m):
        count = math.comb(n + m, n)
        with pytest.raises(SizeLimitError, match=rf"n={n}, #I={count}: .* {n * count * (count + n)} "
                                                 rf"exceeds the admission budget {ADMISSION_BUDGET}"):
            total_degree_set(n, m)

    def test_many_variables_no_recursion(self):
        # each degree slice grows from the last, so n is not a recursion depth
        I = total_degree_set(1500, 0)
        assert I.members == [(0,) * 1500]
        J = border(I)
        assert len(J) == 1500
        assert J.members[0] == (1,) + (0,) * 1499

    def test_explicit_set_admitted_by_length_before_reading(self):
        # a candidate that is not even an index: refused before it is read
        with pytest.raises(SizeLimitError, match="n=3000, #I=1"):
            validate_lower_set([None], 3000)


class TestValidateLowerSet:
    def test_unit_square(self):
        I = validate_lower_set([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        assert len(I) == 4
        assert (1, 1) in I

    def test_closure_violation(self):
        with pytest.raises(LowerSetError, match=r"\(1, 0\)"):
            validate_lower_set([(0, 0), (1, 1)], 2)

    def test_axis_chain(self):
        I = validate_lower_set([(0, 0), (1, 0), (2, 0)], 2)
        assert I.members == [(0, 0), (1, 0), (2, 0)]

    def test_duplicate(self):
        with pytest.raises(LowerSetError, match="duplicate"):
            validate_lower_set([(0, 0), (1, 0), (0, 0)], 2)

    def test_wrong_length(self):
        with pytest.raises(LowerSetError):
            validate_lower_set([(0, 0, 0)], 2)


class TestBorder:
    def test_total_degree_border_is_next_slice(self):
        I = total_degree_set(2, 1)
        J = border(I)
        assert set(J.members) == {(2, 0), (1, 1), (0, 2)}

    def test_singleton(self):
        I = validate_lower_set([(0, 0)], 2)
        assert set(border(I).members) == {(1, 0), (0, 1)}

    def test_unit_square(self):
        I = validate_lower_set(list(product((0, 1), repeat=2)), 2)
        assert set(border(I).members) == {(2, 0), (2, 1), (1, 2), (0, 2)}

    def test_members_have_a_parent_and_a_position(self):
        for I in (total_degree_set(3, 2), validate_lower_set([(0, 0), (1, 0), (2, 0), (0, 1)], 2)):
            J = border(I)
            for alpha in J.members:
                assert any(alpha[i] > 0 and sub_unit(alpha, i) in I for i in range(I.dimension))
            for X in (I, J):
                assert X.dimension == I.dimension
                for a in X.members:
                    assert X.position[a] == X.members.index(a)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (3, 2), (4, 1)])
    def test_border_count_matches_slice_oracle(self, n, m):
        # for total-degree sets the border is the degree-(m+1) slice
        oracle = {a for a in product(range(m + 2), repeat=n) if sum(a) == m + 1}
        assert len(oracle) == math.comb(n + m, n - 1)
        J = border(total_degree_set(n, m))
        assert set(J.members) == oracle


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_random_lower_set_properties(n, steps, seed):
    rng = np.random.default_rng(seed)
    I = random_lower_set(n, steps, rng)
    # closure holds by construction and survives validation
    shuffled = [I.members[k] for k in rng.permutation(len(I))]
    assert validate_lower_set(shuffled, n).members == sorted(I.members, key=grlex_key)
    J = border(I)
    assert J.members == sorted(J.members, key=grlex_key)
    assert not set(J.members) & set(I.members)
    # the union is again downward closed
    validate_lower_set(I.members + J.members, n)


def test_index_set_json_round_trip():
    I = total_degree_set(2, 2)
    assert index_set_from_json(I.to_json()) == I
    sq = validate_lower_set(list(product((0, 1), repeat=2)), 2)
    assert index_set_from_json(sq.to_json()) == sq


def test_down_table_equals_lookup_per_entry():
    # up[i, r] is the stack row of beta_r + e_i, and down is read off up
    # except for its J -> J entries, which only explicit sets like these
    # reach; each entry is the stack row one lookup per entry finds
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        I = random_lower_set(n, int(rng.integers(0, 25)), rng)
        J = border(I)
        row = {a: s for s, a in enumerate(I.members + J.members)}
        assert J.up.tolist() == [[row[add_unit(b, i)] for b in I.members] for i in range(n)]
        expected = [[row[sub_unit(a, j)] if a[j] else 0 for a in I.members + J.members]
                    for j in range(n)]
        assert J.down.tolist() == expected
