import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq.linalg import (contract, invariant_factors_from_cyclic,
                          mat_pow_mod, rref_mod)


class TestCyclicInvariants:
    def test_merge(self):
        assert invariant_factors_from_cyclic([2, 4, 3]) == [2, 12]
        assert invariant_factors_from_cyclic([2, 2, 2, 4]) == [2, 2, 2, 4]
        assert invariant_factors_from_cyclic([6]) == [6]
        assert invariant_factors_from_cyclic([]) == []

    @given(st.lists(st.integers(1, 12), max_size=5))
    @settings(max_examples=100)
    def test_order_preserved_and_chain(self, orders):
        inv = invariant_factors_from_cyclic(orders)
        assert math.prod(inv) == math.prod(orders)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


class TestModP:
    def test_rref_pivots(self):
        m, pivots = rref_mod([[1, 2], [2, 4]], 5)
        assert m.shape[0] == 1 and pivots == [0]

    def test_mat_pow(self):
        m = np.array([[0, 1], [0, 0]])
        assert not mat_pow_mod(m, 2, 2).any()
        assert np.array_equal(mat_pow_mod(m, 0, 2), np.eye(2, dtype=int))


# (shape of a, shape of b): the Lie ring's contractions, and zero-length
# shared, leading and trailing axes
CONTRACTIONS = [((4,), (4, 3, 2)), ((3, 4), (4, 5)), ((2, 3, 4), (4, 3, 5)),
                ((5,), (5,)), ((0,), (0, 2, 3)), ((2, 0), (0, 3)),
                ((0, 3), (3, 2)), ((2, 3), (3, 0)), ((2, 3, 0), (0, 4, 1))]


@pytest.mark.parametrize("shapes", CONTRACTIONS)
def test_contract_matches_einsum(shapes):
    rng = np.random.default_rng(sum(map(sum, shapes)))
    a = rng.integers(-50, 50, size=shapes[0], dtype=np.int64)
    b = rng.integers(-50, 50, size=shapes[1], dtype=np.int64)
    got = contract(a, b)
    lhs = "abc"[:a.ndim - 1] + "m"
    rhs = "m" + "xyz"[:b.ndim - 1]
    want = np.einsum(f"{lhs},{rhs}->{lhs[:-1] + rhs[1:]}", a, b)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_mat_pow_mod_matches_matmul(n, p):
    rng = np.random.default_rng(10 * n + p)
    m = rng.integers(-20, 20, size=(n, n), dtype=np.int64)
    want = np.eye(n, dtype=np.int64)
    for k in range(10):
        assert np.array_equal(mat_pow_mod(m, k, p), want)
        want = np.matmul(want, m) % p
