import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq.linalg import invariant_factors_from_cyclic, mat_pow_mod, rref_mod


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
