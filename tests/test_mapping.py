"""The rounding of a LinearMap's back-translation.

Back-translated target rows decide `target_assignments.tsv` and the
backward half of `seed_dict.tsv`, so a product that rounds differently
moves artifact bytes even though it is the same map.
"""

import numpy as np
import pytest

from submap.mapping import LinearMap


# with OpenBLAS, `v @ w` differs from the product below in 4 of 10
# entries at (10, 1) and in about 25 of 2100 at (300, 7)
@pytest.mark.parametrize("dim,rows", [(10, 1), (300, 7)])
def test_back_translation_uses_a_contiguous_transpose(dim, rows):
    g = np.random.default_rng(0)
    w = np.linalg.qr(g.normal(size=(dim, dim)))[0]
    v = g.normal(size=(rows, dim))
    expected = v @ np.ascontiguousarray(w.T).T
    got = LinearMap(w).apply_target_back(v, np.arange(rows))
    assert np.array_equal(got, expected)
