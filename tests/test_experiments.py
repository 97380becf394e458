import numpy as np
import pytest

from intlowrank.experiments import random_product_matrix

# The largest entry whose square fits int64: 3037000499**2 < 2**63 - 1.
ROOT_INT64 = 3_037_000_499


class TestRandomProductMatrix:
    def test_largest_safe_box_stays_nonnegative(self):
        A = random_product_matrix(4, 4, 1, 0, ROOT_INT64, seed=0)
        assert A.dtype == np.int64 and (A >= 0).all()

    @pytest.mark.parametrize("rank, lo, hi", [
        (1, 0, 2**63 - 1),
        (1, -(ROOT_INT64 + 1), 0),
        (2, 0, ROOT_INT64),
    ])
    def test_product_beyond_int64_rejected(self, rank, lo, hi):
        with pytest.raises(ValueError, match="can leave int64"):
            random_product_matrix(4, 4, rank, lo, hi, seed=0)
