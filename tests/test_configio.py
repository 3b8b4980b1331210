import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from alphafractal.configio import CURVE_BLOCK_ROWS, write_curve_csv

from reference import ref_write_curve_csv

# Signed zeros, the subnormal range, its edge with the normals, and the ends
# of the finite range: the values where %.17g output is easiest to get wrong.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
           2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, -2.5]
LENGTHS = [1, 2, CURVE_BLOCK_ROWS - 1, CURVE_BLOCK_ROWS, CURVE_BLOCK_ROWS + 1]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(LENGTHS),
    pool=st.lists(st.one_of(st.sampled_from(SPECIAL),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=64),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=CURVE_BLOCK_ROWS + 1, pool=SPECIAL, seed=0)
def test_curve_bytes_match_loop_writer(n, pool, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(pool, dtype=float)
    cols = [values[rng.integers(values.size, size=n)] for _ in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_curve_csv(got, *cols)
        ref_write_curve_csv(want, *cols)
        assert got.read_bytes() == want.read_bytes()
