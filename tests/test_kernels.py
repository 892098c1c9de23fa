"""Direct checks of the numpy RK4 kernels below ``kinetics``."""

import numpy as np

from sweatauth import _kernels


def test_numpy_batch_rescues_rows_needing_halving():
    # stiff rows fall back to the guarded scalar advance inside the batch
    # kernel and must reproduce the scalar trace kernel exactly
    st_dense = np.array([[-1.0, 1.0]])
    vmax = np.array([1.0])
    sub_idx = np.array([0], dtype=np.int64)
    sub_km = np.array([1e-3])
    sub_off = np.array([0, 1], dtype=np.int64)
    C0 = np.array([[0.3, 0.0], [1.0, 0.0], [2.0, 0.0]])
    C, sum_c, sum_tc, status, bad = _kernels.rk4_batch(
        C0, st_dense, vmax, sub_idx, sub_km, sub_off, 40, 0.05)
    assert np.all(status == _kernels.STATUS_OK)
    assert np.all(C >= 0.0)
    for b in range(3):
        trace, st, _ = _kernels.rk4_trace(
            C0[b], st_dense, vmax, sub_idx, sub_km, sub_off, 40, 0.05)
        assert st == _kernels.STATUS_OK
        np.testing.assert_array_equal(C[b], trace[-1])
        np.testing.assert_allclose(sum_c[b], trace.sum(axis=0), rtol=1e-12)
