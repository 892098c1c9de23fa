"""Direct checks of the numpy RK4 kernels below ``kinetics``.

The batch kernel is gated bit for bit against ``oracle_rk4_batch``, its
former implementation: one Python loop over reactions and substrates per
rate-law evaluation, per-row guards on every step, and failed rows masked
out while the others keep integrating. The oracle observes every species
and every reaction rate at once; the kernel observes one of them per call.
"""

import numpy as np
import pytest

from sweatauth import _kernels
from sweatauth.config import default_params_dict
from sweatauth.errors import IntegrationError
from sweatauth.kinetics import CascadeKind, KineticParams, build_cascade, simulate_batch

# the stiff single-reaction network whose rows need step halving at dt = 0.05
STIFF = (np.array([[-1.0, 1.0]]), np.array([1.0]), np.array([0], dtype=np.int64),
         np.array([1e-3]), np.array([0, 1], dtype=np.int64))
STIFF_C0 = np.array([[0.3, 0.0], [1.0, 0.0], [2.0, 0.0]])
# A -> B as stiff as above, then B + C -> D: a one-substrate step padded next
# to a two-substrate one; rows 0 and 2 need halving, and row 4 starts with a
# negative inside the tolerance, which the first step clamps to zero
MIXED = (np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, -1.0, 1.0]]), np.array([1.0, 0.5]),
         np.array([0, 1, 2], dtype=np.int64), np.array([1e-3, 0.2, 0.5]),
         np.array([0, 1, 3], dtype=np.int64))
MIXED_C0 = np.array([[0.3, 0.0, 1.0, 0.0], [1.0, 0.5, 0.2, 0.0],
                     [2.0, 0.0, 3.0, 0.1], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, -5e-10]])


def oracle_rates_batch(C, vmax, sub_idx, sub_km, sub_off):
    V = np.broadcast_to(vmax, (C.shape[0], vmax.shape[0])).copy()
    for j in range(vmax.shape[0]):
        for p in range(sub_off[j], sub_off[j + 1]):
            s = np.maximum(C[:, sub_idx[p]], 0.0)
            V[:, j] *= s / (sub_km[p] + s)
    return V


def oracle_deriv_batch(C, st_dense, vmax, sub_idx, sub_km, sub_off):
    return oracle_rates_batch(C, vmax, sub_idx, sub_km, sub_off) @ st_dense


def oracle_rk4_step_batch(C, h, st_dense, vmax, sub_idx, sub_km, sub_off):
    k1 = oracle_deriv_batch(C, st_dense, vmax, sub_idx, sub_km, sub_off)
    k2 = oracle_deriv_batch(C + (0.5 * h) * k1, st_dense, vmax, sub_idx, sub_km, sub_off)
    k3 = oracle_deriv_batch(C + (0.5 * h) * k2, st_dense, vmax, sub_idx, sub_km, sub_off)
    k4 = oracle_deriv_batch(C + h * k3, st_dense, vmax, sub_idx, sub_km, sub_off)
    return C + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def oracle_rk4_batch(C0, st_dense, vmax, sub_idx, sub_km, sub_off, n_steps, dt):
    """Returns (C_final, Y0, Y_end, sum_y, sum_ty, status, bad_step).

    The Y arrays are [B, n_species + n_rxn]: every species concentration,
    then every reaction rate, at t = 0, at the last grid point reached, and
    summed (plain and times t) over the grid points each row reached.
    """
    def observe(C):
        return np.hstack([C, oracle_rates_batch(C, vmax, sub_idx, sub_km, sub_off)])

    C = np.array(C0, dtype=np.float64)
    B, n_sp = C.shape
    Y = observe(C)
    Y0, sum_y, sum_ty = Y.copy(), Y.copy(), np.zeros_like(Y)
    status = np.zeros(B, dtype=np.int64)
    bad_step = np.full(B, -1, dtype=np.int64)
    live = np.ones(B, dtype=bool)
    for k in range(n_steps):
        C_new = C.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            C_new[live] = oracle_rk4_step_batch(C[live], dt, st_dense, vmax,
                                                sub_idx, sub_km, sub_off)
        finite = np.all(np.isfinite(C_new), axis=1)
        neg = np.any(C_new < -_kernels.NEG_TOL, axis=1)
        trouble = live & (~finite | neg)
        for i in np.nonzero(trouble)[0]:
            c_i = C[i].copy()
            st = _kernels._advance(c_i, dt, st_dense, vmax, sub_idx, sub_km, sub_off)
            if st != _kernels.STATUS_OK:
                status[i] = st
                bad_step[i] = k
                live[i] = False
            else:
                C_new[i] = c_i
        np.maximum(C_new, 0.0, out=C_new)
        C[live] = C_new[live]
        t_next = (k + 1) * dt
        with np.errstate(over="ignore"):
            Y[live] = observe(C[live])
            sum_y[live] += Y[live]
            sum_ty[live] += t_next * Y[live]
    return C, Y0, Y, sum_y, sum_ty, status, bad_step


NAMES = ("C_final", "y0", "y_end", "sum_y", "sum_ty", "status", "bad_step")


def assert_same_as_oracle(C0, compiled, n_steps, dt):
    """rk4_batch observing each species and each rate column equals the oracle's column."""
    want = oracle_rk4_batch(C0, *compiled, n_steps, dt)
    n_sp, n_obs = C0.shape[1], want[1].shape[1]
    for col in range(n_obs):
        rate = col >= n_sp
        got = _kernels.rk4_batch(C0, *compiled, n_steps, dt, col - n_sp if rate else col, rate)
        for name, g, w in zip(NAMES, got, want):
            if name.startswith(("y", "sum")):
                w = w[:, col]
            assert np.array_equal(g, w), (name, col)
    return want


@pytest.mark.parametrize("rows", [1, 7, 375])
@pytest.mark.parametrize("kind", list(CascadeKind))
def test_batch_matches_oracle_bit_for_bit(params, kind, rows):
    net = build_cascade(kind, params)
    rng = np.random.default_rng([list(CascadeKind).index(kind), rows])
    C0 = rng.uniform(0.0, 400.0, (rows, len(net.species)))
    *_, status, _ = assert_same_as_oracle(C0, net.compiled(), 150, 0.02)
    assert not status.any()


@pytest.mark.parametrize("network, C0", [(STIFF, STIFF_C0), (MIXED, MIXED_C0)],
                         ids=["stiff", "mixed"])
def test_halving_rescue_matches_oracle_bit_for_bit(monkeypatch, network, C0):
    rescued = []
    advance = _kernels._advance

    def counted(*args):
        rescued.append(True)
        return advance(*args)

    monkeypatch.setattr(_kernels, "_advance", counted)
    *_, status, _ = assert_same_as_oracle(C0, network, 40, 0.05)
    assert rescued and not status.any()


def test_positive_overflow_alone_is_caught():
    # species 0 is buffered (zero stoichiometry), so species 1 grows to +inf
    # with no NaN or negative anywhere; both rows fail at the same step
    runaway = (np.array([[0.0, 1.0]]), np.array([1e308]), np.array([0], dtype=np.int64),
               np.array([1.0]), np.array([0, 1], dtype=np.int64))
    C0 = np.array([[1.0, 0.0], [2.0, 5.0]])
    *_, status, bad = assert_same_as_oracle(C0, runaway, 10, 1.0)
    assert status.tolist() == [_kernels.STATUS_NONFINITE] * 2
    assert bad.tolist() == [bad[0]] * 2 and bad[0] >= 0


def test_numpy_batch_rescues_rows_needing_halving():
    # stiff rows fall back to the guarded scalar advance inside the batch
    # kernel and must reproduce the scalar trace kernel exactly
    traces = [_kernels.rk4_trace(c0, *STIFF, 40, 0.05) for c0 in STIFF_C0]
    assert all(st == _kernels.STATUS_OK for _, st, _ in traces)
    for col in range(STIFF_C0.shape[1]):
        C, y0, y_end, sum_y, _, status, _ = _kernels.rk4_batch(STIFF_C0, *STIFF, 40, 0.05, col)
        assert np.all(status == _kernels.STATUS_OK)
        assert np.all(C >= 0.0)
        for b, (trace, _, _) in enumerate(traces):
            np.testing.assert_array_equal(C[b], trace[-1])
            assert (y0[b], y_end[b]) == (trace[0, col], trace[-1, col])
            np.testing.assert_allclose(sum_y[b], trace[:, col].sum(), rtol=1e-12)


def _depleting_gldh(glu):
    """GldhA with near-zero Km: each row underflows at the step its Glu runs out."""
    raw = default_params_dict()
    raw["enzymes"]["GlDH"].update(kcat=10.0, km={"Glu": 1e-12, "NADplus": 1e-12})
    net = build_cascade("GldhA", KineticParams.from_dict(raw))
    C0 = np.tile(net.init_vector({}), (len(glu), 1))
    C0[:, net.index("Glu")] = glu
    return net, C0


def test_one_underflowing_row_raises_like_oracle():
    net, C0 = _depleting_gldh([0.0, 30.0, 2.5, 0.0, 40.0])
    *_, status, bad = oracle_rk4_batch(C0, *net.compiled(), 40, 0.01)
    assert status.tolist() == [0, 0, _kernels.STATUS_UNDERFLOW, 0, 0]
    with pytest.raises(IntegrationError, match="step halving exhausted") as exc:
        simulate_batch(net, C0, 0.4, 0.01)
    assert (exc.value.step, exc.value.sim) == (bad[2], 2)


def test_earliest_failing_step_is_reported():
    # Integration stops at the first step in which a row fails, so the row
    # reported is the lowest index among those failing at the earliest step
    # (row 2 here), not the lowest failing index overall (row 1, which the
    # oracle would only fail later).
    net, C0 = _depleting_gldh([0.0, 3.0, 1.0, 1.0])
    *_, status, bad = oracle_rk4_batch(C0, *net.compiled(), 100, 0.01)
    assert status[1] and status[2] and bad[2] < bad[1]
    *_, got_status, got_bad = _kernels.rk4_batch(C0, *net.compiled(), 100, 0.01, 0)
    assert got_status.tolist() == [0, 0, status[2], status[3]]
    assert got_bad.tolist() == [-1, -1, bad[2], bad[3]]
    with pytest.raises(IntegrationError) as exc:
        simulate_batch(net, C0, 1.0, 0.01)
    assert (exc.value.step, exc.value.sim) == (bad[2], 2)
