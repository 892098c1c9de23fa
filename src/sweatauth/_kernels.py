"""RK4 integration kernels for enzymatic cascade dynamics.

One numpy implementation with two entry points: ``rk4_trace`` records
every grid point of a single simulation, and ``rk4_batch`` advances many
simulations at once in vectorized steps, keeping only running feature
sums. A batch row whose step needs halving is redone with the guarded
scalar advance that ``rk4_trace`` uses, so the two agree exactly.

State advance semantics:

* classical fixed-step RK4 over the macro grid ``t_k = k*dt``;
* if a step would push any concentration below ``-NEG_TOL`` (absolute, in
  micromolar) the step is retried at half the size, down to ``dt * 2**-20``;
* surviving negatives in ``(-NEG_TOL, 0)`` are clamped to zero;
* a non-finite state aborts with a status flag so callers can raise.

Networks are passed as flat arrays (see ``kinetics.CascadeNetwork.compiled``):
dense stoichiometry plus per-reaction vmax and substrate Michaelis
constants. Multi-substrate saturation factors multiply.
"""

import numpy as np

BACKEND = "numpy"       # reported as provenance; the only integration path

NEG_TOL = 1e-9          # µM; reject threshold for negative overshoot
MAX_HALVINGS = 20       # smallest substep is dt * 2**-20

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_UNDERFLOW = 2


def _deriv(c, st_dense, vmax, sub_idx, sub_km, sub_off):
    """Derivative for a single state vector ``c`` of shape [n_species]."""
    n_rxn = vmax.shape[0]
    v = vmax.copy()
    for j in range(n_rxn):
        for p in range(sub_off[j], sub_off[j + 1]):
            s = c[sub_idx[p]]
            if s < 0.0:
                s = 0.0
            v[j] *= s / (sub_km[p] + s)
    return st_dense.T @ v


def _deriv_batch(C, st_dense, vmax, sub_idx, sub_km, sub_off):
    """Derivative for a batch of states ``C`` of shape [B, n_species]."""
    n_rxn = vmax.shape[0]
    V = np.broadcast_to(vmax, (C.shape[0], n_rxn)).copy()
    for j in range(n_rxn):
        for p in range(sub_off[j], sub_off[j + 1]):
            s = np.maximum(C[:, sub_idx[p]], 0.0)
            V[:, j] *= s / (sub_km[p] + s)
    return V @ st_dense


def _rk4_step(c, h, st_dense, vmax, sub_idx, sub_km, sub_off):
    k1 = _deriv(c, st_dense, vmax, sub_idx, sub_km, sub_off)
    k2 = _deriv(c + (0.5 * h) * k1, st_dense, vmax, sub_idx, sub_km, sub_off)
    k3 = _deriv(c + (0.5 * h) * k2, st_dense, vmax, sub_idx, sub_km, sub_off)
    k4 = _deriv(c + h * k3, st_dense, vmax, sub_idx, sub_km, sub_off)
    return c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_batch(C, h, st_dense, vmax, sub_idx, sub_km, sub_off):
    k1 = _deriv_batch(C, st_dense, vmax, sub_idx, sub_km, sub_off)
    k2 = _deriv_batch(C + (0.5 * h) * k1, st_dense, vmax, sub_idx, sub_km, sub_off)
    k3 = _deriv_batch(C + (0.5 * h) * k2, st_dense, vmax, sub_idx, sub_km, sub_off)
    k4 = _deriv_batch(C + h * k3, st_dense, vmax, sub_idx, sub_km, sub_off)
    return C + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

def _advance(c, dt, st_dense, vmax, sub_idx, sub_km, sub_off):
    """Advance one macro step of size dt with halving guard. Returns status."""
    t_left = dt
    h = dt
    min_h = dt * 2.0 ** -MAX_HALVINGS
    while t_left > 0.0:
        if h > t_left:
            h = t_left
        # non-finite intermediates are legal here; they surface as a status
        with np.errstate(invalid="ignore", over="ignore"):
            c_new = _rk4_step(c, h, st_dense, vmax, sub_idx, sub_km, sub_off)
        if not np.all(np.isfinite(c_new)):
            return STATUS_NONFINITE
        if np.any(c_new < -NEG_TOL):
            h *= 0.5
            if h < min_h:
                return STATUS_UNDERFLOW
            continue
        np.maximum(c_new, 0.0, out=c_new)
        c[:] = c_new
        t_left -= h
        if h < dt:
            h *= 2.0
    return STATUS_OK


def rk4_trace(c0, st_dense, vmax, sub_idx, sub_km, sub_off, n_steps, dt):
    """Integrate a single initial state, recording every grid point.

    Returns (trace[n_steps+1, n_species], status, bad_step).
    """
    n_sp = c0.shape[0]
    out = np.empty((n_steps + 1, n_sp))
    out[0] = c0
    c = c0.astype(np.float64).copy()
    for k in range(n_steps):
        status = _advance(c, dt, st_dense, vmax, sub_idx, sub_km, sub_off)
        if status != STATUS_OK:
            return out[: k + 1], status, k
        out[k + 1] = c
    return out, STATUS_OK, -1


def rk4_batch(C0, st_dense, vmax, sub_idx, sub_km, sub_off, n_steps, dt):
    """Integrate a batch of initial states, keeping running feature sums.

    Returns (C_final, sum_c, sum_tc, status[B], bad_step[B]) where the sums
    run over all grid points k = 0..n_steps (value and time*value).
    """
    C = np.array(C0, dtype=np.float64)
    B, n_sp = C.shape
    sum_c = C.copy()
    sum_tc = np.zeros_like(C)  # t=0 contributes nothing
    status = np.zeros(B, dtype=np.int64)
    bad_step = np.full(B, -1, dtype=np.int64)
    live = np.ones(B, dtype=bool)
    for k in range(n_steps):
        C_new = C.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            C_new[live] = _rk4_step_batch(C[live], dt, st_dense, vmax, sub_idx, sub_km, sub_off)
        finite = np.all(np.isfinite(C_new), axis=1)
        neg = np.any(C_new < -NEG_TOL, axis=1)
        trouble = live & (~finite | neg)
        for i in np.nonzero(trouble)[0]:
            # rare path: redo this macro step with the guarded scalar advance
            c_i = C[i].copy()
            st = _advance(c_i, dt, st_dense, vmax, sub_idx, sub_km, sub_off)
            if st != STATUS_OK:
                status[i] = st
                bad_step[i] = k
                live[i] = False
            else:
                C_new[i] = c_i
        np.maximum(C_new, 0.0, out=C_new)
        C[live] = C_new[live]
        t_next = (k + 1) * dt
        sum_c[live] += C[live]
        sum_tc[live] += t_next * C[live]
    return C, sum_c, sum_tc, status, bad_step

