"""RK4 integration kernels for enzymatic cascade dynamics.

One set of step rules with two entry points: ``rk4_trace`` records
every grid point of a single simulation, and ``rk4_batch`` advances many
simulations of one or more independent networks at once, keeping each
observed signal (a species or a reaction rate) as its endpoints and, for a
slope, its running sums.

State advance semantics:

* classical fixed-step RK4 over the macro grid ``t_k = k*dt``;
* if a step would push any concentration below ``-NEG_TOL`` (absolute, in
  micromolar) the step is retried at half the size, down to ``dt * 2**-20``;
* surviving negatives in ``(-NEG_TOL, 0)`` are clamped to zero;
* a non-finite state aborts with a status flag so callers can raise.

Networks are passed as flat arrays (see ``kinetics.CascadeNetwork.compiled``):
dense stoichiometry plus per-reaction vmax and substrate Michaelis
constants. Multi-substrate saturation factors multiply.

``rk4_batch`` integrates only the live species: each block drops from its
own arrays the species that no step consumes and no signal reads, since they
enter no rate. It stacks its networks into one block-diagonal network
(``block_diagonal``), so every RK4 stage of every network is one set of
numpy calls. It holds the state species-major, ``[n_species, B]``, so
gathering all substrates at once (padded to ``[w, n_rxn]`` with factor 1.0)
copies whole rows and each substrate slot is contiguous; BLAS still gets the
``[B, n_rxn] @ [n_rxn, n_species]`` product of the rates, so every value
keeps its bits. It checks the whole batch once per step. Only when that
check fails are the offending blocks of the offending rows redone, each with
``_advance``, the guarded scalar step of ``rk4_trace``, on the block's own
arrays, so both agree exactly and healthy blocks keep their bits; the batch
ends at the first failed redo. The off-block zeros of the stacked
stoichiometry add exact zeros to each derivative, and
``tests/test_kernels.py`` checks that every block gets the bits of its own
batch. A non-finite rate spreads NaN to the other blocks of its row
(inf * 0); they are then redone as well, and the batch ends at that step,
since the failing block's redo fails too.
"""

from math import isfinite

import numpy as np

BACKEND = "numpy"       # reported as provenance; the only integration path

NEG_TOL = 1e-9          # µM; reject threshold for negative overshoot
MAX_HALVINGS = 20       # smallest substep is dt * 2**-20

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_UNDERFLOW = 2


def _laws(vmax, sub_idx, sub_km, sub_off):
    """Per reaction, (vmax, [(substrate index, Km), ...]) as Python numbers."""
    subs = list(zip(sub_idx.tolist(), sub_km.tolist()))
    off = sub_off.tolist()
    return [(v, subs[off[j]:off[j + 1]]) for j, v in enumerate(vmax.tolist())]


def _deriv(c, st_t, laws):
    """Derivative at the state ``c``, a list of floats; st_t is ``st_dense.T``."""
    rates = []
    for r, subs in laws:
        for i, km in subs:
            s = c[i]
            if s < 0.0:
                s = 0.0
            r *= s / (km + s)
        rates.append(r)
    return (st_t @ np.array(rates)).tolist()


def _rk4_step(c, h, st_t, laws):
    h2, h6 = 0.5 * h, h / 6.0
    k1 = _deriv(c, st_t, laws)
    k2 = _deriv([a + h2 * b for a, b in zip(c, k1)], st_t, laws)
    k3 = _deriv([a + h2 * b for a, b in zip(c, k2)], st_t, laws)
    k4 = _deriv([a + h * b for a, b in zip(c, k3)], st_t, laws)
    return [a + h6 * (((p + 2.0 * q) + 2.0 * r) + s) for a, p, q, r, s in zip(c, k1, k2, k3, k4)]


def _advance(c, dt, st_dense, vmax, sub_idx, sub_km, sub_off):
    """Advance the array c one macro step of size dt in place, with halving guard.

    The step runs on Python floats with the float operations of the batch
    kernel in its order and the same BLAS product for the derivative, so a
    state gets the same bits from either. Returns status.
    """
    st_t, laws = st_dense.T, _laws(vmax, sub_idx, sub_km, sub_off)
    x = c.tolist()
    t_left = dt
    h = dt
    min_h = dt * 2.0 ** -MAX_HALVINGS
    # non-finite intermediates are legal here; they surface as a status
    with np.errstate(invalid="ignore", over="ignore"):
        while t_left > 0.0:
            if h > t_left:
                h = t_left
            try:
                x_new = _rk4_step(x, h, st_t, laws)
            except ZeroDivisionError:  # in numpy, x / 0 makes the step NaN or inf
                return STATUS_NONFINITE
            if not all(map(isfinite, x_new)):
                return STATUS_NONFINITE
            if min(x_new) < -NEG_TOL:
                h *= 0.5
                if h < min_h:
                    return STATUS_UNDERFLOW
                continue
            x = [a if a > 0.0 else 0.0 for a in x_new]  # as np.maximum(x_new, 0.0): -0.0 -> 0.0
            c[:] = x
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


def block_diagonal(blocks):
    """Flat arrays of the disjoint union of networks given as flat arrays.

    The stoichiometry is block-diagonal, vmax and the substrate Km are
    concatenated, and substrate indices are offset by each block's first
    species.
    """
    st_dense = np.zeros((sum(b[0].shape[0] for b in blocks), sum(b[0].shape[1] for b in blocks)))
    sub_idx, sub_off, r0, s0 = [], [np.zeros(1, dtype=np.int64)], 0, 0
    for st, _, idx, _, off in blocks:
        st_dense[r0:r0 + st.shape[0], s0:s0 + st.shape[1]] = st
        sub_idx.append(idx + s0)
        sub_off.append(off[1:] + sub_off[-1][-1])
        r0, s0 = r0 + st.shape[0], s0 + st.shape[1]
    return (st_dense, np.concatenate([b[1] for b in blocks]), np.concatenate(sub_idx),
            np.concatenate([b[3] for b in blocks]), np.concatenate(sub_off))


def rk4_batch(C0, blocks, n_steps, dt, signals, sums=False):
    """Integrate a batch of initial states of independent networks as one system.

    blocks holds each network's flat arrays; a row of C0 is the networks'
    states side by side, in block order. signals is a sequence of
    (column, rate) pairs: y is species ``column`` of the row, or with
    ``rate`` the rate of reaction ``column`` (both counted across blocks).
    Returns (C_final, y0, y_end, sum_y, sum_ty, status, bad_step): C_final
    holds the live species in column order, the y arrays are [B, len(signals)],
    status and bad_step [B, len(blocks)]; with sums, the sums of y and t*y run
    over grid points k = 0..n_steps, or to a failed step, else they are None.
    Dead species fail no row: one that would overflow is not integrated.
    """
    columns = np.array([int(c) for c, _ in signals], dtype=np.int64)
    rate_at = np.array([bool(r) for _, r in signals], dtype=bool)
    species = columns[~rate_at]
    starts = np.cumsum([0] + [b[0].shape[1] for b in blocks])
    # a species that no step consumes enters no rate: unread, it is dead
    used = np.zeros(starts[-1], dtype=bool)
    used[np.concatenate([species] + [b[2] + lo for b, lo in zip(blocks, starts)])] = True
    live = np.flatnonzero(used)
    keep = [live[(lo <= live) & (live < hi)] - lo for lo, hi in zip(starts, starts[1:])]
    blocks = [(st[:, k], vmax, np.searchsorted(k, idx), km, off)
              for (st, vmax, idx, km, off), k in zip(blocks, keep)]
    columns[~rate_at] = np.searchsorted(live, species)
    starts = np.cumsum([0] + [len(k) for k in keep])
    st_dense, vmax, sub_idx, sub_km, sub_off = block_diagonal(blocks)
    C = np.array(np.transpose(C0)[live], dtype=np.float64, order="C")  # [n_live, B]
    B = C.shape[1]
    n_sub = np.diff(sub_off)
    pad = np.arange(max(int(n_sub.max(initial=0)), 1)) >= n_sub[:, None]  # [n_rxn, w]
    padded = pad.any()
    # [w, n_rxn], filled reaction by reaction: F[q] is substrate slot q of every reaction
    idx, km = np.zeros(pad.T.shape, dtype=np.int64), np.ones(pad.T.shape)
    idx.T[~pad], km.T[~pad] = sub_idx, sub_km
    km = np.repeat(km[..., None], B, axis=2)  # km and vmax tiled: contiguous ops
    vmax_b = np.repeat(vmax[:, None], B, axis=1)
    F, D, V = np.empty_like(km), np.empty_like(km), np.empty_like(vmax_b)

    def rhs(X, out, clamp=True):  # rates (vmax * f0) * f1 ... into V, then V.T @ st_dense
        np.take(X, idx, axis=0, out=F, mode="clip")  # unbuffered; indices are valid
        if clamp:  # a state clamped at the end of a step holds no negative and no -0.0
            np.maximum(F, 0.0, out=F)
        np.divide(F, np.add(km, F, out=D), out=F)
        if padded:
            F[pad.T] = 1.0
        np.multiply(vmax_b, F[0], out=V)
        for q in range(1, len(F)):
            np.multiply(V, F[q], out=V)
        np.matmul(V.T, st_dense, out=out.T)  # BLAS gets the [B, n_rxn] @ [n_rxn, n_sp] product

    def observe(X):  # the signals at state X, whose rates rhs has just put in V
        y = np.take(X, columns, axis=0, mode="clip")  # rate rows are overwritten
        y[rate_at] = V[columns[rate_at]]
        return y

    status = np.zeros((B, len(blocks)), dtype=np.int64)
    bad_step = np.full(status.shape, -1, dtype=np.int64)
    k1, k2, k3, k4, X = K = np.empty((5,) + C.shape)  # K[1:3], k2 and k3, double in one call
    with np.errstate(invalid="ignore", over="ignore"):
        rhs(C, k1)  # fills V with the rates at C, the first stage of every step
        y0 = observe(C)
        sum_y, sum_ty = y0.copy(), np.zeros_like(y0)  # t=0 adds nothing to sum_ty
        for k in range(n_steps):
            rhs(np.add(C, np.multiply(k1, 0.5 * dt, out=X), out=X), k2)
            rhs(np.add(C, np.multiply(k2, 0.5 * dt, out=X), out=X), k3)
            rhs(np.add(C, np.multiply(k3, dt, out=X), out=X), k4)
            # C + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), the order of _rk4_step
            np.multiply(K[1:3], 2.0, out=K[1:3])
            np.add(np.add(k1, k2, out=k1), k3, out=k1)
            np.add(C, np.multiply(np.add(k1, k4, out=k1), dt / 6.0, out=k1), out=X)
            # one check for the whole batch (a NaN fails it); only the blocks
            # in trouble are redone, each with its own arrays
            if not (X.min() >= -NEG_TOL and X.max() < np.inf):
                bad = ~np.isfinite(X) | (X < -NEG_TOL)
                trouble = np.logical_or.reduceat(bad, starts[:-1], axis=0).T  # [B, n_blocks]
                for i, b in zip(*np.nonzero(trouble)):
                    c = C[starts[b]:starts[b + 1], i].copy()  # block b of row i is a column
                    status[i, b] = _advance(c, dt, *blocks[b])
                    X[starts[b]:starts[b + 1], i] = c
                if status.any():
                    bad_step[status != STATUS_OK] = k
                    rhs(C, k1)  # the rates at C again, for y_end
                    break
            np.maximum(X, 0.0, out=X)
            C, X = X, C
            rhs(C, k1, clamp=False)
            if sums:
                y = observe(C)
                sum_y += y
                sum_ty += y * ((k + 1) * dt)
        y_end = observe(C)
    sum_y, sum_ty = (sum_y.T, sum_ty.T) if sums else (None, None)
    return C.T, y0.T, y_end.T, sum_y, sum_ty, status, bad_step  # [B, ...] views
