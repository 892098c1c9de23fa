"""RK4 integration kernel for enzymatic cascade dynamics.

One step rule (``_step``) with two entry points: ``rk4_batch`` advances many
simulations of one or more independent networks at once, keeping each
observed signal (a species or a reaction rate) as its endpoints and, for a
slope, its running sums; ``rk4_trace`` is a one-row ``rk4_batch`` that
observes every species and records every grid point.

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
check fails are the offending blocks of the offending rows redone
(``_rescue``), as one sub-batch of columns per block on the block's own
arrays, so healthy blocks keep their bits; the batch ends at the first
failed redo. The off-block zeros of the stacked stoichiometry add exact
zeros to each derivative, and ``tests/test_kernels.py`` checks that every
block gets the bits of its own batch. A non-finite rate spreads NaN to the
other blocks of its row (inf * 0); they are then redone as well, and the
batch ends at that step, since the failing block's redo fails too.
"""

import numpy as np

BACKEND = "numpy"       # reported as provenance; the only integration path

NEG_TOL = 1e-9          # µM; reject threshold for negative overshoot
MAX_HALVINGS = 20       # smallest substep is dt * 2**-20

STATUS_OK = 0
STATUS_NONFINITE = 1
STATUS_UNDERFLOW = 2


def _rates(st_dense, vmax, sub_idx, sub_km, sub_off, B):
    """rhs(X, out) of a network for B species-major states, and the [n_rxn, B]
    buffer V into which each call puts the rates at X."""
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

    return rhs, V


def _step(rhs, C, h, stages, X):
    """X = C advanced one RK4 step of h, a float or one per column; stages is
    (k1, k2, k3, k4, k23), k1 the derivative at C and k23 a view of k2 and k3."""
    k1, k2, k3, k4, k23 = stages
    rhs(np.add(C, np.multiply(k1, 0.5 * h, out=X), out=X), k2)
    rhs(np.add(C, np.multiply(k2, 0.5 * h, out=X), out=X), k3)
    rhs(np.add(C, np.multiply(k3, h, out=X), out=X), k4)
    # C + (h/6) * (((k1 + 2 k2) + 2 k3) + k4); k2 and k3 double in one call
    np.multiply(k23, 2.0, out=k23)
    np.add(np.add(k1, k2, out=k1), k3, out=k1)
    np.add(C, np.multiply(np.add(k1, k4, out=k1), h / 6.0, out=k1), out=X)


def _rescue(C, dt, block):
    """Advance the columns of C, species-major states of one network, by dt in place.

    Each column halves its own step size while a step would leave a
    concentration below -NEG_TOL, and doubles it after each accepted step,
    until it has covered dt. Returns each column's status; a failed column
    stops where it was.
    """
    m = C.shape[1]
    rhs, _ = _rates(*block, m)
    K, X = np.empty((4,) + C.shape), np.empty_like(C)
    stages, status = (*K, K[1:3]), np.zeros(m, dtype=np.int64)
    t_left, h, min_h = np.full(m, dt), np.full(m, dt), dt * 2.0 ** -MAX_HALVINGS
    run = status == STATUS_OK  # columns still stepping; the others are stepped and dropped
    while run.any():
        np.minimum(h, t_left, out=h)
        rhs(C, K[0])
        _step(rhs, C, h, stages, X)
        status[run & ~np.isfinite(X).all(axis=0)] = STATUS_NONFINITE
        run &= status == STATUS_OK
        neg = run & (X < -NEG_TOL).any(axis=0)
        h[neg] *= 0.5
        status[neg & (h < min_h)] = STATUS_UNDERFLOW
        ok = run & ~neg
        C[:, ok] = np.maximum(X[:, ok], 0.0)
        t_left[ok] -= h[ok]
        h[ok & (h < dt)] *= 2.0
        run &= (status == STATUS_OK) & (t_left > 0.0)
    return status


def rk4_trace(c0, st_dense, vmax, sub_idx, sub_km, sub_off, n_steps, dt):
    """Integrate a single initial state as a one-row ``rk4_batch`` that observes,
    and so keeps, every species. Returns (trace[n_steps+1, n_species], status, bad_step)."""
    n_sp = c0.shape[0]
    record = np.empty((n_steps + 1, n_sp, 1))
    *_, status, bad = rk4_batch(c0[None], [(st_dense, vmax, sub_idx, sub_km, sub_off)], n_steps,
                                dt, [(i, False) for i in range(n_sp)], record=record)
    status, bad = int(status[0, 0]), int(bad[0, 0])
    return record[: n_steps + 1 if bad < 0 else bad + 1, :, 0], status, bad


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


def rk4_batch(C0, blocks, n_steps, dt, signals, sums=False, record=None):
    """Integrate a batch of initial states of independent networks as one system.

    blocks holds each network's flat arrays; a row of C0 is the networks'
    states side by side, in block order. signals is a sequence of
    (column, rate) pairs: y is species ``column`` of the row, or with
    ``rate`` the rate of reaction ``column`` (both counted across blocks).
    Returns (C_final, y0, y_end, sum_y, sum_ty, status, bad_step): C_final
    holds the live species in column order, the y arrays are [B, len(signals)],
    status and bad_step [B, len(blocks)]; with sums, the sums of y and t*y run
    over grid points k = 0..n_steps, or to a failed step, else they are None.
    record, if given, is an [n_steps + 1, n_live, B] array that receives the
    live species at each grid point reached.
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
    network = block_diagonal(blocks)
    C = np.array(np.transpose(C0)[live], dtype=np.float64, order="C")  # [n_live, B]
    B = C.shape[1]
    rhs, V = _rates(*network, B)

    def observe(X):  # the signals at state X, whose rates rhs has just put in V
        y = np.take(X, columns, axis=0, mode="clip")  # rate rows are overwritten
        y[rate_at] = V[columns[rate_at]]
        return y

    status = np.zeros((B, len(blocks)), dtype=np.int64)
    bad_step = np.full(status.shape, -1, dtype=np.int64)
    K = np.empty((5,) + C.shape)  # k1..k4 and X
    stages, k1, X = (*K[:4], K[1:3]), K[0], K[4]
    with np.errstate(invalid="ignore", over="ignore"):
        rhs(C, k1)  # fills V with the rates at C, the first stage of every step
        y0 = observe(C)
        sum_y, sum_ty = y0.copy(), np.zeros_like(y0)  # t=0 adds nothing to sum_ty
        if record is not None:
            record[0] = C
        for k in range(n_steps):
            _step(rhs, C, dt, stages, X)
            # one check for the whole batch (a NaN fails it); only the blocks
            # in trouble are redone, each as one sub-batch on its own arrays
            if not (X.min() >= -NEG_TOL and X.max() < np.inf):
                bad = ~np.isfinite(X) | (X < -NEG_TOL)
                trouble = np.logical_or.reduceat(bad, starts[:-1], axis=0).T  # [B, n_blocks]
                for b in np.flatnonzero(trouble.any(axis=0)):
                    rows, own = np.flatnonzero(trouble[:, b]), slice(starts[b], starts[b + 1])
                    c = C[own][:, rows]  # block b of the rows in trouble, a column each
                    status[rows, b] = _rescue(c, dt, blocks[b])
                    X[own, rows] = c
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
            if record is not None:
                record[k + 1] = C
        y_end = observe(C)
    sum_y, sum_ty = (sum_y.T, sum_ty.T) if sums else (None, None)
    return C.T, y0.T, y_end.T, sum_y, sum_ty, status, bad_step  # [B, ...] views
