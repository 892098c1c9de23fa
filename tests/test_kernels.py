"""Direct checks of the numpy RK4 kernels below ``kinetics``.

The batch kernel is gated bit for bit against three oracles. ``oracle_rk4_batch``
is an earlier implementation: one Python loop over reactions and substrates
per rate-law evaluation, per-row guards on every step, and failed rows
masked out while the others keep integrating; it observes every species and
every reaction rate at once. ``network_batch`` is the kernel as it was
before networks were integrated as one union: one network and one observed
signal per call. A union of blocks must give each block the bits that its
own ``network_batch`` gives it. ``union_batch`` is the union kernel as it was
before it dropped dead species and kept the running sums only on request: it
integrates every species, observes on every step and clamps every stage. The
kernel must give its live species, its signals and, with sums, its sums the
same bits, sign bits included.

``oracle_advance`` is the guarded step of one state in numpy, as the kernel
took it before its halving rescue ran as a sub-batch: the batch oracles redo
each (row, block) pair in trouble with it, and ``rk4_trace``, a one-row
batch, must equal a loop of it (``oracle_trace``) bit for bit.
"""

import itertools

import numpy as np
import pytest

from sweatauth import _kernels
from sweatauth.config import default_params_dict
from sweatauth.errors import IntegrationError
from sweatauth.kinetics import (CascadeKind, CascadeUnion, KineticParams, build_cascade,
                               simulate_batch)

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
# species 0 is buffered (zero stoichiometry), so species 1 grows to +inf
RUNAWAY = (np.array([[0.0, 1.0]]), np.array([1e308]), np.array([0], dtype=np.int64),
           np.array([1.0]), np.array([0, 1], dtype=np.int64))
# Km = 0: a zero substrate divides 0 by 0
ZERO_KM = (np.array([[-1.0, 1.0]]), np.array([1.0]), np.array([0], dtype=np.int64),
           np.array([0.0]), np.array([0, 1], dtype=np.int64))


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


def oracle_advance(c, dt, st_dense, vmax, sub_idx, sub_km, sub_off):
    """The guarded step of one state in numpy: advance c by dt in place, return status.

    The kernel's rescue takes the same steps, one column per state.
    """
    def deriv(x):
        v = vmax.copy()
        for j in range(vmax.shape[0]):
            for p in range(sub_off[j], sub_off[j + 1]):
                s = x[sub_idx[p]]
                if s < 0.0:
                    s = 0.0
                v[j] *= s / (sub_km[p] + s)
        return st_dense.T @ v

    t_left, h, min_h = dt, dt, dt * 2.0 ** -_kernels.MAX_HALVINGS
    while t_left > 0.0:
        h = min(h, t_left)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            k1 = deriv(c)
            k2 = deriv(c + (0.5 * h) * k1)
            k3 = deriv(c + (0.5 * h) * k2)
            k4 = deriv(c + h * k3)
            c_new = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(c_new)):
            return _kernels.STATUS_NONFINITE
        if np.any(c_new < -_kernels.NEG_TOL):
            h *= 0.5
            if h < min_h:
                return _kernels.STATUS_UNDERFLOW
            continue
        c[:] = np.maximum(c_new, 0.0)
        t_left -= h
        if h < dt:
            h *= 2.0
    return _kernels.STATUS_OK


def oracle_trace(c0, network, n_steps, dt):
    """rk4_trace as a loop of oracle_advance: (trace, status, bad_step)."""
    c = np.array(c0, dtype=np.float64)
    out = [c.copy()]
    for k in range(n_steps):
        status = oracle_advance(c, dt, *network)
        if status != _kernels.STATUS_OK:
            return np.array(out), status, k
        out.append(c.copy())
    return np.array(out), _kernels.STATUS_OK, -1


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
            st = oracle_advance(c_i, dt, st_dense, vmax, sub_idx, sub_km, sub_off)
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


def network_batch(C0, st_dense, vmax, sub_idx, sub_km, sub_off, n_steps, dt, column, rate=False):
    """The batch kernel for one network and one signal, as it was before unions.

    y is species ``column``, or with ``rate`` the rate of reaction ``column``.
    Returns (C_final, y0, y_end, sum_y, sum_ty, status[B], bad_step[B]).
    """
    C = np.array(C0, dtype=np.float64)
    n_sub = np.diff(sub_off)
    pad = np.arange(max(int(n_sub.max(initial=0)), 1)) >= n_sub[:, None]  # [n_rxn, w]
    padded = pad.any()
    idx, km = np.zeros(pad.shape, dtype=np.int64), np.ones((len(C),) + pad.shape)
    idx[~pad], km[:, ~pad] = sub_idx, sub_km
    vmax_b = np.tile(vmax, (len(C), 1))
    F, D, V = np.empty_like(km), np.empty_like(km), np.empty_like(vmax_b)

    def rhs(X, out):
        np.take(X, idx, axis=1, out=F, mode="clip")
        np.maximum(F, 0.0, out=F)
        np.divide(F, np.add(km, F, out=D), out=F)
        if padded:
            F[:, pad] = 1.0
        np.multiply(vmax_b, F[..., 0], out=V)
        for q in range(1, pad.shape[1]):
            np.multiply(V, F[..., q], out=V)
        np.matmul(V, st_dense, out=out)

    status, bad_step = np.zeros(len(C), dtype=np.int64), np.full(len(C), -1, dtype=np.int64)
    k1, k2, k3, k4, X = (np.empty_like(C) for _ in range(5))
    with np.errstate(invalid="ignore", over="ignore"):
        rhs(C, k1)
        y0 = (V if rate else C)[:, column].copy()
        y, sum_y, sum_ty = y0, y0.copy(), np.zeros_like(y0)
        for k in range(n_steps):
            rhs(np.add(C, np.multiply(k1, 0.5 * dt, out=X), out=X), k2)
            rhs(np.add(C, np.multiply(k2, 0.5 * dt, out=X), out=X), k3)
            rhs(np.add(C, np.multiply(k3, dt, out=X), out=X), k4)
            np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
            np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
            np.add(C, np.multiply(np.add(k1, k4, out=k1), dt / 6.0, out=k1), out=X)
            if not (X.min() >= -_kernels.NEG_TOL and X.max() < np.inf):
                for i in np.flatnonzero(~np.isfinite(X).all(axis=1)
                                        | (X < -_kernels.NEG_TOL).any(axis=1)):
                    X[i] = C[i]
                    status[i] = oracle_advance(X[i], dt, st_dense, vmax,
                                               sub_idx, sub_km, sub_off)
                if status.any():
                    bad_step[status != _kernels.STATUS_OK] = k
                    break
            np.maximum(X, 0.0, out=X)
            C, X = X, C
            rhs(C, k1)
            y = (V if rate else C)[:, column].copy()
            sum_y += y
            sum_ty += y * ((k + 1) * dt)
    return C, y0, y, sum_y, sum_ty, status, bad_step


def union_batch(C0, blocks, n_steps, dt, signals, rescued=None):
    """The union kernel with every species and the running sums, as it was before
    dead species were dropped. Returns what rk4_batch returns with sums, C_final
    with every species; the list rescued, if given, gets each (row, block) redone."""
    st_dense, vmax, sub_idx, sub_km, sub_off = _kernels.block_diagonal(blocks)
    starts = np.cumsum([0] + [b[0].shape[1] for b in blocks])
    C = np.array(np.transpose(C0), dtype=np.float64, order="C")  # [n_species, B]
    B = C.shape[1]
    n_sub = np.diff(sub_off)
    pad = np.arange(max(int(n_sub.max(initial=0)), 1)) >= n_sub[:, None]  # [n_rxn, w]
    padded = pad.any()
    idx, km = np.zeros(pad.T.shape, dtype=np.int64), np.ones(pad.T.shape)
    idx.T[~pad], km.T[~pad] = sub_idx, sub_km
    km = np.repeat(km[..., None], B, axis=2)
    vmax_b = np.repeat(vmax[:, None], B, axis=1)
    F, D, V = np.empty_like(km), np.empty_like(km), np.empty_like(vmax_b)
    columns = np.array([int(c) for c, _ in signals], dtype=np.int64)
    rate_at = np.flatnonzero([bool(r) for _, r in signals])
    rate_cols = columns[rate_at]

    def rhs(X, out):
        np.take(X, idx, axis=0, out=F, mode="clip")
        np.maximum(F, 0.0, out=F)
        np.divide(F, np.add(km, F, out=D), out=F)
        if padded:
            F[pad.T] = 1.0
        np.multiply(vmax_b, F[0], out=V)
        for q in range(1, len(F)):
            np.multiply(V, F[q], out=V)
        np.matmul(V.T, st_dense, out=out.T)

    def observe(X):
        y = np.take(X, columns, axis=0, mode="clip")
        y[rate_at] = V[rate_cols]
        return y

    status = np.zeros((B, len(blocks)), dtype=np.int64)
    bad_step = np.full(status.shape, -1, dtype=np.int64)
    k1, k2, k3, k4, X = (np.empty_like(C) for _ in range(5))
    with np.errstate(invalid="ignore", over="ignore"):
        rhs(C, k1)
        y0 = observe(C)
        y, sum_y, sum_ty = y0, y0.copy(), np.zeros_like(y0)
        for k in range(n_steps):
            rhs(np.add(C, np.multiply(k1, 0.5 * dt, out=X), out=X), k2)
            rhs(np.add(C, np.multiply(k2, 0.5 * dt, out=X), out=X), k3)
            rhs(np.add(C, np.multiply(k3, dt, out=X), out=X), k4)
            np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
            np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
            np.add(C, np.multiply(np.add(k1, k4, out=k1), dt / 6.0, out=k1), out=X)
            if not (X.min() >= -_kernels.NEG_TOL and X.max() < np.inf):
                bad = ~np.isfinite(X) | (X < -_kernels.NEG_TOL)
                trouble = np.logical_or.reduceat(bad, starts[:-1], axis=0).T
                for i, b in zip(*np.nonzero(trouble)):
                    c = C[starts[b]:starts[b + 1], i].copy()
                    status[i, b] = oracle_advance(c, dt, *blocks[b])
                    X[starts[b]:starts[b + 1], i] = c
                    if rescued is not None:
                        rescued.append((int(i), int(b)))
                if status.any():
                    bad_step[status != _kernels.STATUS_OK] = k
                    break
            np.maximum(X, 0.0, out=X)
            C, X = X, C
            rhs(C, k1)
            y = observe(C)
            sum_y += y
            sum_ty += y * ((k + 1) * dt)
    return C.T, y0.T, y.T, sum_y.T, sum_ty.T, status, bad_step


def live_columns(blocks, signals):
    """Union columns of the species rk4_batch keeps: each block's substrates and
    every species a signal reads, in column order."""
    read = {int(c) for c, rate in signals if not rate}
    live, lo = [], 0
    for st_dense, _, sub_idx, _, _ in blocks:
        substrates = set(sub_idx.tolist())
        live += [lo + i for i in range(st_dense.shape[1]) if i in substrates or lo + i in read]
        lo += st_dense.shape[1]
    return live


def same_bits(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


NAMES = ("C_final", "y0", "y_end", "sum_y", "sum_ty", "status", "bad_step")


def assert_same_as_union_batch(C0, blocks, n_steps, dt, signals, rescued=None):
    """rk4_batch, with and without sums, gives the bits of union_batch on its live species."""
    want = union_batch(C0, blocks, n_steps, dt, signals, rescued)
    live = live_columns(blocks, signals)
    for sums in (True, False):
        got = _kernels.rk4_batch(C0, blocks, n_steps, dt, signals, sums)
        expect = (want[0][:, live], *want[1:3], *(want[3:5] if sums else (None, None)), *want[5:])
        for name, g, w in zip(NAMES, got, expect):
            assert g is None if w is None else same_bits(g, w), (name, sums)
    return want


def every_signal(n_species, n_rxn):
    """(column, rate) of every species, then of every reaction rate."""
    return [(c, False) for c in range(n_species)] + [(r, True) for r in range(n_rxn)]


def assert_same_as_oracle(C0, compiled, n_steps, dt):
    """rk4_batch observing every species and every rate column equals the oracle,
    with sums and, but for the sums, without."""
    want = oracle_rk4_batch(C0, *compiled, n_steps, dt)
    for sums in (True, False):
        got = _kernels.rk4_batch(C0, [compiled], n_steps, dt,
                                 every_signal(C0.shape[1], len(compiled[1])), sums)
        for name, g, w in zip(NAMES, got, want):
            if name in ("status", "bad_step"):  # one block
                g = g[:, 0]
            if name in ("sum_y", "sum_ty") and not sums:
                assert g is None, name
            else:
                assert np.array_equal(g, w), (name, sums)
    return want


@pytest.mark.parametrize("rows", [1, 2, 7, 375])  # B = 1 and 2 may take other BLAS paths
@pytest.mark.parametrize("kind", list(CascadeKind))
def test_batch_matches_oracle_bit_for_bit(params, kind, rows):
    net = build_cascade(kind, params)
    rng = np.random.default_rng([list(CascadeKind).index(kind), rows])
    C0 = rng.uniform(0.0, 400.0, (rows, len(net.species)))
    *_, status, _ = assert_same_as_oracle(C0, net.compiled(), 150, 0.02)
    assert not status.any()


def signal_sets(net):
    """Every species and rate, the first reporter alone, the last step's rate alone."""
    return {"every": every_signal(len(net.species), len(net.steps)),
            "reporter": [(net.index(net.reporter_species[0]), False)],
            "rate": [(len(net.steps) - 1, True)]}


@pytest.mark.parametrize("signals", ["every", "reporter", "rate"])
@pytest.mark.parametrize("rows", [1, 7, 375])  # B = 1 may take other BLAS paths
@pytest.mark.parametrize("kind", list(CascadeKind))
def test_batch_matches_union_batch_bit_for_bit(params, kind, rows, signals):
    net = build_cascade(kind, params)
    C0 = random_inputs(net, rows, [list(CascadeKind).index(kind), rows])
    *_, status, _ = assert_same_as_union_batch(C0, [net.compiled()], 150, 0.02,
                                               signal_sets(net)[signals])
    assert not status.any()


def test_identity_union_drops_its_dead_species(params):
    # no step consumes them and no reporter signal reads them
    nets = [build_cascade(kind, params) for kind in ("AltPoxHrp", "GldhA", "AspGlu")]
    union = CascadeUnion(nets)
    C0 = np.hstack([random_inputs(net, 3, seed) for seed, net in enumerate(nets)])
    res = simulate_batch(union, C0, 0.1, 0.01)
    names = [(net.kind.value, sp) for net in nets for sp in net.species]
    signals = [union.column(b, net.reporter_species[0]) for b, net in enumerate(nets)]
    live = live_columns([net.compiled() for net in nets], signals)
    assert sorted(set(names) - {names[i] for i in live}) == [
        ("AltPoxHrp", "Glu"), ("AspGlu", "OAC"), ("GldhA", "KTG"), ("GldhA", "NH3")]
    assert (len(names), res.c_final.shape) == (21, (3, 17))


def test_one_block_read_for_an_endpoint_and_a_slope(params):
    # an endpoint channel on ABTSox and a slope channel on the HRP rate share
    # one AltPoxHrp block; the batch keeps sums for both
    net = build_cascade("AltPoxHrp", params)
    C0 = random_inputs(net, 7, 3)
    signals = [(net.index("ABTSox"), False), (2, True)]
    got = _kernels.rk4_batch(C0, [net.compiled()], 150, 0.02, signals, sums=True)
    lean = _kernels.rk4_batch(C0, [net.compiled()], 150, 0.02, signals)
    oracle = oracle_rk4_batch(C0, *net.compiled(), 150, 0.02)
    for j, (column, rate) in enumerate(signals):
        want = network_batch(C0, *net.compiled(), 150, 0.02, column, rate)
        every = column + len(net.species) if rate else column
        for name, g, w, o in zip(NAMES[1:5], got[1:5], want[1:5], oracle[1:5]):
            assert np.array_equal(g[:, j], w) and np.array_equal(g[:, j], o[:, every]), (j, name)
        assert same_bits(lean[1][:, j], got[1][:, j]) and same_bits(lean[2][:, j], got[2][:, j])
    assert_same_as_union_batch(C0, [net.compiled()], 150, 0.02, signals)


def test_signal_on_a_species_no_step_consumes_keeps_it_live(params):
    # NH3 is only a product of GldhA: read by a signal, it is integrated
    net = build_cascade("GldhA", params)
    C0 = random_inputs(net, 7, 4)
    nh3 = net.index("NH3")
    got = _kernels.rk4_batch(C0, [net.compiled()], 150, 0.02, [(nh3, False)], sums=True)
    want = network_batch(C0, *net.compiled(), 150, 0.02, nh3)
    oracle = oracle_rk4_batch(C0, *net.compiled(), 150, 0.02)
    live = [net.index(sp) for sp in ("Glu", "NADplus", "NH3")]
    assert np.array_equal(got[0], want[0][:, live]) and np.array_equal(got[0], oracle[0][:, live])
    for name, g, w, o in zip(NAMES[1:5], got[1:5], want[1:5], oracle[1:5]):
        assert np.array_equal(g[:, 0], w) and np.array_equal(g[:, 0], o[:, nh3]), name
    assert np.all(got[2] > got[1])
    assert_same_as_union_batch(C0, [net.compiled()], 150, 0.02, [(nh3, False)])


def test_slope_of_a_batch_without_sums_is_an_error(params):
    net = build_cascade("AltPoxHrp", params)
    C0 = random_inputs(net, 2, 5)
    res = simulate_batch(net, C0, 0.2, 0.01)
    assert res.sum_y is None and res.sum_ty is None
    assert same_bits(res.endpoint_delta(), simulate_batch(net, C0, 0.2, 0.01,
                                                          sums=True).endpoint_delta())
    with pytest.raises(ValueError, match="slope needs the running sums: integrate with sums=True"):
        res.slope()


@pytest.mark.parametrize("kind", list(CascadeKind))
def test_block_diagonal_of_one_block_is_the_block(params, kind):
    block = build_cascade(kind, params).compiled()
    for got, want in zip(_kernels.block_diagonal([block]), block, strict=True):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("network, C0", [(STIFF, STIFF_C0), (MIXED, MIXED_C0)],
                         ids=["stiff", "mixed"])
def test_halving_rescue_matches_oracle_bit_for_bit(monkeypatch, network, C0):
    rescued = []
    rescue = _kernels._rescue

    def counted(c, *args):
        rescued.append(c.shape[1])
        return rescue(c, *args)

    monkeypatch.setattr(_kernels, "_rescue", counted)
    *_, status, _ = assert_same_as_oracle(C0, network, 40, 0.05)
    assert rescued and not status.any()


def test_positive_overflow_alone_is_caught():
    # species 1 grows to +inf with no NaN or negative anywhere; both rows
    # fail at the same step
    C0 = np.array([[1.0, 0.0], [2.0, 5.0]])
    *_, status, bad = assert_same_as_oracle(C0, RUNAWAY, 10, 1.0)
    assert status.tolist() == [_kernels.STATUS_NONFINITE] * 2
    assert bad.tolist() == [bad[0]] * 2 and bad[0] >= 0


def test_numpy_batch_rescues_rows_needing_halving():
    # stiff rows are redone with step halving inside the batch kernel and
    # must reproduce the one-row traces exactly
    traces = [_kernels.rk4_trace(c0, *STIFF, 40, 0.05) for c0 in STIFF_C0]
    assert all(st == _kernels.STATUS_OK for _, st, _ in traces)
    C, y0, y_end, sum_y, _, status, _ = _kernels.rk4_batch(
        STIFF_C0, [STIFF], 40, 0.05, every_signal(STIFF_C0.shape[1], 0), sums=True)
    assert np.all(status == _kernels.STATUS_OK)
    assert np.all(C >= 0.0)
    for b, (trace, _, _) in enumerate(traces):
        np.testing.assert_array_equal(C[b], trace[-1])
        np.testing.assert_array_equal(y0[b], trace[0])
        np.testing.assert_array_equal(y_end[b], trace[-1])
        np.testing.assert_allclose(sum_y[b], trace.sum(axis=0), rtol=1e-12)


def _depleting_gldh(glu):
    """GldhA with near-zero Km: each row underflows at the step its Glu runs out."""
    raw = default_params_dict()
    raw["enzymes"]["GlDH"].update(kcat=10.0, km={"Glu": 1e-12, "NADplus": 1e-12})
    net = build_cascade("GldhA", KineticParams.from_dict(raw))
    C0 = np.tile(net.init_vector({}), (len(glu), 1))
    C0[:, net.index("Glu")] = glu
    return net, C0


def assert_trace_is_oracle_loop(c0, network, n_steps, dt):
    got = _kernels.rk4_trace(np.array(c0, dtype=np.float64), *network, n_steps, dt)
    want = oracle_trace(c0, network, n_steps, dt)
    assert got[0].tobytes() == want[0].tobytes()  # -0.0 and 0.0 differ here
    assert got[1:] == want[1:]
    return got


@pytest.mark.parametrize("kind", list(CascadeKind))
def test_trace_is_a_loop_of_the_numpy_step_bit_for_bit(params, kind):
    net = build_cascade(kind, params)
    c0 = random_inputs(net, 1, list(CascadeKind).index(kind))[0]
    c0[-1] = -0.0
    _, status, _ = assert_trace_is_oracle_loop(c0, net.compiled(), 200, 0.05)
    assert status == _kernels.STATUS_OK


@pytest.mark.parametrize("network, c0, n_steps, dt, status", [
    *[(STIFF, c0, 40, 0.05, _kernels.STATUS_OK) for c0 in [*STIFF_C0, [-0.0, 1.0]]],
    *[(MIXED, c0, 40, 0.05, _kernels.STATUS_OK) for c0 in MIXED_C0],
    (RUNAWAY, [1.0, -0.0], 10, 1.0, _kernels.STATUS_NONFINITE),
    (ZERO_KM, [0.0, 1.0], 10, 0.1, _kernels.STATUS_NONFINITE),
    (ZERO_KM, [1.0, -0.0], 10, 0.1, _kernels.STATUS_OK),
], ids=["stiff0", "stiff1", "stiff2", "stiff-neg-zero", "mixed0", "mixed1", "mixed2", "mixed3",
        "mixed4", "runaway", "zero-km-0/0", "zero-km"])
def test_trace_matches_numpy_step_through_halving_and_failure(network, c0, n_steps, dt, status):
    assert assert_trace_is_oracle_loop(c0, network, n_steps, dt)[1] == status


def test_underflowing_trace_matches_numpy_step():
    net, C0 = _depleting_gldh([1.0])
    assert assert_trace_is_oracle_loop(C0[0], net.compiled(), 100, 0.01)[1] == \
        _kernels.STATUS_UNDERFLOW


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
    *_, got_status, got_bad = _kernels.rk4_batch(C0, [net.compiled()], 100, 0.01, [(0, False)])
    assert got_status[:, 0].tolist() == [0, 0, status[2], status[3]]
    assert got_bad[:, 0].tolist() == [-1, -1, bad[2], bad[3]]
    with pytest.raises(IntegrationError) as exc:
        simulate_batch(net, C0, 1.0, 0.01)
    assert (exc.value.step, exc.value.sim) == (bad[2], 2)


# ---------------------------------------------------------------- unions

def assert_union_matches_blocks(blocks, C0s, n_steps, dt, signals):
    """One union batch gives every block the bits of its own network_batch, and
    the bits of union_batch.

    signals[b] lists block b's (column, rate) pairs in the block's own
    numbering; each is checked against one network_batch call, on the
    block's live species.
    """
    sp = np.cumsum([0] + [arrays[0].shape[1] for arrays in blocks])
    rx = np.cumsum([0] + [len(arrays[1]) for arrays in blocks])
    union_signals = [(c + (rx if rate else sp)[b], rate)
                     for b, sigs in enumerate(signals) for c, rate in sigs]
    assert_same_as_union_batch(np.hstack(C0s), blocks, n_steps, dt, union_signals)
    got = _kernels.rk4_batch(np.hstack(C0s), blocks, n_steps, dt, union_signals, sums=True)
    live = np.array(live_columns(blocks, union_signals))
    j = 0
    for b, (arrays, C0, sigs) in enumerate(zip(blocks, C0s, signals)):
        mine = (sp[b] <= live) & (live < sp[b + 1])
        for column, rate in sigs:
            want = network_batch(C0, *arrays, n_steps, dt, column, rate)
            assert np.array_equal(got[0][:, mine], want[0][:, live[mine] - sp[b]]), (b, "C_final")
            for name, g, w in zip(NAMES[1:5], got[1:5], want[1:5]):
                assert np.array_equal(g[:, j], w), (b, column, rate, name)
            for name, g, w in zip(NAMES[5:], got[5:], want[5:]):
                assert np.array_equal(g[:, b], w), (b, name)
            j += 1
    return got


def random_inputs(net, rows, seed):
    rng = np.random.default_rng(seed)
    C0 = np.tile(net.init_vector({}), (rows, 1))
    for sp in net.input_species:
        C0[:, net.index(sp)] = rng.uniform(20.0, 400.0, rows)
    return C0


def assert_union_of_two_matches(params, first, second, rows):
    # the reporter species and the last step's rate of each block
    nets = [build_cascade(first, params), build_cascade(second, params)]
    signals = [[(net.index(net.reporter_species[0]), False), (len(net.steps) - 1, True)]
               for net in nets]
    C0s = [random_inputs(net, rows, seed) for seed, net in enumerate(nets)]
    *_, status, _ = assert_union_matches_blocks(
        [net.compiled() for net in nets], C0s, 100, 0.02, signals)
    assert not status.any()


PAIRS = pytest.mark.parametrize("first, second", list(itertools.product(CascadeKind, repeat=2)),
                                ids=lambda kind: kind.value)


@PAIRS
def test_union_of_two_matches_separate_batches(params, first, second):
    assert_union_of_two_matches(params, first, second, 5)


@pytest.mark.parametrize("rows", [1, 2])  # B = 1 and 2 may take other BLAS paths
@PAIRS
def test_union_of_two_matches_separate_batches_at_tiny_batches(params, first, second, rows):
    assert_union_of_two_matches(params, first, second, rows)


def test_identity_triple_matches_separate_batches(params):
    # every species and every rate of the identity channels' cascades, then
    # each one's reporter as the identity run reads them, 375 rows
    nets = [build_cascade(kind, params) for kind in ("AltPoxHrp", "GldhA", "AspGlu")]
    C0s = [random_inputs(net, 375, seed) for seed, net in enumerate(nets)]
    for signals in ("every", "reporter"):
        assert_union_matches_blocks([net.compiled() for net in nets], C0s, 150, 0.01,
                                    [signal_sets(n)[signals] for n in nets])


@pytest.mark.parametrize("network, C0", [(STIFF, STIFF_C0), (MIXED, MIXED_C0)],
                         ids=["stiff", "mixed"])
def test_halving_rescue_runs_per_block(monkeypatch, params, network, C0):
    # rows needing halving in one block leave the healthy blocks beside them
    # with the bits of their own batch: only the failing block is redone
    healthy = [build_cascade(kind, params) for kind in ("AltPoxHrp", "GldhA")]
    blocks = [healthy[0].compiled(), network, healthy[1].compiled()]
    C0s = [random_inputs(healthy[0], len(C0), 1), C0, random_inputs(healthy[1], len(C0), 2)]
    redone = []
    rescue = _kernels._rescue

    def recorded(c, dt, block):
        redone.append(block[0])
        return rescue(c, dt, block)

    monkeypatch.setattr(_kernels, "_rescue", recorded)
    signals = [every_signal(arrays[0].shape[1], len(arrays[1])) for arrays in blocks]
    *_, status, _ = assert_union_matches_blocks(blocks, C0s, 40, 0.05, signals)
    assert redone and all(np.array_equal(st, network[0]) for st in redone)
    assert not status.any()


def test_rescue_heavy_identity_union_matches_union_batch(monkeypatch, params):
    # at dt = 2 about half of the (row, block) steps of the identity union
    # overshoot, so nearly every step redoes a sub-batch of many columns
    nets = [build_cascade(kind, params) for kind in ("AltPoxHrp", "GldhA", "AspGlu")]
    union = CascadeUnion(nets)
    C0 = np.hstack([random_inputs(net, 36, seed) for seed, net in enumerate(nets)])
    signals = [union.column(b, net.reporter_species[0]) for b, net in enumerate(nets)]
    columns, rescue = [], _kernels._rescue

    def counted(c, *args):
        columns.append(c.shape[1])
        return rescue(c, *args)

    monkeypatch.setattr(_kernels, "_rescue", counted)
    rescued = []
    *_, status, _ = assert_same_as_union_batch(C0, [net.compiled() for net in nets], 60, 2.0,
                                               signals, rescued)
    assert not status.any()
    assert len(rescued) > 0.4 * 60 * C0.shape[0] * len(nets)
    assert {i for i, _ in rescued} == set(range(len(C0)))
    # the kernel redoes the oracle's pairs, with and without sums, many to a sub-batch
    assert sum(columns) == 2 * len(rescued) and max(columns) > len(C0) // 2


def test_overflow_next_to_healthy_block_fails_like_its_own_batch(params):
    healthy = build_cascade("AltPoxHrp", params)
    C0s = [random_inputs(healthy, 2, 0), np.array([[1.0, 0.0], [2.0, 5.0]])]
    got = _kernels.rk4_batch(np.hstack(C0s), [healthy.compiled(), RUNAWAY], 10, 1.0,
                             [(0, False), (len(healthy.species) + 1, False)])
    *_, status, bad = network_batch(C0s[1], *RUNAWAY, 10, 1.0, 1)
    assert status.tolist() == [_kernels.STATUS_NONFINITE] * 2
    np.testing.assert_array_equal(got[5], np.stack([np.zeros(2, dtype=np.int64), status], 1))
    np.testing.assert_array_equal(got[6], np.stack([np.full(2, -1), bad], 1))


def _runaway_gldh():
    """GldhA with Glu and NAD+ held constant and a huge vmax: its products overflow."""
    raw = default_params_dict()
    raw["enzymes"]["GlDH"].update(kcat=1e308, e_total=1.0, km={"Glu": 1e-3, "NADplus": 1e-3})
    raw["buffered"] = ["O2", "Glu", "NADplus"]
    return build_cascade("GldhA", KineticParams.from_dict(raw))


@pytest.mark.parametrize("failing, horizon, dt", [
    (_runaway_gldh, 10.0, 1.0),
    (lambda: _depleting_gldh([0.0])[0], 1.0, 0.01),
], ids=["overflow", "underflow"])
def test_integration_error_names_the_failing_cascade(params, failing, horizon, dt):
    net = failing()
    healthy = build_cascade("AltPoxHrp", params)
    C0 = np.tile(net.init_vector({}), (4, 1))
    C0[:, net.index("Glu")] = [0.0, 3.0, 1.0, 1.0]
    *_, status, bad = network_batch(C0, *net.compiled(), round(horizon / dt), dt, 0)
    row = int(np.flatnonzero(status)[0])
    with pytest.raises(IntegrationError) as alone:
        simulate_batch(net, C0, horizon, dt)
    with pytest.raises(IntegrationError) as beside:
        simulate_batch(CascadeUnion([healthy, net]),
                       np.hstack([random_inputs(healthy, 4, 0), C0]), horizon, dt)
    for exc in (alone.value, beside.value):
        assert (exc.step, exc.sim, exc.cascade) == (bad[row], row, "GldhA")
        assert str(exc).startswith("GldhA cascade: integration diverged")


def _depleting(signals):
    net, C0 = _depleting_gldh([0.0, 3.0, 1.0, 1.0])
    return [net.compiled()], C0, 100, 0.01, signals, True


@pytest.mark.parametrize("case", [
    lambda: ([STIFF], np.vstack([STIFF_C0, [[-5e-10, 1.0]]]), 40, 0.05, [(0, False)], False),
    lambda: ([STIFF], STIFF_C0, 40, 0.05, [(0, True)], False),
    lambda: ([MIXED], MIXED_C0, 40, 0.05, [(1, False), (1, True)], False),
    lambda: ([RUNAWAY], np.array([[1.0, 0.0], [2.0, 5.0]]), 10, 1.0, [(1, False), (0, True)],
             True),
    lambda: ([ZERO_KM], np.array([[0.0, 1.0], [1.0, -0.0], [-0.0, 1.0]]), 10, 0.1, [(0, True)],
             True),
    lambda: _depleting([(4, False)]),
    lambda: _depleting([(0, True)]),
], ids=["stiff", "stiff-rate", "mixed", "runaway", "zero-km-0/0", "underflow", "underflow-rate"])
def test_halving_and_failing_rows_match_union_batch(case):
    # the dead species (STIFF's species 1 when unread, MIXED's D, GldhA's KTG
    # and NH3) go; the rescues and failures keep their bits and steps
    blocks, C0, n_steps, dt, signals, fails = case()
    *_, status, _ = assert_same_as_union_batch(C0, blocks, n_steps, dt, signals)
    assert status.any() == fails


def test_overflow_beside_a_healthy_block_matches_union_batch(params):
    healthy, runaway = build_cascade("AltPoxHrp", params), _runaway_gldh()
    blocks = [healthy.compiled(), runaway.compiled()]
    C0 = np.hstack([random_inputs(healthy, 4, 0),
                    np.tile(runaway.init_vector({"Glu": 1.0}), (4, 1))])
    signals = [(healthy.index("ABTSox"), False),
               (len(healthy.species) + runaway.index("NADH"), False)]
    *_, status, _ = assert_same_as_union_batch(C0, blocks, 10, 1.0, signals)
    assert not status[:, 0].any() and (status[:, 1] == _kernels.STATUS_NONFINITE).all()


def test_a_dead_species_no_longer_fails_a_row():
    # RUNAWAY's species 1 overflows, but nothing reads it: read by its rate
    # alone the row integrates, where union_batch, which integrates it, fails
    C0 = np.array([[1.0, 0.0], [2.0, 5.0]])
    *_, status, _ = union_batch(C0, [RUNAWAY], 10, 1.0, [(0, True)])
    assert (status == _kernels.STATUS_NONFINITE).all()
    C, y0, y_end, *_, status, _ = _kernels.rk4_batch(C0, [RUNAWAY], 10, 1.0, [(0, True)])
    assert not status.any() and same_bits(C, C0[:, :1]) and same_bits(y_end, y0)
