import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import step_rates
from sweatauth.cohort import AMINO_ACIDS
from sweatauth.errors import ConfigurationError, IntegrationError
from sweatauth.kinetics import (CascadeKind, CascadeNetwork, CascadeUnion, EnzymaticStep,
                                EnzymeParams, KineticParams,
                                build_cascade, conserved_moieties, mm_rate,
                                simulate, simulate_batch, step_count)

ALL_KINDS = list(CascadeKind)


# ---------------------------------------------------------------- mm_rate

def test_mm_rate_half_saturation_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        kcat = rng.uniform(1, 1e3)
        e = rng.uniform(0.01, 10)
        km = rng.uniform(1, 1e3)
        v = mm_rate(km, kcat, e, km)
        assert abs(v - 0.5 * kcat * e) <= 1e-12 * (0.5 * kcat * e)


def test_mm_rate_edges():
    assert mm_rate(0.0, 100.0, 1.0, 50.0) == 0.0
    v = mm_rate(1e6 * 50.0, 100.0, 1.0, 50.0)
    assert abs(v - 100.0) / 100.0 < 1e-4
    with pytest.raises(ConfigurationError):
        mm_rate(1.0, 100.0, 1.0, 0.0)


def test_mm_rate_monotone_in_substrate():
    s = np.linspace(0, 500, 100)
    v = [mm_rate(x, 80.0, 1.0, 120.0) for x in s]
    assert np.all(np.diff(v) > 0)


# ---------------------------------------------------------------- wiring

def test_altldh_species_set(params):
    net = build_cascade("AltLdh", params)
    assert {"Ala", "KTG", "Pyr", "Glu", "NADH", "NADplus", "Lac"} <= set(net.species)
    assert net.input_species == ["Ala"]
    assert net.reporter_species == ["NADH"]


def test_gldhc_reporter_branch(params):
    net = build_cascade("GldhC", params)
    assert "H2O2" in net.species
    assert "Luminol" in net.species
    assert "LuminolOx" in net.species


def test_alaaspglu_inputs_and_enzymes(params):
    net = build_cascade("AlaAspGlu", params)
    assert len(net.input_species) == 3
    assert {st.enzyme for st in net.steps} == {"ALT", "AST", "GLOx", "HRP"}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_kind_builds_and_validates(params, kind):
    net = build_cascade(kind, params)
    assert net.stoichiometry.shape == (len(net.species), len(net.steps))
    assert len(set(net.species)) == len(net.species)
    for sp in net.reporter_species:
        assert sp in net.species
    # so a channel input that is one of the cascade's inputs is a panel amino acid
    assert set(net.input_species) <= set(AMINO_ACIDS)


# species order of every kind: the inputs, then each species as a step first uses it
SPECIES = {
    "AltLdh": ["Ala", "KTG", "Pyr", "Glu", "NADH", "Lac", "NADplus"],
    "AltPoxHrp": ["Ala", "KTG", "Pyr", "Glu", "O2", "H2O2", "ABTS", "ABTSox"],
    "GldhA": ["Glu", "NADplus", "KTG", "NH3", "NADH"],
    "GldhB": ["Glu", "NADplus", "KTG", "NH3", "NADH", "NBT", "Formazan"],
    "GldhC": ["Glu", "NADplus", "KTG", "NH3", "NADH", "O2", "H2O2", "Luminol", "LuminolOx"],
    "AlaGlu": ["Ala", "Glu", "KTG", "Pyr", "O2", "H2O2", "ABTS", "ABTSox"],
    "AspGlu": ["Asp", "Glu", "KTG", "OAC", "O2", "H2O2", "ABTS", "ABTSox"],
    "AlaAspGlu": ["Ala", "Asp", "Glu", "KTG", "Pyr", "OAC", "O2", "H2O2", "ABTS", "ABTSox"],
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_species_order_is_pinned(params, kind):
    assert build_cascade(kind, params).species == SPECIES[kind.value]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stoichiometry_follows_from_the_steps(params, kind):
    net = build_cascade(kind, params)
    want = np.zeros((len(net.species), len(net.steps)))
    for j, st in enumerate(net.steps):
        for sp, coef in st.substrates:
            want[SPECIES[kind.value].index(sp), j] -= coef
        for sp, coef in st.products:
            want[SPECIES[kind.value].index(sp), j] += coef
    np.testing.assert_array_equal(net.stoichiometry, want)
    buffered = [SPECIES[kind.value].index(sp) for sp in net.buffered]
    want[buffered] = 0.0
    np.testing.assert_array_equal(net.effective_stoichiometry, want)


def test_missing_enzyme_parameter(params):
    crippled = KineticParams(enzymes={k: v for k, v in params.enzymes.items() if k != "LDH"},
                             reagents=params.reagents, buffered=params.buffered)
    with pytest.raises(ConfigurationError):
        build_cascade("AltLdh", crippled)


def test_missing_km_for_substrate(params):
    bad = KineticParams(enzymes=dict(params.enzymes), reagents=params.reagents)
    bad.enzymes["ALT"] = EnzymeParams(kcat=80.0, e_total=1.0, km={"Ala": 450.0})
    with pytest.raises(ConfigurationError):
        build_cascade("AltLdh", bad)


def test_buffered_species_held_constant(params):
    net = build_cascade("AltPoxHrp", params)
    assert "O2" in net.buffered
    tr = simulate(net, {"Ala": 100.0}, 30.0, 0.01)
    np.testing.assert_array_equal(tr.column("O2"), np.full(tr.times.size, 250.0))


def test_buffering_is_toggleable(params):
    unbuffered = KineticParams(enzymes=params.enzymes, reagents=params.reagents,
                               buffered=())
    net = build_cascade("AltPoxHrp", unbuffered)
    assert not net.buffered
    tr = simulate(net, {"Ala": 100.0}, 30.0, 0.01)
    assert tr.column("O2")[-1] < 250.0  # oxygen now depletes with turnover


# ---------------------------------------------------------------- simulate

def test_zero_enzyme_means_constant_trace(params):
    zeroed = KineticParams(
        enzymes={k: EnzymeParams(kcat=v.kcat, e_total=0.0, km=dict(v.km))
                 for k, v in params.enzymes.items()},
        reagents=params.reagents, buffered=params.buffered)
    net = build_cascade("AltLdh", zeroed)
    tr = simulate(net, {"Ala": 50.0}, 5.0, 0.01)
    for row in tr.concentrations:
        np.testing.assert_array_equal(row, tr.concentrations[0])


def test_stoichiometric_endpoint_under_excess(params):
    # substrate-excess oracle: 50 µM alanine converts fully, so lactate ends
    # at 50 µM and alanine at zero (KTG and NADH held in excess)
    net = build_cascade("AltLdh", params)
    tr = simulate(net, {"Ala": 50.0, "KTG": 200.0, "NADH": 200.0}, 600.0, 0.01)
    assert abs(tr.column("Lac")[-1] - 50.0) / 50.0 < 0.01
    assert tr.column("Ala")[-1] < 0.5


def test_first_row_is_initial_condition(params):
    net = build_cascade("AltLdh", params)
    tr = simulate(net, {"Ala": 33.0, "KTG": 90.0, "NADH": 70.0}, 1.0, 0.01)
    c0 = net.init_vector({"Ala": 33.0, "KTG": 90.0, "NADH": 70.0})
    np.testing.assert_array_equal(tr.concentrations[0], c0)
    assert np.all(np.diff(tr.times) > 0)


def test_richardson_fourth_order(params):
    net = build_cascade("AltLdh", params)
    init = {"Ala": 50.0, "KTG": 150.0, "NADH": 120.0}
    T, dt = 20.0, 0.2
    ref = simulate(net, init, T, dt / 8).concentrations[-1]
    e1 = np.max(np.abs(simulate(net, init, T, dt).concentrations[-1] - ref))
    e2 = np.max(np.abs(simulate(net, init, T, dt / 2).concentrations[-1] - ref))
    assert 12.0 <= e1 / e2 <= 20.0


def test_nonfinite_state_raises(params):
    huge = KineticParams(
        enzymes={k: EnzymeParams(kcat=1e160, e_total=1e160, km=dict(v.km))
                 for k, v in params.enzymes.items()},
        reagents=params.reagents, buffered=params.buffered)
    net = build_cascade("AltLdh", huge)
    with pytest.raises(IntegrationError) as exc:
        simulate(net, {"Ala": 50.0, "KTG": 100.0, "NADH": 100.0}, 1.0, 0.1)
    assert "step" in str(exc.value)


def test_invalid_grid():
    net = _single_step_network(vmax=1.0, km=10.0)
    with pytest.raises(ConfigurationError):
        simulate(net, {"A": 1.0}, 1.0, 0.0)
    # the gate time must be a whole number of steps, at least one
    for t_g, dt in ((0.005, 0.01), (1.0, 0.3), (float("inf"), 1.0), (float("nan"), 1.0)):
        with pytest.raises(ConfigurationError, match="is not a whole number of RK4 steps"):
            simulate(net, {"A": 1.0}, t_g, dt)
        with pytest.raises(ConfigurationError, match="is not a whole number of RK4 steps"):
            simulate_batch(net, net.init_vector({"A": 1.0})[None], t_g, dt)
    assert [step_count(t_g, dt) for t_g, dt in ((120.0, 0.01), (120.0, 0.2), (60.0, 0.02))] == [
        12000, 600, 3000]


def _single_step_network(vmax, km, e_total=1.0):
    step = EnzymaticStep(enzyme="ALT", substrates=[("A", 1)], products=[("B", 1)],
                         kcat=vmax / e_total, km={"A": km}, e_total=e_total)
    return CascadeNetwork(kind=CascadeKind.ALT_LDH, steps=[step], input_species=["A"],
                          reporter_species=["B"])


def test_step_halving_keeps_mass_nonnegative():
    # near-zero-order decay: dt is far above the stability limit near s -> 0,
    # so the guard must halve its way through without going negative
    net = _single_step_network(vmax=1.0, km=1e-3)
    tr = simulate(net, {"A": 1.0}, 2.0, 0.05)
    assert np.all(tr.concentrations >= 0.0)
    total = tr.concentrations.sum(axis=1)
    np.testing.assert_allclose(total, total[0], rtol=1e-9)
    assert tr.column("B")[-1] > 0.999


def test_step_halving_exhaustion_raises():
    # decay timescale ~1e-9 s is unresolvable even at dt * 2**-20
    net = _single_step_network(vmax=1e9, km=1e-3)
    with pytest.raises(IntegrationError):
        simulate(net, {"A": 1.0}, 1.0, 0.5)


# ---------------------------------------------------------------- batch

def test_batch_matches_single_runs(params):
    # every species and every step rate observed by the batch agrees with
    # the recorded trace: endpoints bit for bit, sums to rounding
    net = build_cascade("AltPoxHrp", params)
    alas = [40.0, 120.0, 333.0]
    C0 = np.stack([net.init_vector({"Ala": a}) for a in alas])
    traces = [simulate(net, {"Ala": a}, 30.0, 0.01).concentrations for a in alas]
    signals = net.species + list(range(len(net.steps)))
    res = simulate_batch(net, C0, 30.0, 0.01, [(0, signal) for signal in signals], sums=True)
    for b, tr in enumerate(traces):
        np.testing.assert_allclose(res.c_final[b], tr[-1], rtol=1e-12)
        for j, signal in enumerate(signals):
            y = (tr[:, net.index(signal)] if isinstance(signal, str)
                 else step_rates(net, tr)[:, signal])
            assert (res.y0[b, j], res.y_end[b, j]) == (y[0], y[-1]), signal
            np.testing.assert_allclose(res.sum_y[b, j], y.sum(), rtol=1e-12)


def test_batch_default_signal_is_first_reporter(params):
    net = build_cascade("GldhC", params)
    C0 = np.stack([net.init_vector({"Glu": g}) for g in (30.0, 90.0)])
    default = simulate_batch(net, C0, 2.0, 0.01, sums=True)
    named = simulate_batch(net, C0, 2.0, 0.01, [(0, net.reporter_species[0])], sums=True)
    for field in ("c_final", "y0", "y_end", "sum_y", "sum_ty"):
        np.testing.assert_array_equal(getattr(default, field), getattr(named, field))


def test_batch_slope_matches_polyfit(params):
    net = build_cascade("AltPoxHrp", params)
    C0 = np.stack([net.init_vector({"Ala": a}) for a in (50.0, 200.0)])
    res = simulate_batch(net, C0, 10.0, 0.01, [(0, "ABTSox")], sums=True)
    for b, a in enumerate((50.0, 200.0)):
        tr = simulate(net, {"Ala": a}, 10.0, 0.01)
        want = np.polyfit(tr.times, tr.column("ABTSox"), 1)[0]
        assert abs(res.slope()[b, 0] - want) < 1e-9 * max(abs(want), 1.0)


def test_commands_and_batches_leave_fractions_and_numpy_ma_unimported():
    # only conserved_moieties, which no command calls, needs fractions (and
    # decimal with it); np.unique would import numpy.ma on its first call
    code = ("import sys; import numpy as np; import sweatauth.cli\n"
            "from sweatauth.config import default_params_dict\n"
            "from sweatauth.kinetics import KineticParams, build_cascade, simulate_batch\n"
            "net = build_cascade('GldhA', KineticParams.from_dict(default_params_dict()))\n"
            "simulate_batch(net, net.init_vector({'Glu': 50.0})[None], 0.1, 0.01)\n"
            "print(sorted({'fractions', 'decimal', 'numpy.ma'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------- moieties

def _rank(M):
    return np.linalg.matrix_rank(M, tol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moiety_vectors_annihilate_stoichiometry(params, kind):
    net = build_cascade(kind, params)
    S = net.effective_stoichiometry
    basis = conserved_moieties(net)
    assert len(basis) == S.shape[0] - _rank(S)
    for w in basis:
        np.testing.assert_allclose(w @ S, 0.0, atol=1e-12)
    B = np.stack(basis)
    assert _rank(B) == len(basis)


def test_altldh_expected_pools(params):
    # the cofactor pool NADH+NADplus and the carbon pool Ala+Pyr+Lac must be
    # conservation laws and lie in the span of the returned basis
    net = build_cascade("AltLdh", params)
    S = net.effective_stoichiometry
    basis = np.stack(conserved_moieties(net))
    for members in ({"NADH", "NADplus"}, {"Ala", "Pyr", "Lac"}):
        w = np.array([1.0 if s in members else 0.0 for s in net.species])
        np.testing.assert_allclose(w @ S, 0.0, atol=1e-12)
        coeffs, residual, *_ = np.linalg.lstsq(basis.T, w, rcond=None)
        recon = basis.T @ coeffs
        np.testing.assert_allclose(recon, w, atol=1e-9)


def test_empty_network_full_basis():
    net = CascadeNetwork(kind=CascadeKind.ALT_LDH, steps=[], input_species=["A", "B", "C"],
                         reporter_species=["A"])
    basis = conserved_moieties(net)
    assert len(basis) == 3
    np.testing.assert_array_equal(np.stack(basis), np.eye(3))


def test_network_rejects_unwired_reporter():
    step = EnzymaticStep(enzyme="ALT", substrates=[("A", 1)], products=[("B", 1)],
                         kcat=1.0, km={"A": 10.0}, e_total=1.0)
    with pytest.raises(ConfigurationError, match="^C not among network species$"):
        CascadeNetwork(kind=CascadeKind.ALT_LDH, steps=[step], input_species=["A"],
                       reporter_species=["C"])


def test_network_keeps_only_its_own_buffered_species():
    step = _single_step_network(vmax=1.0, km=10.0).steps[0]
    net = CascadeNetwork(kind=CascadeKind.ALT_LDH, steps=[step], input_species=["A"],
                         reporter_species=["B"], buffered=frozenset({"B", "O2"}))
    assert net.buffered == frozenset({"B"})
    np.testing.assert_array_equal(net.effective_stoichiometry, [[-1.0], [0.0]])


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_nonnegativity_and_conservation(params, kind):
    net = build_cascade(kind, params)
    init = {sp: 40.0 + 10.0 * i for i, sp in enumerate(net.input_species)}
    tr = simulate(net, init, 120.0, 0.01)
    assert np.all(tr.concentrations >= 0.0)
    for w in conserved_moieties(net):
        pools = tr.concentrations @ w
        scale = max(abs(pools[0]), 1.0)
        assert np.max(np.abs(pools - pools[0])) / scale < 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_terminal_species_monotone(params, kind):
    # species only produced must be non-decreasing, only consumed non-increasing
    net = build_cascade(kind, params)
    init = {sp: 60.0 for sp in net.input_species}
    tr = simulate(net, init, 120.0, 0.02)
    S = net.effective_stoichiometry
    for i, name in enumerate(net.species):
        col = tr.concentrations[:, i]
        if np.all(S[i] >= 0) and np.any(S[i] > 0):
            assert np.all(np.diff(col) >= -1e-9), name
        if np.all(S[i] <= 0) and np.any(S[i] < 0):
            assert np.all(np.diff(col) <= 1e-9), name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_input_monotonicity(params, kind):
    net = build_cascade(kind, params)
    reporter = net.reporter_species[0]
    base = {sp: 50.0 for sp in net.input_species}
    lo = simulate(net, base, 60.0, 0.02)
    sign = 1.0 if lo.column(reporter)[-1] >= lo.column(reporter)[0] else -1.0
    for bump in net.input_species:
        higher = dict(base)
        higher[bump] = 80.0
        hi = simulate(net, higher, 60.0, 0.02)
        delta_hi = sign * (hi.column(reporter)[-1] - hi.column(reporter)[0])
        delta_lo = sign * (lo.column(reporter)[-1] - lo.column(reporter)[0])
        assert delta_hi >= delta_lo - 1e-9, bump


def test_alaglu_additivity(params):
    # with KTG in excess and the oxidase far from saturation, feeding
    # (Ala=a, Glu=g) ends at the same reporter level as (Ala=0, Glu=g+a)
    net = build_cascade("AlaGlu", params)
    mixed = simulate(net, {"Ala": 20.0, "Glu": 30.0, "KTG": 2000.0}, 300.0, 0.01)
    merged = simulate(net, {"Ala": 0.0, "Glu": 50.0, "KTG": 2000.0}, 300.0, 0.01)
    a = mixed.column("ABTSox")[-1]
    b = merged.column("ABTSox")[-1]
    assert abs(a - b) / b < 0.05


def test_union_signals_are_numbered_per_block(params):
    # the same species name or step index means a different column in each block
    nets = [build_cascade(kind, params) for kind in ("GldhA", "AltPoxHrp")]
    union = CascadeUnion(nets)
    assert union.kind.value == "GldhA+AltPoxHrp"
    assert union.column(0, "NADH") == (nets[0].index("NADH"), False)
    assert union.column(1, "O2") == (len(nets[0].species) + nets[1].index("O2"), False)
    assert union.column(1, 2) == (len(nets[0].steps) + 2, True)
    with pytest.raises(KeyError):
        union.column(0, 1)  # GldhA has one step
    C0 = np.hstack([np.stack([net.init_vector({net.input_species[0]: c}) for c in (30.0, 90.0)])
                    for net in nets])
    res = simulate_batch(union, C0, 2.0, 0.01)  # default: each block's first reporter
    for b, net in enumerate(nets):
        alone = simulate_batch(net, C0[:, union.species_offsets[b]:union.species_offsets[b + 1]],
                               2.0, 0.01)
        np.testing.assert_array_equal(res.y_end[:, b], alone.y_end[:, 0])
