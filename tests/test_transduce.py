import numpy as np
import pytest

from oracles import amperometric_current, luminescence
from sweatauth.errors import ConfigurationError
from sweatauth.kinetics import build_cascade, conserved_moieties, simulate
from sweatauth.kinetics import CascadeKind
from sweatauth.transduce import (UM_TO_M, OpticalConfig, absorbance, builtin_optics, readout,
                                 reporter_step)


@pytest.fixture(scope="module")
def altldh(params):
    return build_cascade("AltLdh", params)


@pytest.fixture(scope="module")
def altldh_trace(altldh):
    return simulate(altldh, {"Ala": 80.0, "KTG": 300.0, "NADH": 150.0}, 120.0, 0.01)


def test_absorbance_zero_concentration(params, altldh_trace):
    cfg = builtin_optics("NADH", params)
    sig = absorbance(altldh_trace, cfg)
    zero_idx = altldh_trace.column("Lac") == 0.0
    lac_cfg = OpticalConfig(wavelength=500, epsilon=1000.0, path_length=1.0, species="Lac")
    lac_sig = absorbance(altldh_trace, lac_cfg)
    assert np.all(lac_sig.values[zero_idx] == 0.0)
    assert np.all(sig.values >= 0.0)


def test_absorbance_linear_law():
    from sweatauth.kinetics import KineticsTrace

    tr = KineticsTrace(times=np.array([0.0]), concentrations=np.array([[100.0]]),
                       species_names=["NADH"])
    cfg = OpticalConfig(wavelength=340, epsilon=6220.0, path_length=1.0, species="NADH")
    sig = absorbance(tr, cfg)
    assert abs(sig.values[0] - 0.622) < 1e-12


def test_absorbance_scale_keeps_its_bits(params, altldh, altldh_trace):
    # epsilon * path * 1e-6, in that order, as the batch path multiplies it
    cfg = builtin_optics("NADH", params)
    want = cfg.epsilon * cfg.path_length * UM_TO_M * altldh_trace.column("NADH")
    assert absorbance(altldh_trace, cfg).values.tobytes() == want.tobytes()
    assert readout(altldh, {}, params) == ("NADH", cfg.scale)


# step index each rate readout follows, per catalogued cascade (None: no such step)
REPORTER_STEPS = {
    "AltLdh": (None, None), "AltPoxHrp": (None, 2), "GldhA": (None, None),
    "GldhB": (None, None), "GldhC": (2, 2), "AlaGlu": (None, 2), "AspGlu": (None, 2),
    "AlaAspGlu": (None, 3),
}


@pytest.mark.parametrize("kind", list(CascadeKind))
def test_reporter_steps_of_the_catalogue(params, kind):
    net = build_cascade(kind, params)
    for transduction, step in zip(("luminescence", "amperometric"), REPORTER_STEPS[kind.value]):
        if step is None:
            with pytest.raises(ConfigurationError, match="lacks the required reporter step"):
                reporter_step(net, transduction)
        else:
            assert reporter_step(net, transduction) == step
            assert readout(net, {"transduction": transduction, "gain": 3}, params) == (step, 3.0)


def test_absorbance_missing_species(params, altldh_trace):
    cfg = OpticalConfig(wavelength=405, epsilon=1000.0, path_length=1.0, species="ABTSox")
    with pytest.raises(KeyError):
        absorbance(altldh_trace, cfg)


def test_altldh_340nm_absorbance_decreases(params, altldh_trace):
    sig = absorbance(altldh_trace, builtin_optics("NADH", params))
    assert np.all(np.diff(sig.values) <= 1e-12)
    assert sig.values[0] - sig.values[-1] > 0.1


def test_builtin_wavelengths(params):
    assert builtin_optics("NADH", params).wavelength == 340
    assert builtin_optics("ABTSox", params).wavelength == 405
    assert builtin_optics("Formazan", params).wavelength == 580
    with pytest.raises(ConfigurationError):
        builtin_optics("Lac", params)


def test_luminescence_linearity_and_zero(params):
    net = build_cascade("GldhC", params)
    tr = simulate(net, {"Glu": 60.0}, 60.0, 0.01)
    one = luminescence(tr, net, gain=1.0)
    two = luminescence(tr, net, gain=2.0)
    np.testing.assert_allclose(two.values, 2.0 * one.values, rtol=1e-12)
    assert np.all(one.values >= 0.0)

    silent = simulate(net, {"Glu": 0.0}, 60.0, 0.01)
    assert np.max(np.abs(luminescence(silent, net, gain=1000.0).values)) < 1e-6


def test_luminescence_requires_branch(params, altldh):
    with pytest.raises(ConfigurationError, match="lacks the required reporter step"):
        readout(altldh, {"transduction": "luminescence"}, params)


def test_amperometric_charge_bookkeeping(params):
    # the time integral of i(t)/gain must equal the peroxide actually
    # turned over, which the 1:1 reporter stoichiometry pins to ABTSox formed
    net = build_cascade("AltPoxHrp", params)
    tr = simulate(net, {"Ala": 120.0}, 120.0, 0.01)
    cur = amperometric_current(tr, net, gain=500.0)
    charge = np.trapezoid(cur.values, cur.times) / 500.0
    produced = tr.column("ABTSox")[-1] - tr.column("ABTSox")[0]
    assert abs(charge - produced) / produced < 0.01


def test_amperometric_doubling_alanine(params):
    net = build_cascade("AltPoxHrp", params)

    def charge(ala):
        tr = simulate(net, {"Ala": ala}, 120.0, 0.01)
        cur = amperometric_current(tr, net, gain=500.0)
        return np.trapezoid(cur.values, cur.times) / 500.0

    ratio = charge(240.0) / charge(120.0)
    assert abs(ratio - 2.0) < 0.2


def test_amperometric_zero_without_production(params):
    net = build_cascade("AltPoxHrp", params)
    tr = simulate(net, {"Ala": 0.0}, 30.0, 0.01)
    cur = amperometric_current(tr, net, gain=500.0)
    assert np.all(cur.values == 0.0)


def test_amperometric_requires_h2o2(params, altldh):
    with pytest.raises(ConfigurationError, match="lacks the required reporter step"):
        readout(altldh, {"transduction": "amperometric"}, params)


def test_gain_homogeneity(params):
    net = build_cascade("AltPoxHrp", params)
    tr = simulate(net, {"Ala": 90.0}, 30.0, 0.01)
    base = amperometric_current(tr, net, gain=1.0)
    for g in (0.5, 3.0, 250.0):
        scaled = amperometric_current(tr, net, gain=g)
        np.testing.assert_allclose(scaled.values, g * base.values, rtol=1e-12)


def test_nadh_pool_channel_consistency(params, altldh, altldh_trace):
    # only NADH absorbs, but epsilon*l*(NADH + NADplus) stays constant since
    # the cofactor pool is conserved
    cfg = builtin_optics("NADH", params)
    pool = altldh_trace.column("NADH") + altldh_trace.column("NADplus")
    scaled = cfg.epsilon * cfg.path_length * 1e-6 * pool
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-9)
    ws = conserved_moieties(altldh)
    names = altldh_trace.species_names
    indicator = np.array([1.0 if n in ("NADH", "NADplus") else 0.0 for n in names])
    assert any(np.allclose(indicator @ altldh.effective_stoichiometry, 0.0)
               for _ in ws)


def test_optical_config_validation():
    with pytest.raises(ConfigurationError):
        OpticalConfig(wavelength=340, epsilon=0.0, path_length=1.0, species="NADH")
    with pytest.raises(ConfigurationError):
        OpticalConfig(wavelength=340, epsilon=100.0, path_length=0.0, species="NADH")
