from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import endpoint_feature
from sweatauth.digitize import (BandSpec, FilterParams, GroupingSpec, classify_band, consolidate,
                                hill_filter)
from sweatauth.errors import ConfigurationError
from sweatauth.transduce import SignalTrace

UNIT = FilterParams(k_half=1.0, hill_n=8.0)


def make_signal(values, dt=1.0):
    values = np.asarray(values, dtype=float)
    return SignalTrace(times=dt * np.arange(values.size), values=values, channel="test")


# ------------------------------------------------------------- features

def test_constant_signal_zero_feature():
    sig = make_signal(np.full(11, 3.7))
    assert endpoint_feature(sig, 10.0, "endpoint") == 0.0
    assert endpoint_feature(sig, 10.0, "slope") == 0.0


def test_linear_signal_slope_exact():
    a = 0.37
    sig = make_signal(a * np.arange(21))
    assert abs(endpoint_feature(sig, 20.0, "slope") - a) < 1e-12
    assert abs(endpoint_feature(sig, 20.0, "endpoint") - a * 20) < 1e-12


def test_decreasing_signal_positive_feature():
    sig = make_signal(np.linspace(1.0, 0.2, 13))
    assert endpoint_feature(sig, 12.0, "endpoint") > 0.0
    assert endpoint_feature(sig, 12.0, "slope") > 0.0


def test_gate_time_beyond_horizon():
    sig = make_signal(np.arange(5))
    with pytest.raises(ValueError):
        endpoint_feature(sig, 10.0)
    with pytest.raises(ConfigurationError):
        endpoint_feature(sig, 3.0, "wavelet")


def test_partial_window_slope():
    values = np.concatenate([np.arange(6.0), np.full(5, 5.0)])
    sig = make_signal(values)
    assert abs(endpoint_feature(sig, 5.0, "slope") - 1.0) < 1e-12


# ------------------------------------------------------------- hill filter

def test_hill_midpoint_and_rails():
    p = FilterParams(k_half=2.0, hill_n=8.0, out_lo=0.0, out_hi=1.0)
    assert hill_filter(2.0, p) == pytest.approx(0.5)
    assert hill_filter(0.0, p) == 0.0
    p2 = FilterParams(k_half=5.0, hill_n=3.0, out_lo=-1.0, out_hi=3.0)
    assert hill_filter(5.0, p2) == pytest.approx(1.0)  # midpoint of the rails


def test_hill_closed_form_value():
    p = FilterParams(k_half=3.0, hill_n=8.0)
    assert hill_filter(6.0, p) == pytest.approx(256.0 / 257.0, abs=1e-12)


def test_hill_overflow_is_railed():
    p = FilterParams(k_half=1.0, hill_n=8.0)
    assert hill_filter(1e60, p) == 1.0


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=16.0))
def test_hill_bounded_by_rails(x, k_half, n):
    p = FilterParams(k_half=k_half, hill_n=n)
    y = hill_filter(x, p)
    assert 0.0 <= y <= 1.0


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=8.0),
       st.lists(st.floats(min_value=-1.3, max_value=1.3), min_size=2, max_size=20))
def test_hill_strictly_monotone(k_half, n, exponents):
    # strictness is checked away from float saturation: inputs within
    # 10**+-1.3 of k_half and separated by at least 1% survive rounding
    p = FilterParams(k_half=k_half, hill_n=n)
    xs = []
    for e in sorted(exponents):
        x = k_half * 10.0 ** e
        if not xs or x > 1.01 * xs[-1]:
            xs.append(x)
    ys = [hill_filter(x, p) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_hill_rejects_negative_input():
    with pytest.raises(ValueError):
        hill_filter(-0.1, UNIT)


def test_noise_suppression_to_digital_rails():
    # lognormal inputs with CV 0.2 land on near-binary outputs at both
    # operating points, the motivating property of the sigmoidal filters
    rng = np.random.default_rng(77)
    p = FilterParams(k_half=10.0, hill_n=8.0)
    for center in (0.2 * p.k_half, 5.0 * p.k_half):
        sigma = np.sqrt(np.log1p(0.2 ** 2))
        draws = center * np.exp(rng.standard_normal(10_000) * sigma - 0.5 * sigma ** 2)
        outs = np.array([hill_filter(x, p) for x in draws])
        assert outs.std() < 0.05


# ------------------------------------------------------------- consolidate

@dataclass
class OutputVector:
    timestamp: float
    values: list
    bands: list


def consolidate_row(grouping, features, filters, timestamp=0.0, bands=None):
    """Former per-row consolidate, the oracle for the array version."""
    features = list(features)
    if len(filters) != grouping.n_outputs:
        raise ConfigurationError("one filter per group required")
    values = []
    for gi, (idxs, agg) in enumerate(zip(grouping.groups, grouping.aggregators)):
        if max(idxs) >= len(features) or min(idxs) < 0:
            raise ConfigurationError(f"group {gi} indexes beyond the {len(features)} features")
        if agg == "sum":
            x = float(sum(features[i] for i in idxs))
        elif agg == "weighted-sum":
            w = grouping.weights[gi] if grouping.weights else [1.0] * len(idxs)
            if len(w) != len(idxs):
                raise ConfigurationError(f"group {gi}: weight count mismatch")
            x = float(sum(wi * features[i] for wi, i in zip(w, idxs)))
        else:  # cascade-endpoint: chemistry already consolidated this group
            x = float(features[idxs[0]])
        values.append(hill_filter(x, filters[gi]))
    labels = [classify_band_row(v, bands) for v in values] if bands is not None else []
    return OutputVector(timestamp=timestamp, values=values, bands=labels)


def classify_band_row(y, bands):
    """Former scalar classify_band, part of the oracle."""
    if y < bands.out_lo or y > bands.out_hi:
        raise ValueError(f"value {y} outside rails [{bands.out_lo}, {bands.out_hi}]")
    b = np.asarray(bands.boundaries, dtype=float)
    return bands.labels[int(np.searchsorted(b, y, side="right"))]


def assert_matches_oracle(grouping, features, filters, bands=None):
    values, labels = consolidate(grouping, features, filters, bands=bands)
    S = grouping.n_outputs
    rows = [consolidate_row(grouping, f, filters, bands=bands)
            for f in features.reshape(-1, features.shape[-1])]
    expected = np.array([ov.values for ov in rows]).reshape(features.shape[:-1] + (S,))
    assert np.array_equal(values, expected)
    assert values.tobytes() == expected.tobytes()  # signed zeros included
    if bands is None:
        assert labels is None
    else:
        assert labels.shape == values.shape
        assert labels.reshape(-1, S).tolist() == [ov.bands for ov in rows]
    return values, labels


def oracle_features(C, shape=(7, 9), hi=20.0, seed=0):
    """Uniform features with exact zeros and a few repeated values."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, hi, shape + (C,))
    f.reshape(-1)[::11] = 0.0
    f.reshape(-1)[5::13] = f.reshape(-1)[3]
    return f


HILLS = [FilterParams(k_half=6.0, hill_n=8.0), FilterParams(k_half=0.7, hill_n=2.0),
         FilterParams(k_half=13.0, hill_n=3.7, out_lo=-1.0, out_hi=2.0)]


@pytest.mark.parametrize("groups, aggregators, weights", [
    ([[0, 1, 2], [1], [3]], ["sum", "sum", "sum"], []),
    ([[0, 1], [2, 3, 1], [3]], ["weighted-sum", "weighted-sum", "cascade-endpoint"],
     [[2.0, 0.5], [1, 3, 0.25], [7.0]]),
    ([[0, 1], [2], [1, 3]], ["weighted-sum", "cascade-endpoint", "sum"], []),
    ([[0, 1], [1, 2], [0, 2]], ["sum", "weighted-sum", "sum"], [[1.0, 1.0], [0.1, 0.2], [5.0, 5.0]]),
], ids=["sum", "weighted-sum", "mixed-unweighted", "overlapping"])
def test_consolidate_matches_per_row_oracle(groups, aggregators, weights):
    grouping = GroupingSpec(groups=groups, aggregators=aggregators, weights=weights)
    assert_matches_oracle(grouping, oracle_features(4), HILLS)


def test_consolidate_matches_oracle_with_passthrough_and_bands():
    grouping = GroupingSpec(groups=[[0], [1, 2], [2]],
                            aggregators=["sum", "sum", "cascade-endpoint"])
    filters = [FilterParams(k_half=1.0, kind="passthrough")] * 3
    bands = BandSpec(boundaries=[0.25, 0.5], labels=["lo", "mid", "hi"])
    f = oracle_features(3, hi=0.5)
    f[0, 0] = [0.25, 0.2, 0.3]           # outputs exactly on both boundaries
    f[0, 1] = [-0.0, -0.0, -0.0]         # signed zeros: sum gives 0.0, identity -0.0
    values, labels = assert_matches_oracle(grouping, f, filters, bands)
    assert labels[0, 0].tolist() == ["mid", "hi", "mid"]
    assert np.signbit(values[0, 1]).tolist() == [False, False, True]


def test_consolidate_matches_oracle_with_hill_bands():
    grouping = GroupingSpec(groups=[[0], [1], [2]], aggregators=["sum", "sum", "cascade-endpoint"])
    bands = BandSpec(boundaries=[0.5], labels=["low", "high"], out_lo=-1.0, out_hi=2.0)
    assert_matches_oracle(grouping, oracle_features(3, shape=(25, 20)), HILLS, bands)


@pytest.fixture(scope="module")
def sex_separation_features():
    from sweatauth.config import builtin_experiment, load_experiment
    from sweatauth.pipeline import RunPlan, run_pipeline

    raw = builtin_experiment("sex-separation")
    raw["cohort"]["groups"][0]["n"] = raw["cohort"]["groups"][1]["n"] = 6
    raw["cohort"]["schedule"]["steps"] = 5
    raw["kinetics"].update(dt=0.02, t_g=60.0)
    result = run_pipeline(RunPlan(load_experiment(raw)))
    return raw["digitize"], result


@pytest.mark.parametrize("digitize_of", ["sex-separation", "identity"])
def test_consolidate_matches_oracle_on_pipeline_features(sex_separation_features, digitize_of):
    from sweatauth.config import builtin_experiment

    dig, result = sex_separation_features
    if digitize_of == "identity":  # three groups over copies of the one channel
        dig = builtin_experiment("identity")["digitize"]
        features = np.repeat(result.features, 3, axis=-1) * [1.0, 0.07, 0.5]
    else:
        features = result.features
    grouping = GroupingSpec(groups=dig["groups"], aggregators=dig["aggregators"],
                            weights=dig.get("weights", []))
    values, labels = assert_matches_oracle(grouping, features,
                                           [FilterParams(**f) for f in dig["filters"]],
                                           BandSpec(**dig["bands"]))
    if digitize_of == "sex-separation":
        assert np.array_equal(values, result.outputs)
        assert labels.tolist() == result.bands.tolist()


def test_identity_groups_passthrough():
    grouping = GroupingSpec(groups=[[0], [1], [2]], aggregators=["sum"] * 3)
    filters = [FilterParams(k_half=1.0, kind="passthrough")] * 3
    values, labels = consolidate(grouping, [0.4, 7.0, 3.3], filters)
    assert values.tolist() == [0.4, 7.0, 3.3]
    assert labels is None


def test_sum_aggregation():
    grouping = GroupingSpec(groups=[[0, 1, 2]], aggregators=["sum"])
    values, _ = consolidate(grouping, [1.0, 2.0, 3.0],
                            [FilterParams(k_half=6.0, hill_n=8.0)])
    assert values.tolist() == [pytest.approx(0.5)]


def test_two_group_midpoints():
    grouping = GroupingSpec(groups=[[0, 1], [2, 3]], aggregators=["sum", "sum"])
    filters = [FilterParams(k_half=3.0, hill_n=8.0), FilterParams(k_half=7.0, hill_n=8.0)]
    values, _ = consolidate(grouping, [1.0, 2.0, 3.0, 4.0], filters)
    assert values.tolist() == [pytest.approx(0.5), pytest.approx(0.5)]


def test_weighted_sum_and_cascade_endpoint():
    grouping = GroupingSpec(groups=[[0, 1], [2]],
                            aggregators=["weighted-sum", "cascade-endpoint"],
                            weights=[[2.0, 1.0], [1.0]])
    filters = [FilterParams(k_half=4.0, hill_n=8.0),
               FilterParams(k_half=9.0, hill_n=8.0)]
    values, _ = consolidate(grouping, [1.0, 2.0, 9.0], filters)
    assert values.tolist() == [pytest.approx(0.5), pytest.approx(0.5)]


def test_output_length_is_group_count():
    rng = np.random.default_rng(5)
    for S in (1, 2, 5):
        groups = [[i] for i in range(S)]
        grouping = GroupingSpec(groups=groups, aggregators=["sum"] * S)
        filters = [FilterParams(k_half=1.0)] * S
        values, _ = consolidate(grouping, rng.uniform(0.1, 5.0, S), filters)
        assert values.shape == (S,)
        values, _ = consolidate(grouping, rng.uniform(0.1, 5.0, (4, 3, S)), filters)
        assert values.shape == (4, 3, S)


def test_overlapping_groups_supported():
    grouping = GroupingSpec(groups=[[0, 1], [1, 2]], aggregators=["sum", "sum"])
    filters = [FilterParams(k_half=3.0), FilterParams(k_half=5.0)]
    values, _ = consolidate(grouping, [1.0, 2.0, 3.0], filters)
    assert values.tolist() == [pytest.approx(0.5), pytest.approx(0.5)]


def test_consolidate_index_out_of_range():
    grouping = GroupingSpec(groups=[[0, 5]], aggregators=["sum"])
    with pytest.raises(ConfigurationError):
        consolidate(grouping, [1.0, 2.0], [FilterParams(k_half=1.0)])


def test_consolidate_with_bands():
    grouping = GroupingSpec(groups=[[0]], aggregators=["sum"])
    bands = BandSpec(boundaries=[0.5], labels=["low", "high"])
    values, labels = consolidate(grouping, [[10.0], [0.1]],
                                 [FilterParams(k_half=1.0, hill_n=8.0)], bands=bands)
    assert labels.tolist() == [["high"], ["low"]]


def test_consolidate_negative_hill_input_names_group():
    # a library caller's features may be negative, unlike the pipeline's
    grouping = GroupingSpec(groups=[[0], [0, 1]], aggregators=["sum", "sum"])
    with pytest.raises(ConfigurationError, match=r"^group 1: Hill filter input must be >= 0"):
        consolidate(grouping, [[3.0, 1.0], [1.0, -3.0]], [UNIT, UNIT])


def test_negative_weight_refused_only_before_a_hill_filter():
    grouping = GroupingSpec(groups=[[0], [0, 1]], aggregators=["sum", "weighted-sum"],
                            weights=[[1.0], [1.0, -1.0]])
    with pytest.raises(ConfigurationError,
                       match=r"^group 1: a Hill filter needs weights >= 0, got -1\.0$"):
        grouping.check_fits(2, [UNIT, UNIT])
    passthrough = FilterParams(k_half=1.0, kind="passthrough")
    grouping.check_fits(2, [UNIT, passthrough])
    values, _ = consolidate(grouping, [[3.0, 1.0]], [UNIT, passthrough])
    assert values[0, 1] == 2.0


def test_consolidate_output_outside_band_rails_names_group():
    grouping = GroupingSpec(groups=[[0], [1]], aggregators=["sum", "sum"])
    filters = [UNIT, FilterParams(k_half=1.0, kind="passthrough")]
    bands = BandSpec(boundaries=[0.5], labels=["low", "high"])
    with pytest.raises(ConfigurationError, match=r"^group 1: value 12\.5 outside rails"):
        consolidate(grouping, [[0.3, 0.2], [0.3, 12.5]], filters, bands=bands)


@pytest.mark.parametrize("aggregators, weights, message", [
    (["sum", "sum"], [[1.0], [2.0, 1.0]], "weights given, but no group is weighted-sum"),
    (["weighted-sum", "sum"], [[1.0], [2.0]], "group 1: weight count mismatch"),
    (["weighted-sum", "sum"], [[1.0]], "weights must align with groups"),
], ids=["no-weighted-sum-group", "short-entry-of-a-sum-group", "one-entry-for-two-groups"])
def test_grouping_weights_fit_every_group(aggregators, weights, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        GroupingSpec(groups=[[0], [0, 1]], aggregators=aggregators, weights=weights)


def test_cascade_endpoint_rejects_multichannel_groups():
    with pytest.raises(ConfigurationError):
        GroupingSpec(groups=[[0, 1]], aggregators=["cascade-endpoint"])


# ------------------------------------------------------------- bands

def test_band_classification_and_tie_rule():
    bands = BandSpec(boundaries=[0.5], labels=["low", "high"])
    assert classify_band(0.2, bands) == "low"
    assert classify_band(0.5, bands) == "high"   # boundary joins the upper band
    assert classify_band(0.99, bands) == "high"


def test_band_classification_of_arrays():
    bands = BandSpec(boundaries=[0.25, 0.75], labels=["lo", "mid", "hi"])
    ys = np.array([[0.0, 0.25, 0.5], [0.75, 0.99, 1.0]])
    labels = classify_band(ys, bands)
    assert labels.shape == ys.shape
    assert labels.tolist() == [[classify_band_row(y, bands) for y in row] for row in ys]
    assert labels.tolist() == [["lo", "mid", "mid"], ["hi", "hi", "hi"]]


def test_band_outside_rails():
    bands = BandSpec(boundaries=[0.5], labels=["low", "high"])
    with pytest.raises(ValueError):
        classify_band(1.2, bands)
    with pytest.raises(ValueError):
        classify_band(-0.2, bands)


def test_band_spec_validation():
    with pytest.raises(ConfigurationError):
        BandSpec(boundaries=[0.5, 0.4], labels=["a", "b", "c"])
    with pytest.raises(ConfigurationError):
        BandSpec(boundaries=[0.5], labels=["only"])
    with pytest.raises(ConfigurationError):
        BandSpec(boundaries=[1.5], labels=["a", "b"])


def test_band_determinism():
    bands = BandSpec(boundaries=[0.25, 0.75], labels=["lo", "mid", "hi"])
    rng = np.random.default_rng(8)
    ys = rng.uniform(0, 1, 200)
    first = [classify_band(y, bands) for y in ys]
    second = [classify_band(y, bands) for y in ys]
    assert first == second


def test_filter_params_validation():
    with pytest.raises(ConfigurationError):
        FilterParams(k_half=0.0)
    with pytest.raises(ConfigurationError):
        FilterParams(k_half=1.0, hill_n=0.5)
    with pytest.raises(ConfigurationError):
        FilterParams(k_half=1.0, out_lo=1.0, out_hi=0.0)
    with pytest.raises(ConfigurationError):
        FilterParams(k_half=1.0, kind="boxcar")
