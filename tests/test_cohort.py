import numpy as np
import pytest

from oracles import read_cohort_csv
from sweatauth.cohort import (ACID_INDEX, AMINO_ACIDS, N_ACIDS, AcidDistribution,
                              Demographics, GroupDistributionSpec, NoiseSpec,
                              SamplingSchedule, mimic_cohort, sample_series,
                              write_cohort_csv)
from sweatauth.errors import ConfigurationError

FEMALE = Demographics(sex="female")
MALE = Demographics(sex="male")


def flat_spec(cv=0.0, ala_shift=None):
    """Uniform distribution spec, optionally with a female alanine shift."""
    acids = {}
    for name in AMINO_ACIDS:
        shifts = {}
        if ala_shift is not None and name == "Ala":
            shifts = {"sex=female": ala_shift}
        acids[name] = AcidDistribution(mean_uM=100.0, cv=cv, shifts=shifts)
    return GroupDistributionSpec(acids=acids)


def individual(spec, seed, demo=FEMALE):
    """The one member of a cohort of size 1."""
    (profile,) = mimic_cohort(spec, demo, 1, seed)
    return profile


def test_acid_panel_is_fixed():
    assert len(AMINO_ACIDS) == 23
    assert len(set(AMINO_ACIDS)) == 23
    for i, name in enumerate(AMINO_ACIDS):
        assert ACID_INDEX[name] == i
    spec = flat_spec()
    spec.acids["Xyz"] = AcidDistribution(mean_uM=100.0, cv=0.0)
    with pytest.raises(ConfigurationError, match="unknown acids"):
        spec.validate()


def test_cv_zero_gives_exact_means():
    spec = flat_spec(cv=0.0, ala_shift=1.5)
    expected = np.full(N_ACIDS, 100.0)
    expected[ACID_INDEX["Ala"]] = 150.0
    for p in mimic_cohort(spec, FEMALE, 3, seed=7):
        np.testing.assert_array_equal(p.baseline, expected)


def test_empirical_cv_matches_configured():
    # statistical oracle: sample moments of 1e4 draws of one acid at CV 0.3
    spec = flat_spec(cv=0.3)
    draws = np.array([p.baseline[0] for p in mimic_cohort(spec, MALE, 10_000, seed=0)])
    emp_cv = draws.std(ddof=1) / draws.mean()
    assert 0.27 <= emp_cv <= 0.33


def test_lognormal_mean_is_unbiased():
    spec = flat_spec(cv=0.5)
    draws = np.array([p.baseline[3] for p in mimic_cohort(spec, MALE, 10_000, seed=0)])
    assert abs(draws.mean() - 100.0) / 100.0 < 0.02


def test_positivity():
    spec = flat_spec(cv=0.5)
    cohort = mimic_cohort(spec, FEMALE, 200, seed=5)
    for p in cohort:
        assert np.all(p.baseline > 0)


def test_missing_acid_is_configuration_error():
    spec = flat_spec(cv=0.1)
    del spec.acids["Gly"]
    with pytest.raises(ConfigurationError, match="missing acids"):
        mimic_cohort(spec, FEMALE, 1, seed=1)


@pytest.mark.parametrize("field,value", [
    ("mean_uM", 0.0), ("mean_uM", -5.0), ("cv", -0.2),
])
def test_distribution_field_validation(field, value):
    spec = flat_spec(cv=0.1)
    setattr(spec.acids["Ala"], field, value)
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_distribution_shift_validation():
    spec = flat_spec(cv=0.1)
    spec.acids["Ala"].shifts = {"sex=female": 0.0}
    with pytest.raises(ConfigurationError):
        spec.validate()
    spec.acids["Ala"].shifts = {"female": 1.5}  # missing field= prefix
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_series_row_count_matches_schedule():
    spec = flat_spec(cv=0.1)
    p = individual(spec, seed=4)
    sched = SamplingSchedule(t0=0.0, tau=30.0, steps=7)
    values = sample_series(p, sched, NoiseSpec(cv=0.2), seed=1)
    assert values.shape == (7, N_ACIDS)
    assert np.all(values > 0)


def test_cohort_size_arithmetic():
    spec = flat_spec(cv=0.2)
    cohort = mimic_cohort(spec, FEMALE, 25, seed=11)
    stored = sum(p.baseline.size for p in cohort)
    assert stored == 25 * 23 == 575


def test_cohort_empty_and_deterministic():
    spec = flat_spec(cv=0.2)
    assert mimic_cohort(spec, FEMALE, 0, seed=1) == []
    a = mimic_cohort(spec, FEMALE, 10, seed=3)
    b = mimic_cohort(spec, FEMALE, 10, seed=3)
    c = mimic_cohort(spec, FEMALE, 10, seed=4)
    for pa, pb, pc in zip(a, b, c):
        np.testing.assert_array_equal(pa.baseline, pb.baseline)
        assert pa.rng_seed == pb.rng_seed
        assert not np.array_equal(pa.baseline, pc.baseline)


def test_cohort_pools_are_permutation_paired():
    # regrouping permutes each acid pool without replacement: the multiset of
    # values per acid must match a freshly drawn pool of the same seed stream
    spec = flat_spec(cv=0.4)
    cohort = mimic_cohort(spec, FEMALE, 40, seed=9)
    values = np.array([p.baseline for p in cohort])
    for a in range(N_ACIDS):
        col = np.sort(values[:, a])
        assert np.unique(col).size == col.size  # continuous draws: no repeats


def test_group_separation_ratio_converges():
    spec = flat_spec(cv=0.3, ala_shift=1.5)
    f = mimic_cohort(spec, FEMALE, 10_000, seed=21)
    m = mimic_cohort(spec, MALE, 10_000, seed=22)
    ala = ACID_INDEX["Ala"]
    ratio = (np.mean([p.baseline[ala] for p in f])
             / np.mean([p.baseline[ala] for p in m]))
    assert abs(ratio - 1.5) / 1.5 < 0.05


def test_schedule_timestamps():
    sched = SamplingSchedule(t0=0.0, tau=120.0, steps=5)
    np.testing.assert_array_equal(sched.timestamps(), [0, 120, 240, 360, 480])
    with pytest.raises(ConfigurationError):
        SamplingSchedule(t0=0.0, tau=0.0, steps=5)
    with pytest.raises(ConfigurationError):
        SamplingSchedule(t0=0.0, tau=1.0, steps=0)


def test_series_noise_free_rows_equal_baseline():
    spec = flat_spec(cv=0.2)
    p = individual(spec, seed=2)
    sched = SamplingSchedule(t0=0.0, tau=60.0, steps=4)
    for row in sample_series(p, sched, NoiseSpec(cv=0.0), seed=0):
        np.testing.assert_array_equal(row, p.baseline)


def test_series_noise_cv_calibrated():
    # statistical oracle: per-channel sample CV over 1e4 steps within +-10%
    spec = flat_spec(cv=0.2)
    p = individual(spec, seed=2)
    sched = SamplingSchedule(t0=0.0, tau=1.0, steps=10_000)
    values = sample_series(p, sched, NoiseSpec(cv=0.2), seed=123)
    emp = values.std(axis=0, ddof=1) / values.mean(axis=0)
    assert np.all(emp > 0.18) and np.all(emp < 0.22)


def test_series_determinism_and_negative_cv():
    spec = flat_spec(cv=0.2)
    p = individual(spec, seed=2)
    sched = SamplingSchedule(t0=0.0, tau=1.0, steps=8)
    a = sample_series(p, sched, NoiseSpec(cv=0.3), seed=5)
    b = sample_series(p, sched, NoiseSpec(cv=0.3), seed=5)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ConfigurationError):
        sample_series(p, sched, NoiseSpec(cv=-0.1), seed=5)


def test_series_drift_modulation():
    spec = flat_spec(cv=0.0)
    p = individual(spec, seed=2)
    sched = SamplingSchedule(t0=50.0, tau=10.0, steps=3)
    values = sample_series(p, sched, NoiseSpec(cv=0.0, drift_rate=0.01), seed=0)
    np.testing.assert_allclose(values[1] / values[0], np.exp(0.1), rtol=1e-12)


def test_demographics_vocabulary_enforced(distribution):
    with pytest.raises(ConfigurationError, match="not in vocabulary"):
        mimic_cohort(distribution, Demographics(sex="other"), 1, seed=1)


def test_cohort_csv_roundtrip(tmp_path):
    spec = flat_spec(cv=0.3)
    cohort = mimic_cohort(spec, FEMALE, 6, seed=8)
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, cohort, config_hash="abc123")
    ids, values = read_cohort_csv(path)
    assert ids == [p.id for p in cohort]
    np.testing.assert_array_equal(values, np.array([p.baseline for p in cohort]))
    assert path.read_text().startswith("# config_hash=abc123")

