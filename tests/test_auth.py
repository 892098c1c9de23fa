import numpy as np
import pytest

from sweatauth.auth import (Template, VerifyPolicy, append_audit,
                            calibrate_drift_offset, enroll, load_templates,
                            save_templates, score_step, verify_series)
from sweatauth.errors import ConfigurationError, InsufficientDataError
from sweatauth.metrics import ScoredPopulation, roc_curve


def vectors(rows):
    return np.array(rows, dtype=float)


# ------------------------------------------------------------- enroll

def test_single_sample_covariance_is_lambda_eye():
    tpl = enroll(vectors([[0.3, 0.7]]), k_reg=1, lam=1e-3)
    np.testing.assert_array_equal(tpl.mean, [0.3, 0.7])
    np.testing.assert_array_equal(tpl.covariance, 1e-3 * np.eye(2))


def test_constant_series_covariance_is_lambda_eye():
    tpl = enroll(vectors([[0.5, 0.2]] * 10), k_reg=10, lam=0.01)
    np.testing.assert_allclose(tpl.mean, [0.5, 0.2])
    np.testing.assert_allclose(tpl.covariance, 0.01 * np.eye(2), atol=1e-15)


def test_enrollment_estimates_gaussian_moments():
    # statistical oracle: with 200 registration samples the component means
    # land within 3 sigma / sqrt(200) of the generator's truth
    rng = np.random.default_rng(99)
    truth_mean = np.array([1.0, -2.0, 0.5])
    truth_sd = np.array([0.3, 0.1, 0.2])
    X = truth_mean + truth_sd * rng.standard_normal((200, 3))
    tpl = enroll(vectors(X), k_reg=200, lam=1e-6)
    np.testing.assert_array_less(np.abs(tpl.mean - truth_mean),
                                 3.0 * truth_sd / np.sqrt(200))
    np.testing.assert_allclose(np.sqrt(np.diag(tpl.covariance)), truth_sd, rtol=0.25)


def test_enroll_insufficient_data():
    with pytest.raises(InsufficientDataError):
        enroll(vectors([[1.0]] * 3), k_reg=5, lam=1e-3)
    with pytest.raises(InsufficientDataError):
        enroll(vectors([[1.0]] * 3), k_reg=0, lam=1e-3)


def test_enroll_uses_only_registration_window():
    rows = [[0.0], [0.0], [0.0], [100.0]]
    tpl = enroll(vectors(rows), k_reg=3, lam=1e-3)
    assert tpl.mean[0] == 0.0


# ------------------------------------------------------------- scoring

def test_score_at_mean_is_zero():
    tpl = enroll(vectors([[0.4, 0.6]] * 5), k_reg=5, lam=1e-2)
    assert score_step(tpl, np.array([0.4, 0.6])) == 0.0


def test_score_closed_form():
    tpl = Template(user_id="u", mean=np.zeros(3), covariance=np.eye(3),
                   k_reg=1, lam=0.0)
    assert score_step(tpl, np.array([3.0, 0.0, 0.0])) == pytest.approx(-4.5)


def test_score_monotone_in_radius():
    tpl = Template(user_id="u", mean=np.zeros(2),
                   covariance=np.array([[2.0, 0.3], [0.3, 0.5]]), k_reg=1, lam=0.0)
    direction = np.array([0.6, -0.8])
    scores = [score_step(tpl, r * direction) for r in np.linspace(0, 5, 30)]
    assert all(b < a for a, b in zip(scores, scores[1:]))


def test_score_dimension_mismatch():
    tpl = Template(user_id="u", mean=np.zeros(2), covariance=np.eye(2), k_reg=1, lam=0.0)
    with pytest.raises(ValueError):
        score_step(tpl, np.array([1.0, 2.0, 3.0]))


def test_score_invariant_under_channel_permutation():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    tpl = enroll(vectors(X), k_reg=30, lam=1e-3)
    probe = rng.normal(size=4)
    base = score_step(tpl, probe)
    for _ in range(5):
        perm = rng.permutation(4)
        ptpl = Template(user_id="u", mean=tpl.mean[perm],
                        covariance=tpl.covariance[np.ix_(perm, perm)],
                        k_reg=tpl.k_reg, lam=tpl.lam)
        assert score_step(ptpl, probe[perm]) == pytest.approx(base, rel=1e-10)


# ------------------------------------------------------------- verification

def test_verify_accepts_mean_stream():
    tpl = enroll(vectors([[0.5, 0.5]] * 4), k_reg=4, lam=1e-2)
    policy = VerifyPolicy(accept_thr=1.0, reject_thr=-5.0, drift_offset=-0.25)
    stream = vectors([[0.5, 0.5]] * 50)
    decision = verify_series(tpl, stream, policy)
    assert decision.verdict == "accept"
    assert decision.steps_read == 4  # statistic climbs 0.25 per step
    assert decision.statistic >= 1.0


def test_verify_rejects_distant_stream():
    tpl = enroll(vectors([[0.5, 0.5]] * 4), k_reg=4, lam=1e-2)
    policy = VerifyPolicy(accept_thr=10.0, reject_thr=-10.0, drift_offset=0.0)
    decision = verify_series(tpl, vectors([[5.0, -5.0]] * 50), policy)
    assert decision.verdict == "reject"
    assert decision.steps_read == 1


def test_verify_empty_stream_continues():
    tpl = enroll(vectors([[0.5]] * 2), k_reg=2, lam=1e-2)
    policy = VerifyPolicy(accept_thr=1.0, reject_thr=-1.0)
    decision = verify_series(tpl, [], policy)
    assert decision.verdict == "continue"
    assert decision.statistic == 0.0
    assert decision.steps_read == 0


def test_verify_continue_reads_the_whole_stream():
    tpl = enroll(vectors([[0.5, 0.5]] * 4), k_reg=4, lam=1e-2)
    policy = VerifyPolicy(accept_thr=1e9, reject_thr=-1e9)
    decision = verify_series(tpl, vectors([[0.5, 0.5]] * 7), policy)
    assert (decision.verdict, decision.statistic, decision.steps_read) == ("continue", 0.0, 7)


def test_accumulation_is_additive_over_concatenation():
    rng = np.random.default_rng(11)
    tpl = enroll(vectors(rng.normal(size=(20, 2))), k_reg=20, lam=1e-2)
    a = vectors(rng.normal(size=(5, 2)))
    b = vectors(rng.normal(size=(7, 2)))
    wide = VerifyPolicy(accept_thr=1e9, reject_thr=-1e9, drift_offset=0.1)
    d_ab = verify_series(tpl, np.concatenate([a, b]), wide)
    d_a = verify_series(tpl, a, wide)
    d_b = verify_series(tpl, b, wide)
    assert d_ab.statistic == pytest.approx(d_a.statistic + d_b.statistic, rel=1e-12)
    assert d_ab.steps_read == d_a.steps_read + d_b.steps_read == 12


def test_policy_requires_ordered_thresholds():
    with pytest.raises(ValueError):
        VerifyPolicy(accept_thr=-1.0, reject_thr=1.0)


def test_monotone_far_under_threshold_sweep():
    rng = np.random.default_rng(13)
    impostor = rng.normal(-2.0, 1.0, 500)
    thresholds = np.linspace(-6, 2, 40)
    far = [(impostor >= t).mean() for t in thresholds]
    assert all(b <= a for a, b in zip(far, far[1:]))


def test_time_series_benefit_on_gaussian_scores():
    # accumulating k steps averages noise away, so the equal error rate at
    # k = 10 cannot exceed the single-step rate on the same populations
    rng = np.random.default_rng(21)
    n_users, k = 40, 10
    genuine = rng.normal(0.0, 1.0, size=(n_users, k))
    impostor = rng.normal(-1.2, 1.0, size=(n_users, k))
    e1 = roc_curve(ScoredPopulation(genuine.ravel(), impostor.ravel())).eer()
    e10 = roc_curve(ScoredPopulation(genuine.mean(axis=1), impostor.mean(axis=1))).eer()
    assert e10 <= e1


def test_drift_offset_calibration():
    assert calibrate_drift_offset([1.0, 2.0, 3.0], margin=0.5) == 1.5
    with pytest.raises(InsufficientDataError):
        calibrate_drift_offset([], margin=0.5)


# ------------------------------------------------------------- persistence

def test_template_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    tpls = [enroll(vectors(rng.normal(size=(10, 3))), k_reg=10, lam=1e-3,
                   user_id=f"u{i}", created_at=600.0) for i in range(3)]
    path = tmp_path / "templates.json"
    save_templates(path, tpls, config_hash="cafe", params_hash="f00d")
    loaded = load_templates(path)
    assert [t.user_id for t in loaded] == ["u0", "u1", "u2"]
    for a, b in zip(tpls, loaded):
        np.testing.assert_allclose(a.mean, b.mean)
        np.testing.assert_allclose(a.covariance, b.covariance)
        assert b.created_at == 600.0
    assert '"config_hash": "cafe"' in path.read_text()


def test_audit_log_appends(tmp_path):
    path = tmp_path / "audit.csv"
    append_audit(path, [(120.0, "u0", 1.5, "accept")])
    append_audit(path, [(240.0, "u1", -3.0, "reject")])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "timestamp_s,user_id,statistic,verdict"
    assert len(lines) == 3
    assert lines[2].split(",")[3] == "reject"


def test_audit_log_that_cannot_be_opened_is_a_configuration_error(tmp_path):
    path = tmp_path / "audit.csv"
    path.mkdir()
    with pytest.raises(ConfigurationError) as exc:
        append_audit(path, [(120.0, "u0", 1.5, "accept")])
    assert str(exc.value) == f"{path}: cannot write: Is a directory"


@pytest.mark.parametrize("existing", [None, b""], ids=["new-file", "empty-file"])
def test_audit_log_writes_one_header(tmp_path, existing):
    path = tmp_path / "audit.csv"
    if existing is not None:
        path.write_bytes(existing)
    append_audit(path, [(120.0, "u0", 1.5, "accept")])
    append_audit(path, [(240.0, "u1", -3.0, "reject")])
    assert path.read_bytes() == (b"timestamp_s,user_id,statistic,verdict\r\n"
                                 b"120.0,u0,1.5,accept\r\n240.0,u1,-3.0,reject\r\n")
