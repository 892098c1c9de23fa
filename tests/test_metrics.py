import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sweatauth.errors import InsufficientDataError
from sweatauth.metrics import (SLICE, DelongResult, RocCurve, ScoredPopulation, _sample_var,
                               _thresholds, auc, delong_variance, roc_curve, write_roc_csv)


def brute_force_auc(genuine, impostor):
    """Independent oracle: exhaustive ordered-pair enumeration."""
    wins = ties = 0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1
            elif g == i:
                ties += 1
    return (wins + 0.5 * ties) / (len(genuine) * len(impostor))


# Pairwise oracles: the former genuine x impostor implementations, kept
# verbatim so the sorted-count versions can be held to them bit for bit.

def pairwise_roc_curve(pop):
    """(points [K, 2] of (FPR, TPR), thresholds) of the former pairwise sweep."""
    thresholds = np.unique(np.concatenate([pop.genuine, pop.impostor]))[::-1]
    n_g, n_i = pop.genuine.size, pop.impostor.size
    points = [(0.0, 0.0)]
    thr_out = [np.inf]
    for thr in thresholds:
        tpr = np.count_nonzero(pop.genuine >= thr) / n_g
        fpr = np.count_nonzero(pop.impostor >= thr) / n_i
        points.append((fpr, tpr))
        thr_out.append(thr)
    return np.asarray(points, dtype=float), np.asarray(thr_out, dtype=float)


def pairwise_corners(pop):
    """pairwise_roc_curve's (points, thresholds) without each point whose neighbours
    both share its FPR (a vertical run) or both share its TPR (a horizontal run)."""
    points, thresholds = pairwise_roc_curve(pop)
    keep = [k for k in range(len(points))
            if k in (0, len(points) - 1)
            or not any(points[k - 1, c] == points[k, c] == points[k + 1, c] for c in (0, 1))]
    return points[keep], thresholds[keep]


def pairwise_auc(pop):
    g = pop.genuine[:, None]
    i = pop.impostor[None, :]
    wins = np.count_nonzero(g > i)
    ties = np.count_nonzero(g == i)
    return (wins + 0.5 * ties) / (pop.genuine.size * pop.impostor.size)


def pairwise_delong_variance(pop):
    g = pop.genuine[:, None]
    i = pop.impostor[None, :]
    psi = (g > i).astype(float) + 0.5 * (g == i)
    v10 = psi.mean(axis=1)
    v01 = psi.mean(axis=0)
    point = float(psi.mean())
    var = float(np.var(v10, ddof=1) / v10.size + np.var(v01, ddof=1) / v01.size)
    half = 1.96 * np.sqrt(var)
    lo, hi = point - half, point + half
    return DelongResult(auc=point, variance=var,
                        ci=(max(lo, 0.0), min(hi, 1.0)), ci_unclipped=(lo, hi))


def loop_eer(pop):
    return loop_curve_eer(pairwise_roc_curve(pop)[0])


def loop_curve_eer(points):
    far = points[:, 0]
    frr = 1.0 - points[:, 1]
    diff = frr - far
    for k in range(len(diff) - 1):
        if diff[k] >= 0.0 and diff[k + 1] <= 0.0:
            span = diff[k] - diff[k + 1]
            alpha = diff[k] / span if span > 0 else 0.0
            return float(far[k] + alpha * (far[k + 1] - far[k]))
    return float(far[-1])


def per_row_roc_csv(path, pop, config_hash=""):
    """The ROC CSV of pop with one row per point of the pairwise sweep: the anchor, then
    one per distinct score."""
    points, thresholds = pairwise_roc_curve(pop)
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write("threshold,fpr,tpr\n")
        for thr, (fpr, tpr) in zip(thresholds, points):
            fh.write(f"{float(thr)!r},{float(fpr)!r},{float(tpr)!r}\n")


def corner_rows(lines):
    """The lines of a per-row ROC CSV that are kept as corners: the hash line and
    header, then each row except one whose neighbours both share its FPR (a vertical
    run) or both share its TPR (a horizontal run)."""
    n_head = 2 if lines[0].startswith("#") else 1
    rows = lines[n_head:]
    rates = [[float(x) for x in row.split(",")[1:]] for row in rows]
    kept = list(lines[:n_head])
    for k, row in enumerate(rows):
        if 0 < k < len(rows) - 1:
            (f0, p0), (f1, p1), (f2, p2) = rates[k - 1:k + 2]
            if f0 == f1 == f2 or p0 == p1 == p2:
                continue
        kept.append(row)
    return kept


def assert_writes_corner_rows(tmp_path, pop, config_hash="beef"):
    """write_roc_csv of roc_curve(pop) writes exactly the per-row writer's corner rows;
    returns its rows."""
    write_roc_csv(tmp_path / "new.csv", roc_curve(pop), config_hash=config_hash)
    per_row_roc_csv(tmp_path / "old.csv", pop, config_hash=config_hash)
    want = corner_rows((tmp_path / "old.csv").read_bytes().decode().splitlines(keepends=True))
    got = (tmp_path / "new.csv").read_bytes().decode()
    assert got == "".join(want)
    return want[1 + bool(config_hash):]


def assert_eer_within_ulps(got, want, ulps):
    assert abs(got - want) <= ulps * np.spacing(max(got, want)), (got, want)


def assert_matches_oracles(genuine, impostor, eer_ulps=0):
    """Every result of the sorted counts equals its pairwise oracle bit for bit, the EER
    within eer_ulps: read on the corners, it can round differently (see
    test_eer_on_an_unmerged_horizontal_step_is_one_minus_tpr)."""
    pop = ScoredPopulation(genuine, impostor)
    curve, (points, thresholds) = roc_curve(pop), pairwise_corners(pop)
    assert np.array_equal(curve.points, points)
    assert np.array_equal(curve.thresholds, thresholds)
    assert curve.points.tobytes() == points.tobytes()
    assert curve.thresholds.tobytes() == thresholds.tobytes()
    assert auc(pop) == pairwise_auc(pop)
    assert_eer_within_ulps(curve.eer(), loop_eer(pop), eer_ulps)
    if min(pop.genuine.size, pop.impostor.size) >= 2:
        got, ref = delong_variance(pop), pairwise_delong_variance(pop)
        assert got.auc == ref.auc
        assert got.variance == ref.variance
        assert got.ci == ref.ci
        assert got.ci_unclipped == ref.ci_unclipped


def oracle_cases():
    rng = np.random.default_rng(2014)
    cases = {}
    for n_g, n_i in [(40, 37), (7, 300), (300, 7), (250, 250)]:
        cases[f"normal-{n_g}x{n_i}"] = (rng.normal(1, 1, n_g), rng.normal(0, 1, n_i))
    for n_g, n_i in [(30, 45), (200, 150)]:  # few levels: ties within and across classes
        cases[f"integer-{n_g}x{n_i}"] = (rng.integers(0, 6, n_g).astype(float),
                                         rng.integers(0, 6, n_i).astype(float))
    cases["all-tied"] = (np.full(5, 3.0), np.full(4, 3.0))
    cases["signed-zeros"] = (np.array([0.0, -0.0, 1.0, -0.0]), np.array([-0.0, 0.0, -1.0]))
    cases["signed-zeros-only"] = (np.array([-0.0, 0.0]), np.array([0.0, -0.0, -0.0]))
    cases["one-genuine"] = (np.array([0.3]), rng.normal(0, 1, 9))
    cases["one-impostor"] = (rng.normal(0, 1, 9), np.array([0.3]))
    cases["one-each-tied"] = (np.array([2.0]), np.array([2.0]))
    cases["two-each"] = (np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    cases["two-genuine"] = (np.array([0.5, -0.5]), rng.integers(-1, 2, 11).astype(float))
    cases["two-impostor"] = (rng.integers(-1, 2, 11).astype(float), np.array([0.0, -0.0]))
    # FRR - FAR reaches exactly 0 on a sweep point: the first crossing is the
    # segment ending there, whose interpolation rounds differently
    cases["eer-on-a-point"] = (np.array([2.0, 1.0, 3.0, 7.0, 1.0, 1.0]),
                               np.array([2.0, 4.0, 4.0, 7.0, 7.0, 4.0]))
    return cases


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_sorted_counts_match_pairwise_oracles(name):
    # on the horizontal step from (1/3, 1/6) to (5/6, 1/6) FAR meets FRR exactly at its
    # end: the corners give that end's FAR, 0.8333333333333334, and the full sweep's
    # interpolation 1/3 + (5/6 - 1/3) = 0.8333333333333333
    assert_matches_oracles(*oracle_cases()[name], eer_ulps=int(name == "eer-on-a-point"))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=25),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=25))
def test_sorted_counts_match_pairwise_oracles_on_any_finite_scores(genuine, impostor):
    # 1 of 200,000 examples drawn so read an EER 1 ulp off the full sweep's
    assert_matches_oracles(genuine, impostor, eer_ulps=2)


@pytest.mark.parametrize("n", [1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5])
@pytest.mark.parametrize("count", ["probes", "points"])
@pytest.mark.parametrize("big", ["genuine", "impostor"])
def test_sorted_counts_match_pairwise_oracles_at_slice_boundaries(n, count, big):
    # the big class holds n probes, or n - 1 distinct scores and so n curve
    # points (two for n = 1); the six scores of the other class tie with it
    rng = np.random.default_rng(n)
    scores = rng.permutation(np.arange(n if count == "probes" else max(n - 1, 1))) / 8.0 - 1.0
    others = rng.choice(scores, 6)
    genuine, impostor = (scores, others) if big == "genuine" else (others, scores)
    assert_matches_oracles(genuine, impostor)
    if count == "points":
        assert len(pairwise_roc_curve(ScoredPopulation(genuine, impostor))[0]) == max(n, 2)


def ladder(n_scores):
    """Curve of n_scores + 1 points on FAR = TPR: both classes hold the scores
    1 .. n_scores, so the point at row k is (k / n_scores, k / n_scores), and each
    point is a corner, since no axis-parallel run holds it."""
    scores = np.arange(1.0, n_scores + 1)
    curve = roc_curve(ScoredPopulation(scores, scores))
    rates = np.arange(n_scores + 1) / n_scores
    assert curve.points.tobytes() == np.column_stack([rates, rates]).tobytes()
    assert curve.thresholds.tobytes() == np.concatenate([[np.inf], scores[::-1]]).tobytes()
    return curve


@pytest.mark.parametrize("row", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE])
@pytest.mark.parametrize("exact", [True, False], ids=["on-a-point", "between-points"])
def test_eer_crossing_at_a_slice_boundary_matches_the_full_sweep(row, exact):
    # FRR - FAR = 1 - 2k / n_scores first reaches 0 at row, or first changes
    # sign between row - 1 and row
    curve = ladder(2 * row if exact else 2 * row - 1)
    points = curve.points
    diff = 1.0 - 2.0 * points[:, 0]
    assert diff[row - 1] > 0.0 and (diff[row] == 0.0) == exact and diff[row] <= 0.0
    assert curve.eer() == loop_curve_eer(points)


@pytest.mark.parametrize("row", [2, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 4])
def test_roc_curve_checks_every_row_across_slices(row):
    good = ladder(3 * SLICE + 4)  # 3 * SLICE + 5 points
    thresholds = good.thresholds.copy()
    thresholds[row] = thresholds[row - 1]  # one threshold that does not descend
    with pytest.raises(ValueError, match="ROC thresholds must descend"):
        RocCurve(thresholds=thresholds, points=good.points)
    for rate in (0, 1):  # FPR, then TPR
        points = good.points.copy()
        points[row - 1, rate] = points[row - 2, rate] - 0.5 / len(points)  # one step back
        with pytest.raises(ValueError, match="ROC rates must not fall along the sweep"):
            RocCurve(thresholds=good.thresholds, points=points)


def test_identity_cohort_shape_fits_in_bounded_memory():
    # 1,000 genuine x 99,000 impostor scores (identity at n = 100): the pair
    # matrix alone would be 99e6 float64 values, about 0.8 GB. Beyond the
    # threshold buffer of one float per score and +inf, and a sorted copy of
    # each class, which it drops on return, roc_curve holds only slices and the
    # corners. delong_variance holds one float per score (the column counts, or
    # a sorted class) and one per genuine score (the row counts), plus slices.
    rng = np.random.default_rng(100)
    pop = ScoredPopulation(rng.normal(1, 1, 1_000), rng.normal(0, 1, 99_000))
    roc_curve(pop).eer(), delong_variance(pop)  # the first calls import lazily
    per_score, per_genuine, margin = 8 * 100_000, 8 * 1_000, 2**18
    curve = roc_curve(pop)
    corners = len(curve.thresholds)  # and nothing else: no view of the buffer
    assert corners <= 2 * 1_000 + 2 and curve.thresholds.base is None is curve.points.base
    assert curve.thresholds.nbytes + curve.points.nbytes == 3 * 8 * corners
    for name, call, bound in [
            ("delong_variance", lambda: delong_variance(pop), per_score + per_genuine + margin),
            ("roc_curve", lambda: roc_curve(pop), 2 * per_score + 8 + margin),
            ("RocCurve.eer", curve.eer, margin)]:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak)


# ------------------------------------------------------------- roc

def test_perfect_separation_curve():
    pop = ScoredPopulation([2.0, 3.0, 4.0], [0.0, 0.5, 1.0])
    curve = roc_curve(pop)
    assert any(np.allclose(p, (0.0, 1.0)) for p in curve.points)
    assert auc(pop) == 1.0
    assert curve.eer() == 0.0


def test_identical_populations_on_diagonal():
    pop = ScoredPopulation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    curve = roc_curve(pop)
    np.testing.assert_allclose(curve.points[:, 0], curve.points[:, 1])
    assert auc(pop) == 0.5
    assert curve.eer() == pytest.approx(0.5)


def test_worked_four_score_example():
    pop = ScoredPopulation([0.8, 0.35], [0.4, 0.1])
    # oracle: pairs (0.8,0.4) (0.8,0.1) (0.35,0.1) correct, (0.35,0.4) not
    assert brute_force_auc(pop.genuine, pop.impostor) == 0.75
    assert auc(pop) == 0.75
    curve = roc_curve(pop)
    assert curve.trapezoid_area() == pytest.approx(0.75, abs=1e-12)


def test_roc_requires_both_classes():
    with pytest.raises(InsufficientDataError):
        roc_curve(ScoredPopulation([], [1.0]))
    with pytest.raises(InsufficientDataError):
        auc(ScoredPopulation([1.0], []))


def test_roc_monotone_and_anchored():
    rng = np.random.default_rng(0)
    pop = ScoredPopulation(rng.normal(1, 1, 40), rng.normal(0, 1, 37))
    curve = roc_curve(pop)
    assert np.all(np.diff(curve.points[:, 0]) >= 0)
    assert np.all(np.diff(curve.points[:, 1]) >= 0)
    np.testing.assert_allclose(curve.points[0], (0.0, 0.0))
    np.testing.assert_allclose(curve.points[-1], (1.0, 1.0))
    assert curve.thresholds[0] == np.inf
    assert np.all(np.diff(curve.thresholds[1:]) < 0)


def test_trapezoid_equals_pair_count():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n_g = rng.integers(2, 50)
        n_i = rng.integers(2, 50)
        if trial % 2:
            g = rng.normal(0.5, 1, n_g)
            i = rng.normal(0.0, 1, n_i)
        else:  # integer scores force ties across and within classes
            g = rng.integers(0, 6, n_g).astype(float)
            i = rng.integers(0, 6, n_i).astype(float)
        pop = ScoredPopulation(g, i)
        want = brute_force_auc(g, i)
        assert abs(auc(pop) - want) < 1e-9
        assert abs(roc_curve(pop).trapezoid_area() - want) < 1e-9


@given(st.lists(st.integers(-200, 200), min_size=1, max_size=30),
       st.lists(st.integers(-200, 200), min_size=1, max_size=30),
       st.sampled_from(["affine", "exp", "cube"]))
def test_auc_invariant_under_increasing_transform(genuine, impostor, kind):
    # quarter-integer lattice keeps transformed scores from colliding in float
    transforms = {
        "affine": lambda x: 3.0 * x + 7.0,
        "exp": lambda x: math.exp(x / 25.0),
        "cube": lambda x: x ** 3,
    }
    f = transforms[kind]
    genuine = [x / 4.0 for x in genuine]
    impostor = [x / 4.0 for x in impostor]
    base = auc(ScoredPopulation(genuine, impostor))
    moved = auc(ScoredPopulation([f(x) for x in genuine], [f(x) for x in impostor]))
    assert moved == pytest.approx(base, abs=1e-12)


def test_auc_complement_symmetry():
    rng = np.random.default_rng(7)
    g = rng.normal(1, 2, 25)
    i = rng.normal(0, 1, 31)
    assert auc(ScoredPopulation(g, i)) + auc(ScoredPopulation(i, g)) == pytest.approx(1.0)


# ------------------------------------------------------------- delong

def test_delong_point_estimate_equals_auc():
    rng = np.random.default_rng(12)
    pop = ScoredPopulation(rng.normal(1, 1, 25), rng.normal(0, 1, 25))
    res = delong_variance(pop)
    assert res.auc == auc(pop)


def test_delong_close_to_bootstrap():
    # oracle: 2000-resample bootstrap variance of the AUC on a fixed pair
    # of 25-score populations
    rng = np.random.default_rng(2024)
    g = rng.normal(1.0, 1.0, 25)
    i = rng.normal(0.0, 1.0, 25)
    res = delong_variance(ScoredPopulation(g, i))
    boot = np.empty(2000)
    for b in range(2000):
        gb = rng.choice(g, size=g.size, replace=True)
        ib = rng.choice(i, size=i.size, replace=True)
        boot[b] = auc(ScoredPopulation(gb, ib))
    bvar = boot.var(ddof=1)
    assert abs(res.variance - bvar) / bvar < 0.2


def test_delong_needs_two_per_class():
    with pytest.raises(InsufficientDataError):
        delong_variance(ScoredPopulation([1.0], [0.0, 0.5]))


def test_delong_ci_clipping():
    pop = ScoredPopulation([3.0, 4.0, 5.0], [0.0, 1.0, 2.0])
    res = delong_variance(pop)
    assert res.ci[1] <= 1.0
    assert res.ci_unclipped[1] >= res.ci[1]
    assert res.ci[0] >= 0.0


# ------------------------------------------------------------- eer

def test_gaussian_gap_two_eer():
    # closed-form oracle: two unit normals two apart cross at Phi(-1)
    rng = np.random.default_rng(314)
    pop = ScoredPopulation(rng.normal(2.0, 1.0, 10_000), rng.normal(0.0, 1.0, 10_000))
    phi_minus_one = 0.5 * (1.0 - math.erf(1.0 / math.sqrt(2.0)))
    assert abs(roc_curve(pop).eer() - phi_minus_one) < 0.02


def test_eer_bounded_for_informative_scores():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.normal(rng.uniform(0, 2), 1, 50)
        i = rng.normal(0, 1, 50)
        pop = ScoredPopulation(g, i)
        if auc(pop) >= 0.5:
            assert 0.0 <= roc_curve(pop).eer() <= 0.5


def test_roc_csv(tmp_path):
    pop = ScoredPopulation([0.8, 0.7, 0.35], [0.4, 0.1])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, roc_curve(pop), config_hash="beef")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config_hash=beef"
    assert lines[1] == "threshold,fpr,tpr"
    # six points, one per distinct score and the (0,0) anchor: 0.8 lies inside the
    # vertical run from (0,0) to (0,2/3), so it is the one row dropped
    assert lines[2:] == ["inf,0.0,0.0", "0.7,0.0,0.6666666666666666", "0.4,0.5,0.6666666666666666",
                         "0.35,0.5,1.0", "0.1,1.0,1.0"]


def test_roc_csv_values_parse_as_floats(tmp_path):
    # numpy scalars must be written as plain Python float reprs
    pop = ScoredPopulation(np.array([0.8, 0.35, 0.35]), np.array([0.4, 0.3, 0.1]))
    path = tmp_path / "roc.csv"
    curve = roc_curve(pop)
    write_roc_csv(path, curve)
    rows = [[float(x) for x in line.split(",")]
            for line in path.read_text().splitlines()[1:]]
    points, thresholds = pairwise_roc_curve(pop)
    kept = [0, 1, 2, 3, 5]  # 0.3 lies inside the horizontal run from (1/3,1) to (1,1)
    assert len(points) == 6 and len(rows) == len(curve.points) == len(kept)
    assert all(len(r) == 3 for r in rows)
    np.testing.assert_array_equal([r[0] for r in rows], thresholds[kept])
    np.testing.assert_array_equal([r[1:] for r in rows], points[kept])
    np.testing.assert_array_equal(rows, np.column_stack([curve.thresholds, curve.points]))


@pytest.mark.parametrize("config_hash", ["", "beef"])
def test_roc_csv_bytes_match_per_row_writer(tmp_path, config_hash):
    rng = np.random.default_rng(9)
    genuine = np.concatenate([rng.normal(1, 1, 400), [-0.0, 2.5, 2.5]])
    impostor = np.concatenate([rng.normal(0, 1, 900), rng.choice([-2.0, -1.0, 2.5], 50)])
    pop = ScoredPopulation(genuine, impostor)
    thresholds = pairwise_roc_curve(pop)[1]
    assert "-0.0" in map(repr, thresholds.tolist())
    rows = assert_writes_corner_rows(tmp_path, pop, config_hash)
    assert 2 < len(rows) < len(thresholds)


def pop_of(n_points, seed=0):
    """Scores whose sweep has exactly n_points points: n_points - 1 distinct scores."""
    scores = np.random.default_rng(seed).permutation(np.arange(n_points - 1) / 7.0 - 1.0)
    if n_points == 2:
        return ScoredPopulation(scores, scores)
    half = (n_points - 1) // 2
    return ScoredPopulation(scores[:half], scores[half:])


@pytest.mark.parametrize("n_points", [2, SLICE, SLICE + 1, 3 * SLICE + 5])
def test_roc_csv_slices_match_per_row_writer(tmp_path, n_points):
    pop = pop_of(n_points)
    assert len(pairwise_roc_curve(pop)[0]) == n_points
    assert_writes_corner_rows(tmp_path, pop)


def test_roc_csv_write_memory_does_not_grow_with_the_curve(tmp_path):
    # all rows converted at once held three Python floats per point, about
    # 29 MB for this curve; strictly alternating classes make every point a corner
    ranks = np.random.default_rng(300).permutation(299_999)
    curve = roc_curve(ScoredPopulation(ranks[ranks % 2 == 0] / 3.0, ranks[ranks % 2 == 1] / 3.0))
    assert len(curve.thresholds) == 300_000
    tracemalloc.start()
    try:
        write_roc_csv(tmp_path / "roc.csv", curve, config_hash="beef")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "roc.csv") as fh:
        assert sum(1 for _ in fh) == 2 + 300_000
    assert peak < 2 * 2**20


def test_roc_curve_validation():
    thresholds = np.array([np.inf, 1.0, 0.0])
    points = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    RocCurve(thresholds=thresholds, points=points)
    with pytest.raises(ValueError, match="ROC thresholds must descend"):
        RocCurve(thresholds=thresholds[[0, 2, 1]], points=points)
    with pytest.raises(ValueError, match="ROC rates must not fall along the sweep"):
        RocCurve(thresholds=np.array([np.inf, 2.0, 1.0, 0.0]),
                 points=np.array([[0.0, 0.0], [0.5, 0.5], [0.25, 1.0], [1.0, 1.0]]))
    # a sweep that starts above (0,0) or ends below (1,1)
    with pytest.raises(ValueError, match=r"ROC must run from \(0,0\) to \(1,1\)"):
        RocCurve(thresholds=thresholds[1:], points=points[1:])
    with pytest.raises(ValueError, match=r"ROC must run from \(0,0\) to \(1,1\)"):
        RocCurve(thresholds=thresholds[:2], points=points[:2])


def buffer_cases():
    """Scores whose sorted buffer has the named shape, in shuffled order."""
    return {
        "distinct": lambda n: np.arange(n + 1) / 8.0 - 1.0,
        "all-tied": lambda n: np.full(n + 1, 3.0),
        # runs of three equal scores: one spans each slice boundary of a long buffer
        "runs-across-slices": lambda n: (np.arange(n + 1) // 3) / 8.0,
        "signed-zeros": lambda n: np.resize([-0.0, 0.0, 1.0, -0.0, -1.0, 0.0], n + 1),
    }


@pytest.mark.parametrize("n", [1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5])
@pytest.mark.parametrize("case", sorted(buffer_cases()))
def test_threshold_buffer_matches_np_unique_bit_for_bit(tmp_path, n, case):
    # n genuine and one impostor score: the buffer sorts and compacts n + 1
    scores = np.random.default_rng(n).permutation(buffer_cases()[case](n))
    pop = ScoredPopulation(scores[:n], scores[n:])
    want = np.concatenate([[np.inf], np.unique(np.concatenate([pop.genuine, pop.impostor]))[::-1]])
    assert _thresholds(pop).tobytes() == want.tobytes()
    if case == "signed-zeros" and n > 1:
        assert {repr(x) for x in scores.tolist()} >= {"-0.0", "0.0"}
    assert_writes_corner_rows(tmp_path, pop)


def pop_of_classes(classes):
    """Scores whose sweep point k >= 1 is reached by the k-th highest score, which is
    genuine where classes[k - 1] is "g" (a step up) and impostor where it is "i"
    (a step right); "b" is one score in each class (a diagonal step)."""
    scores = np.arange(len(classes), 0, -1) / 4.0
    cls = np.array(list(classes))
    return ScoredPopulation(scores[cls != "i"], scores[cls != "g"])


def crossing_segment(curve):
    """(start, end) corners of the first segment of the curve on which FRR - FAR reaches 0."""
    diff = (1.0 - curve.points[:, 1]) - curve.points[:, 0]
    k = next(k for k in range(len(diff) - 1) if diff[k + 1] <= 0.0)
    return curve.points[k], curve.points[k + 1]


@pytest.mark.parametrize("classes, rate, kind", [
    # FAR meets FRR inside a horizontal run of eleven impostor steps, at 0.5: an
    # interpolation between the run's ends gives 0.49999999999999994
    ("igiiiiiiiiiiig", 0.5, "horizontal"),
    ("iiigggggggiiiiig", 0.375, "vertical"),
    ("ggbbbii", 0.3, "diagonal"),  # three scores tied across the classes
])
def test_eer_on_the_corners_equals_the_full_sweep(classes, rate, kind):
    pop = pop_of_classes(classes)
    curve = roc_curve(pop)
    start, end = crossing_segment(curve)
    assert kind == ("horizontal" if start[1] == end[1] else
                    "vertical" if start[0] == end[0] else "diagonal")
    assert len(curve.points) < len(pairwise_roc_curve(pop)[0])
    assert curve.eer() == loop_eer(pop) == rate


def test_eer_on_an_unmerged_horizontal_step_is_one_minus_tpr():
    # The corners cannot tell a horizontal crossing segment that holds sweep points
    # from one that does not, so the EER there is 1 - TPR, which the full sweep's
    # interpolation can round differently, by at most 2 ulps: 34 of 200,000 random
    # tie-heavy populations (up to 11 genuine and 24 impostor scores in 0-7), and
    # 1 of 200,000 of the hypothesis test's examples. This is the smallest seen;
    # FAR crosses FRR = 1/3 on the one step from (0, 2/3) to (3/5, 2/3).
    pop = ScoredPopulation([5.0, 4.0, 0.0], [3.0, 3.0, 2.0, 3.0, 0.0])
    assert loop_eer(pop) == 0.3333333333333334
    assert roc_curve(pop).eer() == 1.0 - 2 / 3 == 0.33333333333333337
    assert_eer_within_ulps(roc_curve(pop).eer(), loop_eer(pop), 2)


def corners_written(tmp_path, pop):
    """Indices of the sweep points that roc_curve keeps and write_roc_csv writes,
    checked against corner_rows."""
    rows = assert_writes_corner_rows(tmp_path, pop)
    index = {t: k for k, t in enumerate(map(repr, pairwise_roc_curve(pop)[1].tolist()))}
    return [index[row.split(",")[0]] for row in rows]


@pytest.mark.parametrize("boundary", [SLICE, 2 * SLICE])
@pytest.mark.parametrize("step", ["g", "i"], ids=["vertical", "horizontal"])
def test_roc_csv_drops_a_run_across_a_slice_boundary(tmp_path, boundary, step):
    # a staircase, then one run from point boundary - 5 to boundary + 5, then a staircase
    other = "i" if step == "g" else "g"
    classes = (other + step) * (boundary // 2)
    classes = classes[:boundary - 6] + other + step * 10 + classes[:SLICE]
    kept = corners_written(tmp_path, pop_of_classes(classes))
    assert kept == [k for k in range(len(classes) + 1)
                    if not boundary - 5 < k < boundary + 5]


@pytest.mark.parametrize("turn", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE - 1, 2 * SLICE])
def test_roc_csv_keeps_a_turn_at_a_slice_boundary(tmp_path, turn):
    # straight up to the turn, then straight right: one corner; then a single step up
    # among steps right: two corners, at points turn - 1 and turn
    n = 2 * SLICE + 7
    assert corners_written(tmp_path, pop_of_classes("g" * turn + "i" * (n - turn))) == [
        0, turn, n]
    classes = "i" * (turn - 1) + "g" + "i" * (n - turn)
    assert corners_written(tmp_path, pop_of_classes(classes)) == [0, turn - 1, turn, n]


def test_roc_csv_keeps_both_ends_of_a_diagonal_segment(tmp_path):
    # a score tied across the classes moves both rates at once; collinear diagonal
    # points are kept, since no axis-parallel run holds them
    assert corners_written(tmp_path, pop_of_classes("gbbigbgib")) == list(range(10))
    assert corners_written(tmp_path, pop_of_classes("gggbiiibbggg")) == [0, 3, 4, 7, 8, 9, 12]


@pytest.mark.parametrize("genuine, impostor", [([0.5], [0.5]), ([2.0] * 5, [2.0] * 3)],
                         ids=["two-points", "all-tied"])
def test_roc_csv_keeps_a_two_point_curve(tmp_path, genuine, impostor):
    # every score tied, one or several in each class: the curve is its two ends
    pop = ScoredPopulation(genuine, impostor)
    assert len(pairwise_roc_curve(pop)[1]) == 2
    assert corners_written(tmp_path, pop) == [0, 1]


def test_roc_csv_writes_a_signed_zero_threshold_as_the_per_row_writer(tmp_path):
    # -0.0 and 0.0 tie; the threshold kept is written with its sign, dropped or kept
    for genuine, impostor, kept in [([-0.0, 1.0], [0.0, -1.0], [0, 1, 2, 3]),
                                    ([2.0, 1.0, -0.0], [0.0, -1.0], [0, 2, 3, 4]),
                                    ([2.0, 1.0, 0.5], [-0.0, 0.0, -1.0], [0, 3, 5])]:
        pop = ScoredPopulation(genuine, impostor)
        zero = [repr(t) for t in _thresholds(pop).tolist() if t == 0.0]
        assert zero in (["-0.0"], ["0.0"])
        assert corners_written(tmp_path, pop) == kept


def test_roc_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 1.6 MB and 15-21 ms
    code = ("import sys; import numpy as np; from sweatauth.metrics import *\n"
            "pop = ScoredPopulation(np.arange(50.0) % 7, np.arange(30.0) % 5)\n"
            "curve = roc_curve(pop); curve.eer(); write_roc_csv(sys.argv[1], curve)\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "roc.csv")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 1_000, 99_000])
def test_sample_variance_in_place_matches_np_var(n):
    rng = np.random.default_rng(n)
    for x in (rng.normal(0.3, 2.0, n), rng.integers(0, 5, n) / 7.0):
        want = np.var(x, ddof=1)
        got = _sample_var(x.copy())
        assert type(got) is type(want) and got == want
