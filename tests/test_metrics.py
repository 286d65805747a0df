from fractions import Fraction

import numpy as np
import pytest

from sigver.dataset import Pair
from sigver.metrics import (
    Protocol,
    REFERENCE_EER,
    ScoreSet,
    aggregate_4vs1,
    compute_eer,
    det_curve,
    evaluation_row,
    make_score_set,
    write_det_csv,
    write_results_csv,
)


def oracle_eer(genuine, impostor) -> float:
    """Rate-crossing search in exact rational arithmetic.

    Sweeps every distinct score as a threshold; where FAR = FRR falls
    between two adjacent operating points, intersects the connecting
    segment with the FAR = FRR diagonal.
    """
    genuine = [float(g) for g in genuine]
    impostor = [float(i) for i in impostor]
    thresholds = sorted(set(genuine) | set(impostor))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for t in thresholds:
        far = Fraction(sum(1 for s in impostor if s >= t), len(impostor))
        frr = Fraction(sum(1 for s in genuine if s < t), len(genuine))
        points.append((far, frr))
    prev = points[0]
    for far, frr in points:
        if far == frr:
            return float(100 * far)
        if far < frr:
            far0, frr0 = prev
            s = (far0 - frr0) / ((far0 - frr0) + (frr - far))
            return float(100 * (far0 + s * (far - far0)))
        prev = (far, frr)
    raise AssertionError("rates never crossed")


def pair(user, enroll, probe, label):
    return Pair(user, enroll, probe,
                f"{user}/e{enroll}", f"{user}/p{label}_{probe}", label)


def test_matches_exact_oracle_on_random_sets(rng):
    for _ in range(60):
        n_gen = int(rng.integers(2, 200))
        n_imp = int(rng.integers(2, 200))
        # quantized scores force plenty of exact ties across the sets
        genuine = np.round(rng.normal(0.6, 0.3, n_gen), 2)
        impostor = np.round(rng.normal(0.4, 0.3, n_imp), 2)
        eer, threshold = compute_eer(ScoreSet(genuine, impostor))
        assert eer == pytest.approx(oracle_eer(genuine, impostor), abs=1e-9)
        assert np.isfinite(threshold)


def test_perfect_separation_is_exactly_zero():
    eer, threshold = compute_eer(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    assert eer == 0.0
    assert 0.2 < threshold <= 0.8


def test_identical_distributions_are_exactly_fifty():
    scores = [0.3, 0.7, 0.7, 0.9]
    eer, _ = compute_eer(ScoreSet(scores, scores))
    assert eer == 50.0


def test_three_vs_three_crossing():
    scores = ScoreSet([0.8, 0.6, 0.4], [0.7, 0.3, 0.2])
    eer, threshold = compute_eer(scores)
    assert eer == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert eer == pytest.approx(oracle_eer(scores.genuine, scores.impostor), abs=1e-12)
    assert threshold == pytest.approx(0.6)


def test_monotone_transform_keeps_eer(rng):
    genuine = rng.normal(1.0, 0.5, 50)
    impostor = rng.normal(0.0, 0.5, 60)
    base, _ = compute_eer(ScoreSet(genuine, impostor))
    scaled, _ = compute_eer(ScoreSet(3.0 * genuine + 2.0, 3.0 * impostor + 2.0))
    assert scaled == base
    warped, _ = compute_eer(ScoreSet(np.exp(genuine), np.exp(impostor)))
    assert warped == base


def test_score_set_validation():
    with pytest.raises(ValueError, match="both genuine and impostor"):
        compute_eer(ScoreSet([0.5], []))
    with pytest.raises(ValueError, match="both genuine and impostor"):
        compute_eer(ScoreSet([], [0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        compute_eer(ScoreSet([0.5, np.nan], [0.1]))


def test_det_curve_shape(rng):
    genuine = rng.normal(1.0, 0.6, 40)
    impostor = rng.normal(0.0, 0.6, 55)
    points = det_curve(ScoreSet(genuine, impostor))
    assert np.array_equal(points[0], [1.0, 0.0])
    assert np.array_equal(points[-1], [0.0, 1.0])
    assert np.all(np.diff(points[:, 0]) <= 0.0)  # FAR falls as threshold rises
    assert np.all(np.diff(points[:, 1]) >= 0.0)  # FRR climbs


def test_det_curve_degenerate_sets():
    perfect = det_curve(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    assert any(np.array_equal(p, [0.0, 0.0]) for p in perfect)
    same = det_curve(ScoreSet([0.3, 0.7], [0.3, 0.7]))
    assert any(np.array_equal(p, [0.5, 0.5]) for p in same)


def test_det_curve_crossing_agrees_with_eer(rng):
    for _ in range(20):
        scores = ScoreSet(
            np.round(rng.normal(0.7, 0.2, int(rng.integers(5, 80))), 2),
            np.round(rng.normal(0.3, 0.2, int(rng.integers(5, 80))), 2),
        )
        points = det_curve(scores)
        eer, _ = compute_eer(scores)
        crossing = None
        for k in range(points.shape[0]):
            far, frr = points[k]
            if far == frr:
                crossing = far
                break
            if far < frr:
                far0, frr0 = points[k - 1]
                s = (far0 - frr0) / ((far0 - frr0) + (frr - far))
                crossing = far0 + s * (far - far0)
                break
        assert crossing is not None
        assert 100.0 * crossing == pytest.approx(eer, abs=1e-9)


def test_det_curve_thinning(rng):
    scores = ScoreSet(rng.normal(1, 1, 300), rng.normal(0, 1, 300))
    full = det_curve(scores)
    thin = det_curve(scores, n_points=10)
    assert thin.shape[0] <= 10 < full.shape[0]
    assert np.array_equal(thin[0], [1.0, 0.0])
    assert np.array_equal(thin[-1], [0.0, 1.0])


def test_aggregate_averages_over_enrollment():
    pairs = [pair("u", e, 0, 1) for e in range(4)]
    agg = aggregate_4vs1(pairs, np.array([0.2, 0.4, 0.6, 0.8]))
    assert agg.genuine.tolist() == [0.5]
    assert agg.impostor.size == 0
    assert agg.protocol is Protocol.FOUR_VS_ONE


def test_aggregate_with_single_enrollment_is_identity():
    pairs, genuine_in, impostor_in = [], [], []
    scores = []
    for user in ("a", "b"):
        for probe in range(2):
            g = 0.5 + 0.01 * probe + (0.1 if user == "b" else 0.0)
            pairs.append(pair(user, 0, probe, 1))
            scores.append(g)
            genuine_in.append(g)
            i = 0.2 + 0.01 * probe
            pairs.append(pair(user, 0, probe, 0))
            scores.append(i)
            impostor_in.append(i)
    agg = aggregate_4vs1(pairs, np.array(scores))
    assert agg.genuine.tolist() == genuine_in
    assert agg.impostor.tolist() == impostor_in


def test_aggregate_is_linear(rng):
    pairs = []
    for user in ("a", "b", "c"):
        for probe in range(3):
            for e in range(4):
                pairs.append(pair(user, e, probe, probe % 2))
    scores = rng.normal(0, 1, len(pairs))
    base = aggregate_4vs1(pairs, scores)
    scaled = aggregate_4vs1(pairs, 2.0 * scores + 1.0)
    assert np.allclose(scaled.genuine, 2.0 * base.genuine + 1.0, atol=1e-12)
    assert np.allclose(scaled.impostor, 2.0 * base.impostor + 1.0, atol=1e-12)


def test_aggregate_rejects_gaps_and_duplicates():
    pairs = [pair("u", e, 0, 1) for e in range(4)]
    with pytest.raises(ValueError, match="pairs and scores"):
        aggregate_4vs1(pairs, np.zeros(3))
    # probe 1 lacks enrollment 3, which probe 0 shows the user has
    gap = pairs + [pair("u", e, 1, 1) for e in range(3)]
    with pytest.raises(ValueError,
                       match="user u label 1 probe 1: 3 scores, expected 4"):
        aggregate_4vs1(gap, np.zeros(7))
    dup = pairs[:3] + [pair("u", 2, 0, 1)]
    with pytest.raises(ValueError, match="duplicate score for enrollment 2"):
        aggregate_4vs1(dup, np.zeros(4))


def test_make_score_set():
    pairs = [pair("u", 0, 0, 1), pair("u", 0, 1, 0), pair("u", 0, 2, 1)]
    scores = np.array([0.9, 0.2, 0.8])
    out = make_score_set(pairs, scores, system="proposed")
    assert out.protocol is Protocol.ONE_VS_ONE
    assert out.genuine.tolist() == [0.9, 0.8]
    assert out.impostor.tolist() == [0.2]
    assert out.system == "proposed"
    with pytest.raises(ValueError, match="align"):
        make_score_set(pairs, scores[:2])


def test_evaluation_row_carries_reference_context():
    scores = ScoreSet([0.9, 0.8], [0.1, 0.2],
                      protocol=Protocol.ONE_VS_ONE, system="proposed")
    row = evaluation_row(scores)
    assert row["system"] == "proposed"
    assert row["protocol"] == "1vs1"
    assert row["eer_percent"] == "0.0000"
    assert row["n_genuine"] == 2
    assert row["reference_eer_percent"] == REFERENCE_EER[("proposed", Protocol.ONE_VS_ONE)]
    unknown = evaluation_row(ScoreSet([0.9], [0.1], system="mine"))
    assert unknown["reference_eer_percent"] == ""


def test_results_and_det_files(tmp_path):
    rows = [
        evaluation_row(ScoreSet([0.9, 0.8], [0.1, 0.2], system="proposed")),
        evaluation_row(
            ScoreSet([0.7], [0.3], protocol=Protocol.FOUR_VS_ONE, system="baseline")
        ),
    ]
    results = tmp_path / "results.csv"
    write_results_csv(results, rows)
    lines = results.read_text().splitlines()
    assert lines[0] == ("system,protocol,eer_percent,threshold,"
                        "n_genuine,n_impostor,reference_eer_percent")
    assert len(lines) == 3
    assert lines[1].startswith("proposed,1vs1,0.0000,")
    assert lines[2].startswith("baseline,4vs1,")

    det = tmp_path / "det.csv"
    curve = det_curve(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    write_det_csv(det, [("proposed", Protocol.ONE_VS_ONE, curve)])
    det_lines = det.read_text().splitlines()
    assert det_lines[0] == "system,protocol,far,frr"
    assert det_lines[1] == "proposed,1vs1,1.000000000,0.000000000"
    assert len(det_lines) == 1 + curve.shape[0]
