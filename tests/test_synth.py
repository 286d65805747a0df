import dataclasses
import math

import numpy as np
import pytest

from sigver.dataset import (
    DEVELOPMENT,
    EVALUATION,
    ProtocolConfig,
    build_pairs,
    build_split,
    load_dataset,
)
from sigver.dtw import DtwConfig, score_pairs_dtw
from sigver.features import extract_features
from sigver.metrics import aggregate_4vs1, compute_eer, make_score_set
from sigver.svc import DEFAULT_PRESSURE, SignatureKind, parse_svc
from sigver.synth import (
    SAMPLE_RATE,
    SynthConfig,
    generate,
    generate_records,
)

QUICK = SynthConfig(n_users=4, genuine_per_session=3, forgeries_per_user=6,
                    max_duration=2.0, seed=11)
QUICK_PROTOCOL = ProtocolConfig(
    enrollment_per_user=2, test_genuine_per_user=3, forgeries_per_user=3
)


def dtw_eval_eer(cfg: SynthConfig, protocol=QUICK_PROTOCOL) -> float:
    """4vs1 DTW EER over the whole corpus treated as evaluation users."""
    records = generate_records(cfg)
    split = build_split(records, n_dev_users=0, protocol=protocol)
    pairs = build_pairs(split, EVALUATION)
    features = {r.key: extract_features(r) for r in split.records(EVALUATION)}
    scores = score_pairs_dtw(pairs, features, DtwConfig(selected_columns=(1, 2, 5)))
    return compute_eer(aggregate_4vs1(pairs, scores))[0]


def test_generation_is_deterministic(tmp_path):
    cfg = SynthConfig(n_users=3, seed=5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert generate(cfg, dir_a) == generate(cfg, dir_b)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*.svc"))
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*.svc"))
    assert files_a == files_b
    for rel in files_a:
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()


def test_seed_changes_the_corpus():
    a = generate_records(SynthConfig(n_users=1, seed=1))
    b = generate_records(SynthConfig(n_users=1, seed=2))
    assert not np.array_equal(a[0].x, b[0].x)


def test_corpus_layout_and_counts(tmp_path, tiny_config):
    users, files = generate(tiny_config, tmp_path)
    per_user = (tiny_config.n_sessions * tiny_config.genuine_per_session
                + tiny_config.forgeries_per_user)
    assert users == tiny_config.n_users
    assert files == users * per_user
    records = load_dataset(tmp_path)
    assert len(records) == files
    by_user: dict[str, list] = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    assert len(by_user) == users
    for user_records in by_user.values():
        genuine = [r for r in user_records if r.kind is SignatureKind.GENUINE]
        forged = [r for r in user_records if r.kind is SignatureKind.SKILLED_FORGERY]
        assert len(genuine) == tiny_config.n_sessions * tiny_config.genuine_per_session
        assert len(forged) == tiny_config.forgeries_per_user
        assert {r.session for r in genuine} == set(range(1, tiny_config.n_sessions + 1))


def test_records_are_well_formed(tiny_records):
    for rec in tiny_records:
        rec.validate()
        n = len(rec)
        assert 150 * 0.95 <= n <= 400 * 1.05  # 1.5..4 s at 100 Hz, small warp slack
        assert np.all(np.diff(rec.timestamp) == 1000 // SAMPLE_RATE)
        assert np.all((rec.pressure >= 0) & (rec.pressure <= 1023))
        assert np.any(rec.pressure != DEFAULT_PRESSURE)  # synth signatures carry pressure


def test_every_signature_lifts_the_pen(tiny_records):
    for rec in tiny_records:
        assert np.any(~rec.pen_down)
        assert rec.pen_down[0]
        # pen-up samples report zero pressure
        assert np.all(rec.pressure[~rec.pen_down] == 0)


def test_emitted_files_parse_back(tmp_path, tiny_config, tiny_records):
    generate(tiny_config, tmp_path)
    rec = tiny_records[0]
    path = tmp_path / rec.user_id / "genuine_1_00.svc"
    parsed = parse_svc(path.read_bytes(), user_id=rec.user_id)
    assert parsed == rec


def test_zero_forgery_noise_is_chance_level():
    # with no forger error the two score populations are exchangeable, so
    # the 1vs1 EER (288 + 288 scores here) concentrates near 50%
    records = generate_records(SynthConfig(
        n_users=6, max_duration=2.0, seed=11, forgery_noise=0.0,
    ))
    split = build_split(records, n_dev_users=0)
    pairs = build_pairs(split, EVALUATION)
    features = {r.key: extract_features(r) for r in split.records(EVALUATION)}
    scores = score_pairs_dtw(pairs, features, DtwConfig(selected_columns=(1, 2, 5)))
    eer = compute_eer(make_score_set(pairs, scores))[0]
    assert 40.0 <= eer <= 60.0


def test_more_forgery_noise_separates_better():
    softer, harder = [], []
    for seed in range(5):
        base = SynthConfig(n_users=4, genuine_per_session=3, forgeries_per_user=6,
                           max_duration=2.0, seed=100 + seed)
        softer.append(dtw_eval_eer(
            SynthConfig(**{**base.__dict__, "forgery_noise": 0.3})))
        harder.append(dtw_eval_eer(
            SynthConfig(**{**base.__dict__, "forgery_noise": 1.5})))
    assert np.mean(harder) < np.mean(softer)


def test_frozen_default_corpus_regression():
    """The shipped 40-user corpus keeps its measured DTW quality."""
    records = generate_records(SynthConfig())
    split = build_split(records, n_dev_users=30)
    pairs = build_pairs(split, EVALUATION)
    features = {r.key: extract_features(r) for r in split.records(EVALUATION)}
    scores = score_pairs_dtw(pairs, features, DtwConfig())
    eer_1vs1 = compute_eer(make_score_set(pairs, scores))[0]
    eer_4vs1 = compute_eer(aggregate_4vs1(pairs, scores))[0]
    assert eer_4vs1 < 15.0
    assert eer_1vs1 < 15.0


def test_config_validation():
    with pytest.raises(ValueError, match="durations"):
        SynthConfig(min_duration=3.0, max_duration=2.0)
    with pytest.raises(ValueError, match="non-negative"):
        SynthConfig(forgery_noise=-0.1)
    SynthConfig()


@pytest.mark.parametrize("field", ["session_jitter", "forgery_noise"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_amplitude_is_rejected(field, value):
    message = f"^{field} must be finite and non-negative, got {value}$"
    with pytest.raises(ValueError, match=message):
        SynthConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(SynthConfig(), **{field: value})


@pytest.mark.parametrize("low, high", [(math.inf, math.inf), (1.5, math.inf),
                                       (math.nan, 4.0), (1.5, math.nan)])
def test_non_finite_duration_is_rejected(low, high):
    with pytest.raises(ValueError, match=r"^durations must satisfy 0\.1 <= min_duration "
                                         rf"<= max_duration < inf, got {low} and {high}$"):
        SynthConfig(min_duration=low, max_duration=high)
