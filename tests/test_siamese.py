import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest

from sigver import parallel, siamese
from sigver.dataset import Pair
from sigver.lstm import lstm_forward_batch, lstm_forward_steps, sigmoid
from sigver.siamese import (
    ModelConfig,
    ModelFormatError,
    SiameseModel,
    TrainConfig,
    TrainingDiverged,
    batch_loss_grads,
    init_model,
    load_model,
    pack_params,
    save_model,
    score_pairs,
    train,
    unpack_params,
    write_training_log,
)
from test_acceptance import pair_loss  # criterion 1's oracle

TINY = ModelConfig(n_features=3, branch_hidden=4, merge_hidden=3)


def tiny_model(rng, **overrides):
    cfg = dataclasses.replace(TINY, **overrides)
    return init_model(cfg, rng)


def random_seq(rng, length, n_features=3):
    return rng.normal(0.0, 1.0, (length, n_features))


def toy_training_setup(rng, n_users=3):
    """Labeled pairs over a dict of random feature sequences."""
    features = {}
    pairs = []
    for u in range(n_users):
        for i in range(3):
            features[f"u{u}/g{i}"] = random_seq(rng, int(rng.integers(5, 9)))
        features[f"u{u}/f0"] = random_seq(rng, int(rng.integers(5, 9)))
        pairs.append(Pair(f"u{u}", 0, 1, f"u{u}/g0", f"u{u}/g1", 1))
        pairs.append(Pair(f"u{u}", 0, 2, f"u{u}/g0", f"u{u}/g2", 1))
        pairs.append(Pair(f"u{u}", 0, 0, f"u{u}/g0", f"u{u}/f0", 0))
    return pairs, features


def test_symmetric_score_commutes(rng):
    model = tiny_model(rng)
    for _ in range(5):
        a = random_seq(rng, int(rng.integers(4, 10)))
        b = random_seq(rng, int(rng.integers(4, 10)))
        assert score_pairs(model, [a], [b])[0] == score_pairs(model, [b], [a])[0]


def test_asymmetric_score_depends_on_order(rng):
    model = tiny_model(rng, symmetric=False)
    a, b = random_seq(rng, 8), random_seq(rng, 6)
    assert score_pairs(model, [a], [b])[0] != score_pairs(model, [b], [a])[0]


@pytest.mark.parametrize("concat", ["per_step", "final_state"])
@pytest.mark.parametrize("readout", ["last", "mean"])
def test_symmetric_score_is_mean_of_both_orders(rng, concat, readout):
    # commutation alone would also hold if the symmetric rows read (a, a)
    # and (b, b) instead of (a, b) and (b, a)
    sym = tiny_model(rng, concat=concat, readout=readout)
    asym = dataclasses.replace(
        sym, config=dataclasses.replace(sym.config, symmetric=False)
    )
    seqs_a = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(5)]
    seqs_b = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(5)]
    expected = 0.5 * (score_pairs(asym, seqs_a, seqs_b)
                      + score_pairs(asym, seqs_b, seqs_a))
    assert np.allclose(score_pairs(sym, seqs_a, seqs_b), expected,
                       rtol=1e-12, atol=0.0)

    # a wiring that read (a, a) in both models would pass the check above;
    # compose the layers by hand for one order of one pair
    a, b = random_seq(rng, 6), random_seq(rng, 6)
    out_a, out_b = (lstm_forward_batch(asym.branch, s[None])[0][0] for s in (a, b))
    steps = slice(None) if concat == "per_step" else slice(-1, None)
    merge_in = np.concatenate([out_a[steps], out_b[steps]], axis=1)
    merge_out = lstm_forward_batch(asym.merge, merge_in[None])[0][0]
    read = merge_out[-1] if readout == "last" else merge_out.mean(axis=0)
    by_hand = 1.0 / (1.0 + np.exp(-(read @ asym.head.w + asym.head.b)))
    assert score_pairs(asym, [a], [b])[0] == pytest.approx(by_hand, rel=1e-12)


def test_zero_parameters_score_half(rng):
    model = tiny_model(rng)
    zeroed = unpack_params(model, np.zeros(pack_params(model).size))
    assert score_pairs(zeroed, [random_seq(rng, 7)], [random_seq(rng, 5)])[0] == 0.5


def test_scores_are_probabilities(rng):
    model = tiny_model(rng)
    seqs_a = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(10)]
    seqs_b = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(10)]
    scores = score_pairs(model, seqs_a, seqs_b)
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_score_pairs_matches_individual_scoring(rng):
    # 70 pairs: one full SCORE_BATCH slice and a partial one
    model = tiny_model(rng)
    seqs_a = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(70)]
    seqs_b = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(70)]
    assert siamese.SCORE_BATCH < 70
    batched = score_pairs(model, seqs_a, seqs_b)
    single = [score_pairs(model, [a], [b])[0] for a, b in zip(seqs_a, seqs_b)]
    assert np.allclose(batched, single, atol=1e-12)
    with pytest.raises(ValueError, match="equal length"):
        score_pairs(model, seqs_a, seqs_b[:-1])


VARIANTS = list(itertools.product(
    (True, False), ("per_step", "final_state"), ("last", "mean"), (1, 3)))


@pytest.mark.parametrize("hidden", [(16, 8), (46, 23)], ids=["cli", "library"])
@pytest.mark.parametrize("symmetric,concat,readout,stride", VARIANTS)
def test_score_pairs_equals_slicewise_forward(hidden, symmetric, concat, readout, stride):
    """Windowed scoring has the bits of training's forward pass over each
    64-pair slice alone, which encodes 2n branch rows per slice.

    150 distinct signatures do not fit one 128-row window, so the list
    spans several; one pair repeats a single object on both sides.
    """
    cfg = ModelConfig(n_features=23, branch_hidden=hidden[0], merge_hidden=hidden[1],
                      symmetric=symmetric, concat=concat, readout=readout,
                      time_stride=stride)
    gen = np.random.default_rng(7)
    model = init_model(cfg, gen)
    seqs = [random_seq(gen, int(gen.integers(7, 40)), 23) for _ in range(150)]
    idx_a, idx_b = gen.integers(0, 150, size=(2, 300))
    idx_b[100] = idx_a[100]
    seq_a, seq_b = [seqs[i] for i in idx_a], [seqs[i] for i in idx_b]
    labels = np.ones(300)
    expected = np.concatenate([
        batch_loss_grads(model, seq_a[lo : lo + 64], seq_b[lo : lo + 64],
                         labels[lo : lo + 64])[2]
        for lo in range(0, 300, 64)])
    assert np.array_equal(score_pairs(model, seq_a, seq_b), expected)
    a = seqs[0]
    alone = batch_loss_grads(model, [a], [a], np.ones(1))[2]
    assert score_pairs(model, [a], [a])[0] == alone[0]
    assert score_pairs(model, [], []).shape == (0,)
    # one window of 7-sample signatures and a few of about 400: for most
    # steps the merge's active prefix is a few rows
    mixed = [random_seq(gen, 7, 23) for _ in range(30)]
    mixed += [random_seq(gen, int(gen.integers(390, 411)), 23) for _ in range(3)]
    idx_a, idx_b = gen.integers(0, 30, size=(2, 80))
    idx_a[[5, 41, 70]] = [30, 31, 32]
    idx_b[[5, 60]] = [32, 30]
    seq_a, seq_b, labels = [mixed[i] for i in idx_a], [mixed[i] for i in idx_b], np.ones(80)
    expected = np.concatenate([
        batch_loss_grads(model, seq_a[lo : lo + 64], seq_b[lo : lo + 64],
                         labels[lo : lo + 64])[2]
        for lo in range(0, 80, 64)])
    assert np.array_equal(score_pairs(model, seq_a, seq_b), expected)


def reference_slice_scores(model, seq_a, seq_b):
    """Scores of one slice of pairs from the documented data path alone:
    ``lstm_forward_batch`` on zero-padded (B, T, D) blocks with prefix
    masks, the merge input gathered through ``_wiring``, and each readout
    read off the merge outputs (B, T, H)."""
    cfg = model.config
    n = len(seq_a)
    values = [s[:: cfg.time_stride] for s in [*seq_a, *seq_b]]
    lengths = np.array([v.shape[0] for v in values])
    branch_in = np.zeros((2 * n, lengths.max(), cfg.n_features))
    for k, v in enumerate(values):
        branch_in[k, : v.shape[0]] = v
    branch_out, _, _ = lstm_forward_batch(
        model.branch, branch_in, np.arange(lengths.max()) < lengths[:, None], keep_cache=False)
    left, right, merge_len, first = siamese._wiring(cfg, lengths, np.arange(n),
                                                    np.arange(n, 2 * n))
    steps = slice(first, first + merge_len.max())
    merge_in = np.concatenate([branch_out[left, steps], branch_out[right, steps]], axis=2)
    merge_mask = np.arange(merge_len.max()) < merge_len[:, None]
    merge_out, _, _ = lstm_forward_batch(model.merge, merge_in, merge_mask, keep_cache=False)
    if cfg.readout == "last":
        readout = merge_out[np.arange(merge_len.size), merge_len - 1]
    else:
        readout = (merge_out * merge_mask[:, :, None]).sum(axis=1) / merge_len[:, None]
    return sigmoid(readout @ model.head.w + model.head.b).reshape(-1, n).mean(axis=0)


@pytest.mark.parametrize("hidden", [(16, 8), (46, 23)], ids=["cli", "library"])
@pytest.mark.parametrize("symmetric,concat,readout,stride", VARIANTS)
def test_score_pairs_equals_reference_readouts(hidden, symmetric, concat, readout, stride):
    """Scoring and training share ``_readout``, so the slicewise test above
    no longer checks the readouts themselves; this reference builds them
    by hand, one 64-pair slice at a time (every GEMM has at least 2 rows),
    and must give the same bits."""
    cfg = ModelConfig(n_features=23, branch_hidden=hidden[0], merge_hidden=hidden[1],
                      symmetric=symmetric, concat=concat, readout=readout,
                      time_stride=stride)
    gen = np.random.default_rng(17)
    model = init_model(cfg, gen)
    seqs = [random_seq(gen, int(gen.integers(7, 40)), 23) for _ in range(150)]
    idx_a, idx_b = gen.integers(0, 150, size=(2, 300))
    idx_b[100] = idx_a[100]
    seq_a, seq_b = [seqs[i] for i in idx_a], [seqs[i] for i in idx_b]
    expected = np.concatenate([
        reference_slice_scores(model, seq_a[lo : lo + 64], seq_b[lo : lo + 64])
        for lo in range(0, 300, 64)])
    assert np.array_equal(score_pairs(model, seq_a, seq_b), expected)


def test_score_pairs_encodes_each_signature_once(rng, monkeypatch):
    model = tiny_model(rng)
    seqs = [random_seq(rng, int(rng.integers(4, 12))) for _ in range(20)]
    idx_a, idx_b = rng.integers(0, 20, size=(2, 256))
    branch_rows = []

    def counting(params, inputs_t, *args, **kwargs):
        if params is model.branch:
            branch_rows.append(inputs_t.shape[1])  # time-major: (T, B, F)
        return lstm_forward_steps(params, inputs_t, *args, **kwargs)

    monkeypatch.setattr(siamese, "lstm_forward_steps", counting)
    score_pairs(model, [seqs[i] for i in idx_a], [seqs[i] for i in idx_b])
    assert sum(branch_rows) == len(set(idx_a) | set(idx_b)) == 20
    branch_rows.clear()
    score_pairs(model, [seqs[0]], [seqs[0]])
    assert branch_rows == [2]  # a one-row GEMM rounds differently


def test_feature_column_mismatch_rejected(rng):
    model = tiny_model(rng)
    with pytest.raises(ValueError, match="feature columns"):
        score_pairs(model, [random_seq(rng, 5, n_features=4)], [random_seq(rng, 5)])


def three_window_pairs(gen, width=23):
    """212 pairs in three windows: 128 distinct signatures, then one
    signature alone (64 pairs of it with itself), then 128 new ones and a
    final partial slice of 20 pairs that reuses them."""
    fresh = [random_seq(gen, int(gen.integers(7, 40)), width) for _ in range(256)]
    alone = random_seq(gen, 25, width)
    seq_a = fresh[:64] + [alone] * 64 + fresh[128:192] + fresh[150:170]
    seq_b = fresh[64:128] + [alone] * 64 + fresh[192:256] + fresh[200:220]
    return seq_a, seq_b


def test_three_window_pairs_layout():
    seq_a, seq_b = three_window_pairs(np.random.default_rng(0))
    windows = siamese._windows(seq_a, seq_b)
    assert [len(seqs) for seqs, _ in windows] == [128, 1, 128]
    assert [[rows.size // 2 for rows in slices] for _, slices in windows] \
        == [[64], [64], [64, 20]]


def in_process(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)


GET_CONTEXT = multiprocessing.get_context


def pooled(monkeypatch) -> list:
    """Let fork_map use two CPUs and record the contexts it asks for."""
    asked = []

    def spy(method=None):
        asked.append(method)
        return GET_CONTEXT(method)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return asked


@pytest.mark.parametrize("branch,merge,stride", [(16, 8, 3), (46, 23, 1)],
                         ids=["cli", "library"])
def test_pool_scores_equal_in_process_scores(branch, merge, stride, monkeypatch):
    cfg = ModelConfig(n_features=23, branch_hidden=branch, merge_hidden=merge,
                      time_stride=stride)
    gen = np.random.default_rng(11)
    model = init_model(cfg, gen)
    seq_a, seq_b = three_window_pairs(gen)
    in_process(monkeypatch)
    expected = score_pairs(model, seq_a, seq_b)
    asked = pooled(monkeypatch)
    assert score_pairs(model, seq_a, seq_b).tobytes() == expected.tobytes()
    assert asked == ["fork"]
    assert multiprocessing.active_children() == []


def test_pool_error_is_the_in_process_error(monkeypatch):
    gen = np.random.default_rng(5)
    model = init_model(ModelConfig(n_features=23, branch_hidden=16, merge_hidden=8), gen)
    seq_a, seq_b = three_window_pairs(gen)
    seq_b[-1] = random_seq(gen, 9, 22)
    in_process(monkeypatch)
    with pytest.raises(ValueError) as local:
        score_pairs(model, seq_a, seq_b)
    asked = pooled(monkeypatch)
    with pytest.raises(ValueError) as remote:
        score_pairs(model, seq_a, seq_b)
    assert asked == ["fork"]
    assert str(remote.value) == str(local.value) == "expected 23 feature columns, got 22"
    assert multiprocessing.active_children() == []


def test_one_window_or_other_threads_start_no_process(rng, monkeypatch):
    model = tiny_model(rng)

    def no_pool(method=None):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    enroll = [random_seq(rng, int(rng.integers(5, 9))) for _ in range(4)]
    probe = random_seq(rng, 7)
    assert score_pairs(model, enroll, [probe] * 4).shape == (4,)
    seq_a, seq_b = three_window_pairs(rng, width=3)
    with pytest.raises(AssertionError, match="a pool was asked for"):
        score_pairs(model, seq_a, seq_b)
    # nor on one usable CPU
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert score_pairs(model, seq_a, seq_b).shape == (212,)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # nor while another thread runs, which a fork would not copy
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert score_pairs(model, seq_a, seq_b).shape == (212,)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()


def test_scoring_while_a_module_imports_finishes(tmp_path):
    """Processes forked from a module that is still being imported must
    not wait on that module."""
    (tmp_path / "scored_at_import.py").write_text(
        "import numpy as np\n"
        "from sigver import parallel, siamese\n"
        "parallel.usable_cpus = lambda: 2\n"
        "cfg = siamese.ModelConfig(n_features=3, branch_hidden=4, merge_hidden=3)\n"
        "model = siamese.init_model(cfg, np.random.default_rng(0))\n"
        "gen = np.random.default_rng(1)\n"
        "seqs = [gen.normal(size=(int(gen.integers(5, 9)), 3)) for _ in range(400)]\n"
        "SCORES = siamese.score_pairs(model, seqs[:200], seqs[200:])\n")
    src = Path(siamese.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tmp_path)])}
    done = subprocess.run(
        [sys.executable, "-c", "import scored_at_import as m; print(m.SCORES.size)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "200\n"


def test_pair_loss_values():
    assert pair_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-6)
    assert pair_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-6)
    assert pair_loss(0.9, 0) == pytest.approx(2.302585, abs=1e-6)
    assert pair_loss(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)
    # clamped at the extremes instead of blowing up
    assert np.isfinite(pair_loss(0.0, 1))
    assert np.isfinite(pair_loss(1.0, 0))


def test_batch_loss_is_mean_of_pair_losses(rng):
    model = tiny_model(rng)
    seqs_a = [random_seq(rng, 6) for _ in range(3)]
    seqs_b = [random_seq(rng, 8) for _ in range(3)]
    labels = np.array([1, 0, 1])
    loss, grad, scores = batch_loss_grads(model, seqs_a, seqs_b, labels)
    expected = np.mean([pair_loss(s, y) for s, y in zip(scores, labels)])
    assert loss == pytest.approx(expected, abs=1e-12)
    # scoring skips the backward caches but computes the same scores
    assert np.array_equal(score_pairs(model, seqs_a, seqs_b), scores)
    assert grad.shape == pack_params(model).shape
    with pytest.raises(ValueError, match="empty batch"):
        batch_loss_grads(model, [], [], np.array([]))


@pytest.mark.parametrize(
    "concat,readout,symmetric",
    [
        ("per_step", "last", True),
        ("per_step", "mean", False),
        ("final_state", "last", False),
        ("final_state", "mean", True),
    ],
)
def test_gradients_match_finite_differences(rng, concat, readout, symmetric):
    model = tiny_model(rng, concat=concat, readout=readout, symmetric=symmetric)
    seqs_a = [random_seq(rng, 5), random_seq(rng, 7)]
    seqs_b = [random_seq(rng, 6), random_seq(rng, 4)]
    labels = np.array([1, 0])
    _, grad, _ = batch_loss_grads(model, seqs_a, seqs_b, labels)

    vec = pack_params(model)
    eps = 1e-5
    for idx in rng.choice(vec.size, size=40, replace=False):
        probe = vec.copy()
        probe[idx] += eps
        up, _, _ = batch_loss_grads(unpack_params(model, probe), seqs_a, seqs_b, labels)
        probe[idx] -= 2 * eps
        down, _, _ = batch_loss_grads(unpack_params(model, probe), seqs_a, seqs_b, labels)
        fd = (up - down) / (2 * eps)
        rel = abs(fd - grad[idx]) / max(abs(fd) + abs(grad[idx]), 1e-6)
        assert rel <= 1e-4, f"coord {idx}: fd={fd} bp={grad[idx]}"


def test_time_stride_equals_pre_decimated_input(rng):
    strided = tiny_model(rng, time_stride=3)
    plain = SiameseModel(
        branch=strided.branch, merge=strided.merge, head=strided.head,
        config=dataclasses.replace(strided.config, time_stride=1),
    )
    a, b = random_seq(rng, 17), random_seq(rng, 11)
    assert score_pairs(strided, [a], [b])[0] == score_pairs(plain, [a[::3]], [b[::3]])[0]


def test_training_is_deterministic(rng):
    pairs, features = toy_training_setup(rng)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, max_iterations=3, seed=7)

    def run():
        model = init_model(TINY, np.random.default_rng(99))
        trained, history = train(model, pairs, features, cfg)
        return pack_params(trained), [h["cost"] for h in history]

    vec_a, costs_a = run()
    vec_b, costs_b = run()
    assert np.array_equal(vec_a, vec_b)
    assert costs_a == costs_b
    assert len(costs_a) == 3


def test_zero_learning_rate_keeps_parameters(rng):
    pairs, features = toy_training_setup(rng)
    model = tiny_model(rng)
    before = pack_params(model)
    cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_iterations=2, seed=1)
    trained, history = train(model, pairs, features, cfg)
    assert np.array_equal(pack_params(trained), before)
    assert history[0]["cost"] == pytest.approx(history[1]["cost"], abs=1e-12)
    assert [h["iteration"] for h in history] == [1, 2]
    assert history[0]["seconds"] <= history[1]["seconds"]


def test_zero_iterations_returns_initial_model(rng):
    pairs, features = toy_training_setup(rng)
    model = tiny_model(rng)
    trained, history = train(
        model, pairs, features, TrainConfig(max_iterations=0)
    )
    assert history == []
    assert np.array_equal(pack_params(trained), pack_params(model))


def test_stop_below_cost(rng):
    pairs, features = toy_training_setup(rng)
    model = tiny_model(rng)
    cfg = TrainConfig(max_iterations=50, stop_below_cost=10.0, seed=2)
    _, history = train(model, pairs, features, cfg)
    assert len(history) == 1


def test_patience_stops_stale_training(rng):
    pairs, features = toy_training_setup(rng)
    model = tiny_model(rng)
    cfg = TrainConfig(
        learning_rate=0.0, max_iterations=50, patience=2, seed=3
    )
    _, history = train(model, pairs, features, cfg)
    # iteration 1 sets the best cost; with frozen parameters every later
    # iteration is stale, so patience=2 ends the run at iteration 3
    assert len(history) == 3


def test_dev_hook_selects_best_checkpoint(rng):
    pairs, features = toy_training_setup(rng)
    model = tiny_model(rng)
    fake_eers = iter([(30.0, 30.0), (10.0, 10.0), (20.0, 20.0)])
    seen = []

    def hook(m):
        seen.append(pack_params(m))
        return next(fake_eers)

    cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_iterations=3, seed=4)
    trained, history = train(model, pairs, features, cfg, dev_eval_hook=hook)
    assert np.array_equal(pack_params(trained), seen[1])
    assert [h["dev_eer_4vs1"] for h in history] == [30.0, 10.0, 20.0]


def test_nan_features_raise_diverged(rng):
    pairs, features = toy_training_setup(rng)
    features[pairs[0].enroll_key][2, 1] = np.nan
    model = tiny_model(rng)
    with pytest.raises(TrainingDiverged):
        train(model, pairs, features, TrainConfig(max_iterations=2))


# --- the training pipeline: the merge stage in a forked worker ---


def wide_training_setup(gen, n_pairs=11, width=23):
    """n_pairs labeled pairs over random sequences of 7-39 rows."""
    features = {f"s{k}": random_seq(gen, int(gen.integers(7, 40)), width)
                for k in range(2 * n_pairs)}
    pairs = [Pair("u", 0, 0, f"s{2 * k}", f"s{2 * k + 1}", k % 2) for k in range(n_pairs)]
    return pairs, features


def train_on(cpus, monkeypatch, cfg, train_cfg, hook=None):
    """Packed parameters and costs of a training run with ``cpus`` usable
    CPUs, and the contexts multiprocessing was asked for."""
    asked = pooled(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    gen = np.random.default_rng(21)
    pairs, features = wide_training_setup(gen)
    trained, history = train(init_model(cfg, gen), pairs, features, train_cfg,
                             dev_eval_hook=hook)
    assert multiprocessing.active_children() == []
    return pack_params(trained).tobytes(), [row["cost"] for row in history], asked


@pytest.mark.parametrize("hidden", [(16, 8), (46, 23)], ids=["cli", "library"])
@pytest.mark.parametrize("symmetric,concat,readout,stride", VARIANTS)
def test_pipelined_training_equals_in_process(hidden, symmetric, concat, readout, stride,
                                              monkeypatch):
    """Batches of 2 pairs over 11 pairs leave a 1-pair last batch."""
    cfg = ModelConfig(n_features=23, branch_hidden=hidden[0], merge_hidden=hidden[1],
                      symmetric=symmetric, concat=concat, readout=readout,
                      time_stride=stride)
    train_cfg = TrainConfig(learning_rate=0.01, batch_size=2, max_iterations=2, seed=5)
    local = train_on(1, monkeypatch, cfg, train_cfg)
    piped = train_on(2, monkeypatch, cfg, train_cfg)
    assert (local[2], piped[2]) == ([], ["fork"])
    assert piped[:2] == local[:2]


def test_dev_eval_scoring_forks_beside_the_worker(monkeypatch):
    """A dev hook's score_pairs runs fork_map while the worker is alive."""
    seqs = three_window_pairs(np.random.default_rng(8))

    def hook(model):
        scores = score_pairs(model, *seqs)
        return float(scores.mean()), float(scores[0])

    cfg = ModelConfig(n_features=23, branch_hidden=16, merge_hidden=8, time_stride=3)
    train_cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_iterations=3, seed=6)
    local = train_on(1, monkeypatch, cfg, train_cfg, hook)
    piped = train_on(2, monkeypatch, cfg, train_cfg, hook)
    assert (local[2], piped[2]) == ([], ["fork"] * 4)
    assert piped[:2] == local[:2]


@pytest.mark.parametrize("method", ["forward", "param_grads"])
def test_merge_stage_error_is_raised_by_train(method, monkeypatch):
    """The worker's exception reaches the caller with its type and message,
    as in-process, and no process is left."""
    def failing(self, *args):
        raise ArithmeticError(f"{method} failed")

    monkeypatch.setattr(siamese._MergeStage, method, failing)
    cfg = ModelConfig(n_features=23, branch_hidden=4, merge_hidden=3)
    for cpus in (1, 2):
        with pytest.raises(ArithmeticError, match=f"^{method} failed$"):
            train_on(cpus, monkeypatch, cfg, TrainConfig(batch_size=4, max_iterations=1))
        assert multiprocessing.active_children() == []


def test_diverged_training_leaves_no_worker(rng, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    pairs, features = toy_training_setup(rng)
    features[pairs[0].enroll_key][2, 1] = np.nan
    with pytest.raises(TrainingDiverged):
        train(tiny_model(rng), pairs, features, TrainConfig(max_iterations=2))
    assert multiprocessing.active_children() == []


def test_killed_worker_is_a_child_process_error(monkeypatch):
    caller = os.getpid()
    forward = siamese._MergeStage.forward

    def killed(self, *args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(self, *args)

    monkeypatch.setattr(siamese._MergeStage, "forward", killed)
    cfg = ModelConfig(n_features=23, branch_hidden=4, merge_hidden=3)
    with pytest.raises(ChildProcessError, match=f"exited with code {-signal.SIGKILL} "):
        train_on(2, monkeypatch, cfg, TrainConfig(batch_size=4, max_iterations=1))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("first,steps", [(0, 9), (8, 1)], ids=["per_step", "final_state"])
def test_slice_scatter_equals_fancy_index_scatter(symmetric, first, steps):
    """The merge input gradient goes back to the branch rows by slices, with
    the bits of adding it through the wiring's index arrays."""
    gen = np.random.default_rng(4)
    n, hb = 5, 6
    lengths = gen.integers(1, 10, size=2 * n)
    lengths[0] = 9
    cfg = dataclasses.replace(TINY, symmetric=symmetric,
                              concat="per_step" if first == 0 else "final_state")
    left, right, merge_len, got_first = siamese._wiring(
        cfg, lengths, np.arange(n), np.arange(n, 2 * n))
    assert (got_first, int(merge_len.max())) == (first, steps)
    merge_din = gen.normal(size=(steps, left.size, 2 * hb))
    merge_din[0, 0, :3] = [-0.0, 0.0, -1e-300]
    expected = np.zeros((9, 2 * n, hb))
    at = expected[first : first + steps]
    at[:, left] += merge_din[..., :hb]
    at[:, right] += merge_din[..., hb:]
    got = np.zeros_like(expected)
    siamese._add_merge_input_grad(got[first : first + steps], merge_din, n, symmetric)
    assert got.tobytes() == expected.tobytes()


def test_empty_sequence_rejected(rng):
    """A feature sequence without rows is one ValueError at every entry
    point, alone or beside a real sequence, as in DTW."""
    model = tiny_model(rng, time_stride=2)
    empty, real = np.zeros((0, 3)), random_seq(rng, 9)
    for a, b in ((empty, empty), (empty, real), (real, empty)):
        with pytest.raises(ValueError, match="^empty sequence"):
            score_pairs(model, [real, a], [real, b])
        with pytest.raises(ValueError, match="^empty sequence"):
            batch_loss_grads(model, [a], [b], np.ones(1))
    pairs = [Pair("u0", 0, 1, "real", "real", 1), Pair("u0", 0, 2, "real", "empty", 1)]
    with pytest.raises(ValueError, match="^empty sequence"):
        train(model, pairs, {"real": real, "empty": empty}, TrainConfig(max_iterations=1))


def test_sequence_must_be_a_matrix(rng):
    model = tiny_model(rng)
    real = random_seq(rng, 9)
    with pytest.raises(ValueError, match="^a feature sequence must be a T x D matrix$"):
        score_pairs(model, [real], [real[None]])


def test_empty_pair_list_rejected(rng):
    with pytest.raises(ValueError, match="empty pair list"):
        train(tiny_model(rng), [], {}, TrainConfig())


def test_model_round_trip(tmp_path, rng):
    model = tiny_model(
        rng, symmetric=False, concat="final_state", readout="mean", time_stride=2
    )
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert np.array_equal(pack_params(loaded), pack_params(model))
    a, b = random_seq(rng, 9), random_seq(rng, 7)
    assert score_pairs(loaded, [a], [b])[0] == score_pairs(model, [a], [b])[0]


def test_load_rejects_bad_files(tmp_path, rng):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.npz")

    garbage = tmp_path / "garbage.npz"
    garbage.write_text("not a model")
    with pytest.raises(ModelFormatError):
        load_model(garbage)

    wrong = tmp_path / "wrong.npz"
    np.savez(wrong, format="something-else")
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(wrong)

    truncated = tmp_path / "truncated.npz"
    np.savez(
        truncated,
        format="sigver-model-v1",
        config=json.dumps(dataclasses.asdict(TINY)),
    )
    with pytest.raises(ModelFormatError, match="missing field"):
        load_model(truncated)

    # readable archives whose weights fail the model's own validation
    frozen = Path(__file__).resolve().parents[1] / "bench" / "model.npz"
    with np.load(frozen) as data:
        entries = {name: data[name] for name in data.files}
    nan_bias = dict(entries, branch_b_o=entries["branch_b_o"].copy())
    nan_bias["branch_b_o"][0] = np.nan
    short_head = dict(entries, head_w=entries["head_w"][:5])
    nan_head_w = dict(entries, head_w=entries["head_w"].copy())
    nan_head_w["head_w"][3] = np.nan
    config = json.loads(str(entries["config"]))
    # one input column fewer in every merge gate: the merge reads 31, not 2 x 16
    narrow_merge = dict(entries, **{f"merge_W_{g}": entries[f"merge_W_{g}"][:, :-1]
                                    for g in "fioc"})

    def with_config(**changes):
        return dict(entries, config=json.dumps({**config, **changes}))

    cases = [
        ("nan_bias", nan_bias, "non-finite"),
        ("short_head", short_head, "head input size"),
        ("nan_head_w", nan_head_w, "head has non-finite"),
        ("nan_head_b", dict(entries, head_b=np.array([np.nan])), "head has non-finite"),
        ("empty_head_b", dict(entries, head_b=np.empty(0)), r"head_b has shape \(0,\)"),
        ("float_stride", with_config(time_stride=3.0), "time_stride must be an integer"),
        ("float_features", with_config(n_features=23.0), "n_features must be an integer"),
        ("bool_stride", with_config(time_stride=True), "time_stride must be an integer"),
        ("word_symmetric", with_config(symmetric="no"), "symmetric must be true or false"),
        ("wide_branch", with_config(branch_hidden=46), "branch hidden size"),
        ("wide_merge", with_config(merge_hidden=23), "merge hidden size"),
        ("few_features", with_config(n_features=22), "branch input size != feature count"),
        ("narrow_merge", narrow_merge, "merge input size != 2 x branch hidden size"),
    ]
    for name, bad, why in cases:
        path = tmp_path / f"{name}.npz"
        np.savez(path, **bad)
        with pytest.raises(ModelFormatError, match=f"{name}.npz.*{why}"):
            load_model(path)


def test_load_rejects_gates_of_unequal_height(tmp_path, rng):
    good = tmp_path / "good.npz"
    save_model(tiny_model(rng), good)
    with np.load(good) as data:
        entries = {name: data[name] for name in data.files}
    # merge H=3, H+D=11: 2 + 4 + 3 + 3 rows stack to a 12-row W that alone
    # would pass for H=3
    W_f, W_i, W_o = (entries[f"merge_W_{g}"] for g in "fio")
    entries["merge_W_f"] = W_f[:2]
    entries["merge_W_i"] = np.concatenate([W_i, W_o[:1]])
    assert sum(entries[f"merge_W_{g}"].shape[0] for g in "fioc") == 12
    bad = tmp_path / "bad.npz"
    np.savez(bad, **entries)
    with pytest.raises(ModelFormatError, match="merge_W_i shape"):
        load_model(bad)


def test_model_file_format_is_pinned(tmp_path):
    frozen = Path(__file__).resolve().parents[1] / "bench" / "model.npz"
    resaved = tmp_path / "model.npz"
    save_model(load_model(frozen), resaved)
    names = [f"{layer}_{kind}_{gate}" for layer in ("branch", "merge")
             for kind in "Wb" for gate in "fioc"]
    expected = ["format.npy", "config.npy"] + [f"{n}.npy" for n in names] \
        + ["head_w.npy", "head_b.npy"]
    with zipfile.ZipFile(frozen) as zf:
        assert zf.namelist() == expected
    with zipfile.ZipFile(resaved) as zf:
        assert zf.namelist() == expected
    assert resaved.read_bytes() == frozen.read_bytes()


def test_pack_unpack_identity(rng):
    model = tiny_model(rng)
    vec = pack_params(model)
    assert np.array_equal(pack_params(unpack_params(model, vec)), vec)
    with pytest.raises(ValueError, match="parameter vector"):
        unpack_params(model, vec[:-1])


def test_training_log_format(tmp_path):
    history = [
        {"iteration": 1, "cost": 0.75, "dev_eer_1vs1": float("nan"),
         "dev_eer_4vs1": float("nan"), "seconds": 1.5},
        {"iteration": 2, "cost": 0.5, "dev_eer_1vs1": 12.5,
         "dev_eer_4vs1": 10.0, "seconds": 3.0},
    ]
    path = tmp_path / "log.csv"
    write_training_log(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,cost,dev_eer_1vs1,dev_eer_4vs1"
    assert lines[1] == "1,0.750000,,"
    assert lines[2] == "2,0.500000,12.5000,10.0000"


def test_config_validation():
    with pytest.raises(ValueError, match="concat"):
        dataclasses.replace(TINY, concat="sum")
    with pytest.raises(ValueError, match="readout"):
        dataclasses.replace(TINY, readout="max")
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(TINY, merge_hidden=0)
    with pytest.raises(ValueError, match="time_stride"):
        dataclasses.replace(TINY, time_stride=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="^batch_size must be at least 1, got 0$"):
        TrainConfig(batch_size=0)
    for field, bad in [("patience", -1), ("clip_norm", -0.5), ("clip_norm", math.nan),
                       ("stop_below_cost", -1e-3), ("learning_rate", -1.0),
                       ("max_iterations", -1)]:
        with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
            TrainConfig(**{field: bad})
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^learning_rate must be finite"):
            TrainConfig(learning_rate=rate)
    TrainConfig(patience=0, clip_norm=0.0, stop_below_cost=0.0)  # all off
    TrainConfig()
    ModelConfig(**dataclasses.asdict(TINY))
