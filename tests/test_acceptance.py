"""Acceptance gate: eight release criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; each
criterion also fails its test on violation, so a plain pytest run
enforces the same gate. Every check here uses an oracle implemented
independently of the library code under test.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from sigver.dataset import (
    DEVELOPMENT,
    EVALUATION,
    build_pairs,
    build_split,
    load_dataset,
)
from sigver.dtw import DtwConfig, dtw_distance, score_pairs_dtw, sffs_select
from sigver.features import extract_features
from sigver.lstm import LstmParams, lstm_forward_batch
from sigver.metrics import (
    Protocol,
    ScoreSet,
    aggregate_4vs1,
    compute_eer,
    make_score_set,
)
from sigver.siamese import (
    SCORE_CLAMP,
    ModelConfig,
    TrainConfig,
    init_model,
    pack_params,
    batch_loss_grads,
    score_pairs,
    train,
    unpack_params,
)
from sigver.svc import SignatureKind, SignatureRecord
from sigver.synth import SynthConfig, generate_records


def report(number: int, name: str, status: str, started: float) -> None:
    print(f"[{number}/8] {name}: {status} ({time.monotonic() - started:.1f}s)",
          flush=True)


def finish(number: int, name: str, problems: list, started: float) -> None:
    report(number, name, "PASS" if not problems else "FAIL", started)
    assert not problems, "\n".join(str(p) for p in problems)


# --- 1: full-stack gradient correctness ---------------------------------


def pair_loss(score: float, label: int) -> float:
    """Binary cross-entropy of one pair score against its label, clamped
    like the training loss."""
    s = min(max(float(score), SCORE_CLAMP), 1.0 - SCORE_CLAMP)
    return -(label * np.log(s) + (1 - label) * np.log(1.0 - s))


def test_criterion_1_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    step = 1e-5
    problems = []
    for trial in range(20):
        cfg = ModelConfig(
            n_features=int(rng.integers(2, 5)),
            branch_hidden=int(rng.integers(2, 6)),
            merge_hidden=int(rng.integers(2, 5)),
            symmetric=bool(rng.integers(2)),
            concat=str(rng.choice(("per_step", "final_state"))),
            readout=str(rng.choice(("last", "mean"))),
        )
        model = init_model(cfg, rng)
        a = rng.normal(size=(int(rng.integers(3, 10)), cfg.n_features))
        b = rng.normal(size=(int(rng.integers(3, 10)), cfg.n_features))
        label = np.array([int(rng.integers(2))])

        _, grad, _ = batch_loss_grads(model, [a], [b], label)
        base = pack_params(model)
        fd = np.empty_like(base)
        for j in range(base.size):
            probe = base.copy()
            probe[j] = base[j] + step
            up = pair_loss(score_pairs(unpack_params(model, probe), [a], [b])[0], label[0])
            probe[j] = base[j] - step
            down = pair_loss(score_pairs(unpack_params(model, probe), [a], [b])[0], label[0])
            fd[j] = (up - down) / (2.0 * step)

        rel = np.abs(fd - grad) / np.maximum(np.abs(fd) + np.abs(grad), 1e-6)
        worst = float(rel.max())
        if worst > 1e-4:
            problems.append(f"trial {trial} ({cfg}): relative error {worst:.3e}")
    elapsed = time.monotonic() - started
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    finish(1, "full-stack gradient check", problems, started)


# --- 2: recurrent step against a scalar oracle --------------------------


def _scalar_sigmoid(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def scalar_step(params: LstmParams, h_prev, C_prev, x):
    """Loop-and-float re-statement of the gated recurrence."""
    n_hidden = params.hidden_size
    joint = [float(v) for v in h_prev] + [float(v) for v in x]

    def unit(block, squash):
        # rows block*H .. block*H + H - 1 of the stacked (4H, H+D) weights
        out = []
        for i in range(block * n_hidden, (block + 1) * n_hidden):
            acc = float(params.b[i])
            for j, value in enumerate(joint):
                acc += float(params.W[i, j]) * value
            out.append(squash(acc))
        return out

    f = unit(0, _scalar_sigmoid)
    i_gate = unit(1, _scalar_sigmoid)
    o = unit(2, _scalar_sigmoid)
    g = unit(3, math.tanh)
    C = [f[k] * float(C_prev[k]) + i_gate[k] * g[k] for k in range(n_hidden)]
    h = [o[k] * math.tanh(C[k]) for k in range(n_hidden)]
    return np.array(h), np.array(C)


def random_lstm_params(rng, n_hidden, n_input, scale=0.8) -> LstmParams:
    W = rng.normal(scale=scale, size=(4 * n_hidden, n_hidden + n_input))
    return LstmParams(W=W, b=rng.normal(scale=scale, size=4 * n_hidden))


def test_criterion_2_step_matches_scalar_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    problems = []
    for trial in range(100):
        n_hidden = int(rng.integers(1, 9))
        n_input = int(rng.integers(1, 9))
        n_steps = int(rng.integers(2, 7))
        n_rows = int(rng.integers(2, 5))
        scale = 4.0 if trial % 5 == 0 else 0.8  # every fifth run saturates
        params = random_lstm_params(rng, n_hidden, n_input, scale)
        xs = rng.normal(size=(n_rows, n_steps, n_input))
        out, (_, got_C), _ = lstm_forward_batch(params, xs)
        err = 0.0
        for row in range(n_rows):
            # the oracle steps from zero, so every later step starts from a
            # state that the recurrence made nonzero
            h = C = np.zeros(n_hidden)
            for t in range(n_steps):
                carried = (h, C)
                h, C = scalar_step(params, h, C, xs[row, t])
                err = max(err, float(np.abs(out[row, t] - h).max()))
            err = max(err, float(np.abs(got_C[row] - C).max()))
            if not all(np.any(v != 0.0) for v in carried):
                problems.append(f"trial {trial} row {row}: zero state carried "
                                f"into the last step")
        if err > 1e-12:
            problems.append(f"trial {trial} (H={n_hidden}, D={n_input}, "
                            f"T={n_steps}, B={n_rows}): {err:.3e}")

    zero = LstmParams(W=np.zeros((12, 5)), b=np.zeros(12))
    out, _, _ = lstm_forward_batch(zero, np.zeros((2, 3, 2)))
    if not (out == 0.0).all():
        problems.append(f"all-zero case: h = {out!r}, expected exact zeros")
    finish(2, "recurrent step scalar oracle", problems, started)


# --- 3: bit-stable trailing padding --------------------------------------


def test_criterion_3_masked_padding_is_bit_stable():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    problems = []
    models = [
        init_model(ModelConfig(n_features=3, branch_hidden=4, merge_hidden=3,
                               concat=concat), rng)
        for concat in ("per_step", "final_state")
    ]
    params = random_lstm_params(rng, 4, 3)
    for trial in range(50):
        model = models[trial % 2]
        t_a, t_b = (int(v) for v in rng.integers(3, 13, size=2))
        a, b = rng.normal(size=(t_a, 3)), rng.normal(size=(t_b, 3))

        # same batch, same slot: only the companion pair's length (and so
        # the padded width) changes between the two calls
        short = rng.normal(size=(2, 3))
        long = rng.normal(size=(20, 3))
        s_short = score_pairs(model, [a, short], [b, short])[0]
        s_long = score_pairs(model, [a, long], [b, long])[0]
        if s_short != s_long:
            problems.append(
                f"trial {trial}: score changed with pad width "
                f"({s_short!r} vs {s_long!r})"
            )

        # layer level: junk rows behind the mask must not leak at all
        base_out, (base_h, base_C), _ = lstm_forward_batch(params, a[None])
        for pad in (1, 6):
            junk = rng.normal(size=(pad, 3)) * 3.0
            mask = np.r_[np.ones(t_a, bool), np.zeros(pad, bool)]
            out, (h, C), _ = lstm_forward_batch(
                params, np.vstack([a, junk])[None], mask[None]
            )
            if not (np.array_equal(out[:, :t_a], base_out)
                    and np.array_equal(h, base_h)
                    and np.array_equal(C, base_C)):
                problems.append(f"trial {trial}: pad {pad} changed the forward")
    finish(3, "bit-stable masked padding", problems, started)


# --- 4: alignment distance against exhaustive path search ----------------


def brute_force_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Enumerate every monotone alignment path; best mean step cost wins."""
    cell = np.array([[float(((ra - rb) ** 2).sum()) for rb in b] for ra in a])
    best: list = [None]

    def walk(i, j, cost, steps):
        cost += cell[i, j]
        steps += 1
        if i == len(a) - 1 and j == len(b) - 1:
            if best[0] is None or (cost, steps) < best[0]:
                best[0] = (cost, steps)
            return
        if i + 1 < len(a):
            walk(i + 1, j, cost, steps)
        if j + 1 < len(b):
            walk(i, j + 1, cost, steps)
        if i + 1 < len(a) and j + 1 < len(b):
            walk(i + 1, j + 1, cost, steps)

    walk(0, 0, 0.0, 0)
    total, steps = best[0]
    return total / steps


def test_criterion_4_dtw_equals_exhaustive_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    cfg = DtwConfig(selected_columns=(1, 2, 3))
    problems = []
    for t_a in range(1, 7):
        for t_b in range(1, 7):
            for _ in range(3):
                a = rng.normal(size=(t_a, 3))
                b = rng.normal(size=(t_b, 3))
                got = dtw_distance(a, b, cfg)
                want = brute_force_distance(a, b)
                if abs(got - want) > 1e-9:
                    problems.append(
                        f"T_a={t_a}, T_b={t_b}: {got!r} vs oracle {want!r}"
                    )
    elapsed = time.monotonic() - started
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    finish(4, "alignment distance brute force", problems, started)


# --- 5: equal error rate against an exact rational oracle ----------------


def oracle_eer_percent(genuine, impostor) -> float:
    """Exact crossing of the FAR and FRR staircases via rationals."""
    n_gen, n_imp = len(genuine), len(impostor)
    thresholds = sorted(set(genuine) | set(impostor))
    thresholds.append(thresholds[-1] + 1.0)  # beyond every score
    points = []
    for theta in thresholds:
        far = Fraction(sum(1 for s in impostor if s >= theta), n_imp)
        frr = Fraction(sum(1 for s in genuine if s < theta), n_gen)
        points.append((far, frr))
    for (far_a, frr_a), (far_b, frr_b) in zip(points, points[1:]):
        da, db = far_a - frr_a, far_b - frr_b
        if da == 0:
            return float(100 * far_a)
        if da > 0 and db <= 0:
            # linear segment between the operating points crosses FAR=FRR
            t = da / (da - db)
            return float(100 * (far_a + t * (far_b - far_a)))
    return float(100 * points[-1][0])


def test_criterion_5_eer_matches_threshold_enumeration():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    problems = []
    for trial in range(200):
        n_gen = int(rng.integers(1, 251))
        n_imp = int(rng.integers(1, 251))
        genuine = rng.normal(loc=0.6, scale=0.4, size=n_gen)
        impostor = rng.normal(loc=0.4, scale=0.4, size=n_imp)
        if trial % 3 == 0:  # quantized scores force ties
            genuine, impostor = genuine.round(1), impostor.round(1)
        got = compute_eer(ScoreSet(genuine=genuine, impostor=impostor))[0]
        want = oracle_eer_percent(genuine.tolist(), impostor.tolist())
        if abs(got - want) > 1e-9:
            problems.append(f"trial {trial}: {got!r} vs oracle {want!r}")

    perfect = ScoreSet(genuine=np.array([0.8, 0.9]), impostor=np.array([0.1, 0.2]))
    if compute_eer(perfect)[0] != 0.0:
        problems.append("perfect separation did not give exactly 0%")
    same = np.array([0.3, 0.5, 0.7])
    identical = ScoreSet(genuine=same, impostor=same.copy())
    if compute_eer(identical)[0] != 50.0:
        problems.append("identical distributions did not give exactly 50%")
    finish(5, "equal error rate oracle", problems, started)


# --- 6: end-to-end learning on the frozen synthetic corpus ---------------


def test_criterion_6_synthetic_end_to_end_learning():
    started = time.monotonic()
    problems = []
    records = generate_records(SynthConfig())  # frozen: 40 users, seed 20240816
    split = build_split(records, n_dev_users=30)
    features = {
        rec.key: extract_features(rec)
        for part in (DEVELOPMENT, EVALUATION)
        for rec in split.records(part)
    }

    dev_pairs = build_pairs(split, DEVELOPMENT)
    model_cfg = ModelConfig(branch_hidden=16, merge_hidden=8, time_stride=3)
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=64,
                            max_iterations=200, seed=20240816,
                            stop_below_cost=0.05)
    model = init_model(model_cfg, np.random.default_rng(20240816))
    trained, history = train(model, dev_pairs, features, train_cfg)

    best_cost = min(row["cost"] for row in history)
    if not best_cost < 0.30:
        problems.append(f"development cost only reached {best_cost:.4f}")

    eval_pairs = build_pairs(split, EVALUATION)
    scores = score_pairs(trained,
                         [features[p.enroll_key] for p in eval_pairs],
                         [features[p.probe_key] for p in eval_pairs])
    eer_one = compute_eer(make_score_set(eval_pairs, scores))[0]
    eer_four = compute_eer(aggregate_4vs1(eval_pairs, scores))[0]
    if not eer_four <= 20.0:
        problems.append(f"4vs1 evaluation EER {eer_four:.2f}% exceeds 20%")
    if not (eer_four < eer_one or eer_four - eer_one < 2.0):
        problems.append(
            f"4vs1 EER {eer_four:.2f}% is not within 2 points of "
            f"1vs1 EER {eer_one:.2f}%"
        )
    elapsed = time.monotonic() - started
    if elapsed > 900.0:
        problems.append(f"took {elapsed:.1f}s, budget is 900s")
    print(f"    trained {len(history)} iterations, best cost {best_cost:.4f}, "
          f"eval EER 1vs1 {eer_one:.2f}%, 4vs1 {eer_four:.2f}%")
    finish(6, "synthetic end-to-end learning", problems, started)


# --- 7: comparison-protocol counts at full scale --------------------------


def _stub_corpus(n_users: int):
    records = []
    for u in range(n_users):
        user = f"u{u:04d}"
        for session in range(1, 5):
            for i in range(4):
                records.append(_stub_record(user, SignatureKind.GENUINE,
                                            session, i))
        for i in range(12):
            records.append(_stub_record(user, SignatureKind.SKILLED_FORGERY,
                                        1 + i % 4, i // 4))
    return records


def _stub_record(user, kind, session, index):
    return SignatureRecord(
        x=np.array([0, 1]), y=np.array([0, 1]),
        pressure=np.array([10, 10]), timestamp=np.array([0, 10]),
        pen_down=np.array([True, True]),
        user_id=user, session=session, kind=kind, sample_index=index,
    )


def test_criterion_7_protocol_counts_at_scale():
    started = time.monotonic()
    problems = []
    split = build_split(_stub_corpus(400), n_dev_users=300)
    dev = build_pairs(split, DEVELOPMENT)
    n_genuine = sum(p.label for p in dev)
    if (n_genuine, len(dev) - n_genuine) != (14400, 14400):
        problems.append(
            f"development pairs: {n_genuine} genuine + "
            f"{len(dev) - n_genuine} forgery, expected 14400 + 14400"
        )

    eval_pairs = build_pairs(split, EVALUATION)
    one = make_score_set(eval_pairs, np.zeros(len(eval_pairs)))
    four = aggregate_4vs1(eval_pairs, np.zeros(len(eval_pairs)))
    if one.genuine.size != 4800:
        problems.append(f"1vs1 genuine scores: {one.genuine.size}, expected 4800")
    if four.genuine.size != 1200:
        problems.append(f"4vs1 genuine scores: {four.genuine.size}, expected 1200")
    finish(7, "protocol counts at scale", problems, started)


# --- 8: ordering on a locally supplied acquisition database ---------------


def test_criterion_8_external_database_ordering():
    started = time.monotonic()
    root = os.environ.get("SIGVER_BIOSECURID_ROOT")
    if not root:
        report(8, "external database ordering",
               "SKIP (set SIGVER_BIOSECURID_ROOT to run)", started)
        pytest.skip("SIGVER_BIOSECURID_ROOT is not set")

    problems = []
    records = load_dataset(root)
    users = sorted({r.user_id for r in records})
    split = build_split(records, n_dev_users=min(300, (3 * len(users)) // 4))
    features = {
        rec.key: extract_features(rec)
        for part in (DEVELOPMENT, EVALUATION)
        for rec in split.records(part)
    }
    dev_pairs = build_pairs(split, DEVELOPMENT)
    eval_pairs = build_pairs(split, EVALUATION)

    model = init_model(ModelConfig(branch_hidden=16, merge_hidden=8,
                                   time_stride=3),
                       np.random.default_rng(20240816))
    trained, _ = train(model, dev_pairs, features,
                       TrainConfig(learning_rate=3e-3, batch_size=64,
                                   max_iterations=200, seed=20240816,
                                   stop_below_cost=0.05))
    proposed = score_pairs(trained,
                           [features[p.enroll_key] for p in eval_pairs],
                           [features[p.probe_key] for p in eval_pairs])

    dev_features = {r.key: features[r.key] for r in split.records(DEVELOPMENT)}
    columns, _ = sffs_select(split, dev_features, k_max=9, max_pairs=500)
    baseline = score_pairs_dtw(eval_pairs, features,
                               DtwConfig(selected_columns=columns))

    for protocol, scores_of in (
        (Protocol.ONE_VS_ONE, lambda s: make_score_set(eval_pairs, s)),
        (Protocol.FOUR_VS_ONE, lambda s: aggregate_4vs1(eval_pairs, s)),
    ):
        eer_p = compute_eer(scores_of(proposed))[0]
        eer_b = compute_eer(scores_of(baseline))[0]
        print(f"    {protocol.value}: proposed {eer_p:.2f}%, "
              f"baseline {eer_b:.2f}%")
        if not eer_p < eer_b:
            problems.append(
                f"{protocol.value}: proposed {eer_p:.2f}% is not below "
                f"baseline {eer_b:.2f}%"
            )
    finish(8, "external database ordering", problems, started)
