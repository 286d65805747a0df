"""Pair-scoring network: two weight-shared LSTM branches over the two
signatures, a merge LSTM over their concatenated outputs, and a logistic
readout giving a similarity score in (0, 1).

Both branches read the same parameter object, so weight sharing is
structural rather than a synchronized copy. Scores are symmetrized by
default (mean over both presentation orders); pairs of different length
are padded with masked steps, which the LSTM engine treats as no-ops.
"""
from __future__ import annotations

import csv
import io
import json
import time
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .lstm import (
    DenseParams,
    LstmParams,
    clip_global_norm,
    init_dense,
    init_lstm,
    lstm_backward_batch,
    lstm_forward_batch,
    sigmoid,
)

MODEL_FORMAT = "sigver-model-v1"
SCORE_CLAMP = 1e-12


class ModelFormatError(ValueError):
    """Model file is missing, corrupt, or of an unknown format."""


class TrainingDiverged(RuntimeError):
    """Training cost became non-finite."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes and scoring behavior."""

    n_features: int = 23
    branch_hidden: int = 46
    merge_hidden: int = 23
    symmetric: bool = True
    concat: str = "per_step"  # "per_step" | "final_state"
    readout: str = "last"  # "last" | "mean"
    time_stride: int = 1  # keep every k-th feature row; a speed/fidelity trade

    def validate(self) -> None:
        if self.concat not in ("per_step", "final_state"):
            raise ValueError(f"unknown concat mode {self.concat!r}")
        if self.readout not in ("last", "mean"):
            raise ValueError(f"unknown readout mode {self.readout!r}")
        if min(self.n_features, self.branch_hidden, self.merge_hidden) < 1:
            raise ValueError("sizes must be positive")
        if int(self.time_stride) != self.time_stride or self.time_stride < 1:
            raise ValueError("time_stride must be a positive integer")


@dataclass
class SiameseModel:
    branch: LstmParams
    merge: LstmParams
    head: DenseParams
    config: ModelConfig

    def validate(self) -> None:
        self.config.validate()
        self.branch.validate()
        self.merge.validate()
        if self.branch.input_size != self.config.n_features:
            raise ValueError("branch input size != feature count")
        if self.merge.input_size != 2 * self.branch.hidden_size:
            raise ValueError("merge input size != 2 x branch hidden size")
        if self.head.w.shape != (self.merge.hidden_size,):
            raise ValueError("head input size != merge hidden size")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_iterations: int = 200
    patience: int = 0  # 0 disables early stopping
    clip_norm: float = 5.0
    seed: int = 0
    optimizer: str = "adam"  # "adam" | "sgd"
    stop_below_cost: float = 0.0  # stop once mean cost drops under this; 0 disables

    def validate(self) -> None:
        if self.learning_rate < 0 or self.batch_size < 1 or self.max_iterations < 0:
            raise ValueError("learning rate, batch size, iterations must be valid")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def init_model(config: ModelConfig, rng: np.random.Generator) -> SiameseModel:
    config.validate()
    model = SiameseModel(
        branch=init_lstm(config.branch_hidden, config.n_features, rng),
        merge=init_lstm(config.merge_hidden, 2 * config.branch_hidden, rng),
        head=init_dense(config.merge_hidden, rng),
        config=config,
    )
    model.validate()
    return model


def _param_arrays(model: SiameseModel) -> list[np.ndarray]:
    b, m, h = model.branch, model.merge, model.head
    return [
        b.W_f, b.W_i, b.W_o, b.W_c, b.b_f, b.b_i, b.b_o, b.b_c,
        m.W_f, m.W_i, m.W_o, m.W_c, m.b_f, m.b_i, m.b_o, m.b_c,
        h.w, np.array([h.b]),
    ]


def pack_params(model: SiameseModel) -> np.ndarray:
    """All trainable parameters as one flat float64 vector."""
    return np.concatenate([a.ravel() for a in _param_arrays(model)])


def unpack_params(model: SiameseModel, vec: np.ndarray) -> SiameseModel:
    """Rebuild a model with ``model``'s shapes from a flat vector."""
    arrays = _param_arrays(model)
    total = sum(a.size for a in arrays)
    if vec.size != total:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {total}")
    chunks = []
    pos = 0
    for a in arrays:
        chunks.append(np.array(vec[pos : pos + a.size]).reshape(a.shape))
        pos += a.size
    return SiameseModel(
        branch=LstmParams(*chunks[0:8]),
        merge=LstmParams(*chunks[8:16]),
        head=DenseParams(w=chunks[16], b=float(chunks[17][0])),
        config=model.config,
    )


def _seq_values(seq) -> np.ndarray:
    values = np.asarray(getattr(seq, "values", seq), dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("a feature sequence must be a T x D matrix")
    return values


def _collate(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    inputs = np.zeros((len(seqs), t_max, seqs[0].shape[1]))
    mask = np.zeros((len(seqs), t_max), dtype=bool)
    for k, s in enumerate(seqs):
        inputs[k, : s.shape[0]] = s
        mask[k, : s.shape[0]] = True
    return inputs, mask, lengths


def _forward_pairs(model: SiameseModel, seq_a: list, seq_b: list,
                   keep_cache: bool = True):
    """Score a batch of pairs; returns (scores, directed sigmoids, context).

    The context dict carries every intermediate needed by _backward_pairs;
    with ``keep_cache=False`` (scoring only) its LSTM caches are None.
    """
    cfg = model.config
    n = len(seq_a)
    values_a = [_seq_values(s) for s in seq_a]
    values_b = [_seq_values(s) for s in seq_b]
    for v in values_a + values_b:
        if v.shape[1] != cfg.n_features:
            raise ValueError(
                f"expected {cfg.n_features} feature columns, got {v.shape[1]}"
            )
    if cfg.time_stride > 1:
        k = cfg.time_stride
        values_a = [v[::k] for v in values_a]
        values_b = [v[::k] for v in values_b]

    branch_in, branch_mask, lengths = _collate(values_a + values_b)
    branch_out, _, branch_cache = lstm_forward_batch(
        model.branch, branch_in, branch_mask, keep_cache=keep_cache
    )
    hb = model.branch.hidden_size
    pair_len = np.maximum(lengths[:n], lengths[n:])

    out_a, out_b = branch_out[:n], branch_out[n:]
    if cfg.concat == "per_step":
        fwd = np.concatenate([out_a, out_b], axis=2)
        merge_in = np.concatenate([fwd, np.concatenate([out_b, out_a], axis=2)]) \
            if cfg.symmetric else fwd
        merge_valid = np.arange(fwd.shape[1]) < pair_len[:, None]
        readout_idx = pair_len - 1
    else:  # final_state: one merge step over the two final block outputs
        last_a, last_b = out_a[:, -1, :], out_b[:, -1, :]
        fwd = np.concatenate([last_a, last_b], axis=1)[:, None, :]
        merge_in = np.concatenate(
            [fwd, np.concatenate([last_b, last_a], axis=1)[:, None, :]]
        ) if cfg.symmetric else fwd
        merge_valid = np.ones((n, 1), dtype=bool)
        readout_idx = np.zeros(n, dtype=np.int64)
    if cfg.symmetric:
        merge_mask = np.concatenate([merge_valid, merge_valid])
        readout_idx = np.concatenate([readout_idx, readout_idx])
    else:
        merge_mask = merge_valid

    merge_out, _, merge_cache = lstm_forward_batch(model.merge, merge_in, merge_mask,
                                                   keep_cache=keep_cache)
    m_rows = merge_out.shape[0]
    if cfg.readout == "last":
        readout = merge_out[np.arange(m_rows), readout_idx]
    else:
        counts = merge_mask.sum(axis=1)[:, None].astype(np.float64)
        readout = (merge_out * merge_mask[:, :, None]).sum(axis=1) / counts

    z = readout @ model.head.w + model.head.b
    s_directed = sigmoid(z)
    scores = 0.5 * (s_directed[:n] + s_directed[n:]) if cfg.symmetric else s_directed

    context = {
        "n": n, "hb": hb,
        "branch_cache": branch_cache, "merge_cache": merge_cache,
        "merge_mask": merge_mask, "readout_idx": readout_idx,
        "readout": readout, "merge_out_shape": merge_out.shape,
        "branch_out_shape": branch_out.shape,
    }
    return scores, s_directed, context


def _backward_pairs(model: SiameseModel, context: dict, dz: np.ndarray) -> np.ndarray:
    """Backprop from per-directed-run score-logit gradients to a flat vector."""
    cfg = model.config
    n, hb = context["n"], context["hb"]
    readout = context["readout"]

    dhead_w = readout.T @ dz
    dhead_b = float(dz.sum())
    dreadout = dz[:, None] * model.head.w[None, :]

    grad_merge_out = np.zeros(context["merge_out_shape"])
    if cfg.readout == "last":
        grad_merge_out[np.arange(dz.shape[0]), context["readout_idx"]] = dreadout
    else:
        merge_mask = context["merge_mask"]
        counts = merge_mask.sum(axis=1)[:, None].astype(np.float64)
        grad_merge_out[:] = (dreadout / counts)[:, None, :] * merge_mask[:, :, None]

    merge_grads, merge_din = lstm_backward_batch(
        model.merge, context["merge_cache"], grad_merge_out
    )

    grad_branch_out = np.zeros(context["branch_out_shape"])
    if cfg.concat == "per_step":
        grad_branch_out[:n] += merge_din[:n, :, :hb]
        grad_branch_out[n:] += merge_din[:n, :, hb:]
        if cfg.symmetric:
            grad_branch_out[n:] += merge_din[n:, :, :hb]
            grad_branch_out[:n] += merge_din[n:, :, hb:]
    else:
        # the merge consumed only the final branch outputs
        grad_branch_out[:n, -1, :] += merge_din[:n, 0, :hb]
        grad_branch_out[n:, -1, :] += merge_din[:n, 0, hb:]
        if cfg.symmetric:
            grad_branch_out[n:, -1, :] += merge_din[n:, 0, :hb]
            grad_branch_out[:n, -1, :] += merge_din[n:, 0, hb:]

    branch_grads, _ = lstm_backward_batch(
        model.branch, context["branch_cache"], grad_branch_out
    )

    g = [
        branch_grads.W_f, branch_grads.W_i, branch_grads.W_o, branch_grads.W_c,
        branch_grads.b_f, branch_grads.b_i, branch_grads.b_o, branch_grads.b_c,
        merge_grads.W_f, merge_grads.W_i, merge_grads.W_o, merge_grads.W_c,
        merge_grads.b_f, merge_grads.b_i, merge_grads.b_o, merge_grads.b_c,
        dhead_w, np.array([dhead_b]),
    ]
    return np.concatenate([a.ravel() for a in g])


def score_pair(model: SiameseModel, a, b) -> float:
    """Similarity of two feature sequences, in (0, 1)."""
    scores, _, _ = _forward_pairs(model, [a], [b], keep_cache=False)
    return float(scores[0])


def score_pairs(model: SiameseModel, seq_a: list, seq_b: list,
                batch_size: int = 64) -> np.ndarray:
    """Scores for aligned lists of sequences, batched for throughput."""
    if len(seq_a) != len(seq_b):
        raise ValueError("sequence lists must have equal length")
    out = np.empty(len(seq_a))
    for lo in range(0, len(seq_a), batch_size):
        hi = min(lo + batch_size, len(seq_a))
        scores, _, _ = _forward_pairs(model, seq_a[lo:hi], seq_b[lo:hi],
                                      keep_cache=False)
        out[lo:hi] = scores
    return out


def pair_loss(score: float, label: int) -> float:
    """Binary cross-entropy of one pair score against its label."""
    s = min(max(float(score), SCORE_CLAMP), 1.0 - SCORE_CLAMP)
    return -(label * np.log(s) + (1 - label) * np.log(1.0 - s))


def batch_loss_grads(
    model: SiameseModel, seq_a: list, seq_b: list, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean pair loss over a batch, its parameter gradient, and the scores.

    The gradient treats the clamp inside the logarithms as constant, so
    saturated scores still produce bounded, non-zero updates.
    """
    n = len(seq_a)
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels, dtype=np.float64)
    scores, s_directed, context = _forward_pairs(model, seq_a, seq_b)

    s_c = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    losses = -(labels * np.log(s_c) + (1.0 - labels) * np.log(1.0 - s_c))
    dloss_dscore = (-labels / s_c + (1.0 - labels) / (1.0 - s_c)) / n
    order_weight = 0.5 if model.config.symmetric else 1.0
    dscore = np.concatenate([dloss_dscore, dloss_dscore]) \
        if model.config.symmetric else dloss_dscore
    dz = order_weight * dscore * s_directed * (1.0 - s_directed)

    grad = _backward_pairs(model, context, dz)
    return float(losses.mean()), grad, scores


def train(
    model: SiameseModel,
    pairs: list,
    features: dict,
    cfg: TrainConfig,
    dev_eval_hook=None,
) -> tuple[SiameseModel, list[dict]]:
    """Mini-batch training on labeled pairs.

    ``pairs`` entries carry enroll_key/probe_key/label; ``features`` maps
    keys to feature sequences. One iteration is a full pass over the
    shuffled pair list. ``dev_eval_hook(model)``, when given, returns
    (EER 1vs1, EER 4vs1) on held-out data after each iteration, and the
    checkpoint kept is the one with the best 4vs1 EER; without a hook the
    best mean training cost wins. Fixed seed means a bit-identical run.
    """
    cfg.validate()
    if not pairs:
        raise ValueError("empty pair list")
    data = [
        (_seq_values(features[p.enroll_key]), _seq_values(features[p.probe_key]),
         p.label)
        for p in pairs
    ]
    rng = np.random.default_rng(cfg.seed)
    vec = pack_params(model)
    adam_m = np.zeros_like(vec)
    adam_v = np.zeros_like(vec)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    history: list[dict] = []
    best_metric = np.inf
    best_vec = vec.copy()
    stale = 0
    current = model
    t0 = time.monotonic()

    for iteration in range(1, cfg.max_iterations + 1):
        order = rng.permutation(len(data))
        loss_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [data[j] for j in order[lo : lo + cfg.batch_size]]
            seq_a = [d[0] for d in batch]
            seq_b = [d[1] for d in batch]
            labels = np.array([d[2] for d in batch], dtype=np.float64)
            loss, grad, _ = batch_loss_grads(current, seq_a, seq_b, labels)
            loss_sum += loss * len(batch)
            (grad,), _ = clip_global_norm([grad], cfg.clip_norm)
            if cfg.optimizer == "adam":
                step += 1
                adam_m = beta1 * adam_m + (1.0 - beta1) * grad
                adam_v = beta2 * adam_v + (1.0 - beta2) * grad * grad
                m_hat = adam_m / (1.0 - beta1**step)
                v_hat = adam_v / (1.0 - beta2**step)
                vec = vec - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
            else:
                vec = vec - cfg.learning_rate * grad
            current = unpack_params(model, vec)

        mean_cost = loss_sum / len(data)
        if not np.isfinite(mean_cost):
            raise TrainingDiverged(
                f"training cost became {mean_cost} at iteration {iteration}"
            )

        eer_1vs1 = eer_4vs1 = float("nan")
        if dev_eval_hook is not None:
            eer_1vs1, eer_4vs1 = dev_eval_hook(current)
        history.append(
            {
                "iteration": iteration,
                "cost": mean_cost,
                "dev_eer_1vs1": eer_1vs1,
                "dev_eer_4vs1": eer_4vs1,
                "seconds": time.monotonic() - t0,
            }
        )

        metric = eer_4vs1 if dev_eval_hook is not None else mean_cost
        if metric < best_metric:
            best_metric = metric
            best_vec = vec.copy()
            stale = 0
        else:
            stale += 1
            if cfg.patience > 0 and stale >= cfg.patience:
                break
        if cfg.stop_below_cost > 0.0 and mean_cost < cfg.stop_below_cost:
            break

    return unpack_params(model, best_vec), history


def write_training_log(history: list[dict], path) -> None:
    """CSV of the per-iteration cost and development EERs.

    The wall-clock ``seconds`` of each history row is left out, so a
    fixed seed gives a byte-identical log.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "dev_eer_1vs1", "dev_eer_4vs1"])
        for row in history:
            writer.writerow(
                [
                    row["iteration"],
                    f"{row['cost']:.6f}",
                    "" if np.isnan(row["dev_eer_1vs1"]) else f"{row['dev_eer_1vs1']:.4f}",
                    "" if np.isnan(row["dev_eer_4vs1"]) else f"{row['dev_eer_4vs1']:.4f}",
                ]
            )


def save_model(model: SiameseModel, path) -> None:
    model.validate()
    b, m = model.branch, model.merge
    entries = {
        "format": np.array(MODEL_FORMAT),
        "config": np.array(json.dumps(asdict(model.config))),
        "branch_W_f": b.W_f, "branch_W_i": b.W_i,
        "branch_W_o": b.W_o, "branch_W_c": b.W_c,
        "branch_b_f": b.b_f, "branch_b_i": b.b_i,
        "branch_b_o": b.b_o, "branch_b_c": b.b_c,
        "merge_W_f": m.W_f, "merge_W_i": m.W_i,
        "merge_W_o": m.W_o, "merge_W_c": m.W_c,
        "merge_b_f": m.b_f, "merge_b_i": m.b_i,
        "merge_b_o": m.b_o, "merge_b_c": m.b_c,
        "head_w": model.head.w, "head_b": np.array([model.head.b]),
    }
    # written by hand instead of np.savez so the archive timestamps are
    # fixed and equal models produce byte-identical files
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, array in entries.items():
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.asanyarray(array), allow_pickle=False
            )
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_model(path) -> SiameseModel:
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format" not in data or str(data["format"]) != MODEL_FORMAT:
                raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
            config = ModelConfig(**json.loads(str(data["config"])))
            def lstm(prefix: str) -> LstmParams:
                return LstmParams(
                    *[np.array(data[f"{prefix}_{k}"])
                      for k in ("W_f", "W_i", "W_o", "W_c",
                                "b_f", "b_i", "b_o", "b_c")]
                )
            model = SiameseModel(
                branch=lstm("branch"),
                merge=lstm("merge"),
                head=DenseParams(
                    w=np.array(data["head_w"]), b=float(data["head_b"][0])
                ),
                config=config,
            )
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file missing field {exc}") from exc
    # np.load signals corruption inconsistently: BadZipFile for broken
    # archives, ValueError for things that are not npz at all
    except (zipfile.BadZipFile, OSError, ValueError, TypeError) as exc:
        raise ModelFormatError(f"{path}: cannot read model file ({exc})") from exc
    model.validate()
    return model
