"""Pair-scoring network: two weight-shared LSTM branches over the two
signatures, a merge LSTM over their concatenated outputs, and a logistic
readout giving a similarity score in (0, 1).

Both branches read the same parameter object, so weight sharing is
structural rather than a synchronized copy. Scores are symmetrized by
default (mean over both presentation orders); pairs of different length
are padded with masked steps, which the LSTM engine treats as no-ops.

Training (batch_loss_grads) and scoring (score_pairs) are the two ways
into the network, and both compose the same two stages: _encode runs the
branch, _merge_and_head the merge LSTM and the readout. A training batch
of n pairs encodes 2n branch rows: the n first signatures, then the n
second ones. A branch row does not depend on the pair it is in, so
scoring encodes each distinct signature once per window of consecutive
pair batches (see _windows). Windows share no data, so score_pairs can
score them in forked processes (see parallel). Merge row r reads branch rows
``left[r]`` and ``right[r]``: rows 0..n-1 read pair r as (a, b) and,
when symmetric, rows n..2n-1 read it as (b, a). The concat mode only
chooses which steps the merge reads: all of them (per_step) or the last
one (final_state). The backward pass adds the merge input gradient back
through the same index arrays, so the variants differ in data, not in
code paths.
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
    join_gates,
    lstm_backward_batch,
    lstm_forward_batch,
    sigmoid,
    split_gates,
)
from .parallel import fork_map

MODEL_FORMAT = "sigver-model-v1"
SCORE_CLAMP = 1e-12
# pairs per merge batch when scoring; it decides which pairs and which
# signatures share a GEMM, and so the bits of every score
SCORE_BATCH = 64


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

    def __post_init__(self) -> None:
        if self.concat not in ("per_step", "final_state"):
            raise ValueError(f"unknown concat mode {self.concat!r}")
        if self.readout not in ("last", "mean"):
            raise ValueError(f"unknown readout mode {self.readout!r}")
        if not isinstance(self.symmetric, bool):
            raise ValueError(f"symmetric must be true or false, got {self.symmetric!r}")
        for name in ("n_features", "branch_hidden", "merge_hidden", "time_stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")


@dataclass
class SiameseModel:
    branch: LstmParams
    merge: LstmParams
    head: DenseParams
    config: ModelConfig

    def validate(self) -> None:
        self.branch.validate()
        self.merge.validate()
        if self.branch.input_size != self.config.n_features:
            raise ValueError("branch input size != feature count")
        if self.branch.hidden_size != self.config.branch_hidden:
            raise ValueError("branch hidden size != config branch_hidden")
        if self.merge.hidden_size != self.config.merge_hidden:
            raise ValueError("merge hidden size != config merge_hidden")
        if self.merge.input_size != 2 * self.branch.hidden_size:
            raise ValueError("merge input size != 2 x branch hidden size")
        if self.head.w.shape != (self.merge.hidden_size,):
            raise ValueError("head input size != merge hidden size")
        if not (np.all(np.isfinite(self.head.w)) and np.isfinite(self.head.b)):
            raise ValueError("head has non-finite entries")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_iterations: int = 200
    patience: int = 0  # 0 disables early stopping
    clip_norm: float = 5.0  # 0 disables clipping
    seed: int = 0
    optimizer: str = "adam"  # "adam" | "sgd"
    stop_below_cost: float = 0.0  # stop once mean cost drops under this; 0 disables

    def __post_init__(self) -> None:
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        disabled_by_zero = ("patience", "clip_norm", "stop_below_cost")
        for name in ("learning_rate", "max_iterations", "seed", *disabled_by_zero):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                zero = " (0 disables it)" if name in disabled_by_zero else ""
                raise ValueError(f"{name} must be non-negative{zero}, got {value}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def init_model(config: ModelConfig, rng: np.random.Generator) -> SiameseModel:
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
    return [b.W, b.b, m.W, m.b, h.w, np.array([h.b])]


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
        branch=LstmParams(*chunks[0:2]),
        merge=LstmParams(*chunks[2:4]),
        head=DenseParams(w=chunks[4], b=float(chunks[5][0])),
        config=model.config,
    )


def _seq_values(seq) -> np.ndarray:
    values = np.asarray(getattr(seq, "values", seq), dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("a feature sequence must be a T x D matrix")
    return values


def _encode(model: SiameseModel, seqs: list, keep_cache: bool):
    """Branch LSTM outputs (B, T, H), lengths and cache of B sequences. Past
    its length a row repeats its final output (the engine's masked step)."""
    cfg = model.config
    values = [_seq_values(s)[:: cfg.time_stride] for s in seqs]
    lengths = np.array([v.shape[0] for v in values], dtype=np.int64)
    branch_in = np.zeros((len(values), int(lengths.max()), cfg.n_features))
    for k, v in enumerate(values):
        if v.shape[1] != cfg.n_features:
            raise ValueError(f"expected {cfg.n_features} feature columns, got {v.shape[1]}")
        branch_in[k, : v.shape[0]] = v
    branch_mask = np.arange(branch_in.shape[1]) < lengths[:, None]
    out, _, cache = lstm_forward_batch(model.branch, branch_in, branch_mask, keep_cache)
    return out, lengths, cache


def _merge_and_head(model: SiameseModel, branch_out: np.ndarray, lengths: np.ndarray,
                    rows_a: np.ndarray, rows_b: np.ndarray, keep_cache: bool):
    """Score pair r from branch rows ``rows_a[r]`` and ``rows_b[r]``; returns
    (scores, directed sigmoids, context). The context carries what
    _backward_pairs needs; with ``keep_cache=False`` its merge cache is None."""
    cfg = model.config
    n = rows_a.size
    left = np.concatenate([rows_a, rows_b]) if cfg.symmetric else rows_a
    right = np.concatenate([rows_b, rows_a]) if cfg.symmetric else rows_b
    if cfg.concat == "per_step":
        merge_len = np.maximum(lengths[left], lengths[right])
        steps = slice(None, int(merge_len.max()))
    else:  # final_state: one merge step over the two final block outputs
        steps = slice(-1, None)
        merge_len = np.ones(left.size, dtype=np.int64)
    merge_in = np.concatenate([branch_out[left, steps], branch_out[right, steps]], axis=2)
    merge_mask = np.arange(merge_in.shape[1]) < merge_len[:, None]

    merge_out, _, merge_cache = lstm_forward_batch(model.merge, merge_in, merge_mask,
                                                   keep_cache=keep_cache)
    if cfg.readout == "last":
        readout = merge_out[np.arange(left.size), merge_len - 1]
    else:
        readout = (merge_out * merge_mask[:, :, None]).sum(axis=1) / merge_len[:, None]

    z = readout @ model.head.w + model.head.b
    s_directed = sigmoid(z)
    scores = s_directed.reshape(-1, n).mean(axis=0)

    context = {"left": left, "right": right, "steps": steps, "merge_cache": merge_cache,
               "merge_mask": merge_mask, "merge_len": merge_len, "readout": readout,
               "merge_out_shape": merge_out.shape, "branch_out_shape": branch_out.shape}
    return scores, s_directed, context


def _backward_pairs(model: SiameseModel, context: dict, branch_cache: dict,
                    dz: np.ndarray) -> np.ndarray:
    """Backprop from per-directed-run score-logit gradients to a flat vector,
    given the context of _merge_and_head and the cache of _encode."""
    cfg = model.config
    hb = model.branch.hidden_size
    readout = context["readout"]

    dhead_w = readout.T @ dz
    dhead_b = float(dz.sum())
    dreadout = dz[:, None] * model.head.w[None, :]

    grad_merge_out = np.zeros(context["merge_out_shape"])
    merge_len = context["merge_len"]
    if cfg.readout == "last":
        grad_merge_out[np.arange(dz.shape[0]), merge_len - 1] = dreadout
    else:
        grad_merge_out[:] = ((dreadout / merge_len[:, None])[:, None, :]
                             * context["merge_mask"][:, :, None])

    merge_grads, merge_din = lstm_backward_batch(
        model.merge, context["merge_cache"], grad_merge_out
    )

    grad_branch_out = np.zeros(context["branch_out_shape"])
    grad_steps = grad_branch_out[:, context["steps"]]
    grad_steps[context["left"]] += merge_din[..., :hb]
    grad_steps[context["right"]] += merge_din[..., hb:]

    branch_grads, _ = lstm_backward_batch(
        model.branch, branch_cache, grad_branch_out, input_grad=False
    )
    return pack_params(SiameseModel(branch_grads, merge_grads,
                                    DenseParams(dhead_w, dhead_b), model.config))


def _windows(seq_a: list, seq_b: list) -> list[tuple[list, list]]:
    """Group consecutive ``SCORE_BATCH``-pair slices into windows.

    A slice joins the current window while the window's distinct
    sequences, with the slice's new ones, fit in ``2 * SCORE_BATCH`` branch
    rows. A window is (its distinct sequences, one row array per slice);
    a slice of n pairs reads rows ``r[:n]`` as a and ``r[n:]`` as b. A
    sequence is known by the identity of its ``values`` (or of itself).
    """
    n = len(seq_a)
    windows = []
    lo = 0
    while lo < n:
        window: dict[int, object] = {}  # id of a sequence's values -> values
        keys = []
        while lo < n:
            hi = min(lo + SCORE_BATCH, n)
            objs = [getattr(s, "values", s) for s in [*seq_a[lo:hi], *seq_b[lo:hi]]]
            new = {id(o): o for o in objs if id(o) not in window}
            if keys and len(window) + len(new) > 2 * SCORE_BATCH:
                break
            window.update(new)
            keys.append([id(o) for o in objs])
            lo = hi
        row = {key: r for r, key in enumerate(window)}
        windows.append((list(window.values()),
                        [np.array([row[k] for k in slice_keys]) for slice_keys in keys]))
    return windows


def _score_window(model: SiameseModel, seqs: list, slice_rows: list) -> np.ndarray:
    """Scores of one window's pairs: encode its sequences once, then run the
    merge and head on each slice."""
    branch_out, lengths, _ = _encode(  # a one-row GEMM rounds differently
        model, seqs * 2 if len(seqs) == 1 else seqs, keep_cache=False)
    return np.concatenate([
        _merge_and_head(model, branch_out, lengths, rows[: rows.size // 2],
                        rows[rows.size // 2 :], keep_cache=False)[0]
        for rows in slice_rows])


def score_pairs(model: SiameseModel, seq_a: list, seq_b: list) -> np.ndarray:
    """Scores for aligned lists of sequences, batched for throughput.

    The merge runs on consecutive ``SCORE_BATCH``-pair slices, and the
    branch encodes each distinct sequence once per window of slices (see
    _windows). Windows share no data, so ``fork_map`` spreads them over
    the caller and one forked process per extra usable CPU; the scores
    are the same bits either way.
    """
    if len(seq_a) != len(seq_b):
        raise ValueError("sequence lists must have equal length")
    windows = _windows(seq_a, seq_b)
    scores = fork_map(lambda k: _score_window(model, *windows[k]), len(windows))
    return np.concatenate(scores) if scores else np.empty(0)


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
    branch_out, lengths, branch_cache = _encode(model, [*seq_a, *seq_b], keep_cache=True)
    scores, s_directed, context = _merge_and_head(
        model, branch_out, lengths, np.arange(n), np.arange(n, 2 * n), keep_cache=True)

    s_c = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    losses = -(labels * np.log(s_c) + (1.0 - labels) * np.log(1.0 - s_c))
    dloss_dscore = (-labels / s_c + (1.0 - labels) / (1.0 - s_c)) / n
    orders = s_directed.size // n
    dz = np.tile(dloss_dscore, orders) / orders * s_directed * (1.0 - s_directed)

    grad = _backward_pairs(model, context, branch_cache, dz)
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
    (EER 1vs1, EER 4vs1) after each iteration on whatever pairs it scores
    (``sigver train --dev-eval`` scores the training pairs themselves, so
    no data is held out), and the checkpoint kept is the one with the
    best 4vs1 EER; without a hook the best mean training cost wins.
    Fixed seed means a bit-identical run.
    """
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
            grad, _ = clip_global_norm(grad, cfg.clip_norm)
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
    entries = {
        "format": np.array(MODEL_FORMAT),
        "config": np.array(json.dumps(asdict(model.config))),
        **split_gates(model.branch, "branch_"),
        **split_gates(model.merge, "merge_"),
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
            head_b = data["head_b"]
            if head_b.shape != (1,):
                raise ModelFormatError(
                    f"{path}: head_b has shape {head_b.shape}, expected (1,)")
            model = SiameseModel(
                branch=join_gates(data, "branch_"),
                merge=join_gates(data, "merge_"),
                head=DenseParams(w=np.array(data["head_w"]), b=float(head_b[0])),
                config=config,
            )
        model.validate()
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file missing field {exc}") from exc
    # np.load signals corruption inconsistently: BadZipFile for broken
    # archives, ValueError for things that are not npz at all; ModelConfig and
    # validate raise ValueError for bad settings, shapes or non-finite weights
    except (zipfile.BadZipFile, OSError, ValueError, TypeError) as exc:
        raise ModelFormatError(f"{path}: cannot read model file ({exc})") from exc
    return model
