"""Pair-scoring network: two weight-shared LSTM branches over the two
signatures, a merge LSTM over their concatenated outputs, and a logistic
readout giving a similarity score in (0, 1).

Both branches read the same parameter object, so weight sharing is
structural rather than a synchronized copy. Scores are symmetrized by
default (mean over both presentation orders). The LSTM engine takes a
length per row; past it a row carries its state and repeats its output.

Merge row r reads branch rows ``left[r]`` and ``right[r]`` (see
_wiring): of n pairs, rows 0..n-1 read pair r as (a, b) and, when
symmetric, rows n..2n-1 read it as (b, a). The concat mode only chooses
which steps the merge reads: all of them (per_step) or the last one
(final_state). So the variants differ in data, not in code paths.

Scoring (score_pairs) encodes each distinct signature once per window of
consecutive pair batches (see _windows), because a branch row does not
depend on the pair it is in. Windows share no data, so score_pairs can
score them in forked processes (see parallel.fork_map). Both scoring
and training keep their activations time-major, the LSTM engine's own
layout, from the branch input on (see _branch_input), and transpose no
block: scoring in the engine's row order (longest row first) up to the
head, training in caller order up to the gradient on the branch outputs.

Training (batch_loss_grads, train) encodes 2n branch rows per batch of n
pairs: the n first signatures, then the n second ones. It is a pipeline
of two stages (see _MergeStage): the caller runs the branch LSTM and the
optimizer, and the merge stage, in a forked worker when parallel.may_fork
allows it, runs the merge LSTM one step behind the branch, then the
head, the loss and the merge's backward pass. Every BLAS call keeps its
operands and its shape wherever it runs, so a model trained with the
worker has the bits of one trained without it.
"""
from __future__ import annotations

import csv
import io
import json
import mmap
import time
import zipfile
from dataclasses import InitVar, asdict, dataclass

import numpy as np

from .lstm import (
    DenseParams,
    LstmParams,
    clip_global_norm,
    init_dense,
    init_lstm,
    join_gates,
    lstm_backward_batch,
    lstm_backward_steps,
    lstm_forward_batch,
    lstm_forward_steps,
    lstm_input_grads,
    lstm_param_grads,
    row_order,
    sigmoid,
    split_gates,
)
from .parallel import Worker, fork_map

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
    # Adam is the only update rule: this keyword, "adam" only and stored nowhere,
    # stays for bench/run.py:120 until ROADMAP item 3 edits that line
    optimizer: InitVar[str] = "adam"
    stop_below_cost: float = 0.0  # stop once mean cost drops under this; 0 disables

    def __post_init__(self, optimizer: str) -> None:
        for name in ("batch_size", "max_iterations", "patience", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if optimizer != "adam":
            raise ValueError(f"unknown optimizer {optimizer!r}: training uses Adam")


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
    if values.shape[0] == 0:
        raise ValueError("empty sequence: a feature sequence needs at least one row")
    return values


def _branch_input(model: SiameseModel, seqs: list,
                  longest_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Branch LSTM input (T, B, F) of B sequences, zero-padded, and their row
    counts (B,). Row k of a step holds sequence k, or with ``longest_first``
    sequence ``row_order(lengths)[0][k]``, which the engine reads in place."""
    cfg = model.config
    values = [_seq_values(s)[:: cfg.time_stride] for s in seqs]
    for v in values:
        if v.shape[1] != cfg.n_features:
            raise ValueError(f"expected {cfg.n_features} feature columns, got {v.shape[1]}")
    lengths = np.array([v.shape[0] for v in values], dtype=np.int64)
    order = row_order(lengths)[0] if longest_first else range(lengths.size)
    branch_in_t = np.zeros((int(lengths.max()), lengths.size, cfg.n_features))
    for k, row in enumerate(order):
        branch_in_t[: lengths[row], k] = values[row]
    return branch_in_t, lengths


def _wiring(cfg: ModelConfig, lengths: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray):
    """What the merge reads for pairs (``rows_a[r]``, ``rows_b[r]``) of branch
    rows: (left, right, merge_len, first). Merge row r reads branch rows
    ``left[r]`` and ``right[r]`` and is valid for ``merge_len[r]`` steps;
    merge step t reads branch step ``first + t``. Past its length a branch
    row repeats its final output (see lstm_forward_steps)."""
    left = np.concatenate([rows_a, rows_b]) if cfg.symmetric else rows_a
    right = np.concatenate([rows_b, rows_a]) if cfg.symmetric else rows_b
    if cfg.concat == "per_step":
        return left, right, np.maximum(lengths[left], lengths[right]), 0
    # final_state: one merge step over the two final block outputs
    return left, right, np.ones(left.size, dtype=np.int64), int(lengths.max()) - 1


def _readout(model: SiameseModel, merge_out_t: np.ndarray, merge_h: np.ndarray,
             inv: np.ndarray, merge_len: np.ndarray) -> np.ndarray:
    """Readout (B, H) of merge rows of lengths ``merge_len``, from the merge
    outputs (T, B, H) and final states (B, H) that hold merge row r at row
    ``inv[r]`` (see lstm_forward_steps)."""
    if model.config.readout == "last":  # a row carries its state past its length
        return np.take(merge_h, inv, axis=0)
    # summed in merge row order: numpy sums a (B, T, 1) block pairwise, so
    # another layout could change the bits
    merge_out = np.take(merge_out_t.transpose(1, 0, 2), inv, axis=0)
    merge_mask = np.arange(merge_out.shape[1]) < merge_len[:, None]
    return (merge_out * merge_mask[:, :, None]).sum(axis=1) / merge_len[:, None]


def _head(model: SiameseModel, readout: np.ndarray) -> np.ndarray:
    """Directed scores of the readouts (B, H)."""
    return sigmoid(readout @ model.head.w + model.head.b)


def _score_slice(model: SiameseModel, branch_out_t: np.ndarray, branch_inv: np.ndarray,
                 lengths: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Scores of pairs (``rows_a[r]``, ``rows_b[r]``) of branch rows, whose
    outputs (T, B, H) hold branch row b at row ``branch_inv[b]``. The
    merge input is gathered longest row first, so the merge reads it in
    place."""
    left, right, merge_len, first = _wiring(model.config, lengths, rows_a, rows_b)
    order, inv = row_order(merge_len)
    steps = branch_out_t[first : first + int(merge_len.max())]
    n_steps, _, hb = steps.shape
    # both halves of every merge row in one take, into a (T, 2B, Hb) view
    halves = np.stack([branch_inv[left[order]], branch_inv[right[order]]], axis=1).ravel()
    merge_in_t = np.empty((n_steps, left.size, 2 * hb))
    np.take(steps, halves, axis=1, out=merge_in_t.reshape(n_steps, -1, hb), mode="clip")
    merge_out_t, (merge_h, _), _ = lstm_forward_steps(model.merge, merge_in_t,
                                                      merge_len[order], keep_cache=False)
    readout = _readout(model, merge_out_t, merge_h, inv, merge_len)
    return _head(model, readout).reshape(-1, rows_a.size).mean(axis=0)


def _loss(labels: np.ndarray, s_directed: np.ndarray):
    """(mean pair loss, scores, gradient on the directed score logits).

    The gradient treats the clamp inside the logarithms as constant, so
    saturated scores still produce bounded, non-zero updates.
    """
    n = labels.size
    scores = s_directed.reshape(-1, n).mean(axis=0)
    s_c = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    losses = -(labels * np.log(s_c) + (1.0 - labels) * np.log(1.0 - s_c))
    dloss_dscore = (-labels / s_c + (1.0 - labels) / (1.0 - s_c)) / n
    orders = s_directed.size // n
    dz = np.tile(dloss_dscore, orders) / orders * s_directed * (1.0 - s_directed)
    return float(losses.mean()), scores, dz


def _add_merge_input_grad(grad_steps: np.ndarray, merge_din: np.ndarray, n: int,
                          symmetric: bool) -> None:
    """``grad_steps[:, left] += merge_din[..., :H]``, then ``grad_steps[:,
    right] += merge_din[..., H:]``, for the wiring of a training batch of n
    pairs; both arrays are step-major, (T, rows, .).

    There ``left`` is ``arange(2n)`` (``arange(n)`` when not symmetric)
    and ``right`` is its rotation by n, so slice adds give every element
    the same additions in the same order as the fancy-index form, and so
    the same bits, at a fraction of the cost.
    """
    hb = merge_din.shape[2] // 2
    grad_steps[:, : merge_din.shape[1]] += merge_din[..., :hb]
    if symmetric:
        grad_steps[:, n:] += merge_din[:, :n, hb:]
        grad_steps[:, :n] += merge_din[:, n:, hb:]
    else:
        grad_steps[:, n:] += merge_din[..., hb:]


class _MergeStage:
    """The merge LSTM, the head and the loss of training batches: the second
    stage of a pipeline whose first is the branch LSTM (see
    batch_loss_grads). ``worker`` (a parallel.Worker) runs its calls.

    The stage and the caller share one anonymous memory map, made before
    the worker forks: the parameters, the branch outputs step by step, the
    gradient on the branch outputs, and the merge and head gradients. A
    batch runs in three phases:

    1. The caller writes the parameters, submits ``forward`` and runs the
       branch forward, publishing each step and posting it to the worker.
       The merge gathers its step t as soon as branch step ``first + t``
       is posted (see _wiring), so it runs one step behind the branch;
       then come the head, the loss and dz.
    2. ``forward`` goes on with the merge backward loop and the whole-run
       input-gradient product, adds the result into the branch-output
       gradient, and returns (loss, scores). The caller waits.
    3. The caller runs the branch backward while ``param_grads`` reduces
       the merge's dW and db and the head gradients.

    The backward pass is not pipelined: the branch's step t would need the
    merge input gradient at step t, a product per step in place of the
    whole-run one, and at small batch heights OpenBLAS gives such rows
    other bits.
    """

    def __init__(self, model: SiameseModel, max_rows: int, max_steps: int) -> None:
        self.model = model  # the shapes and config; the parameters come per batch
        n_params = pack_params(model).size
        n_tail = n_params - model.branch.W.size - model.branch.b.size  # merge and head
        n_out = max_rows * max_steps * model.config.branch_hidden
        memory = np.frombuffer(mmap.mmap(-1, 8 * (n_params + n_tail + 2 * n_out)),
                               dtype=np.float64)
        self.params, self.grads, self._out, self._grad_out = np.split(
            memory, np.cumsum([n_params, n_tail, n_out]))
        self.worker = Worker(self)
        self._saved = None

    def views(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A batch's branch outputs (T, B, H) in the engine's row order (see
        lstm.row_order), as the branch emits them, and the gradient on them
        (T, B, H) in caller order, as the branch's backward pass reads it."""
        shape = (int(lengths.max()), lengths.size, self.model.config.branch_hidden)
        size = int(np.prod(shape))
        return self._out[:size].reshape(shape), self._grad_out[:size].reshape(shape)

    def forward(self, lengths: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Phases 1 and 2 of a batch, on the worker's side."""
        model = unpack_params(self.model, self.params)
        cfg = model.config
        n, hb = labels.size, cfg.branch_hidden
        left, right, merge_len, first = _wiring(cfg, lengths, np.arange(n), np.arange(n, 2 * n))
        inv = row_order(lengths)[1]
        # both halves of every merge row in one take per step, as in _score_slice
        halves = np.stack([inv[left], inv[right]], axis=1).ravel()
        out, grad_out = self.views(lengths)
        n_steps = int(merge_len.max())
        merge_in_t = np.empty((n_steps, left.size, 2 * hb))
        posted = 0

        def gather(t: int) -> None:
            nonlocal posted
            while posted <= first + t:  # every branch row is in left, so the
                self.worker.wait()      # last merge step takes the last post
                posted += 1
            np.take(out[first + t], halves, axis=0, out=merge_in_t[t].reshape(-1, hb),
                    mode="clip")

        merge_out_t, (merge_h, _), cache = lstm_forward_steps(model.merge, merge_in_t,
                                                              merge_len, before_step=gather)
        readout = _readout(model, merge_out_t, merge_h, cache["inv"], merge_len)
        loss, scores, dz = _loss(labels, _head(model, readout))

        dreadout = dz[:, None] * model.head.w[None, :]
        grad_merge_out = np.zeros((n_steps, left.size, cfg.merge_hidden))
        if cfg.readout == "last":
            grad_merge_out[merge_len - 1, np.arange(dz.size)] = dreadout
        else:
            merge_mask = np.arange(n_steps)[:, None] < merge_len
            grad_merge_out[:] = (dreadout / merge_len[:, None]) * merge_mask[:, :, None]
        dpre = lstm_backward_steps(cache, grad_merge_out)
        grad_out.fill(0.0)
        _add_merge_input_grad(grad_out[first : first + n_steps],
                              lstm_input_grads(cache, dpre), n, cfg.symmetric)
        self._saved = cache, dpre, readout, dz
        return loss, scores

    def param_grads(self) -> None:
        """Phase 3 on the worker's side: the merge and head gradients, in
        the order of pack_params, into ``grads``."""
        cache, dpre, readout, dz = self._saved
        self._saved = None
        merge = lstm_param_grads(cache, dpre)
        self.grads[:] = np.concatenate([merge.W.ravel(), merge.b, readout.T @ dz, [dz.sum()]])


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
    """Scores of one window's pairs: encode its sequences once, time-major
    and longest row first, then run the merge and head on each slice."""
    branch_in_t, lengths = _branch_input(  # a one-row GEMM rounds differently
        model, seqs * 2 if len(seqs) == 1 else seqs, longest_first=True)
    order, inv = row_order(lengths)
    branch_out_t, _, _ = lstm_forward_steps(model.branch, branch_in_t, lengths[order],
                                            keep_cache=False)
    return np.concatenate([
        _score_slice(model, branch_out_t, inv, lengths,
                     rows[: rows.size // 2], rows[rows.size // 2 :])
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
    model: SiameseModel, seq_a: list, seq_b: list, labels: np.ndarray, merge=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean pair loss over a batch, its parameter gradient, and the scores.

    The gradient treats the clamp inside the logarithms as constant, so
    saturated scores still produce bounded, non-zero updates. ``merge`` is
    the merge stage that ``train`` keeps for all its batches, which may run
    in a forked worker (see _MergeStage); by default the batch runs
    in-process. The results have the same bits either way.
    """
    n = len(seq_a)
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels, dtype=np.float64)
    branch_in_t, lengths = _branch_input(model, [*seq_a, *seq_b], longest_first=False)
    if merge is None:
        merge = _MergeStage(model, lengths.size, branch_in_t.shape[0])
    out, grad_out = merge.views(lengths)
    merge.params[:] = pack_params(model)
    merge.worker.submit("forward", lengths, labels)

    def publish(t: int, rows: np.ndarray) -> None:
        out[t] = rows
        merge.worker.post()

    # the checked (B, T) forms, which the benchmark's tracer times, on views
    mask = np.arange(branch_in_t.shape[0]) < lengths[:, None]
    _, _, branch_cache = lstm_forward_batch(model.branch, branch_in_t.transpose(1, 0, 2),
                                            mask, on_step=publish)
    loss, scores = merge.worker.result()
    merge.worker.submit("param_grads")
    branch_grads, _ = lstm_backward_batch(model.branch, branch_cache,
                                          grad_out.transpose(1, 0, 2), input_grad=False)
    merge.worker.result()
    return loss, np.concatenate([branch_grads.W.ravel(), branch_grads.b, merge.grads]), scores


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

    max_steps = max(v[:: model.config.time_stride].shape[0] for a, b, _ in data for v in (a, b))
    merge = _MergeStage(model, 2 * min(cfg.batch_size, len(data)), max_steps)
    with merge.worker:
        for iteration in range(1, cfg.max_iterations + 1):
            order = rng.permutation(len(data))
            loss_sum = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                batch = [data[j] for j in order[lo : lo + cfg.batch_size]]
                seq_a = [d[0] for d in batch]
                seq_b = [d[1] for d in batch]
                labels = np.array([d[2] for d in batch], dtype=np.float64)
                loss, grad, _ = batch_loss_grads(current, seq_a, seq_b, labels, merge)
                loss_sum += loss * len(batch)
                grad, _ = clip_global_norm(grad, cfg.clip_norm)
                step += 1
                adam_m = beta1 * adam_m + (1.0 - beta1) * grad
                adam_v = beta2 * adam_v + (1.0 - beta2) * grad * grad
                m_hat = adam_m / (1.0 - beta1**step)
                v_hat = adam_v / (1.0 - beta2**step)
                vec = vec - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
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
