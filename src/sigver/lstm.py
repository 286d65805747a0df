"""LSTM layer with explicit forward and backward passes, in float64.

The cell uses the standard gating: forget, input, and output gates are
logistic functions of W.[h_prev, x] + b, the candidate state uses tanh,
the cell state is C_t = f_t*C_{t-1} + i_t*g_t, and the block output is
h_t = o_t*tanh(C_t). No peephole connections.

A layer's parameters are stored the way the engine computes with them:
one (4H, H+D) matrix and one (4H,) bias, whose row blocks belong to the
gates in the order f, i, o, c (candidate). This module alone knows that
layout; ``split_gates`` and ``join_gates`` translate it to and from the
per-gate arrays (``W_f`` ... ``b_c``) that model files store.

The layer has one entry point, ``lstm_forward_batch``, with its
gradient ``lstm_backward_batch``. It runs B sequences from a zero
initial state against shared read-only parameters, under a prefix
mask: row b is valid for its first length_b steps and padding after.
Past its length a row keeps its state and emits the carried output, so
trailing padding never changes the numbers computed at valid steps, bit
for bit. Any other mask is a ValueError.

The recurrence is packed by length. The engine sorts the rows longest
first, so at step t the rows still running are a prefix of the batch,
and it does every elementwise operation of the step on that prefix
only; padded row-steps cost no gate work. The two matrix products of a
step still run at the full height B: OpenBLAS does not always give a
row the same bits when the row count changes (a single row goes through
GEMV), so a fixed height keeps the results equal to the unpacked
recurrence's. The forward products give the same bits for any row order
at the sizes used here, but the backward recurrent product through the
transposed W_h does not when B % 4 != 0 (K x N of 92 x 23 or 184 x 46,
for instance). So the backward pass writes each step's gate gradients
into a caller-order buffer first and runs that product, and the
whole-run reductions for dW, db and the input gradient, on it. Outputs,
final state and gradients come back in caller order, equal bit for bit
to running every row at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


GATES = ("f", "i", "o", "c")


@dataclass
class LstmParams:
    """Gate weights over [h_prev, x]: W (4H, H+D) and b (4H,).

    Row block k of both, rows k*H to (k+1)*H - 1, belongs to gate GATES[k].
    """

    W: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return int(self.W.shape[0]) // 4

    @property
    def input_size(self) -> int:
        return int(self.W.shape[1]) - self.hidden_size

    def validate(self) -> None:
        if self.W.ndim != 2 or self.W.shape[0] % 4:
            raise ValueError(f"W shape {self.W.shape} is not (4H, H+D)")
        h = self.hidden_size
        d = self.input_size
        if d < 1:
            raise ValueError(f"W shape {self.W.shape} implies input size {d}")
        if self.b.shape != (4 * h,):
            raise ValueError(f"b shape {self.b.shape}, expected {(4 * h,)}")
        for name in ("W", "b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")


def split_gates(params: LstmParams, prefix: str = "") -> dict[str, np.ndarray]:
    """Per-gate arrays ``{prefix}W_f`` ... ``{prefix}b_c``, in that order.

    The arrays are views of the row blocks of ``params``.
    """
    h = params.hidden_size
    return {
        f"{prefix}{name}_{gate}": full[k * h : (k + 1) * h]
        for name, full in (("W", params.W), ("b", params.b))
        for k, gate in enumerate(GATES)
    }


def join_gates(arrays, prefix: str = "") -> LstmParams:
    """Stack the per-gate arrays that ``split_gates`` names.

    ``arrays`` maps names to arrays (a dict or an open ``.npz``); a missing
    name raises KeyError. All four gates of W, and of b, must agree in
    shape, so blocks of unequal height cannot add up to a valid layer.
    """
    stacked = []
    for name in ("W", "b"):
        blocks = [np.array(arrays[f"{prefix}{name}_{gate}"]) for gate in GATES]
        for gate, block in zip(GATES[1:], blocks[1:]):
            if block.shape != blocks[0].shape:
                raise ValueError(
                    f"{prefix}{name}_{gate} shape {block.shape} != "
                    f"{prefix}{name}_{GATES[0]} shape {blocks[0].shape}"
                )
        stacked.append(np.concatenate(blocks))
    return LstmParams(*stacked)


@dataclass
class DenseParams:
    w: np.ndarray
    b: float


def init_lstm(
    hidden_size: int,
    input_size: int,
    rng: np.random.Generator,
) -> LstmParams:
    """Uniform init in +-1/sqrt(fan-in); forget bias starts at 1."""
    r = 1.0 / math.sqrt(hidden_size + input_size)  # also for sizes past int64
    b = np.zeros(4 * hidden_size)
    b[:hidden_size] = 1.0
    params = LstmParams(
        W=rng.uniform(-r, r, (4 * hidden_size, hidden_size + input_size)), b=b
    )
    params.validate()
    return params


def init_dense(input_size: int, rng: np.random.Generator) -> DenseParams:
    r = 1.0 / math.sqrt(input_size)
    return DenseParams(w=rng.uniform(-r, r, input_size), b=0.0)


def lstm_forward_batch(
    params: LstmParams,
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict | None]:
    """Run B sequences of length T through the layer from zero state.

    inputs: (B, T, D); mask: (B, T) prefix mask, default all-valid.
    Returns (outputs (B, T, H), (final h (B, H), final C (B, H)), cache).
    The cache feeds lstm_backward_batch. With ``keep_cache=False`` the
    per-step gates and cell states are not kept, which saves most of the
    memory of a scoring pass, and the cache is None; the outputs are the
    same bit for bit.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"inputs must be (B, T, D), got shape {inputs.shape}")
    n_batch, n_steps, d = inputs.shape
    h_size = params.hidden_size
    if d != params.input_size:
        raise ValueError(f"input size {d} != parameter input size {params.input_size}")
    if mask is None:
        mask = np.ones((n_batch, n_steps), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_batch, n_steps):
        raise ValueError(f"mask shape {mask.shape} != {(n_batch, n_steps)}")
    lengths = np.count_nonzero(mask, axis=1)
    if not np.array_equal(mask, np.arange(n_steps) < lengths[:, None]):
        raise ValueError("mask must be a prefix mask: each row True then False")
    order = np.argsort(-lengths, kind="stable")  # longest first
    inv = np.argsort(order)
    active = np.count_nonzero(mask, axis=0).tolist()  # rows longer than t

    # Splitting W keeps the per-step products at a fixed shape, so a run
    # with extra trailing padding repeats the exact same BLAS calls on the
    # valid steps and stays bit-identical to the unpadded run.
    W_hT = np.ascontiguousarray(params.W[:, :h_size].T)
    W_xT = np.ascontiguousarray(params.W[:, h_size:].T)
    h = np.zeros((n_batch, h_size))
    C = np.zeros((n_batch, h_size))

    inputs_t = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    x = np.empty((n_batch, d))
    out_s = np.empty((n_steps, n_batch, h_size))
    kept = n_steps if keep_cache else 1  # without a cache, step t reuses slot 0
    gates = np.empty((kept, n_batch, 4 * h_size))
    c_prev = np.empty((n_steps, n_batch, h_size)) if keep_cache else None
    c_tanh = np.empty((kept, n_batch, h_size))
    pre = np.empty((n_batch, 4 * h_size))
    rec = np.empty_like(pre)

    for t in range(n_steps):
        a = active[t]
        np.take(inputs_t[t], order, axis=0, out=x, mode="clip")
        np.matmul(x, W_xT, out=pre)
        np.matmul(h, W_hT, out=rec)
        p = pre[:a]
        p += params.b
        p += rec[:a]
        slot = t if keep_cache else 0
        gt = gates[slot, :a]
        expit(p[:, : 3 * h_size], out=gt[:, : 3 * h_size])
        np.tanh(p[:, 3 * h_size :], out=gt[:, 3 * h_size :])
        f, i, o, g = (gt[:, k * h_size : (k + 1) * h_size] for k in range(4))
        if keep_cache:  # only the backward pass reads the previous cell state
            c_prev[t, :a] = C[:a]
        C[:a] = f * C[:a] + i * g
        np.multiply(o, np.tanh(C[:a], out=c_tanh[slot, :a]), out=h[:a])
        out_s[t] = h

    cache = {
        "gates": gates, "c_prev": c_prev, "c_tanh": c_tanh, "out_s": out_s,
        "inputs_t": inputs_t, "mask_t": mask.T,
        "order": order, "inv": inv, "active": active,
        "W_hT": W_hT, "W_xT": W_xT, "hidden": h_size, "input": d,
    } if keep_cache else None
    outputs = np.take(out_s.transpose(1, 0, 2), inv, axis=0)
    return outputs, (np.take(h, inv, axis=0), np.take(C, inv, axis=0)), cache


def lstm_backward_batch(
    params: LstmParams,
    cache: dict,
    grad_outputs: np.ndarray,
    *,
    input_grad: bool = True,
) -> tuple[LstmParams, np.ndarray | None]:
    """Gradients of a batched forward pass.

    grad_outputs: (B, T, H) upstream gradient on the emitted outputs.
    Returns (parameter gradients shaped like params, input gradients
    (B, T, D), or None with ``input_grad=False``). Masked steps contribute
    nothing to parameter or input gradients; their upstream gradient
    flows back to the carried state.
    """
    h_size, d = cache["hidden"], cache["input"]
    n_steps, n_batch = cache["mask_t"].shape
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (n_batch, n_steps, h_size):
        raise ValueError(
            f"grad_outputs shape {grad_outputs.shape} != {(n_batch, n_steps, h_size)}"
        )
    gates, c_tanh, c_prev = cache["gates"], cache["c_tanh"], cache["c_prev"]
    order, inv, active = cache["order"], cache["inv"], cache["active"]
    W_h = cache["W_hT"].T

    go_s = np.take(grad_outputs.transpose(1, 0, 2), order, axis=1)
    dh = np.zeros((n_batch, h_size))
    dC = np.zeros((n_batch, h_size))
    # rows past the active prefix stay zero: the prefix only grows backward
    dp = np.zeros((n_batch, 4 * h_size))
    rec = np.empty((n_batch, h_size))
    dpre = np.empty((n_steps, n_batch, 4 * h_size))  # caller row order

    for t in reversed(range(n_steps)):
        dh += go_s[t]
        a = active[t]
        f, i, o, g = (gates[t, :a, k * h_size : (k + 1) * h_size] for k in range(4))
        tC = c_tanh[t, :a]
        dh_a = dh[:a]

        do = dh_a * tC
        dCt = dC[:a] + dh_a * o * (1.0 - tC * tC)

        dp[:a, :h_size] = (dCt * c_prev[t, :a]) * f * (1.0 - f)
        dp[:a, h_size : 2 * h_size] = (dCt * g) * i * (1.0 - i)
        dp[:a, 2 * h_size : 3 * h_size] = do * o * (1.0 - o)
        dp[:a, 3 * h_size :] = (dCt * i) * (1.0 - g * g)

        # the recurrent product runs in caller row order: its bits depend
        # on a row's position in the batch
        np.take(dp, inv, axis=0, out=dpre[t], mode="clip")
        np.matmul(dpre[t], W_h, out=rec)
        np.take(rec, order[:a], axis=0, out=dh_a, mode="clip")
        np.multiply(dCt, f, out=dC[:a])

    flat = dpre.reshape(n_steps * n_batch, 4 * h_size)
    h_prev = np.zeros((n_steps, n_batch, h_size))  # the state before step 0 is zero
    np.take(cache["out_s"][:-1], inv, axis=1, out=h_prev[1:], mode="clip")
    dW_h = flat.T @ h_prev.reshape(n_steps * n_batch, h_size)
    dW_x = flat.T @ cache["inputs_t"].reshape(n_steps * n_batch, d)
    dW = np.concatenate([dW_h, dW_x], axis=1)
    db = dpre.sum(axis=(0, 1))
    if not input_grad:
        return LstmParams(dW, db), None
    dinputs = np.ascontiguousarray(
        (flat @ cache["W_xT"].T).reshape(n_steps, n_batch, d).transpose(1, 0, 2)
    )
    return LstmParams(dW, db), dinputs


def clip_global_norm(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale ``grad`` so its L2 norm is <= max_norm; returns (grad, norm)."""
    norm = float(np.sqrt(np.sum(grad * grad)))
    if max_norm > 0.0 and norm > max_norm:
        grad = grad * (max_norm / norm)
    return grad, norm
