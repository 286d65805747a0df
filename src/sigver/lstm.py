"""LSTM layer with explicit forward and backward passes, in float64.

The cell uses the standard gating: forget, input, and output gates are
logistic functions of W.[h_prev, x] + b, the candidate state uses tanh,
the cell state is C_t = f_t*C_{t-1} + i_t*g_t, and the block output is
h_t = o_t*tanh(C_t). No peephole connections.

Sequences run under a boolean mask. A step whose mask is False copies
the previous state unchanged and emits the carried output, so trailing
padding never changes the numbers computed at valid steps, bit for bit.
The batched engine processes several sequences against shared read-only
parameters; gradients accumulate as an ordered sum, so results do not
depend on how callers split work.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class LstmParams:
    """Gate weights over the concatenation [h_prev, x], one bias each."""

    W_f: np.ndarray
    W_i: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    @property
    def hidden_size(self) -> int:
        return int(self.W_f.shape[0])

    @property
    def input_size(self) -> int:
        return int(self.W_f.shape[1] - self.W_f.shape[0])

    def validate(self) -> None:
        h = self.hidden_size
        d = self.input_size
        if d < 1:
            raise ValueError(f"weight shape {self.W_f.shape} implies input size {d}")
        for name in ("W_f", "W_i", "W_o", "W_c"):
            m = getattr(self, name)
            if m.shape != (h, h + d):
                raise ValueError(f"{name} shape {m.shape}, expected {(h, h + d)}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")
        for name in ("b_f", "b_i", "b_o", "b_c"):
            v = getattr(self, name)
            if v.shape != (h,):
                raise ValueError(f"{name} shape {v.shape}, expected {(h,)}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")


@dataclass
class LstmState:
    h: np.ndarray
    C: np.ndarray


@dataclass
class DenseParams:
    w: np.ndarray
    b: float


def zero_state(hidden_size: int) -> LstmState:
    return LstmState(h=np.zeros(hidden_size), C=np.zeros(hidden_size))


def init_lstm(
    hidden_size: int,
    input_size: int,
    rng: np.random.Generator,
    forget_bias: float = 1.0,
) -> LstmParams:
    """Uniform init in +-1/sqrt(fan-in); forget bias starts positive."""
    r = 1.0 / np.sqrt(hidden_size + input_size)
    shape = (hidden_size, hidden_size + input_size)
    params = LstmParams(
        W_f=rng.uniform(-r, r, shape),
        W_i=rng.uniform(-r, r, shape),
        W_o=rng.uniform(-r, r, shape),
        W_c=rng.uniform(-r, r, shape),
        b_f=np.full(hidden_size, float(forget_bias)),
        b_i=np.zeros(hidden_size),
        b_o=np.zeros(hidden_size),
        b_c=np.zeros(hidden_size),
    )
    params.validate()
    return params


def init_dense(input_size: int, rng: np.random.Generator) -> DenseParams:
    r = 1.0 / np.sqrt(input_size)
    return DenseParams(w=rng.uniform(-r, r, input_size), b=0.0)


def _stacked(params: LstmParams) -> tuple[np.ndarray, np.ndarray]:
    """All four gates as one (4H, H+D) matrix, order f, i, o, candidate."""
    W = np.concatenate([params.W_f, params.W_i, params.W_o, params.W_c], axis=0)
    b = np.concatenate([params.b_f, params.b_i, params.b_o, params.b_c])
    return W, b


def lstm_forward_batch(
    params: LstmParams,
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
    initial: LstmState | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict | None]:
    """Run B sequences of length T through the layer.

    inputs: (B, T, D); mask: (B, T) booleans, default all-valid.
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

    W, b = _stacked(params)
    # Splitting W keeps the per-step products at a fixed shape, so a run
    # with extra trailing padding repeats the exact same BLAS calls on the
    # valid steps and stays bit-identical to the unpadded run.
    W_hT = np.ascontiguousarray(W[:, :h_size].T)
    W_xT = np.ascontiguousarray(W[:, h_size:].T)
    if initial is None:
        h = np.zeros((n_batch, h_size))
        C = np.zeros((n_batch, h_size))
    else:
        h = np.array(initial.h, dtype=np.float64).reshape(n_batch, h_size)
        C = np.array(initial.C, dtype=np.float64).reshape(n_batch, h_size)
    h0 = h

    inputs_t = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    mask_t = np.ascontiguousarray(mask.T)
    out_t = np.empty((n_steps, n_batch, h_size))
    kept = n_steps if keep_cache else 1  # without a cache, step t reuses slot 0
    gates = np.empty((kept, n_batch, 4 * h_size))
    c_prev = np.empty((kept, n_batch, h_size))
    c_tanh = np.empty_like(c_prev)
    pre = np.empty((n_batch, 4 * h_size))
    rec = np.empty_like(pre)

    for t in range(n_steps):
        np.matmul(inputs_t[t], W_xT, out=pre)
        pre += b
        np.matmul(h, W_hT, out=rec)
        pre += rec
        slot = t if keep_cache else 0
        gt = gates[slot]
        expit(pre[:, : 3 * h_size], out=gt[:, : 3 * h_size])
        np.tanh(pre[:, 3 * h_size :], out=gt[:, 3 * h_size :])
        f = gt[:, :h_size]
        i = gt[:, h_size : 2 * h_size]
        o = gt[:, 2 * h_size : 3 * h_size]
        g = gt[:, 3 * h_size :]
        c_prev[slot] = C
        C_new = f * C + i * g
        tC = np.tanh(C_new, out=c_tanh[slot])
        h_new = o * tC

        m = mask_t[t][:, None]
        h = np.where(m, h_new, h)
        C = np.where(m, C_new, C)
        out_t[t] = h

    cache = {
        "gates": gates, "c_prev": c_prev, "c_tanh": c_tanh,
        "out_t": out_t, "inputs_t": inputs_t, "mask_t": mask_t, "h0": h0,
        "W_hT": W_hT, "W_xT": W_xT, "hidden": h_size, "input": d,
    } if keep_cache else None
    return np.ascontiguousarray(out_t.transpose(1, 0, 2)), (h, C), cache


def lstm_backward_batch(
    params: LstmParams,
    cache: dict,
    grad_outputs: np.ndarray,
) -> tuple[LstmParams, np.ndarray]:
    """Gradients of a batched forward pass.

    grad_outputs: (B, T, H) upstream gradient on the emitted outputs.
    Returns (parameter gradients shaped like params, input gradients
    (B, T, D)). Masked steps contribute nothing to parameter or input
    gradients; their upstream gradient flows back to the carried state.
    """
    h_size, d = cache["hidden"], cache["input"]
    mask_t = cache["mask_t"]
    n_steps, n_batch = mask_t.shape
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (n_batch, n_steps, h_size):
        raise ValueError(
            f"grad_outputs shape {grad_outputs.shape} != {(n_batch, n_steps, h_size)}"
        )
    gates, c_tanh, c_prev = cache["gates"], cache["c_tanh"], cache["c_prev"]
    W_h = cache["W_hT"].T

    go_t = np.ascontiguousarray(grad_outputs.transpose(1, 0, 2))
    dh = np.zeros((n_batch, h_size))
    dC = np.zeros((n_batch, h_size))
    dpre = np.empty((n_steps, n_batch, 4 * h_size))

    for t in reversed(range(n_steps)):
        dh = dh + go_t[t]
        m = mask_t[t][:, None]
        dh_cell = np.where(m, dh, 0.0)
        dC_cell = np.where(m, dC, 0.0)

        gt = gates[t]
        f = gt[:, :h_size]
        i = gt[:, h_size : 2 * h_size]
        o = gt[:, 2 * h_size : 3 * h_size]
        g = gt[:, 3 * h_size :]
        tC = c_tanh[t]

        do = dh_cell * tC
        dCt = dC_cell + dh_cell * o * (1.0 - tC * tC)

        # masked rows have dh_cell = dC_cell = 0, so their dpre rows are
        # exactly zero and drop out of the whole-run products below
        dp = dpre[t]
        dp[:, :h_size] = (dCt * c_prev[t]) * f * (1.0 - f)
        dp[:, h_size : 2 * h_size] = (dCt * g) * i * (1.0 - i)
        dp[:, 2 * h_size : 3 * h_size] = do * o * (1.0 - o)
        dp[:, 3 * h_size :] = (dCt * i) * (1.0 - g * g)

        dh = np.where(m, dp @ W_h, dh)
        dC = np.where(m, dCt * f, dC)

    flat = dpre.reshape(n_steps * n_batch, 4 * h_size)
    h_prev = np.concatenate([cache["h0"][None], cache["out_t"][:-1]], axis=0)
    h_prev = h_prev[:n_steps]
    dW_h = flat.T @ h_prev.reshape(n_steps * n_batch, h_size)
    dW_x = flat.T @ cache["inputs_t"].reshape(n_steps * n_batch, d)
    dW = np.concatenate([dW_h, dW_x], axis=1)
    db = dpre.sum(axis=(0, 1))
    dinputs = np.ascontiguousarray(
        (flat @ cache["W_xT"].T).reshape(n_steps, n_batch, d).transpose(1, 0, 2)
    )

    grads = LstmParams(
        W_f=dW[:h_size],
        W_i=dW[h_size : 2 * h_size],
        W_o=dW[2 * h_size : 3 * h_size],
        W_c=dW[3 * h_size :],
        b_f=db[:h_size],
        b_i=db[h_size : 2 * h_size],
        b_o=db[2 * h_size : 3 * h_size],
        b_c=db[3 * h_size :],
    )
    return grads, dinputs


def lstm_step(params: LstmParams, state: LstmState, x: np.ndarray) -> LstmState:
    """Advance one time step from ``state`` on input ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_size,):
        raise ValueError(f"x shape {x.shape} != {(params.input_size,)}")
    if state.h.shape != (params.hidden_size,) or state.C.shape != (params.hidden_size,):
        raise ValueError("state size does not match parameters")
    initial = LstmState(h=state.h[None, :], C=state.C[None, :])
    _, (h, C), _ = lstm_forward_batch(params, x[None, None, :], initial=initial)
    return LstmState(h=h[0], C=C[0])


def lstm_forward(
    params: LstmParams,
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, LstmState, dict]:
    """Single-sequence forward from a zero initial state."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be (T, D), got shape {inputs.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)[None, :]
    outputs, (h, C), cache = lstm_forward_batch(params, inputs[None], mask)
    return outputs[0], LstmState(h=h[0], C=C[0]), cache


def dense_sigmoid(params: DenseParams, x: np.ndarray) -> float:
    """Logistic readout sigma(w.x + b)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != params.w.shape:
        raise ValueError(f"x shape {x.shape} != {params.w.shape}")
    return float(sigmoid(params.w @ x + params.b))


def clip_global_norm(
    arrays: list[np.ndarray], max_norm: float
) -> tuple[list[np.ndarray], float]:
    """Scale a gradient collection so its joint L2 norm is <= max_norm."""
    norm = float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        arrays = [a * scale for a in arrays]
    return arrays, norm
