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

The layer has two forward entry points, both from a zero initial state
against shared read-only parameters. ``lstm_forward_steps``, the one
recurrence, takes time-major inputs (T, B, D) with a length per row and
hands back time-major results in the engine's row order (see
``row_order``), so a caller that keeps that layout copies nothing; its
hooks let a pipeline feed a layer step by step and pass each step's
outputs on as soon as they exist. ``lstm_forward_batch`` is its checked
(B, T, D) form in caller order, under a prefix mask: row b is valid for
its first length_b steps and padding after; any other mask is a
ValueError. Past its length a row keeps its state and emits the carried
output, so trailing padding never changes the numbers computed at valid
steps, bit for bit. The gradient is ``lstm_backward_batch``: the backward
loop (``lstm_backward_steps``) followed by two whole-run products
(``lstm_param_grads``, ``lstm_input_grads``), which a pipeline can run
apart and in either order.

The recurrence is packed by length. The engine sorts the rows longest
first, so at step t the rows still running are a prefix of the batch,
and it does every elementwise operation of the step on that prefix
only; padded row-steps cost no gate work. The two matrix products of a
step still run at the full height B: OpenBLAS does not always give a
row the same bits when the row count changes (a single row goes through
GEMV), so a fixed height keeps the results equal to the unpacked
recurrence's. Results are equal bit for bit to running every row at
every step; inputs whose rows come longest first are read in place.

The backward recurrence runs from the last step to the first. The
elementwise arithmetic of a step (the output and cell-state gradients,
the four gate gradients and the carried dC) is one compiled function,
``lstm_backward_step`` in ``_kernels.c``, which also writes the step's
gate gradients into a caller-order buffer. Its bits cannot differ from
the numpy expressions it replaces: it only multiplies, adds and
subtracts values the forward pass stored, in the same order, and it is
built with ``-ffp-contract=off`` and without ``-ffast-math`` (see
``kernels``). The transcendental functions, whose numpy and libm forms
differ, stay in the forward pass, in numpy and scipy. The products stay
in OpenBLAS with the operands and shapes they had. The forward products
give the same bits for any row order at the sizes used here, but the
backward recurrent product through the transposed W_h does not when
B % 4 != 0 (K x N of 92 x 23 or 184 x 46, for instance). So that product
runs on the caller-order buffer, as do the whole-run reductions for dW,
db and the input gradient; the gradients come back in caller order.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import kernels


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


def row_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, inverse) of the engine's row order: longest first, ties in
    caller order. Row k of a step's output, as ``on_step`` sees it, is
    caller row ``order[k]``; caller row b is engine row ``inverse[b]``."""
    order = np.argsort(-np.asarray(lengths), kind="stable")
    return order, np.argsort(order)


def lstm_forward_batch(
    params: LstmParams,
    inputs: np.ndarray,
    mask: np.ndarray | None = None,
    keep_cache: bool = True,
    on_step=None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict | None]:
    """Run B sequences of length T through the layer from zero state.

    inputs: (B, T, D); mask: (B, T) prefix mask, default all-valid.
    Returns (outputs (B, T, H), (final h (B, H), final C (B, H)), cache).
    The cache feeds lstm_backward_batch. With ``keep_cache=False`` the
    per-step gates and cell states are not kept, which saves most of the
    memory of a scoring pass, and the cache is None; the outputs are the
    same bit for bit. ``on_step(t, rows)``, when given, sees each step's
    outputs as soon as the step is done, in the engine's row order (see
    ``row_order``). It is ``lstm_forward_steps`` on the transposed inputs,
    with its results put back in caller order.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"inputs must be (B, T, D), got shape {inputs.shape}")
    n_batch, n_steps, d = inputs.shape
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
    inputs_t = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    out_s, (h, C), cache = lstm_forward_steps(params, inputs_t, lengths, keep_cache,
                                              on_step=on_step)
    inv = row_order(lengths)[1]
    outputs = np.take(out_s.transpose(1, 0, 2), inv, axis=0)
    return outputs, (np.take(h, inv, axis=0), np.take(C, inv, axis=0)), cache


def lstm_forward_steps(
    params: LstmParams,
    inputs_t: np.ndarray,
    lengths: np.ndarray,
    keep_cache: bool = True,
    before_step=None,
    on_step=None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], dict | None]:
    """The recurrence, on time-major inputs.

    inputs_t: (T, B, D) in caller row order; lengths: (B,) valid steps per
    row, at most T. Step t reads ``inputs_t[t]`` only when it starts,
    after ``before_step(t)`` has returned, so a caller can fill the step's
    rows there. ``on_step(t, rows)`` sees the step's outputs as soon as the
    step is done. Returns (outputs (T, B, H), (final h, final C), cache)
    in the engine's row order: caller row b is row ``inverse[b]`` (see
    ``row_order``), and its final state is its output at its last valid
    step. The cache (None with ``keep_cache=False``) keeps ``inputs_t``.
    """
    n_steps, n_batch, d = inputs_t.shape
    h_size = params.hidden_size
    lengths = np.asarray(lengths)
    order, inv = row_order(lengths)
    # rows longer than t: all but those of length t or less
    active = (n_batch - np.cumsum(np.bincount(lengths, minlength=n_steps))[:n_steps]).tolist()
    # rows already longest first, each step one C-order block: read in place.
    # Skipping the per-step gather shows at verify's few-row batches
    # (BENCH_24.json "in_place_read": verify pairs/s +6%, 10 of 10 pairs).
    in_order = inputs_t.flags.c_contiguous and bool(np.all(order == np.arange(n_batch)))

    # Splitting W keeps the per-step products at a fixed shape, so a run
    # with extra trailing padding repeats the exact same BLAS calls on the
    # valid steps and stays bit-identical to the unpadded run.
    W_hT = np.ascontiguousarray(params.W[:, :h_size].T)
    W_xT = np.ascontiguousarray(params.W[:, h_size:].T)
    h = np.zeros((n_batch, h_size))
    C = np.zeros((n_batch, h_size))

    x = np.empty((n_batch, d))
    out_s = np.empty((n_steps, n_batch, h_size))
    kept = n_steps if keep_cache else 1  # without a cache, step t reuses slot 0
    gates = np.empty((kept, n_batch, 4 * h_size))
    c_prev = np.empty((n_steps, n_batch, h_size)) if keep_cache else None
    c_tanh = np.empty((kept, n_batch, h_size))
    pre = np.empty((n_batch, 4 * h_size))
    rec = np.empty_like(pre)

    for t in range(n_steps):
        if before_step is not None:
            before_step(t)
        a = active[t]
        if in_order:
            np.matmul(inputs_t[t], W_xT, out=pre)
        else:
            np.matmul(np.take(inputs_t[t], order, axis=0, out=x, mode="clip"), W_xT, out=pre)
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
        if on_step is not None:
            on_step(t, out_s[t])

    cache = {
        "gates": gates, "c_prev": c_prev, "c_tanh": c_tanh, "out_s": out_s,
        "inputs_t": inputs_t, "mask_t": np.arange(n_steps)[:, None] < lengths,
        "order": order, "inv": inv, "active": active,
        "W_hT": W_hT, "W_xT": W_xT, "hidden": h_size, "input": d,
    } if keep_cache else None
    return out_s, (h, C), cache


def _bind_backward_step():
    """``lstm_backward_step`` of ``_kernels.c``, or, when the library cannot
    be built, a stand-in that raises the build's OSError: importing needs
    no compiler, training does."""
    try:
        step = kernels.load().lstm_backward_step
    except OSError as exc:
        message = str(exc)

        def step(*args):
            raise OSError(message)
        return step
    step.argtypes = [ctypes.c_ssize_t] * 4 + [ctypes.c_void_p] * 8
    step.restype = None
    return step


_backward_step = _bind_backward_step()


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
    flows back to the carried state. It is ``lstm_backward_steps``, then
    ``lstm_param_grads`` and ``lstm_input_grads`` on its result.
    """
    dpre = lstm_backward_steps(cache, grad_outputs)
    grads = lstm_param_grads(cache, dpre)
    return grads, lstm_input_grads(cache, dpre) if input_grad else None


def lstm_backward_steps(cache: dict, grad_outputs: np.ndarray) -> np.ndarray:
    """The backward recurrence: the gate pre-activation gradients of every
    step, (T, B, 4H) in caller row order, from which the whole-run
    products of ``lstm_param_grads`` and ``lstm_input_grads`` follow.

    A step's elementwise arithmetic runs in the compiled
    ``lstm_backward_step`` (see the module docstring); when the library
    could not be built, this raises the build's OSError."""
    h_size = cache["hidden"]
    n_steps, n_batch = cache["mask_t"].shape
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if grad_outputs.shape != (n_batch, n_steps, h_size):
        raise ValueError(
            f"grad_outputs shape {grad_outputs.shape} != {(n_batch, n_steps, h_size)}"
        )
    gates, c_tanh, c_prev = cache["gates"], cache["c_tanh"], cache["c_prev"]
    order, active = cache["order"], cache["active"]
    for name, block, width in (("gates", gates, 4 * h_size), ("c_tanh", c_tanh, h_size),
                               ("c_prev", c_prev, h_size)):
        if (block.shape != (n_steps, n_batch, width) or block.dtype != np.float64
                or not block.flags.c_contiguous):
            raise ValueError(f"cache[{name!r}] is not a C-order float64 "
                             f"{(n_steps, n_batch, width)} array")
    # the compiled step writes row order[k] of each step and reads active[t] rows
    order = np.ascontiguousarray(order, dtype=np.intp)
    if (not np.array_equal(np.sort(order), np.arange(n_batch)) or len(active) != n_steps
            or not all(0 <= a <= n_batch for a in active)):
        raise ValueError("cache['order'] or cache['active'] does not fit the batch")
    W_h = cache["W_hT"].T

    go_s = np.take(grad_outputs.transpose(1, 0, 2), order, axis=1)
    dh = np.zeros((n_batch, h_size))
    dC = np.zeros((n_batch, h_size))
    rec = np.empty((n_batch, h_size))
    dpre = np.empty((n_steps, n_batch, 4 * h_size))  # caller row order
    arrays = (go_s, gates, c_tanh, c_prev, order, dh, dC, dpre)  # kept alive by these names
    blocks = [array.ctypes.data for array in arrays]

    for t in reversed(range(n_steps)):
        a = active[t]
        _backward_step(t, a, n_batch, h_size, *blocks)
        # the recurrent product runs in caller row order: its bits depend
        # on a row's position in the batch
        np.matmul(dpre[t], W_h, out=rec)
        np.take(rec, order[:a], axis=0, out=dh[:a], mode="clip")
    return dpre


def lstm_param_grads(cache: dict, dpre: np.ndarray) -> LstmParams:
    """dW and db of a run, from the gradients of ``lstm_backward_steps``."""
    n_steps, n_batch, _ = dpre.shape
    h_size, d = cache["hidden"], cache["input"]
    flat = dpre.reshape(n_steps * n_batch, 4 * h_size)
    h_prev = np.zeros((n_steps, n_batch, h_size))  # the state before step 0 is zero
    np.take(cache["out_s"][:-1], cache["inv"], axis=1, out=h_prev[1:], mode="clip")
    dW_h = flat.T @ h_prev.reshape(n_steps * n_batch, h_size)
    dW_x = flat.T @ cache["inputs_t"].reshape(n_steps * n_batch, d)
    return LstmParams(np.concatenate([dW_h, dW_x], axis=1), dpre.sum(axis=(0, 1)))


def lstm_input_grads(cache: dict, dpre: np.ndarray) -> np.ndarray:
    """(B, T, D) gradient on a run's inputs, from ``lstm_backward_steps``.

    One product over the whole run: a product per step has another row
    count, and OpenBLAS does not always give a row the same bits then.
    """
    n_steps, n_batch, _ = dpre.shape
    flat = dpre.reshape(n_steps * n_batch, 4 * cache["hidden"])
    return np.ascontiguousarray(
        (flat @ cache["W_xT"].T).reshape(n_steps, n_batch, cache["input"]).transpose(1, 0, 2)
    )


def clip_global_norm(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Scale ``grad`` so its L2 norm is <= max_norm; returns (grad, norm)."""
    norm = float(np.sqrt(np.sum(grad * grad)))
    if max_norm > 0.0 and norm > max_norm:
        grad = grad * (max_norm / norm)
    return grad, norm
