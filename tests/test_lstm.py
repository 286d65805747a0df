import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sigver.lstm import (
    LstmParams,
    _forward_gates,
    clip_global_norm,
    init_dense,
    init_lstm,
    lstm_backward_batch,
    lstm_backward_steps,
    lstm_forward_batch,
    lstm_forward_steps,
    lstm_input_grads,
    lstm_param_grads,
    row_order,
    sigmoid,
)


def scalar_cell(params: LstmParams, h, C, x):
    """Plain-Python reference cell: explicit loops, math.exp/tanh only."""
    H, D = params.hidden_size, params.input_size
    z = list(h) + list(x)

    def logistic(v: float) -> float:
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

    def gate(block, j, squash):
        row = block * H + j  # gate row blocks in the order f, i, o, c
        acc = 0.0
        for k in range(H + D):
            acc += params.W[row, k] * z[k]
        return squash(acc + params.b[row])

    h_new, C_new = [], []
    for j in range(H):
        f = gate(0, j, logistic)
        i = gate(1, j, logistic)
        o = gate(2, j, logistic)
        g = gate(3, j, math.tanh)
        c = f * C[j] + i * g
        C_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, C_new


def unpacked_forward(params: LstmParams, inputs, mask):
    """Reference engine: every step on all B rows in caller order, masked
    rows carried by np.where. The packed engine must match it bit for bit."""
    B, T, _ = inputs.shape
    H = params.hidden_size
    W_hT = np.ascontiguousarray(params.W[:, :H].T)
    W_xT = np.ascontiguousarray(params.W[:, H:].T)
    h = np.zeros((B, H))
    C = np.zeros((B, H))
    inputs_t = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    mask_t = np.ascontiguousarray(mask.T)
    out_t = np.empty((T, B, H))
    gates = np.empty((T, B, 4 * H))
    c_prev = np.empty((T, B, H))
    c_tanh = np.empty_like(c_prev)
    pre = np.empty((B, 4 * H))
    rec = np.empty_like(pre)
    for t in range(T):
        np.matmul(inputs_t[t], W_xT, out=pre)
        pre += params.b
        np.matmul(h, W_hT, out=rec)
        pre += rec
        gt = gates[t]
        expit(pre[:, : 3 * H], out=gt[:, : 3 * H])
        np.tanh(pre[:, 3 * H :], out=gt[:, 3 * H :])
        f, i, o, g = (gt[:, k * H : (k + 1) * H] for k in range(4))
        c_prev[t] = C
        C_new = f * C + i * g
        tC = np.tanh(C_new, out=c_tanh[t])
        h_new = o * tC
        m = mask_t[t][:, None]
        h = np.where(m, h_new, h)
        C = np.where(m, C_new, C)
        out_t[t] = h
    cache = (gates, c_prev, c_tanh, out_t, inputs_t, mask_t, W_hT, W_xT)
    return np.ascontiguousarray(out_t.transpose(1, 0, 2)), (h, C), cache


def unpacked_backward(cache, grad_outputs):
    gates, c_prev, c_tanh, out_t, inputs_t, mask_t, W_hT, W_xT = cache
    T, B = mask_t.shape
    H, D = W_hT.shape[0], W_xT.shape[0]
    W_h = W_hT.T
    go_t = np.ascontiguousarray(grad_outputs.transpose(1, 0, 2))
    dh = np.zeros((B, H))
    dC = np.zeros((B, H))
    dpre = np.empty((T, B, 4 * H))
    for t in reversed(range(T)):
        dh = dh + go_t[t]
        m = mask_t[t][:, None]
        dh_cell = np.where(m, dh, 0.0)
        dC_cell = np.where(m, dC, 0.0)
        f, i, o, g = (gates[t][:, k * H : (k + 1) * H] for k in range(4))
        tC = c_tanh[t]
        do = dh_cell * tC
        dCt = dC_cell + dh_cell * o * (1.0 - tC * tC)
        dp = dpre[t]
        dp[:, :H] = (dCt * c_prev[t]) * f * (1.0 - f)
        dp[:, H : 2 * H] = (dCt * g) * i * (1.0 - i)
        dp[:, 2 * H : 3 * H] = do * o * (1.0 - o)
        dp[:, 3 * H :] = (dCt * i) * (1.0 - g * g)
        dh = np.where(m, dp @ W_h, dh)
        dC = np.where(m, dCt * f, dC)
    flat = dpre.reshape(T * B, 4 * H)
    h_prev = np.zeros_like(out_t)
    h_prev[1:] = out_t[:-1]
    dW_h = flat.T @ h_prev.reshape(T * B, H)
    dW_x = flat.T @ inputs_t.reshape(T * B, D)
    dinputs = np.ascontiguousarray((flat @ W_xT.T).reshape(T, B, D).transpose(1, 0, 2))
    return np.concatenate([dW_h, dW_x], axis=1), dpre.sum(axis=(0, 1)), dinputs


def assert_matches_unpacked(params, inputs, lengths, grad_outputs):
    """Packed and unpacked engines agree in every bit, with and without a cache."""
    mask = np.arange(inputs.shape[1]) < np.asarray(lengths)[:, None]
    ref_out, (ref_h, ref_C), ref_cache = unpacked_forward(params, inputs, mask)
    ref_dW, ref_db, ref_din = unpacked_backward(ref_cache, grad_outputs)
    runs = [lstm_forward_batch(params, inputs, mask, keep_cache) for keep_cache in (True, False)]
    for out, (h, C), _ in runs:
        assert out.tobytes() == ref_out.tobytes()
        assert h.tobytes() == ref_h.tobytes()
        assert C.tobytes() == ref_C.tobytes()
    grads, dinputs = lstm_backward_batch(params, runs[0][2], grad_outputs)
    assert grads.W.tobytes() == ref_dW.tobytes()
    assert grads.b.tobytes() == ref_db.tobytes()
    assert dinputs.tobytes() == ref_din.tobytes()


# (H, D) at the CLI defaults (branch 16/23, merge 8/32) and the library
# defaults (branch 46/23, merge 23/92)
ENGINE_SIZES = [(16, 23), (8, 32), (46, 23), (23, 92)]


@st.composite
def packed_cases(draw):
    H, D = draw(st.sampled_from(ENGINE_SIZES))
    B = draw(st.sampled_from([*range(1, 21), 128, 130]))
    T = draw(st.integers(1, 9))
    length = st.integers(0, T)
    shape = draw(st.sampled_from(["free", "ties", "equal"]))
    if shape == "equal":
        lengths = [draw(length)] * B
    elif shape == "ties":
        pool = draw(st.lists(length, min_size=1, max_size=3))
        lengths = [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                                  min_size=B, max_size=B))]
    else:
        lengths = draw(st.lists(length, min_size=B, max_size=B))
    return H, D, T, lengths, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(packed_cases())
def test_packed_engine_matches_unpacked_bit_for_bit(case):
    H, D, T, lengths, seed = case
    rng = np.random.default_rng(seed)
    B = len(lengths)
    params = random_params(rng, H, D, scale=0.3)
    inputs = rng.normal(0, 1, (B, T, D))
    assert_matches_unpacked(params, inputs, lengths, rng.normal(0, 1, (B, T, H)))


@pytest.mark.parametrize("size", ENGINE_SIZES, ids=lambda s: f"H{s[0]}-D{s[1]}")
@pytest.mark.parametrize("B", [5, 6, 7, 9, 13, 130])
def test_packed_engine_matches_unpacked_at_ragged_heights(size, B):
    # B % 4 != 0: at the library sizes the recurrent backward product's
    # bits depend on a row's position, so sorted-order rows would differ
    H, D = size
    rng = np.random.default_rng(B * 100 + H)
    T = 11
    lengths = rng.integers(1, T + 1, B)
    lengths[: B // 3] = lengths[0]  # ties
    params = random_params(rng, H, D, scale=0.3)
    inputs = rng.normal(0, 1, (B, T, D))
    assert_matches_unpacked(params, inputs, lengths, rng.normal(0, 1, (B, T, H)))


def numpy_forward_steps(params, inputs_t, lengths, keep_cache=True):
    """The forward recurrence in numpy, as the engine ran it before its
    step's arithmetic was compiled: the oracle of ``lstm_forward_steps``.
    Returns (outputs, (final h, final C), (gates, c_prev, c_tanh) or None)."""
    n_steps, n_batch, d = inputs_t.shape
    h_size = params.hidden_size
    order, _ = row_order(lengths)
    active = (n_batch - np.cumsum(np.bincount(lengths, minlength=n_steps))[:n_steps]).tolist()
    W_hT = np.ascontiguousarray(params.W[:, :h_size].T)
    W_xT = np.ascontiguousarray(params.W[:, h_size:].T)
    h = np.zeros((n_batch, h_size))
    C = np.zeros((n_batch, h_size))
    x = np.empty((n_batch, d))
    out_s = np.empty((n_steps, n_batch, h_size))
    kept = n_steps if keep_cache else 1
    gates = np.empty((kept, n_batch, 4 * h_size))
    c_prev = np.empty((n_steps, n_batch, h_size)) if keep_cache else None
    c_tanh = np.empty((kept, n_batch, h_size))
    pre = np.empty((n_batch, 4 * h_size))
    rec = np.empty_like(pre)
    for t in range(n_steps):
        a = active[t]
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
        if keep_cache:
            c_prev[t, :a] = C[:a]
        C[:a] = f * C[:a] + i * g
        np.multiply(o, np.tanh(C[:a], out=c_tanh[slot, :a]), out=h[:a])
        out_s[t] = h
    return out_s, (h, C), (gates, c_prev, c_tanh) if keep_cache else None


def running_rows(block, active):
    """The rows a step computed, step after step; the rows past a step's
    active prefix are never written."""
    return b"".join(block[t, :a].tobytes() for t, a in enumerate(active))


@pytest.mark.parametrize("keep_cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("read", ["in-place", "gathered"])
@pytest.mark.parametrize("size", ENGINE_SIZES, ids=lambda s: f"H{s[0]}-D{s[1]}")
@pytest.mark.parametrize("B", [1, 2, 3, 5, 128, 139])
def test_compiled_forward_step_matches_numpy_oracle(B, size, read, keep_cache):
    H, D = size
    rng = np.random.default_rng(B * 1000 + H * 10 + len(read))
    T = 12
    lengths = rng.integers(1, T + 1, B)  # one row of length 1; steps past every row at B 1
    lengths[B // 2] = T
    lengths[0] = 1
    params = random_params(rng, H, D, scale=0.3)
    # every third gate unit gets a pre-activation of +-710 to +-800, where
    # exp(-z) overflows to inf or underflows to 0
    units = params.b[::3].size
    params.b[::3] = rng.choice([-1.0, 1.0], units) * rng.uniform(710, 800, units)
    if read == "in-place":  # longest first, C-order: the engine reads the block in place
        lengths = np.sort(lengths)[::-1]
        inputs_t = rng.normal(0, 1, (T, B, D))
    else:  # a strided view, in caller order: the engine gathers each step
        inputs_t = rng.normal(0, 1, (T, B, 2 * D))[:, :, ::2]
    out_s, (h, C), cache = lstm_forward_steps(params, inputs_t, lengths, keep_cache)
    ref_out, (ref_h, ref_C), ref_cache = numpy_forward_steps(params, inputs_t, lengths,
                                                             keep_cache)
    assert out_s.tobytes() == ref_out.tobytes()
    assert h.tobytes() == ref_h.tobytes()
    assert C.tobytes() == ref_C.tobytes()
    if not keep_cache:
        assert cache is None
        return
    active = cache["active"]
    for name, ref in zip(("gates", "c_prev", "c_tanh"), ref_cache):
        assert running_rows(cache[name], active) == running_rows(ref, active), name
    sigmoid_gates = cache["gates"][0, :1, : 3 * H]  # step 0 runs every row
    assert np.any(sigmoid_gates == 0.0) and np.any(sigmoid_gates == 1.0)


def compiled_sigmoid(values):
    """The sigmoid gates of ``lstm_forward_gates`` on ``values``: one row of
    width 4, whose bias and recurrent product are -0.0, so z is the value."""
    values = np.asarray(values, dtype=np.float64)
    pre = np.zeros((values.size, 4))
    pre[:, :3] = values[:, None]
    zeros = np.full_like(pre, -0.0)
    gates = np.empty_like(pre)
    _forward_gates(0, values.size, values.size, 1, pre.ctypes.data, zeros[0].ctypes.data,
                   zeros.ctypes.data, gates.ctypes.data)
    assert gates[:, 3].tobytes() == pre[:, 3].tobytes()  # the candidate is z itself
    return gates[:, :3]


def test_compiled_sigmoid_is_scipy_expit_bit_for_bit():
    rng = np.random.default_rng(29)
    tiny = np.finfo(np.float64).smallest_subnormal
    extremes = [0.0, -0.0, 709.78, -709.78, 745.0, -745.0, 710.0, -710.0, 800.0, -800.0,
                tiny, -tiny, 1e-310, -1e-310, np.finfo(np.float64).tiny, 37.0, -37.0]
    values = np.concatenate([rng.normal(0, 1, 10**6) * 10.0 ** rng.uniform(-8, 3, 10**6),
                             extremes])
    got = compiled_sigmoid(values)
    want = expit(values)
    assert all(got[:, k].tobytes() == want.tobytes() for k in range(3))


def numpy_backward_steps(cache, grad_outputs_t):
    """The backward recurrence in numpy, as the engine ran it before its
    step's arithmetic was compiled: the oracle of ``lstm_backward_steps``."""
    h_size = cache["hidden"]
    n_steps, n_batch = cache["gates"].shape[:2]
    gates, c_tanh, c_prev = cache["gates"], cache["c_tanh"], cache["c_prev"]
    order, inv, active = cache["order"], cache["inv"], cache["active"]
    W_h = cache["W_hT"].T

    go_s = np.take(np.asarray(grad_outputs_t), order, axis=1)
    dh = np.zeros((n_batch, h_size))
    dC = np.zeros((n_batch, h_size))
    dp = np.zeros((n_batch, 4 * h_size))  # rows past the active prefix stay zero
    rec = np.empty((n_batch, h_size))
    dpre = np.empty((n_steps, n_batch, 4 * h_size))
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

        np.take(dp, inv, axis=0, out=dpre[t], mode="clip")
        np.matmul(dpre[t], W_h, out=rec)
        np.take(rec, order[:a], axis=0, out=dh_a, mode="clip")
        np.multiply(dCt, f, out=dC[:a])
    return dpre


@pytest.mark.parametrize("kind", ["ragged", "equal", "saturated"])
@pytest.mark.parametrize("size", ENGINE_SIZES, ids=lambda s: f"H{s[0]}-D{s[1]}")
@pytest.mark.parametrize("B", [1, 2, 3, 5, 128, 139])
def test_compiled_backward_step_matches_numpy_oracle(B, size, kind):
    H, D = size
    rng = np.random.default_rng(B * 1000 + H * 10 + len(kind))
    T = 12
    if kind == "equal":
        lengths = np.full(B, T)
    else:  # one row of length 1; steps past every row when B is 1
        lengths = rng.integers(1, T + 1, B)
        lengths[B // 2] = T
        lengths[0] = 1
    scale = 8.0 if kind == "saturated" else 1.0  # gates at exactly 0, 1 or +-1
    params = random_params(rng, H, D, scale=0.3 * scale)
    _, _, cache = lstm_forward_steps(params, scale * rng.normal(0, 1, (T, B, D)), lengths)
    if kind == "saturated":
        assert np.any(cache["gates"] == 1.0) and np.any(np.abs(cache["gates"]) < 1e-12)
    grad_outputs_t = rng.normal(0, 1, (T, B, H))
    got = lstm_backward_steps(cache, grad_outputs_t)
    assert got.tobytes() == numpy_backward_steps(cache, grad_outputs_t).tobytes()


def test_backward_rejects_a_cache_the_compiled_step_cannot_index(rng):
    params = random_params(rng, 3, 2)
    grad_outputs_t = np.ones((5, 4, 3))
    for key, bad in [("order", lambda v: v + 1), ("active", lambda v: [5, *v[1:]]),
                     ("gates", lambda v: np.asfortranarray(v)),
                     ("c_prev", lambda v: v[:, :, :2])]:
        _, _, cache = lstm_forward_steps(params, rng.normal(0, 1, (5, 4, 2)), [5, 3, 5, 1])
        cache[key] = bad(cache[key])
        with pytest.raises(ValueError, match=key):
            lstm_backward_steps(cache, grad_outputs_t)


def test_forward_rejects_a_bias_the_compiled_step_cannot_read(rng):
    params = random_params(rng, 3, 2)
    params.b = params.b[:-1]
    with pytest.raises(ValueError, match="b shape"):
        lstm_forward_steps(params, rng.normal(0, 1, (5, 4, 2)), [5, 3, 5, 1])


def random_params(rng, hidden, inputs, scale=0.8):
    W = rng.normal(0, scale, (4 * hidden, hidden + inputs))
    return LstmParams(W=W, b=rng.normal(0, scale, 4 * hidden))


def test_step_matches_scalar_reference(rng):
    # one step from a nonzero state: the last step of a T-step run equals
    # the scalar cell applied to the final state of the (T-1)-step run
    for _ in range(20):
        H = int(rng.integers(1, 5))
        D = int(rng.integers(1, 6))
        T = int(rng.integers(2, 7))
        params = random_params(rng, H, D)
        xs = rng.normal(0, 1, (2, T, D))
        _, (h_prev, C_prev), _ = lstm_forward_batch(params, xs[:, :-1])
        _, (h, C), _ = lstm_forward_batch(params, xs)
        assert np.all(np.any(h_prev != 0.0, axis=1))
        for row in range(2):
            ref_h, ref_C = scalar_cell(params, h_prev[row], C_prev[row], xs[row, -1])
            assert np.max(np.abs(h[row] - ref_h)) <= 1e-12
            assert np.max(np.abs(C[row] - ref_C)) <= 1e-12


def test_sequence_matches_scalar_reference(rng):
    for _ in range(10):
        H = int(rng.integers(1, 5))
        D = int(rng.integers(1, 6))
        T = int(rng.integers(1, 7))
        params = random_params(rng, H, D)
        xs = rng.normal(0, 1, (2, T, D))
        outputs, (h_end, C_end), _ = lstm_forward_batch(params, xs)
        for row in range(2):
            h = [0.0] * H
            C = [0.0] * H
            for t in range(T):
                h, C = scalar_cell(params, h, C, xs[row, t])
                assert np.max(np.abs(outputs[row, t] - h)) <= 1e-12
            assert np.max(np.abs(h_end[row] - h)) <= 1e-12
            assert np.max(np.abs(C_end[row] - C)) <= 1e-12


def test_all_zero_gives_exact_zero_output():
    H, D = 3, 2
    params = LstmParams(W=np.zeros((4 * H, H + D)), b=np.zeros(4 * H))
    outputs, (h, C), _ = lstm_forward_batch(params, np.zeros((2, 6, D)))
    assert np.array_equal(outputs, np.zeros((2, 6, H)))
    assert np.array_equal(h, np.zeros((2, H)))
    assert np.array_equal(C, np.zeros((2, H)))


def test_forget_gate_scalar_example():
    # one unit, zero recurrent weights, strong forget bias: the first step
    # writes C = sigmoid(0) * tanh(3) from the input, later steps keep it
    # and the half-open output gate leaks tanh of it
    W = np.zeros((4, 2))
    W[3, 1] = 1.0  # candidate reads the input
    params = LstmParams(W=W, b=np.array([10.0, 0.0, 0.0, 0.0]))
    xs = np.array([[[3.0], [0.0], [0.0]]] * 2)
    outputs, (_, C), _ = lstm_forward_batch(params, xs)
    keep = float(sigmoid(np.array(10.0)))
    expected_C = 0.5 * math.tanh(3.0) * keep * keep
    assert C[0, 0] == pytest.approx(expected_C, abs=1e-15)
    assert C[0, 0] == pytest.approx(0.49748, abs=1e-5)
    assert outputs[0, 2, 0] == pytest.approx(0.5 * math.tanh(expected_C), abs=1e-15)


def test_gradients_match_finite_differences(rng):
    H, D, T, B = 5, 7, 9, 3
    params = random_params(rng, H, D, scale=0.4)
    inputs = rng.normal(0, 1, (B, T, D))
    mask = np.ones((B, T), dtype=bool)
    mask[1, 6:] = False
    mask[2, 4:] = False
    weights = rng.normal(0, 1, (B, T, H))

    def loss(p: LstmParams, x: np.ndarray) -> float:
        out, _, _ = lstm_forward_batch(p, x, mask)
        return float(np.sum(out * weights))

    _, _, cache = lstm_forward_batch(params, inputs, mask)
    grads, dinputs = lstm_backward_batch(params, cache, weights)

    eps = 1e-5
    for name in ("W", "b"):
        for k, gate in enumerate("fioc"):
            # probe each gate's row block, a view into params
            arr = getattr(params, name)[k * H : (k + 1) * H]
            got = getattr(grads, name)[k * H : (k + 1) * H]
            for _ in range(4):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss(params, inputs)
                arr[idx] = orig - eps
                down = loss(params, inputs)
                arr[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - got[idx]) / max(abs(fd) + abs(got[idx]), 1e-6)
                assert rel <= 1e-4, f"{name}_{gate}{idx}: fd={fd} bp={got[idx]}"
    for _ in range(8):
        idx = tuple(rng.integers(0, s) for s in inputs.shape)
        orig = inputs[idx]
        inputs[idx] = orig + eps
        up = loss(params, inputs)
        inputs[idx] = orig - eps
        down = loss(params, inputs)
        inputs[idx] = orig
        fd = (up - down) / (2 * eps)
        rel = abs(fd - dinputs[idx]) / max(abs(fd) + abs(dinputs[idx]), 1e-6)
        assert rel <= 1e-4, f"input{idx}: fd={fd} bp={dinputs[idx]}"


def test_padding_is_bit_invariant(rng):
    H, D = 4, 3
    params = random_params(rng, H, D)
    lengths = [5, 2, 7]
    seqs = [rng.normal(0, 1, (n, D)) for n in lengths]

    def run(pad_to: int):
        B = len(seqs)
        inputs = np.zeros((B, pad_to, D))
        mask = np.zeros((B, pad_to), dtype=bool)
        for b, s in enumerate(seqs):
            inputs[b, : len(s)] = s
            mask[b, : len(s)] = True
        return lstm_forward_batch(params, inputs, mask)

    out_a, (h_a, C_a), _ = run(7)
    out_b, (h_b, C_b), _ = run(12)
    assert np.array_equal(h_a, h_b)
    assert np.array_equal(C_a, C_b)
    for b, n in enumerate(lengths):
        assert np.array_equal(out_a[b, :n], out_b[b, :n])


def test_masked_steps_freeze_state_and_output(rng):
    H, D, T = 3, 2, 7
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (2, T, D))
    mask = np.ones((2, T), dtype=bool)
    mask[0, 3:] = False
    out, (h, C), _ = lstm_forward_batch(params, inputs, mask)
    _, (h3, C3), _ = lstm_forward_batch(params, inputs[:, :3])
    assert np.any(h3[0] != 0.0)  # the frozen state is not the zero state
    assert np.array_equal(h[0], h3[0])
    assert np.array_equal(C[0], C3[0])
    assert np.array_equal(out[0, 3:], np.broadcast_to(h3[0], (T - 3, H)))


def test_masked_steps_get_zero_input_gradient(rng):
    H, D, T = 3, 2, 6
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (2, T, D))
    mask = np.ones((2, T), dtype=bool)
    mask[0, 3:] = False
    _, _, cache = lstm_forward_batch(params, inputs, mask)
    _, dinputs = lstm_backward_batch(params, cache, np.ones((2, T, H)))
    assert np.array_equal(dinputs[0, 3:], np.zeros((3, D)))
    assert np.any(dinputs[0, :3] != 0.0)


def test_non_prefix_mask_is_rejected(rng):
    params = random_params(rng, 3, 2)
    for row in ([True, False, True], [False, True, True], [False, False, True]):
        mask = np.array([[True, True, True], row])
        with pytest.raises(ValueError, match="prefix mask"):
            lstm_forward_batch(params, np.zeros((2, 3, 2)), mask)


def test_zero_length_row_outputs_zeros_and_gets_zero_gradient(rng):
    H, D, T = 3, 2, 5
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (3, T, D))
    mask = np.arange(T) < np.array([4, 0, 5])[:, None]
    out, (h, C), cache = lstm_forward_batch(params, inputs, mask)
    assert not out[1].any() and not h[1].any() and not C[1].any()
    grad_outputs = rng.normal(0, 1, (3, T, H))
    grads, dinputs = lstm_backward_batch(params, cache, grad_outputs)
    assert not dinputs[1].any() and dinputs[0].any()
    # the row's upstream gradient reaches no parameter
    grad_outputs[1] = rng.normal(0, 1, (T, H))
    other, _ = lstm_backward_batch(params, cache, grad_outputs)
    assert other.W.tobytes() == grads.W.tobytes()
    assert other.b.tobytes() == grads.b.tobytes()


def test_backward_without_input_gradient(rng):
    H, D, T, B = 4, 3, 6, 5
    params = random_params(rng, H, D)
    mask = np.arange(T) < np.array([6, 2, 4, 6, 1])[:, None]
    _, _, cache = lstm_forward_batch(params, rng.normal(0, 1, (B, T, D)), mask)
    grad_outputs = rng.normal(0, 1, (B, T, H))
    full, dinputs = lstm_backward_batch(params, cache, grad_outputs)
    lean, none = lstm_backward_batch(params, cache, grad_outputs, input_grad=False)
    assert none is None and dinputs.shape == (B, T, D)
    assert lean.W.tobytes() == full.W.tobytes()
    assert lean.b.tobytes() == full.b.tobytes()


def test_cache_reports_mask_layout(rng):
    # the benchmark tracer counts row-steps from these two entries
    params = random_params(rng, 3, 2)
    mask = np.arange(4) < np.array([4, 1, 3])[:, None]
    _, _, cache = lstm_forward_batch(params, rng.normal(0, 1, (3, 4, 2)), mask)
    assert cache["mask_t"].shape == (4, 3)
    assert cache["input"] == 2


def test_batch_matches_single_sequence(rng):
    H, D, T = 4, 3, 5
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (4, T, D))
    batched, (h, C), _ = lstm_forward_batch(params, inputs)
    for b in range(4):
        out, (h1, C1), _ = lstm_forward_batch(params, inputs[b : b + 1])
        assert np.allclose(batched[b], out[0], atol=1e-12)
        assert np.allclose(h[b], h1[0], atol=1e-12)
        assert np.allclose(C[b], C1[0], atol=1e-12)


def test_forward_without_cache_is_bit_identical(rng):
    H, D, T, B = 4, 3, 8, 5
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (B, T, D))
    mask = np.ones((B, T), dtype=bool)
    mask[1, 5:] = False
    mask[3, 2:] = False
    out, (h, C), cache = lstm_forward_batch(params, inputs, mask)
    lean, (h2, C2), none = lstm_forward_batch(params, inputs, mask, keep_cache=False)
    assert cache is not None and none is None
    assert np.array_equal(lean, out)
    assert np.array_equal(h2, h) and np.array_equal(C2, C)


def test_steps_filled_one_at_a_time_give_the_batch_bits(rng):
    """``before_step`` may write a step's inputs just before the step reads
    them, and ``on_step`` sees each step's outputs in the engine's order."""
    H, D, T = 4, 3, 7
    params = random_params(rng, H, D)
    lengths = np.array([3, 7, 1, 7, 5])
    inputs = rng.normal(0, 1, (lengths.size, T, D))
    mask = np.arange(T) < lengths[:, None]
    out, (h, C), cache = lstm_forward_batch(params, inputs, mask)
    inputs_t = np.full((T, lengths.size, D), np.nan)
    seen = []

    def fill(t):
        assert np.isnan(inputs_t[t]).all()
        inputs_t[t] = inputs[:, t]

    got, (h2, C2), cache2 = lstm_forward_steps(
        params, inputs_t, lengths, before_step=fill,
        on_step=lambda t, rows: seen.append(rows.copy()))
    order, inv = row_order(lengths)
    assert order.tolist() == [1, 3, 4, 0, 2] and inv.tolist() == [3, 0, 4, 1, 2]
    assert got.tobytes() == np.ascontiguousarray(out[order].transpose(1, 0, 2)).tobytes()
    assert (h2[inv].tobytes(), C2[inv].tobytes()) == (h.tobytes(), C.tobytes())
    assert cache2["inputs_t"].tobytes() == cache["inputs_t"].tobytes()
    assert np.stack(seen).tobytes() == got.tobytes()


@pytest.mark.parametrize("keep_cache", [True, False])
@pytest.mark.parametrize("size", ENGINE_SIZES, ids=lambda s: f"H{s[0]}-D{s[1]}")
def test_time_major_outputs_are_the_batch_outputs_transposed(size, keep_cache, rng):
    """``lstm_forward_steps`` hands back time-major outputs and final state
    in the engine's row order; put in caller order they are the bits of
    ``lstm_forward_batch``. Rows given longest first are read in place and
    give those bits too."""
    H, D = size
    lengths = np.array([4, 9, 4, 1, 9, 6, 4, 9, 2, 6, 1])  # unsorted, with ties
    T = int(lengths.max()) + 2  # trailing padding on every row
    params = random_params(rng, H, D, scale=0.3)
    inputs = rng.normal(0, 1, (lengths.size, T, D))
    mask = np.arange(T) < lengths[:, None]
    out, (h, C), _ = lstm_forward_batch(params, inputs, mask, keep_cache)
    order, inv = row_order(lengths)
    inputs_t = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    for rows, run_lengths in ((np.arange(lengths.size), lengths), (order, lengths[order])):
        got, (h_t, C_t), cache = lstm_forward_steps(params, inputs_t[:, rows], run_lengths,
                                                    keep_cache)
        # both runs have the engine order of ``lengths``: caller row b is row inv[b]
        assert got.shape == (T, lengths.size, H) and got.flags.c_contiguous
        assert got[:, inv].transpose(1, 0, 2).tobytes() == out.tobytes()
        assert (h_t[inv].tobytes(), C_t[inv].tobytes()) == (h.tobytes(), C.tobytes())
        assert (cache is None) != keep_cache


@pytest.mark.parametrize("size", ENGINE_SIZES, ids=lambda s: f"H{s[0]}-D{s[1]}")
def test_time_major_gradients_are_the_batch_gradients_transposed(size, rng):
    """``lstm_backward_steps`` reads a time-major output gradient in caller
    order, and ``lstm_input_grads`` hands back a time-major input gradient
    in caller order; they give the bits of ``lstm_backward_batch``, whose
    (B, T, .) arrays are their transposes."""
    H, D = size
    lengths = np.array([4, 9, 4, 1, 9, 6, 4, 9, 2, 6, 1])  # unsorted, with ties
    T = int(lengths.max()) + 3  # trailing padding on every row; T != B
    params = random_params(rng, H, D, scale=0.3)
    inputs = rng.normal(0, 1, (lengths.size, T, D))
    mask = np.arange(T) < lengths[:, None]
    _, _, cache = lstm_forward_batch(params, inputs, mask)
    grad_outputs = rng.normal(0, 1, (lengths.size, T, H))
    grads, dinputs = lstm_backward_batch(params, cache, grad_outputs)
    dpre = lstm_backward_steps(cache, np.ascontiguousarray(grad_outputs.transpose(1, 0, 2)))
    steps = lstm_param_grads(cache, dpre)
    assert (steps.W.tobytes(), steps.b.tobytes()) == (grads.W.tobytes(), grads.b.tobytes())
    dinputs_t = lstm_input_grads(cache, dpre)
    assert dinputs_t.shape == (T, lengths.size, D) and dinputs_t.flags.c_contiguous
    assert np.ascontiguousarray(dinputs_t.transpose(1, 0, 2)).tobytes() == \
        np.ascontiguousarray(dinputs).tobytes()
    with pytest.raises(ValueError, match="grad_outputs_t shape"):
        lstm_backward_steps(cache, grad_outputs)


def test_empty_sequence_returns_initial_state(rng):
    params = random_params(rng, 3, 2)
    out, (h, C), cache = lstm_forward_batch(params, np.zeros((2, 0, 2)))
    assert out.shape == (2, 0, 3)
    assert np.array_equal(h, np.zeros((2, 3)))
    assert np.array_equal(C, np.zeros((2, 3)))
    grads, dinputs = lstm_backward_batch(params, cache, np.zeros((2, 0, 3)))
    assert np.array_equal(grads.W, np.zeros((12, 5)))
    assert dinputs.shape == (2, 0, 2)


def test_shape_validation(rng):
    params = random_params(rng, 3, 2)
    with pytest.raises(ValueError, match="inputs must be"):
        lstm_forward_batch(params, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="input size"):
        lstm_forward_batch(params, np.zeros((1, 4, 5)))
    with pytest.raises(ValueError, match="mask shape"):
        lstm_forward_batch(params, np.zeros((1, 4, 2)), mask=np.ones((1, 3), dtype=bool))
    _, _, cache = lstm_forward_batch(params, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="grad_outputs shape"):
        lstm_backward_batch(params, cache, np.zeros((1, 3, 3)))

    bad = random_params(rng, 3, 2)
    bad.W = np.zeros((11, 5))
    with pytest.raises(ValueError, match="W shape"):
        bad.validate()
    bad = random_params(rng, 3, 2)
    bad.b = np.zeros(9)
    with pytest.raises(ValueError, match="b shape"):
        bad.validate()
    nan = random_params(rng, 3, 2)
    nan.b[10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        nan.validate()


def test_init_ranges(rng):
    params = init_lstm(46, 23, rng)
    r = 1.0 / np.sqrt(46 + 23)
    assert params.W.shape == (4 * 46, 69)
    assert np.all(np.abs(params.W) <= r)
    assert np.array_equal(params.b[:46], np.ones(46))  # forget gate
    assert np.array_equal(params.b[46:], np.zeros(3 * 46))
    head = init_dense(23, rng)
    assert head.b == 0.0
    assert np.all(np.abs(head.w) <= 1.0 / np.sqrt(23))


def test_sigmoid_stability():
    z = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    # exp may underflow to 0 by design; overflow or NaN would be a bug
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s = sigmoid(z)
    assert s[0] == 0.0
    assert s[2] == 0.5
    assert s[4] == 1.0
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.all(np.diff(s) >= 0.0)


def test_clip_global_norm():
    grad = np.array([3.0, 0.0, 4.0])
    clipped, norm = clip_global_norm(grad, 2.5)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(np.sum(clipped * clipped)) == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(clipped, [1.5, 0.0, 2.0])

    same, norm2 = clip_global_norm(grad, 10.0)
    assert norm2 == pytest.approx(5.0)
    assert same is grad

    unlimited, _ = clip_global_norm(grad, 0.0)
    assert unlimited is grad
