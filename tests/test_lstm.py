import math

import numpy as np
import pytest

from sigver.lstm import (
    DenseParams,
    LstmParams,
    LstmState,
    clip_global_norm,
    dense_sigmoid,
    init_dense,
    init_lstm,
    lstm_backward_batch,
    lstm_forward,
    lstm_forward_batch,
    lstm_step,
    sigmoid,
    zero_state,
)


def scalar_cell(params: LstmParams, h, C, x):
    """Plain-Python reference cell: explicit loops, math.exp/tanh only."""
    H, D = params.hidden_size, params.input_size
    z = list(h) + list(x)

    def logistic(v: float) -> float:
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

    def gate(W, b, j, squash):
        acc = 0.0
        for k in range(H + D):
            acc += W[j, k] * z[k]
        return squash(acc + b[j])

    h_new, C_new = [], []
    for j in range(H):
        f = gate(params.W_f, params.b_f, j, logistic)
        i = gate(params.W_i, params.b_i, j, logistic)
        o = gate(params.W_o, params.b_o, j, logistic)
        g = gate(params.W_c, params.b_c, j, math.tanh)
        c = f * C[j] + i * g
        C_new.append(c)
        h_new.append(o * math.tanh(c))
    return h_new, C_new


def random_params(rng, hidden, inputs, scale=0.8):
    shape = (hidden, hidden + inputs)
    return LstmParams(
        W_f=rng.normal(0, scale, shape),
        W_i=rng.normal(0, scale, shape),
        W_o=rng.normal(0, scale, shape),
        W_c=rng.normal(0, scale, shape),
        b_f=rng.normal(0, scale, hidden),
        b_i=rng.normal(0, scale, hidden),
        b_o=rng.normal(0, scale, hidden),
        b_c=rng.normal(0, scale, hidden),
    )


def test_step_matches_scalar_reference(rng):
    for _ in range(20):
        H = int(rng.integers(1, 5))
        D = int(rng.integers(1, 6))
        params = random_params(rng, H, D)
        state = LstmState(h=rng.normal(0, 1, H), C=rng.normal(0, 1, H))
        x = rng.normal(0, 1, D)
        ref_h, ref_C = scalar_cell(params, state.h, state.C, x)
        out = lstm_step(params, state, x)
        assert np.max(np.abs(out.h - ref_h)) <= 1e-12
        assert np.max(np.abs(out.C - ref_C)) <= 1e-12


def test_sequence_matches_scalar_reference(rng):
    for _ in range(5):
        H = int(rng.integers(1, 4))
        D = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        params = random_params(rng, H, D)
        xs = rng.normal(0, 1, (T, D))
        h = [0.0] * H
        C = [0.0] * H
        expected = []
        for t in range(T):
            h, C = scalar_cell(params, h, C, xs[t])
            expected.append(h)
        outputs, final, _ = lstm_forward(params, xs)
        assert np.max(np.abs(outputs - np.array(expected))) <= 1e-12
        assert np.max(np.abs(final.h - h)) <= 1e-12
        assert np.max(np.abs(final.C - C)) <= 1e-12


def test_all_zero_gives_exact_zero_output():
    H, D = 3, 2
    zero = np.zeros
    params = LstmParams(
        W_f=zero((H, H + D)), W_i=zero((H, H + D)),
        W_o=zero((H, H + D)), W_c=zero((H, H + D)),
        b_f=zero(H), b_i=zero(H), b_o=zero(H), b_c=zero(H),
    )
    out = lstm_step(params, zero_state(H), np.zeros(D))
    assert np.array_equal(out.h, np.zeros(H))
    assert np.array_equal(out.C, np.zeros(H))
    outputs, final, _ = lstm_forward(params, np.zeros((6, D)))
    assert np.array_equal(outputs, np.zeros((6, H)))
    assert np.array_equal(final.h, np.zeros(H))


def test_forget_gate_scalar_example():
    # one unit, zero weights, strong forget bias: cell keeps its state and
    # the half-open output gate leaks tanh of it
    params = LstmParams(
        W_f=np.zeros((1, 2)), W_i=np.zeros((1, 2)),
        W_o=np.zeros((1, 2)), W_c=np.zeros((1, 2)),
        b_f=np.array([10.0]), b_i=np.zeros(1), b_o=np.zeros(1), b_c=np.zeros(1),
    )
    out = lstm_step(params, LstmState(h=np.zeros(1), C=np.array([3.0])), np.array([0.7]))
    expected_C = float(sigmoid(np.array(10.0))) * 3.0
    assert out.C[0] == pytest.approx(expected_C, abs=1e-15)
    assert out.C[0] == pytest.approx(2.99986, abs=1e-4)
    assert out.h[0] == pytest.approx(0.5 * math.tanh(expected_C), abs=1e-15)


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
    names = ("W_f", "W_i", "W_o", "W_c", "b_f", "b_i", "b_o", "b_c")
    for name in names:
        arr = getattr(params, name)
        got = getattr(grads, name)
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
            assert rel <= 1e-4, f"{name}{idx}: fd={fd} bp={got[idx]}"
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
    H, D = 3, 2
    params = random_params(rng, H, D)
    init = LstmState(h=rng.normal(0, 1, (1, H)), C=rng.normal(0, 1, (1, H)))
    inputs = rng.normal(0, 1, (1, 4, D))
    out, (h, C), _ = lstm_forward_batch(
        params, inputs, mask=np.zeros((1, 4), dtype=bool), initial=init
    )
    assert np.array_equal(h, init.h)
    assert np.array_equal(C, init.C)
    assert np.array_equal(out, np.broadcast_to(init.h[:, None, :], (1, 4, H)))


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


def test_batch_matches_single_sequence(rng):
    H, D, T = 4, 3, 5
    params = random_params(rng, H, D)
    inputs = rng.normal(0, 1, (4, T, D))
    batched, (h, C), _ = lstm_forward_batch(params, inputs)
    for b in range(4):
        out, final, _ = lstm_forward(params, inputs[b])
        assert np.allclose(batched[b], out, atol=1e-12)
        assert np.allclose(h[b], final.h, atol=1e-12)
        assert np.allclose(C[b], final.C, atol=1e-12)


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


def test_single_step_sequence_equals_step(rng):
    params = random_params(rng, 3, 2)
    x = rng.normal(0, 1, 2)
    stepped = lstm_step(params, zero_state(3), x)
    outputs, final, _ = lstm_forward(params, x[None, :])
    assert np.array_equal(outputs[0], stepped.h)
    assert np.array_equal(final.C, stepped.C)


def test_empty_sequence_returns_initial_state(rng):
    params = random_params(rng, 3, 2)
    init = LstmState(h=rng.normal(0, 1, (2, 3)), C=rng.normal(0, 1, (2, 3)))
    out, (h, C), cache = lstm_forward_batch(params, np.zeros((2, 0, 2)), initial=init)
    assert out.shape == (2, 0, 3)
    assert np.array_equal(h, init.h)
    grads, dinputs = lstm_backward_batch(params, cache, np.zeros((2, 0, 3)))
    assert np.array_equal(grads.W_f, np.zeros((3, 5)))
    assert dinputs.shape == (2, 0, 2)


def test_shape_validation(rng):
    params = random_params(rng, 3, 2)
    with pytest.raises(ValueError, match="inputs must be"):
        lstm_forward_batch(params, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="input size"):
        lstm_forward_batch(params, np.zeros((1, 4, 5)))
    with pytest.raises(ValueError, match="mask shape"):
        lstm_forward_batch(params, np.zeros((1, 4, 2)), mask=np.ones((1, 3), dtype=bool))
    with pytest.raises(ValueError, match="x shape"):
        lstm_step(params, zero_state(3), np.zeros(4))
    with pytest.raises(ValueError, match="state size"):
        lstm_step(params, zero_state(2), np.zeros(2))
    _, _, cache = lstm_forward_batch(params, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="grad_outputs shape"):
        lstm_backward_batch(params, cache, np.zeros((1, 3, 3)))

    bad = random_params(rng, 3, 2)
    bad.W_i = np.zeros((2, 5))
    with pytest.raises(ValueError, match="W_i"):
        bad.validate()
    nan = random_params(rng, 3, 2)
    nan.b_c = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        nan.validate()


def test_init_ranges(rng):
    params = init_lstm(46, 23, rng)
    r = 1.0 / np.sqrt(46 + 23)
    for W in (params.W_f, params.W_i, params.W_o, params.W_c):
        assert W.shape == (46, 69)
        assert np.all(np.abs(W) <= r)
    assert np.array_equal(params.b_f, np.ones(46))
    assert np.array_equal(params.b_i, np.zeros(46))
    head = init_dense(23, rng)
    assert head.b == 0.0
    assert np.all(np.abs(head.w) <= 1.0 / np.sqrt(23))


def test_dense_sigmoid(rng):
    params = DenseParams(w=np.array([0.5, -1.0, 2.0]), b=0.25)
    x = np.array([1.0, 2.0, 0.5])
    expected = 1.0 / (1.0 + math.exp(-(0.5 - 2.0 + 1.0 + 0.25)))
    assert dense_sigmoid(params, x) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        dense_sigmoid(params, np.zeros(4))


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
    arrays = [np.array([3.0, 0.0]), np.array([[0.0, 4.0]])]
    clipped, norm = clip_global_norm(arrays, 2.5)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(np.sum(a * a) for a in clipped))
    assert total == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(clipped[0], [1.5, 0.0])

    same, norm2 = clip_global_norm(arrays, 10.0)
    assert norm2 == pytest.approx(5.0)
    assert same[0] is arrays[0]

    unlimited, _ = clip_global_norm(arrays, 0.0)
    assert unlimited[1] is arrays[1]
