import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfedkd.model import (ModelParams, backprop, cross_entropy,
                          cross_entropy_grad, forward, forward_cached,
                          init_params, load_params, params_equal, restore,
                          save_params, sgd_step, snapshot, softmax_temp)


# ------------------------------------------------------------------ init

def test_init_deterministic():
    a = init_params((2, 3), seed=5)
    b = init_params((2, 3), seed=5)
    assert params_equal(a, b)
    assert not params_equal(a, init_params((2, 3), seed=6))


def test_init_shapes():
    p = init_params((4, 8, 3), seed=0)
    assert [w.shape for w in p.weights] == [(8, 4), (3, 8)]
    assert [b.shape for b in p.biases] == [(8,), (3,)]
    assert p.dims == (4, 8, 3)


def test_init_weight_range():
    p = init_params((9, 5, 2), seed=1)
    for w, fan_in in zip(p.weights, (9, 5)):
        assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)
    for b in p.biases:
        assert not b.any()


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params((3,), seed=0)
    with pytest.raises(ValueError):
        init_params((), seed=0)


def test_params_shape_chain_validated():
    with pytest.raises(ValueError):
        ModelParams([np.zeros((3, 2)), np.zeros((4, 5))],
                    [np.zeros(3), np.zeros(4)])


# --------------------------------------------------------------- forward

def test_forward_zero_params():
    p = ModelParams([np.zeros((3, 2)), np.zeros((4, 3))],
                    [np.zeros(3), np.zeros(4)])
    out = forward(p, np.array([[1.0, -2.0]]))
    assert np.array_equal(out, np.zeros((1, 4)))


def test_forward_identity_single_layer():
    p = ModelParams([np.eye(2)], [np.zeros(2)])
    out = forward(p, np.array([[2.0, -1.0]]))
    assert np.allclose(out, [[2.0, -1.0]])


def test_forward_matches_reference_arithmetic():
    # independent oracle: per-sample loops over explicit dot products
    p = init_params((4, 6, 3), seed=7)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 4))
    got = forward(p, X)
    for i in range(5):
        h = np.array([max(0.0, p.weights[0][j] @ X[i] + p.biases[0][j])
                      for j in range(6)])
        z = np.array([p.weights[1][j] @ h + p.biases[1][j] for j in range(3)])
        assert np.allclose(got[i], z, atol=1e-12)


def test_forward_dim_mismatch():
    p = init_params((4, 3), seed=0)
    with pytest.raises(ValueError):
        forward(p, np.zeros((2, 5)))


def test_forward_deterministic():
    p = init_params((3, 5, 2), seed=2)
    X = np.random.default_rng(1).standard_normal((4, 3))
    assert np.array_equal(forward(p, X), forward(p, X))


# --------------------------------------------------------------- softmax

def test_softmax_uniform():
    for tau in (0.5, 1.0, 4.0):
        assert np.allclose(softmax_temp(np.zeros(3), tau), np.full(3, 1 / 3))


def test_softmax_shift_invariance():
    z = np.array([0.3, -1.2, 2.0])
    assert np.allclose(softmax_temp(z, 2.0), softmax_temp(z + 7.5, 2.0), atol=1e-12)


def test_softmax_hand_value():
    p = softmax_temp(np.array([1.0, 0.0]), 1.0)
    assert p == pytest.approx([0.731059, 0.268941], abs=1e-6)


def test_softmax_rejects_bad_tau():
    with pytest.raises(ValueError):
        softmax_temp(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        softmax_temp(np.zeros(2), -1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-500, 500), min_size=2, max_size=12),
       st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_softmax_is_distribution(logits, tau):
    p = softmax_temp(np.array(logits), tau)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) <= 1e-12


# --------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    assert cross_entropy(logits, labels) == pytest.approx(np.log(10), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros((1, 5))
    logits[0, 2] = 30.0
    assert cross_entropy(logits, np.array([2])) < 1e-9


def test_cross_entropy_hand_value():
    assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == pytest.approx(
        0.313262, abs=1e-6)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((0, 3)), np.array([], dtype=int))


def test_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = init_params((4, 6, 3), seed=3)
    X = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)

    logits, cache = forward_cached(p, X)
    _, dlogits = cross_entropy_grad(logits, y)
    grads = backprop(p, cache, dlogits)

    h = 1e-5
    for arr, g in [(p.weights[0], grads.weights[0]), (p.biases[1], grads.biases[1])]:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            up = cross_entropy(forward(p, X), y)
            arr[ix] = orig - h
            down = cross_entropy(forward(p, X), y)
            arr[ix] = orig
            num = (up - down) / (2 * h)
            assert abs(num - g[ix]) / max(abs(num), abs(g[ix]), 1e-5) < 1e-4


# -------------------------------------------------------------- sgd_step

def test_sgd_zero_grads_identity():
    p = init_params((3, 2), seed=0)
    zero = ModelParams([np.zeros_like(w) for w in p.weights],
                       [np.zeros_like(b) for b in p.biases])
    assert params_equal(sgd_step(p, zero, 0.1, 0.0), p)


def test_sgd_scalar_arithmetic():
    p = ModelParams([np.array([[1.0]])], [np.array([0.0])])
    g = ModelParams([np.array([[0.5]])], [np.array([0.0])])
    assert sgd_step(p, g, 0.1, 0.0).weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)
    assert sgd_step(p, g, 0.1, 1e-4).weights[0][0, 0] == pytest.approx(0.94999, abs=1e-12)


def test_sgd_bias_skips_weight_decay():
    p = ModelParams([np.array([[1.0]])], [np.array([1.0])])
    zero = ModelParams([np.array([[0.0]])], [np.array([0.0])])
    out = sgd_step(p, zero, 0.1, 0.5)
    assert out.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert out.biases[0][0] == 1.0


def test_sgd_rejects_mismatched_shapes():
    p = init_params((3, 2), seed=0)
    g = init_params((3, 4), seed=0)
    with pytest.raises(ValueError):
        sgd_step(p, g, 0.1)
    with pytest.raises(ValueError):
        sgd_step(p, p, -0.1)


# --------------------------------------------------- snapshot / restore

def train_some(p, steps=10):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, p.dims[0]))
    y = rng.integers(0, p.dims[-1], size=6)
    for _ in range(steps):
        logits, cache = forward_cached(p, X)
        _, dlogits = cross_entropy_grad(logits, y)
        p = sgd_step(p, backprop(p, cache, dlogits), 0.1)
    return p


def test_snapshot_isolated_from_training():
    p = init_params((3, 4, 2), seed=1)
    frozen = snapshot(p)
    reference = snapshot(p)
    trained = train_some(p)
    assert params_equal(frozen, reference)
    assert not params_equal(trained, frozen)


def test_restore_reproduces_logits():
    p = init_params((3, 4, 2), seed=1)
    X = np.random.default_rng(4).standard_normal((5, 3))
    before = forward(p, X)
    frozen = snapshot(p)
    train_some(p)
    assert np.array_equal(forward(restore(frozen), X), before)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = init_params((4, 7, 3), seed=9)
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert p.dims == q.dims
    for a, b in zip(p.weights + p.biases, q.weights + q.biases):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        load_params(path)


def test_checkpoint_rejects_truncation_and_bad_headers(tmp_path):
    good = tmp_path / "model.bin"
    save_params(init_params((4, 7, 3), seed=9), good)
    buf = good.read_bytes()
    bad = tmp_path / "bad.bin"
    cases = [buf[:cut] for cut in range(len(buf))]
    for n_dims in (-1, 0, 1, 2, 4, 2**40, 2**63 - 1):
        cases.append(buf[:4] + struct.pack("<q", n_dims) + buf[12:])
    cases.append(buf[:12] + struct.pack("<q", 0) + buf[20:])        # zero dim
    cases.append(buf[:12] + struct.pack("<q", 2**40) + buf[20:])    # huge dim
    cases.append(buf + b"\x00" * 8)                                  # trailing bytes
    for data in cases:
        bad.write_bytes(data)
        with pytest.raises(ValueError, match="bad.bin"):
            load_params(bad)
