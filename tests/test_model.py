import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (backprop_oracle, cross_entropy_grad_oracle,
                           forward_cached_oracle, log_softmax_oracle)
from param_oracle import param_sets, sgd_step_oracle
from sfedkd.model import (ModelParams, backprop, cross_entropy_grad, forward,
                          forward_cached, init_params, label_index, load_params,
                          log_softmax, params_equal, save_params, sgd_step, snapshot)


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


def test_params_are_views_of_one_flat_buffer():
    p = ModelParams([np.arange(6.0).reshape(3, 2), np.ones((1, 3))],
                    [np.full(3, -1.0), np.array([7.0])])
    assert p.dims == (2, 3, 1)
    assert p.flat.tolist() == [0, 1, 2, 3, 4, 5, -1, -1, -1, 1, 1, 1, 7]
    for a in p.weights + p.biases:
        assert np.shares_memory(a, p.flat)
    p.weights[1][0, 2] = 5.0   # in-place edits reach the buffer
    assert p.flat[11] == 5.0


def test_every_construction_rejects_non_finite():
    p = init_params((3, 4, 2), seed=0)
    with pytest.raises(ValueError, match="parameters must be finite"):
        ModelParams([np.full((2, 2), np.nan)], [np.zeros(2)])
    bad = p.flat.copy()
    bad[-1] = np.inf
    with pytest.raises(ValueError, match="parameters must be finite"):
        ModelParams.from_flat(bad, p.dims)
    _, cache = forward_cached(p, np.ones((2, 3)))
    with pytest.raises(ValueError, match="parameters must be finite"):
        backprop(p, cache, np.full((2, 2), np.nan))
    huge = ModelParams.from_flat(np.full_like(p.flat, 1e300), p.dims)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="parameters must be finite"):
        sgd_step(p, huge, 1e10)


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

def softmax(z):
    return np.exp(log_softmax(z))


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))


def test_softmax_shift_invariance():
    z = np.array([0.3, -1.2, 2.0])
    assert np.allclose(softmax(z), softmax(z + 7.5), atol=1e-12)


def test_softmax_hand_value():
    p = softmax(np.array([1.0, 0.0]))
    assert p == pytest.approx([0.731059, 0.268941], abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-500, 500), min_size=2, max_size=12))
def test_softmax_is_distribution(logits):
    p = softmax(np.array(logits))
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) <= 1e-12


# --------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    assert cross_entropy_grad(logits, labels)[0] == pytest.approx(np.log(10), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros((1, 5))
    logits[0, 2] = 30.0
    assert cross_entropy_grad(logits, np.array([2]))[0] < 1e-9


def test_cross_entropy_hand_value():
    assert cross_entropy_grad(np.array([[1.0, 0.0]]), np.array([0]))[0] == pytest.approx(
        0.313262, abs=1e-6)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy_grad(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy_grad(np.zeros((0, 3)), np.array([], dtype=int))


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
            up = cross_entropy_grad(forward(p, X), y)[0]
            arr[ix] = orig - h
            down = cross_entropy_grad(forward(p, X), y)[0]
            arr[ix] = orig
            num = (up - down) / (2 * h)
            assert abs(num - g[ix]) / max(abs(num), abs(g[ix]), 1e-5) < 1e-4


# ------------------------------------------------ kernels against oracles

# besides ordinary values: inputs that make ±0.0, NaN, ±inf and subnormal
# pre-activations (inf * 0 weight is NaN, 1e308 * weight overflows)
SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308])
FEATURES = st.one_of(SPECIAL, st.floats(-10, 10))


@st.composite
def net_and_batch(draw, values=FEATURES):
    (params,) = draw(param_sets(1))
    n, f = draw(st.integers(1, 6)), params.dims[0]
    return params, np.array(draw(st.lists(values, min_size=n * f, max_size=n * f))).reshape(n, f)


# hidden pre-activations x * 1 + b are -0.0, 0.0, NaN, ±inf and ±subnormal
RELU_EDGES = (ModelParams([np.ones((2, 1)), np.ones((1, 2))], [np.array([-0.0, 0.0]), np.zeros(1)]),
              np.array([[-0.0], [0.0], [np.nan], [np.inf], [-np.inf], [5e-324], [-5e-324]]))


@settings(max_examples=200, deadline=None)
@given(net_and_batch())
@example(RELU_EDGES)
def test_forward_cached_matches_where_oracle_bytes(case):
    params, X = case
    before = X.tobytes()
    with np.errstate(all="ignore"):
        logits, (inputs, masks) = forward_cached(params, X)
        want, (want_inputs, want_masks) = forward_cached_oracle(params, X)
    assert X.tobytes() == before
    assert logits.tobytes() == want.tobytes()
    assert [a.tobytes() for a in inputs] == [a.tobytes() for a in want_inputs]
    assert [m.tobytes() for m in masks] == [m.tobytes() for m in want_masks]


@settings(max_examples=150, deadline=None)
@given(net_and_batch(st.floats(-10, 10)), st.data())
def test_backprop_matches_oracle_bytes(case, data):
    params, X = case
    logits, cache = forward_cached(params, X)
    dlogits = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=logits.size,
                                          max_size=logits.size))).reshape(logits.shape)
    before = dlogits.tobytes()
    got = backprop(params, cache, dlogits)
    assert dlogits.tobytes() == before
    assert got.flat.tobytes() == backprop_oracle(params, cache, dlogits).flat.tobytes()
    out = ModelParams.from_flat(np.full_like(params.flat, 7.0), params.dims)
    assert backprop(params, cache, dlogits, out) is out
    assert out.flat.tobytes() == got.flat.tobytes()


LOGITS = st.one_of(SPECIAL, st.floats(-1e3, 1e3))


@st.composite
def logit_batches(draw, values=LOGITS):
    n, c = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    return np.array(draw(st.lists(values, min_size=n * c, max_size=n * c))).reshape(n, c)


@settings(max_examples=200, deadline=None)
@given(logit_batches(), st.booleans())
def test_log_softmax_matches_oracle_bytes(z, one_row):
    z = z[0] if one_row else z
    before = z.tobytes()
    with np.errstate(all="ignore"):
        got, want = log_softmax(z), log_softmax_oracle(z)
    assert z.tobytes() == before
    assert got.tobytes() == want.tobytes()


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "strided": lambda z: np.repeat(z, 2, axis=1)[:, ::2]}


@settings(max_examples=200, deadline=None)
@given(logit_batches(), st.data(), st.sampled_from(sorted(LAYOUTS)))
def test_cross_entropy_grad_matches_oracle_bytes(z, data, layout):
    # with the labels checked here or a caller's flat label index, whatever
    # the memory layout of the logits
    y = np.array(data.draw(st.lists(st.integers(0, z.shape[1] - 1),
                                    min_size=len(z), max_size=len(z))))
    z = LAYOUTS[layout](z)
    before = z.tobytes()
    with np.errstate(all="ignore"):
        want_loss, want = cross_entropy_grad_oracle(z, y)
        for loss, dlogits in (cross_entropy_grad(z, y),
                              cross_entropy_grad(z, y, label_index(y, z.shape[1]))):
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert dlogits.tobytes() == want.tobytes()
    assert z.tobytes() == before


def test_label_index_checks_unless_told_not_to():
    assert label_index([2, 0, 1], 3).tolist() == [2, 3, 7]
    for bad, label in (([0, 3], 3), ([-1, 0], -1)):
        with pytest.raises(ValueError, match=re.escape(f"label {label} outside [0, 3)")):
            label_index(bad, 3)
        label_index(bad, 3, check=False)
    with pytest.raises(ValueError, match="batch must be non-empty"):
        label_index([], 3)


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


@settings(max_examples=200, deadline=None)
@given(param_sets(2), st.sampled_from([1e-3, 0.07, 0.5, 1.0]),
       st.sampled_from([0.0, -0.0, 1e-4, 0.3]))
def test_sgd_step_matches_per_layer_oracle_bytes(pair, eta, weight_decay):
    # the fused flat update must equal the per-layer formula bit for bit,
    # signed zeros included, into a new set, another buffer or in place
    params, grads = pair
    got = sgd_step(params, grads, eta, weight_decay)
    want = sgd_step_oracle(params, grads, eta, weight_decay)
    assert got.dims == want.dims
    assert got.flat.tobytes() == want.flat.tobytes()
    before = params.flat.tobytes(), grads.flat.tobytes()
    other = ModelParams.from_flat(np.zeros_like(params.flat), params.dims)
    own = ModelParams.from_flat(params.flat.copy(), params.dims)
    assert sgd_step(params, grads, eta, weight_decay, out=other) is other
    assert sgd_step(own, grads, eta, weight_decay, out=own) is own
    assert other.flat.tobytes() == own.flat.tobytes() == want.flat.tobytes()
    assert (params.flat.tobytes(), grads.flat.tobytes()) == before


def test_sgd_rejects_mismatched_shapes():
    p = init_params((3, 2), seed=0)
    g = init_params((3, 4), seed=0)
    with pytest.raises(ValueError):
        sgd_step(p, g, 0.1)
    with pytest.raises(ValueError):
        sgd_step(p, p, -0.1)


# -------------------------------------------------------------- snapshot

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


def test_snapshot_reproduces_logits():
    p = init_params((3, 4, 2), seed=1)
    X = np.random.default_rng(4).standard_normal((5, 3))
    before = forward(p, X)
    frozen = snapshot(p)
    p.weights[0] += 1.0  # an in-place edit of the source must not reach the copy
    train_some(p)
    assert np.array_equal(forward(snapshot(frozen), X), before)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = init_params((4, 7, 3), seed=9)
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert p.dims == q.dims
    for a, b in zip(p.weights + p.biases, q.weights + q.biases):
        assert np.array_equal(a, b)
    # the body after the 12-byte header and the dims is the flat buffer
    assert path.read_bytes()[12 + 8 * 3:] == p.flat.astype("<f8").tobytes()


def test_checkpoint_bytes_pinned(tmp_path):
    # recorded when each layer was still written as its own array; pins the
    # byte format (header, then per layer the weights and the bias)
    path = tmp_path / "model.bin"
    save_params(init_params((4, 7, 3), seed=9), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "40b1132cb3c8602ccb3a67c71a91390a4b280daf2a9c9a2bf8095e5bc0cd2f94")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_body(tmp_path, value):
    path = tmp_path / "model.bin"
    save_params(init_params((2, 3, 2), seed=0), path)
    buf = path.read_bytes()
    path.write_bytes(buf[:-8] + struct.pack("<d", value))
    with pytest.raises(ValueError, match=r"model\.bin: parameters must be finite"):
        load_params(path)


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
