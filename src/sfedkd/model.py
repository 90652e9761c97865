"""Small MLP classifier with explicit forward pass and analytic gradients.

Hidden layers use ReLU, the output layer is linear, and everything is
float64. Parameters are a value type: every operation returns new arrays
and never mutates its inputs, so snapshots are cheap deep copies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

_CKPT_MAGIC = b"MLPW"


@dataclass
class ModelParams:
    """Ordered (weight, bias) pairs; weights[i] is (out_i, in_i)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: bad shapes {w.shape} / {b.shape}")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input dim {w.shape[1]} does not chain")
        if not all(np.isfinite(w).all() and np.isfinite(b).all()
                   for w, b in zip(self.weights, self.biases)):
            raise ValueError("parameters must be finite")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_params(dims, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    if any(d < 1 for d in dims):
        raise ValueError("all dims must be positive")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a (B, F) batch; output is (B, C)."""
    logits, _ = forward_cached(params, features)
    return logits


def forward_cached(params: ModelParams, features: np.ndarray):
    """Forward pass returning (logits, cache) for backprop.

    The cache holds each layer's input activation plus the hidden
    pre-activation sign masks.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ValueError(f"expected (B, {params.dims[0]}) features, got {x.shape}")
    inputs = []      # activation fed into each layer
    relu_masks = []  # z > 0 masks for hidden layers
    a = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        z = a @ w.T + b
        if i < last:
            mask = z > 0
            relu_masks.append(mask)
            a = np.where(mask, z, 0.0)
        else:
            a = z
    return a, (inputs, relu_masks)


def backprop(params: ModelParams, cache, dlogits: np.ndarray) -> ModelParams:
    """Parameter gradients from a (B, C) loss gradient w.r.t. the logits."""
    inputs, relu_masks = cache
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(params.n_layers - 1, -1, -1):
        grads_w[i] = delta.T @ inputs[i]
        grads_b[i] = delta.sum(axis=0)
        if i:
            delta = (delta @ params.weights[i]) * relu_masks[i - 1]
    return ModelParams(grads_w, grads_b)


def log_softmax(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise log softmax of logits/tau with max-subtraction."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_temp(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax: exp(z_c/tau) / sum_j exp(z_j/tau), stable."""
    return np.exp(log_softmax(logits, tau))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the labels under softmax(logits)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("batch must be non-empty")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    logp = log_softmax(logits, 1.0)
    return float(-logp[np.arange(len(labels)), labels].mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient w.r.t. the logits (batch-mean reduction)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("batch must be non-empty")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    logp = log_softmax(logits, 1.0)
    rows = np.arange(len(labels))
    loss = float(-logp[rows, labels].mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / len(labels)


def sgd_step(params: ModelParams, grads: ModelParams, eta: float,
             weight_decay: float = 0.0) -> ModelParams:
    """w <- w - eta * (grad + weight_decay * w); biases skip the decay."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be non-negative")
    if params.dims != grads.dims:
        raise ValueError("gradient shapes do not match parameters")
    new_w = [w - eta * (g + weight_decay * w) for w, g in zip(params.weights, grads.weights)]
    new_b = [b - eta * g for b, g in zip(params.biases, grads.biases)]
    return ModelParams(new_w, new_b)


def snapshot(params: ModelParams) -> ModelParams:
    """Deep, independent copy; safe to keep while the source keeps training."""
    return ModelParams([w.copy() for w in params.weights],
                       [b.copy() for b in params.biases])


def restore(saved: ModelParams) -> ModelParams:
    """Independent working copy of a snapshot (the snapshot stays frozen)."""
    return snapshot(saved)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of two parameter sets."""
    return a.dims == b.dims and all(
        np.array_equal(x, y)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


def save_params(params: ModelParams, path) -> None:
    """Checkpoint: magic, layer count, dims (int64 LE), then per layer the
    row-major float64 weight matrix followed by the bias vector."""
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<q", len(dims)))
        fh.write(np.asarray(dims, dtype="<i8").tobytes())
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    """Inverse of save_params; values round-trip bit-exactly."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    (n_dims,) = struct.unpack_from("<q", buf, 4)
    if not 2 <= n_dims <= (len(buf) - 12) // 8:
        raise ValueError(f"{path}: bad dims count {n_dims} for a {len(buf)}-byte file")
    dims = struct.unpack_from(f"<{n_dims}q", buf, 12)
    offset = 12 + 8 * n_dims
    size = offset + 8 * sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    if min(dims) < 1 or size != len(buf):
        raise ValueError(f"{path}: header dims do not match a {len(buf)}-byte file")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(buf, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(buf, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    return ModelParams(weights, biases)
