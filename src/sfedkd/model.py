"""Small MLP classifier with explicit forward pass and analytic gradients.

Hidden layers use ReLU, the output layer is linear, and everything is
float64. A parameter set is `ModelParams(flat, dims)`: one float64 buffer laid
out as the checkpoint body, with per-layer views. No function mutates an input
except through an explicit `out=`: `sgd_step` always writes into one, and
`backprop` returns a new gradient set unless given one. Otherwise the kernels
work in place only on temporaries they allocate themselves.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

_CKPT_MAGIC = b"MLPW"
WEIGHT_DECAY = 1e-4  # L2 decay of every SGD step; sgd_step exempts the biases


@functools.cache
def _layout(dims: tuple[int, ...]) -> tuple:
    """Per layer: the weight slice, the bias slice and the weight shape in `flat`."""
    layers, start = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = start + fan_in * fan_out
        layers.append((slice(start, end), slice(end, end + fan_out), (fan_out, fan_in)))
        start = end + fan_out
    return tuple(layers)


def _views(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return ([flat[w].reshape(shape) for w, _, shape in _layout(dims)],
            [flat[b] for _, b, _ in _layout(dims)])


def _check_finite(flat: np.ndarray) -> None:
    if not np.isfinite(flat).all():
        raise ValueError("parameters must be finite")


def _size(dims) -> int:  # the number of float64 values that `dims` lays out
    return sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))


@dataclass(eq=False)
class ModelParams:
    """`flat` holds per layer the row-major weight matrix, then the bias vector, as `dims`
    lays out; weights[i] (out_i, in_i) and biases[i] are writable views of it, not copies."""

    flat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.flat.dtype != np.float64 or self.flat.shape != (_size(self.dims),):
            raise ValueError(f"dims {self.dims} lay out {_size(self.dims)} float64 values, "
                             f"got {self.flat.size} {self.flat.dtype} in shape {self.flat.shape}")
        self.weights, self.biases = _views(self.flat, self.dims)
        _check_finite(self.flat)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_params(dims, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, drawn layer by layer; zero biases."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    if any(d < 1 for d in dims):
        raise ValueError("all dims must be positive")
    rng = np.random.default_rng(seed)
    params = ModelParams(np.zeros(_size(dims)), dims)
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for a (B, F) batch; output is (B, C)."""
    logits, _ = forward_cached(params, features)
    return logits


def forward_cached(params: ModelParams, features: np.ndarray):
    """Forward pass returning (logits, inputs) for backprop, where inputs[i]
    is the activation fed into layer i."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ValueError(f"expected (B, {params.dims[0]}) features, got {x.shape}")
    inputs = []
    a = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        a = a @ w.T
        a += b
        if i < last:
            # fmax maps NaN to 0.0 as where(a > 0, a, 0.0) does; maximum keeps NaN
            np.fmax(a, 0.0, out=a)
    return a, inputs


def backprop(params: ModelParams, inputs: list[np.ndarray], dlogits: np.ndarray,
             out: ModelParams | None = None) -> ModelParams:
    """Parameter gradients from a (B, C) loss gradient w.r.t. the logits, given
    the `inputs` of `forward_cached`.

    With `out` (shaped like `params`) they are written there, unchecked, and
    `out` is returned; otherwise a new, finite-checked set is."""
    flat = np.empty_like(params.flat) if out is None else out.flat
    grads_w, grads_b = _views(flat, params.dims) if out is None else (out.weights, out.biases)
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(params.n_layers - 1, -1, -1):
        np.matmul(delta.T, inputs[i], out=grads_w[i])
        delta.sum(axis=0, out=grads_b[i])
        if i:
            delta = delta @ params.weights[i]
            delta *= inputs[i] > 0  # fmax(z, 0) > 0 iff z > 0, for -0.0 and NaN too
    return out if out is not None else ModelParams(flat, params.dims)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    """Reject a label outside [0, n_classes), naming the first one."""
    if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise ValueError(f"label {bad} outside [0, {n_classes})")


def label_index(labels: np.ndarray, n_classes: int, check: bool = True) -> np.ndarray:
    """Flat positions arange(n) * n_classes + labels of each row's label in a
    C-contiguous (n, n_classes) array. `check` rejects an empty batch and
    labels outside [0, n_classes), which would index another row's entry."""
    labels = np.asarray(labels, dtype=np.int64)
    if check:
        if len(labels) == 0:
            raise ValueError("batch must be non-empty")
        _check_labels(labels, n_classes)
    return np.arange(len(labels)) * n_classes + labels


def cross_entropy_grad(logits: np.ndarray, lin: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient w.r.t. the logits (batch-mean reduction),
    given `lin`, the labels' `label_index`, which is taken as checked."""
    logits = np.atleast_2d(np.ascontiguousarray(logits, dtype=np.float64))  # `lin` is C-order
    logp = log_softmax(logits)
    flat = logp.reshape(-1)
    loss = float(-flat[lin].sum() / len(lin))
    dlogits = np.exp(logp, out=logp)
    flat[lin] -= 1.0
    dlogits /= len(lin)
    return loss, dlogits


def sgd_step(params: ModelParams, grads: ModelParams, eta: float,
             out: ModelParams) -> ModelParams:
    """w <- w - eta * (grad + WEIGHT_DECAY * w); biases skip the decay.

    The result is written to `out` (shaped like `params`, which it may be),
    checked to be finite, and `out` is returned."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if params.dims != grads.dims:
        raise ValueError("gradient shapes do not match parameters")
    t = _decay_mask(params.dims) * params.flat
    t += grads.flat
    t *= eta
    _check_finite(np.subtract(params.flat, t, out=out.flat))
    return out


@functools.cache
def _decay_mask(dims: tuple[int, ...]) -> np.ndarray:
    """WEIGHT_DECAY on weight entries and 0 on biases, so that sgd_step's
    biases stay bit-equal to b - eta * grad."""
    sizes = [s.stop - s.start for layer in _layout(dims) for s in layer[:2]]
    return np.repeat([WEIGHT_DECAY, 0.0] * len(_layout(dims)), sizes)


def snapshot(params: ModelParams) -> ModelParams:
    """Deep, independent copy; safe to keep while the source keeps training."""
    return ModelParams(params.flat.copy(), params.dims)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of two parameter sets."""
    return a.dims == b.dims and np.array_equal(a.flat, b.flat)


def save_params(params: ModelParams, path) -> None:
    """Checkpoint: magic, layer count, dims (int64 LE), then per layer the
    row-major float64 weight matrix followed by the bias vector."""
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack(f"<{len(dims) + 1}q", len(dims), *dims))
        fh.write(params.flat.astype("<f8").tobytes())


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
    if min(dims) < 1 or offset + 8 * _size(dims) != len(buf):
        raise ValueError(f"{path}: header dims do not match a {len(buf)}-byte file")
    try:
        return ModelParams(np.frombuffer(buf, dtype="<f8", offset=offset).astype(np.float64), dims)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
