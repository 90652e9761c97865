"""Reference forms of the student-step and evaluation kernels.

`sfedkd.model` (forward_cached, backprop, log_softmax, cross_entropy_grad)
and `sfedkd.metrics` (evaluate, forgetting_measure) compute the same
arithmetic with fewer numpy calls, in place on their own temporaries and
without per-class loops. These are the straightforward bodies they
replaced; the tests compare the two byte for byte.
"""

import numpy as np

from sfedkd.model import ModelParams


def forward_cached_oracle(params: ModelParams, features: np.ndarray):
    """(logits, (inputs, relu_masks)), ReLU as np.where(z > 0, z, 0.0)."""
    a = np.asarray(features, dtype=np.float64)
    inputs, relu_masks = [], []
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


def backprop_oracle(params: ModelParams, cache, dlogits: np.ndarray) -> ModelParams:
    inputs, relu_masks = cache
    grads_w, grads_b = [None] * params.n_layers, [None] * params.n_layers
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(params.n_layers - 1, -1, -1):
        grads_w[i] = delta.T @ inputs[i]
        grads_b[i] = np.sum(delta, axis=0)
        if i:
            delta = (delta @ params.weights[i]) * relu_masks[i - 1]
    return ModelParams(grads_w, grads_b)


def log_softmax_oracle(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy_grad_oracle(logits: np.ndarray, labels: np.ndarray):
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    logp = log_softmax_oracle(logits, 1.0)
    rows = np.arange(len(labels))
    loss = float(-logp[rows, labels].mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / len(labels)


def evaluate_oracle(params: ModelParams, dataset) -> tuple[float, np.ndarray]:
    """Top-1 and per-class accuracy, one boolean mask per class."""
    preds = forward_cached_oracle(params, dataset.features)[0].argmax(axis=1)
    correct = preds == dataset.labels
    classwise = np.full(dataset.c_total, np.nan)
    for c in range(dataset.c_total):
        mask = dataset.labels == c
        if mask.any():
            classwise[c] = correct[mask].mean()
    return float(correct.mean()), classwise


def forgetting_measure_oracle(trace) -> float:
    """Mean peak-minus-final drop, one np.nanmax per kept class."""
    hist = np.stack([cw for _, cw, _ in trace.checkpoints])
    final = hist[-1]
    drops = []
    for c in range(hist.shape[1]):
        past = hist[:-1, c]
        if np.isnan(final[c]) or np.isnan(past).all():
            continue
        drops.append(np.nanmax(past) - final[c])
    if not drops:
        raise ValueError("no class has finite accuracy entries")
    return float(np.mean(drops))
