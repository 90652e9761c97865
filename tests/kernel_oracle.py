"""Reference forms of the student-step, local-training and evaluation kernels.

`sfedkd.model` (forward_cached, backprop, log_softmax, cross_entropy_grad),
`sfedkd.distill` (the KD parts of total_loss), `sfedkd.engine.local_train`
and `sfedkd.metrics` (evaluate, forgetting_measure) compute the same
arithmetic with fewer numpy calls: in place on their own temporaries or on
one workspace per client visit, with flat label indices and without
per-class loops. These are the straightforward bodies they replaced; the
tests compare the two byte for byte.
"""

import numpy as np

from param_oracle import sgd_step_oracle
from sfedkd.data import class_distribution
from sfedkd.distill import kd_targets
from sfedkd.model import WEIGHT_DECAY, ModelParams, backprop, forward_cached


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


def log_parts_oracle(logits, labels, tau):
    """`distill._log_parts` with [rows, labels] indexing."""
    rows = np.arange(len(labels))
    z = logits / tau
    z_t = z[rows, labels]
    z[rows, labels] = -np.inf
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    s = e.sum(axis=1, keepdims=True)
    lse_rest = zmax + np.log(s)
    ls = z - lse_rest
    ls[rows, labels] = 0.0
    lse_all = np.logaddexp(z_t, lse_rest[:, 0])
    return ls, e / s, z_t - lse_all, lse_rest[:, 0] - lse_all


def kd_targets_from_logits_oracle(teacher_logits, labels, g, h, tau):
    """(nt, nt_const, t, rest, t_const) of `distill.mix_teachers`."""
    nt = np.zeros(np.shape(teacher_logits[0]))
    nt_const, t, rest, t_const = np.zeros((4, len(nt)))
    for g_k, h_k, logits in zip(np.atleast_2d(g).T, np.atleast_2d(h).T, teacher_logits):
        ls, q, lq_t, lq_rest = log_parts_oracle(logits, labels, tau)
        q_t, q_rest = np.exp(lq_t), np.exp(lq_rest)
        nt += g_k[:, None] * q
        nt_const += g_k * (q * ls).sum(axis=1)
        t += h_k * q_t
        rest += h_k * q_rest
        t_const += h_k * (q_t * lq_t + q_rest * lq_rest)
    return nt, nt_const, t, rest, t_const


def kd_terms_oracle(logits, labels, targets, tau, gamma, beta):
    """`distill._kd_terms`, summing the `nt` columns per call."""
    nt, (nt_const, t, rest, t_const) = targets[:, :-5], targets[:, -4:].T
    ls, r, lp_t, lp_rest = log_parts_oracle(logits, labels, tau)
    p_t, p_rest = np.exp(lp_t), np.exp(lp_rest)
    nckd = nt_const - (nt * ls).sum(axis=1)
    tckd = t_const - t * lp_t - rest * lp_rest
    c = t * p_rest - rest * p_t
    dz = (gamma * nt.sum(axis=1) + beta * c)[:, None] * r - gamma * nt
    dz[np.arange(len(labels)), labels] -= beta * c
    return gamma * nckd + beta * tckd, dz / tau


def step_loss_oracle(params, features, labels, ensemble, cfg, targets=None):
    """`distill.total_loss` returning a new, finite-checked gradient set."""
    logits, cache = forward_cached(params, features)
    loss, dlogits = cross_entropy_grad_oracle(logits, labels)
    if targets is None:
        targets = kd_targets(ensemble, [(features, labels)], cfg)[0]
    if targets is not None:
        factor = cfg.tau * cfg.tau
        per_sample, dz = kd_terms_oracle(logits, np.asarray(labels, dtype=np.int64), targets,
                                         cfg.tau, cfg.gamma * factor, cfg.beta * factor)
        loss += float(per_sample.mean())
        dlogits = dlogits + dz / len(per_sample)
    return loss, backprop(params, cache, dlogits)


def local_train_oracle(model, client, ensemble, cfg, rng, targets=None):
    """`engine.local_train` gathering every batch and building two parameter
    sets (gradients, then the update) per step."""
    if targets is None and ensemble.k:
        ensemble = ensemble.with_weights(class_distribution(client), cfg.kd)
        (targets,) = kd_targets(ensemble, [(client.features, client.labels)], cfg.kd)
    params = model
    n = len(client)
    for _ in range(cfg.E):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = step_loss_oracle(params, client.features[idx], client.labels[idx],
                                        ensemble, cfg.kd,
                                        None if targets is None else targets[idx])
            params = sgd_step_oracle(params, grads, cfg.eta, WEIGHT_DECAY)
    return params


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


def forgetting_measure_oracle(history) -> float:
    """Mean peak-minus-final drop, one np.nanmax per kept class."""
    hist = np.stack(history)
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
