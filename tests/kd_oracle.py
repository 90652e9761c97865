"""Per-teacher reference implementation of the two decoupled KD losses.

This is the straightforward form: every teacher's softmax pipeline runs
on every call and its KL terms are accumulated one teacher at a time.
`sfedkd.distill` instead folds the K teachers into one g/h-mixed target
per sample; the tests compare the two.
"""

import numpy as np

from sfedkd.model import backprop, cross_entropy_grad, forward, forward_cached, label_index


def _masked_log_softmax(logits: np.ndarray, targets: np.ndarray, tau: float) -> np.ndarray:
    """Log softmax over the non-target classes; -inf at each row's target."""
    z = logits / tau  # fresh array; safe to mutate
    z[np.arange(len(targets)), targets] = -np.inf
    zmax = z.max(axis=1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))


def _nckd_terms(student_logits, teacher_logits, targets, g, tau):
    """Per-sample non-target KD loss and its gradient w.r.t. the student
    logits, both without the tau**2 factor or batch reduction."""
    rows = np.arange(len(targets))
    mask = np.ones_like(student_logits, dtype=bool)
    mask[rows, targets] = False
    ls_s = _masked_log_softmax(student_logits, targets, tau)
    p_s = np.exp(ls_s)  # zero at targets
    ls_s = np.where(mask, ls_s, 0.0)  # drop the -inf target entries
    per_sample = np.zeros(len(targets))
    dlogits = np.zeros_like(student_logits)
    for q_weight, t_logits in zip(g, teacher_logits):
        ls_t = _masked_log_softmax(t_logits, targets, tau)
        q = np.exp(ls_t)  # zero at targets, so those terms vanish
        ls_t = np.where(mask, ls_t, 0.0)
        per_sample += q_weight * (q * (ls_t - ls_s)).sum(axis=1)
        dlogits += q_weight * (p_s - q)
    return per_sample, dlogits / tau


def _binary_log_probs(logits: np.ndarray, targets: np.ndarray, tau: float):
    """Stable (log p_target, log p_rest) from the full temperature softmax."""
    z = logits / tau
    zmax = z.max(axis=1, keepdims=True)
    lse_all = (zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)))[:, 0]
    zm = z.copy()
    rows = np.arange(len(targets))
    zm[rows, targets] = -np.inf
    zmmax = zm.max(axis=1, keepdims=True)
    lse_rest = (zmmax + np.log(np.exp(zm - zmmax).sum(axis=1, keepdims=True)))[:, 0]
    return z[rows, targets] - lse_all, lse_rest - lse_all


def _tckd_terms(student_logits, teacher_logits, targets, h, tau):
    """Per-sample target KD loss and its student-logit gradient, unscaled.

    The gradient is assembled from probability products only (never the
    ratio p_t / p_rest), so it stays bounded even when the student is
    saturated: for j != t it is q_t * p_j - q_rest * p_t * r_j with r the
    non-target renormalized softmax, and at j = t it is
    q_rest * p_t - q_t * p_rest.
    """
    rows = np.arange(len(targets))
    z = student_logits / tau
    zmax = z.max(axis=1, keepdims=True)
    p_full = np.exp(z - zmax)
    p_full /= p_full.sum(axis=1, keepdims=True)
    lp_t, lp_nt = _binary_log_probs(student_logits, targets, tau)
    p_t, p_nt = np.exp(lp_t), np.exp(lp_nt)
    r = np.exp(_masked_log_softmax(student_logits, targets, tau))  # zero at t
    per_sample = np.zeros(len(targets))
    dlogits = np.zeros_like(student_logits)
    for q_weight, t_logits in zip(h, teacher_logits):
        lq_t, lq_nt = _binary_log_probs(t_logits, targets, tau)
        q_t, q_nt = np.exp(lq_t), np.exp(lq_nt)
        per_sample += q_weight * (q_t * (lq_t - lp_t) + q_nt * (lq_nt - lp_nt))
        dz = q_t[:, None] * p_full - (q_nt * p_t)[:, None] * r
        dz[rows, targets] = q_nt * p_t - q_t * p_nt
        dlogits += q_weight * dz
    return per_sample, dlogits / tau


def total_loss_oracle(params, features, labels, ensemble, cfg):
    """Cross-entropy plus gamma * NCKD plus beta * TCKD, per teacher."""
    logits, cache = forward_cached(params, features)
    loss, dlogits = cross_entropy_grad(logits, label_index(labels, logits.shape[1]))
    if ensemble is not None and ensemble.k > 0 and (cfg.gamma > 0 or cfg.beta > 0):
        targets = np.asarray(labels, dtype=np.int64)
        t_logits = [forward(t, features) for t in ensemble.teachers]
        batch = len(targets)
        factor = cfg.tau * cfg.tau
        if cfg.gamma > 0:
            per_sample, dz = _nckd_terms(logits, t_logits, targets, ensemble.g, cfg.tau)
            loss += cfg.gamma * factor * float(per_sample.mean())
            dlogits = dlogits + cfg.gamma * factor * dz / batch
        if cfg.beta > 0:
            per_sample, dz = _tckd_terms(logits, t_logits, targets, ensemble.h, cfg.tau)
            loss += cfg.beta * factor * float(per_sample.mean())
            dlogits = dlogits + cfg.beta * factor * dz / batch
    return loss, backprop(params, cache, dlogits)
