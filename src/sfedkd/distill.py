"""Discrepancy-aware multi-teacher knowledge distillation.

The softened teacher/student KL is split into two parts per sample:

* non-target loss: KL between the teacher and student softmax vectors
  renormalized over every class except the sample's label,
* target loss: KL between the binary (label vs rest) probabilities taken
  from the full temperature softmax.

Each teacher gets two scalar weights from the class-distribution distance
d_k between its client and the student client: g_k = d_k / sum_j d_j for
the non-target part (farther teachers know more missing classes) and
h_k proportional to 1 / (d_k + epsilon) for the target part (closer
teachers predict the label better). Both loss terms are scaled by tau**2
so the trade-off coefficients stay comparable across temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import KDConfig
from .data import ClassDistribution, _check_distributions, _proportions
from .model import (ModelParams, backprop, cross_entropy_grad,
                    forward, forward_cached, label_index)

# additive smoothing applied before KL/JS so exact zeros stay finite
SMOOTH_EPS = 1e-6
H_EPSILON = 1e-4  # added to each distance in the h weights: a teacher at distance 0 stays finite


@dataclass
class TeacherEnsemble:
    """Frozen teacher snapshots, their client class distributions, and weights.

    g/h stay None until the ensemble is specialized for its student clients:
    a (K,) vector for one client's class distribution, a row per client (M, K).
    """

    teachers: list[ModelParams]
    dists: list[ClassDistribution]
    client_ids: list[int]
    g: np.ndarray | None = None
    h: np.ndarray | None = None

    def __post_init__(self):
        if len(self.teachers) != len(self.dists) or len(self.teachers) != len(self.client_ids):
            raise ValueError("teachers, dists, and client_ids must align")
        for w, name in ((self.g, "g"), (self.h, "h")):
            if w is not None:
                if np.shape(w)[-1:] != (len(self.teachers),):
                    raise ValueError(f"{name} must have one weight per teacher")
                _check_distributions(np.asarray(w, dtype=np.float64), name)

    @property
    def k(self) -> int:
        return len(self.teachers)

    @classmethod
    def empty(cls) -> "TeacherEnsemble":
        return cls([], [], [])

    def with_weights(self, student_dist, cfg: KDConfig) -> "TeacherEnsemble":
        """Ensemble specialized for one student distribution or a list (a g/h row each)."""
        if self.k == 0:
            return self
        g, h = teacher_weights(self.dists, student_dist, cfg.metric, H_EPSILON)
        if cfg.uniform_g:
            g = np.full(g.shape, 1.0 / self.k)
        if cfg.uniform_h:
            h = np.full(h.shape, 1.0 / self.k)
        return replace(self, g=g, h=h)


def _smoothed(p: np.ndarray) -> np.ndarray:
    q = p + SMOOTH_EPS
    return q / q.sum(axis=-1, keepdims=True)


def discrepancy_rows(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distance (L1, L2, KL, or JS) between the distributions along the last
    axis of `a` and `b`, which broadcast against each other.

    KL and JS operate on smoothed, renormalized copies so zero entries
    stay finite; KL(a||b) keeps the given argument order. Both are clamped
    at 0, since for two distributions an ulp apart they can round below it.
    """
    if metric == "L1":
        return np.abs(a - b).sum(axis=-1)
    if metric == "L2":
        return np.sqrt(((a - b) ** 2).sum(axis=-1))
    sa, sb = _smoothed(a), _smoothed(b)
    if metric == "KL":
        return np.maximum((sa * np.log(sa / sb)).sum(axis=-1), 0.0)
    if metric == "JS":
        m = 0.5 * (sa + sb)
        return np.maximum(0.5 * (sa * np.log(sa / m)).sum(axis=-1)
                          + 0.5 * (sb * np.log(sb / m)).sum(axis=-1), 0.0)
    raise ValueError(f"unknown metric {metric!r}")


def discrepancy(a: ClassDistribution, b: ClassDistribution, metric: str) -> float:
    """Distance between two class distributions; see `discrepancy_rows`."""
    return float(discrepancy_rows(*_proportions([a, b]), metric))


def teacher_weights(teacher_dists: list[ClassDistribution], student_dist,
                    metric: str, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-teacher (g, h) weights from the distances to the student: (K,)
    vectors for one student distribution, (M, K) rows for a list of M.

    g_k = d_k / sum_j d_j (uniform when every distance is zero);
    h_k = (1/(d_k + epsilon)) / sum_j (1/(d_j + epsilon)).
    """
    if not teacher_dists:
        raise ValueError("need at least one teacher")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    single = isinstance(student_dist, ClassDistribution)
    k = len(teacher_dists)
    p = _proportions([*teacher_dists, *([student_dist] if single else student_dist)])
    d = discrepancy_rows(p[:k], p[k:, None], metric)
    total = d.sum(axis=-1, keepdims=True)
    g = np.divide(d, total, out=np.full(d.shape, 1.0 / k), where=total != 0)
    inv = 1.0 / (d + epsilon)
    h = inv / inv.sum(axis=-1, keepdims=True)
    return (g[0], h[0]) if single else (g, h)


def _log_parts(logits: np.ndarray, lin: np.ndarray, tau: float, with_ls: bool = True):
    """One pass over logits/tau, with `lin` the labels' `label_index`: ls,
    the log softmax over the non-target classes (0 at the label; None unless
    `with_ls`), r = exp(ls) (0 at the label), and log p_target, log p_rest of
    the full softmax. The full log-sum-exp is the logaddexp of the target
    logit and the rest one, so saturated rows stay finite."""
    z = np.divide(logits, tau, order="C")  # fresh and C-ordered, so `lin` indexes it
    z_t = z.reshape(-1)[lin]
    z.reshape(-1)[lin] = -np.inf
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    s = e.sum(axis=1, keepdims=True)
    lse_rest = zmax + np.log(s)
    ls = None
    if with_ls:
        ls = z - lse_rest
        ls.reshape(-1)[lin] = 0.0
    lse_all = np.logaddexp(z_t, lse_rest[:, 0])
    return ls, e / s, z_t - lse_all, lse_rest[:, 0] - lse_all


def mix_teachers(teacher_logits, labels, g, h, tau: float) -> np.ndarray:
    """The teacher side of both KD terms, one mixed target per sample: K
    teachers' (n, C) logits mixed with weights g (non-target) and h (target),
    each one (K,) vector or one row per sample (n, K).

    A weighted sum of KLs is linear in the teacher distributions:
    sum_k w_k KL(q_k||p) = sum_k w_k sum q_k log q_k - sum (sum_k w_k q_k) log p,
    so K teachers reduce to their w-mixture plus a per-sample constant. The
    result is one (n, C+5) array, row-aligned with the samples: the
    g-mixture of non-target distributions nt (0 at the label), its row sum,
    sum_k g_k sum_j q_kj log q_kj, the h-mixtures of the teachers' target and
    rest probabilities, and sum_k h_k (q_t log q_t + q_rest log q_rest).
    """
    n, c = np.shape(teacher_logits[0])
    mixed = np.zeros((n, c + 5))
    nt, (nt_sum, nt_const, t, rest, t_const) = mixed[:, :-5], mixed[:, -5:].T
    lin = label_index(labels, c)
    for g_k, h_k, logits in zip(np.atleast_2d(g).T, np.atleast_2d(h).T, teacher_logits):
        ls, q, lq_t, lq_rest = _log_parts(logits, lin, tau)
        q_t, q_rest = np.exp(lq_t), np.exp(lq_rest)
        nt += g_k[:, None] * q
        nt_const += g_k * (q * ls).sum(axis=1)
        t += h_k * q_t
        rest += h_k * q_rest
        t_const += h_k * (q_t * lq_t + q_rest * lq_rest)
    nt.sum(axis=1, out=nt_sum)
    return mixed


def kd_targets(ensemble: TeacherEnsemble, clients: list[tuple[np.ndarray, np.ndarray]],
               cfg: KDConfig) -> list[np.ndarray | None]:
    """The one builder of KD targets: each (features, labels) client's rows of one
    `mix_teachers` array, with its g/h row of the weighted ensemble (one row per
    client) or the one (K,) vector, one pass per teacher over all rows. None per
    client when distillation is off (no teachers, or gamma and beta both zero)."""
    if ensemble.k == 0 or (cfg.gamma == 0 and cfg.beta == 0) or not clients:
        return [None] * len(clients)
    if ensemble.g is None or ensemble.h is None:
        raise ValueError("ensemble weights not set; call with_weights() first")
    if rows := {len(w) for w in (ensemble.g, ensemble.h) if np.ndim(w) == 2} - {len(clients)}:
        raise ValueError(f"g/h weight row count {rows.pop()} != client count {len(clients)}")
    sizes = [len(labels) for _, labels in clients]
    g, h = (np.repeat(w, sizes, axis=0) if np.ndim(w) == 2 else w for w in (ensemble.g, ensemble.h))
    logits = [np.concatenate([forward(t, x) for x, _ in clients]) for t in ensemble.teachers]
    mixed = mix_teachers(logits, np.concatenate([y for _, y in clients]), g, h, cfg.tau)
    return [mixed[end - n:end] for n, end in zip(sizes, np.cumsum(sizes))]


def _kd_terms(logits, lin, targets: np.ndarray, tau: float, gamma: float, beta: float,
              with_loss: bool = True):
    """Per-sample gamma * NCKD + beta * TCKD (None unless `with_loss`) and its
    student-logit gradient, built in place on `r`, without the tau**2 factor
    or batch mean; `targets` are the samples' rows of `mix_teachers` and `lin`
    the labels' `label_index`. The NCKD gradient is sum(nt) * r - nt. The
    TCKD gradient is c * (r - onehot(label)) with
    c = t * p_rest - rest * p_t, probability products only, so it stays
    bounded when the student saturates."""
    nt, (nt_sum, nt_const, t, rest, t_const) = targets[:, :-5], targets[:, -5:].T
    ls, r, lp_t, lp_rest = _log_parts(logits, lin, tau, with_loss)
    c = t * np.exp(lp_rest) - rest * np.exp(lp_t)
    c *= beta
    r *= (gamma * nt_sum + c)[:, None]
    r -= gamma * nt
    r.reshape(-1)[lin] -= c
    r /= tau
    if not with_loss:
        return None, r
    nckd = nt_const - (nt * ls).sum(axis=1)
    tckd = t_const - t * lp_t - rest * lp_rest
    return gamma * nckd + beta * tckd, r


def _kd_loss(student_logits, teacher_logits, targets, weights, tau, gamma, beta) -> float:
    if tau <= 0:
        raise ValueError("tau must be positive")
    s = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    lin = label_index(targets, s.shape[1])
    if len(lin) != len(s):
        raise ValueError("targets must match the batch size")
    teachers = [np.atleast_2d(np.asarray(tl, dtype=np.float64)) for tl in teacher_logits]
    if any(tl.shape != s.shape for tl in teachers):
        raise ValueError("teacher logits must match student logits shape")
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(teachers):
        raise ValueError("need one weight per teacher")
    if not teachers:
        return 0.0
    mixed = mix_teachers(teachers, targets, w, w, tau)
    per_sample = _kd_terms(s, lin, mixed, tau, gamma, beta)[0]
    return float(tau * tau * (per_sample.sum() / len(per_sample)))


def nckd_loss(student_logits, teacher_logits, targets, g, tau: float) -> float:
    """Weighted non-target-class KD loss, batch-mean, scaled by tau**2.

    With two classes the single non-target probability is 1 for teacher
    and student alike, so the loss is identically zero.
    """
    return _kd_loss(student_logits, teacher_logits, targets, g, tau, 1.0, 0.0)


def tckd_loss(student_logits, teacher_logits, targets, h, tau: float) -> float:
    """Weighted target-class (binary) KD loss, batch-mean, scaled by tau**2."""
    return _kd_loss(student_logits, teacher_logits, targets, h, tau, 0.0, 1.0)


def total_loss(params: ModelParams, features: np.ndarray, labels: np.ndarray,
               ensemble: TeacherEnsemble, cfg: KDConfig,
               targets: np.ndarray | None = None,
               out: ModelParams | None = None) -> tuple[float | None, ModelParams]:
    """Cross-entropy plus gamma * non-target KD plus beta * target KD.

    Returns the scalar loss and analytic gradients for every parameter.
    `targets` are this batch's rows of `kd_targets`; without them
    `kd_targets` builds them here, with the weights the ensemble was given. With no teachers, or
    gamma and beta both zero, the result is exactly the cross-entropy path.
    With `out`, a gradient buffer shaped like `params`, the call is a training
    step: the gradients go there unchecked, no KD loss value is computed and
    the loss is None, and the labels are taken as checked against the class
    count (`local_train` checks a client's once per visit).
    """
    logits, cache = forward_cached(params, features)
    lin = label_index(labels, logits.shape[1], check=out is None)
    loss, dlogits = cross_entropy_grad(logits, lin)
    if targets is None:
        targets = kd_targets(ensemble, [(features, labels)], cfg)[0]
    if targets is not None:
        factor = cfg.tau * cfg.tau
        per_sample, dz = _kd_terms(logits, lin, targets, cfg.tau, cfg.gamma * factor,
                                   cfg.beta * factor, with_loss=out is None)
        dz /= len(lin)
        dlogits += dz
        if out is None:
            loss += float(per_sample.sum() / len(per_sample))
    return loss if out is None else None, backprop(params, cache, dlogits, out)
