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

from .data import ClassDistribution
from .model import (ModelParams, backprop, cross_entropy_grad,
                    forward, forward_cached)

METRICS = ("L1", "L2", "KL", "JS")

# additive smoothing applied before KL/JS so exact zeros stay finite
SMOOTH_EPS = 1e-6


@dataclass
class KDConfig:
    """Distillation knobs; gamma weights the non-target term, beta the target term."""

    tau: float = 4.0
    gamma: float = 1.0
    beta: float = 3.0
    metric: str = "KL"
    epsilon: float = 1e-4
    tau_sq: bool = True        # scale both KD losses by tau**2
    uniform_g: bool = False    # ablation: replace g with uniform weights
    uniform_h: bool = False    # ablation: replace h with uniform weights

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.gamma < 0 or self.beta < 0:
            raise ValueError("gamma and beta must be non-negative")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")


@dataclass
class TeacherEnsemble:
    """Frozen teacher snapshots, their client class distributions, and weights.

    g/h stay None until the ensemble is specialized for one student client;
    they depend on the student's class distribution.
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
            if w is None:
                continue
            w = np.asarray(w, dtype=np.float64)
            if len(w) != len(self.teachers):
                raise ValueError(f"{name} must have one weight per teacher")
            if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} must be non-negative and sum to 1")

    @property
    def k(self) -> int:
        return len(self.teachers)

    @classmethod
    def empty(cls) -> "TeacherEnsemble":
        return cls([], [], [])

    def with_weights(self, student_dist: ClassDistribution, cfg: KDConfig) -> "TeacherEnsemble":
        """Ensemble specialized for one student client: g/h filled in."""
        if self.k == 0:
            return self
        g, h = teacher_weights(self.dists, student_dist, cfg.metric, cfg.epsilon)
        if cfg.uniform_g:
            g = np.full(self.k, 1.0 / self.k)
        if cfg.uniform_h:
            h = np.full(self.k, 1.0 / self.k)
        return replace(self, g=g, h=h)


def _smoothed(p: np.ndarray) -> np.ndarray:
    q = p + SMOOTH_EPS
    return q / q.sum()


def discrepancy(a: ClassDistribution, b: ClassDistribution, metric: str) -> float:
    """Distance between two class distributions (L1, L2, KL, or JS).

    KL and JS operate on smoothed, renormalized copies so zero entries
    stay finite; KL(a||b) keeps the given argument order.
    """
    if a.empty or b.empty:
        raise ValueError("discrepancy of an empty distribution is undefined")
    if len(a) != len(b):
        raise ValueError("distributions must have equal length")
    pa, pb = a.proportions, b.proportions
    if metric == "L1":
        return float(np.abs(pa - pb).sum())
    if metric == "L2":
        return float(np.sqrt(((pa - pb) ** 2).sum()))
    if metric == "KL":
        sa, sb = _smoothed(pa), _smoothed(pb)
        return float((sa * np.log(sa / sb)).sum())
    if metric == "JS":
        sa, sb = _smoothed(pa), _smoothed(pb)
        m = 0.5 * (sa + sb)
        return float(0.5 * (sa * np.log(sa / m)).sum() + 0.5 * (sb * np.log(sb / m)).sum())
    raise ValueError(f"unknown metric {metric!r}")


def teacher_weights(teacher_dists: list[ClassDistribution], student_dist: ClassDistribution,
                    metric: str, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-teacher (g, h) weight vectors from the distances to the student.

    g_k = d_k / sum_j d_j (uniform when every distance is zero);
    h_k = (1/(d_k + epsilon)) / sum_j (1/(d_j + epsilon)).
    """
    if not teacher_dists:
        raise ValueError("need at least one teacher")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = np.array([discrepancy(t, student_dist, metric) for t in teacher_dists])
    total = d.sum()
    g = np.full(len(d), 1.0 / len(d)) if total == 0 else d / total
    inv = 1.0 / (d + epsilon)
    return g, inv / inv.sum()



def _log_parts(logits: np.ndarray, labels: np.ndarray, tau: float):
    """One pass over logits/tau: ls, the log softmax over the non-target
    classes (0 at the label), r = exp(ls) (0 at the label), and log p_target,
    log p_rest of the full softmax. The full log-sum-exp is the logaddexp of
    the target logit and the rest one, so saturated rows stay finite."""
    rows = np.arange(len(labels))
    z = logits / tau  # fresh array; safe to mutate
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


@dataclass(frozen=True)
class KDTargets:
    """The teacher side of both KD terms, one mixed target per sample.

    A weighted sum of KLs is linear in the teacher distributions:
    sum_k w_k KL(q_k||p) = sum_k w_k sum q_k log q_k - sum (sum_k w_k q_k) log p,
    so K teachers reduce to their w-mixture plus a per-sample constant.
    """

    nt: np.ndarray        # (n, C) g-mixture of non-target distributions, 0 at the label
    nt_const: np.ndarray  # (n,) sum_k g_k sum_j q_kj log q_kj
    t: np.ndarray         # (n,) h-mixture of the teachers' target probability
    rest: np.ndarray      # (n,) h-mixture of the teachers' rest probability
    t_const: np.ndarray   # (n,) sum_k h_k (q_t log q_t + q_rest log q_rest)

    @classmethod
    def from_logits(cls, teacher_logits, labels, g, h, tau: float) -> "KDTargets":
        """Mix K teachers' (n, C) logits with weights g (non-target) and h (target)."""
        nt = np.zeros(np.shape(teacher_logits[0]))
        nt_const, t, rest, t_const = np.zeros((4, len(nt)))
        for g_k, h_k, logits in zip(g, h, teacher_logits):
            ls, q, lq_t, lq_rest = _log_parts(logits, labels, tau)
            q_t, q_rest = np.exp(lq_t), np.exp(lq_rest)
            nt += g_k * q
            nt_const += g_k * (q * ls).sum(axis=1)
            t += h_k * q_t
            rest += h_k * q_rest
            t_const += h_k * (q_t * lq_t + q_rest * lq_rest)
        return cls(nt, nt_const, t, rest, t_const)

    def take(self, idx) -> "KDTargets":
        return KDTargets(*(a[idx] for a in vars(self).values()))


def kd_targets(ensemble: TeacherEnsemble | None, features: np.ndarray, labels: np.ndarray,
               cfg: KDConfig) -> KDTargets | None:
    """Mixed targets from one forward per teacher; None when distillation is
    off (no teachers, or gamma and beta both zero)."""
    if ensemble is None or ensemble.k == 0 or (cfg.gamma == 0 and cfg.beta == 0):
        return None
    if ensemble.g is None or ensemble.h is None:
        raise ValueError("ensemble weights not set; call with_weights() first")
    return KDTargets.from_logits([forward(t, features) for t in ensemble.teachers],
                                 labels, ensemble.g, ensemble.h, cfg.tau)


def _kd_terms(logits, labels, targets: KDTargets, tau: float, gamma: float, beta: float):
    """Per-sample gamma * NCKD + beta * TCKD and its student-logit gradient,
    without the tau**2 factor or batch mean. The NCKD gradient is
    sum(nt) * r - nt. The TCKD gradient is c * (r - onehot(label)) with
    c = t * p_rest - rest * p_t, probability products only, so it stays
    bounded when the student saturates."""
    ls, r, lp_t, lp_rest = _log_parts(logits, labels, tau)
    p_t, p_rest = np.exp(lp_t), np.exp(lp_rest)
    nckd = targets.nt_const - (targets.nt * ls).sum(axis=1)
    tckd = targets.t_const - targets.t * lp_t - targets.rest * lp_rest
    c = targets.t * p_rest - targets.rest * p_t
    dz = (gamma * targets.nt.sum(axis=1) + beta * c)[:, None] * r - gamma * targets.nt
    dz[np.arange(len(labels)), labels] -= beta * c
    return gamma * nckd + beta * tckd, dz / tau


def _kd_loss(student_logits, teacher_logits, targets, weights, tau, gamma, beta) -> float:
    if tau <= 0:
        raise ValueError("tau must be positive")
    s = np.atleast_2d(np.asarray(student_logits, dtype=np.float64))
    t = np.asarray(targets, dtype=np.int64)
    if len(t) == 0:
        raise ValueError("batch must be non-empty")
    if len(t) != len(s):
        raise ValueError("targets must match the batch size")
    if t.min() < 0 or t.max() >= s.shape[1]:
        raise ValueError("target out of range")
    teachers = [np.atleast_2d(np.asarray(tl, dtype=np.float64)) for tl in teacher_logits]
    if any(tl.shape != s.shape for tl in teachers):
        raise ValueError("teacher logits must match student logits shape")
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(teachers):
        raise ValueError("need one weight per teacher")
    if not teachers:
        return 0.0
    mixed = KDTargets.from_logits(teachers, t, w, w, tau)
    return float(tau * tau * _kd_terms(s, t, mixed, tau, gamma, beta)[0].mean())


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
               ensemble: TeacherEnsemble | None, cfg: KDConfig,
               targets: KDTargets | None = None) -> tuple[float, ModelParams]:
    """Cross-entropy plus gamma * non-target KD plus beta * target KD.

    Returns the scalar loss and analytic gradients for every parameter.
    `targets` are this batch's rows of `kd_targets`; without them they are
    built here from the ensemble's frozen teachers. With no teachers, or
    gamma and beta both zero, the result is exactly the cross-entropy path.
    """
    logits, cache = forward_cached(params, features)
    loss, dlogits = cross_entropy_grad(logits, labels)
    if targets is None:
        targets = kd_targets(ensemble, features, labels, cfg)
    if targets is not None:
        factor = cfg.tau * cfg.tau if cfg.tau_sq else 1.0
        per_sample, dz = _kd_terms(logits, np.asarray(labels, dtype=np.int64), targets,
                                   cfg.tau, cfg.gamma * factor, cfg.beta * factor)
        loss += float(per_sample.mean())
        dlogits = dlogits + dz / len(per_sample)
    return loss, backprop(params, cache, dlogits)
