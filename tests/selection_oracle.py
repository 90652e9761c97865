"""Per-pair reference forms of the discrepancy, the teacher weights,
greedy selection and the selection objective.

These are the straightforward loops: one scalar discrepancy per
(teacher, student) pair, one student at a time, and one candidate at a
time in every greedy step. `sfedkd.distill` and `sfedkd.selection`
compute the same values row-wise, a whole matrix per call; the tests
require equal bytes from both.
"""

import numpy as np

from sfedkd.data import ClassDistribution
from sfedkd.distill import SMOOTH_EPS, discrepancy


def _smoothed(p):
    q = p + SMOOTH_EPS
    return q / q.sum()


def discrepancy_oracle(pa, pb, metric):
    """Distance between two 1-D proportion vectors; KL and JS clamped at 0."""
    if metric == "L1":
        return float(np.abs(pa - pb).sum())
    if metric == "L2":
        return float(np.sqrt(((pa - pb) ** 2).sum()))
    sa, sb = _smoothed(pa), _smoothed(pb)
    if metric == "KL":
        return max(float((sa * np.log(sa / sb)).sum()), 0.0)
    m = 0.5 * (sa + sb)
    return max(float(0.5 * (sa * np.log(sa / m)).sum() + 0.5 * (sb * np.log(sb / m)).sum()),
               0.0)


def teacher_weights_oracle(teacher_dists, student_dists, metric, epsilon):
    """(M, K) g and h, one student row at a time, one teacher at a time."""
    g_rows, h_rows = [], []
    for student in student_dists:
        d = np.array([discrepancy_oracle(t.proportions, student.proportions, metric)
                      for t in teacher_dists])
        total = d.sum()
        g_rows.append(np.full(len(d), 1.0 / len(d)) if total == 0 else d / total)
        inv = 1.0 / (d + epsilon)
        h_rows.append(inv / inv.sum())
    return np.array(g_rows), np.array(h_rows)


def greedy_select_oracle(candidate_dists, k, metric):
    """Greedy selection scoring one candidate at a time; ties go to the
    lower index because only a strictly smaller objective replaces the best."""
    c = len(candidate_dists[0])
    uniform = np.full(c, 1.0 / c)
    agg = np.zeros(c)
    chosen = []
    remaining = set(range(len(candidate_dists)))
    while len(chosen) < k:
        best_idx, best_obj = -1, np.inf
        for i in sorted(remaining):
            trial = agg + candidate_dists[i].proportions
            obj = discrepancy_oracle(trial / trial.sum(), uniform, metric)
            if obj < best_obj:
                best_obj, best_idx = obj, i
        chosen.append(best_idx)
        remaining.remove(best_idx)
        agg = agg + candidate_dists[best_idx].proportions
    return chosen


def aggregate_objective_oracle(dists, indices, metric):
    """Distance to uniform of the normalized sum of `indices`, taken between
    two ClassDistribution objects."""
    total = sum(dists[i].proportions for i in indices)
    agg = ClassDistribution(total / total.sum())
    return discrepancy(agg, ClassDistribution(np.full(len(agg), 1.0 / len(agg))), metric)
