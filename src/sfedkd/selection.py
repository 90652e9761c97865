"""Complementary teacher selection.

Picks K candidates whose summed class distribution, renormalized, is
closest to uniform, so the chosen teachers jointly cover the class space.
The exact problem is a maximum-coverage variant (NP-hard), so the main
solver is greedy; a brute-force oracle and a random baseline exist for
comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import ClassDistribution, _check_distributions, _proportions
from .distill import discrepancy_rows

BRUTE_FORCE_MAX_CANDIDATES = 20


@dataclass
class SelectionInstance:
    candidate_dists: list[ClassDistribution]
    K: int
    metric: str

    def __post_init__(self):
        _check_k(self.K, len(self.candidate_dists))
        _proportions(self.candidate_dists)  # one length


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise ValueError(f"K={k} must lie in [1, {m}]")


def _objective_rows(totals: np.ndarray, metric: str) -> np.ndarray:
    """Distance to uniform of each row of summed proportions, once normalized."""
    rows = totals / totals.sum(axis=-1, keepdims=True)
    _check_distributions(rows, "aggregates")
    return discrepancy_rows(rows, np.full(rows.shape[-1], 1.0 / rows.shape[-1]), metric)


def aggregate_objective(dists: list[ClassDistribution], indices, metric: str) -> float:
    """Distance of the normalized summed distribution of `indices` to uniform."""
    return float(_objective_rows(sum(dists[i].proportions for i in indices), metric))


def greedy_select(inst: SelectionInstance) -> list[int]:
    """Greedily grow the teacher set, each step adding the candidate whose
    inclusion leaves the normalized aggregate closest to uniform; every
    remaining candidate is scored in one call per step.

    Ties break toward the lower candidate index. Returns K distinct indices
    in selection order.
    """
    props = _proportions(inst.candidate_dists)
    agg = np.zeros(props.shape[1])
    chosen: list[int] = []
    remaining = np.arange(len(props))
    while len(chosen) < inst.K:
        best = int(remaining[np.argmin(_objective_rows(agg + props[remaining], inst.metric))])
        chosen.append(best)
        remaining = remaining[remaining != best]
        agg = agg + props[best]
    return chosen


def brute_force_select(inst: SelectionInstance) -> list[int]:
    """Exhaustive optimum over all K-subsets; exponential, capped at 20
    candidates. Ties resolve to the lexicographically smallest index set.
    Returns the winning indices in ascending order."""
    m = len(inst.candidate_dists)
    if m > BRUTE_FORCE_MAX_CANDIDATES:
        raise ValueError(
            f"brute force refuses {m} candidates (max {BRUTE_FORCE_MAX_CANDIDATES})"
        )
    best_set = None
    best_obj = np.inf
    # combinations() yields lexicographic order, so strict improvement
    # keeps the lexicographically smallest optimum
    for combo in itertools.combinations(range(m), inst.K):
        obj = aggregate_objective(inst.candidate_dists, combo, inst.metric)
        if obj < best_obj:
            best_obj, best_set = obj, combo
    return list(best_set)


def random_select(m: int, k: int, seed: int) -> list[int]:
    """Uniform K-subset without replacement; sorted, deterministic per seed."""
    _check_k(k, m)
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(m, size=k, replace=False))
