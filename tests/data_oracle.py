"""Per-class reference forms of the synthetic generator and the partition
assembly.

These are the straightforward loops: one Gaussian block per class, stacked
at the end, and per-client index lists that are extended class by class
and sorted at the end. `sfedkd.data` draws all blocks in one call and
assembles the partition through one owner array; the tests require equal
bytes from both.
"""

import numpy as np

from sfedkd.data import largest_remainder_counts


def generate_synthetic_oracle(n_per_class, c_total, n_features, spread, seed):
    """(features, labels) drawn class by class, in the generator's RNG order."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for c in range(c_total):
        angle = 2.0 * np.pi * c / c_total
        mean = np.zeros(n_features)
        mean[0] = 5.0 * np.cos(angle)
        mean[1] = 5.0 * np.sin(angle)
        blocks.append(mean + spread * rng.standard_normal((n_per_class, n_features)))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def partition_exdir_indices_oracle(labels, c_total, spec):
    """Client index arrays from per-client lists; the same RNG calls, in the
    same order, as `partition_exdir_indices` (inputs assumed valid)."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(1000):
        allocation = [rng.choice(c_total, size=spec.C, replace=False) for _ in range(spec.N)]
        holders = [[n for n in range(spec.N) if c in allocation[n]] for c in range(c_total)]
        if all(holders):
            break
    else:
        raise RuntimeError("could not cover every class after 1000 allocation attempts")
    client_indices = [[] for _ in range(spec.N)]
    for c in range(c_total):
        share = rng.dirichlet(np.full(len(holders[c]), spec.alpha))
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        counts = largest_remainder_counts(share, len(class_idx))
        start = 0
        for n, count in zip(holders[c], counts):
            client_indices[n].extend(class_idx[start:start + count].tolist())
            start += count
    return [np.sort(np.array(idx, dtype=np.int64)) for idx in client_indices]
