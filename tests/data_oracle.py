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


def load_idx_oracle(images_path, labels_path):
    """(features, labels) of a valid IDX pair, converted in one piece."""
    img = open(images_path, "rb").read()
    lab = open(labels_path, "rb").read()
    n, rows, cols = (int.from_bytes(img[i:i + 4], "big") for i in (4, 8, 12))
    pixels = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    return features, np.frombuffer(lab, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def split_train_test_oracle(features, labels, c_total, test_fraction, seed):
    """((train features, labels), (test features, labels)): the stratified
    split as row copies of the whole set, rows in source order."""
    rng = np.random.default_rng(seed)
    test_idx = []
    for c in range(c_total):
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        n_test = int(round(test_fraction * len(class_idx)))
        test_idx.extend(class_idx[:n_test].tolist())
    mask = np.zeros(len(labels), dtype=bool)
    mask[test_idx] = True
    return ((features[~mask], labels[~mask]), (features[mask], labels[mask]))


def build_clients_oracle(cfg):
    """(clients, test) of a resolved config as the chain of whole-set copies
    computes them: the whole source, then the split into train and test,
    then one subset per client of the train copy. clients is a list of
    (features, labels); test is (features, labels) or None."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        c_total = ds.classes
        features, labels = generate_synthetic_oracle(ds.n_per_class, c_total, ds.features,
                                                     ds.spread, ds.seed)
    else:
        features, labels = load_idx_oracle(ds.images, ds.labels)
        c_total = int(labels.max()) + 1
    test = None
    if ds.test_images:
        test = load_idx_oracle(ds.test_images, ds.test_labels)
    elif ds.test_fraction > 0:
        (features, labels), test = split_train_test_oracle(features, labels, c_total,
                                                           ds.test_fraction, ds.split_seed)
    parts = partition_exdir_indices_oracle(labels, c_total, cfg.partition)
    return [(features[idx], labels[idx]) for idx in parts], test
