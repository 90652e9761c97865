"""Datasets, non-IID client partitioning, and class distributions.

Datasets are plain (features, labels) pairs with a fixed class count.
Clients receive disjoint shards produced by the extended Dirichlet
partitioner: each client is first allocated a fixed number of distinct
classes, then each class's samples are split across its holders by a
Dirichlet draw.

The train/test split and the partition work on labels alone. A `Layout`
built from their indices says where each source row goes, and a source
(the synthetic generator or an IDX file) writes each row straight to that
place: train rows grouped by client in one buffer, test rows in another.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, PartitionSpec
from .model import _check_labels

_MAX_ALLOCATION_ATTEMPTS = 1000
_BLOCK_BYTES = 1 << 21  # feature bytes a source produces per block


@dataclass
class Dataset:
    """Labeled feature vectors with a fixed class count.

    features: (n, F) float64 array.
    labels: (n,) integer array, values in [0, c_total).
    client_bounds: for a set whose rows are grouped by client, the N+1
    offsets such that client n holds rows client_bounds[n]:client_bounds[n+1].
    """

    features: np.ndarray
    labels: np.ndarray
    c_total: int
    client_bounds: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"features/labels length mismatch: {len(self.features)} vs {len(self.labels)}"
            )
        if self.features.shape[1] < 1:
            raise ValueError("feature dimension must be positive")
        if self.c_total < 2:
            raise ValueError("c_total must be at least 2")
        _check_labels(self.labels, self.c_total)
        if self.client_bounds is not None:
            b = self.client_bounds = np.asarray(self.client_bounds, dtype=np.int64)
            if b[0] != 0 or b[-1] != len(self.labels) or (np.diff(b) < 0).any():
                raise ValueError(f"client bounds must rise from 0 to {len(self.labels)}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def clients(self) -> list["Dataset"]:
        """One dataset per client, each a view of this dataset's rows."""
        if self.client_bounds is None:
            raise ValueError("rows are not grouped by client")
        b = self.client_bounds
        return [Dataset(self.features[b[n]:b[n + 1]], self.labels[b[n]:b[n + 1]], self.c_total)
                for n in range(len(b) - 1)]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.c_total)


@dataclass
class ClassDistribution:
    """Per-class data proportions of one client's dataset."""

    proportions: np.ndarray

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        if self.proportions.ndim != 1:
            raise ValueError("proportions must be a 1-D vector")
        _check_distributions(self.proportions, "proportions")

    def __len__(self) -> int:
        return len(self.proportions)


def _check_distributions(rows: np.ndarray, name: str) -> None:
    """Each vector along the last axis must be non-negative, finite and sum to 1."""
    ok = (rows >= 0).all(axis=-1) & (abs(rows.sum(axis=-1) - 1.0) <= 1e-9)  # NaN fails both
    if not ok.all():
        raise ValueError(f"{name} must be non-negative, finite and sum to 1, got {rows[~ok][0]}")


def _proportions(dists: list[ClassDistribution]) -> np.ndarray:
    """The (n, C) stack of class distributions of one length."""
    if len({len(d) for d in dists}) > 1:
        raise ValueError(f"distributions must have equal length, got {[len(d) for d in dists]}")
    return np.stack([d.proportions for d in dists])


@dataclass(frozen=True)
class Layout:
    """Where each row of a source goes.

    train_rows: the source row of each train row, grouped by client.
    client_bounds: client n holds train rows client_bounds[n]:client_bounds[n+1];
    None when the train rows are not grouped by client.
    test_rows: the source row of each test row; empty when there are none.
    """

    train_rows: np.ndarray
    client_bounds: np.ndarray | None = None
    test_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def fill(self, blocks, labels: np.ndarray, c_total: int,
             n_features: int) -> tuple[Dataset, Dataset]:
        """(train, test) with each row of `blocks`, which yields the source's
        feature rows in order, written once to its place. Both buffers are
        allocated before the first block is read."""
        n_train, n_test = len(self.train_rows), len(self.test_rows)
        dest = np.empty(len(labels), dtype=np.int64)
        dest[self.train_rows] = np.arange(n_train)
        train = np.empty((n_train, n_features))
        test = np.empty((n_test, n_features))
        dest[self.test_rows] = np.arange(n_train, n_train + n_test)
        start = 0
        for block in blocks:
            to = dest[start:start + len(block)]
            start += len(block)
            if n_test:
                keep = to < n_train
                test[to[~keep] - n_train] = block[~keep]
                block, to = block[keep], to[keep]
            train[to] = block
        return (Dataset(train, labels[self.train_rows], c_total, self.client_bounds),
                Dataset(test, labels[self.test_rows], c_total))


def _block_rows(n_features: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_features))


def synthetic_labels(n_per_class: int, c_total: int) -> np.ndarray:
    """The labels of `generate_synthetic`, in source order."""
    labels = np.repeat(np.arange(c_total), n_per_class)
    if len(labels) != c_total * n_per_class:  # numpy's arange is empty from 2**63 - 1 on
        raise ValueError(f"{c_total} x {n_per_class} labels do not fit an array")
    return labels


def generate_synthetic(n_per_class: int, c_total: int, n_features: int,
                       spread: float, seed: int, layout: Layout) -> tuple[Dataset, Dataset]:
    """Gaussian-blob classification data with one blob per class.

    Class means sit evenly spaced on a circle of radius 5 in the first two
    coordinates (remaining coordinates zero-mean); every coordinate gets
    isotropic noise with standard deviation `spread`. Samples are drawn
    class by class, in row blocks, so the source order is class-ordered.
    Deterministic per seed. Each drawn row goes straight to its place in
    `layout`, and the (train, test) pair of `Layout.fill` is returned.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if c_total < 2:
        raise ValueError("c_total must be at least 2")
    if n_features < 2:
        raise ValueError("n_features must be at least 2")
    if spread <= 0:
        raise ValueError("spread must be positive")
    labels = synthetic_labels(n_per_class, c_total)

    def blocks():
        rng = np.random.default_rng(seed)
        angles = 2.0 * np.pi * np.arange(c_total) / c_total
        means = np.zeros((c_total, n_features))
        means[:, 0] = 5.0 * np.cos(angles)
        means[:, 1] = 5.0 * np.sin(angles)
        step = _block_rows(n_features)
        buf = np.empty((min(step, len(labels)), n_features))  # every block reuses it
        for start in range(0, len(labels), step):
            block = rng.standard_normal(out=buf[:len(labels) - start])
            block *= spread
            block += means[labels[start:start + step]]
            yield block

    return layout.fill(blocks(), labels, c_total, n_features)


def _idx_file(path, ndim: int, what: str) -> tuple[bytes, tuple[int, ...]]:
    """The bytes of an IDX file of unsigned bytes in `ndim` dimensions and its
    sizes. Header: big-endian u32 magic 0x0800 + ndim, then one u32 per size."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = int.from_bytes(buf[:4], "big")
    if len(buf) >= 4 and magic != 0x0800 + ndim:
        raise ConfigError(str(path), f"bad {what} magic 0x{magic:08x}")
    if len(buf) < 4 + 4 * ndim:
        raise ConfigError(str(path), "truncated header")
    return buf, struct.unpack_from(f">{ndim}I", buf, 4)


def read_idx(images_path, labels_path,
             n_classes: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """(pixels, labels, c_total) of an IDX pair of n x rows x cols images and
    n labels, checked, the image file first. `pixels` is the (n, rows*cols)
    uint8 view of the image bytes. Without `n_classes`, c_total is the largest
    label + 1, and every class below it must have a label.
    """
    img_buf, (n_images, rows, cols) = _idx_file(images_path, 3, "image")
    if n_images * rows * cols == 0:
        raise ConfigError(str(images_path), f"{rows}x{cols} images, {n_images} of them, "
                          "hold no pixels")
    if len(img_buf) < 16 + n_images * rows * cols:
        raise ConfigError(str(images_path), f"expected {n_images * rows * cols} pixel bytes")

    lab_buf, (n_labels,) = _idx_file(labels_path, 1, "label")
    if n_labels != n_images:
        raise ConfigError(str(labels_path), f"{n_images} images but {n_labels} labels")
    if len(lab_buf) < 8 + n_labels:
        raise ConfigError(str(labels_path), f"expected {n_labels} label bytes")

    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=n_images * rows * cols, offset=16)
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)
    c_total = n_classes if n_classes is not None else int(labels.max()) + 1
    try:
        _check_labels(labels, c_total)
    except ValueError as exc:
        raise ConfigError(str(labels_path), str(exc)) from None
    if c_total < 2 and n_classes is None:
        raise ConfigError(str(labels_path), "every label is 0, so the file holds one class; "
                          "at least 2 are needed")
    if n_classes is None:
        missing = np.flatnonzero(np.bincount(labels) == 0)
        if len(missing):
            raise ConfigError(str(labels_path), f"no sample has label {missing[0]}, though "
                              f"the labels run up to {c_total - 1}")
    return pixels.reshape(n_images, rows * cols), labels, c_total


def idx_blocks(pixels: np.ndarray):
    """The [0,1]-scaled float64 rows of `pixels`, in row blocks."""
    step = _block_rows(pixels.shape[1])
    for start in range(0, len(pixels), step):
        block = pixels[start:start + step].astype(np.float64)
        block /= 255.0
        yield block


def load_idx(images_path, labels_path, n_classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair (see `read_idx`) into a flat
    [0,1]-scaled Dataset in file order."""
    pixels, labels, c_total = read_idx(images_path, labels_path, n_classes)
    return Layout(np.arange(len(labels))).fill(idx_blocks(pixels), labels, c_total,
                                               pixels.shape[1])[0]


def largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integerize `proportions * total` so the counts sum exactly to total.

    Floors first, then hands the remaining units to the largest fractional
    parts; ties go to the lower index.
    """
    raw = np.asarray(proportions, dtype=np.float64) * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder < 0 or remainder > len(counts):
        raise ValueError("proportions do not sum to 1")
    if remainder:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def partition_exdir(labels: np.ndarray, c_total: int,
                    spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split sample indices across N clients with the extended Dirichlet draw.

    Returns (order, bounds): the sample indices grouped by client, ascending
    within each client, and the N+1 offsets such that client n holds
    order[bounds[n]:bounds[n+1]].

    The RNG stream (np.random.default_rng(spec.seed)) is consumed in a fixed
    order so partitions are reproducible from the recipe alone:

    1. For each client n = 0..N-1 in turn, draw its C distinct classes via
       rng.choice(c_total, size=C, replace=False). If some class has no
       holder, reject and redraw the whole allocation (up to 1000 attempts).
    2. For each class c = 0..c_total-1: draw proportions over its holders
       from rng.dirichlet([alpha] * n_holders) (holders in client order),
       shuffle the class's sample indices with rng.shuffle, and hand out
       contiguous slices sized by largest-remainder rounding.

    Clients may end up with zero samples at small alpha; callers skip them.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("cannot partition an empty dataset")
    _check_labels(labels, c_total)
    if len(np.unique(labels)) != c_total:
        raise ValueError("every class must appear in the dataset")
    if spec.C > c_total:
        raise ConfigError("partition.C", f"C={spec.C} exceeds the class count {c_total}")
    if spec.N * spec.C < c_total:
        raise ConfigError("partition.C",
                          f"N*C={spec.N * spec.C} cannot cover all {c_total} classes")
    if spec.seed is None:
        raise ValueError("partition seed is unset; resolve_config derives it from master_seed")

    try:  # allocated before the draws, so an N too large for it fails at once
        holds = np.empty((spec.N, c_total), dtype=bool)  # holds[n, c]: client n draws class c
    except (MemoryError, ValueError):
        raise ConfigError("partition.N", f"{spec.N} clients x {c_total} classes are too "
                          "many to allocate") from None
    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_ALLOCATION_ATTEMPTS):
        allocation = [rng.choice(c_total, size=spec.C, replace=False) for _ in range(spec.N)]
        holds.fill(False)
        holds[np.arange(spec.N)[:, None], allocation] = True
        if holds.any(axis=0).all():
            break
    else:
        raise ConfigError("partition.C", f"no draw covered all {c_total} classes in 1000 attempts")
    holders = [np.flatnonzero(holds[:, c]) for c in range(c_total)]

    owner = np.full(len(labels), -1)
    for c in range(c_total):
        share = rng.dirichlet(np.full(len(holders[c]), spec.alpha))
        if not abs(share.sum() - 1.0) <= 1e-9:  # numpy draws all zeros at alpha near 1e308
            raise ConfigError("partition.alpha", f"the Dirichlet draw over the {len(share)} "
                              f"holders of class {c} sums to {share.sum()}, not 1")
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        owner[class_idx] = np.repeat(holders[c], largest_remainder_counts(share, len(class_idx)))
    bounds = np.zeros(spec.N + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=spec.N), out=bounds[1:])
    return np.argsort(owner, kind="stable"), bounds


def partition_exdir_indices(labels: np.ndarray, c_total: int,
                            spec: PartitionSpec) -> list[np.ndarray]:
    """The index array of each client of `partition_exdir`."""
    order, bounds = partition_exdir(labels, c_total, spec)
    return np.split(order, bounds[1:-1])


def class_distribution(dataset: Dataset) -> ClassDistribution:
    """Per-class sample proportions of a non-empty dataset."""
    if len(dataset) == 0:
        raise ValueError("an empty dataset has no class distribution")
    counts = np.bincount(dataset.labels, minlength=dataset.c_total).astype(np.float64)
    return ClassDistribution(counts / counts.sum())


def split_train_test(labels: np.ndarray, c_total: int, test_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of sample indices: each class gives its proportional
    share to test. Returns (train, test) indices, each ascending."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, c_total)
    rng = np.random.default_rng(seed)
    is_test = np.zeros(len(labels), dtype=bool)
    for c in range(c_total):
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        is_test[class_idx[:int(round(test_fraction * len(class_idx)))]] = True
    return np.flatnonzero(~is_test), np.flatnonzero(is_test)
