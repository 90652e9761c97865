"""Datasets, non-IID client partitioning, and class distributions.

Datasets are plain (features, labels) pairs with a fixed class count.
Clients receive disjoint shards produced by the extended Dirichlet
partitioner: each client is first allocated a fixed number of distinct
classes, then each class's samples are split across its holders by a
Dirichlet draw.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .config import PartitionSpec

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_MAX_ALLOCATION_ATTEMPTS = 1000


class IdxFormatError(ValueError):
    """Magic number or structural mismatch in an IDX file."""


class IdxCountMismatchError(ValueError):
    """Image and label files disagree on the sample count."""


class IdxTruncatedError(IOError):
    """IDX file ended before the declared payload."""


@dataclass
class Dataset:
    """Labeled feature vectors with a fixed class count.

    features: (n, F) float64 array.
    labels: (n,) integer array, values in [0, c_total).
    """

    features: np.ndarray
    labels: np.ndarray
    c_total: int
    name: str = "dataset"

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
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.c_total):
            raise ValueError("labels must lie in [0, c_total)")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices], self.labels[indices], self.c_total,
            name if name is not None else self.name,
        )

    def to_csv(self, path) -> None:
        """Write `f0,...,f{F-1},label` rows."""
        header = ",".join(f"f{j}" for j in range(self.n_features)) + ",label"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row, lab in zip(self.features, self.labels):
                fh.write(",".join("%.17g" % v for v in row) + f",{int(lab)}\n")


@dataclass
class ClassDistribution:
    """Per-class data proportions of one client's dataset.

    `empty` marks the all-zero vector of a client that holds no samples.
    """

    proportions: np.ndarray
    empty: bool = False

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        if self.proportions.ndim != 1:
            raise ValueError("proportions must be a 1-D vector")
        if (self.proportions < 0).any():
            raise ValueError("proportions must be non-negative")
        if self.empty:
            if self.proportions.any():
                raise ValueError("empty distribution must be all-zero")
        elif abs(self.proportions.sum() - 1.0) > 1e-9:
            raise ValueError("proportions must sum to 1")

    def __len__(self) -> int:
        return len(self.proportions)


def generate_synthetic(n_per_class: int, c_total: int, n_features: int,
                       spread: float, seed: int, name: str = "synthetic") -> Dataset:
    """Gaussian-blob classification data with one blob per class.

    Class means sit evenly spaced on a circle of radius 5 in the first two
    coordinates (remaining coordinates zero-mean); every coordinate gets
    isotropic noise with standard deviation `spread`. Samples are generated
    class by class, so the output is class-ordered. Deterministic per seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if c_total < 2:
        raise ValueError("c_total must be at least 2")
    if n_features < 2:
        raise ValueError("n_features must be at least 2")
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    features = spread * rng.standard_normal((c_total, n_per_class, n_features))
    angles = 2.0 * np.pi * np.arange(c_total) / c_total
    means = np.zeros((c_total, n_features))
    means[:, 0] = 5.0 * np.cos(angles)
    means[:, 1] = 5.0 * np.sin(angles)
    features += means[:, None, :]
    labels = np.repeat(np.arange(c_total), n_per_class)
    return Dataset(features.reshape(-1, n_features), labels, c_total, name)


def _read_be_u32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise IdxTruncatedError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path, n_classes: int | None = None,
             name: str = "idx") -> Dataset:
    """Load an IDX image/label file pair into a flat [0,1]-scaled Dataset.

    Big-endian format: image file is magic 0x00000803, count, rows, cols,
    then unsigned pixel bytes; label file is magic 0x00000801, count, then
    unsigned label bytes.
    """
    with open(images_path, "rb") as fh:
        img_buf = fh.read()
    with open(labels_path, "rb") as fh:
        lab_buf = fh.read()

    magic = _read_be_u32(img_buf, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"{images_path}: bad image magic 0x{magic:08x}")
    n_images = _read_be_u32(img_buf, 4, images_path)
    rows = _read_be_u32(img_buf, 8, images_path)
    cols = _read_be_u32(img_buf, 12, images_path)
    if n_images * rows * cols == 0:
        raise IdxFormatError(f"{images_path}: {rows}x{cols} images, {n_images} of them, "
                             "hold no pixels")
    if len(img_buf) < 16 + n_images * rows * cols:
        raise IdxTruncatedError(f"{images_path}: expected {n_images * rows * cols} pixel bytes")

    magic = _read_be_u32(lab_buf, 0, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
    n_labels = _read_be_u32(lab_buf, 4, labels_path)
    if n_labels != n_images:
        raise IdxCountMismatchError(f"{n_images} images but {n_labels} labels")
    if len(lab_buf) < 8 + n_labels:
        raise IdxTruncatedError(f"{labels_path}: expected {n_labels} label bytes")

    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=n_images * rows * cols, offset=16)
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)
    if n_classes is not None and n_labels and labels.max() >= n_classes:
        raise IdxFormatError(f"{labels_path}: label {labels.max()} outside [0, {n_classes})")
    c_total = n_classes if n_classes is not None else int(labels.max()) + 1 if n_labels else 2
    if c_total < 2 and n_classes is None:
        raise IdxFormatError(f"{labels_path}: every label is 0, so the file holds one class; "
                             "at least 2 are needed")
    return Dataset(features, labels, c_total, name)


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


def partition_exdir_indices(labels: np.ndarray, c_total: int,
                            spec: PartitionSpec) -> list[np.ndarray]:
    """Split sample indices across N clients with the extended Dirichlet draw.

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
    present = np.unique(labels)
    if len(present) != c_total:
        raise ValueError("every class must appear in the dataset")
    if spec.C > c_total:
        raise ValueError(f"C={spec.C} exceeds the class count {c_total}")
    if spec.N * spec.C < c_total:
        raise ValueError(
            f"N*C={spec.N * spec.C} cannot cover all {c_total} classes"
        )
    if spec.seed is None:
        raise ValueError("partition seed is unset; resolve_config derives it from master_seed")

    rng = np.random.default_rng(spec.seed)
    for _ in range(_MAX_ALLOCATION_ATTEMPTS):
        allocation = [rng.choice(c_total, size=spec.C, replace=False) for _ in range(spec.N)]
        holders = [ [n for n in range(spec.N) if c in allocation[n]] for c in range(c_total) ]
        if all(holders):
            break
    else:
        raise RuntimeError("could not cover every class after 1000 allocation attempts")

    owner = np.full(len(labels), -1)
    for c in range(c_total):
        share = rng.dirichlet(np.full(len(holders[c]), spec.alpha))
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        owner[class_idx] = np.repeat(holders[c], largest_remainder_counts(share, len(class_idx)))
    return [np.flatnonzero(owner == n) for n in range(spec.N)]


def partition_exdir(dataset: Dataset, spec: PartitionSpec) -> list[Dataset]:
    """Partition a dataset into N disjoint client shards covering it exactly."""
    parts = partition_exdir_indices(dataset.labels, dataset.c_total, spec)
    return [
        dataset.subset(idx, name=f"{dataset.name}/client{n:02d}")
        for n, idx in enumerate(parts)
    ]


def class_distribution(dataset: Dataset) -> ClassDistribution:
    """Per-class sample proportions; all-zero with the empty flag if no samples."""
    if len(dataset) == 0:
        return ClassDistribution(np.zeros(dataset.c_total), empty=True)
    counts = np.bincount(dataset.labels, minlength=dataset.c_total).astype(np.float64)
    return ClassDistribution(counts / counts.sum())


def split_train_test(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split: each class contributes its proportional share."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    for c in range(dataset.c_total):
        class_idx = np.flatnonzero(dataset.labels == c)
        rng.shuffle(class_idx)
        n_test = int(round(test_fraction * len(class_idx)))
        test_idx.extend(class_idx[:n_test].tolist())
    mask = np.zeros(len(dataset), dtype=bool)
    mask[test_idx] = True
    train = dataset.subset(np.flatnonzero(~mask), name=f"{dataset.name}/train")
    test = dataset.subset(np.flatnonzero(mask), name=f"{dataset.name}/test")
    return train, test
