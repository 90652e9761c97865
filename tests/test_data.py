import gc
import json
import re
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from data_oracle import (build_clients_oracle, generate_synthetic_oracle,
                         partition_exdir_indices_oracle, split_train_test_oracle)
from sfedkd import data, experiment
from sfedkd.config import SEED_DATA, SEED_SPLIT, ConfigError, derive_seed, resolve_config
from sfedkd.data import (ClassDistribution, Dataset, Layout, PartitionSpec, class_distribution,
                         generate_synthetic, largest_remainder_counts, load_idx,
                         partition_exdir, partition_exdir_indices, split_train_test,
                         synthetic_labels)
from sfedkd.experiment import build_dataset, initial_state, run_experiment

ROOT = Path(__file__).resolve().parent.parent

# block sizes that cut sources into one-row, few-row and whole-set blocks
BLOCK_BYTES = st.sampled_from([8, 200, data._BLOCK_BYTES])


def make_dataset(labels, c_total, n_features=3, seed=0):
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((len(labels), n_features)), labels, c_total)


# ---------------------------------------------------------------- Dataset

def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)  # label out of range
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), 1)  # c_total too small


# One call per row that breaks one input rule, and the message it raises.
BAD_DATA_INPUTS = {
    "1-D features": (lambda: Dataset(np.zeros(2), [0, 1], 2), "features must be a 2-D array"),
    "2-D labels": (lambda: Dataset(np.zeros((2, 1)), [[0], [1]], 2),
                   "labels must be a 1-D array"),
    "zero-width features": (lambda: Dataset(np.zeros((2, 0)), [0, 1], 2),
                            "feature dimension must be positive"),
    "bounds from 1": (lambda: Dataset(np.zeros((2, 1)), [0, 1], 2, client_bounds=[1, 2]),
                      "client bounds must rise from 0 to 2"),
    "bounds short of n": (lambda: Dataset(np.zeros((2, 1)), [0, 1], 2, client_bounds=[0, 1]),
                          "client bounds must rise from 0 to 2"),
    "falling bounds": (lambda: Dataset(np.zeros((2, 1)), [0, 1], 2,
                                       client_bounds=[0, 2, 1, 2]),
                       "client bounds must rise from 0 to 2"),
    "2-D class distribution": (lambda: ClassDistribution([[0.5, 0.5]]),
                               "proportions must be a 1-D vector"),
    "proportions summing to 0.6": (lambda: largest_remainder_counts([0.3, 0.3], 10),
                                   "proportions do not sum to 1"),
    "partition of no labels": (
        lambda: partition_exdir(np.array([], dtype=np.int64), 2, PartitionSpec(N=2, C=1, seed=0)),
        "cannot partition an empty dataset"),
    "partition without a seed": (lambda: PartitionSpec(N=2, C=1, seed=None),
                                 "seed: expected an integer, got None"),
    "test fraction 0": (lambda: split_train_test(np.array([0, 1]), 2, 0.0, seed=0),
                        "test_fraction must lie in (0, 1)"),
    "test fraction 1": (lambda: split_train_test(np.array([0, 1]), 2, 1.0, seed=0),
                        "test_fraction must lie in (0, 1)"),
}


@pytest.mark.parametrize("case", BAD_DATA_INPUTS)
def test_bad_data_input_raises_its_message(case):
    call, message = BAD_DATA_INPUTS[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_dataset_clients_are_views():
    ds = Dataset(np.arange(12.0).reshape(6, 2), [0, 1, 1, 0, 1, 0], 2,
                 client_bounds=np.array([0, 2, 2, 6]))
    clients = ds.clients()
    assert [len(c) for c in clients] == [2, 0, 4]
    assert all(c.client_bounds is None and c.c_total == 2 for c in clients)
    assert all(np.shares_memory(c.features, ds.features) for c in clients if len(c))
    assert clients[2].labels.tolist() == [1, 0, 1, 0]
    with pytest.raises(ValueError, match="^rows are not grouped by client$"):
        Dataset(np.zeros((2, 2)), [0, 1], 2).clients()


def test_dataset_subset_and_len():
    ds = make_dataset([0, 1, 0, 1], 2)
    sub = ds.subset(np.array([1, 3]))
    assert len(sub) == 2
    assert list(sub.labels) == [1, 1]


# ------------------------------------------------------- generate_synthetic

def test_synthetic_counts_and_labels():
    ds = generate_synthetic(10, 3, 2, 1.0, 7, Layout(np.arange(30)))[0]
    assert len(ds) == 30
    assert ds.n_features == 2
    counts = np.bincount(ds.labels, minlength=3)
    assert list(counts) == [10, 10, 10]


def test_synthetic_determinism():
    a = generate_synthetic(10, 3, 2, 1.0, 7, Layout(np.arange(30)))[0]
    b = generate_synthetic(10, 3, 2, 1.0, 7, Layout(np.arange(30)))[0]
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(10, 3, 2, 1.0, 8, Layout(np.arange(30)))[0]
    assert not np.array_equal(a.features, c.features)


@pytest.mark.parametrize("bad", [
    dict(n_per_class=0), dict(c_total=1), dict(n_features=1), dict(spread=0.0),
])
def test_synthetic_rejects_bad_args(bad):
    kwargs = dict(n_per_class=5, c_total=3, n_features=2, spread=1.0, seed=0,
                  layout=Layout(np.arange(15)))
    kwargs.update(bad)
    with pytest.raises(ValueError):
        generate_synthetic(**kwargs)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 20), c=st.integers(2, 12), f=st.integers(2, 10),
       spread=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1), block=BLOCK_BYTES)
@example(n=1, c=2, f=2, spread=1.0, seed=0, block=8)
@example(n=20, c=10, f=784, spread=2.5, seed=7, block=data._BLOCK_BYTES)
@example(n=20, c=10, f=784, spread=2.5, seed=7, block=3 * 784 * 8)
def test_synthetic_matches_per_class_oracle(n, c, f, spread, seed, block):
    with mock.patch.object(data, "_BLOCK_BYTES", block):
        ds = generate_synthetic(n, c, f, spread, seed, Layout(np.arange(n * c)))[0]
    features, labels = generate_synthetic_oracle(n, c, f, spread, seed)
    assert ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_synthetic_linear_probe_separable():
    # at spread 0.3 the blobs are nearly disjoint; a multinomial logistic
    # probe serves as the independent oracle for separability: fitted here by
    # full-batch gradient descent on standardized features with a bias column
    ds = generate_synthetic(100, 10, 2, 0.3, 1, Layout(np.arange(1000)))[0]
    x = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
    x = np.hstack([x, np.ones((len(x), 1))])
    onehot = np.eye(10)[ds.labels]
    w = np.zeros((3, 10))
    for _ in range(500):  # step size 1
        z = x @ w
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        w -= x.T @ (p - onehot) / len(x)
    assert np.mean((x @ w).argmax(axis=1) == ds.labels) > 0.9


# ------------------------------------------------------------------- IDX

def idx_image_bytes(images, magic=0x00000803):
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", magic, n, rows, cols) + arr.tobytes()


def idx_label_bytes(labels, magic=0x00000801):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", magic, len(arr)) + arr.tobytes()


def test_load_idx_fixture(tmp_path):
    # hand-built 2-image 2x2 fixture
    images = [[[0, 255], [128, 64]], [[1, 2], [3, 4]]]
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes(images))
    lab_path.write_bytes(idx_label_bytes([1, 0]))
    ds = load_idx(img_path, lab_path)
    assert len(ds) == 2
    assert ds.n_features == 4
    assert np.allclose(ds.features[0], np.array([0, 255, 128, 64]) / 255.0)
    assert list(ds.labels) == [1, 0]


def test_load_idx_wrong_magic(tmp_path):
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes([[[0]]]))
    # image magic in the label file is a format error
    lab_path.write_bytes(idx_label_bytes([0], magic=0x00000803))
    with pytest.raises(ConfigError):
        load_idx(img_path, lab_path)
    img_path.write_bytes(idx_image_bytes([[[0]]], magic=0x00000801))
    lab_path.write_bytes(idx_label_bytes([0]))
    with pytest.raises(ConfigError):
        load_idx(img_path, lab_path)


@pytest.mark.parametrize("swapped,message", [
    ("img", "bad image magic 0x00000801"),
    ("lab", "bad label magic 0x00000803"),
])
def test_load_idx_names_a_magic_meant_for_the_other_file(tmp_path, swapped, message):
    # a magic is 0x0800 + the file's dimension count: 3 for images, 1 for labels
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes([[[0]]], magic=0x801 if swapped == "img" else 0x803))
    lab_path.write_bytes(idx_label_bytes([0], magic=0x803 if swapped == "lab" else 0x801))
    with pytest.raises(ConfigError) as exc:
        load_idx(img_path, lab_path)
    assert str(exc.value) == f"{tmp_path / swapped}: {message}"


def test_load_idx_count_mismatch(tmp_path):
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)))
    lab_path.write_bytes(idx_label_bytes([0, 1]))
    with pytest.raises(ConfigError, match=re.escape(f"{lab_path}: 3 images but 2 labels")):
        load_idx(img_path, lab_path)


def test_load_idx_truncated(tmp_path):
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes(np.zeros((2, 2, 2), dtype=np.uint8))[:-3])
    lab_path.write_bytes(idx_label_bytes([0, 1]))
    with pytest.raises(ConfigError, match=re.escape(f"{img_path}: expected 8 pixel bytes")):
        load_idx(img_path, lab_path)


def test_load_idx_rejects_pixelless_images(tmp_path):
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 0, 5))
    lab_path.write_bytes(idx_label_bytes([0, 1]))
    with pytest.raises(ConfigError, match=re.escape(f"{img_path}: 0x5 images")):
        load_idx(img_path, lab_path)


def test_load_idx_rejects_label_outside_class_count(tmp_path):
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes(np.zeros((2, 1, 1), dtype=np.uint8)))
    lab_path.write_bytes(idx_label_bytes([0, 3]))
    with pytest.raises(ConfigError, match=re.escape(f"{lab_path}: label 3 outside [0, 3)")):
        load_idx(img_path, lab_path, n_classes=3)
    assert load_idx(img_path, lab_path, n_classes=4).c_total == 4


def test_load_idx_rejects_single_class_labels(tmp_path):
    # without n_classes the class count comes from the labels; all-zero
    # labels give one class, which must be reported against the label file
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(idx_image_bytes(np.zeros((2, 1, 1), dtype=np.uint8)))
    lab_path.write_bytes(idx_label_bytes([0, 0]))
    with pytest.raises(ConfigError, match=re.escape(f"{lab_path}: every label is 0")):
        load_idx(img_path, lab_path)
    assert load_idx(img_path, lab_path, n_classes=2).c_total == 2


@pytest.mark.parametrize("side", [2, 2**32 - 1])
def test_load_idx_rejects_zero_images(tmp_path, side):
    # with 2**32-1 sided images the reshape itself would fail in numpy
    img_path, lab_path = tmp_path / "img", tmp_path / "lab"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, 0, side, side))
    lab_path.write_bytes(idx_label_bytes([]))
    with pytest.raises(ConfigError,
                       match=re.escape(f"{img_path}: {side}x{side} images, 0 of them")):
        load_idx(img_path, lab_path)


IDX_PAIR = (idx_image_bytes(np.arange(12, dtype=np.uint8).reshape(3, 2, 2)),
            idx_label_bytes([0, 1, 2]))


def load_idx_bytes(tmp_dir, pair, n_classes):
    img_path, lab_path = tmp_dir / "img", tmp_dir / "lab"
    img_path.write_bytes(pair[0])
    lab_path.write_bytes(pair[1])
    return load_idx(img_path, lab_path, n_classes=n_classes)


@pytest.mark.parametrize("n_classes", [None, 3, 10])
def test_load_idx_truncated_at_every_offset(tmp_path, n_classes):
    assert len(load_idx_bytes(tmp_path, IDX_PAIR, n_classes)) == 3
    for which in (0, 1):
        for cut in range(len(IDX_PAIR[which])):
            pair = list(IDX_PAIR)
            pair[which] = pair[which][:cut]
            with pytest.raises(ConfigError) as exc:
                load_idx_bytes(tmp_path, pair, n_classes)
            assert exc.value.field in (str(tmp_path / "img"), str(tmp_path / "lab"))


@st.composite
def flipped_idx_pairs(draw):
    """The valid pair with 1-3 bytes of one file XOR-ed."""
    pair = list(IDX_PAIR)
    which = draw(st.integers(0, 1))
    buf = bytearray(pair[which])
    for pos in draw(st.lists(st.integers(0, len(buf) - 1), min_size=1, max_size=3,
                             unique=True)):
        buf[pos] ^= draw(st.integers(1, 255))
    pair[which] = bytes(buf)
    return tuple(pair)


@settings(max_examples=300, deadline=None)
@given(pair=flipped_idx_pairs(), n_classes=st.sampled_from([None, 3, 10]))
@example(pair=(struct.pack(">IIII", 0x00000803, 0, 2**32 - 1, 2**32 - 1),
               idx_label_bytes([])), n_classes=None)
def test_load_idx_fuzz_raises_only_idx_errors(tmp_path_factory, pair, n_classes):
    tmp_dir = tmp_path_factory.mktemp("idx")
    try:
        load_idx_bytes(tmp_dir, pair, n_classes)
    except ConfigError as exc:
        assert exc.field in (str(tmp_dir / "img"), str(tmp_dir / "lab"))


# ----------------------------------------------------- largest remainder

def test_largest_remainder_exact_and_ties():
    counts = largest_remainder_counts(np.array([0.5, 0.5]), 3)
    assert counts.sum() == 3
    assert list(counts) == [2, 1]  # tie goes to the lower index
    counts = largest_remainder_counts(np.array([0.3, 0.3, 0.4]), 10)
    assert list(counts) == [3, 3, 4]


# ----------------------------------------------------------- partitioning

def test_partition_one_class_per_client_degenerate():
    # with C=1 and both classes covered, q_c is one-hot, so each client
    # must end up holding every sample of exactly one class
    labels = np.array([0] * 6 + [1] * 4)
    parts = partition_exdir_indices(labels, 2, PartitionSpec(N=2, C=1, alpha=0.5, seed=11))
    label_sets = [set(labels[p].tolist()) for p in parts]
    assert sorted(map(tuple, map(sorted, label_sets))) == [(0,), (1,)]
    sizes = sorted(len(p) for p in parts)
    assert sizes == [4, 6]


def test_partition_disjoint_cover():
    # order is a permutation grouped by client, ascending within a client,
    # and its client slices are the index arrays of partition_exdir_indices
    labels = synthetic_labels(20, 5)
    spec = PartitionSpec(N=7, C=2, alpha=0.5, seed=5)
    order, bounds = partition_exdir(labels, 5, spec)
    assert np.array_equal(np.sort(order), np.arange(len(labels)))
    assert bounds[0] == 0 and bounds[-1] == len(labels) and len(bounds) == 8
    for n, idx in enumerate(partition_exdir_indices(labels, 5, spec)):
        assert np.array_equal(order[bounds[n]:bounds[n + 1]], idx)
        assert np.all(np.diff(idx) > 0)


def test_partition_class_budget():
    labels = synthetic_labels(30, 6)
    for p in partition_exdir_indices(labels, 6, PartitionSpec(N=9, C=2, alpha=0.3, seed=6)):
        assert len(set(labels[p].tolist())) <= 2


def test_partition_determinism():
    labels = synthetic_labels(15, 4)
    spec = PartitionSpec(N=6, C=2, alpha=0.7, seed=21)
    a = partition_exdir_indices(labels, 4, spec)
    b = partition_exdir_indices(labels, 4, spec)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partition_reference_oracle():
    # independent reimplementation of the documented sampling recipe,
    # consuming the rng stream in the same order
    labels = synthetic_labels(40, 10)
    spec = PartitionSpec(N=20, C=2, alpha=0.5, seed=3)
    parts = partition_exdir_indices(labels, 10, spec)

    rng = np.random.default_rng(3)
    for _ in range(1000):
        allocation = [rng.choice(10, size=2, replace=False) for _ in range(20)]
        holders = [[n for n in range(20) if c in allocation[n]] for c in range(10)]
        if all(holders):
            break
    expected = [np.zeros(10, dtype=int) for _ in range(20)]
    for c in range(10):
        share = rng.dirichlet(np.full(len(holders[c]), 0.5))
        class_idx = np.flatnonzero(labels == c)
        rng.shuffle(class_idx)
        raw = share * len(class_idx)
        counts = np.floor(raw).astype(int)
        rem = len(class_idx) - counts.sum()
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:rem]] += 1
        for n, cnt in zip(holders[c], counts):
            expected[n][c] = cnt

    for n in range(20):
        got = np.bincount(labels[parts[n]], minlength=10)
        assert np.array_equal(got, expected[n]), f"client {n}: {got} != {expected[n]}"


def test_partition_rejects_impossible_coverage():
    with pytest.raises(ValueError):
        partition_exdir(np.array([0, 1, 2, 3]), 4, PartitionSpec(N=2, C=1, alpha=1.0, seed=0))


@pytest.mark.parametrize("n,c,alpha,message", [
    (4, 21, 1.0, "partition.C: C=21 exceeds the class count 20"),
    (4, 2, 1.0, "partition.C: N*C=8 cannot cover all 20 classes"),
    # 20!/20**20 < 1e-7: no allocation of one class each covers all 20
    (20, 1, 1.0, "partition.C: no draw covered all 20 classes in 1000 attempts"),
    # numpy's Dirichlet draw over two or more holders is all zeros at 1e308
    (20, 2, 1e308, "partition.alpha: the Dirichlet draw over the "),
])
def test_partition_rule_failures_name_their_field(n, c, alpha, message):
    labels = np.repeat(np.arange(20), 3)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        partition_exdir(labels, 20, PartitionSpec(N=n, C=c, alpha=alpha, seed=0))


def test_partition_requires_all_classes_present():
    # class 1 missing
    with pytest.raises(ValueError):
        partition_exdir(np.array([0, 0, 2]), 3, PartitionSpec(N=3, C=2, alpha=1.0, seed=0))


@pytest.mark.parametrize("labels,bad", [([0, 5, 0, 5, 0, 5], 5), ([0, 1, -1, 1], -1)])
def test_partition_rejects_labels_outside_class_count(labels, bad):
    # two distinct labels with c_total=2, so the count check alone passes
    spec = PartitionSpec(N=2, C=2, alpha=1.0, seed=0)
    for fn in (partition_exdir, partition_exdir_indices):
        with pytest.raises(ValueError, match=re.escape(f"label {bad} outside [0, 2)")):
            fn(np.array(labels), 2, spec)


@settings(max_examples=30, deadline=None)
@given(
    n_per_class=st.integers(3, 12),
    c_total=st.integers(2, 6),
    n_clients=st.integers(1, 8),
    c_per_client=st.integers(1, 6),
    alpha=st.sampled_from([0.1, 0.5, 1.0, 10.0]),
    seed=st.integers(0, 10_000),
)
def test_partition_properties(n_per_class, c_total, n_clients, c_per_client, alpha, seed):
    c_per_client = min(c_per_client, c_total)
    if n_clients * c_per_client < c_total:
        return
    labels = np.repeat(np.arange(c_total), n_per_class)
    spec = PartitionSpec(N=n_clients, C=c_per_client, alpha=alpha, seed=seed)
    parts = partition_exdir_indices(labels, c_total, spec)
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(len(labels)))
    for idx in parts:
        assert len(set(labels[idx].tolist())) <= c_per_client


@st.composite
def partition_cases(draw):
    """Shuffled labels covering every class, and a spec whose N*C covers them."""
    c_total = draw(st.integers(2, 8))
    extra = draw(st.lists(st.integers(0, c_total - 1), max_size=60))
    labels = np.array(draw(st.permutations(list(range(c_total)) + extra)), dtype=np.int64)
    c = draw(st.integers(1, c_total))
    n = draw(st.integers(-(-c_total // c), 12))
    spec = PartitionSpec(N=n, C=c, alpha=draw(st.floats(0.05, 10.0)),
                         seed=draw(st.integers(0, 2**32 - 1)))
    return labels, c_total, spec


@settings(max_examples=100, deadline=None)
@given(partition_cases())
@example((np.random.default_rng(5).permutation(np.repeat(np.arange(10), 30)), 10,
          PartitionSpec(N=100, C=2, alpha=0.3, seed=11)))
@example((np.arange(20), 20, PartitionSpec(N=20, C=1, alpha=1.0, seed=0)))  # attempts run out
def test_partition_matches_list_assembly_oracle(case):
    labels, c_total, spec = case
    try:
        expected = partition_exdir_indices_oracle(labels, c_total, spec)
    except RuntimeError:  # the oracle's allocation attempts ran out
        with pytest.raises(ConfigError, match="^partition.C: no draw covered all "):
            partition_exdir_indices(labels, c_total, spec)
        return
    got = partition_exdir_indices(labels, c_total, spec)
    assert len(got) == spec.N
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


# ------------------------------------------------------ class_distribution

def test_class_distribution_hand_counts():
    ds = make_dataset([0, 0, 1, 2], 3)
    dist = class_distribution(ds)
    assert np.allclose(dist.proportions, [0.5, 0.25, 0.25])


def test_class_distribution_degenerate_and_empty():
    ds = make_dataset([0, 0, 0], 4)
    assert np.allclose(class_distribution(ds).proportions, [1, 0, 0, 0])
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
    with pytest.raises(ValueError, match="^an empty dataset has no class distribution$"):
        class_distribution(empty)


def test_class_distribution_sums_to_one():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ds = make_dataset(rng.integers(0, 6, size=50), 6, seed=seed)
        assert abs(class_distribution(ds).proportions.sum() - 1.0) < 1e-9


def test_class_distribution_validation():
    with pytest.raises(ValueError):
        ClassDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ClassDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError, match="finite"):  # NaN fails every comparison
        ClassDistribution(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        ClassDistribution(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match="sum to 1"):  # an empty client has no distribution
        ClassDistribution(np.zeros(3))


# ------------------------------------------------------- train/test split

def test_split_train_test_stratified():
    labels = synthetic_labels(20, 4)
    train, test = split_train_test(labels, 4, 0.25, seed=1)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(len(labels)))
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert list(np.bincount(labels[test], minlength=4)) == [5, 5, 5, 5]


def test_split_train_test_rejects_labels_outside_class_count():
    with pytest.raises(ValueError, match=re.escape("label 4 outside [0, 4)")):
        split_train_test(np.array([0, 1, 2, 3, 4]), 4, 0.5, seed=0)


# ------------------------------------------- build_dataset: label-first layout

def assert_matches_oracle(cfg):
    """build_dataset + initial_state give the oracle chain's clients and
    test set, byte for byte, or raise what it raises; where its allocation
    attempts run out, that is a ConfigError on partition.C."""
    try:
        expected_clients, expected_test = build_clients_oracle(cfg)
    except RuntimeError:  # the oracle's allocation attempts ran out
        with pytest.raises(ConfigError, match="^partition.C: no draw covered all "):
            initial_state(cfg, build_dataset(cfg)[0])
        return
    except ValueError as exc:
        with pytest.raises(type(exc)):
            initial_state(cfg, build_dataset(cfg)[0])
        return
    train, test = build_dataset(cfg)
    clients = initial_state(cfg, train).client_datasets
    assert len(clients) == len(expected_clients)
    for got, (features, labels) in zip(clients, expected_clients):
        assert got.features.shape == features.shape
        assert got.features.tobytes() == features.tobytes()
        assert got.labels.tobytes() == labels.tobytes()
    bounds = np.cumsum([0] + [len(c) for c in clients])
    assert np.array_equal(train.client_bounds, bounds)
    if expected_test is None:  # no test rows: an empty set of the source's width
        width = expected_clients[0][0].shape[1]
        expected_test = np.empty((0, width)), np.empty(0, dtype=np.int64)
    assert test.features.shape == expected_test[0].shape
    assert test.features.tobytes() == expected_test[0].tobytes()
    assert test.labels.tobytes() == expected_test[1].tobytes()
    assert test.c_total == train.c_total and test.client_bounds is None


@st.composite
def synthetic_configs(draw):
    classes = draw(st.integers(2, 6))
    c = draw(st.integers(1, classes))
    test_fraction = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    return resolve_config({
        "master_seed": draw(st.integers(0, 2**31 - 1)),
        "dataset": {"n_per_class": draw(st.integers(1, 30)), "classes": classes,
                    "features": draw(st.integers(2, 6)), "test_fraction": test_fraction},
        "partition": {"N": draw(st.integers(-(-classes // c), 12)), "C": c,
                      "alpha": draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))},
        "train": {"M": 1, "K": 1},
        "eval": {"split": "test" if test_fraction else "train"},
    })


@settings(max_examples=60, deadline=None)
@given(cfg=synthetic_configs(), block=BLOCK_BYTES)
def test_build_dataset_matches_oracle_chain(cfg, block):
    with mock.patch.object(data, "_BLOCK_BYTES", block):
        assert_matches_oracle(cfg)


def test_build_dataset_oracle_chain_at_wide_shape():
    cfg = resolve_config({"master_seed": 3,
                          "dataset": {"n_per_class": 60, "classes": 10, "features": 784},
                          "partition": {"N": 30, "alpha": 0.05}, "train": {"M": 1, "K": 1}})
    assert_matches_oracle(cfg)
    clients = initial_state(cfg, build_dataset(cfg)[0]).client_datasets
    assert any(len(c) == 0 for c in clients)  # alpha small enough to leave clients empty


@pytest.mark.parametrize("test_files", [False, True])
@pytest.mark.parametrize("test_fraction", [0.0, 0.3])
@pytest.mark.parametrize("block", [8, 50 * 8, data._BLOCK_BYTES])
def test_build_dataset_idx_matches_oracle_chain(tmp_path, test_files, test_fraction, block):
    rng = np.random.default_rng(5)
    paths = {}
    for part, n in (("", 90), ("test_", 25)):
        (tmp_path / f"{part}img").write_bytes(
            idx_image_bytes(rng.integers(0, 256, (n, 4, 3), dtype=np.uint8)))
        (tmp_path / f"{part}lab").write_bytes(
            idx_label_bytes(np.concatenate([np.arange(5), rng.integers(0, 5, n - 5)])))
        paths[f"{part}images"] = str(tmp_path / f"{part}img")
        paths[f"{part}labels"] = str(tmp_path / f"{part}lab")
    if not test_files:
        paths = {k: v for k, v in paths.items() if not k.startswith("test_")}
    cfg = resolve_config({
        "master_seed": 4, "dataset": dict(kind="idx", test_fraction=test_fraction, **paths),
        "partition": {"N": 7, "C": 2, "alpha": 0.3}, "train": {"M": 1, "K": 1},
        "eval": {"split": "test" if test_files or test_fraction else "train"},
    })
    with mock.patch.object(data, "_BLOCK_BYTES", block):
        assert_matches_oracle(cfg)


@pytest.mark.parametrize("granularity", ["round", "client"])
def test_eval_on_train_does_not_depend_on_row_order(monkeypatch, granularity):
    # with eval.split=train the rounds evaluate the client-major train set;
    # evaluating the source-ordered train copy instead gives the same records
    raw = json.loads((ROOT / "configs" / "synthetic_small.json").read_text())
    raw["train"]["R"] = 6
    raw["eval"] = {"split": "train", "granularity": granularity}
    cfg = resolve_config(raw)
    ds = cfg.dataset
    features, labels = generate_synthetic_oracle(ds.n_per_class, ds.classes, ds.features,
                                                 ds.spread,
                                                 derive_seed(cfg.master_seed, SEED_DATA))
    (features, labels), _ = split_train_test_oracle(features, labels, ds.classes, ds.test_fraction,
                                                     derive_seed(cfg.master_seed, SEED_SPLIT))
    source_order = Dataset(features, labels, ds.classes)
    client_major = run_experiment(cfg)
    assert not np.array_equal(build_dataset(cfg)[0].labels, labels)
    round_fn = experiment.run_round
    monkeypatch.setattr(experiment, "run_round",
                        lambda state, train, _, gran: round_fn(state, train, source_order, gran))
    again = run_experiment(cfg)
    assert [r.to_dict() for r in client_major.records] == [r.to_dict() for r in again.records]


def test_build_dataset_peak_memory_at_fashion_shape():
    # each feature row is written once into its final buffer, so the set-up
    # peak stays close to the bytes kept (it was 2x with whole-set copies)
    cfg = resolve_config({"master_seed": 0,
                          "dataset": {"n_per_class": 1000, "classes": 10, "features": 784,
                                      "test_fraction": 0.2},
                          "partition": {"N": 100}, "train": {"M": 10, "K": 5}})
    tracemalloc.start()
    try:
        train, test = build_dataset(cfg)
        initial_state(cfg, train)
        peak = tracemalloc.get_traced_memory()[1]
        kept = train.features.nbytes + test.features.nbytes
        del train
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept == 10 * 1000 * 784 * 8
    assert peak <= 1.25 * kept, f"peak {peak / 1e6:.1f} MB for {kept / 1e6:.1f} MB kept"
    # Train and test are separate buffers, so keeping only the test set keeps
    # only its rows. With both written into one buffer as views (byte-identical
    # and 5 lines shorter), each test view pins the whole buffer, and
    # perfbench's prepare_federation keeps every federation's test set:
    # peak_rss_mb on fashion_sfedkd (--seconds 3, seed 0) rose from 162.6 to
    # 307.7 MB, and at 10x200x784 the test set alone held 13.5 MB, not 3.5.
    assert held <= 1.25 * test.features.nbytes, \
        f"{held / 1e6:.2f} MB held for {test.features.nbytes / 1e6:.2f} MB of test features"
