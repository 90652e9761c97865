"""End-to-end experiment driver: data build, partition, round loop."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import (SEED_DATA, SEED_INIT, SEED_PARTITION, SEED_SPLIT, ConfigError,
                     ExperimentConfig, PartitionSpec, derive_seed)
from .data import (Dataset, Layout, class_distribution, generate_synthetic, idx_blocks,
                   load_idx, partition_exdir, read_idx, split_train_test, synthetic_labels)
from .engine import FederationState, RoundRecord, run_round
from .model import ModelParams, init_params


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_model: ModelParams
    round_models: list[ModelParams]  # empty unless run with keep_round_models


def _layout(cfg: ExperimentConfig, labels: np.ndarray, c_total: int) -> Layout:
    """Where each source row goes: the label-level split (unless test files
    are given), then the partition of the train labels, grouped by client."""
    ds = cfg.dataset
    train_rows, test_rows = np.arange(len(labels)), np.empty(0, dtype=np.int64)
    if ds.test_fraction > 0 and not ds.test_images:
        train_rows, test_rows = split_train_test(labels, c_total, ds.test_fraction,
                                                 derive_seed(cfg.master_seed, SEED_SPLIT))
        if not len(train_rows):
            raise ConfigError("dataset.test_fraction", f"{ds.test_fraction} leaves no train rows")
        missing = np.flatnonzero(np.bincount(labels[train_rows], minlength=c_total) == 0)
        if len(missing):
            raise ConfigError("dataset.test_fraction",
                              f"{ds.test_fraction} leaves class {missing[0]} no train rows")
    spec = PartitionSpec(**asdict(cfg.partition), seed=derive_seed(cfg.master_seed, SEED_PARTITION))
    order, bounds = partition_exdir(labels[train_rows], c_total, spec)
    return Layout(train_rows[order], bounds, test_rows)


def _too_big(field: str, what: str) -> ConfigError:
    return ConfigError(field, f"{what} float64 values are too many to allocate")


def build_dataset(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair described by the dataset block.

    The train rows are grouped by client; `Dataset.clients` gives the
    partition, and `initial_state` takes its clients from there. The test
    set is empty when there are no test rows."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        # the larger of classes and n_per_class overflows the labels first; then features
        size = f"{ds.classes} classes x {ds.n_per_class} x {ds.features}"
        try:
            labels = synthetic_labels(ds.n_per_class, ds.classes)
        except (MemoryError, ValueError, OverflowError):
            big = "classes" if ds.classes > ds.n_per_class else "n_per_class"
            raise _too_big(f"dataset.{big}", size) from None
        layout = _layout(cfg, labels, ds.classes)
        try:
            return generate_synthetic(ds.n_per_class, ds.classes, ds.features, ds.spread,
                                      derive_seed(cfg.master_seed, SEED_DATA), layout=layout)
        except (MemoryError, ValueError):
            raise _too_big("dataset.features", size) from None
    pixels, labels, c_total = read_idx(ds.images, ds.labels)
    train, test = _layout(cfg, labels, c_total).fill(idx_blocks(pixels), labels, c_total,
                                                     pixels.shape[1])
    if ds.test_images:
        test = load_idx(ds.test_images, ds.test_labels, n_classes=c_total)
        if test.n_features != pixels.shape[1]:
            raise ConfigError(str(ds.test_images), f"{test.n_features} pixels per image, "
                              f"but {ds.images} has {pixels.shape[1]}")
    return train, test


def initial_state(cfg: ExperimentConfig, train: Dataset) -> FederationState:
    """Round 1 of a federation whose clients are the views `train.clients()`."""
    parts = train.clients()
    dims = (train.n_features, *cfg.model.hidden, train.c_total)
    try:
        model = init_params(dims, derive_seed(cfg.master_seed, SEED_INIT))
    except (MemoryError, ValueError):
        raise _too_big("model.hidden", f"the {' -> '.join(map(str, dims))} model's") from None
    return FederationState(
        round=1, global_model=model, client_datasets=parts,
        client_dists={n: class_distribution(p) for n, p in enumerate(parts) if len(p)},
        master_seed=cfg.master_seed,
    )


def run_experiment(cfg: ExperimentConfig,
                   keep_round_models: bool = False) -> ExperimentResult:
    """Run the configured mode for R rounds; pure function of the config."""
    train, test = build_dataset(cfg)
    eval_dataset = test if cfg.eval.split == "test" else train
    if not len(eval_dataset):
        raise ConfigError("dataset.test_fraction", f"{cfg.dataset.test_fraction} leaves the "
                          f"{cfg.eval.split} split empty, so no round can be evaluated")
    state = initial_state(cfg, train)
    records: list[RoundRecord] = []
    round_models: list[ModelParams] = []
    for _ in range(cfg.train.R):
        state, record = run_round(state, cfg.train, eval_dataset, cfg.eval.granularity)
        records.append(record)
        if keep_round_models:
            round_models.append(state.global_model)
    return ExperimentResult(records, state.global_model, round_models)
