"""End-to-end experiment driver: data build, partition, round loop."""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig
from .data import (Dataset, class_distribution, generate_synthetic, load_idx,
                   partition_exdir, split_train_test)
from .engine import (SEED_INIT, EvalContext, FederationState, RoundRecord,
                     derive_seed, fedavg_round, run_round)
from .metrics import EvalTrace
from .model import ModelParams, init_params


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_model: ModelParams
    trace: EvalTrace
    round_models: list[ModelParams] | None = None


def build_dataset(cfg: ExperimentConfig) -> tuple[Dataset, Dataset | None]:
    """Materialize the (train, test) pair described by the dataset block."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        try:
            full = generate_synthetic(ds.n_per_class, ds.classes, ds.features,
                                      ds.spread, ds.seed, name=ds.name)
        except MemoryError:
            raise ConfigError("dataset.n_per_class", f"{ds.classes} classes x {ds.n_per_class} x "
                              f"{ds.features} float64 values are too many to allocate") from None
    else:
        full = load_idx(ds.images, ds.labels, name=ds.name)
        if ds.test_images and ds.test_labels:
            return full, load_idx(ds.test_images, ds.test_labels,
                                  n_classes=full.c_total, name=f"{ds.name}/test")
    if ds.test_fraction > 0:
        return split_train_test(full, ds.test_fraction, ds.split_seed)
    return full, None


def initial_state(cfg: ExperimentConfig, train: Dataset) -> FederationState:
    parts = partition_exdir(train, cfg.partition)
    dists = [class_distribution(p) for p in parts]
    dims = (train.n_features, *cfg.hidden, train.c_total)
    model = init_params(dims, derive_seed(cfg.master_seed, SEED_INIT))
    return FederationState(
        round=1, global_model=model, client_datasets=parts,
        client_dists=dists, master_seed=cfg.master_seed,
    )


def run_experiment(cfg: ExperimentConfig,
                   keep_round_models: bool = False) -> ExperimentResult:
    """Run the configured mode for R rounds; pure function of the config."""
    train, test = build_dataset(cfg)
    eval_dataset = test if cfg.eval.split == "test" else train
    if eval_dataset is None or not len(eval_dataset):
        raise ConfigError("dataset.test_fraction", f"{cfg.dataset.test_fraction} leaves the "
                          f"{cfg.eval.split} split empty, so no round can be evaluated")
    state = initial_state(cfg, train)
    eval_ctx = EvalContext(eval_dataset, cfg.eval.granularity)
    round_fn = fedavg_round if cfg.train.mode == "fedavg" else run_round
    records: list[RoundRecord] = []
    round_models: list[ModelParams] = []
    for _ in range(cfg.train.R):
        state, record = round_fn(state, cfg.train, eval_ctx)
        records.append(record)
        if keep_round_models:
            round_models.append(state.global_model)
    return ExperimentResult(records, state.global_model, eval_ctx.trace,
                            round_models if keep_round_models else None)
