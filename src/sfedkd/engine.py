"""Round orchestration for sequential federated training.

Each round samples an ordered client subset, then trains one model across
those clients in sequence, each client starting from the previous client's
result. From round 2 on, teacher snapshots from the previous round's
sequence guide every client's local steps via distillation. Baselines:
plain sequential training (no teachers) and parallel training with
dataset-size-weighted parameter averaging.

All randomness flows from one master seed through per-purpose sub-seeds
(sequence sampling, per-client batch shuffling, random teacher picks, ...),
so toggling distillation or switching modes never perturbs data order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import ClassDistribution, Dataset, class_distribution
from .distill import KDConfig, TeacherEnsemble, kd_targets, total_loss
from .metrics import EvalTrace, consistency, evaluate, forgetting_measure
from .model import ModelParams, sgd_step, snapshot
from .selection import SelectionInstance, greedy_select, random_select

MODES = ("sfedkd", "fedseq", "fedavg", "sfedkd_random_teachers")

# sub-seed purpose tags; see derive_seed
SEED_INIT = 1
SEED_DATA = 2
SEED_PARTITION = 3
SEED_SPLIT = 4
SEED_SEQUENCE = 5
SEED_SHUFFLE = 6
SEED_RANDOM_TEACHERS = 7


def derive_seed(master_seed: int, *tags: int) -> int:
    """Deterministic sub-seed for one purpose (plus optional round/position)."""
    ss = np.random.SeedSequence([int(master_seed), *(int(t) for t in tags)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class TrainConfig:
    M: int = 10               # clients sampled per round
    K: int = 5                # teachers distilled from
    R: int = 60               # rounds
    E: int = 5                # local epochs
    batch_size: int = 64
    eta: float = 0.01
    weight_decay: float = 1e-4
    kd: KDConfig = field(default_factory=KDConfig)
    mode: str = "sfedkd"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if not 1 <= self.K <= self.M:
            raise ValueError("K must lie in [1, M]")
        if self.R < 1:
            raise ValueError("R must be at least 1")
        if self.E < 1:
            raise ValueError("E must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class FederationState:
    """Mutable-through-replacement state between rounds (round is 1-based)."""

    round: int
    global_model: ModelParams
    client_datasets: list[Dataset]
    client_dists: list[ClassDistribution]
    master_seed: int
    prev_sequence: list[int] = field(default_factory=list)
    prev_models: list[ModelParams] = field(default_factory=list)

    @property
    def n_clients(self) -> int:
        return len(self.client_datasets)


@dataclass
class RoundRecord:
    """One emitted log line per round."""

    round: int
    mode: str
    top1: float | None = None
    classwise: list | None = None
    consistency: float | None = None
    forgetting: float | None = None
    teachers: list[int] = field(default_factory=list)
    g_mean: list[float] = field(default_factory=list)
    h_mean: list[float] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and not np.isfinite(x):
                return None
            return x
        return {
            "round": self.round,
            "mode": self.mode,
            "top1": clean(self.top1),
            "classwise": None if self.classwise is None else [clean(v) for v in self.classwise],
            "consistency": clean(self.consistency),
            "forgetting": clean(self.forgetting),
            "teachers": list(self.teachers),
            "g_mean": [clean(v) for v in self.g_mean],
            "h_mean": [clean(v) for v in self.h_mean],
            "note": self.note,
        }


@dataclass
class EvalContext:
    """Where and how often to evaluate during a round."""

    dataset: Dataset
    granularity: str = "round"  # "round" or "client"
    trace: EvalTrace = field(default_factory=EvalTrace)

    def __post_init__(self):
        if self.granularity not in ("round", "client"):
            raise ValueError("granularity must be 'round' or 'client'")


def sample_sequence(state: FederationState, m: int) -> list[int]:
    """Uniform ordered M-subset of clients for the current round."""
    if m > state.n_clients:
        raise ValueError(f"M={m} exceeds client count {state.n_clients}")
    rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SEQUENCE, state.round))
    return [int(i) for i in rng.permutation(state.n_clients)[:m]]


def collect_teachers(state: FederationState, k: int, metric: str,
                     solver: str = "greedy") -> TeacherEnsemble:
    """Teacher ensemble drawn from the previous round's trained snapshots.

    Candidates are the previous sequence's positions whose clients hold data.
    Round 1 (or an all-empty previous round) yields an empty ensemble and the
    round degenerates to plain sequential training.
    """
    if state.round == 1 or not state.prev_models:
        return TeacherEnsemble.empty()
    positions = [m for m, cid in enumerate(state.prev_sequence)
                 if not state.client_dists[cid].empty]
    if not positions:
        return TeacherEnsemble.empty()
    k_eff = min(k, len(positions))
    dists = [state.client_dists[state.prev_sequence[m]] for m in positions]
    if solver == "greedy":
        picked = greedy_select(SelectionInstance(dists, k_eff, metric))
    elif solver == "random":
        seed = derive_seed(state.master_seed, SEED_RANDOM_TEACHERS, state.round)
        picked = random_select(len(positions), k_eff, seed)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    chosen = [positions[i] for i in picked]
    return TeacherEnsemble(
        teachers=[state.prev_models[m] for m in chosen],
        dists=[state.client_dists[state.prev_sequence[m]] for m in chosen],
        client_ids=[state.prev_sequence[m] for m in chosen],
    )


def local_train(model: ModelParams, client: Dataset, ensemble: TeacherEnsemble,
                cfg: TrainConfig, rng: np.random.Generator,
                loss_sink: list | None = None) -> ModelParams:
    """E epochs of mini-batch SGD on one client, KD-guided when teachers exist.

    The dataset is reshuffled every epoch and the last partial batch is kept.
    Teacher weights (from the ensemble's and this client's class distributions)
    and the frozen teachers' mixed targets are computed once per client.
    """
    if len(client) == 0:
        raise ValueError("client dataset must be non-empty")
    if ensemble.k and ensemble.g is None:
        ensemble = ensemble.with_weights(class_distribution(client), cfg.kd)
    targets = kd_targets(ensemble, client.features, client.labels, cfg.kd)
    params = model
    n = len(client)
    for _ in range(cfg.E):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = total_loss(params, client.features[idx], client.labels[idx],
                                     ensemble, cfg.kd, targets and targets.take(idx))
            if loss_sink is not None:
                loss_sink.append(loss)
            params = sgd_step(params, grads, cfg.eta, cfg.weight_decay)
    return params


def _evaluate_round(model, record, eval_ctx, tag):
    top1, classwise = evaluate(model, eval_ctx.dataset)
    eval_ctx.trace.add(tag, classwise, top1)
    record.top1 = top1
    record.classwise = [float(v) for v in classwise]
    if len(eval_ctx.trace) >= 2:
        record.consistency = consistency(eval_ctx.trace.checkpoints[-2][1],
                                         eval_ctx.trace.checkpoints[-1][1])
        record.forgetting = forgetting_measure(eval_ctx.trace)


def run_round(state: FederationState, cfg: TrainConfig,
              eval_ctx: EvalContext | None = None) -> tuple[FederationState, RoundRecord]:
    """One sequential round: sample, collect teachers, train client-to-client.

    Client m starts from client m-1's final model; the round's last model
    becomes the next round's starting global model. Every position's
    end-of-training snapshot is stored as a teacher candidate for round r+1
    (empty clients are skipped but still snapshot the passing model).
    """
    r = state.round
    seq = sample_sequence(state, cfg.M)
    if cfg.mode == "sfedkd":
        ensemble = collect_teachers(state, cfg.K, cfg.kd.metric, solver="greedy")
    elif cfg.mode == "sfedkd_random_teachers":
        ensemble = collect_teachers(state, cfg.K, cfg.kd.metric, solver="random")
    elif cfg.mode == "fedseq":
        ensemble = TeacherEnsemble.empty()
    else:
        raise ValueError(f"run_round does not handle mode {cfg.mode!r}")

    record = RoundRecord(round=r, mode=cfg.mode, teachers=list(ensemble.client_ids))
    model = state.global_model
    snapshots: list[ModelParams] = []
    g_sum = np.zeros(ensemble.k)
    h_sum = np.zeros(ensemble.k)
    n_weighted = 0
    for m, cid in enumerate(seq):
        client = state.client_datasets[cid]
        if len(client) == 0:
            snapshots.append(snapshot(model))
            continue
        ens_m = ensemble
        if ensemble.k:
            ens_m = ensemble.with_weights(state.client_dists[cid], cfg.kd)
            g_sum += ens_m.g
            h_sum += ens_m.h
            n_weighted += 1
        rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SHUFFLE, r, m))
        model = local_train(model, client, ens_m, cfg, rng)
        snapshots.append(snapshot(model))
        if eval_ctx is not None and eval_ctx.granularity == "client":
            _evaluate_round(model, record, eval_ctx, f"r{r}m{m}")
    if n_weighted:
        record.g_mean = (g_sum / n_weighted).tolist()
        record.h_mean = (h_sum / n_weighted).tolist()
    if eval_ctx is not None and eval_ctx.granularity == "round":
        _evaluate_round(model, record, eval_ctx, f"r{r}")

    new_state = replace(state, round=r + 1, global_model=model,
                        prev_sequence=seq, prev_models=snapshots)
    return new_state, record


def weighted_average(params_list: list[ModelParams], weights) -> ModelParams:
    """Elementwise parameter average with the given non-negative weights."""
    if not params_list:
        raise ValueError("nothing to average")
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(params_list) or (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with a positive sum")
    w = w / w.sum()
    avg_w = [np.zeros_like(x) for x in params_list[0].weights]
    avg_b = [np.zeros_like(x) for x in params_list[0].biases]
    for coeff, params in zip(w, params_list):
        for i in range(params.n_layers):
            avg_w[i] += coeff * params.weights[i]
            avg_b[i] += coeff * params.biases[i]
    return ModelParams(avg_w, avg_b)


def fedavg_round(state: FederationState, cfg: TrainConfig,
                 eval_ctx: EvalContext | None = None) -> tuple[FederationState, RoundRecord]:
    """Parallel baseline: every sampled client trains from the same start
    model with plain cross-entropy; the results are averaged weighted by
    local dataset size. A round with only empty clients is skipped with a
    warning note."""
    r = state.round
    seq = sample_sequence(state, cfg.M)
    record = RoundRecord(round=r, mode=cfg.mode)
    locals_: list[ModelParams] = []
    sizes: list[int] = []
    snapshots: list[ModelParams] = []
    for m, cid in enumerate(seq):
        client = state.client_datasets[cid]
        if len(client) == 0:
            snapshots.append(snapshot(state.global_model))
            continue
        rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SHUFFLE, r, m))
        trained = local_train(state.global_model, client, TeacherEnsemble.empty(), cfg, rng)
        locals_.append(trained)
        sizes.append(len(client))
        snapshots.append(snapshot(trained))
    if locals_:
        model = weighted_average(locals_, sizes)
    else:
        model = state.global_model
        record.note = "all sampled clients empty; round skipped"
    if eval_ctx is not None:
        _evaluate_round(model, record, eval_ctx, f"r{r}")
    new_state = replace(state, round=r + 1, global_model=model,
                        prev_sequence=seq, prev_models=snapshots)
    return new_state, record
