"""Round orchestration for sequential federated training.

Each round samples an ordered client subset, then trains one model across
those clients in sequence, each client starting from the previous client's
result. From round 2 on, the models the previous round's clients ended
with guide every client's local steps via distillation. Baselines:
plain sequential training (no teachers) and parallel training with
dataset-size-weighted parameter averaging; one `run_round` runs them all.

All randomness flows from one master seed through per-purpose sub-seeds
(sequence sampling, per-client batch shuffling, random teacher picks, ...),
so toggling distillation or switching modes never perturbs data order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import (MODES, SEED_RANDOM_TEACHERS, SEED_SEQUENCE, SEED_SHUFFLE, TrainConfig,
                     derive_seed)
from .data import ClassDistribution, Dataset, class_distribution
from .distill import TeacherEnsemble, kd_targets, total_loss
from .metrics import consistency, evaluate, forgetting_measure
from .model import ModelParams, label_index, sgd_step, snapshot
from .selection import SelectionInstance, greedy_select, random_select


@dataclass
class FederationState:
    """State between rounds (round is 1-based), changed only by replacement:
    `run_round` returns a new state and writes to no field of the old one."""

    round: int
    global_model: ModelParams
    client_datasets: list[Dataset]
    client_dists: dict[int, ClassDistribution]  # keyed by the clients that hold data
    master_seed: int
    candidates: list[tuple[int, ModelParams]] = field(default_factory=list)
    history: list[np.ndarray] = field(default_factory=list)  # class-wise evaluations, oldest first


@dataclass
class RoundRecord:
    """One emitted log line per round; its keys follow the field order."""

    round: int
    mode: str
    top1: float
    classwise: list  # per class; None where the evaluation set lacks it
    consistency: float | None
    forgetting: float | None
    teachers: list[int]
    g_mean: list[float]
    h_mean: list[float]
    note: str

    def to_dict(self) -> dict:
        return asdict(self)


def sample_sequence(state: FederationState, m: int) -> list[int]:
    """Uniform ordered M-subset of clients for the current round."""
    n = len(state.client_datasets)
    if m > n:
        raise ValueError(f"M={m} exceeds client count {n}")
    rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SEQUENCE, state.round))
    return [int(i) for i in rng.permutation(n)[:m]]


def collect_teachers(state: FederationState, k: int, metric: str, solver: str) -> TeacherEnsemble:
    """Teacher ensemble drawn from the models the previous round ended with.

    Candidates are `state.candidates`, the (client id, model) pair of each
    client the previous round trained, in sequence order. There are none in
    round 1 or after a round that averaged or trained no client; then the
    ensemble is empty and the round is plain sequential training. `solver` is
    a solver of `config.MODES`: "greedy", or any other for a seeded random pick.
    """
    if not state.candidates:
        return TeacherEnsemble.empty()
    k_eff = min(k, len(state.candidates))
    dists = [state.client_dists[cid] for cid, _ in state.candidates]
    if solver == "greedy":
        picked = greedy_select(SelectionInstance(dists, k_eff, metric))
    else:
        seed = derive_seed(state.master_seed, SEED_RANDOM_TEACHERS, state.round)
        picked = random_select(len(dists), k_eff, seed)
    return TeacherEnsemble(
        teachers=[state.candidates[i][1] for i in picked],
        dists=[dists[i] for i in picked],
        client_ids=[state.candidates[i][0] for i in picked],
    )


def local_train(model: ModelParams, client: Dataset, ensemble: TeacherEnsemble,
                cfg: TrainConfig, rng: np.random.Generator,
                targets: np.ndarray | None = None) -> ModelParams:
    """E epochs of mini-batch SGD on one client, KD-guided when teachers exist.

    The dataset is reshuffled every epoch and the last partial batch is kept.
    `targets` are this client's rows of `kd_targets`; without them the
    ensemble is weighted for this client and its targets are built here.
    Training runs on `snapshot(model)`, the visit's one parameter copy,
    updated in place step by step with one gradient buffer; the returned
    model is that copy, and nothing writes to it afterwards. Each epoch
    gathers the client's rows (and targets) in shuffled order once, so every
    batch is a slice. A step computes gradients only, no loss value.
    """
    label_index(client.labels, model.dims[-1])  # an empty client or a bad label fails here
    if targets is None and ensemble.k:
        ensemble = ensemble.with_weights(class_distribution(client), cfg.kd)
        (targets,) = kd_targets(ensemble, [(client.features, client.labels)], cfg.kd)
    params = snapshot(model)
    grads = ModelParams(np.zeros_like(model.flat), model.dims)
    n = len(client)
    for _ in range(cfg.E):
        order = rng.permutation(n)
        features, labels = client.features[order], client.labels[order]
        epoch_targets = None if targets is None else targets[order]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            total_loss(params, features[batch], labels[batch], ensemble, cfg.kd,
                       None if targets is None else epoch_targets[batch], out=grads)
            sgd_step(params, grads, cfg.eta, out=params)
    return params


def run_round(state: FederationState, cfg: TrainConfig, eval_set: Dataset,
              granularity: str) -> tuple[FederationState, RoundRecord]:
    """One round of any mode: sample M clients in order, train each non-empty
    one, then evaluate on `eval_set` into a copy of `state.history`: the final
    model, or at `granularity` "client" each trained visit's model in order.
    The record is built once, after evaluation. It mutates no argument.

    Sequential modes chain: each trained client starts from the previous one's
    model, and the (client id, model) pairs of the trained clients, each model
    as `local_train` returned it, are the teacher candidates of round r+1; no
    model is written after its visit. fedavg trains each client from the global
    model without teachers, averages the results by client size in sequence
    order, keeps no candidates and evaluates only the average; a round whose
    sampled clients are all empty picks no teachers, keeps and evaluates the
    global model and is noted as skipped, in every mode.
    """
    r = state.round
    solver, average = MODES[cfg.mode]
    visits = [(m, cid) for m, cid in enumerate(sample_sequence(state, cfg.M))
              if len(state.client_datasets[cid])]
    ensemble = (collect_teachers(state, cfg.K, cfg.kd.metric, solver) if solver and visits
                else TeacherEnsemble.empty())
    ensemble = ensemble.with_weights([state.client_dists[c] for _, c in visits], cfg.kd)
    clients = [state.client_datasets[c] for _, c in visits]
    targets = kd_targets(ensemble, [(c.features, c.labels) for c in clients], cfg.kd)
    model = state.global_model
    trained: list[tuple[int, ModelParams]] = []
    for (m, cid), client, client_targets in zip(visits, clients, targets):
        rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SHUFFLE, r, m))
        model = local_train(state.global_model if average else model, client, ensemble,
                            cfg, rng, client_targets)
        trained.append((cid, model))
    if average and visits:
        model = weighted_average([p for _, p in trained], [len(c) for c in clients])
    history = list(state.history)
    per_visit = granularity == "client" and not average
    for checkpoint in [p for _, p in trained[:-1] if per_visit] + [model]:
        top1, classwise = evaluate(checkpoint, eval_set)
        history.append(classwise)
    g_mean, h_mean = ([(w.sum(axis=0) / len(visits)).tolist() for w in (ensemble.g, ensemble.h)]
                      if ensemble.k else ([], []))
    record = RoundRecord(
        round=r, mode=cfg.mode, top1=top1,
        classwise=[None if np.isnan(v) else float(v) for v in classwise],
        consistency=consistency(*history[-2:]) if len(history) >= 2 else None,
        forgetting=forgetting_measure(history) if len(history) >= 2 else None,
        teachers=list(ensemble.client_ids), g_mean=g_mean, h_mean=h_mean,
        note="" if visits else "all sampled clients empty; round skipped")
    new_state = replace(state, round=r + 1, global_model=model,
                        candidates=[] if average else trained, history=history)
    return new_state, record


def weighted_average(params_list: list[ModelParams], weights) -> ModelParams:
    """Elementwise parameter average with the given non-negative weights."""
    if not params_list:
        raise ValueError("nothing to average")
    w = np.asarray(weights, dtype=np.float64)
    with np.errstate(over="ignore"):
        total = w.sum()  # not finite when a weight is nan or inf, or the sum overflows
    if len(w) != len(params_list) or (w < 0).any() or not 0 < total < np.inf:
        raise ValueError("weights must be finite and non-negative with a positive, finite sum")
    w = w / total
    avg = np.zeros_like(params_list[0].flat)
    for coeff, params in zip(w, params_list):
        avg += coeff * params.flat
    return ModelParams(avg, params_list[0].dims)
