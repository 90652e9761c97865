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
from .distill import TeacherEnsemble, round_targets, total_loss
from .metrics import EvalTrace, consistency, evaluate, forgetting_measure
from .model import ModelParams, label_index, sgd_step, snapshot
from .selection import SelectionInstance, greedy_select, random_select


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
    """One emitted log line per round; its keys follow the field order."""

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
            if isinstance(x, list):
                return [clean(v) for v in x]
            return None if isinstance(x, float) and not np.isfinite(x) else x
        return {k: clean(v) for k, v in asdict(self).items()}


@dataclass
class EvalContext:
    """Where and how often to evaluate during a round."""

    dataset: Dataset
    granularity: str = "round"  # "round" or "client"
    trace: EvalTrace = field(default_factory=EvalTrace)


def sample_sequence(state: FederationState, m: int) -> list[int]:
    """Uniform ordered M-subset of clients for the current round."""
    if m > state.n_clients:
        raise ValueError(f"M={m} exceeds client count {state.n_clients}")
    rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SEQUENCE, state.round))
    return [int(i) for i in rng.permutation(state.n_clients)[:m]]


def collect_teachers(state: FederationState, k: int, metric: str,
                     solver: str = "greedy") -> TeacherEnsemble:
    """Teacher ensemble drawn from the models the previous round ended with.

    Candidates are the previous sequence's positions whose clients hold data.
    Round 1 (or an all-empty previous round) yields an empty ensemble and the
    round degenerates to plain sequential training. `solver` is a solver of
    `config.MODES`: "greedy", or any other for a seeded random pick.
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
    else:
        seed = derive_seed(state.master_seed, SEED_RANDOM_TEACHERS, state.round)
        picked = random_select(len(positions), k_eff, seed)
    chosen = [positions[i] for i in picked]
    return TeacherEnsemble(
        teachers=[state.prev_models[m] for m in chosen],
        dists=[dists[i] for i in picked],
        client_ids=[state.prev_sequence[m] for m in chosen],
    )


def local_train(model: ModelParams, client: Dataset, ensemble: TeacherEnsemble,
                cfg: TrainConfig, rng: np.random.Generator, targets: np.ndarray | None = None,
                loss_sink: list | None = None) -> ModelParams:
    """E epochs of mini-batch SGD on one client, KD-guided when teachers exist.

    The dataset is reshuffled every epoch and the last partial batch is kept.
    `targets` are this client's rows of `round_targets`; without them the
    teacher side is computed here, as for a round of this one client.
    Training runs on `snapshot(model)`, the visit's one parameter copy,
    updated in place step by step with one gradient buffer; the returned
    model is that copy, and nothing writes to it afterwards. Each epoch
    gathers the client's rows (and targets) in shuffled order once, so every
    batch is a slice. `loss_sink` gets the loss of each step whose gradient
    is finite.
    """
    label_index(client.labels, model.dims[-1])  # an empty client or a bad label fails here
    if targets is None and ensemble.k:
        ensemble, (targets,) = round_targets(ensemble, [client], [class_distribution(client)],
                                             cfg.kd)
    params = snapshot(model)
    grads = ModelParams.from_flat(np.zeros_like(model.flat), model.dims)
    n = len(client)
    for _ in range(cfg.E):
        order = rng.permutation(n)
        features, labels = client.features[order], client.labels[order]
        epoch_targets = None if targets is None else targets[order]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            loss, _ = total_loss(params, features[batch], labels[batch], ensemble, cfg.kd,
                                 None if targets is None else epoch_targets[batch], out=grads)
            # a step whose gradient is not finite fails in sgd_step below,
            # before its loss counts
            if loss_sink is not None and np.isfinite(grads.flat).all():
                loss_sink.append(loss)
            sgd_step(params, grads, cfg.eta, cfg.weight_decay, out=params)
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
    """One round of any mode: sample M clients in order, train each non-empty
    one, evaluate.

    Sequential modes chain: client m starts from client m-1's final model, and
    the model each position ends with, as `local_train` returned it (an empty
    client's is the model passing through), is a teacher candidate for round
    r+1; positions may share one object, since no model is written after its
    visit. fedavg trains each client from the global model without teachers
    and averages the results by client size, in sequence order; it keeps no
    candidates, evaluates once per round at any granularity, and skips a
    round whose sampled clients are all empty.
    """
    r = state.round
    average = cfg.mode == "fedavg"
    seq = sample_sequence(state, cfg.M)
    solver = MODES[cfg.mode]
    ensemble = (collect_teachers(state, cfg.K, cfg.kd.metric, solver) if solver
                else TeacherEnsemble.empty())

    record = RoundRecord(round=r, mode=cfg.mode, teachers=list(ensemble.client_ids))
    trained = [cid for cid in seq if len(state.client_datasets[cid])]
    ensemble, targets = round_targets(ensemble, [state.client_datasets[c] for c in trained],
                                      [state.client_dists[c] for c in trained], cfg.kd)
    if ensemble.k and trained:
        record.g_mean = (ensemble.g.sum(axis=0) / len(trained)).tolist()
        record.h_mean = (ensemble.h.sum(axis=0) / len(trained)).tolist()
    targets = iter(targets)
    per_visit = eval_ctx is not None and eval_ctx.granularity == "client" and not average
    model = state.global_model
    kept: list[ModelParams] = []  # fedavg: the local models; else each position's model
    for m, cid in enumerate(seq):
        client = state.client_datasets[cid]
        if len(client):
            rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SHUFFLE, r, m))
            model = local_train(state.global_model if average else model, client, ensemble,
                                cfg, rng, next(targets))
            if per_visit:
                _evaluate_round(model, record, eval_ctx, f"r{r}m{m}")
        if len(client) or not average:
            kept.append(model)
    if average:
        if kept:
            model = weighted_average(kept, [len(state.client_datasets[c]) for c in trained])
        else:
            record.note = "all sampled clients empty; round skipped"
        kept = []
    if eval_ctx is not None and not per_visit:
        _evaluate_round(model, record, eval_ctx, f"r{r}")

    new_state = replace(state, round=r + 1, global_model=model,
                        prev_sequence=seq, prev_models=kept)
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
    return ModelParams.from_flat(avg, params_list[0].dims)
