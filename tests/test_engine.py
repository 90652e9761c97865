import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle
import sfedkd.engine as engine
from kernel_oracle import local_train_oracle
from param_oracle import param_sets, params_of, sgd_step_oracle, weighted_average_oracle
from sfedkd.config import MODES, resolve_config
from sfedkd.data import (ClassDistribution, Dataset, Layout, PartitionSpec,
                         class_distribution, generate_synthetic,
                         partition_exdir_indices)
from sfedkd.distill import KDConfig, TeacherEnsemble, kd_targets, total_loss
from sfedkd.engine import (SEED_SHUFFLE, FederationState,
                           TrainConfig, collect_teachers, derive_seed,
                           local_train, run_round, sample_sequence,
                           weighted_average)
from sfedkd.experiment import build_dataset, initial_state, run_experiment
from sfedkd.metrics import consistency, evaluate, forgetting_measure
from sfedkd.model import (WEIGHT_DECAY, backprop, cross_entropy_grad, forward_cached,
                          init_params, label_index, params_equal, snapshot)


EVAL_SET = generate_synthetic(10, 4, 3, 1.0, 5, Layout(np.arange(40)))[0]


def small_state(n_clients=6, c_total=4, seed=0, n_per_class=12):
    data = generate_synthetic(n_per_class, c_total, 3, 1.0, seed,
                              Layout(np.arange(n_per_class * c_total)))[0]
    parts = [data.subset(idx) for idx in partition_exdir_indices(
        data.labels, c_total, PartitionSpec(N=n_clients, C=2, alpha=0.5, seed=seed))]
    dists = {n: class_distribution(p) for n, p in enumerate(parts) if len(p)}
    model = init_params((3, 5, c_total), seed=seed)
    return FederationState(round=1, global_model=model, client_datasets=parts,
                           client_dists=dists, master_seed=seed)


def empty_client(state, cid):
    """Take every sample of client `cid`, and with them its distribution."""
    state.client_datasets[cid] = state.client_datasets[cid].subset(np.array([], dtype=np.int64))
    del state.client_dists[cid]


def small_cfg(**kw):
    base = dict(M=3, K=2, R=2, E=1, batch_size=8, eta=0.1, kd=KDConfig(), mode="sfedkd")
    base.update(kw)
    return TrainConfig(**base)


# --------------------------------------------------------- sample_sequence

def test_sequence_full_sample_is_permutation():
    state = small_state()
    seq = sample_sequence(state, 6)
    assert sorted(seq) == list(range(6))


def test_sequence_deterministic_per_round():
    state = small_state()
    draws = []
    for r in range(1, 11):
        state.round = r
        draws.append(sample_sequence(state, 4))
        assert sample_sequence(state, 4) == draws[-1]
    # each round draws from its own sub-seed; two rounds may agree, ten may not
    assert len({tuple(seq) for seq in draws}) > 1


def test_sequence_rejects_oversample():
    with pytest.raises(ValueError):
        sample_sequence(small_state(), 7)


def test_sequence_uniform_client_frequency():
    state = small_state(n_clients=10, c_total=4, n_per_class=20)
    counts = np.zeros(10)
    rounds = 10_000
    for r in range(1, rounds + 1):
        state.round = r
        for cid in sample_sequence(state, 5):
            counts[cid] += 1
    freqs = counts / rounds
    assert np.all(np.abs(freqs - 0.5) <= 0.02)


# -------------------------------------------------------- collect_teachers

def test_collect_teachers_round_one_empty():
    state = small_state()
    ens = collect_teachers(state, 2, "KL", "greedy")
    assert ens.k == 0


def test_collect_teachers_all_when_k_equals_m():
    state = small_state()
    cfg = small_cfg(mode="fedseq")
    state, _ = run_round(state, cfg, EVAL_SET, "round")
    ens = collect_teachers(state, 3, "KL", "greedy")
    assert ens.k == 3
    assert sorted(ens.client_ids) == sorted(cid for cid, _ in state.candidates)
    for teacher in ens.teachers:
        assert any(params_equal(teacher, m) for _, m in state.candidates)


def test_collect_teachers_one_hot_coverage():
    # previous round with one-hot client distributions: greedy selection must
    # cover all five classes and aggregate exactly to uniform
    c = 5
    model = init_params((2, c), seed=0)
    datasets, dists = [], []
    for cls in range(c):
        feats = np.zeros((4, 2))
        labels = np.full(4, cls, dtype=np.int64)
        datasets.append(Dataset(feats, labels, c))
        dists.append(class_distribution(datasets[-1]))
    state = FederationState(
        round=2, global_model=model, client_datasets=datasets,
        client_dists=dists, master_seed=0,
        candidates=[(cid, snapshot(model)) for cid in range(c)],
    )
    ens = collect_teachers(state, c, "L1", "greedy")
    assert ens.k == c
    agg = sum(d.proportions for d in ens.dists)
    assert np.allclose(agg / agg.sum(), np.full(c, 1 / c))


def test_collect_teachers_skips_empty_clients():
    # a sampled empty client trains nothing, so it is no candidate and no teacher
    state = small_state()
    empty_client(state, 1)
    state, _ = run_round(state, small_cfg(M=6), EVAL_SET, "round")
    assert sorted(cid for cid, _ in state.candidates) == [0, 2, 3, 4, 5]
    ens = collect_teachers(state, 6, "KL", "greedy")
    assert ens.k == 5
    assert 1 not in ens.client_ids
    # a candidate built by hand for an empty client has no distribution
    state.candidates = [(0, state.global_model), (1, state.global_model)]
    with pytest.raises(KeyError):
        run_round(state, small_cfg(M=6), EVAL_SET, "round")


# ------------------------------------------------------------ local_train

def plain_ce_loop(model, client, cfg, rng):
    """Independent oracle: hand-rolled cross-entropy SGD loop."""
    params = model
    n = len(client)
    for _ in range(cfg.E):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits, cache = forward_cached(params, client.features[idx])
            _, dlogits = cross_entropy_grad(logits, label_index(client.labels[idx],
                                                                logits.shape[1]))
            grads = backprop(params, cache, dlogits)
            params = sgd_step_oracle(params, grads, cfg.eta, WEIGHT_DECAY)
    return params


def test_local_train_matches_plain_ce_loop():
    state = small_state()
    client = max(state.client_datasets, key=len)
    cfg = small_cfg(E=3, batch_size=4, kd=KDConfig(gamma=0.0, beta=0.0))
    got = local_train(state.global_model, client, TeacherEnsemble.empty(), cfg,
                      np.random.default_rng(42))
    want = plain_ce_loop(state.global_model, client, cfg, np.random.default_rng(42))
    assert params_equal(got, want)


class StepSpy:
    """Stands in for a training step (`engine.total_loss` or the oracle's
    `step_loss_oracle`): keeps each call's batch and the bytes of each
    gradient the step returns."""

    def __init__(self, step):
        self.step, self.batches, self.grads = step, [], []

    def __call__(self, params, features, labels, *args, **kwargs):
        self.batches.append((features, labels))
        result = self.step(params, features, labels, *args, **kwargs)
        self.grads.append(result[1].flat.tobytes())
        return result


@contextlib.contextmanager
def spy_steps(module, name):
    spy = StepSpy(getattr(module, name))
    with mock.patch.object(module, name, spy):
        yield spy


def test_local_train_one_step_per_epoch_when_batch_covers_client():
    state = small_state()
    client = max(state.client_datasets, key=len)
    for epochs, batch_size in ((1, len(client) + 5), (3, len(client))):
        with spy_steps(engine, "total_loss") as spy:
            local_train(state.global_model, client, TeacherEnsemble.empty(),
                        small_cfg(E=epochs, batch_size=batch_size), np.random.default_rng(0))
        assert [len(labels) for _, labels in spy.batches] == [len(client)] * epochs


def test_local_train_first_step_loss_matches_pre_update_evaluation():
    # the first step trains on the replayed first batch, with the gradient
    # total_loss gives there before any update
    state = small_state()
    client = max(state.client_datasets, key=len)
    cfg = small_cfg(E=2, batch_size=4)
    with spy_steps(engine, "total_loss") as spy:
        local_train(state.global_model, client, TeacherEnsemble.empty(), cfg,
                    np.random.default_rng(7))
    idx = np.random.default_rng(7).permutation(len(client))[:4]
    features, labels = spy.batches[0]
    assert features.tobytes() == client.features[idx].tobytes()
    assert labels.tobytes() == client.labels[idx].tobytes()
    _, expected = total_loss(state.global_model, client.features[idx],
                             client.labels[idx], TeacherEnsemble.empty(), cfg.kd)
    assert spy.grads[0] == expected.flat.tobytes()


def test_local_train_first_step_loss_matches_total_loss_with_teachers():
    # local_train forwards the teachers once over the whole client; the
    # replayed batch forwards them per batch, which may differ in the last ULPs
    state = small_state()
    client = max(state.client_datasets, key=len)
    cfg = small_cfg(E=2, batch_size=4)
    ens = TeacherEnsemble([init_params((3, 5, 4), seed=20 + i) for i in range(3)],
                          list(state.client_dists.values())[:3], [0, 1, 2])
    with spy_steps(engine, "total_loss") as spy:
        local_train(state.global_model, client, ens, cfg, np.random.default_rng(7))
    idx = np.random.default_rng(7).permutation(len(client))[:4]
    batch = (state.global_model, client.features[idx], client.labels[idx])
    expected = total_loss(*batch, ens.with_weights(class_distribution(client), cfg.kd),
                          cfg.kd)[1].flat
    plain_ce = total_loss(*batch, TeacherEnsemble.empty(), cfg.kd)[1].flat
    got = np.frombuffer(spy.grads[0])
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-12 * scale
    assert np.abs(got - plain_ce).max() > 1e-3 * scale  # the teachers change the step


@st.composite
def local_train_cases(draw):
    """A client, a model, K in {0, 1, 3} teachers and a train config drawn over
    the shapes local_train treats differently: one or several epochs, a batch
    covering the client or leaving a partial last batch, C=2, no, one or two
    hidden layers, eta 0.05 or 0.5, KD on or off (gamma = beta = 0), NCKD or
    TCKD alone, and tau 1 or 4."""
    c = draw(st.sampled_from([2, 3, 5]))
    n, f = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    client = Dataset(rng.standard_normal((n, f)) * 2.0, rng.integers(0, c, n), c)
    dims = (f, *draw(st.sampled_from([(), (5,), (4, 3)])), c)
    k = draw(st.sampled_from([0, 1, 3]))
    ensemble = TeacherEnsemble([init_params(dims, seed + 1 + i) for i in range(k)],
                               [ClassDistribution(rng.dirichlet(np.ones(c))) for _ in range(k)],
                               list(range(k)))
    gamma, beta = draw(st.sampled_from([(0.0, 0.0), (1.0, 3.0), (0.5, 0.0), (0.0, 2.0)]))
    kd = KDConfig(tau=draw(st.sampled_from([1.0, 4.0])), gamma=gamma, beta=beta)
    cfg = small_cfg(E=draw(st.sampled_from([1, 3])),
                    batch_size=draw(st.one_of(st.integers(1, 16), st.integers(n, n + 8))),
                    eta=draw(st.sampled_from([0.05, 0.5])), kd=kd)
    return init_params(dims, seed), client, ensemble, cfg, seed


@settings(max_examples=150, deadline=None)
@given(local_train_cases(), st.booleans())
def test_local_train_matches_per_step_oracle_bytes(case, precomputed):
    model, client, ensemble, cfg, seed = case
    targets = None
    if precomputed and ensemble.k:
        ensemble = ensemble.with_weights(class_distribution(client), cfg.kd)
        (targets,) = kd_targets(ensemble, [(client.features, client.labels)], cfg.kd)
    with spy_steps(engine, "total_loss") as steps, \
            spy_steps(kernel_oracle, "step_loss_oracle") as oracle_steps:
        got = local_train(model, client, ensemble, cfg, np.random.default_rng(seed), targets)
        want = local_train_oracle(model, client, ensemble, cfg, np.random.default_rng(seed),
                                  targets)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert steps.grads == oracle_steps.grads


def test_local_train_trains_a_private_copy():
    state = small_state()
    client = max(state.client_datasets, key=len)
    model = state.global_model
    before, features = model.flat.copy(), client.features.copy()
    cfg = small_cfg(E=2, batch_size=4)
    ens = TeacherEnsemble([init_params((3, 5, 4), seed=20 + i) for i in range(2)],
                          list(state.client_dists.values())[:2], [0, 1])
    got = local_train(model, client, ens, cfg, np.random.default_rng(3))
    assert model.flat.tobytes() == before.tobytes()
    assert client.features.tobytes() == features.tobytes()
    assert not params_equal(got, model)
    for arr in (model.flat, client.features, client.labels):
        assert not np.shares_memory(got.flat, arr)
    assert all(np.shares_memory(got.flat, w) for w in got.weights + got.biases)


@pytest.mark.parametrize("case", ["eta=1e300", "nan feature", "eta=1e308"])
@pytest.mark.parametrize("k", [0, 2])
def test_local_train_fails_at_the_oracle_step(case, k):
    # the per-step oracle fails in backprop on a non-finite gradient (eta=1e300
    # from step 2, a NaN feature in its first batch), and in its update on an
    # overflowing step (eta=1e308); local_train, whose gradients go to its
    # buffer unchecked, fails in sgd_step at the same step, with the same
    # gradients before it
    state = small_state(n_per_class=40)
    client = max(state.client_datasets, key=len)
    cfg = small_cfg(E=2, batch_size=4, eta=float(case[4:]) if case[:4] == "eta=" else 0.1)
    if case == "nan feature":
        features = client.features.copy()
        features[len(client) // 2, 0] = np.nan
        client = Dataset(features, client.labels, client.c_total)
    ens = TeacherEnsemble([init_params((3, 5, 4), seed=20 + i) for i in range(k)],
                          list(state.client_dists.values())[:k], list(range(k)))
    spies = []
    for train, step in ((local_train, (engine, "total_loss")),
                        (local_train_oracle, (kernel_oracle, "step_loss_oracle"))):
        with spy_steps(*step) as spy, np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="parameters must be finite"):
            train(state.global_model, client, ens, cfg, np.random.default_rng(5))
        spies.append(spy)
    got, want = spies
    assert want.grads and len(got.batches) == len(want.batches)
    assert got.grads[:len(want.grads)] == want.grads


def test_local_train_rejects_empty_client():
    state = small_state()
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
    with pytest.raises(ValueError):
        local_train(state.global_model, empty, TeacherEnsemble.empty(),
                    small_cfg(), np.random.default_rng(0))


# --------------------------------------------------------------- run_round

def test_round_one_modes_agree():
    cfg_kd = small_cfg(mode="sfedkd")
    cfg_seq = small_cfg(mode="fedseq")
    s_kd, _ = run_round(small_state(), cfg_kd, EVAL_SET, "round")
    s_seq, _ = run_round(small_state(), cfg_seq, EVAL_SET, "round")
    assert params_equal(s_kd.global_model, s_seq.global_model)


def test_run_round_state_contract():
    state, record = run_round(small_state(), small_cfg(), EVAL_SET, "round")
    assert state.round == 2
    assert len(state.candidates) == 3
    assert record.round == 1
    assert record.mode == "sfedkd"


def test_run_round_sequential_causality_replay():
    # client m must start from client m-1's snapshot, bit-exactly
    cfg = small_cfg(mode="fedseq", E=2, batch_size=4)
    start = small_state()
    state, _ = run_round(start, cfg, EVAL_SET, "round")
    model = start.global_model
    want = []
    for m, cid in enumerate(sample_sequence(start, cfg.M)):
        client = start.client_datasets[cid]
        if len(client):
            rng = np.random.default_rng(derive_seed(start.master_seed, SEED_SHUFFLE, 1, m))
            model = local_train(model, client, TeacherEnsemble.empty(), cfg, rng)
            want.append((cid, model))
    assert [cid for cid, _ in state.candidates] == [cid for cid, _ in want]
    for (_, got), (_, expected) in zip(state.candidates, want):
        assert params_equal(got, expected)
    assert params_equal(model, state.global_model)


def test_run_round_keeps_the_models_local_train_returns():
    # local_train returns a copy that nobody else holds, so the round keeps
    # it as is: candidates, teachers and the global model share objects, and
    # no later round may write to them
    state = small_state()
    empty_client(state, 0)
    cfg = small_cfg(M=6)
    for _ in range(3):
        held = [p for _, p in state.candidates] + [state.global_model]
        held_bytes = [p.flat.tobytes() for p in held]
        state, _ = run_round(state, cfg, EVAL_SET, "round")
        assert [p.flat.tobytes() for p in held] == held_bytes
        assert 0 not in [cid for cid, _ in state.candidates]
        assert state.global_model is state.candidates[-1][1]


@pytest.mark.parametrize("mode", ["sfedkd", "sfedkd_random_teachers", "fedseq"])
def test_sequential_round_that_trains_no_client(mode):
    # a round whose sampled clients are all empty picks no teachers, notes the
    # skip, keeps the global model, is evaluated once even under client
    # granularity and leaves no candidates, so the next round has no teachers
    # and trains as fedseq does
    cfg = small_cfg(M=2, mode=mode)
    state, _ = run_round(small_state(seed=3), cfg, EVAL_SET, "round")
    assert state.candidates
    for cid in sample_sequence(state, cfg.M):
        empty_client(state, cid)
    idle, idle_record = run_round(state, cfg, EVAL_SET, "client")
    assert len(idle.history) == len(state.history) + 1  # evaluated once, at the end
    assert idle_record.teachers == [] and idle_record.g_mean == []
    assert idle_record.note == "all sampled clients empty; round skipped"
    assert idle.global_model is state.global_model
    assert idle.candidates == []
    assert any(len(idle.client_datasets[cid]) for cid in sample_sequence(idle, cfg.M))
    kd_state, record = run_round(idle, cfg, EVAL_SET, "round")
    seq_state, _ = run_round(idle, small_cfg(M=2, mode="fedseq"), EVAL_SET, "round")
    assert record.teachers == [] and kd_state.candidates
    assert kd_state.global_model.flat.tobytes() == seq_state.global_model.flat.tobytes()


def test_run_round_teacher_provenance():
    cfg = small_cfg()
    state = small_state()
    state, _ = run_round(state, cfg, EVAL_SET, "round")
    prev_snapshots = [p for _, p in state.candidates]
    ens = collect_teachers(state, cfg.K, cfg.kd.metric, "greedy")
    for teacher in ens.teachers:
        assert any(params_equal(teacher, s) for s in prev_snapshots)


def test_run_round_records_teachers_and_weights():
    cfg = small_cfg()
    state = small_state()
    state, _ = run_round(state, cfg, EVAL_SET, "round")
    state, record = run_round(state, cfg, EVAL_SET, "round")
    assert len(record.teachers) == 2
    assert len(record.g_mean) == 2
    assert abs(sum(record.g_mean) - 1.0) < 1e-9
    assert abs(sum(record.h_mean) - 1.0) < 1e-9


def test_record_to_dict_cleans_non_finite(tmp_path):
    # a class the evaluation set lacks is None in the record, so null in
    # rounds.jsonl; any other non-finite value fails the strict JSON write
    import json
    from sfedkd.cli import _write_rounds_jsonl
    from sfedkd.engine import RoundRecord
    eval_set = EVAL_SET.subset(np.flatnonzero(EVAL_SET.labels != 2))
    _, record = run_round(small_state(), small_cfg(), eval_set, "round")
    path = tmp_path / "rounds.jsonl"
    _write_rounds_jsonl(path, [record])
    classwise = json.loads(path.read_text())["classwise"]
    assert [v is None for v in classwise] == [False, False, True, False]
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_rounds_jsonl(path, [RoundRecord(round=1, mode="fedseq", top1=float("nan"),
                                                   classwise=[], consistency=None,
                                                   forgetting=None, teachers=[], g_mean=[],
                                                   h_mean=[], note="")])


def test_record_to_dict_keys_follow_field_order():
    # rounds.jsonl is written in this key order, so its bytes depend on it
    from sfedkd.engine import RoundRecord
    record = RoundRecord(round=1, mode="fedseq", top1=0.5, classwise=[], consistency=None,
                         forgetting=None, teachers=[], g_mean=[], h_mean=[], note="")
    assert list(record.to_dict()) == [
        "round", "mode", "top1", "classwise", "consistency", "forgetting",
        "teachers", "g_mean", "h_mean", "note"]


def test_fedavg_round_keeps_no_teacher_candidates():
    state, _ = run_round(small_state(), small_cfg(mode="fedavg"), EVAL_SET, "round")
    assert state.round == 2
    assert state.candidates == []
    assert collect_teachers(state, 2, "KL", "greedy").k == 0


def test_run_round_determinism():
    cfg = small_cfg()
    a, b = small_state(), small_state()
    for _ in range(3):
        a, rec_a = run_round(a, cfg, EVAL_SET, "round")
        b, rec_b = run_round(b, cfg, EVAL_SET, "round")
        assert rec_a.to_dict() == rec_b.to_dict()
    assert params_equal(a.global_model, b.global_model)


@pytest.mark.parametrize("granularity", ["round", "client"])
@pytest.mark.parametrize("mode", MODES)
def test_run_round_evaluates_with_context(mode, granularity):
    # a round evaluates after training: under "client" a sequential mode
    # evaluates each model it trained, in visit order, and any other round
    # its final model once; the record reads the last evaluation and the
    # whole history
    cfg = small_cfg(mode=mode)
    state, _ = run_round(small_state(), cfg, EVAL_SET, granularity)
    new_state, record = run_round(state, cfg, EVAL_SET, granularity)
    visits = [cid for cid in sample_sequence(state, cfg.M) if len(state.client_datasets[cid])]
    if granularity == "client" and mode != "fedavg":
        assert len(visits) >= 2 and [cid for cid, _ in new_state.candidates] == visits
        checkpoints = [p for _, p in new_state.candidates]
    else:
        checkpoints = [new_state.global_model]
    added = new_state.history[len(state.history):]
    assert [h.tobytes() for h in added] == [evaluate(p, EVAL_SET)[1].tobytes()
                                            for p in checkpoints]
    assert record.top1 == evaluate(new_state.global_model, EVAL_SET)[0]
    assert record.classwise == added[-1].tolist()
    assert record.consistency == consistency(*new_state.history[-2:])
    assert record.forgetting == forgetting_measure(new_state.history)


@pytest.mark.parametrize("granularity", ["round", "client"])
@pytest.mark.parametrize("mode", ["sfedkd", "fedavg"])
def test_run_round_is_a_function_of_its_arguments(mode, granularity):
    # the evaluation history is part of the state: a round replays from the
    # state entering it, and chained rounds reproduce run_experiment
    cfg = resolve_config({"master_seed": 1,
                          "dataset": {"n_per_class": 30, "classes": 4, "features": 3,
                                      "test_fraction": 0.3},
                          "partition": {"N": 6, "C": 2}, "model": {"hidden": [5]},
                          "train": {"M": 3, "K": 2, "R": 4, "E": 1, "batch_size": 8,
                                    "mode": mode},
                          "eval": {"granularity": granularity}})
    train, test = build_dataset(cfg)
    state = initial_state(cfg, train)
    records = []
    for _ in range(cfg.train.R):
        history = [h.tobytes() for h in state.history]
        a_state, a = run_round(state, cfg.train, test, granularity)
        b_state, b = run_round(state, cfg.train, test, granularity)
        assert [h.tobytes() for h in state.history] == history
        assert a.to_dict() == b.to_dict()
        assert a_state.global_model.flat.tobytes() == b_state.global_model.flat.tobytes()
        assert [h.tobytes() for h in a_state.history] == [h.tobytes() for h in b_state.history]
        records.append(a.to_dict())
        state = a_state
    assert records[-1]["forgetting"] is not None
    assert records == [r.to_dict() for r in run_experiment(cfg).records]


@pytest.mark.parametrize("K,kd", [
    (2, KDConfig()),
    (1, KDConfig()),
    (2, KDConfig(gamma=0.0)),
    (2, KDConfig(beta=0.0)),
    (2, KDConfig(gamma=0.0, beta=0.0)),
    (2, KDConfig(uniform_g=True, uniform_h=True)),
])
def test_run_round_matches_per_client_teacher_pass(K, kd):
    # Round 2 with an empty client in the sequence: the round computes the
    # teacher side once for all its clients, yet every position must equal
    # local_train run with that client's own teacher pass, byte for byte,
    # and g_mean/h_mean the running mean of the per-client weights.
    state = small_state()
    empty_client(state, 2)
    cfg = small_cfg(M=6, K=K, E=2, batch_size=4, kd=kd)
    state, _ = run_round(state, cfg, EVAL_SET, "round")
    ensemble = collect_teachers(state, K, kd.metric, "greedy")
    new_state, record = run_round(state, cfg, EVAL_SET, "round")
    assert 2 in sample_sequence(state, cfg.M)
    model = state.global_model
    g_sum, h_sum, want = np.zeros(K), np.zeros(K), []
    for m, cid in enumerate(sample_sequence(state, cfg.M)):
        client = state.client_datasets[cid]
        if len(client):
            own = ensemble.with_weights(state.client_dists[cid], kd)
            g_sum += own.g
            h_sum += own.h
            rng = np.random.default_rng(derive_seed(state.master_seed, SEED_SHUFFLE, 2, m))
            model = local_train(model, client, own, cfg, rng)
            want.append((cid, model.flat.tobytes()))
    assert [(cid, p.flat.tobytes()) for cid, p in new_state.candidates] == want
    n = len(want)
    assert record.g_mean == (g_sum / n).tolist()
    assert record.h_mean == (h_sum / n).tolist()


# ----------------------------------------------------------- mode reduction

def test_sfedkd_with_zero_coefficients_reduces_to_fedseq():
    cfg_kd = small_cfg(mode="sfedkd", kd=KDConfig(gamma=0.0, beta=0.0))
    cfg_seq = small_cfg(mode="fedseq")
    a, b = small_state(), small_state()
    for _ in range(4):
        a, _ = run_round(a, cfg_kd, EVAL_SET, "round")
        b, _ = run_round(b, cfg_seq, EVAL_SET, "round")
        assert params_equal(a.global_model, b.global_model)


# ----------------------------------------------------------------- fedavg

def test_weighted_average_identity():
    p = init_params((3, 2), seed=0)
    avg = weighted_average([snapshot(p), snapshot(p)], [5, 5])
    assert params_equal(avg, p)


def test_weighted_average_hand_arithmetic():
    p = params_of([np.array([[1.0]])], [np.array([2.0])])
    q = params_of([np.array([[3.0]])], [np.array([6.0])])
    even = weighted_average([p, q], [1, 1])
    assert even.weights[0][0, 0] == pytest.approx(2.0)
    skew = weighted_average([p, q], [1, 3])
    assert skew.weights[0][0, 0] == pytest.approx(0.25 * 1 + 0.75 * 3)
    assert skew.biases[0][0] == pytest.approx(0.25 * 2 + 0.75 * 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    param_sets(n), st.lists(st.integers(0, 50), min_size=n, max_size=n))))
def test_weighted_average_matches_per_layer_oracle_bytes(case):
    params_list, sizes = case
    assume(sum(sizes) > 0)
    got = weighted_average(params_list, sizes)
    want = weighted_average_oracle(params_list, sizes)
    assert got.flat.tobytes() == want.flat.tobytes()


def test_weighted_average_validation():
    p = init_params((2, 2), seed=0)
    with pytest.raises(ValueError):
        weighted_average([], [])
    with pytest.raises(ValueError):
        weighted_average([p], [0])
    # both sets hold 7 values, laid out differently
    with pytest.raises(ValueError, match=r"cannot average dims \(1, 2, 1\) with dims \(2, 1, 2\)"):
        weighted_average([init_params((1, 2, 1), 0), init_params((2, 1, 2), 0)], [1, 1])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]])
def test_weighted_average_rejects_non_finite_weights(weights):
    # rejected before the division, with no numpy warning; a sum that
    # overflows would scale every weight to 0
    p = init_params((2, 2), seed=0)
    with pytest.raises(ValueError, match="weights must be finite"):
        weighted_average([p, p], weights)


def test_fedavg_round_runs_and_averages():
    # replay: every trained client starts from the global model with the
    # shuffle seed of its position; the local models average by client size
    cfg = small_cfg(mode="fedavg", E=2, batch_size=4)
    start = small_state()
    state, record = run_round(start, cfg, EVAL_SET, "round")
    locals_, sizes = [], []
    for m, cid in enumerate(sample_sequence(start, cfg.M)):
        client = start.client_datasets[cid]
        if len(client):
            rng = np.random.default_rng(derive_seed(start.master_seed, SEED_SHUFFLE, 1, m))
            locals_.append(local_train(start.global_model, client, TeacherEnsemble.empty(),
                                       cfg, rng))
            sizes.append(len(client))
    assert len(locals_) >= 2
    want = weighted_average(locals_, sizes)
    assert state.global_model.flat.tobytes() == want.flat.tobytes()
    assert state.candidates == []
    assert state.round == 2
    assert record.mode == "fedavg"
    assert record.note == "" and record.teachers == [] and record.g_mean == []


def test_fedavg_round_skips_when_all_sampled_clients_empty():
    c = 4
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), c)  # EVAL_SET's shape
    model = init_params((3, c), seed=1)
    state = FederationState(
        round=1, global_model=model,
        client_datasets=[empty] * 3,
        client_dists={},
        master_seed=3,
    )
    new_state, record = run_round(state, small_cfg(mode="fedavg", M=2, K=1), EVAL_SET,
                                  "round")
    assert record.note == "all sampled clients empty; round skipped"
    assert params_equal(new_state.global_model, model)
    assert new_state.candidates == []
