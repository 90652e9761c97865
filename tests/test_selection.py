import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selection_oracle import aggregate_objective_oracle, greedy_select_oracle
from sfedkd.config import METRICS
from sfedkd.data import ClassDistribution
from sfedkd.selection import (SelectionInstance, aggregate_objective,
                              brute_force_select, greedy_select, random_select)


def dists(*rows):
    return [ClassDistribution(np.asarray(r, dtype=np.float64)) for r in rows]


def one_hots(c):
    return dists(*np.eye(c))


DOCUMENTED = dists([1, 0], [0, 1], [1, 0], [0.5, 0.5])


# ---------------------------------------------------------------- greedy

def test_greedy_one_hot_cover():
    inst = SelectionInstance(one_hots(3), K=3, metric="L1")
    chosen = greedy_select(inst)
    assert sorted(chosen) == [0, 1, 2]
    assert aggregate_objective(inst.candidate_dists, chosen, "L1") == pytest.approx(0.0)


def test_greedy_documented_trace():
    # step 1 picks the already-uniform candidate 3 (objective 0); step 2 ties
    # at 0.5 for 0, 1, 2 and breaks to the lowest index
    inst = SelectionInstance(DOCUMENTED, K=2, metric="L1")
    chosen = greedy_select(inst)
    assert chosen == [3, 0]
    assert aggregate_objective(DOCUMENTED, chosen, "L1") == pytest.approx(0.5)


def test_greedy_exhausts_all_candidates():
    inst = SelectionInstance(one_hots(4), K=4, metric="L2")
    assert sorted(greedy_select(inst)) == [0, 1, 2, 3]


def test_greedy_duplicate_candidates_keep_originals():
    base = dists([0.7, 0.3], [0.2, 0.8], [0.5, 0.5])
    chosen = greedy_select(SelectionInstance(base, K=2, metric="L1"))
    padded = base + dists([0.7, 0.3], [0.2, 0.8])
    assert greedy_select(SelectionInstance(padded, K=2, metric="L1")) == chosen


def test_greedy_objective_non_increasing_in_k_on_one_hots():
    cands = one_hots(5)
    prev = np.inf
    for k in range(1, 6):
        chosen = greedy_select(SelectionInstance(cands, K=k, metric="L1"))
        obj = aggregate_objective(cands, chosen, "L1")
        assert obj <= prev + 1e-12
        prev = obj


def test_selection_instance_validation():
    with pytest.raises(ValueError):
        SelectionInstance(one_hots(3), K=4, metric="L1")
    with pytest.raises(ValueError):
        SelectionInstance(one_hots(3), K=0, metric="L1")
    with pytest.raises(ValueError, match="^proportions must be"):  # no empty distribution
        SelectionInstance([ClassDistribution(np.zeros(3))], K=1, metric="L1")


# ----------------------------------------------------------- brute force

def test_brute_force_beats_greedy_on_documented_instance():
    inst = SelectionInstance(DOCUMENTED, K=2, metric="L1")
    best = brute_force_select(inst)
    assert best == [0, 1]
    assert aggregate_objective(DOCUMENTED, best, "L1") == pytest.approx(0.0)
    # documents greedy suboptimality: 0.5 > 0.0
    greedy_obj = aggregate_objective(DOCUMENTED, greedy_select(inst), "L1")
    assert greedy_obj == pytest.approx(0.5)


def test_brute_force_full_one_hot_set():
    cands = one_hots(4)
    assert brute_force_select(SelectionInstance(cands, K=4, metric="L1")) == [0, 1, 2, 3]


def test_brute_force_k1_is_closest_to_uniform():
    cands = dists([0.9, 0.1], [0.6, 0.4], [0.1, 0.9])
    assert brute_force_select(SelectionInstance(cands, K=1, metric="L2")) == [1]


def test_brute_force_capacity_guard():
    cands = one_hots(2) * 11  # 22 candidates
    with pytest.raises(ValueError):
        brute_force_select(SelectionInstance(cands, K=2, metric="L1"))


# ---------------------------------------------------------------- random

def test_random_select_full_set():
    assert random_select(4, 4, seed=0) == [0, 1, 2, 3]


def test_random_select_deterministic():
    assert random_select(10, 3, seed=5) == random_select(10, 3, seed=5)


def test_random_select_rejects_k_over_m():
    with pytest.raises(ValueError):
        random_select(3, 4, seed=0)


def test_random_select_uniform_frequencies():
    counts = np.zeros(5)
    trials = 10_000
    for seed in range(trials):
        for i in random_select(5, 2, seed=seed):
            counts[i] += 1
    freqs = counts / trials
    assert np.all(np.abs(freqs - 0.4) <= 0.02)


# -------------------------------------------------------------- ordering

def test_brute_le_greedy_le_random_mean():
    rng = np.random.default_rng(0)
    for metric in ("L1", "L2", "KL", "JS"):
        vecs = rng.random((8, 4))
        cands = [ClassDistribution(v / v.sum()) for v in vecs]
        inst = SelectionInstance(cands, K=3, metric=metric)
        brute_obj = aggregate_objective(cands, brute_force_select(inst), metric)
        greedy_obj = aggregate_objective(cands, greedy_select(inst), metric)
        assert brute_obj <= greedy_obj + 1e-12
        random_objs = [
            aggregate_objective(cands, random_select(8, 3, seed=s), metric)
            for s in range(100)
        ]
        assert greedy_obj <= np.mean(random_objs) + 1e-12


# ---------------------------------------------- greedy vs per-candidate oracle

@st.composite
def candidate_sets(draw):
    """Candidates drawn with repeats from a small pool of random and one-hot
    vectors, so duplicate candidates and tied objectives are common."""
    c = draw(st.integers(2, 6))
    vector = st.one_of(
        st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c).map(
            lambda v: np.asarray(v) / np.sum(v)),
        st.integers(0, c - 1).map(lambda i: np.eye(c)[i]))
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    return [ClassDistribution(pool[i]) for i in picks], draw(st.integers(1, len(picks)))


@settings(max_examples=200, deadline=None)
@given(candidate_sets(), st.sampled_from(METRICS))
def test_greedy_matches_per_candidate_oracle(case, metric):
    cands, k = case
    assert greedy_select(SelectionInstance(cands, k, metric)) == \
        greedy_select_oracle(cands, k, metric)


@settings(max_examples=200, deadline=None)
@given(candidate_sets(), st.sampled_from(METRICS), st.data())
def test_objective_matches_class_distribution_oracle(case, metric, data):
    cands, _ = case
    indices = data.draw(st.lists(st.integers(0, len(cands) - 1), min_size=1,
                                 max_size=len(cands), unique=True))
    got = aggregate_objective(cands, indices, metric)
    assert np.float64(got).tobytes() == \
        np.float64(aggregate_objective_oracle(cands, indices, metric)).tobytes()


def test_greedy_checks_every_trial_aggregate():
    cands = dists([0.5, 0.5], [0.5, 0.5])
    inst = SelectionInstance(cands, K=2, metric="L1")
    cands[1].proportions = np.array([1.5, -0.5])  # mutated after validation
    with pytest.raises(ValueError, match="non-negative"):
        greedy_select(inst)
