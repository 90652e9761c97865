import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import evaluate_oracle, forgetting_measure_oracle
from param_oracle import params_of
from sfedkd.data import Dataset
from sfedkd.metrics import consistency, evaluate, forgetting_measure


def logit_passthrough(c):
    """Single identity layer: features are used directly as logits."""
    return params_of([np.eye(c)], [np.zeros(c)])


def dataset_from_logits(logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    return Dataset(logits, np.asarray(labels), logits.shape[1])


# ---------------------------------------------------------------- evaluate

def test_evaluate_constant_predictor():
    # bias strongly favors class 0 regardless of input
    params = params_of([np.zeros((2, 2))], [np.array([5.0, 0.0])])
    ds = dataset_from_logits(np.zeros((4, 2)), [0, 0, 1, 1])
    top1, classwise = evaluate(params, ds)
    assert top1 == 0.5
    assert list(classwise) == [1.0, 0.0]


def test_evaluate_perfect_model():
    logits = np.array([[5.0, 0], [5.0, 1], [0, 4.0], [1, 9.0]])
    ds = dataset_from_logits(logits, [0, 0, 1, 1])
    top1, classwise = evaluate(logit_passthrough(2), ds)
    assert top1 == 1.0
    assert list(classwise) == [1.0, 1.0]


def test_evaluate_hand_count():
    # 6 samples with known logits: exactly 4 correct
    logits = np.array([
        [2.0, 0.0, 0.0],   # pred 0, label 0  correct
        [0.0, 2.0, 0.0],   # pred 1, label 0  wrong
        [0.0, 2.0, 0.0],   # pred 1, label 1  correct
        [0.0, 0.0, 2.0],   # pred 2, label 2  correct
        [2.0, 0.0, 0.0],   # pred 0, label 2  wrong
        [0.0, 0.0, 1.0],   # pred 2, label 2  correct
    ])
    labels = [0, 0, 1, 2, 2, 2]
    top1, classwise = evaluate(logit_passthrough(3), dataset_from_logits(logits, labels))
    assert top1 == pytest.approx(4 / 6)
    assert classwise == pytest.approx([0.5, 1.0, 2 / 3])


def test_evaluate_argmax_ties_to_lowest_class():
    ds = dataset_from_logits(np.zeros((1, 3)), [0])
    top1, _ = evaluate(logit_passthrough(3), ds)
    assert top1 == 1.0  # all-equal logits predict class 0


def test_evaluate_absent_class_is_nan():
    ds = dataset_from_logits(np.array([[3.0, 0.0, 0.0]]), [0])
    _, classwise = evaluate(logit_passthrough(3), ds)
    assert classwise[0] == 1.0
    assert np.isnan(classwise[1]) and np.isnan(classwise[2])


def test_evaluate_rejects_empty():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        evaluate(logit_passthrough(2), empty)


def test_evaluate_permutation_invariant():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((20, 4))
    labels = rng.integers(0, 4, size=20)
    ds = dataset_from_logits(logits, labels)
    perm = rng.permutation(20)
    shuffled = dataset_from_logits(logits[perm], labels[perm])
    t1, c1 = evaluate(logit_passthrough(4), ds)
    t2, c2 = evaluate(logit_passthrough(4), shuffled)
    assert t1 == t2
    assert np.array_equal(c1, c2, equal_nan=True)


def test_top1_is_frequency_weighted_classwise_mean():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((50, 5))
    labels = rng.integers(0, 5, size=50)
    ds = dataset_from_logits(logits, labels)
    top1, classwise = evaluate(logit_passthrough(5), ds)
    freqs = np.bincount(labels, minlength=5) / 50
    present = ~np.isnan(classwise)
    assert top1 == pytest.approx(np.sum(freqs[present] * classwise[present]), abs=1e-12)


@st.composite
def eval_sets(draw):
    """Integer logits (many argmax ties) over a random subset of the classes."""
    c = draw(st.integers(2, 6))
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    n = draw(st.integers(1, 60))
    labels = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    logits = draw(st.lists(st.integers(0, 2), min_size=n * c, max_size=n * c))
    return dataset_from_logits(np.reshape(logits, (n, c)), labels)


@settings(max_examples=200, deadline=None)
@given(eval_sets())
def test_evaluate_matches_per_class_oracle_bytes(ds):
    model = logit_passthrough(ds.c_total)
    top1, classwise = evaluate(model, ds)
    want_top1, want = evaluate_oracle(model, ds)
    assert np.float64(top1).tobytes() == np.float64(want_top1).tobytes()
    assert classwise.tobytes() == want.tobytes()  # absent classes keep np.nan's bytes


# ------------------------------------------------------------- consistency

def test_consistency_identical_vectors():
    v = np.array([0.5, 0.2, 0.9])
    assert consistency(v, v) == pytest.approx(1.0)


def test_consistency_orthogonal():
    assert consistency(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_consistency_hand_value():
    got = consistency(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert got == pytest.approx(0.707107, abs=1e-6)


def test_consistency_skips_nan_positions():
    a = np.array([1.0, np.nan, 0.5])
    b = np.array([1.0, 0.9, 0.5])
    assert consistency(a, b) == pytest.approx(1.0)


def test_consistency_zero_vectors_sentinel():
    assert consistency(np.zeros(3), np.array([1.0, 0, 0])) == 0.0


def test_consistency_rejects_length_mismatch():
    with pytest.raises(ValueError):
        consistency(np.zeros(2), np.zeros(3))


# ------------------------------------------------------ forgetting measure

def history_from(*rows):
    return [np.asarray(row, dtype=np.float64) for row in rows]


def test_fm_constant_history_is_zero():
    history = history_from([0.5, 0.7], [0.5, 0.7], [0.5, 0.7])
    assert forgetting_measure(history) == pytest.approx(0.0)


def test_fm_hand_arithmetic():
    # class histories [0.9, 0.5] and [0.4, 0.8]: drops 0.4 and -0.4 average 0
    history = history_from([0.9, 0.4], [0.5, 0.8])
    assert forgetting_measure(history) == pytest.approx(0.0)


def test_fm_non_positive_for_monotone_improvement():
    history = history_from([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
    assert forgetting_measure(history) <= 0.0


def test_fm_two_checkpoints_is_mean_difference():
    rng = np.random.default_rng(2)
    a, b = rng.random(6), rng.random(6)
    history = history_from(a, b)
    assert forgetting_measure(history) == pytest.approx(float(np.mean(a - b)))


def test_fm_requires_two_checkpoints():
    with pytest.raises(ValueError):
        forgetting_measure(history_from([0.5, 0.5]))


def test_fm_skips_absent_classes():
    history = history_from([0.8, np.nan], [0.2, np.nan])
    assert forgetting_measure(history) == pytest.approx(0.6)


# accuracies as evaluate produces them: NaN or a fraction in [0, 1], never -0.0
ACCURACY = st.one_of(st.just(np.nan), st.integers(0, 12).map(lambda k: k / 12),
                     st.floats(0, 1).map(abs))


@st.composite
def histories(draw):
    """Histories of 2-8 checkpoints, some classes with an all-NaN history."""
    t, c = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    hist = np.reshape(draw(st.lists(ACCURACY, min_size=t * c, max_size=t * c)), (t, c))
    hist[:-1, draw(st.lists(st.integers(0, c - 1), max_size=c))] = np.nan
    return list(hist)


@settings(max_examples=200, deadline=None)
@given(histories())
def test_forgetting_measure_matches_per_class_oracle_bytes(history):
    try:
        want = forgetting_measure_oracle(history)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            forgetting_measure(history)
        return
    assert np.float64(forgetting_measure(history)).tobytes() == np.float64(want).tobytes()
