"""One table per input rule, run through every public entry point that
enforces it: a label lies in [0, C); a class distribution (or a g/h row,
or a normalized aggregate) is non-negative, finite and sums to 1, which
an all-zero vector does not; a set of class distributions has one length;
a teacher count lies in [1, m]; a metric is one of METRICS. Each entry
point raises the same error for the same bad input."""

import re
import struct

import numpy as np
import pytest

from sfedkd.data import (ClassDistribution, Dataset, IdxFormatError, PartitionSpec,
                         partition_exdir, read_idx, split_train_test)
from sfedkd.distill import (TeacherEnsemble, discrepancy, nckd_loss, tckd_loss,
                            teacher_weights)
from sfedkd.model import cross_entropy_grad, init_params, label_index
from sfedkd.selection import (SelectionInstance, aggregate_objective, brute_force_select,
                              greedy_select, random_select)

C = 3
SPEC = PartitionSpec(N=2, C=2, alpha=1.0, seed=0)
Z = np.zeros((4, C))

# ----------------------------------------------------- label in [0, C)

LABEL_CALLERS = {
    "Dataset": lambda y: Dataset(np.zeros((len(y), 2)), y, C),
    "partition_exdir": lambda y: partition_exdir(np.array(y), C, SPEC),
    "split_train_test": lambda y: split_train_test(np.array(y), C, 0.5, seed=0),
    "label_index": lambda y: label_index(y, C),
    "cross_entropy_grad": lambda y: cross_entropy_grad(Z, y),
    "nckd_loss": lambda y: nckd_loss(Z, [Z], y, [1.0], 2.0),
    "tckd_loss": lambda y: tckd_loss(Z, [Z], y, [1.0], 2.0),
}


@pytest.mark.parametrize("bad", [-1, C])
@pytest.mark.parametrize("caller", LABEL_CALLERS)
def test_label_outside_class_count_is_named(caller, bad):
    with pytest.raises(ValueError, match=re.escape(f"label {bad} outside [0, {C})")):
        LABEL_CALLERS[caller]([0, 1, bad, 2])


@pytest.mark.parametrize("bad", [C, 255])
def test_idx_label_outside_class_count_keeps_type_and_path(tmp_path, bad):
    img, lab = tmp_path / "img", tmp_path / "lab"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 3, 1, 1) + bytes(3))
    lab.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, bad, 1]))
    with pytest.raises(IdxFormatError, match=re.escape(f"{lab}: label {bad} outside [0, {C})")):
        read_idx(img, lab, n_classes=C)


# ------------------------- non-negative, finite, summing to 1 within 1e-9

BAD_VECTORS = {
    "negative": [-0.5, 1.5],
    "nan": [np.nan, np.nan],
    "inf": [np.inf, 0.0],
    "1e-8 off": [0.5, 0.5 + 1e-8],
    "all zero": [0.0, 0.0],
}
TEACHERS = [init_params((2, 3, 2), seed) for seed in (0, 1)]
TEACHER_DISTS = [ClassDistribution([0.5, 0.5]), ClassDistribution([0.9, 0.1])]


def _mutated_aggregate(vec):
    cand = ClassDistribution([0.5, 0.5])
    cand.proportions = np.array(vec)  # changed after validation
    return aggregate_objective([cand], [0], "L1")


DISTRIBUTION_CALLERS = {
    "ClassDistribution": ("proportions", lambda v: ClassDistribution(v)),
    "TeacherEnsemble.g": ("g", lambda v: TeacherEnsemble(TEACHERS, TEACHER_DISTS, [0, 1],
                                                         g=v, h=[0.5, 0.5])),
    "TeacherEnsemble.h": ("h", lambda v: TeacherEnsemble(TEACHERS, TEACHER_DISTS, [0, 1],
                                                         g=[0.5, 0.5], h=v)),
    "TeacherEnsemble.g row": ("g", lambda v: TeacherEnsemble(
        TEACHERS, TEACHER_DISTS, [0, 1], g=[[0.5, 0.5], v], h=[[0.5, 0.5]] * 2)),
    "aggregate_objective": ("aggregates", _mutated_aggregate),
}


# an aggregate is renormalized before the check, so a sum 1e-8 off is no fault there
DISTRIBUTION_CASES = [(caller, bad) for caller in DISTRIBUTION_CALLERS for bad in BAD_VECTORS
                      if (caller, bad) != ("aggregate_objective", "1e-8 off")]


@pytest.mark.parametrize("caller,bad", DISTRIBUTION_CASES)
def test_bad_distribution_rejected_naming_it(caller, bad):
    name, make = DISTRIBUTION_CALLERS[caller]
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=f"^{name} must be non-negative, finite and sum to 1"):
        make(BAD_VECTORS[bad])


def test_valid_distributions_pass_every_caller():
    for _, make in DISTRIBUTION_CALLERS.values():
        make([0.25, 0.75])


# ---------------------------------------- one length of class distribution
# (no member is empty: an all-zero vector is no distribution, see BAD_VECTORS)

UNEQUAL = [ClassDistribution([0.5, 0.5]), ClassDistribution([0.2, 0.3, 0.5])]

SET_CALLERS = {
    "SelectionInstance": lambda ds: SelectionInstance(ds, 1),
    "greedy_select": lambda ds: greedy_select(SelectionInstance(ds, 1)),
    "discrepancy": lambda ds: discrepancy(ds[0], ds[1], "L1"),
    "teacher_weights": lambda ds: teacher_weights(ds[:1], ds[1], "L1", 1e-4),
    "teacher_weights rows": lambda ds: teacher_weights(ds[:1], ds[1:], "L1", 1e-4),
}


@pytest.mark.parametrize("dists,message", [
    (UNEQUAL, "distributions must have equal length, got [2, 3]"),
], ids=["unequal"])
@pytest.mark.parametrize("caller", SET_CALLERS)
def test_distribution_set_needs_one_length_and_no_empty(caller, dists, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SET_CALLERS[caller](dists)


# --------------------------------------------- teacher count in [1, m]

COUNT_CALLERS = {
    "SelectionInstance": lambda m, k: SelectionInstance([ClassDistribution([0.5, 0.5])] * m, k),
    "random_select": lambda m, k: random_select(m, k, seed=0),
}


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("caller", COUNT_CALLERS)
def test_teacher_count_outside_one_to_m(caller, k):
    with pytest.raises(ValueError, match=re.escape(f"K={k} must lie in [1, 3]")):
        COUNT_CALLERS[caller](3, k)
    COUNT_CALLERS[caller](3, 3)


# ------------------------------------------ metric is one of METRICS

METRIC_CALLERS = {
    "greedy_select": lambda m: greedy_select(SelectionInstance(TEACHER_DISTS, 1, m)),
    "brute_force_select": lambda m: brute_force_select(SelectionInstance(TEACHER_DISTS, 1, m)),
    "aggregate_objective": lambda m: aggregate_objective(TEACHER_DISTS, [0], m),
    "discrepancy": lambda m: discrepancy(*TEACHER_DISTS, m),
    "teacher_weights": lambda m: teacher_weights(TEACHER_DISTS, TEACHER_DISTS[0], m, 1e-4),
}


@pytest.mark.parametrize("caller", METRIC_CALLERS)
def test_unknown_metric_is_named(caller):
    with pytest.raises(ValueError, match=re.escape("unknown metric 'cosine'")):
        METRIC_CALLERS[caller]("cosine")
