"""Config validation: every field's declared type and bound, the rules that
span fields, the rules on the data (checked where the data is built, for
every verb), and the errors a bad block, a non-finite number or a half IDX
test pair produce."""

import json
import struct
from dataclasses import asdict
from pathlib import Path

import pytest

from sfedkd.cli import _ablation_cells, main
from sfedkd.config import ConfigError, ExperimentConfig, apply_overrides, resolve_config
from sfedkd.data import PartitionSpec
from sfedkd.distill import KDConfig
from sfedkd.engine import TrainConfig
from sfedkd.experiment import build_dataset, run_experiment

ROOT = Path(__file__).resolve().parent.parent

# One bad value per row, on top of the defaults. Each row was rejected at
# the same dotted path before the declarations moved onto the dataclasses.
# A list-valued row's test id carries its position, so rows are replaced in
# place rather than deleted.
REJECTED = [
    # wrong type
    ("master_seed", "0"), ("master_seed", 1.5),
    ("dataset.kind", 5), ("dataset.name", 5), ("dataset.n_per_class", "x"),
    ("dataset.classes", 2.0), ("dataset.features", "x"), ("dataset.spread", "x"),
    ("dataset.seed", "x"), ("dataset.seed", 1.5), ("dataset.test_fraction", "x"),
    ("dataset.split_seed", "x"),
    ("partition.N", "x"), ("partition.C", 1.5), ("partition.alpha", "x"),
    ("partition.seed", "x"),
    ("model.hidden", 32), ("model.hidden", "x"), ("model.hidden", [1.5]),
    ("train.M", "x"), ("train.K", 1.5), ("train.R", "x"), ("train.E", "x"),
    ("train.batch_size", 64.0), ("train.eta", "x"), ("train.weight_decay", "x"),
    ("train.mode", 5),
    ("train.kd.tau", "x"), ("train.kd.gamma", "x"), ("train.kd.beta", [1]),
    ("train.kd.metric", 5), ("train.kd.epsilon", "x"), ("train.kd.uniform_g", 1),
    ("train.kd.uniform_g", "yes"), ("train.kd.uniform_h", 0),
    ("eval.granularity", 5), ("eval.split", 5),
    ("output.dir", 5), ("output.dir", True), ("output.dir", ["x"]),
    ("ablate.seeds", "x"), ("ablate.seeds", 5), ("ablate.seeds", [1.5]),
    ("ablate.k_values", "x"), ("ablate.k_values", [1.5]),
    # bool where a number belongs
    ("master_seed", True), ("dataset.n_per_class", True), ("dataset.classes", True),
    ("dataset.features", True), ("dataset.spread", True), ("dataset.seed", True),
    ("dataset.test_fraction", False), ("dataset.split_seed", True),
    ("partition.N", True), ("partition.C", True), ("partition.alpha", True),
    ("partition.seed", False), ("model.hidden", [True]),
    ("train.M", True), ("train.K", True), ("train.R", True), ("train.E", True),
    ("train.batch_size", True), ("train.eta", True), ("train.weight_decay", False),
    ("train.kd.tau", True), ("train.kd.gamma", True), ("train.kd.beta", True),
    ("train.kd.epsilon", True), ("ablate.seeds", [True]), ("ablate.k_values", [True]),
    # out of bound or not a listed choice
    ("master_seed", -1), ("dataset.kind", "csv"), ("dataset.n_per_class", 0),
    ("dataset.classes", 1), ("dataset.features", 1), ("dataset.spread", 0),
    ("dataset.spread", -1.0), ("dataset.seed", -1), ("dataset.test_fraction", -0.1),
    ("dataset.test_fraction", 1), ("dataset.test_fraction", 1.5),
    ("dataset.split_seed", -1),
    ("partition.N", 0), ("partition.C", 0), ("partition.alpha", 0),
    ("partition.seed", -1), ("model.hidden", []), ("model.hidden", [0]),
    ("model.hidden", [16, -1]),
    ("train.M", 0), ("train.K", 0), ("train.R", 0), ("train.E", 0),
    ("train.batch_size", 0), ("train.eta", 0), ("train.eta", -0.01),
    ("train.weight_decay", -1e-4), ("train.mode", "fedprox"),
    ("train.kd.tau", 0), ("train.kd.gamma", -1), ("train.kd.beta", -0.5),
    ("train.kd.metric", "cosine"), ("train.kd.epsilon", 0),
    ("eval.granularity", "epoch"), ("eval.split", "val"),
    ("train.kd.metric", "kl"), ("ablate.seeds", []), ("ablate.seeds", [0, -1]),
    ("ablate.k_values", []), ("ablate.k_values", [0]),
    # rules that span fields
    ("train.K", 11), ("train.M", 101),
    # rules on the data, checked where the data is built
    ("partition.C", 11), ("dataset.test_fraction", 0), ("dataset.test_fraction", 0.999),
    ("partition.alpha", 1e308), ("train.kd.epsilon", 5e-324),
]

# Rows whose error names another field than the one set.
REJECTED_ELSEWHERE = [
    ("dataset.kind", "idx", "dataset.images"),           # no IDX paths
]

UNKNOWN = ["color", "dataset.color", "partition.color", "model.color",
           "train.color", "train.kd.color", "eval.color", "output.color",
           "ablate.color"]


def raw_with(path, value):
    return apply_overrides({}, [f"{path}={json.dumps(value)}"])


@pytest.mark.parametrize("path,value,field",
                         [(p, v, p) for p, v in REJECTED] + REJECTED_ELSEWHERE)
def test_bad_value_rejected_at_its_path(path, value, field):
    # the set-up of a run: every row fails before the first round
    with pytest.raises(ConfigError) as exc:
        run_experiment(resolve_config(raw_with(path, value)))
    assert exc.value.field == field


@pytest.mark.parametrize("path", UNKNOWN)
def test_unknown_key_rejected_at_its_path(path):
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw_with(path, 1))
    assert exc.value.field == path


def leaf_paths(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


IDX_PATHS = {"dataset.images", "dataset.labels", "dataset.test_images", "dataset.test_labels"}


def test_rejection_table_covers_every_field():
    assert {path for path, _ in REJECTED} | IDX_PATHS == set(leaf_paths(asdict(ExperimentConfig())))


@pytest.mark.parametrize("raw,field", [
    ({"train": 5}, "train"),
    ({"dataset": None}, "dataset"),
    ({"train": {"kd": [1]}}, "train.kd"),
    ({"ablate": "x"}, "ablate"),
])
def test_block_that_is_not_an_object_rejected(raw, field):
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw)
    assert exc.value.field == field


def test_cli_block_that_is_not_an_object_exits_2(tmp_path, capsys):
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", "train=5", "--set", f"output.dir={tmp_path}"]) == 2
    assert "config error: train: expected an object" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", ["=5", ".R=5", "train.=5", "train..R=5"])
def test_override_with_an_empty_path_segment_names_the_override(tmp_path, capsys, override):
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", override, "--set", f"output.dir={tmp_path}"]) == 2
    assert capsys.readouterr().err == \
        f"config error: {override}: override path has an empty segment\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", [
    "dataset.test_fraction=NaN", "train.eta=NaN", "train.kd.tau=NaN",
    "partition.alpha=Infinity", "train.weight_decay=-Infinity",
    "train.eta=1" + "0" * 400,  # an int too large for a float
])
def test_non_finite_number_rejected_with_its_path(tmp_path, capsys, override):
    path = override.partition("=")[0]
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", override, "--set", f"output.dir={tmp_path}"]) == 2
    assert f"config error: {path}: expected a finite number" in capsys.readouterr().err
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw_with(path, float("nan")))
    assert exc.value.field == path


def test_int_for_float_field_written_back_as_float():
    resolved = asdict(resolve_config({"train": {"eta": 1, "kd": {"tau": 2}}}))
    assert json.dumps(resolved["train"]["eta"]) == "1.0"
    assert json.dumps(resolved["train"]["kd"]["tau"]) == "2.0"


IDX = {"kind": "idx", "images": "train-images", "labels": "train-labels"}


@pytest.mark.parametrize("path", sorted(IDX_PATHS))
def test_idx_path_must_be_a_string(path):
    name = path.partition(".")[2]
    with pytest.raises(ConfigError) as exc:
        resolve_config({"dataset": {**IDX, name: 5}})
    assert exc.value.field == path


@pytest.mark.parametrize("given,missing", [("test_images", "test_labels"),
                                           ("test_labels", "test_images")])
def test_half_idx_test_pair_names_the_missing_field(given, missing):
    with pytest.raises(ConfigError) as exc:
        resolve_config({"dataset": {**IDX, given: "t10k", "test_fraction": 0}})
    assert exc.value.field == f"dataset.{missing}"
    full = {**IDX, "test_images": "t10k-images", "test_labels": "t10k-labels",
            "test_fraction": 0}
    assert resolve_config({"dataset": full}).dataset.test_labels == "t10k-labels"


@pytest.mark.parametrize("make,field", [
    (lambda: TrainConfig(M=3, K=5), "K"),
    (lambda: TrainConfig(eta=0), "eta"),
    (lambda: TrainConfig(mode="fedprox"), "mode"),
    (lambda: TrainConfig(kd={"tau": -1.0}), "kd.tau"),
    (lambda: KDConfig(tau=float("nan")), "tau"),
    (lambda: KDConfig(uniform_h=1), "uniform_h"),
    (lambda: PartitionSpec(N=0, C=1, alpha=0.5, seed=0), "N"),
    (lambda: PartitionSpec(N=2, C=1, alpha=float("inf"), seed=0), "alpha"),
    (lambda: PartitionSpec(N=2, C=1, alpha=0.5, seed=True), "seed"),
])
def test_direct_construction_checks_the_same_declarations(make, field):
    with pytest.raises(ValueError) as exc:
        make()
    assert isinstance(exc.value, ConfigError) and exc.value.field == field


def test_teachers_axis_reads_solvers_from_mode_table():
    cfg = resolve_config({"ablate": {"k_values": [2]}})
    assert _ablation_cells("teachers", cfg) == [
        ({"K": 2, "solver": "greedy"}, ["train.K=2", "train.mode=sfedkd"]),
        ({"K": 2, "solver": "random"}, ["train.K=2", "train.mode=sfedkd_random_teachers"]),
    ]


def test_classes_not_covered_by_partition_names_partition_c(tmp_path, capsys):
    cfg = resolve_config({"partition": {"N": 4, "C": 2}, "train": {"M": 3, "K": 2}})
    with pytest.raises(ConfigError) as exc:
        build_dataset(cfg)
    assert exc.value.field == "partition.C"
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", "partition.N=4", "--set", "train.M=3", "--set", "train.K=2",
                 "--set", "ablate.k_values=[2]", "--set", f"output.dir={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert "config error: partition.C: N*C=8 cannot cover all 10 classes" in err
    assert not any(tmp_path.iterdir())
    # N*C equal to the class count is enough
    assert build_dataset(resolve_config({"partition": {"N": 1, "C": 10},
                                         "train": {"M": 1, "K": 1}}))


def test_empty_evaluation_split_exits_2_naming_test_fraction(tmp_path, capsys):
    # one sample per class and test_fraction 0.4: every class rounds its
    # test share to 0, so no round could be evaluated
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", "dataset.n_per_class=1", "--set", f"output.dir={tmp_path}"]) == 2
    assert "config error: dataset.test_fraction: 0.4 leaves the test split empty" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_oversized_synthetic_data_exits_2_naming_n_per_class(tmp_path, capsys):
    # 10 x 10**12 labels exceed any address space, so numpy refuses them
    # with MemoryError before it allocates anything; 10 x 10**18 overflows
    # numpy's dimension arithmetic, which raises ValueError instead
    for n_per_class in (10**12, 10**18):
        assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                     "--set", f"dataset.n_per_class={n_per_class}",
                     "--set", f"output.dir={tmp_path}"]) == 2
        assert f"config error: dataset.n_per_class: 10 classes x {n_per_class} x 8 float64 " \
            "values are too many to allocate" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_oversized_synthetic_features_exit_2_naming_features(tmp_path, capsys):
    # the 2000 labels allocate; the 1600 x 10**18 train buffer cannot
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", "dataset.features=1000000000000000000",
                 "--set", f"output.dir={tmp_path}"]) == 2
    assert "config error: dataset.features: 10 classes x 200 x 1000000000000000000 float64 " \
        "values are too many to allocate" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_oversized_model_exits_2_naming_hidden(tmp_path, capsys):
    # as above: 8 x 10**12 weights raise MemoryError, 8 x 10**18 ValueError,
    # both before numpy allocates anything
    for width in (10**12, 10**18):
        assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                     "--set", f"model.hidden=[{width}]",
                     "--set", f"output.dir={tmp_path}"]) == 2
        assert f"config error: model.hidden: the 8 -> {width} -> 10 model's float64 " \
            "values are too many to allocate" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seeds", ["x", "1,,2", "1,-2", ""])
def test_ablate_bad_seeds_rejected_by_the_parser(tmp_path, capsys, seeds):
    # ablate.seeds is the one seed list of ablate, checked by the config parser
    # before any cell runs: "[x]" and "[1,,2]" are not JSON lists, "[1,-2]"
    # holds a negative seed and "[]" none
    assert main(["ablate", str(ROOT / "configs" / "synthetic_small.json"), "--axis", "mode",
                 "--set", f"ablate.seeds=[{seeds}]", "--set", f"output.dir={tmp_path}"]) == 2
    assert "config error: ablate.seeds: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SMALL = ROOT / "configs" / "synthetic_small.json"


def three_class_idx_config(tmp_path, labels=tuple(i % 3 for i in range(30))):
    """synthetic_small.json with its dataset replaced by an IDX pair of 2x2
    images, one per label; by default 30 of them, labelled 0, 1 and 2."""
    img, lab = tmp_path / "img", tmp_path / "lab"
    n = len(labels)
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, 2, 2)
                    + bytes(i % 256 for i in range(4 * n)))
    lab.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    raw = json.loads(SMALL.read_text())
    raw["dataset"] = {"kind": "idx", "images": str(img), "labels": str(lab)}
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(raw))
    return path


# One reproduced set-up failure per row: the overrides and the start of the
# error. `idx_*` rows override the three-class IDX config, the others
# synthetic_small.json. Master seed 1 is one whose 1000 allocations of one
# class to each of 10 clients all leave a class out.
SET_UP_FAILURES = {
    "idx_c_exceeds_classes": (["partition.C=5"], "partition.C: C=5 exceeds the class count 3"),
    "allocation_attempts_run_out": (
        ["partition.N=10", "partition.C=1", "train.M=5", "master_seed=1"],
        "partition.C: no draw covered all 10 classes in 1000 attempts"),
    "empty_train_split": (["dataset.test_fraction=0.999"],
                          "dataset.test_fraction: 0.999 leaves no train rows"),
    "dirichlet_draw_of_zeros": (["partition.alpha=1e308"],
                                "partition.alpha: the Dirichlet draw over the "),
    "epsilon_below_bound": (["train.kd.epsilon=5e-324"],
                            "train.kd.epsilon: must be >= 1e-300, got 5e-324"),
    # the N x classes table is allocated before the first class draw
    "partition_n_too_big": (["partition.N=1000000000000"],
                            "partition.N: 1000000000000 clients x 10 classes are too many "
                            "to allocate"),
}


@pytest.mark.parametrize("verb", ["run", "ablate", "inspect-partition"])
@pytest.mark.parametrize("case", list(SET_UP_FAILURES))
def test_set_up_failure_exits_2_naming_its_field(tmp_path, capsys, case, verb):
    # each rule has one check, where the data is built or the field is
    # declared, so every verb reports it alike and writes nothing
    overrides, message = SET_UP_FAILURES[case]
    config = three_class_idx_config(tmp_path) if case.startswith("idx_") else SMALL
    out = tmp_path / "out"
    args = [verb, str(config), *(["--axis", "mode"] if verb == "ablate" else [])]
    for override in overrides + [f"output.dir={out}"]:
        args += ["--set", override]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "ablate", "inspect-partition"])
@pytest.mark.parametrize("labels,overrides,message", [
    # labels 0 and 2 only: the file counts 3 classes, and class 1 has no sample
    ([0, 2] * 15, [], "error: {lab}: no sample has label 1, though the labels run up to 2"),
    # the one sample of class 2 goes to the test split
    ([0, 1] * 15 + [2], ["dataset.test_fraction=0.6"],
     "config error: dataset.test_fraction: 0.6 leaves class 2 no train rows"),
], ids=["idx_labels_skip_a_class", "split_leaves_a_class_no_train_rows"])
def test_a_class_missing_from_the_train_labels_is_named(tmp_path, capsys, verb, labels,
                                                       overrides, message):
    config = three_class_idx_config(tmp_path, labels)
    out = tmp_path / "out"
    args = [verb, str(config), *(["--axis", "mode"] if verb == "ablate" else [])]
    for override in overrides + [f"output.dir={out}"]:
        args += ["--set", override]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == message.format(lab=tmp_path / "lab") + "\n"
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("override,field", [("model.hidden=[1000000000000]", "model.hidden"),
                                            ("dataset.test_fraction=0", "dataset.test_fraction")])
def test_inspect_partition_checks_only_the_rules_it_uses(tmp_path, capsys, override, field):
    # a run rejects the value; the partition never uses it
    assert main(["run", str(SMALL), "--set", override, "--set", f"output.dir={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert main(["inspect-partition", str(SMALL), "--set", override]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20


def test_epsilon_at_its_bound_trains(tmp_path):
    # every client trains every round, so a client meets its own previous
    # model as a teacher at distance 0; at epsilon=5e-324 its 1/epsilon
    # overflowed (a RuntimeWarning, so a failure here)
    assert main(["run", str(SMALL), "--set", "partition.N=5", "--set", "partition.C=4",
                 "--set", "train.M=5", "--set", "train.R=4", "--set", "train.kd.epsilon=1e-300",
                 "--set", f"output.dir={tmp_path}"]) == 0
