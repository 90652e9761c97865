"""Config validation: every field's declared type and bound, the rules that
span fields, and the errors a bad block, a non-finite number or a half IDX
test pair produce."""

import json
from pathlib import Path

import pytest

from sfedkd.cli import _ablation_cells, main
from sfedkd.config import DEFAULTS, ConfigError, apply_overrides, resolve_config
from sfedkd.data import PartitionSpec
from sfedkd.distill import KDConfig
from sfedkd.engine import TrainConfig

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
    ("train.K", 11), ("train.M", 101), ("partition.C", 11),
]

# Rows whose error names another field than the one set.
REJECTED_ELSEWHERE = [
    ("dataset.kind", "idx", "dataset.images"),           # no IDX paths
    ("dataset.test_fraction", 0, "eval.split"),         # no test split left
]

UNKNOWN = ["color", "dataset.color", "partition.color", "model.color",
           "train.color", "train.kd.color", "eval.color", "output.color",
           "ablate.color"]


def raw_with(path, value):
    return apply_overrides({}, [f"{path}={json.dumps(value)}"])


@pytest.mark.parametrize("path,value,field",
                         [(p, v, p) for p, v in REJECTED] + REJECTED_ELSEWHERE)
def test_bad_value_rejected_at_its_path(path, value, field):
    with pytest.raises(ConfigError) as exc:
        resolve_config(raw_with(path, value))
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
    assert {path for path, _ in REJECTED} | IDX_PATHS == set(leaf_paths(DEFAULTS))


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
    resolved = resolve_config({"train": {"eta": 1, "kd": {"tau": 2}}}).to_resolved_dict()
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
    with pytest.raises(ConfigError) as exc:
        resolve_config({"partition": {"N": 4, "C": 2}, "train": {"M": 3, "K": 2}})
    assert exc.value.field == "partition.C"
    assert main(["run", str(ROOT / "configs" / "synthetic_small.json"),
                 "--set", "partition.N=4", "--set", "train.M=3", "--set", "train.K=2",
                 "--set", "ablate.k_values=[2]", "--set", f"output.dir={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert "config error: partition.C: partition.N*C=8 cannot cover all 10 classes" in err
    assert resolve_config({"partition": {"N": 5, "C": 2}, "train": {"M": 3, "K": 2}})


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


@pytest.mark.parametrize("seeds", ["x", "1,,2", "1,-2", ""])
def test_ablate_bad_seeds_rejected_by_the_parser(tmp_path, capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", str(ROOT / "configs" / "synthetic_small.json"), "--axis", "mode",
              "--seeds", seeds, "--set", f"output.dir={tmp_path}"])
    assert exc.value.code == 2
    assert "argument --seeds: expected comma-separated non-negative integers" in \
        capsys.readouterr().err
