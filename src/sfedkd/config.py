"""Experiment configuration: JSON loading, declarations, validation, overrides.

Config files are plain JSON with nested blocks (dataset / partition / model /
train / eval / output / ablate). Any field can be overridden from the command
line with `--set dotted.path=value`. Each field is declared once, on the
dataclass of its block: its type annotation, its default and its bound or
choice list. Constructing a block checks every field against those
declarations, whether the block comes from JSON or is built in Python.
Errors carry the dotted field path of the offending entry. These declarations,
with the comments on them, are the reference for every config field.

This module imports nothing from the package, so data, distill and engine
take their config blocks and seed helpers from here.
"""

import copy
import json
import math
import operator
import types
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

METRICS = ("L1", "L2", "KL", "JS")

# Each mode's (teacher solver, averages): a mode with no solver trains without
# distillation, and one that averages trains each client from the global model.
MODES = {"sfedkd": ("greedy", False), "fedseq": (None, False), "fedavg": (None, True),
         "sfedkd_random_teachers": ("random", False)}

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


class ConfigError(ValueError):
    """Invalid configuration; `field` is the dotted path of the bad entry, or its file."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path
        self.reason = message


def option(default, **rules):
    """Declare a config field: its default and the rules its block checks.

    `ge`, `gt` and `lt` bound a number, `choices` lists the allowed values and
    `nonempty` requires a list to hold an item. On a list field, bounds and
    choices apply to every item.
    """
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=rules)
    return field(default=default, metadata=rules)


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "lt": ("<", operator.lt)}


def _checked(tp, value, rules, path):
    if isinstance(tp, types.UnionType):  # `T | None`
        if value is None:
            return None
        tp, _ = tp.__args__
    if is_dataclass(tp):
        return value if isinstance(value, tp) else _build(tp, value, path)
    if getattr(tp, "__origin__", None) is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if rules.get("nonempty") and not value:
            raise ConfigError(path, "must not be empty")
        return [_checked(tp.__args__[0], item, rules, path) for item in value]
    if (not isinstance(value, (int, float) if tp is float else tp)
            or isinstance(value, bool) != (tp is bool)):
        raise ConfigError(path, f"expected {_TYPE_NAMES[tp]}, got {value!r}")
    if tp is float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
    if "choices" in rules and value not in rules["choices"]:
        raise ConfigError(path, f"must be one of {list(rules['choices'])}, got {value!r}")
    for rule, (sign, holds) in _BOUNDS.items():
        if rule in rules and not holds(value, rules[rule]):
            raise ConfigError(path, f"must be {sign} {rules[rule]}, got {value!r}")
    return value


def _build(cls, raw, path: str = ""):
    """A `cls` block from a dict of its fields; absent fields take their defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {raw!r}")
    prefix = f"{path}." if path else ""
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    try:
        return cls(**raw)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.field, exc.reason) from None


class _Block:
    """Base of the config blocks: construction checks every field against its
    declaration. Ints pass for float fields and are stored as floats, bools
    pass only for bool fields, and floats must be finite. A dict given for a
    nested block is built into that block. ConfigError names the field."""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _checked(f.type, getattr(self, f.name), f.metadata, f.name))


@dataclass
class DatasetConfig(_Block):
    kind: str = option("synthetic", choices=("synthetic", "idx"))
    name: str = "synthetic"                      # a label; only config.resolved.json has it
    # n_per_class, classes, features and spread are read only by synthetic data
    n_per_class: int = option(150, ge=1)
    classes: int = option(10, ge=2)
    features: int = option(16, ge=2)
    spread: float = option(2.5, gt=0)            # noise std per coordinate: <=1 separable, >=3 hard
    test_fraction: float = option(0.2, ge=0, lt=1)  # stratified held-out share; 0: no split
    images: str | None = None                    # IDX paths (kind == "idx")
    labels: str | None = None
    test_images: str | None = None               # a test pair; then test_fraction is ignored
    test_labels: str | None = None


@dataclass
class PartitionConfig(_Block):
    """Extended-Dirichlet partition parameters: N clients, C classes each."""

    N: int = option(100, ge=1)
    C: int = option(2, ge=1)
    alpha: float = option(0.5, gt=0)  # smaller is more heterogeneous


@dataclass
class PartitionSpec(PartitionConfig):
    """One partition draw: the config plus the seed, which a run derives from master_seed."""

    seed: int = field(kw_only=True, metadata={"ge": 0})


@dataclass
class ModelConfig(_Block):
    hidden: list[int] = option([32], ge=1, nonempty=True)  # dims (features, *hidden, classes)


@dataclass
class KDConfig(_Block):
    """Distillation knobs; gamma weights the non-target term, beta the target term, and
    metric is the class-distribution distance that teacher weights and selection use."""

    tau: float = option(4.0, gt=0)  # distillation temperature; the default 4.0 is assumed
    gamma: float = option(1.0, ge=0)
    beta: float = option(3.0, ge=0)
    metric: str = option("KL", choices=METRICS)
    uniform_g: bool = False    # ablation: replace g with uniform weights
    uniform_h: bool = False    # ablation: replace h with uniform weights


@dataclass
class TrainConfig(_Block):
    M: int = option(10, ge=1)  # clients sampled per round
    K: int = option(5, ge=1)   # teachers distilled from
    R: int = option(60, ge=1)  # rounds
    E: int = option(5, ge=1)   # local epochs
    batch_size: int = option(64, ge=1)
    eta: float = option(0.01, gt=0)  # SGD learning rate
    mode: str = option("sfedkd", choices=MODES)
    kd: KDConfig = field(default_factory=KDConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.K > self.M:
            raise ConfigError("K", f"K={self.K} exceeds M={self.M}")


@dataclass
class EvalConfig(_Block):
    # checkpoint cadence of the consistency and forgetting traces
    granularity: str = option("round", choices=("round", "client"))
    split: str = option("test", choices=("test", "train"))


@dataclass
class OutputConfig(_Block):
    dir: str = "runs/experiment"


@dataclass
class AblateConfig(_Block):
    seeds: list[int] | None = option(None, ge=0, nonempty=True)     # [master_seed] when None
    k_values: list[int] | None = option(None, ge=1, nonempty=True)  # [train.K] when None


@dataclass
class ExperimentConfig(_Block):
    master_seed: int = option(0, ge=0)  # root of every random stream
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    ablate: AblateConfig = field(default_factory=AblateConfig)

    @property
    def hidden(self) -> list[int]:
        return self.model.hidden


def _read_utf8(path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark; other
    bytes are a ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text ({exc})") from None


def load_raw_config(path) -> dict:
    try:
        raw = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "config must be a JSON object")
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `dotted.path=value` overrides; values parse as JSON, else string."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like dotted.path=value")
        path, _, text = item.partition("=")
        keys = path.split(".")
        if "" in keys:
            raise ConfigError(item, "override path has an empty segment")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(path, "override path crosses a non-object")
        node[keys[-1]] = value
    return out


def resolve_config(raw: dict) -> ExperimentConfig:
    """Fill defaults, check every field, then the rules that span fields. The rules on
    the data are checked where it is built, and each seed is derived where it is used."""
    cfg = _build(ExperimentConfig, raw)
    ds, part, train = cfg.dataset, cfg.partition, cfg.train
    if cfg.ablate.seeds is None:
        cfg.ablate.seeds = [cfg.master_seed]
    if cfg.ablate.k_values is None:
        cfg.ablate.k_values = [train.K]

    paths = [n for n in ("images", "labels", "test_images", "test_labels") if getattr(ds, n)]
    if ds.kind == "synthetic" and paths:
        raise ConfigError(f"dataset.{paths[0]}", "only read when dataset.kind is idx")
    if ds.kind == "idx" and not (ds.images and ds.labels):
        raise ConfigError("dataset.images", "idx datasets need images and labels paths")
    if bool(ds.test_images) != bool(ds.test_labels):
        missing = "test_labels" if ds.test_images else "test_images"
        raise ConfigError(f"dataset.{missing}", "test images and labels come as a pair")
    if train.M > part.N:
        raise ConfigError("train.M", f"M={train.M} exceeds partition.N={part.N}")
    return cfg
