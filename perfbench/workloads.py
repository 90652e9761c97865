"""Workload definitions: which configs a benchmark run trains, and why.

A workload trains `federations` independent federations, one
`run_experiment` call per federation and mode. Federation i of seed s uses
master_seed = s * federations + i, so the first federation of seed 0 is the
shipped config's own seed and no two seeds share a federation. Averaging over
several federations matters because one federation's partition fixes how
many samples and batches its rounds process: across single federations the
work per run differs by several percent, which would drown the regressions
the bounds are meant to catch.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modes: tuple[str, ...]
    rounds: int
    federations: int
    setup_reps: int          # set-ups timed per federation and pass
    reference: tuple[str, ...]  # ReferenceKernel parts shaped like this workload
    config: str | None       # shipped config file, relative to the repo root
    overrides: dict | None   # config used when `config` is None

    def raw_config(self, root: Path, master_seed: int, mode: str) -> dict:
        if self.config is not None:
            raw = json.loads((root / self.config).read_text())
        else:
            raw = copy.deepcopy(self.overrides)
        raw["master_seed"] = master_seed
        raw["train"]["R"] = self.rounds
        raw["train"]["mode"] = mode
        return raw

    def master_seeds(self, seed: int) -> list[int]:
        return [seed * self.federations + i for i in range(self.federations)]


# The ROADMAP's Fashion-MNIST-shaped synthetic config (784 -> 64 -> 10).
FASHION_SHAPED = {
    "dataset": {"kind": "synthetic", "name": "fashion_shaped", "features": 784,
                "classes": 10, "n_per_class": 1000, "test_fraction": 0.2},
    "partition": {"N": 100},
    "model": {"hidden": [64]},
    "train": {"M": 10, "K": 5, "E": 5, "batch_size": 64, "eta": 0.01},
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="small_sfedkd",
        why="tiny matrices and K=3 teachers: distillation arithmetic and "
            "per-call Python overhead dominate, BLAS barely matters",
        modes=("sfedkd",), rounds=60, federations=4, setup_reps=10, reference=("small",),
        config="configs/synthetic_small.json", overrides=None,
    ),
    Workload(
        name="fashion_sfedkd",
        why="784-wide input, K=5 teachers: model GEMMs and teacher forwards "
            "dominate; the only workload with visible set-up time and memory",
        modes=("sfedkd",), rounds=10, federations=3, setup_reps=1, reference=("small", "wide"),
        config=None, overrides=FASHION_SHAPED,
    ),
    Workload(
        name="small_nokd",
        why="small_sfedkd's data as fedseq and fedavg: no teachers, so a "
            "distillation-only change should show no effect here",
        modes=("fedseq", "fedavg"), rounds=60, federations=4, setup_reps=10,
        reference=("small",),
        config="configs/synthetic_small.json", overrides=None,
    ),
)}
