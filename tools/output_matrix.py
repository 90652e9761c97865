"""SHA-256 digests of the output files of a fixed grid of runs.

Run from the repository root on two commits and diff the outputs:

    PYTHONPATH=src python tools/output_matrix.py > outputs.txt

A refactor that claims byte-identical outputs prints the same lines as its
parent. The grid is every mode x master seeds 0 and 1 x eval granularity
`round` and `client` x three shapes, all variations of
`configs/synthetic_small.json`:

- `small`: the config as shipped (8 -> 32 -> 10);
- `wide`: a 784 -> 64 -> 10 shape with 30 clients and 4 rounds;
- `sparse`: 4 classes, one class per client and alpha 0.05, so many clients
  are empty and some fedavg rounds sample only empty clients.

Each `run` case prints one line with the digests of `rounds.jsonl`,
`summary.csv` and `model_final.bin`. Then, per shape, `ablate --axis
teachers` and `--axis mode` over seeds 0 and 1 print the digest of their
CSV. The bytes depend on the BLAS thread count, so the script pins one
thread before numpy loads.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synthetic_small.json"
SHAPES = {
    "small": [],
    "wide": ["dataset.features=784", "model.hidden=[64]", "dataset.n_per_class=200",
             "partition.N=30", "train.M=10", "train.K=5", "train.E=2", "train.R=4",
             "train.eta=0.01"],
    "sparse": ["dataset.classes=4", "partition.N=12", "partition.C=1", "partition.alpha=0.05",
               "train.M=3", "train.K=2", "train.R=30", "ablate.k_values=[2]"],
}
RUN_FILES = ("rounds.jsonl", "summary.csv", "model_final.bin")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(args: list[str]) -> None:
    from sfedkd.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code:
        sys.exit(f"exit {code}: sfedkd {' '.join(args)}")


def sets(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def run() -> None:
    from sfedkd.config import MODES
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for shape, overrides in SHAPES.items():
            for mode in MODES:
                for seed in (0, 1):
                    for granularity in ("round", "client"):
                        cli(["run", str(CONFIG), *sets([
                            *overrides, f"train.mode={mode}", f"master_seed={seed}",
                            f"eval.granularity={granularity}", f"output.dir={out}"])])
                        digests = " ".join(f"{name}={sha256(out / name)}" for name in RUN_FILES)
                        print(f"{shape}/{mode}/seed{seed}/{granularity} {digests}", flush=True)
            for axis in ("teachers", "mode"):
                cli(["ablate", str(CONFIG), "--axis", axis, "--seeds", "0,1",
                     *sets([*overrides, f"output.dir={out}"])])
                print(f"{shape}/ablate_{axis} ablate_{axis}.csv="
                      f"{sha256(out / f'ablate_{axis}.csv')}", flush=True)


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before sfedkd loads numpy
    run()
