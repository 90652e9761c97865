"""SHA-256 digests of the output files of a fixed grid of runs.

Run from the repository root on two commits and diff the outputs:

    PYTHONPATH=src python -W error::RuntimeWarning tools/output_matrix.py > outputs.txt

(`-W error::RuntimeWarning` turns a numpy warning in any verb into a failure.)

A refactor that claims byte-identical outputs prints the same lines as its
parent. The grid is every mode x master seeds 0 and 1 x eval granularity
`round` and `client` x three synthetic shapes, all variations of
`configs/synthetic_small.json`:

- `small`: the config as shipped (8 -> 32 -> 10);
- `wide`: a 784 -> 64 -> 10 shape with 30 clients and 4 rounds;
- `sparse`: 4 classes, one class per client and alpha 0.05, so many clients
  are empty and some rounds of every mode sample only empty clients: such
  a round trains no client, has no teachers and is noted as skipped, and
  after a sequential one the next round has no teachers either.

Each `run` case prints one line with the digests of `rounds.jsonl`,
`summary.csv` and `model_final.bin`. Then, per shape, `ablate --axis
teachers` and `--axis mode` over seeds 0 and 1 print the digest of their
CSV. After those, the digest of the stdout of `inspect-partition` per shape,
and of `select` on one fixed CSV per solver, so every verb is covered.

Last comes the `idx` shape, which reads IDX files instead of drawing blobs:
a train pair of 120 and a test pair of 45 4x4 images over 3 classes, every
class in each, written from a fixed seed into the temporary directory. Its
two cases are `files` (the test pair is the test set) and `split`
(`dataset.test_fraction` splits the train pair). Each case runs `sfedkd` and
`fedseq` at master seed 0, one line per run as above, then prints the
digest of its `inspect-partition` stdout.

The bytes depend on the BLAS thread count, so the script pins one thread
before numpy loads.
"""

import contextlib
import hashlib
import io
import os
import struct
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
IDX_SHAPE = ["dataset.kind=idx", "partition.N=6", "train.M=3", "train.K=2", "train.R=3"]
RUN_FILES = ("rounds.jsonl", "summary.csv", "model_final.bin")
# eight candidates over five classes, with a header line and a tie between
# rows 2 and 6; `select --k 3` reads it with every solver
SELECT_CSV = """c0,c1,c2,c3,c4
0.6,0.1,0.1,0.1,0.1
0,0.5,0.5,0,0
0.2,0.2,0.2,0.2,0.2
3,0,0,1,0
0.05,0.05,0.3,0.3,0.3
0,0,0,0,1
0.2,0.2,0.2,0.2,0.2
0.1,0.7,0,0.1,0.1
"""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(args: list[str]) -> str:
    """The stdout of `sfedkd *args`; exits on a non-zero exit code."""
    from sfedkd.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    if code:
        sys.exit(f"exit {code}: sfedkd {' '.join(args)}")
    return out.getvalue()


def sets(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def print_run(label: str, overrides: list[str], out: Path) -> None:
    """Print the digests of the files `sfedkd run` writes into `out`."""
    cli(["run", str(CONFIG), *sets([*overrides, f"output.dir={out}"])])
    digests = " ".join(f"{name}={sha256(out / name)}" for name in RUN_FILES)
    print(f"{label} {digests}", flush=True)


def print_stdout(label: str, args: list[str]) -> None:
    stdout = cli(args).encode()
    print(f"{label} stdout={hashlib.sha256(stdout).hexdigest()}", flush=True)


def write_idx_pair(path: Path, n: int, rng) -> None:
    """n random 4x4 images over 3 classes, every class present, as the IDX
    pair `path`-images and `path`-labels."""
    labels = (rng.permutation(n) % 3).astype("u1")
    images = rng.integers(0, 256, (n, 4, 4)).astype("u1")
    Path(f"{path}-images").write_bytes(struct.pack(">IIII", 0x803, n, 4, 4) + images.tobytes())
    Path(f"{path}-labels").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def run_idx(out: Path) -> None:
    import numpy as np
    rng = np.random.default_rng(0)
    write_idx_pair(out / "train", 120, rng)
    write_idx_pair(out / "test", 45, rng)
    shape = [*IDX_SHAPE, f"dataset.images={out}/train-images",
             f"dataset.labels={out}/train-labels"]
    cases = {"files": [f"dataset.test_images={out}/test-images",
                       f"dataset.test_labels={out}/test-labels"],
             "split": ["dataset.test_fraction=0.4"]}
    for case, overrides in cases.items():
        for mode in ("sfedkd", "fedseq"):
            print_run(f"idx/{case}/{mode}/seed0",
                      [*shape, *overrides, f"train.mode={mode}", "master_seed=0"], out)
        print_stdout(f"idx/{case}/inspect-partition",
                     ["inspect-partition", str(CONFIG), *sets([*shape, *overrides])])


def run() -> None:
    from sfedkd.config import MODES
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for shape, overrides in SHAPES.items():
            for mode in MODES:
                for seed in (0, 1):
                    for granularity in ("round", "client"):
                        print_run(f"{shape}/{mode}/seed{seed}/{granularity}",
                                  [*overrides, f"train.mode={mode}", f"master_seed={seed}",
                                   f"eval.granularity={granularity}"], out)
            for axis in ("teachers", "mode"):
                cli(["ablate", str(CONFIG), "--axis", axis, "--set", "ablate.seeds=[0,1]",
                     *sets([*overrides, f"output.dir={out}"])])
                print(f"{shape}/ablate_{axis} ablate_{axis}.csv="
                      f"{sha256(out / f'ablate_{axis}.csv')}", flush=True)
        for shape, overrides in SHAPES.items():
            print_stdout(f"{shape}/inspect-partition",
                         ["inspect-partition", str(CONFIG), *sets(overrides)])
        csv = out / "dists.csv"
        csv.write_text(SELECT_CSV)
        for solver in ("greedy", "exact", "random"):
            print_stdout(f"select/{solver}", ["select", str(csv), "--k", "3", "--solver", solver])
        run_idx(out)


if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before sfedkd loads numpy
    run()
