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
`summary.csv` and `model_final.bin`. Then, per shape, `ablate` on each
axis (`weights`, `metric`, `teachers` and `mode`) over seeds 0 and 1 prints
the digest of its CSV, so the uniform-weight cells and every distance metric
run too. After those, the digest of the stdout of `inspect-partition` per
shape, and of `select` on one fixed CSV per solver, so every verb is covered.

Last comes the `idx` shape, which reads IDX files instead of drawing blobs:
a train pair of 120 and a test pair of 45 4x4 images over 3 classes, every
class in each, written from a fixed seed into the temporary directory. Its
two cases are `files` (the test pair is the test set) and `split`
(`dataset.test_fraction` splits the train pair). Each case runs `sfedkd` and
`fedseq` at master seed 0, one line per run as above, then prints the
digest of its `inspect-partition` stdout.

The bytes depend on the BLAS thread count, so the script pins one thread
before numpy loads.

To see how far two commits' outputs drift apart, save one's files and
compare the other's against them:

    PYTHONPATH=src python tools/output_matrix.py --save DIR      # on the parent
    PYTHONPATH=src python tools/output_matrix.py --compare DIR   # on the change

`--save DIR` prints the usual lines and keeps each case's files under
DIR/<case>/. `--compare DIR` prints one line per case instead: "identical",
or else, per file that differs, the max ULP distance of `model_final.bin`'s
parameters, the max |diff| per numeric key of `rounds.jsonl` and whether
its teacher lists match, and for the other files (CSV and stdout) the max
|diff| over their numbers. A last line counts them: "N of M cases
identical". It exits 1 when any case is not identical.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
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


def ulp_distance(a, b) -> int:
    """Max count of float64 steps between the entries of `a` and `b` (-0.0
    and 0.0 count as one step apart)."""
    import numpy as np

    def ordered(x):  # the bit patterns, mapped to unsigned ints in float order
        u = x.view(np.uint64)
        return np.where(u >> np.uint64(63), ~u, u | np.uint64(1 << 63))
    oa, ob = ordered(a), ordered(b)
    return int((np.maximum(oa, ob) - np.minimum(oa, ob)).max(initial=0))


def checkpoint_values(blob: bytes):
    """(dims, parameters) of a `save_params` checkpoint."""
    import numpy as np
    (n_dims,) = struct.unpack_from("<q", blob, 4)
    return (struct.unpack_from(f"<{n_dims}q", blob, 12),
            np.frombuffer(blob, dtype="<f8", offset=12 + 8 * n_dims))


def numbers(value) -> list[float]:
    """The numbers of a JSON value, a list flattened, null as nan."""
    if isinstance(value, list):
        return [x for v in value for x in numbers(v)]
    return [float("nan") if value is None else float(value)]


def max_diff(a: list[float], b: list[float]) -> float:
    """Max |a - b| over aligned numbers: 0 where both are nan, inf where one
    is or the lengths differ."""
    if len(a) != len(b):
        return float("inf")
    diffs = [0.0 if x != x and y != y else abs(x - y) for x, y in zip(a, b)]
    return max((float("inf") if d != d else d for d in diffs), default=0.0)


def compare_model(got: bytes, saved: bytes) -> str:
    (dims, a), (saved_dims, b) = checkpoint_values(got), checkpoint_values(saved)
    if dims != saved_dims:
        return f"shape {dims}, saved {saved_dims}"
    return f"max ULP {ulp_distance(a, b)}"


def compare_rounds(got: bytes, saved: bytes) -> str:
    rows = [[json.loads(line) for line in blob.splitlines()] for blob in (got, saved)]
    if len(rows[0]) != len(rows[1]):
        return f"{len(rows[0])} rounds, saved {len(rows[1])}"
    keys = list(dict.fromkeys(k for r in rows[0] + rows[1] for k in r))
    parts = []
    for key in keys:
        a, b = ([r.get(key) for r in side] for side in rows)
        if key == "teachers":
            parts.append(f"teachers {'match' if a == b else 'differ'}")
        elif all(isinstance(v, str) for v in a + b):
            if a != b:
                parts.append(f"{key} differs")
        else:
            parts.append(f"{key}={max_diff(numbers(a), numbers(b)):.3g}")
    return "max |diff| " + " ".join(parts)


def compare_text(got: bytes, saved: bytes) -> str:
    tokens = [re.split(rb"[,\s]+", blob.strip()) for blob in (got, saved)]
    if len(tokens[0]) != len(tokens[1]):
        return "differs in shape"
    try:
        diffs = [max_diff([float(x)], [float(y)]) for x, y in zip(*tokens) if x != y]
    except ValueError:
        return "differs in text"
    return f"max |diff| {max(diffs, default=0.0):.3g}"


COMPARE = {"model_final.bin": compare_model, "rounds.jsonl": compare_rounds}


class Matrix:
    """Where each case's files go: digests printed, and with `save` a copy
    kept, or with `compare` a comparison against a saved copy printed."""

    def __init__(self, save: Path | None = None, compare: Path | None = None):
        self.save, self.compare = save, compare
        self.cases, self.differ = 0, 0

    def record(self, label: str, files: dict[str, bytes]) -> None:
        self.cases += 1
        if self.save:
            (self.save / label).mkdir(parents=True, exist_ok=True)
            for name, blob in files.items():
                (self.save / label / name).write_bytes(blob)
        if not self.compare:
            digests = " ".join(f"{name}={hashlib.sha256(blob).hexdigest()}"
                               for name, blob in files.items())
            print(f"{label} {digests}", flush=True)
            return
        parts = []
        for name, blob in files.items():
            saved = self.compare / label / name
            if not saved.exists():
                parts.append(f"{name} not saved")
            elif saved.read_bytes() != blob:
                parts.append(f"{name} {COMPARE.get(name, compare_text)(blob, saved.read_bytes())}")
        self.differ += bool(parts)
        print(f"{label} {'; '.join(parts) or 'identical'}", flush=True)


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


def record_run(matrix: Matrix, label: str, overrides: list[str], out: Path) -> None:
    """Record the files `sfedkd run` writes into `out`."""
    cli(["run", str(CONFIG), *sets([*overrides, f"output.dir={out}"])])
    matrix.record(label, {name: (out / name).read_bytes() for name in RUN_FILES})


def record_stdout(matrix: Matrix, label: str, args: list[str]) -> None:
    matrix.record(label, {"stdout": cli(args).encode()})


def write_idx_pair(path: Path, n: int, rng) -> None:
    """n random 4x4 images over 3 classes, every class present, as the IDX
    pair `path`-images and `path`-labels."""
    labels = (rng.permutation(n) % 3).astype("u1")
    images = rng.integers(0, 256, (n, 4, 4)).astype("u1")
    Path(f"{path}-images").write_bytes(struct.pack(">IIII", 0x803, n, 4, 4) + images.tobytes())
    Path(f"{path}-labels").write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def run_idx(matrix: Matrix, out: Path) -> None:
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
            record_run(matrix, f"idx/{case}/{mode}/seed0",
                       [*shape, *overrides, f"train.mode={mode}", "master_seed=0"], out)
        record_stdout(matrix, f"idx/{case}/inspect-partition",
                      ["inspect-partition", str(CONFIG), *sets([*shape, *overrides])])


def run(matrix: Matrix) -> None:
    from sfedkd.config import MODES
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for shape, overrides in SHAPES.items():
            for mode in MODES:
                for seed in (0, 1):
                    for granularity in ("round", "client"):
                        record_run(matrix, f"{shape}/{mode}/seed{seed}/{granularity}",
                                   [*overrides, f"train.mode={mode}", f"master_seed={seed}",
                                    f"eval.granularity={granularity}"], out)
            for axis in ("weights", "metric", "teachers", "mode"):
                cli(["ablate", str(CONFIG), "--axis", axis, "--set", "ablate.seeds=[0,1]",
                     *sets([*overrides, f"output.dir={out}"])])
                name = f"ablate_{axis}.csv"
                matrix.record(f"{shape}/ablate_{axis}", {name: (out / name).read_bytes()})
        for shape, overrides in SHAPES.items():
            record_stdout(matrix, f"{shape}/inspect-partition",
                          ["inspect-partition", str(CONFIG), *sets(overrides)])
        csv = out / "dists.csv"
        csv.write_text(SELECT_CSV)
        for solver in ("greedy", "exact", "random"):
            record_stdout(matrix, f"select/{solver}",
                          ["select", str(csv), "--k", "3", "--solver", solver])
        run_idx(matrix, out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="also keep each case's files under DIR")
    parser.add_argument("--compare", type=Path, metavar="DIR",
                        help="compare each case with the files saved under DIR")
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before sfedkd loads numpy
    matrix = Matrix(args.save, args.compare)
    run(matrix)
    if args.compare:
        print(f"{matrix.cases - matrix.differ} of {matrix.cases} cases identical", flush=True)
    if matrix.differ:
        sys.exit(f"{matrix.differ} of {matrix.cases} cases differ from {args.compare}")
