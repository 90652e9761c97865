import json
import os
import shlex
import struct
import subprocess
import sys
import types
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from data_oracle import build_clients_oracle
from sfedkd import cli
from sfedkd.cli import main
from sfedkd.config import (ConfigError, ExperimentConfig, apply_overrides,
                           load_raw_config, resolve_config)
from sfedkd.model import load_params

ROOT = Path(__file__).resolve().parent.parent


def tiny_raw(out_dir, mode="fedseq", rounds=3):
    return {
        "master_seed": 1,
        "dataset": {"n_per_class": 30, "classes": 4, "features": 6,
                    "spread": 1.5, "test_fraction": 0.25},
        "partition": {"N": 6, "C": 2, "alpha": 0.5},
        "model": {"hidden": [8]},
        "train": {"M": 3, "K": 2, "R": rounds, "E": 1, "batch_size": 16,
                  "eta": 0.05, "mode": mode},
        "output": {"dir": str(out_dir)},
    }


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_readme_quick_start_lines_parse():
    # parsing only: a flag removed from the CLI cannot linger in the examples
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n")[1].split("\n## ")[0]
    lines = [line.split(" #")[0] for line in section.splitlines() if line.startswith("sfedkd ")]
    parser = cli.build_parser()
    assert {parser.parse_args(shlex.split(line)[1:]).command for line in lines} == \
        {"run", "ablate", "select", "inspect-partition"}


# --------------------------------------------------------------------- run

def test_run_emits_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out))
    assert main(["run", str(cfg)]) == 0
    lines = (out / "rounds.jsonl").read_text().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    for key in ("round", "mode", "top1", "classwise", "consistency",
                "forgetting", "teachers", "g_mean", "h_mean"):
        assert key in rec
    assert rec["round"] == 1 and rec["mode"] == "fedseq"
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0].startswith("mode,rounds,final_top1")
    assert len(summary) == 2
    model = load_params(out / "model_final.bin")
    assert model.dims == (6, 8, 4)
    assert (out / "config.resolved.json").exists()


def test_run_byte_identical_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, tiny_raw(out_a), "a.json")
    cfg_b = write_config(tmp_path, tiny_raw(out_b), "b.json")
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    assert (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()


def test_resolved_config_reproduces_run(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, tiny_raw(out_a))
    assert main(["run", str(cfg)]) == 0
    resolved = json.loads((out_a / "config.resolved.json").read_text())
    resolved["output"]["dir"] = str(out_b)
    cfg2 = write_config(tmp_path, resolved, "resolved.json")
    assert main(["run", str(cfg2)]) == 0
    assert (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()


def test_run_rejects_k_exceeding_m(tmp_path, capsys):
    raw = tiny_raw(tmp_path / "out")
    raw["train"]["K"] = 5  # > M=3
    cfg = write_config(tmp_path, raw)
    assert main(["run", str(cfg)]) == 2
    assert "train.K" in capsys.readouterr().err


def test_run_rejects_unknown_field(tmp_path, capsys):
    raw = tiny_raw(tmp_path / "out")
    raw["train"]["learning_rate"] = 0.1
    cfg = write_config(tmp_path, raw)
    assert main(["run", str(cfg)]) == 2
    assert "train.learning_rate" in capsys.readouterr().err


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert f"config error: {path}: not valid JSON (Expecting property name" in \
        capsys.readouterr().err


@pytest.mark.parametrize("verb,name,body", [
    ("run", "config.json", b"\xff\xfe{}"),
    ("select", "dists.csv", b"\xff\xfe0.5,0.5\n"),
])
def test_undecodable_file_is_a_config_error_naming_it(tmp_path, capsys, verb, name, body):
    path = tmp_path / name
    path.write_bytes(body)
    assert main([verb, str(path)] + (["--k", "1"] if verb == "select" else [])) == 2
    assert f"config error: {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff" in \
        capsys.readouterr().err


def test_run_rejects_truncated_idx_file_naming_it(tmp_path, capsys):
    # a malformed IDX file is bad input (exit 2); a file that cannot be
    # read at all stays an I/O failure (exit 3)
    img, lab = tmp_path / "img", tmp_path / "lab"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 20, 2, 2) + bytes(80 - 3))
    lab.write_bytes(struct.pack(">II", 0x00000801, 20) + bytes(i % 4 for i in range(20)))
    raw = tiny_raw(tmp_path / "out")
    raw["dataset"] = {"kind": "idx", "images": str(img), "labels": str(lab)}
    cfg = write_config(tmp_path, raw)
    assert main(["run", str(cfg)]) == 2
    assert f"error: {img}: expected 80 pixel bytes" in capsys.readouterr().err
    img.unlink()
    assert main(["run", str(cfg)]) == 3
    assert "i/o error:" in capsys.readouterr().err


def test_run_set_overrides(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out))
    assert main(["run", str(cfg), "--set", "train.R=2",
                 "--set", "train.mode=sfedkd"]) == 0
    lines = (out / "rounds.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["mode"] == "sfedkd"
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["train"]["R"] == 2


# ------------------------------------------------------------------ select

DOC_CSV = "1,0\n0,1\n1,0\n0.5,0.5\n"


def test_select_greedy_documented(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text(DOC_CSV)
    assert main(["select", str(path), "--k", "2", "--metric", "L1"]) == 0
    out = capsys.readouterr().out
    assert "selected: 3,0" in out
    assert "objective: 0.500000" in out


def test_select_exact_documented(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text(DOC_CSV)
    assert main(["select", str(path), "--k", "2", "--metric", "L1",
                 "--solver", "exact"]) == 0
    out = capsys.readouterr().out
    assert "selected: 0,1" in out
    assert "objective: 0.000000" in out


def test_select_random_deterministic(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text(DOC_CSV)
    assert main(["select", str(path), "--k", "2", "--solver", "random",
                 "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["select", str(path), "--k", "2", "--solver", "random",
                 "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_select_tolerates_header_and_counts(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text("c0,c1\n3,1\n1,3\n")  # counts normalize to distributions
    assert main(["select", str(path), "--k", "2", "--metric", "L1"]) == 0
    assert "selected:" in capsys.readouterr().out


def test_select_reads_past_a_byte_order_mark(tmp_path, capsys):
    # the mark made row 0 unreadable, so it was taken for the header and
    # the rows 1 and 2 were chosen
    path = tmp_path / "dists.csv"
    path.write_bytes(b"\xef\xbb\xbf0.9,0.1\n0.1,0.9\n0.5,0.5\n")
    assert main(["select", str(path), "--k", "2", "--solver", "exact"]) == 0
    assert capsys.readouterr().out == "selected: 0,1\nobjective: 0.000000\n"


@pytest.mark.parametrize("text,message", [
    ("a,b\nx,y\n1,0\n0,1\n", "non-numeric row: 'x,y'"),  # one header line at most
    ("1,0\n0,1\nx,y\n", "non-numeric row: 'x,y'"),
    ("c0,c1\n", "no distribution rows found"),
    ("1,0\n0\n", "rows have inconsistent lengths"),
    ("1,0\n-1,2\n", "row 1 is not a valid distribution"),
])
def test_select_csv_error_names_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "dists.csv"
    path.write_text(text)
    assert main(["select", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"


def test_select_rejects_bad_csv(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text("1,0\n0\n")
    assert main(["select", str(path), "--k", "1"]) == 2
    # greedy would pick a NaN row first; an inf or overflowing row would divide to NaN
    for row in ("nan,0.2,0.3", "inf,0.2,0.3", "1e308,1e308,0"):
        path.write_text(f"0.5,0.5,0\n{row}\n")
        assert main(["select", str(path), "--k", "1"]) == 2
        assert f"config error: {path}: row 1 is not a valid distribution" in \
            capsys.readouterr().err


@pytest.mark.parametrize("solver", ["greedy", "exact", "random"])
@pytest.mark.parametrize("k", [0, -1])
def test_select_rejects_k_outside_candidate_range(tmp_path, capsys, solver, k):
    path = tmp_path / "dists.csv"
    path.write_text(DOC_CSV)
    assert main(["select", str(path), "--k", str(k), "--solver", solver]) == 2
    assert f"error: K={k} must lie in [1, 4]" in capsys.readouterr().err


def test_select_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys):
    path = tmp_path / "dists.csv"
    path.write_text(DOC_CSV)
    assert main(["select", str(path), "--k", "2", "--solver", "random", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == \
        "config error: --seed: expected a non-negative integer, got -1\n"


# ------------------------------------------------------------------ ablate

def test_ablate_mode_axis(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out, mode="sfedkd", rounds=2))
    assert main(["ablate", str(cfg), "--axis", "mode", "--set", "ablate.seeds=[1]"]) == 0
    rows = (out / "ablate_mode.csv").read_text().strip().split("\n")
    assert rows[0] == "mode,mean_top1,std_top1,n_seeds"
    assert len(rows) == 4  # sfedkd, fedseq, fedavg
    assert [r.split(",")[0] for r in rows[1:]] == ["sfedkd", "fedseq", "fedavg"]


def test_ablate_weights_axis_grid(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out, mode="sfedkd", rounds=2))
    assert main(["ablate", str(cfg), "--axis", "weights", "--set", "ablate.seeds=[1]"]) == 0
    rows = (out / "ablate_weights.csv").read_text().strip().split("\n")
    assert rows[0] == "g,h,mean_top1,std_top1,n_seeds"
    grid = [tuple(r.split(",")[:2]) for r in rows[1:]]
    assert grid == [("off", "off"), ("off", "on"), ("on", "off"), ("on", "on")]


def test_ablate_metric_axis(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out, mode="sfedkd", rounds=2))
    assert main(["ablate", str(cfg), "--axis", "metric", "--set", "ablate.seeds=[1,2]"]) == 0
    rows = (out / "ablate_metric.csv").read_text().strip().split("\n")
    assert len(rows) == 5
    assert [r.split(",")[0] for r in rows[1:]] == ["L1", "L2", "KL", "JS"]
    assert rows[1].split(",")[-1] == "2"  # n_seeds


def test_ablate_teachers_axis(tmp_path):
    out = tmp_path / "out"
    raw = tiny_raw(out, mode="sfedkd", rounds=2)
    raw["ablate"] = {"k_values": [1, 2]}
    cfg = write_config(tmp_path, raw)
    assert main(["ablate", str(cfg), "--axis", "teachers", "--set", "ablate.seeds=[1]"]) == 0
    rows = (out / "ablate_teachers.csv").read_text().strip().split("\n")
    assert rows[0] == "K,solver,mean_top1,std_top1,n_seeds"
    assert len(rows) == 5  # 2 K values x {greedy, random}


def test_only_the_teachers_axis_checks_k_values(tmp_path, capsys, monkeypatch):
    # run and the other axes never read ablate.k_values, so a teacher count
    # above train.M fails only the teachers axis, before its first cell
    out = tmp_path / "out"
    raw = tiny_raw(out, mode="sfedkd", rounds=1)
    raw["ablate"] = {"k_values": [2, 11]}
    cfg = write_config(tmp_path, raw)
    assert main(["run", str(cfg)]) == 0
    assert main(["ablate", str(cfg), "--axis", "mode", "--set", "ablate.seeds=[1]"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    assert main(["ablate", str(cfg), "--axis", "teachers", "--set", "ablate.seeds=[1]"]) == 2
    assert "config error: ablate.k_values: teacher counts must not exceed train.M=3" in \
        capsys.readouterr().err
    assert not (out / "ablate_teachers.csv").exists()


def test_ablate_cell_matches_standalone_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out, mode="sfedkd", rounds=2))
    assert main(["ablate", str(cfg), "--axis", "mode", "--set", "ablate.seeds=[7]"]) == 0
    rows = (out / "ablate_mode.csv").read_text().strip().split("\n")
    fedseq_mean = float(rows[2].split(",")[1])

    solo_out = tmp_path / "solo"
    assert main(["run", str(cfg), "--set", "train.mode=fedseq",
                 "--set", "master_seed=7",
                 "--set", f"output.dir={solo_out}"]) == 0
    final = json.loads((solo_out / "rounds.jsonl").read_text().strip().split("\n")[-1])
    assert final["top1"] == pytest.approx(fedseq_mean, abs=1e-12)


def test_ablate_set_reaches_every_cell(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, tiny_raw(out, mode="sfedkd", rounds=2))
    assert main(["ablate", str(cfg), "--axis", "mode", "--set", "ablate.seeds=[3]",
                 "--set", "train.eta=0.3"]) == 0
    rows = (out / "ablate_mode.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        mode, mean_top1 = row.split(",")[:2]
        solo_out = tmp_path / f"solo_{mode}"
        assert main(["run", str(cfg), "--set", "train.eta=0.3",
                     "--set", f"train.mode={mode}", "--set", "master_seed=3",
                     "--set", f"output.dir={solo_out}"]) == 0
        final = json.loads((solo_out / "rounds.jsonl").read_text().strip().split("\n")[-1])
        assert final["top1"] == pytest.approx(float(mean_top1), abs=1e-12)
    assert len(rows) == 3


# -------------------------------------------------------- inspect-partition

def test_inspect_partition_prints_histograms(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_raw(tmp_path / "out"))
    assert main(["inspect-partition", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("client") for line in lines)
    assert "counts=" in lines[0]


def test_inspect_partition_prints_the_clients_of_a_run(capsys):
    # the histograms are those of the clients a run trains, as the chain of
    # whole-set copies (generate, split, subset per client) computes them
    path = ROOT / "configs" / "synthetic_small.json"
    cfg = resolve_config(load_raw_config(path))
    clients, _ = build_clients_oracle(cfg)
    expected = "".join(
        f"client {n:3d}  n={len(labels):5d}  "
        f"counts={np.bincount(labels, minlength=cfg.dataset.classes).tolist()}"
        f"{' (empty)' if not len(labels) else ''}\n"
        for n, (_, labels) in enumerate(clients))
    assert main(["inspect-partition", str(path)]) == 0
    assert capsys.readouterr().out == expected


# ----------------------------------------------------------------- config

def test_config_defaults_and_derived_seeds(tmp_path):
    raw = tiny_raw(tmp_path / "out")
    cfg = resolve_config(raw)
    assert cfg.train.kd.tau == 4.0
    assert cfg.train.kd.gamma == 1.0
    assert cfg.train.kd.beta == 3.0
    assert cfg.train.kd.metric == "KL"
    assert cfg.train.weight_decay == 1e-4
    assert cfg.dataset.seed >= 0
    assert cfg.partition.seed >= 0
    # explicit seeds are honored verbatim
    raw2 = dict(raw, partition=dict(raw["partition"], seed=77))
    assert resolve_config(raw2).partition.seed == 77


# schema keyword for each rule an `option` declaration can carry
SCHEMA_RULES = {"ge": "minimum", "gt": "exclusiveMinimum", "lt": "exclusiveMaximum",
                "choices": "enum", "nonempty": "minItems"}
SCHEMA_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def schema_type(tp):
    if isinstance(tp, types.UnionType):
        return [schema_type(tp.__args__[0]), "null"]
    return "array" if getattr(tp, "__origin__", None) is list else SCHEMA_TYPES[tp]


def test_schema_defaults_match_config_defaults():
    """Every schema field, in order, and its default, type, bound and enum
    equal the declaration on the config dataclasses."""
    schema = json.loads((Path(__file__).parents[1] / "configs" / "schema.json").read_text())

    def check(node, defaults, cls, path):
        props = node["properties"]
        # the order is the key order config.resolved.json is written in
        assert list(props) == list(defaults) == [f.name for f in fields(cls)], path
        for f in fields(cls):
            sub, where = props[f.name], f"{path}{f.name}"
            if is_dataclass(f.type):
                check(sub, defaults[f.name], f.type, f"{where}.")
                continue
            if "default" in sub:
                assert sub["default"] == defaults[f.name], where
            if "type" in sub:
                assert sub["type"] == schema_type(f.type), where
            stated = {**sub.get("items", {}), **sub}
            declared = {SCHEMA_RULES[rule]: list(value) if rule == "choices" else value
                        for rule, value in f.metadata.items()}  # nonempty=True == minItems 1
            assert {k: stated[k] for k in SCHEMA_RULES.values() if k in stated} == declared, where

    check(schema, asdict(ExperimentConfig()), ExperimentConfig, "")


def test_config_validation_paths():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"partition": {"alpha": -1.0}})
    assert exc.value.field == "partition.alpha"
    with pytest.raises(ConfigError) as exc:
        resolve_config({"train": {"kd": {"metric": "cosine"}}})
    assert exc.value.field == "train.kd.metric"
    with pytest.raises(ConfigError) as exc:
        resolve_config({"model": {"hidden": []}})
    assert exc.value.field == "model.hidden"
    with pytest.raises(ConfigError) as exc:
        resolve_config({"train": {"M": 200}})
    assert exc.value.field == "train.M"


def test_apply_overrides_parses_json_values():
    raw = {"train": {"M": 3}}
    out = apply_overrides(raw, ["train.M=5", "train.mode=fedseq",
                                "train.kd.uniform_g=false"])
    assert out["train"]["M"] == 5
    assert out["train"]["mode"] == "fedseq"
    assert out["train"]["kd"]["uniform_g"] is False
    assert raw["train"]["M"] == 3  # original untouched


def test_load_raw_config_requires_object(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1,2]")
    with pytest.raises(ConfigError) as exc:
        load_raw_config(path)
    assert exc.value.field == str(path)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: config must be a JSON object\n"


def test_config_with_byte_order_mark_runs(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(tiny_raw(out)).encode())
    assert main(["run", str(path)]) == 0
    assert (out / "rounds.jsonl").exists()


def run_in_subprocess(out_dir, threads, *overrides):
    """`sfedkd run` on synthetic_small in a fresh interpreter with `threads`
    BLAS threads; returns the bytes of rounds.jsonl and model_final.bin."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, "-m", "sfedkd.cli", "run", str(ROOT / "configs" / "synthetic_small.json"),
           "--set", f"output.dir={out_dir}"]
    for override in overrides:
        cmd += ["--set", override]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=300)
    return [(out_dir / name).read_bytes() for name in ("rounds.jsonl", "model_final.bin")]


def test_run_bytes_fixed_per_blas_thread_count(tmp_path):
    # synthetic_small's matrices are too small for OpenBLAS to split, so its
    # bytes do not depend on the thread count. 784-wide GEMMs are split, and
    # model_final.bin then differs between 1 and 2 threads at ULP level; a
    # rerun at the same count still repeats every byte.
    assert (run_in_subprocess(tmp_path / "t1", 1, "train.R=5")
            == run_in_subprocess(tmp_path / "t2", 2, "train.R=5"))
    wide = ("train.R=1", "dataset.features=784", "dataset.n_per_class=100", "model.hidden=[64]")
    assert (run_in_subprocess(tmp_path / "w1", 2, *wide)
            == run_in_subprocess(tmp_path / "w2", 2, *wide))
