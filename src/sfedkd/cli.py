"""Command-line interface: run experiments, sweep ablations, pick teachers.

Verbs:
  run                full experiment from a JSON config; emits rounds.jsonl,
                     summary.csv, config.resolved.json, model_final.bin
  ablate             sweep one axis (weights | metric | teachers | mode)
                     over a seed list; writes each mean/std CSV row as its cell ends
  select             teacher selection on a CSV of class distributions
  inspect-partition  print per-client class histograms for a config

Exit codes: 0 success, 2 invalid config (with the dotted field path), malformed
input file (with its path) or, for now, diverged training (printed as
"error: ..."; ROADMAP item 2 gives it its own code), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (METRICS, MODES, ConfigError, ExperimentConfig, _read_utf8,
                     apply_overrides, load_raw_config, resolve_config)
from .data import ClassDistribution
from .experiment import build_dataset, run_experiment
from .model import save_params
from .selection import (BRUTE_FORCE_MAX_CANDIDATES, SelectionInstance, aggregate_objective,
                        brute_force_select, greedy_select, random_select)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_raw(args) -> dict:
    """The config file of `args` with its `--set` overrides applied."""
    return apply_overrides(load_raw_config(args.config), args.set or [])


def _write_rounds_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), allow_nan=False) + "\n")


def _summary_row(cfg: ExperimentConfig, records) -> dict:
    cons = [r.consistency for r in records if r.consistency is not None]
    return {
        "mode": cfg.train.mode,
        "rounds": len(records),
        "final_top1": records[-1].top1,
        "best_top1": max(r.top1 for r in records),
        "final_forgetting": records[-1].forgetting,
        "mean_consistency": float(np.mean(cons)) if cons else None,
    }


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _output_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output.dir)  # mkdir makes it only below a directory: check before training
    if not (nearest := next(p for p in (out, *out.parents) if p.exists())).is_dir():
        raise NotADirectoryError(f"output.dir: {nearest} is not a directory")
    return out


def cmd_run(args) -> int:
    cfg = resolve_config(_load_raw(args))
    out_dir = _output_dir(cfg)
    result = run_experiment(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.resolved.json", "w") as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")
    _write_rounds_jsonl(out_dir / "rounds.jsonl", result.records)
    summary = _summary_row(cfg, result.records)
    _write_csv(out_dir / "summary.csv", [summary])
    save_params(result.final_model, out_dir / "model_final.bin")
    print(f"{cfg.train.mode}: {len(result.records)} rounds done, "
          f"final top1 {summary['final_top1']:.4f} -> {out_dir}")
    return EXIT_OK


def _ablation_cells(axis: str, cfg: ExperimentConfig):
    """(label_dict, override_list) per cell of the requested sweep axis."""
    if axis == "weights":
        return [
            ({"g": g_label, "h": h_label},
             [f"train.kd.uniform_g={json.dumps(g_label == 'off')}",
              f"train.kd.uniform_h={json.dumps(h_label == 'off')}",
              "train.mode=sfedkd"])
            for g_label in ("off", "on") for h_label in ("off", "on")
        ]
    if axis == "metric":
        return [({"metric": m}, [f"train.kd.metric={m}", "train.mode=sfedkd"])
                for m in METRICS]
    if axis == "teachers":
        if max(cfg.ablate.k_values) > cfg.train.M:
            raise ConfigError("ablate.k_values",
                              f"teacher counts must not exceed train.M={cfg.train.M}")
        return [({"K": k, "solver": solver}, [f"train.K={k}", f"train.mode={mode}"])
                for k in cfg.ablate.k_values for mode, (solver, _) in MODES.items() if solver]
    if axis == "mode":
        return [({"mode": m}, [f"train.mode={m}"])
                for m in ("sfedkd", "fedseq", "fedavg")]
    raise ConfigError("axis", f"unknown ablation axis {axis!r}")


def cmd_ablate(args) -> int:
    raw = _load_raw(args)
    base_cfg = resolve_config(raw)
    out_path = _output_dir(base_cfg) / f"ablate_{args.axis}.csv"
    rows = []
    for label, overrides in _ablation_cells(args.axis, base_cfg):
        finals = []
        for seed in base_cfg.ablate.seeds:
            cfg = resolve_config(apply_overrides(raw, overrides + [f"master_seed={seed}"]))
            finals.append(run_experiment(cfg).records[-1].top1)
        mean = float(np.mean(finals))
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
        rows.append({**label, "mean_top1": mean, "std_top1": std, "n_seeds": len(finals)})
        # each finished cell is on disk and on stdout before the next one runs
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out_path, rows)
        print(" ".join(f"{k}={v}" for k, v in label.items())
              + f": {mean:.4f} +/- {std:.4f} ({len(finals)} seeds)", flush=True)
    print(f"wrote {out_path}")
    return EXIT_OK


def _read_distributions_csv(path) -> list[ClassDistribution]:
    lines = [line.strip() for line in _read_utf8(path).split("\n") if line.strip()]
    rows = []
    for i, line in enumerate(lines):
        row = []
        for cell in line.split(","):
            with suppress(ValueError):
                row.append(float(cell))
        if len(row) == line.count(",") + 1:
            rows.append(row)
        elif i or row:  # only a first line in which no cell is a number is a header
            raise ConfigError(str(path), f"non-numeric row: {line!r}")
    if not rows:
        raise ConfigError(str(path), "no distribution rows found")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(str(path), "rows have inconsistent lengths")
    dists = []
    for i, row in enumerate(rows):
        vec = np.asarray(row, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = vec.sum()  # not finite when a cell is nan or inf, or the sum overflows
        if (vec < 0).any() or not np.isfinite(total) or total <= 0:
            raise ConfigError(str(path), f"row {i} is not a valid distribution")
        dists.append(ClassDistribution(vec / total))
    return dists


def cmd_select(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed", f"expected a non-negative integer, got {args.seed}")
    dists = _read_distributions_csv(args.csv)
    if not 1 <= args.k <= len(dists):
        raise ConfigError("--k", f"expected an integer in [1, {len(dists)}], got {args.k}")
    if args.solver == "exact" and len(dists) > BRUTE_FORCE_MAX_CANDIDATES:
        raise ConfigError("--solver", f"exact takes at most {BRUTE_FORCE_MAX_CANDIDATES} rows, "
                          f"{args.csv} has {len(dists)}")
    if args.solver == "random":
        chosen = random_select(len(dists), args.k, args.seed)
    else:
        inst = SelectionInstance(dists, args.k, args.metric)
        chosen = greedy_select(inst) if args.solver == "greedy" else brute_force_select(inst)
    objective = aggregate_objective(dists, chosen, args.metric)
    print("selected:", ",".join(str(i) for i in chosen))
    print(f"objective: {objective:.6f}")
    return EXIT_OK


def cmd_inspect_partition(args) -> int:
    cfg = resolve_config(_load_raw(args))
    train, _ = build_dataset(cfg)
    for n, part in enumerate(train.clients()):
        counts = np.bincount(part.labels, minlength=train.c_total)
        flag = "" if len(part) else " (empty)"
        print(f"client {n:3d}  n={len(part):5d}  counts={counts.tolist()}{flag}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfedkd",
        description="Sequential federated learning with multi-teacher distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # the verbs that read a config
    config.add_argument("config", help="path to the JSON config file")
    config.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="override a config field by dotted path")

    p_run = sub.add_parser("run", parents=[config], help="run one experiment from a JSON config")
    p_run.set_defaults(fn=cmd_run)

    p_ab = sub.add_parser("ablate", parents=[config],
                          help="sweep one ablation axis over the seeds of ablate.seeds")
    p_ab.add_argument("--axis", required=True,
                      choices=("weights", "metric", "teachers", "mode"))
    p_ab.set_defaults(fn=cmd_ablate)

    p_sel = sub.add_parser("select", help="teacher selection on a distributions CSV")
    p_sel.add_argument("csv", help="CSV with one class distribution per row")
    p_sel.add_argument("--k", type=int, required=True)
    p_sel.add_argument("--metric", default="L1", choices=METRICS)
    p_sel.add_argument("--solver", default="greedy",
                       choices=("greedy", "exact", "random"))
    p_sel.add_argument("--seed", type=int, default=0, help="seed for --solver random")
    p_sel.set_defaults(fn=cmd_select)

    p_part = sub.add_parser("inspect-partition", parents=[config],
                            help="print per-client class histograms")
    p_part.set_defaults(fn=cmd_inspect_partition)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
