"""Output checks applied to every benchmarked run."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def params_arrays(params) -> list[np.ndarray]:
    return list(params.weights) + list(params.biases)


def digest(records, params) -> str:
    """SHA-256 of the round records as rounds.jsonl lines plus the final
    parameter bytes; identical runs give identical digests."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    for arr in params_arrays(params):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def independent_top1(params, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of a ReLU MLP computed here, not by the package."""
    a = np.asarray(features, dtype=np.float64)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
    return float((a.argmax(axis=1) == labels).mean())


def check_run(result, cfg, mode: str, eval_set) -> list[str]:
    """Problems found in one run_experiment result; empty when it passes."""
    problems = []
    records = result.records
    if len(records) != cfg.train.R:
        problems.append(f"{len(records)} round records, expected R={cfg.train.R}")
    for i, rec in enumerate(records, start=1):
        if rec.round != i or rec.mode != mode:
            problems.append(f"record {i}: round {rec.round} mode {rec.mode!r}")
        if rec.top1 is None or not math.isfinite(rec.top1) or not 0.0 <= rec.top1 <= 1.0:
            problems.append(f"round {rec.round}: top1 {rec.top1!r} is not a finite value in [0, 1]")
        teachers_allowed = 0 if mode in ("fedseq", "fedavg") or i == 1 else cfg.train.K
        if len(rec.teachers) > teachers_allowed:
            problems.append(f"round {rec.round}: {len(rec.teachers)} teachers, "
                            f"at most {teachers_allowed} allowed")
    if not all(np.isfinite(a).all() for a in params_arrays(result.final_model)):
        problems.append("final parameters are not finite")
    elif records and records[-1].top1 is not None:
        # the last record evaluates the final model, so an independent
        # forward pass must agree up to argmax ties
        expected = independent_top1(result.final_model, eval_set.features, eval_set.labels)
        if abs(expected - records[-1].top1) > 1.0 / len(eval_set):
            problems.append(f"final top1 {records[-1].top1} but the final model "
                            f"scores {expected} on the evaluation set")
    return problems
