"""Measurement: untraced end-to-end passes, traced passes and the K sweep.

A pass trains every federation of the workload once in each of its modes,
one `run_experiment` call per (federation, mode). Passes repeat until the
time budget is spent; each call's time is the median over passes, so a
host stall during one pass does not move the result.

The throughput on the result line is in reference units: each call's
seconds are divided by the reference kernel's seconds measured just before
and after it. On a shared host whose speed drifts by tens of percent within
minutes, that ratio repeats far better than seconds do; the seconds are
reported beside it.
"""

from __future__ import annotations

import gzip
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import sfedkd
from sfedkd import config as config_mod
from sfedkd import engine, experiment

from checks import check_run, digest
from manifest import ReferenceKernel, manifest
from spans import Tracer, durations, span_stats
from workloads import WORKLOADS, Workload

K_SWEEP = (1, 3, 5, 10)
K_SWEEP_CLIENT_SIZE = 256   # four full batches of 64


@dataclass
class Federation:
    master_seed: int
    raws: dict[str, dict]     # mode -> raw config
    eval_set: sfedkd.Dataset  # dataset the round records evaluate on
    samples: int              # per-sample gradient evaluations in one run


@dataclass
class PassResult:
    """One pass; per call lists are indexed federation-major, mode-minor.

    Every timed item (a federation's set-up block, a run_experiment call)
    is bracketed by reference kernel timings; `*_ref` holds the mean of the
    two brackets, so item / ref is the item's cost in reference units.
    """

    call_s: list[float | None] = field(default_factory=list)
    call_ref: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    top1: list[float | None] = field(default_factory=list)
    forgetting: list[float | None] = field(default_factory=list)
    setup_s: list[list[float]] = field(default_factory=list)   # per federation
    setup_ref: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)           # every bracket


def gradient_evaluations(cfg, state) -> int:
    """E times the samples of every non-empty client each round trains."""
    total = 0
    for r in range(1, cfg.train.R + 1):
        for cid in engine.sample_sequence(replace(state, round=r), cfg.train.M):
            total += cfg.train.E * len(state.client_datasets[cid])
    return total


def prepare_federation(workload: Workload, master_seed: int, root: Path) -> Federation:
    raws = {mode: workload.raw_config(root, master_seed, mode) for mode in workload.modes}
    cfg = config_mod.resolve_config(raws[workload.modes[0]])
    train, test = experiment.build_dataset(cfg)
    state = experiment.initial_state(cfg, train)
    eval_set = test if cfg.eval.split == "test" else train
    return Federation(master_seed, raws, eval_set, gradient_evaluations(cfg, state))


def warm_up(fed: Federation) -> None:
    """One untimed single-round run, so first-call costs stay out of the numbers."""
    cfg = config_mod.resolve_config(next(iter(fed.raws.values())))
    experiment.run_experiment(replace(cfg, train=replace(cfg.train, R=1)))


def time_setup(raw: dict, reps: int) -> list[float]:
    cfg = config_mod.resolve_config(raw)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        train, _ = experiment.build_dataset(cfg)
        experiment.initial_state(cfg, train)
        times.append(time.perf_counter() - t0)
        del train
    return times


def run_pass(workload: Workload, feds: list[Federation], setup_reps: int,
             kernel: ReferenceKernel) -> PassResult:
    out = PassResult()
    out.ref_s.append(kernel.seconds())

    def bracket() -> float:
        out.ref_s.append(kernel.seconds())
        return (out.ref_s[-2] + out.ref_s[-1]) / 2

    for fed in feds:
        if setup_reps:
            out.setup_s.append(time_setup(next(iter(fed.raws.values())), setup_reps))
            out.setup_ref.append(bracket())
        for mode, raw in fed.raws.items():
            elapsed = dig = top1 = forgetting = None
            try:
                cfg = config_mod.resolve_config(raw)
                t0 = time.perf_counter()
                result = experiment.run_experiment(cfg)
                elapsed = time.perf_counter() - t0
                out.call_ref.append(bracket())
                problems = check_run(result, cfg, mode, fed.eval_set)
                dig = digest(result.records, result.final_model)
                top1, forgetting = result.records[-1].top1, result.records[-1].forgetting
            except Exception as exc:  # a failed run is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if elapsed is None:
                out.call_ref.append(bracket())
            out.call_s.append(elapsed)
            out.digests.append(dig)
            out.problems.append(problems)
            out.top1.append(top1)
            out.forgetting.append(forgetting)
    return out


def run_passes(workload, feds, setup_reps, kernel, until: float, passes: list[PassResult],
               before_pass=None) -> None:
    """Append passes (at least one) while another is expected to end before `until`."""
    while True:
        t0 = time.perf_counter()
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(workload, feds, setup_reps, kernel))
        if time.perf_counter() + (time.perf_counter() - t0) > until:
            return


def failures(passes: list[PassResult], reference: list[str | None]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); a digest differing from the
    reference pass counts as a failure of that call."""
    attempted = failed = 0
    messages = []
    for p, res in enumerate(passes):
        for c, (problems, dig) in enumerate(zip(res.problems, res.digests)):
            attempted += 1
            if not problems and dig != reference[c]:
                problems = [f"record digest {dig} differs from {reference[c]}"]
            if problems:
                failed += 1
                messages.extend(f"pass {p} call {c}: {m}" for m in problems)
    return attempted, failed, messages


def per_call_medians(passes: list[PassResult], in_refs: bool = False) -> list[float | None]:
    """Median over passes of each call's time, in seconds or reference units."""
    meds = []
    for c in range(len(passes[0].call_s)):
        times = [p.call_s[c] / (p.call_ref[c] if in_refs else 1.0)
                 for p in passes if p.call_s[c] is not None]
        meds.append(statistics.median(times) if times else None)
    return meds


def mean_of(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise RuntimeError("no run completed")
    return statistics.fmean(values)


def end_to_end(workload, feds, passes) -> tuple[dict, dict]:
    """(metrics of the result line, companions printed beside them)."""
    modes = len(workload.modes)
    out = {}
    for in_refs in (False, True):
        call_med = per_call_medians(passes, in_refs)
        setup_med = [statistics.median(t / (p.setup_ref[f] if in_refs else 1.0)
                                       for p in passes for t in p.setup_s[f])
                     for f in range(len(feds))]
        samples = train = 0.0
        for c, t in enumerate(call_med):
            if t is not None:
                samples += feds[c // modes].samples
                train += t - setup_med[c // modes]
        out[in_refs] = (mean_of(call_med), statistics.fmean(setup_med), samples / train)
    (run_s, setup_s, rate_s), (run_ref, _, rate_ref) = out[False], out[True]
    gated = {
        "train_samples_per_ref": (rate_ref, "1/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The work of a run depends on the seed's partition, so run times
    # differ between seeds by several percent; throughput does not.
    return gated, {"run_s": (run_s, "s"), "run_ref": (run_ref, "ref"),
                   "train_samples_per_s": (rate_s, "1/s")}


def k_sweep(root: Path, seed: int, until: float) -> tuple[dict[int, float], int, list[str]]:
    """Median microseconds per local SGD step with K teachers on the
    small_sfedkd shape; K values run round-robin so drift hits all alike."""
    wl = WORKLOADS["small_sfedkd"]
    cfg = config_mod.resolve_config(wl.raw_config(root, seed, "sfedkd"))
    train, _ = experiment.build_dataset(cfg)
    rng = np.random.default_rng(seed)
    client = train.subset(np.sort(rng.choice(len(train), K_SWEEP_CLIENT_SIZE, replace=False)))
    dims = (train.n_features, *cfg.hidden, train.c_total)
    student = sfedkd.init_params(dims, seed)
    ensembles = {}
    for k in K_SWEEP:
        teachers = [sfedkd.init_params(dims, seed * 100 + 1 + i) for i in range(k)]
        dists = [sfedkd.ClassDistribution(rng.dirichlet(np.full(train.c_total, 0.5)))
                 for _ in range(k)]
        ensembles[k] = (sfedkd.TeacherEnsemble(teachers, dists, list(range(k))),
                        replace(cfg.train, M=max(K_SWEEP), K=k))
    steps = cfg.train.E * math.ceil(len(client) / cfg.train.batch_size)
    times = {k: [] for k in K_SWEEP}
    digests: dict[int, str] = {}
    problems = []
    attempted = 0
    while True:
        for k, (ens, tcfg) in ensembles.items():
            attempted += 1
            t0 = time.perf_counter()
            params = sfedkd.local_train(student, client, ens, tcfg,
                                        np.random.default_rng(seed))
            times[k].append(time.perf_counter() - t0)
            dig = digest([], params)
            if not all(np.isfinite(a).all() for a in params.weights + params.biases):
                problems.append(f"K={k}: parameters not finite")
            elif digests.setdefault(k, dig) != dig:
                problems.append(f"K={k}: parameters differ between repeats")
        if time.perf_counter() > until:
            break
    return ({k: statistics.median(t) / steps * 1e6 for k, t in times.items()},
            attempted, problems)


# Per-layer metrics of one traced pass. Span statistics are named
# "<span>.<stat>"; counters are named after the hook that counts them.
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
SPAN_METRICS = {
    "distill.total_loss": ("calls", "total_s", "self_s"),
    "distill.with_weights": ("total_s",),
    "model.teacher_forward": ("calls", "self_s"),
    "model.student_forward": ("calls", "self_s"),
    "model.backprop": ("self_s",),
    "model.cross_entropy_grad": ("self_s",),
    "model.sgd_step": ("calls", "self_s"),
    "model.snapshot": ("calls", "total_s"),
    "experiment.build_dataset": ("total_s",),
    "experiment.initial_state": ("total_s",),
    "data.generate_synthetic": ("total_s",),
    "data.split_train_test": ("total_s",),
    "data.partition_exdir": ("total_s",),
    "data.class_distribution": ("calls",),
    "config.resolve_config": ("total_s",),
    "engine.round": ("self_s",),
    "engine.collect_teachers": ("total_s",),
    "engine.weighted_average": ("total_s",),
    "metrics.evaluate": ("calls", "self_s"),
    "selection.greedy_select": ("calls", "total_s"),
    "selection.random_select": ("total_s",),
}
COUNTERS = ("model.teacher_forward.rows", "model.student_forward.rows",
            "metrics.evaluate.rows", "model.params_constructed")
FORWARDS = ("model.teacher_forward", "model.student_forward", "model.eval_forward")


def _layer_values(tracer: Tracer, p: int) -> dict[str, tuple]:
    """name -> (value, unit) for traced pass p; metrics whose hooks are
    missing are left out."""
    spans, counts = tracer.passes[p], tracer.pass_counts[p]
    stats = span_stats(spans)
    counted = {s for s in tracer.installed if f"{s} counters" not in tracer.unmeasured}
    out = {}
    for span, fields in SPAN_METRICS.items():
        if span in tracer.installed:
            for f in fields:
                out[f"{span}.{f}"] = (getattr(stats[span], f), STAT_UNITS[f])
    for key in COUNTERS:
        if key.rsplit(".", 1)[0] in counted or key in counted:
            out[key] = (counts[key], "count")
    if all(f in counted for f in FORWARDS):
        out["model.forward.flops_computed"] = (sum(counts[f"{f}.flops"] for f in FORWARDS), "flop")
    if "engine.round" in tracer.installed:
        ms = [d * 1e3 for d in durations(spans, "engine.round")]
        out["engine.round_ms.p50"] = (statistics.median(ms), "ms")
        out["engine.round_ms.p90"] = (statistics.quantiles(ms, n=10)[8], "ms")
    return out


def per_layer(tracer: Tracer) -> tuple[dict, list[str]]:
    """(metrics, problems): the median over traced passes for times; counts
    must be identical across passes."""
    passes = [_layer_values(tracer, p) for p in range(len(tracer.passes))]
    metrics, problems = {}, []
    for name, (value, unit) in passes[0].items():
        vals = [values[name][0] for values in passes]
        if unit in ("count", "flop"):
            if len(set(vals)) != 1:
                problems.append(f"{name} differs between traced passes: {vals}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(vals), unit)
    return metrics, problems


def layer_metric_names() -> list[str]:
    return ([f"{s}.{f}" for s, fields in SPAN_METRICS.items() for f in fields]
            + list(COUNTERS)
            + ["model.forward.flops_computed", "engine.round_ms.p50", "engine.round_ms.p90"])


def measure_untraced(workload, feds, kernel, deadline, report) -> dict:
    passes: list[PassResult] = []
    run_passes(workload, feds, workload.setup_reps, kernel, deadline, passes)
    report["passes"] = len(passes)
    report["call_s"] = [p.call_s for p in passes]
    report["call_ref_s"] = [p.call_ref for p in passes]
    report["setup_s"] = [p.setup_s for p in passes]
    report["attempted"], report["failed"], report["problems"] = failures(passes, passes[0].digests)
    summarize(workload, passes, report)
    metrics, report["companions"] = end_to_end(workload, feds, passes)
    return metrics


def measure_traced(workload, feds, kernel, root, seed, window, deadline, report) -> dict:
    """K sweep, then untraced passes, then traced passes, in fixed shares
    of the budget; the untraced passes give the tracing overhead and the
    digests the traced passes must reproduce."""
    seconds = deadline - window
    metrics = {}
    attempted = failed = 0
    if hasattr(sfedkd, "local_train"):
        ks_us, attempted, problems = k_sweep(root, seed, window + 0.2 * seconds)
        failed += len(problems)
        report["problems"] += problems
        for k, us in ks_us.items():
            metrics[f"engine.local_train.us_per_step.K{k}"] = (us, "us")
    else:
        report["unmeasured"] += [f"engine.local_train.us_per_step.K{k}" for k in K_SWEEP]
    untraced: list[PassResult] = []
    run_passes(workload, feds, 0, kernel, window + 0.55 * seconds, untraced)
    traced: list[PassResult] = []
    with Tracer() as tracer:
        run_passes(workload, feds, 0, kernel, deadline, traced, before_pass=tracer.begin_pass)
    report["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    report["call_s"] = {"untraced": [p.call_s for p in untraced],
                        "traced": [p.call_s for p in traced]}
    a, f, msgs = failures(untraced + traced, untraced[0].digests)
    layer, count_problems = per_layer(tracer)
    metrics.update(layer)
    unmeasured = [name for name in layer_metric_names() if name not in layer]
    report["attempted"] = attempted + a
    report["failed"] = failed + f + len(count_problems)
    report["problems"] += msgs + count_problems
    report["unmeasured"] += unmeasured
    report["unmeasured_hooks"] = tracer.unmeasured
    metrics["trace.run_s.untraced"] = (mean_of(per_call_medians(untraced)), "s")
    metrics["trace.run_s.traced"] = (mean_of(per_call_medians(traced)), "s")
    # in reference units, so host drift between the two phases cancels
    metrics["trace.overhead"] = (mean_of(per_call_medians(traced, True))
                                 / mean_of(per_call_medians(untraced, True)), "ratio")
    summarize(workload, untraced + traced, report)
    metrics["metrics.final_top1"] = (report["final_top1"], "fraction")
    metrics["metrics.final_forgetting"] = (report["final_forgetting"], "fraction")
    report["spans"] = tracer.passes
    return metrics


def summarize(workload, passes, report) -> None:
    """Deterministic outcomes of the first pass, time per mode, host drift."""
    report["final_top1"] = mean_of(passes[0].top1)
    report["final_forgetting"] = mean_of(passes[0].forgetting)
    meds = per_call_medians(passes)
    n = len(workload.modes)
    report["per_mode_run_s"] = {mode: mean_of(meds[m::n]) for m, mode in enumerate(workload.modes)}
    refs_ms = [r * 1e3 for p in passes for r in p.ref_s]
    report["reference_ms"] = {"median": statistics.median(refs_ms), "min": min(refs_ms),
                              "max": max(refs_ms), "n": len(refs_ms)}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            root: Path, thread_vars, pinned: list[str]) -> dict:
    workload = WORKLOADS[workload_name]
    start = time.perf_counter()
    # one federation at a time, so no two training sets are alive at once
    feds = [prepare_federation(workload, ms, root) for ms in workload.master_seeds(seed)]
    warm_up(feds[0])
    kernel = ReferenceKernel(workload.reference)
    kernel.seconds()
    report = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "master_seeds": [f.master_seed for f in feds], "rounds": workload.rounds,
              "modes": list(workload.modes), "problems": [], "unmeasured": [],
              "manifest": manifest(root, thread_vars, pinned)}
    window = time.perf_counter()
    if trace:
        report["metrics"] = measure_traced(workload, feds, kernel, root, seed, window,
                                           window + seconds, report)
    else:
        report["metrics"] = measure_untraced(workload, feds, kernel, window + seconds, report)
    report["measured_s"] = time.perf_counter() - window
    report["total_s"] = time.perf_counter() - start
    return report


def write_outputs(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    spans = report.pop("spans", None)
    if spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans}, fh)
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    return path
