"""Per-layer tracing from outside the package.

Hooks replace a layer's public function at the module that calls it (for
example `sfedkd.engine.total_loss`, the name the round loop looks up), so
one function can be attributed differently at different call sites: the
`forward` that `distill` calls runs teachers, the `forward` that `metrics`
calls runs evaluation. Each wrapped call records a span (name, start, end,
parent) in memory; nothing is written until the run ends.

A hook whose target no longer exists, or whose arguments no longer match
its counter, is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _forward_counts(params, features, *_, **__) -> dict:
    rows = len(features)
    macs = sum(w.shape[0] * w.shape[1] for w in params.weights)
    return {"rows": rows, "flops": 2 * rows * macs}


def _eval_counts(params, dataset, *_, **__) -> dict:
    return {"rows": len(dataset)}


@dataclass(frozen=True)
class Hook:
    span: str                  # layer.function name the span is recorded under
    module: str                # module whose attribute is replaced (the call site)
    attr: str                  # attribute path inside that module
    counts: Callable | None = None  # extra counters computed from the arguments
    count_only: bool = False   # count calls without a span (very hot paths)


HOOKS = (
    Hook("config.resolve_config", "sfedkd.config", "resolve_config"),
    Hook("experiment.run_experiment", "sfedkd.experiment", "run_experiment"),
    Hook("experiment.build_dataset", "sfedkd.experiment", "build_dataset"),
    Hook("experiment.initial_state", "sfedkd.experiment", "initial_state"),
    Hook("data.generate_synthetic", "sfedkd.experiment", "generate_synthetic"),
    Hook("data.split_train_test", "sfedkd.experiment", "split_train_test"),
    Hook("data.partition_exdir", "sfedkd.experiment", "partition_exdir"),
    Hook("data.class_distribution", "sfedkd.experiment", "class_distribution"),
    Hook("data.class_distribution", "sfedkd.engine", "class_distribution"),
    Hook("engine.round", "sfedkd.experiment", "run_round"),
    Hook("engine.round", "sfedkd.experiment", "fedavg_round"),
    Hook("engine.collect_teachers", "sfedkd.engine", "collect_teachers"),
    Hook("engine.local_train", "sfedkd.engine", "local_train"),
    Hook("engine.weighted_average", "sfedkd.engine", "weighted_average"),
    Hook("selection.greedy_select", "sfedkd.engine", "greedy_select"),
    Hook("selection.random_select", "sfedkd.engine", "random_select"),
    Hook("distill.total_loss", "sfedkd.engine", "total_loss"),
    Hook("distill.with_weights", "sfedkd.distill", "TeacherEnsemble.with_weights"),
    Hook("model.teacher_forward", "sfedkd.distill", "forward", _forward_counts),
    Hook("model.student_forward", "sfedkd.distill", "forward_cached", _forward_counts),
    Hook("model.backprop", "sfedkd.distill", "backprop"),
    Hook("model.cross_entropy_grad", "sfedkd.distill", "cross_entropy_grad"),
    Hook("model.sgd_step", "sfedkd.engine", "sgd_step"),
    Hook("model.snapshot", "sfedkd.engine", "snapshot"),
    Hook("model.eval_forward", "sfedkd.metrics", "forward", _forward_counts),
    Hook("model.params_constructed", "sfedkd.model", "ModelParams.__post_init__",
         count_only=True),
    Hook("metrics.evaluate", "sfedkd.engine", "evaluate", _eval_counts),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs hooks, records spans and counters per pass, restores on exit."""

    def __init__(self):
        self.passes: list[list[tuple]] = []   # spans: (name, start, end, parent)
        self.pass_counts: list[dict] = []
        self.installed: set[str] = set()
        self.unmeasured: dict[str, str] = {}  # hook or counter -> reason
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for hook in HOOKS:
            try:
                owner, leaf = self._resolve(hook)
            except (ImportError, AttributeError) as exc:
                self.unmeasured[f"{hook.module}.{hook.attr}"] = f"{type(exc).__name__}: {exc}"
                continue
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(hook, original))
            self._undo.append((owner, leaf, original))
            self.installed.add(hook.span)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    @staticmethod
    def _resolve(hook: Hook):
        owner = importlib.import_module(hook.module)
        *path, leaf = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            if leaf not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} defines no {leaf!r}")
        elif not callable(getattr(owner, leaf)):
            raise AttributeError(f"{hook.module}.{hook.attr} is not callable")
        return owner, leaf

    def begin_pass(self) -> None:
        self.passes.append([])
        self.pass_counts.append(defaultdict(int))
        self._stack.clear()

    def _wrap(self, hook: Hook, fn):
        tracer = self
        name = hook.span

        if hook.count_only:
            def counted(*args, **kwargs):
                tracer.pass_counts[-1][name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            counts = tracer.pass_counts[-1]
            if hook.counts is not None:
                try:
                    for key, value in hook.counts(*args, **kwargs).items():
                        counts[f"{name}.{key}"] += value
                except Exception as exc:  # the call's signature changed
                    tracer.unmeasured[f"{name} counters"] = f"{type(exc).__name__}: {exc}"
            spans, stack = tracer.passes[-1], tracer._stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
        return traced


def span_stats(spans: list[tuple]) -> dict[str, SpanStats]:
    """Calls, total and self time per span name; self time excludes children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for i, (name, start, end, _) in enumerate(spans):
        s = stats[name]
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child_time[i]
    return stats


def durations(spans: list[tuple], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]
