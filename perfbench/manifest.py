"""Environment manifest recorded beside every benchmark result.

Timings depend on the interpreter, the BLAS build and its thread count, and
on how busy the host is. The reference kernel's times, taken between the
timed calls, show the host's drift beside each number.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def git_rev(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {name: {k: deps[name].get(k) for k in ("name", "version", "openblas configuration")}
            for name in ("blas", "lapack") if name in deps}


class ReferenceKernel:
    """Fixed work that stands in for the host's speed at one moment.

    Host speed on a shared machine drifts by tens of percent within
    minutes, and not alike for all work: interpreter-bound small-matrix code
    and BLAS-bound wide GEMMs slow down differently. The kernel is built
    from parts shaped like the workload it calibrates: "small" runs MLP
    training steps on 64x8 inputs (Python and small numpy calls), "wide"
    runs 64x784 GEMMs. No part uses package code, so a change to the package
    cannot move the kernel; a run's time divided by the kernel's time, taken
    right beside it, cancels most of the host's drift.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [getattr(self, f"_{p}") for p in parts]
        rng = np.random.default_rng(0)
        if "small" in parts:
            self.x = rng.standard_normal((64, 8))
            self.rows = np.arange(64)
            self.y = rng.integers(0, 10, 64)
            self.w1 = rng.standard_normal((32, 8)) * 0.3
            self.w2 = rng.standard_normal((10, 32)) * 0.3
        if "wide" in parts:
            self.xb = rng.standard_normal((64, 784))
            self.wb = rng.standard_normal((64, 784)) * 0.03
            self.eval_x = rng.standard_normal((2000, 784))

    def _small(self) -> None:
        w1, w2 = self.w1, self.w2
        for _ in range(150):
            h = self.x @ w1.T
            mask = h > 0
            a = np.where(mask, h, 0.0)
            z = a @ w2.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[self.rows, self.y] -= 1.0
            p /= 64
            w1 = w1 - 0.05 * (((p @ w2) * mask).T @ self.x)
            w2 = w2 - 0.05 * (p.T @ a)

    def _wide(self) -> None:
        w = self.wb
        for _ in range(20):
            w = w - 1e-4 * ((self.xb @ w.T).T @ self.xb)
        (self.eval_x @ w.T).sum()

    def seconds(self, reps: int = 5) -> float:
        """Sum over the parts of each part's median wall time over `reps` runs."""
        total = 0.0
        for part in self.parts:
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                part()
                times.append(time.perf_counter() - t0)
            total += statistics.median(times)
        return total


def manifest(root: Path, thread_vars, pinned: list[str]) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "thread_env_set_by_benchmark": pinned,
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(root),
    }
