"""Benchmark harness for the sfedkd simulator.

Run from the repository root:

    python3 perfbench/run.py --workload small_sfedkd --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with no hooks installed;
`--trace 1` runs the K sweep, then untraced and traced passes, and reports
per-layer metrics and the tracing overhead. Both check every run's outputs.
Workloads are defined in workloads.py; the end-to-end times are reported
both in seconds and in units of a reference kernel timed beside each run
(see manifest.ReferenceKernel).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full report, with the
environment manifest (and the spans of a traced run), goes to
`.perfbench_out/` under the repository root.

The package is imported from `src/` of the checkout this file sits in; the
harness exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread unless the caller says otherwise: on a small shared host,
# extra BLAS threads only add scheduling noise to these small matrices.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_report(report: dict, path: Path) -> None:
    passes = report["passes"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"modes {','.join(report['modes'])}  R={report['rounds']}  "
          f"master_seeds {report['master_seeds']}  passes {passes}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, (value, unit) in report.get("companions", {}).items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for mode, value in report["per_mode_run_s"].items():
        print(f"  {'run_s[' + mode + ']':<40} {value:>16.6g} s")
    print(f"  {'final_top1':<40} {report['final_top1']:>16.6g} fraction")
    print(f"  {'final_forgetting':<40} {report['final_forgetting']:>16.6g} fraction")
    share = report["failed"] / report["attempted"]
    print(f"  {'failed_runs':<40} {share:>16.6g} share "
          f"({report['failed']} of {report['attempted']})")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    if report["unmeasured"]:
        print(f"  unmeasured: {', '.join(report['unmeasured'])} "
              f"({json.dumps(report.get('unmeasured_hooks', {}))})")
    ref = report["reference_ms"]
    print(f"  reference kernel over the window: median {ref['median']:.3f} ms, "
          f"min {ref['min']:.3f} ms, max {ref['max']:.3f} ms, n={ref['n']}")
    print(f"  report {path}")
    print("manifest " + json.dumps(report["manifest"], sort_keys=True))


def pin_to_one_cpu() -> tuple[int | None, int | None]:
    """(pinned cpu, cpus available before pinning).

    Run on one CPU, so the reference kernel and the timed calls share it:
    on a shared host the CPUs differ in speed, and a process migrating
    between them mixes both speeds into every ratio."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        return None, None
    return min(cpus), len(cpus)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = [v for v in THREAD_VARS if v not in os.environ]
    for var in pinned:
        os.environ[var] = "1"
    cpu, nproc = pin_to_one_cpu()
    if not (SRC / "sfedkd" / "__init__.py").is_file():
        print(f"error: no sfedkd source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy and the package are imported only after the thread variables
    # are set, because BLAS reads them once when it loads
    import sfedkd
    if Path(sfedkd.__file__).resolve().parent != (SRC / "sfedkd").resolve():
        print(f"error: imported sfedkd from {sfedkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import measure, write_outputs
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT, THREAD_VARS, pinned)
    report["manifest"].update(nproc=nproc, pinned_cpu=cpu)
    path = write_outputs(report, OUT_DIR)
    print_report(report, path)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
