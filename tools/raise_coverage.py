"""List every `raise` in src/sfedkd that the test suite never runs.

    PYTHONPATH=src python tools/raise_coverage.py

Runs the tests in-process under a line trace of the package's own frames,
with a fixed Hypothesis seed, so that no random draw decides whether a check
runs. The benchmark harness test is deselected: it runs the package in a
subprocess, which the trace cannot see. Then walks each module's AST for
`raise` statements. A `raise` counts as run when any of its lines ran.

Exits with pytest's code if a test fails, 1 if some `raise` never ran (each
printed as path:line), and 0 otherwise.
"""

import ast
import sys
from pathlib import Path

import pytest

import sfedkd

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sfedkd.__file__).resolve().parent
HARNESS_TEST = "test_traced_harness_run_measures_every_hook"


def main() -> int:
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", "--rootdir", str(ROOT),
                            "--deselect", f"tests/test_bench_harness.py::{HARNESS_TEST}",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if code:
        return code
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and not any(
                    (str(path), line) in ran for line in range(node.lineno, node.end_lineno + 1)):
                unrun.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    print("\n".join(unrun) or f"every raise in {PACKAGE.relative_to(ROOT)} ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
