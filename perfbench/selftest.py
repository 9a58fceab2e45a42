"""Self-test of the span installer on tiny points.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs the self-test points untraced, then traced, in one interpreter, and
fails (exit 1) unless every point passes its check, traced verdicts equal
untraced ones, and every installed span and ring-operation counter fired.
Targets that no longer exist in the package are listed, not failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gcartan.cli  # noqa: F401

import workloads
from spans import Tracer

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    expected = json.loads(EXPECTED.read_text())
    points = workloads.SELFTEST_POINTS
    plain = {p: workloads.run(p, expected)[1] for p in points}
    tracer = Tracer()
    tracer.install()
    try:
        traced = {p: workloads.run(p, expected)[1] for p in points}
    finally:
        tracer.uninstall()
    problems = [f"{p}: check failed: {plain[p]}" for p in points if not plain[p]["ok"]]
    problems += [f"{p}: traced verdict {traced[p]} != untraced {plain[p]}"
                 for p in points if traced[p] != plain[p]]
    summary = tracer.summary()
    problems += [f"span {name} never fired" for name in tracer.stats if not summary[f"{name}.calls"]]
    problems += [f"counter qlaurent.{kind} never fired" for kind in tracer.op_kinds
                 if not summary[f"qlaurent.{kind}"]]
    for name in tracer.absent:
        print(f"selftest: {name} is absent; its metrics are not reported", file=sys.stderr)
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'PASS'} ({len(tracer.stats)} spans, "
          f"{len(tracer.op_kinds)} counters)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
