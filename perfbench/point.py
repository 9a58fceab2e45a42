"""Run one benchmark point in this interpreter and print its result as JSON.

    PYTHONPATH=src python3 perfbench/point.py POINT [--trace]

run.py starts one interpreter per point, so the package's process-wide
caches start cold, as they do for every gcart invocation.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import gcartan.cli  # noqa: F401  (loads every layer, as a gcart call does)
from gcartan import partitions

import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main(argv: list[str]) -> int:
    point = argv[0]
    traced = argv[1:] == ["--trace"]
    expected = json.loads(EXPECTED.read_text())
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    elapsed, verdict = workloads.run(point, expected)
    out = {
        "point": point,
        "elapsed_s": elapsed,
        "verdict": verdict,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        kind, nums = workloads.parse(point)
        ell, d = (nums[0] ** nums[1], nums[2]) if kind == "report" else nums
        out["trace"] = {**tracer.summary(), "gram.dim": partitions.u_count(ell - 1, d)}
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
