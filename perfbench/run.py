"""Time-to-verdict benchmark of gcartan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every point of the workload runs in a fresh
interpreter (perfbench/point.py), one at a time, and its verdict is checked
against expected.json.  The points are repeated in round(S / PASS_S) passes,
which take about S seconds at the commit that defined the benchmark, each in
an order drawn from the seed; a point's time is its median over the passes.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, whose times are
scaled to a reference machine speed (see REF_CODE); with --trace 1,
the per-layer metrics of two traced passes, whose counts must agree, plus
trace.overhead_s against two untraced passes.  Each run appends a
record to perfbench/out/runs.jsonl.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# a point that fails or passes this limit is charged the limit in verdict_s
POINT_LIMIT_S = 60.0
# no point runs past this, so that a run ends within 180 s
RUN_LIMIT_S = 165.0
# setup and speed samples: this many at the start, and a few after every point
PROBES = 10
PROBES_PER_POINT = 2
SETUP_CODE = "import time, gcartan, gcartan.cli; print(repr(time.monotonic()))"
# A fixed pure-Python loop that never touches gcartan; its time in a fresh
# interpreter samples the machine's speed.  The machine swings by up to 60%
# between runs, so end-to-end times are scaled by REF_S / (mean loop time of
# the same run): they read as seconds at the speed where the loop takes REF_S.
REF_CODE = """
import time
t = time.perf_counter()
acc = {}
x = 1
for i in range(120000):
    x = (x * 31 + i) % 1000003
    acc[x & 4095] = acc.get(x & 4095, 0) + x * i
print(repr(time.perf_counter() - t))
"""
REF_S = 0.05


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a user's install has its .pyc files; the warm-up spawn writes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def probe(setup: list[float], ref: list[float]) -> None:
    """One setup sample (seconds from spawning an interpreter to gcartan and
    gcartan.cli imported) and one sample of the reference loop."""
    t0 = time.monotonic()
    proc = python(["-c", SETUP_CODE], timeout=30)
    proc.check_returncode()
    setup.append(float(proc.stdout) - t0)
    proc = python(["-c", REF_CODE], timeout=30)
    proc.check_returncode()
    ref.append(float(proc.stdout))


def run_point(point: str, traced: bool, deadline: float) -> dict:
    rec = {"point": point, "traced": traced, "load_before": os.getloadavg()[0]}
    limit = min(POINT_LIMIT_S, deadline - time.monotonic())
    try:
        if limit <= 0:
            raise subprocess.TimeoutExpired(point, 0)
        proc = python([str(BENCH / "point.py"), point] + (["--trace"] if traced else []), timeout=limit)
        if proc.returncode:
            rec["error"] = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        else:
            rec.update(json.loads(proc.stdout.splitlines()[-1]))
    except subprocess.TimeoutExpired:
        rec["error"] = f"no verdict within {max(limit, 0):.0f} s"
    rec["load_after"] = os.getloadavg()[0]
    rec["ok"] = "error" not in rec and rec["verdict"]["ok"]
    if not rec["ok"]:
        rec["charged_s"] = POINT_LIMIT_S
        print(f"run: {point} failed: {rec.get('error') or rec['verdict']}", file=sys.stderr)
    return rec


def verdict_s(passes: list[list[dict]]) -> float:
    """Sum over points of the median over passes of the charged time."""
    times: dict[str, list[float]] = {}
    for recs in passes:
        for rec in recs:
            times.setdefault(rec["point"], []).append(rec.get("charged_s", rec.get("elapsed_s")))
    return sum(statistics.median(t) for t in times.values())


def layer_metrics(recs: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its points."""
    out: dict[str, float] = {}
    for rec in recs:
        for key, value in rec.get("trace", {}).items():
            if key.endswith(".max_dim"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    if "snf.diag.attempts" in out:
        attempts = out.pop("snf.diag.attempts")
        successes = out.pop("snf.diag.successes")
        out["snf.diag.success_share"] = successes / attempts if attempts else 0.0
    return out


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".max_dim"):
        return "rows"
    if metric.endswith("_share"):
        return "share"
    return "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gcartan" / "__init__.py").is_file():
        print(f"run: no gcartan sources under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rng = random.Random(args.seed)
    points = list(workloads.WORKLOADS[args.workload])
    # a traced run makes two passes: enough to check that counts repeat
    passes = 2 if args.trace else max(1, round(args.seconds / workloads.PASS_S[args.workload]))
    record = {
        "when": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(), "src_sha256": source_digest(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "load_before": os.getloadavg()[0],
    }
    problems = []

    setup: list[float] = []
    ref: list[float] = []
    probe([], [])  # discarded: compiles the .pyc files
    if args.trace:
        try:
            proc = python([str(BENCH / "selftest.py")], timeout=60)
            if proc.returncode:
                problems.append(f"tracer self-test failed: {proc.stderr.strip()}")
        except subprocess.TimeoutExpired:
            problems.append("tracer self-test did not finish within 60 s")
    else:
        for _ in range(PROBES):
            probe(setup, ref)

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    for _ in range(passes):
        order = rng.sample(points, len(points))
        plain.append([])
        for point in order:
            plain[-1].append(run_point(point, False, deadline))
            if not args.trace:
                for _ in range(PROBES_PER_POINT):
                    probe(setup, ref)
        if args.trace:
            traced.append([run_point(point, True, deadline) for point in order])

    recs = [r for pass_recs in plain + traced for r in pass_recs]
    attempted = len(recs)
    failed = sum(not r["ok"] for r in recs)
    if args.trace:
        per_pass = [layer_metrics(pass_recs) for pass_recs in traced]
        layers = {k: statistics.median(p[k] for p in per_pass) if unit(k) == "s" else per_pass[0][k]
                  for k in per_pass[0]}
        # every count must repeat exactly between traced passes
        problems += [f"benchmark defect: {k} differs between traced passes: "
                     f"{[p.get(k) for p in per_pass]}" for k in per_pass[0]
                     if unit(k) != "s" and any(p.get(k) != per_pass[0][k] for p in per_pass)]
        layers["trace.overhead_s"] = verdict_s(traced) - verdict_s(plain)
        metrics = layers
    else:
        share = (sum(r["verdict"]["verified"] for r in recs if r["ok"])
                 / sum(workloads.verdict_count(r["point"]) for r in recs))
        scale = REF_S / statistics.mean(ref)
        record.update(verdict_wall_s=verdict_s(plain), setup_wall_s=statistics.median(setup),
                      ref_probes=ref, scale=scale)
        metrics = {
            "verdict_s": verdict_s(plain) * scale,
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": max((r["peak_rss_mb"] for r in recs if "peak_rss_mb" in r), default=0.0),
            "verified_share": share,
        }
    absent = sorted({a for r in recs for a in r.get("absent", ())})
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    record.update(load_after=os.getloadavg()[0], elapsed_s=time.monotonic() - start,
                  passes=[[r["point"] for r in pass_recs] for pass_recs in plain], setup_probes=setup,
                  points=recs, absent=absent, problems=problems, result=result)
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for line in problems:
        print(f"run: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
