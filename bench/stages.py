"""Stage times of the v=1 path and of the per-shape Laurent path, point by point.

    python3 bench/stages.py [--points 7,4 9,4 ...] [--repeat N] [--out PATH]

Run from any directory; the package is imported from the `src/` next to
this script.  For each (ell, d) point, each repeat runs in a fresh
interpreter, so process-wide caches start cold as they do for every `gcart`
call, and is killed after CAP_S seconds.  It times the four stages of
criterion 7 in the order the integer-snf benchmark workload runs them:

    assembly           gram.cartan_graded(ell, d)
    at_one             GramMatrix.at_one()
    gram_det_at_one    |gram.gram_det_at_one(type_a(ell), d)|
    snf_int_certified  snf.snf_int_certified(C(1), |det|)

then the three stages of the per-shape path that the block-det-field
workload runs:

    factor_dets        every laurent_det call of gram.gram_det(type_a(ell), d),
                       on a Kronecker factor or a half of its colour reversal
                       split
    det_product        the rest of gram_det: the splits, and the product of
                       the factor determinants' Kronecker powers
    field_invariants   gram.gram_field_invariants(type_a(ell), d)

The factors P_s(m) are memoised, and the v=1 stages have built them, so
det_product does not include building them.  Each laurent_det call is
recorded as [rows, nodes, [bits of each modulus], seconds], its nodes being
the F_p eliminations it runs per modulus.  A digest of the v=1 invariants,
of the determinant and of the field invariants lets two runs be checked to
agree on the output as well as compared on time.  It also records every
elimination pass of the local Smith engine (`snf._local_valuations`, wrapped
from outside the package, as perfbench/spans.py wraps its spans): the bit
length of the modulus, the digits, and the outcome, "ok", "short" (the
precision ran out) or "split" (a proper factor of the modulus was met).
Likewise it records every choice of moduli for the multi-modular
determinant (`linalg._moduli`): the bit length of the Hadamard bound B and
of each prime chosen during the v=1 stages.  The default points are the
three of the block-det-field workload, the three of the integer-snf workload
and the v=1 frontier points.

One run appends one record to the JSON file --out (default BENCH_stages.json
at the repository root): {"runs": [record, ...]}, one compact record per
line, so each run adds one line to the file's diff.  A record holds the git
revision, whether src/ differs from it, a SHA-256 of src/, the Python
version, the machine, nproc, the load average before and after, and per
point: dim, every sample's seconds per stage, the median per stage, every
sample's local passes, moduli and laurent_det calls, and the digests, or the
error that stopped the point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STAGES = (
    "assembly", "at_one", "gram_det_at_one", "snf_int_certified",
    "factor_dets", "det_product", "field_invariants",
)
DIGESTS = ("invariants_sha256", "det_sha256", "field_invariants_sha256")
# block-det-field points (its det points are (5,4) and (4,5)), integer-snf
# points, then the v=1 frontier
POINTS = ((5, 4), (4, 5), (2, 12), (7, 4), (5, 5), (3, 8), (9, 4), (7, 5), (4, 7), (5, 6))
# seconds allowed per sample; factor_dets at (9,4) and (7,5), 70-140 s on a
# shared 2-core machine, is the slowest stage of the default points
CAP_S = 300.0

CHILD = """
import hashlib, json, math, sys, time
from gcartan import gram, linalg, snf
from gcartan.qcartan import type_a
ell, d = int(sys.argv[1]), int(sys.argv[2])
passes = []
local = snf._local_valuations
def record(matrix, p, digits):
    got = local(matrix, p, digits)
    outcome = "short" if got is None else "split" if isinstance(got, int) else "ok"
    passes.append([p.bit_length(), digits, outcome])
    return got
snf._local_valuations = record
moduli = []
choose = linalg._moduli
def record_moduli(bound_sq):
    got = choose(bound_sq)
    moduli.append([math.isqrt(bound_sq).bit_length(), [p.bit_length() for p in got]])
    return got
linalg._moduli = record_moduli
eliminations = [0]
def counted(kernel):
    def run(m, p):
        eliminations[0] += 1
        return kernel(m, p)
    return run
linalg._sym_det_mod = counted(linalg._sym_det_mod)
linalg._det_mod = counted(linalg._det_mod)
factor_dets = []
laurent_det = linalg.laurent_det
def record_det(matrix):
    seen, chosen = eliminations[0], len(moduli)
    t0 = time.perf_counter()
    got = laurent_det(matrix)
    took = time.perf_counter() - t0
    bits = [b for _, primes in moduli[chosen:] for b in primes]
    nodes = (eliminations[0] - seen) // max(len(bits), 1)
    factor_dets.append([len(matrix), nodes, bits, round(took, 6)])
    return got
gram.laurent_det = record_det
def sha(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()
t = [time.perf_counter()]
g = gram.cartan_graded(ell, d)
t.append(time.perf_counter())
m = g.at_one()
t.append(time.perf_counter())
det = abs(gram.gram_det_at_one(type_a(ell), d))
t.append(time.perf_counter())
inv = snf.snf_int_certified(m, det)
t.append(time.perf_counter())
moduli_at_one = list(moduli)
gdet = gram.gram_det(type_a(ell), d)
t_det = time.perf_counter() - t[-1]
field = gram.gram_field_invariants(type_a(ell), d)
field_s = time.perf_counter() - t[-1] - t_det
factor_s = sum(x[-1] for x in factor_dets)
print(json.dumps({"dim": g.size,
                  "seconds": [b - a for a, b in zip(t, t[1:])]
                             + [factor_s, t_det - factor_s, field_s],
                  "passes": passes, "moduli": moduli_at_one, "factor_dets": factor_dets,
                  "invariants_sha256": sha(inv.elements),
                  "det_sha256": sha(sorted(gdet.terms.items())),
                  "field_invariants_sha256":
                      sha([sorted(e.terms.items()) for e in field.elements])}))
"""


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_point(ell: int, d: int) -> dict:
    """One fresh-interpreter sample of the point: dim, seconds per stage and
    the invariants digest, or {"error": ...}."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(ell), str(d)],
            env=env, capture_output=True, text=True, timeout=CAP_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"over the cap of {CAP_S} s"}
    if proc.returncode:
        return {"error": proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "failed"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**out, "seconds": {k: round(x, 6) for k, x in zip(STAGES, out["seconds"])}}


def measure(ell: int, d: int, repeat: int) -> dict:
    samples = [run_point(ell, d) for _ in range(repeat)]
    failed = next((s for s in samples if "error" in s), None)
    if failed is not None:
        return {"point": [ell, d], "error": failed["error"]}
    digests = {k: {s[k] for s in samples} for k in DIGESTS}
    if any(len(v) != 1 for v in digests.values()):
        return {"point": [ell, d], "error": "samples disagree on an output"}
    return {
        "point": [ell, d],
        "dim": samples[0]["dim"],
        "seconds": {k: statistics.median(s["seconds"][k] for s in samples) for k in STAGES},
        "samples": [s["seconds"] for s in samples],
        "passes": [s["passes"] for s in samples],
        "moduli": [s["moduli"] for s in samples],
        "factor_dets": [s["factor_dets"] for s in samples],
        **{k: v.pop() for k, v in digests.items()},
    }


def _point(text: str) -> tuple[int, int]:
    try:
        ell, d = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ell,d, got {text!r}") from None
    if ell < 2 or d < 0:
        raise argparse.ArgumentTypeError(f"need ell >= 2 and d >= 0, got {text!r}")
    return ell, d


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", nargs="+", type=_point, default=list(POINTS), metavar="ELL,D")
    ap.add_argument("--repeat", type=int, default=3, help="fresh interpreters per point")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_stages.json")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    load_before = os.getloadavg()[0]
    points = []
    for ell, d in args.points:
        rec = measure(ell, d, args.repeat)
        points.append(rec)
        shown = rec.get("error") or " ".join(f"{k} {v:.3f}" for k, v in rec["seconds"].items())
        print(f"({ell},{d}) {shown}", file=sys.stderr)
    record = {
        "git_revision": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_1m": [load_before, os.getloadavg()[0]],
        "repeat": args.repeat,
        "points": points,
    }
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    lines = ",\n".join(json.dumps(run, separators=(",", ":")) for run in runs + [record])
    args.out.write_text('{"runs": [\n' + lines + "\n]}\n")
    return 1 if any("error" in p for p in points) else 0


if __name__ == "__main__":
    sys.exit(main())
