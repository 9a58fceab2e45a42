"""Stage times of the v=1 path and of the per-shape Laurent path, point by point.

    python3 bench/stages.py [--points 7,4 9,4 ...] [--repeat N] [--out PATH]
                            [--parent REV]

Run from any directory; the package is imported from the `src/` next to
this script.  For each (ell, d) point, each repeat runs in a fresh
interpreter, so process-wide caches start cold as they do for every `gcart`
call, and is killed after CAP_S seconds.  It times the three stages of
criterion 7 in the order the integer-snf benchmark workload runs them:

    at_one             gram.cartan_graded(ell, d).at_one(), C(1) built on
                       integers, with the Laurent entries never built
    gram_det_at_one    |gram.gram_det_at_one(type_a(ell), d)|
    snf_int_certified  snf.snf_int_certified(C(1), |det|)

then the Laurent Gram matrix that layer 4 of the report reads, and layer 4:

    assembly           GramMatrix.entries of the same matrix
    diagonalize        snf.try_diagonalize_zlaurent on those entries, at
                       points whose Gram dimension is at most DIAG_MAX_DIM
                       (that of (4,5)); null at larger points

then the three stages of the per-shape path that the block-det-field
workload runs:

    factor_dets        every laurent_det call of gram.gram_det(type_a(ell), d),
                       on a Kronecker factor or a half of its colour reversal
                       split
    det_product        the rest of gram_det: the splits, and the product of
                       the factor determinants' Kronecker powers
    field_invariants   gram.gram_field_invariants(type_a(ell), d)

The factors P(m) are memoised per ring.  at_one builds only the integer
P(m), expanded from [X] at v=1, which gram_det_at_one reads back; assembly
builds the Laurent P(m), which det_product reads back, so det_product does
not include building them.  Each laurent_det call is recorded as [rows,
nodes, [bits of each modulus], seconds], its nodes being the F_p
eliminations it runs per modulus.  A digest of the v=1 invariants, of the
determinant and of the field invariants lets two runs be checked to agree on
the output as well as compared on time; so does one of the diagonalizer's
steps, stop reason and diagonal, which are also recorded as
diagonalize_steps and diagonalize_stopped.  It also records every
elimination pass of the local Smith engine (`snf._local_valuations`, wrapped
from outside the package, as perfbench/spans.py wraps its spans) during the
v=1 stages, not those of the diagonalizer's cross-check: the bit
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
sample's local passes, moduli and laurent_det calls, every sample's time of
the reference loop of perfbench/run.py (REF_CODE, imported from there, run in
its own fresh interpreter after the sample) with its median, so runs on
different days compare, and the digests, or the error that stopped the point.

With --parent REV, each point is sampled for the package of REV, its src/
extracted by `git archive` into a temporary directory, and for the package
next to this script, alternately (the side that goes first alternates too),
each sample in a fresh interpreter.  Both sides run this script's child
program, so each stage times the same calls; a parent that builds C(1) from
the Laurent matrix, or from the Laurent P(m), spends that build in at_one and
reads it back in assembly.  The one record then holds the parent's revision
and source digest and, per point, each side's samples and per-stage medians,
the count of pairs that each side won per stage, and whether the two sides'
digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))
from perfbench.run import REF_CODE  # noqa: E402
STAGES = (
    "at_one", "gram_det_at_one", "snf_int_certified", "assembly", "diagonalize",
    "factor_dets", "det_product", "field_invariants",
)
DIGESTS = ("invariants_sha256", "det_sha256", "field_invariants_sha256", "diagonalize_sha256")
# block-det-field points (its det points are (5,4) and (4,5)), integer-snf
# points, then the v=1 frontier
POINTS = ((5, 4), (4, 5), (2, 12), (7, 4), (5, 5), (3, 8), (9, 4), (7, 5), (4, 7), (5, 6))
# the largest Gram dimension whose diagonalize stage runs, that of (4,5):
# layer 4 takes 0.4-0.7 s there, but 65 s at (7,4), 315 rows, many times
# all the other stages of that point together
DIAG_MAX_DIM = 108
# seconds allowed per sample; factor_dets at (9,4) and (7,5), 70-140 s on a
# shared 2-core machine, is the slowest stage of the default points
CAP_S = 300.0

CHILD = """
import hashlib, json, math, sys, time
from gcartan import gram, linalg, snf
from gcartan.qcartan import type_a
ell, d, diag_max_dim = (int(x) for x in sys.argv[1:4])
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
m = g.at_one()
t.append(time.perf_counter())
det = abs(gram.gram_det_at_one(type_a(ell), d))
t.append(time.perf_counter())
inv = snf.snf_int_certified(m, det)
t.append(time.perf_counter())
moduli_at_one, passes_at_one = list(moduli), list(passes)
entries = g.entries
t.append(time.perf_counter())
diag = None
if g.size <= diag_max_dim:
    diag = snf.try_diagonalize_zlaurent(entries)
    diag_s = time.perf_counter() - t[-1]
t.append(time.perf_counter())
gdet = gram.gram_det(type_a(ell), d)
t_det = time.perf_counter() - t[-1]
field = gram.gram_field_invariants(type_a(ell), d)
field_s = time.perf_counter() - t[-1] - t_det
factor_s = sum(x[-1] for x in factor_dets)
print(json.dumps({"dim": g.size,
                  "seconds": [b - a for a, b in zip(t, t[1:-1])]
                             + [diag_s if diag else None, factor_s, t_det - factor_s, field_s],
                  "passes": passes_at_one, "moduli": moduli_at_one, "factor_dets": factor_dets,
                  "invariants_sha256": sha(inv.elements),
                  "det_sha256": sha(sorted(gdet.terms.items())),
                  "field_invariants_sha256":
                      sha([sorted(e.terms.items()) for e in field.elements]),
                  "diagonalize_steps": diag and diag.steps,
                  "diagonalize_stopped": diag and diag.stopped,
                  "diagonalize_sha256": diag and sha([
                      diag.steps, diag.stopped,
                      diag.diagonal and [sorted(e.terms.items()) for e in diag.diagonal.elements]])}))
"""


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src: Path = SRC) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_point(ell: int, d: int, src: Path = SRC) -> dict:
    """One fresh-interpreter sample of the point with the package in src:
    dim, seconds per stage and the invariants digest, or {"error": ...}."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(ell), str(d), str(DIAG_MAX_DIM)],
            env=env, capture_output=True, text=True, timeout=CAP_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"over the cap of {CAP_S} s"}
    if proc.returncode:
        return {"error": proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "failed"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    ref = subprocess.run([sys.executable, "-c", REF_CODE], capture_output=True, text=True,
                         timeout=30, check=True)
    seconds = {k: None if x is None else round(x, 6) for k, x in zip(STAGES, out["seconds"])}
    return {**out, "seconds": seconds,
            "ref_s": round(float(ref.stdout), 6)}


def summarize(samples: list[dict]) -> dict:
    """The samples of one point and one package, with the median per stage,
    or {"error": ...}."""
    failed = next((s for s in samples if "error" in s), None)
    if failed is not None:
        return {"error": failed["error"]}
    digests = {k: {s[k] for s in samples} for k in DIGESTS}
    if any(len(v) != 1 for v in digests.values()):
        return {"error": "samples disagree on an output"}
    return {
        "dim": samples[0]["dim"],
        "seconds": {k: _median([s["seconds"][k] for s in samples]) for k in STAGES},
        "samples": [s["seconds"] for s in samples],
        "passes": [s["passes"] for s in samples],
        "moduli": [s["moduli"] for s in samples],
        "factor_dets": [s["factor_dets"] for s in samples],
        "ref_s": [s["ref_s"] for s in samples],
        "ref_s_median": statistics.median(s["ref_s"] for s in samples),
        "diagonalize_steps": samples[0]["diagonalize_steps"],
        "diagonalize_stopped": samples[0]["diagonalize_stopped"],
        **{k: v.pop() for k, v in digests.items()},
    }


def _median(seconds: list) -> float | None:
    # a stage that did not run (null) has a null median
    return None if None in seconds else statistics.median(seconds)


def measure(ell: int, d: int, repeat: int) -> dict:
    return {"point": [ell, d], **summarize([run_point(ell, d) for _ in range(repeat)])}


def compare(ell: int, d: int, repeat: int, parent_src: Path) -> dict:
    """Interleaved samples of the parent's package and this one: per side the
    summary, per stage the pairs each side won, and whether the digests
    agree."""
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(repeat):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            sides[side].append(run_point(ell, d, parent_src if side == "parent" else SRC))
    rec = {"point": [ell, d], **{side: summarize(s) for side, s in sides.items()}}
    failed = [f"{side}: {rec[side]['error']}" for side in sides if "error" in rec[side]]
    if failed:
        return {**rec, "error": "; ".join(failed)}
    pairs = list(zip(sides["parent"], sides["change"]))
    rec["wins"] = {}
    for stage in STAGES:
        timed = [(p["seconds"][stage], c["seconds"][stage]) for p, c in pairs]
        timed = [(p, c) for p, c in timed if p is not None and c is not None]
        rec["wins"][stage] = {"parent": sum(p < c for p, c in timed),
                              "change": sum(c < p for p, c in timed)}
    rec["outputs_agree"] = all(rec["parent"][k] == rec["change"][k] for k in DIGESTS)
    return rec


@contextmanager
def parent_tree(rev: str):
    """A temporary directory holding rev's src/, extracted by `git archive`,
    removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="stages-parent-"))
    try:
        tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True, check=True, timeout=120).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _point(text: str) -> tuple[int, int]:
    try:
        ell, d = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ell,d, got {text!r}") from None
    if ell < 2 or d < 0:
        raise argparse.ArgumentTypeError(f"need ell >= 2 and d >= 0, got {text!r}")
    return ell, d


def _shown(rec: dict, repeat: int) -> str:
    if "error" in rec:
        return rec["error"]
    if "wins" not in rec:
        return " ".join(f"{k} {_secs(v)}" for k, v in rec["seconds"].items())
    # parent / change medians, and the pairs the change won
    return " ".join(
        f"{k} {_secs(rec['parent']['seconds'][k])}/{_secs(rec['change']['seconds'][k])}"
        f" ({rec['wins'][k]['change']}/{repeat})"
        for k in STAGES
    )


def _secs(x: float | None) -> str:
    return "-" if x is None else f"{x:.3f}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--points", nargs="+", type=_point, default=list(POINTS), metavar="ELL,D")
    ap.add_argument("--repeat", type=int, default=3, help="fresh interpreters per point (per side)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_stages.json")
    ap.add_argument("--parent", metavar="REV", help="sample REV's package too, interleaved")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    parent = None
    if args.parent is not None:
        parent = _git("rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}")
        if not parent:
            ap.error(f"unknown revision {args.parent!r}")

    with parent_tree(parent) if parent else nullcontext() as tree:
        load_before = os.getloadavg()[0]
        points = []
        for ell, d in args.points:
            if tree is None:
                rec = measure(ell, d, args.repeat)
            else:
                rec = compare(ell, d, args.repeat, tree / "src")
            points.append(rec)
            print(f"({ell},{d}) {_shown(rec, args.repeat)}", file=sys.stderr)
        record = {
            "git_revision": _git("rev-parse", "HEAD"),
            "src_modified": bool(_git("status", "--porcelain", "--", "src")),
            "src_sha256": source_digest(),
            **({"parent_revision": parent, "parent_src_sha256": source_digest(tree / "src")}
               if tree is not None else {}),
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
