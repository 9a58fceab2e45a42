"""Smoke test of the stage-time script bench/stages.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stages_script_writes_a_run(tmp_path):
    out = tmp_path / "stages.json"
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "stages.py"),
             "--points", "2,2", "--repeat", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2  # each run appends its record
    run = runs[-1]
    assert {"git_revision", "src_modified", "src_sha256", "python", "points"} <= set(run)
    (point,) = run["points"]
    assert point["point"] == [2, 2] and point["dim"] == 2
    stages = ["assembly", "at_one", "gram_det_at_one", "snf_int_certified",
              "factor_dets", "det_product", "field_invariants"]
    assert list(point["seconds"]) == stages
    assert all(t >= 0 for t in point["seconds"].values())
    assert len(point["samples"]) == 1 and len(point["invariants_sha256"]) == 64
    assert len(point["det_sha256"]) == 64 and len(point["field_invariants_sha256"]) == 64
    # the local passes of the one sample, as [modulus bits, digits, outcome]:
    # C(1) = [[3, 4], [4, 8]] has |det| 2^3, so the rank pass runs mod 3,
    # then one pass mod 2 at the cap of 4 digits
    assert point["passes"] == [[[2, 1, "ok"], [2, 4, "ok"]]]
    # the moduli of the one sample, as [bits of B, [bits of each prime]]:
    # the 1x1 base factors P(1) and P(2) are 2 and 8 at v=1, and each gets
    # the 30-bit prime at the foot of the table
    assert point["moduli"] == [[[2, [30]], [4, [30]]]]
    # the laurent_det calls of gram_det, as [rows, nodes, [bits of each
    # modulus], seconds], one per base factor (P_2(1) is P(1) at v^2):
    # P(1) = ([2]) is w = v + v^-1, odd, so one node serves its degree 1;
    # P(2) = (2 [2]^2) is 2 w^2, even of degree 2, and takes two nodes
    (calls,) = point["factor_dets"]
    assert [c[:3] for c in calls] == [[1, 1, [30]], [1, 2, [30]]]
    assert all(c[3] >= 0 for c in calls)


def test_stages_script_rejects_a_bad_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"),
         "--points", "7", "--out", str(tmp_path / "stages.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "expected ell,d" in proc.stderr
    assert not (tmp_path / "stages.json").exists()
