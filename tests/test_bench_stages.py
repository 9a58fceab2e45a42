"""Smoke test of the stage-time script bench/stages.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# in the order the child runs them: the integer-snf stages, then the Laurent
# entries and layer 4's diagonalizer on them, then the per-shape Laurent path
STAGES = ["at_one", "gram_det_at_one", "snf_int_certified", "assembly", "diagonalize",
          "factor_dets", "det_product", "field_invariants"]


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
    stages = STAGES
    assert list(point["seconds"]) == stages
    assert all(t >= 0 for t in point["seconds"].values())
    assert len(point["samples"]) == 1 and len(point["invariants_sha256"]) == 64
    assert len(point["det_sha256"]) == 64 and len(point["field_invariants_sha256"]) == 64
    # C^v_{2,2} is diagonalized over Z[v,v^-1] in 3 passes
    assert (point["diagonalize_steps"], point["diagonalize_stopped"]) == (3, "cleared")
    assert len(point["diagonalize_sha256"]) == 64
    # the reference loop of perfbench/run.py, timed once per sample
    assert len(point["ref_s"]) == 1 and point["ref_s_median"] == point["ref_s"][0] > 0
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


def test_diagonalize_stage_is_null_above_its_dimension(monkeypatch):
    # past DIAG_MAX_DIM rows the diagonalizer does not run: its seconds,
    # steps, stop reason and digest are null, and a summary keeps them so
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import stages
    finally:
        sys.path.remove(str(ROOT / "bench"))
    monkeypatch.setattr(stages, "DIAG_MAX_DIM", 1)
    sample = stages.run_point(2, 2)
    assert sample["dim"] == 2 and sample["seconds"]["diagonalize"] is None
    assert sample["diagonalize_steps"] is sample["diagonalize_sha256"] is None
    summary = stages.summarize([sample])
    assert summary["seconds"]["diagonalize"] is None and summary["diagonalize_stopped"] is None
    assert all(summary["seconds"][k] >= 0 for k in STAGES if k != "diagonalize")


def test_stages_script_rejects_a_bad_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"),
         "--points", "7", "--out", str(tmp_path / "stages.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "expected ell,d" in proc.stderr
    assert not (tmp_path / "stages.json").exists()


def _worktrees():
    proc = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30, check=True)
    return [line for line in proc.stdout.splitlines() if line.startswith("worktree ")]


def test_stages_script_compares_with_a_parent(tmp_path):
    # --parent HEAD: the committed package against the one next to the
    # script, two interleaved pairs, in one record
    out = tmp_path / "stages.json"
    before = _worktrees()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"),
         "--points", "2,2", "--repeat", "2", "--parent", "HEAD", "--out", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert _worktrees() == before  # the parent's tree is no git worktree
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=True).stdout.strip()
    (run,) = json.loads(out.read_text())["runs"]
    assert run["parent_revision"] == head and len(run["parent_src_sha256"]) == 64
    (point,) = run["points"]
    assert point["point"] == [2, 2] and point["outputs_agree"] is True
    for side in ("parent", "change"):
        assert point[side]["dim"] == 2 and list(point[side]["seconds"]) == STAGES
        assert len(point[side]["samples"]) == len(point[side]["ref_s"]) == 2
    assert list(point["wins"]) == STAGES
    assert point["parent"]["diagonalize_steps"] == point["change"]["diagonalize_steps"] == 3
    assert all(w["parent"] + w["change"] <= 2 for w in point["wins"].values())


def test_stages_script_rejects_an_unknown_parent(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"), "--points", "2,2",
         "--parent", "no-such-revision", "--out", str(tmp_path / "stages.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "unknown revision" in proc.stderr
    assert not (tmp_path / "stages.json").exists()
