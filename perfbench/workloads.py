"""Workloads, points and the checked entry calls of the benchmark.

A point is one (ell, d) check run through the package's public entry points,
the same ones tests/test_acceptance.py calls (criteria 1, 7 and 8).  Each
point's verdict is compared with the committed answer in expected.json, which
gen_expected.py derives from closed forms; nothing here trusts the routine
being timed to judge itself.

gcartan is imported inside the functions, after a tracer may have patched it,
and every call goes through a module attribute, so a patched name is seen.
"""

from __future__ import annotations

import time

# budget of the criterion-8 pipeline in tests/test_acceptance.py
BUDGET = 3000

# the criterion-8 status floor of the conjecture report
REPORT_FLOOR = {
    "determinant": ["VERIFIED"],
    "field-invariants": ["VERIFIED"],
    "integer-invariants": ["VERIFIED"],
    "integral-diagonalization": ["VERIFIED", "CONSISTENT"],
}

WORKLOADS = {
    # try_diagonalize_zlaurent is 90-99% of the three slow points; the two
    # fast ones end VERIFIED and so also run the diagonalizer's sanity check
    "conjecture-report": [
        "report-3-1-4",
        "report-5-1-3",
        "report-2-2-3",
        "report-2-1-4",
        "report-5-1-2",
    ],
    # per-shape y-blocks: laurent_det (det points) and snf_laurent_field /
    # snf_of_diagonal (field points); no full matrix, no diagonalizer
    "block-det-field": ["det-5-4", "det-4-5", "field-5-4", "field-2-12"],
    # criterion 7: full x-basis matrix in Fractions, integer Bareiss per
    # block and the local integer SNF; no Laurent elimination at all
    "integer-snf": ["intsnf-7-4", "intsnf-5-5", "intsnf-3-8"],
}

# seconds one untraced pass of each workload took, with its setup and speed
# samples, at the commit that defined the benchmark (shared 2-core x86-64
# machine, CPython 3.11).  An untraced run makes round(--seconds / PASS_S)
# passes, a count fixed by its arguments, so every commit does the same work
# and a faster one simply finishes sooner.
PASS_S = {"conjecture-report": 20.0, "block-det-field": 19.0, "integer-snf": 12.0}

# tiny points of the tracer self-test: every wrapped function runs on them
SELFTEST_POINTS = ["det-2-2", "field-2-2", "intsnf-2-2", "report-2-1-2"]


def parse(point: str) -> tuple[str, tuple[int, ...]]:
    """'report-3-1-4' -> ('report', (3, 1, 4)): p, r, d for reports, else ell, d."""
    kind, *nums = point.split("-")
    return kind, tuple(int(x) for x in nums)


def verdict_count(point: str) -> int:
    """Verdicts a point gives: one per report layer, else one exact check."""
    return len(REPORT_FLOOR) if parse(point)[0] == "report" else 1


def run(point: str, expected: dict) -> tuple[float, dict]:
    """Run one point and check it; returns (seconds from the entry call to the
    checked verdict, verdict record).

    The record's 'ok' is the point's pass/fail; 'verified' counts its
    verdicts that are proved, out of verdict_count(point).
    """
    kind, nums = parse(point)
    want = expected[point]
    return _RUNNERS[kind](nums, want)


def _det(nums, want):
    from gcartan import gram
    from gcartan.qcartan import type_a
    from gcartan.qlaurent import LaurentPoly

    ell, d = nums
    target = LaurentPoly.from_json(want["det"])
    t0 = time.perf_counter()
    ok = gram.gram_det(type_a(ell), d) == target
    elapsed = time.perf_counter() - t0
    return elapsed, {"ok": ok, "verified": int(ok)}


def _field(nums, want):
    from collections import Counter

    from gcartan import gram
    from gcartan.qcartan import type_a
    from gcartan.qlaurent import LaurentPoly

    ell, d = nums
    target = Counter(LaurentPoly.from_json(e) for e in want["invariants"])
    t0 = time.perf_counter()
    got = gram.gram_field_invariants(type_a(ell), d)
    ok = Counter(got.elements) == target
    elapsed = time.perf_counter() - t0
    return elapsed, {"ok": ok, "verified": int(ok)}


def _intsnf(nums, want):
    from gcartan import gram, snf
    from gcartan.qcartan import type_a

    ell, d = nums
    target = [v for v, count in want["invariants"] for _ in range(count)]
    t0 = time.perf_counter()
    matrix = gram.cartan_graded(ell, d).at_one()
    det1 = abs(gram.gram_det_at_one(type_a(ell), d))
    got = snf.snf_int_certified(matrix, det1)
    ok = sorted(got.elements) == target
    elapsed = time.perf_counter() - t0
    return elapsed, {"ok": ok, "verified": int(ok)}


def _report(nums, want):
    from gcartan import invariants

    p, r, d = nums
    floor = want["floor"]
    t0 = time.perf_counter()
    rep = invariants.conjecture_report(p, r, d, budget=BUDGET)
    statuses = {lay.name: lay.status for lay in rep.layers}
    field_layer = next((lay for lay in rep.layers if lay.name == "field-invariants"), None)
    ok = (
        all(statuses.get(name) in allowed for name, allowed in floor.items())
        and field_layer is not None
        and field_layer.details.get("theorem_subcheck") is True
    )
    elapsed = time.perf_counter() - t0
    verified = sum(statuses.get(name) == "VERIFIED" for name in floor)
    return elapsed, {"ok": ok, "verified": verified, "statuses": statuses}


_RUNNERS = {"det": _det, "field": _field, "intsnf": _intsnf, "report": _report}
