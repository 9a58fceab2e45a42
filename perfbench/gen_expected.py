"""Write expected.json, the committed answer of every benchmark point.

Each answer comes from a closed form and is cross-checked, once, against a
second route when it is generated:

  det     shapovalov_det_formula; equal to gram_det
  field   invariant factors of the bracket-product diagonal, from the
          cyclotomic factorization [n]_s ~ prod_{m | 2ns, m !| 2s} Phi_m;
          equal to snf_of_diagonal of that diagonal and to
          gram_field_invariants
  intsnf  the Hill multiset (snf_int_diagonal of hill_values); its product
          equals |det| at v=1 of the closed formula and of gram_det_at_one,
          and it equals snf_int_certified
  report  the criterion-8 status floor; the report must meet it now, and
          its determinant and v=1 layers are recomputed independently

Run from the repository root:  PYTHONPATH=src python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import workloads
from gcartan import gram, partitions as pt, snf
from gcartan.invariants import bracket_product_values, conjecture_report, hill_values
from gcartan.qcartan import shapovalov_det_formula, type_a
from gcartan.qlaurent import ONE, LaurentPoly, cyclotomic, quantum_int

OUT = Path(__file__).resolve().parent / "expected.json"


def prime_power(ell: int) -> tuple[int, int]:
    p = next(f for f in range(2, ell + 1) if ell % f == 0)
    r = 0
    while ell % p == 0:
        ell //= p
        r += 1
    if ell != 1:
        raise ValueError("ell is not a prime power")
    return p, r


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"cross-check failed: {what}")


def bracket_cyclotomic_exponents(n: int, s: int) -> Counter:
    """[n]_s = v^{-s(n-1)} (v^{2ns} - 1) / (v^{2s} - 1) as cyclotomic exponents."""
    return Counter({m: 1 for m in range(1, 2 * n * s + 1) if (2 * n * s) % m == 0 and (2 * s) % m})


def from_exponents(exps: Counter) -> LaurentPoly:
    out = ONE
    for m, e in exps.items():
        out = out * cyclotomic(m) ** e
    return out


def field_closed_form(ell: int, d: int) -> list[LaurentPoly]:
    """Invariant factors over Q[v,v^-1] of diag(prod_i [ell]_i^{m_i(lam)}):
    Phi_m is irreducible over Q, so the k-th invariant factor takes the k-th
    smallest exponent of every Phi_m."""
    for i in range(1, d + 1):
        unit = LaurentPoly({-i * (ell - 1): 1})
        check(unit * from_exponents(bracket_cyclotomic_exponents(ell, i)) == quantum_int(ell, i),
              f"cyclotomic factorization of [{ell}]_{i}")
    diagonal = []
    for s in range(d + 1):
        mult = pt.u_count(ell - 2, d - s)
        for lam in pt.enum_partitions(s) if mult else ():
            exps = Counter()
            for i, m in pt.mults(lam).items():
                for c, e in bracket_cyclotomic_exponents(ell, i).items():
                    exps[c] += e * m
            diagonal.extend([exps] * mult)
    n = len(diagonal)
    check(n == pt.u_count(ell - 1, d), "diagonal length is the Gram dimension")
    columns = {m: sorted(exps[m] for exps in diagonal) for m in set().union(*diagonal)}
    return [from_exponents(Counter({m: col[k] for m, col in columns.items()})) for k in range(n)]


def det_answer(ell: int, d: int) -> dict:
    want = shapovalov_det_formula(type_a(ell), d)
    check(gram.gram_det(type_a(ell), d) == want, f"gram_det at ell={ell}, d={d}")
    return {"det": want.to_json()}


def field_answer(ell: int, d: int) -> dict:
    want = field_closed_form(ell, d)
    target = Counter(want)
    check(Counter(snf.snf_of_diagonal(bracket_product_values(ell, d)).elements) == target,
          f"snf_of_diagonal of the bracket products at ell={ell}, d={d}")
    check(Counter(gram.gram_field_invariants(type_a(ell), d).elements) == target,
          f"gram_field_invariants at ell={ell}, d={d}")
    return {"invariants": [e.to_json() for e in sorted(want, key=lambda e: (e.max_exp, sorted(e.terms.items())))]}


def intsnf_answer(ell: int, d: int) -> dict:
    p, r = prime_power(ell)
    check(r <= p, f"ell={ell} is in the theorem range r <= p")
    want = list(snf.snf_int_diagonal(hill_values(p, r, d)).elements)
    det1 = math.prod(want)
    check(abs(shapovalov_det_formula(type_a(ell), d).at_one()) == det1,
          f"Hill product is |det| at v=1, ell={ell}, d={d}")
    check(abs(gram.gram_det_at_one(type_a(ell), d)) == det1, f"gram_det_at_one at ell={ell}, d={d}")
    got = snf.snf_int_certified(gram.cartan_graded(ell, d).at_one(), det1)
    check(sorted(got.elements) == sorted(want), f"snf_int_certified at ell={ell}, d={d}")
    runs = sorted(Counter(want).items())
    return {"invariants": [[v, c] for v, c in runs]}


def report_answer(p: int, r: int, d: int) -> dict:
    ell = p**r
    rep = conjecture_report(p, r, d, budget=workloads.BUDGET)
    statuses = {lay.name: lay.status for lay in rep.layers}
    for name, allowed in workloads.REPORT_FLOOR.items():
        check(statuses.get(name) in allowed, f"report {(p, r, d)} layer {name} meets the floor")
    check(rep.layer("field-invariants").details.get("theorem_subcheck") is True,
          f"report {(p, r, d)} field theorem sub-check")
    check(gram.gram_det(type_a(ell), d) == shapovalov_det_formula(type_a(ell), d),
          f"determinant of report {(p, r, d)}")
    check(snf.snf_int(gram.cartan_graded(ell, d).at_one()).elements
          == snf.snf_int_diagonal(hill_values(p, r, d)).elements,
          f"v=1 invariants of report {(p, r, d)}")
    return {"floor": workloads.REPORT_FLOOR, "observed": statuses}


ANSWERS = {"det": det_answer, "field": field_answer, "intsnf": intsnf_answer, "report": report_answer}


def main() -> int:
    points = [pt_ for pts in workloads.WORKLOADS.values() for pt_ in pts] + workloads.SELFTEST_POINTS
    out = {}
    for point in points:
        kind, nums = workloads.parse(point)
        out[point] = ANSWERS[kind](*nums)
        print(f"{point}: ok", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(out.items())]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
