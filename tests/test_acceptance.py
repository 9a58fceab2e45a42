"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them stream).  Every tolerance is exact equality -- the identities under test
are algebraic, so nothing is approximate.
"""

import math
import random

from gcartan import partitions as pt
from gcartan.gram import (
    cartan_graded,
    gram_det,
    gram_det_at_one,
    gram_field_invariants,
    gram_matrix,
    schur_orthonormality,
)
from gcartan.invariants import (
    bunkaito_decompose,
    conjecture_report,
    hill_values,
    verify_bhmulti,
    verify_conjcheck,
    verify_conjequiv,
    verify_saigo2,
    verify_tsaigo,
)
from gcartan.linalg import int_det
from gcartan.qcartan import (
    DynkinDiagram,
    det_quantized,
    exponent_N,
    irreducible_at,
    shapovalov_det_formula,
    type_a,
)
from gcartan.qlaurent import LaurentPoly, cyclotomic, quantum_int
from gcartan.snf import snf_int_certified, snf_int_diagonal
from test_qcartan import sym_power_det


def _report(n, name, ok):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed"


def test_criterion_1_graded_cartan_determinants():
    ok = True
    for ell, dmax in [(2, 8), (3, 6), (4, 5), (5, 4)]:
        dg = type_a(ell)
        for d in range(dmax + 1):
            if gram_det(dg, d) != shapovalov_det_formula(dg, d):
                ok = False
                print(f"  mismatch at ell={ell}, d={d}")
    _report(1, "determinant theorem, type A", ok)


def test_criterion_2_general_ade_determinants():
    ok = True
    for dg in (DynkinDiagram("D", 4), DynkinDiagram("E", 6)):
        for d in range(3):
            if gram_det(dg, d) != shapovalov_det_formula(dg, d):
                ok = False
                print(f"  mismatch at {dg}, d={d}")
    for n in range(2, 13):
        if det_quantized(DynkinDiagram("A", n - 1), 1) != quantum_int(n):
            ok = False
    for m in range(4, 9):
        want = LaurentPoly({-m: 1}) * cyclotomic(4) * cyclotomic(4).subst_power(m - 1)
        if det_quantized(DynkinDiagram("D", m), 1) != want:
            ok = False
    closed = {
        6: LaurentPoly({-6: 1}) * cyclotomic(3).subst_power(2) * cyclotomic(24),
        7: LaurentPoly({-7: 1}) * cyclotomic(4) * cyclotomic(36),
        8: LaurentPoly({-8: 1}) * cyclotomic(60),
    }
    for rank, want in closed.items():
        if det_quantized(DynkinDiagram("E", rank), 1) != want:
            ok = False
    _report(2, "general ADE determinants and cyclotomic closed forms", ok)


def test_criterion_3_irreducibility():
    diagrams = (
        [DynkinDiagram("A", n - 1) for n in range(2, 13)]
        + [DynkinDiagram("D", m) for m in range(4, 9)]
        + [DynkinDiagram("E", r) for r in (6, 7, 8)]
    )
    ok = True
    for dg in diagrams:
        for ell in range(1, 121):
            closed = irreducible_at(dg, ell, "closed_form")
            if closed != irreducible_at(dg, ell, "exact"):
                ok = False
                print(f"  mode disagreement at {dg}, ell={ell}")
    divisors = {("D", 5): 4, ("E", 6): 3, ("E", 7): 4, ("E", 8): 60}
    for (fam, rank), div in divisors.items():
        dg = DynkinDiagram(fam, rank)
        reducible = {ell for ell in range(1, 121) if not irreducible_at(dg, ell)}
        if reducible != {ell for ell in range(1, 121) if ell % div == 0}:
            ok = False
            print(f"  divisor set wrong for {dg}")
    _report(3, "irreducibility criteria, closed form vs exact", ok)


def test_criterion_4_product_expansion():
    ok = True
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        if not verify_conjcheck(p, r, 6):
            ok = False
            print(f"  product expansion fails at ell={p**r}")
    _report(4, "product-expansion theorem, ell in {2,3,4,5,8,9}, d <= 6", ok)


def test_criterion_5_multiset_identities():
    ok = True
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            for d in range(1, 11):
                for u in range(1, d + 1):
                    if u % p and not verify_tsaigo(p, r, d, u):
                        ok = False
                        print(f"  tsaigo fails at {(p, r, d, u)}")
    for ell in (2, 3, 4, 5, 6):
        for n in range(0, 11):
            if not verify_saigo2(ell, n):
                ok = False
                print(f"  saigo2 fails at {(ell, n)}")
            if not verify_bhmulti(ell, n):
                ok = False
                print(f"  bhmulti fails at {(ell, n)}")
    for p, r in [(2, 1), (2, 2), (3, 1)]:
        for n in range(0, 9):
            if not verify_conjequiv(p, r, n):
                ok = False
                print(f"  conjequiv fails at {(p, r, n)}")
        for d in range(1, 9):
            if not bunkaito_decompose(p, r, d).verified:
                ok = False
                print(f"  bunkaito fails at {(p, r, d)}")
    _report(5, "multiset identities", ok)


def test_criterion_6_schur_orthonormality():
    _report(6, "Schur orthonormality up to degree 8", schur_orthonormality(8))


def test_criterion_7_integer_invariants_vs_hill():
    ok = True
    for ell, p, r in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (9, 3, 2)]:
        for d in range(0, 5):
            gm = cartan_graded(ell, d)
            det1 = abs(gram_det_at_one(type_a(ell), d))
            got = snf_int_certified(gm.at_one(), det1)
            want = snf_int_diagonal(hill_values(p, r, d))
            if got.elements != want.elements:
                ok = False
                print(f"  v=1 invariants differ from the Hill multiset at ell={ell}, d={d}")
    # ell = 8 has r = 3 > p = 2: outside the proven range, recorded only
    for d in range(0, 5):
        gm = cartan_graded(8, d)
        det1 = abs(gram_det_at_one(type_a(8), d))
        got = snf_int_certified(gm.at_one(), det1)
        agree = got.elements == snf_int_diagonal(hill_values(2, 3, d)).elements
        print(f"  RECORDED conjecture datapoint ell=8 d={d}: hill-match={agree}")
    _report(7, "v=1 Smith invariants vs Hill multiset (theorem range)", ok)


def test_criterion_8_graded_conjecture_pipeline():
    ok = True
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        for d in range(0, 5):
            rep = conjecture_report(p, r, d, budget=3000)
            if rep.layer("determinant").status != "VERIFIED":
                ok = False
                print(f"  determinant layer failed at ell={p**r}, d={d}")
            lay2 = rep.layer("field-invariants")
            if not lay2.details.get("theorem_subcheck"):
                ok = False
                print(f"  theorem-backed field sub-check failed at ell={p**r}, d={d}")
            lay3 = rep.layer("integer-invariants")
            if lay3.status != "VERIFIED":  # r <= p throughout this range
                ok = False
                print(f"  integer layer failed at ell={p**r}, d={d}")
            for lay in (lay2, rep.layer("integral-diagonalization")):
                if lay.status not in ("VERIFIED", "CONSISTENT"):
                    ok = False
                    print(f"  layer {lay.name} below CONSISTENT at ell={p**r}, d={d}")
    _report(8, "graded conjecture pipeline, ell in {2,3,4}, d <= 4", ok)


def test_criterion_9_exponent_formulas():
    ok = True
    for p in range(2, 8):
        for d in range(0, 11):
            for s in range(1, d + 1):
                try:
                    exponent_N(p - 1, d, s)  # raises if the two formulas split
                except AssertionError:
                    ok = False
                    print(f"  exponent formulas disagree at {(p, d, s)}")
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        f = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if sym_power_det(f, m) != int_det(f) ** math.comb(n + m - 1, m - 1):
            ok = False
            print(f"  symmetric power determinant fails for {f}, m={m}")
    _report(9, "exponent formulas and symmetric-power determinants", ok)
