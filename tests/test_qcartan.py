import math
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

import pytest

from gcartan.gram import permanent_matrix
from gcartan.linalg import int_det, laurent_det
from gcartan.qcartan import (
    DynkinDiagram,
    TwistedDiagram,
    det_quantized,
    exponent_N,
    folding_det_check,
    irreducible_at,
    parse_diagram,
    quantized_cartan,
    shapovalov_det_formula,
    twisted_det_formula,
    type_a,
)
from gcartan.qlaurent import ONE, LaurentPoly, cyclotomic, kss_bracket, quantum_int


@dataclass(frozen=True)
class _IntegerPairing:
    """A pairing with one fixed integer matrix f."""

    f: tuple

    @property
    def colors(self):
        return len(self.f)

    def matrix(self):
        return tuple(tuple(LaurentPoly.const(x) for x in row) for row in self.f)


def sym_power_det(f, m) -> int:
    """det Sym^m(f) on the monomial basis of Sym^m(k^n), from the permanent
    matrix of the pairing f: its entry (c, c') is the Sym^m(f) entry times
    prod_j mult_c(j)!, so its determinant is det Sym^m(f) times the product
    of those weights over all multisets c."""
    pm = permanent_matrix(_IntegerPairing(tuple(map(tuple, f))), 1, m)
    weight = 1
    for c in combinations_with_replacement(range(len(f)), m):
        weight *= math.prod(math.factorial(c.count(j)) for j in set(c))
    det, rest = divmod(int_det([[e.at_one() for e in row] for row in pm]), weight)
    assert rest == 0
    return det


ALL_FINITE = (
    [DynkinDiagram("A", n) for n in range(1, 12)]
    + [DynkinDiagram("D", m) for m in range(4, 9)]
    + [DynkinDiagram("E", r) for r in (6, 7, 8)]
)


class TestDiagrams:
    def test_cartan_matrices(self):
        assert DynkinDiagram("A", 1).cartan_matrix() == ((2,),)
        assert DynkinDiagram("A", 2).cartan_matrix() == ((2, -1), (-1, 2))
        d4 = DynkinDiagram("D", 4).cartan_matrix()
        # branch node 2 (0-based) is adjacent to nodes 1, 3 and 4 minus one...
        assert d4[1][2] == d4[2][1] == -1
        assert d4[1][3] == d4[3][1] == -1
        assert sum(row.count(-1) for row in d4) == 6  # three edges

    def test_validation(self):
        with pytest.raises(ValueError):
            DynkinDiagram("D", 3)
        with pytest.raises(ValueError):
            DynkinDiagram("E", 9)
        with pytest.raises(ValueError):
            DynkinDiagram("B", 2)

    def test_classical_dets(self):
        for dg in ALL_FINITE:
            assert int_det(dg.cartan_matrix()) == dg.classical_det()

    def test_parse(self):
        assert parse_diagram("A:4") == DynkinDiagram("A", 4)
        assert parse_diagram("E:7") == DynkinDiagram("E", 7)
        assert parse_diagram("tA2:3") == TwistedDiagram("A2_odd", 3)
        assert parse_diagram("tA2e:2") == TwistedDiagram("A2_even", 2)
        assert parse_diagram("tD2:4") == TwistedDiagram("D2", 4)
        assert parse_diagram("tE6") == TwistedDiagram("E6_2")
        assert parse_diagram("tD4") == TwistedDiagram("D4_3")
        with pytest.raises(ValueError):
            parse_diagram("F:4")


class TestQuantizedCartan:
    def test_entries(self):
        q = quantized_cartan(DynkinDiagram("A", 2), 2)
        assert q[0][0] == quantum_int(2, 2)
        assert q[0][1] == -ONE

    def test_at_one_is_classical(self):
        for dg in (DynkinDiagram("A", 3), DynkinDiagram("D", 5), DynkinDiagram("E", 6)):
            for s in (1, 3):
                q = quantized_cartan(dg, s)
                assert [[e.at_one() for e in row] for row in q] == [
                    list(r) for r in dg.cartan_matrix()
                ]

    def test_det_subst_consistency(self):
        # [n]_s(v) = [n]_1(v^s), so det [X]_s is det [X]_1 under v -> v^s:
        # det_quantized takes it so, and the exact mode of irreducible_at
        # reads det [X]_1 alone on this ground.  Each is checked against an
        # elimination of [X]_s itself.
        diagrams = (
            [DynkinDiagram("A", n) for n in range(1, 9)]
            + [DynkinDiagram("D", m) for m in range(4, 7)]
            + [DynkinDiagram("E", r) for r in (6, 7, 8)]
        )
        for dg in diagrams:
            for s in range(1, 9):
                assert det_quantized(dg, s) == laurent_det(quantized_cartan(dg, s)), (dg, s)

    def test_det_at_one_classical(self):
        for dg in ALL_FINITE:
            assert det_quantized(dg, 1).at_one() == dg.classical_det()


class TestCyclotomicClosedForms:
    def test_type_a(self):
        for n in range(2, 13):
            assert det_quantized(DynkinDiagram("A", n - 1), 1) == quantum_int(n)

    def test_type_d(self):
        for m in range(4, 9):
            want = LaurentPoly({-m: 1}) * cyclotomic(4) * cyclotomic(4).subst_power(m - 1)
            assert det_quantized(DynkinDiagram("D", m), 1) == want

    def test_type_e(self):
        assert det_quantized(DynkinDiagram("E", 6), 1) == LaurentPoly({-6: 1}) * cyclotomic(
            3
        ).subst_power(2) * cyclotomic(24)
        assert det_quantized(DynkinDiagram("E", 7), 1) == LaurentPoly({-7: 1}) * cyclotomic(
            4
        ) * cyclotomic(36)
        assert det_quantized(DynkinDiagram("E", 8), 1) == LaurentPoly({-8: 1}) * cyclotomic(60)


class TestExponents:
    def test_examples(self):
        assert exponent_N(1, 2, 1) == 2
        assert exponent_N(1, 2, 2) == 1
        assert exponent_N(4, 3, 7) == 0

    def test_formula_agreement_small(self):
        # the dual evaluation inside exponent_N raises on mismatch
        for colors in range(1, 5):
            for d in range(0, 8):
                for s in range(1, d + 1):
                    exponent_N(colors, d, s)

    def test_shapovalov_formula_values(self):
        a1 = DynkinDiagram("A", 1)
        assert shapovalov_det_formula(a1, 0) == ONE
        assert shapovalov_det_formula(a1, 1) == quantum_int(2)
        assert shapovalov_det_formula(a1, 2) == quantum_int(2) ** 2 * quantum_int(2, 2)

    def test_shapovalov_formula_refuses_negative_d(self):
        # an empty product over s <= d would claim 1
        with pytest.raises(ValueError, match="d must be >= 0"):
            shapovalov_det_formula(DynkinDiagram("A", 1), -1)

    def test_sym_power_det_lemma(self):
        # det Sym^m(f) = (det f)^C(n+m-1, m-1)
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            f = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert sym_power_det(f, m) == int_det(f) ** math.comb(n + m - 1, m - 1)


class TestIrreducibility:
    def test_examples(self):
        assert irreducible_at(DynkinDiagram("A", 1), 3)
        assert not irreducible_at(DynkinDiagram("A", 2), 3)
        assert not irreducible_at(DynkinDiagram("A", 4), 10)
        assert not irreducible_at(DynkinDiagram("E", 8), 60)
        assert irreducible_at(DynkinDiagram("E", 8), 59)

    def test_divisor_sets(self):
        for ell in range(1, 61):
            assert irreducible_at(DynkinDiagram("D", 5), ell) == (ell % 4 != 0)
            assert irreducible_at(DynkinDiagram("E", 6), ell) == (ell % 3 != 0)
            assert irreducible_at(DynkinDiagram("E", 7), ell) == (ell % 4 != 0)
            assert irreducible_at(DynkinDiagram("E", 8), ell) == (ell % 60 != 0)

    def test_modes_agree_sample(self):
        for dg in (DynkinDiagram("A", 3), DynkinDiagram("A", 5), DynkinDiagram("D", 4)):
            for ell in range(1, 25):
                assert irreducible_at(dg, ell, "closed_form") == irreducible_at(dg, ell, "exact")


class TestTwisted:
    def test_table_rows(self):
        td = TwistedDiagram("A2_odd", 4)
        n, k, alpha, beta = td.table()
        assert (n, k) == (4, 3)
        assert alpha == quantum_int(2, 4) and beta == quantum_int(4)
        td = TwistedDiagram("D4_3")
        assert td.twist == 3 and td.table()[:2] == (2, 1)

    def test_epsilon_labels(self):
        assert TwistedDiagram("A2_even", 3).epsilon == 3
        assert TwistedDiagram("A2_odd", 3).epsilon == 0
        assert TwistedDiagram("E6_2").epsilon == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TwistedDiagram("A2_odd", 2)
        with pytest.raises(ValueError):
            TwistedDiagram("D2", 0)

    def test_formula_values(self):
        td = TwistedDiagram("A2_even", 1)
        assert twisted_det_formula(td, 0) == ONE
        assert twisted_det_formula(td, 1) == quantum_int(3)
        # N_{X,2,1} = 2 (both hand evaluation of the displayed sum and the
        # d=2 pattern of the untwisted rank-one case)
        assert twisted_det_formula(td, 2) == quantum_int(3) ** 2 * kss_bracket(3, 2)

    def test_at_one_gives_cartan_power(self):
        # at v=1 each gamma factor is a positive integer, so the formula
        # specializes to a positive integer
        for td in (TwistedDiagram("A2_even", 2), TwistedDiagram("D2", 3), TwistedDiagram("E6_2")):
            for d in range(0, 4):
                assert twisted_det_formula(td, d).at_one() >= 1

    def test_folding_checks(self):
        cases = [
            (TwistedDiagram("A2_odd", 3), range(1, 7)),
            (TwistedDiagram("A2_odd", 5), range(1, 7)),
            (TwistedDiagram("D2", 1), range(1, 7)),
            (TwistedDiagram("D2", 4), range(1, 7)),
            (TwistedDiagram("E6_2"), range(1, 7)),
            (TwistedDiagram("D4_3"), range(1, 8)),
        ]
        for td, ts in cases:
            for t in ts:
                assert folding_det_check(td, t), (td, t)

    def test_folding_counts(self):
        # f_{X,t} = |I(t)| in particular at t=1 and t=twist
        td = TwistedDiagram("D2", 4)
        assert td.f(1) == 1 and td.f(2) == 4
        td = TwistedDiagram("A2_odd", 5)
        assert td.f(1) == 4 and td.f(2) == 5

    def test_folding_rejects_a2even(self):
        with pytest.raises(ValueError):
            folding_det_check(TwistedDiagram("A2_even", 2), 1)


def test_type_a_helper():
    assert type_a(2) == DynkinDiagram("A", 1)
    with pytest.raises(ValueError):
        type_a(1)
