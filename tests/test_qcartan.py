import math
import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from gcartan import partitions as pt
from gcartan import qcartan
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


def sym_power_det(f, m) -> int:
    """det Sym^m(f) on the monomial basis of Sym^m(k^n), from the permanent
    matrix of the integer matrix f, expanded over Z: its entry (c, c') is the
    Sym^m(f) entry times prod_j mult_c(j)!, so its determinant is det
    Sym^m(f) times the product of those weights over all multisets c."""
    pm = permanent_matrix(tuple(map(tuple, f)), 1, m)
    weight = 1
    for c in combinations_with_replacement(range(len(f)), m):
        weight *= math.prod(math.factorial(c.count(j)) for j in set(c))
    det, rest = divmod(int_det([list(row) for row in pm]), weight)
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


def _x_s(dg, s):
    """[X]_s = ([a_ij]_s), built entry by entry from quantum_int(a_ij, s)."""
    return tuple(tuple(quantum_int(x, s) for x in row) for row in dg.cartan_matrix())


class TestQuantizedCartan:
    def test_entries(self):
        dg = DynkinDiagram("A", 2)
        q = quantized_cartan(dg)
        assert q[0][0] == quantum_int(2)
        assert q[0][1] == -ONE
        # [X] at v^s is [X]_s, which every caller of [X] relies on
        for s in (1, 2, 3):
            assert tuple(tuple(e.subst_power(s) for e in row) for row in q) == _x_s(dg, s)

    def test_at_one_is_classical(self):
        for dg in (DynkinDiagram("A", 3), DynkinDiagram("D", 5), DynkinDiagram("E", 6)):
            for q in (quantized_cartan(dg), _x_s(dg, 3)):
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
                assert det_quantized(dg, s) == laurent_det(_x_s(dg, s)), (dg, s)

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


def _exponents_multipartition_reference(colors, d):
    """The multipartition form of N as it read before: the parts of size s
    over Par(k) counted by enumerating Par(k)."""
    out = [0] * (d + 1)
    for k in range(d + 1):
        rest = pt.u_count(colors - 1, d - k)
        counts = Counter(s for lam in pt.enum_partitions(k) for s in lam)
        for s in range(1, k + 1):
            out[s] += counts[s] * rest
    return tuple(out)


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

    @pytest.mark.parametrize("colors", range(1, 7))
    def test_multipartition_form_matches_the_enumeration(self, colors):
        # the closed count sum_j p(k - js) of the parts s over Par(k)
        for d in range(21):
            want = _exponents_multipartition_reference(colors, d)
            assert qcartan._exponents_multipartition(colors, d) == want, d

    def test_disagreeing_forms_raise(self, monkeypatch):
        real = qcartan._exponents_multipartition

        def off_by_one(colors, d):
            out = list(real(colors, d))
            out[1] += 1
            return tuple(out)

        monkeypatch.setattr(qcartan, "_exponents_multipartition", off_by_one)
        with pytest.raises(AssertionError, match="exponent formulas disagree at colors=2, d=3, s=1"):
            exponent_N(2, 3, 1)
        assert exponent_N(2, 3, 2) == real(2, 3)[2]

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


# the finite Cartan matrices of the folding check, written out: C_n for
# A^(2)_{2n-1} (the -2 above the diagonal, by the last node) and B_n for
# D^(2)_{n+1} (the -2 below it)
C_N = {
    3: ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    4: ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    5: (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -2),
        (0, 0, 0, -1, 2),
    ),
    6: (
        (2, -1, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0),
        (0, -1, 2, -1, 0, 0),
        (0, 0, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -2),
        (0, 0, 0, 0, -1, 2),
    ),
}
B_N = {
    1: ((2,),),
    2: ((2, -1), (-2, 2)),
    3: ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    4: ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    5: (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -1),
        (0, 0, 0, -2, 2),
    ),
    6: (
        (2, -1, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0),
        (0, -1, 2, -1, 0, 0),
        (0, 0, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -2, 2),
    ),
}


def _d_weights_reference(td):
    """The symmetrizer of B as the hand-written lists it replaced."""
    if td.kind == "A2_odd":
        return tuple([1] * (td.n - 1) + [2])
    if td.kind == "D2":
        return tuple([2] * (td.n - 1) + [1])
    return {"E6_2": (1, 1, 2, 2), "D4_3": (1, 3)}[td.kind]


FOLDED = (
    [TwistedDiagram("A2_odd", n) for n in range(3, 13)]
    + [TwistedDiagram("D2", n) for n in range(1, 13)]
    + [TwistedDiagram("E6_2"), TwistedDiagram("D4_3")]
)


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

    def test_negative_weight_is_refused(self):
        # d is checked before the exponents enumerate partitions of d
        for td in (TwistedDiagram("E6_2"), TwistedDiagram("A2_odd", 3)):
            with pytest.raises(ValueError, match=r"^d must be >= 0$"):
                twisted_det_formula(td, -1)

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

    @pytest.mark.parametrize("unit", [-1, LaurentPoly({2: 1})], ids=["minus-one", "v-squared"])
    def test_folding_is_exact(self, monkeypatch, unit):
        # gamma_{X,t} off by a unit fails the check at every t
        gamma = TwistedDiagram.gamma
        monkeypatch.setattr(TwistedDiagram, "gamma", lambda td, t: gamma(td, t) * unit)
        for td in (TwistedDiagram("A2_odd", 3), TwistedDiagram("D2", 2), TwistedDiagram("E6_2"),
                   TwistedDiagram("D4_3")):
            for t in range(1, 7):
                assert not folding_det_check(td, t), (td, t)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_finite_cartan_c(self, n):
        assert TwistedDiagram("A2_odd", n).finite_cartan() == C_N[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_finite_cartan_b(self, n):
        assert TwistedDiagram("D2", n).finite_cartan() == B_N[n]

    def test_folding_counts(self):
        # f_{X,t} = |I(t)| in particular at t=1 and t=twist
        td = TwistedDiagram("D2", 4)
        assert td.f(1) == 1 and td.f(2) == 4
        td = TwistedDiagram("A2_odd", 5)
        assert td.f(1) == 4 and td.f(2) == 5

    @pytest.mark.parametrize("td", FOLDED, ids=str)
    def test_d_weights_symmetrize_b(self, td):
        d, b = td.d_weights(), td.finite_cartan()
        assert d == _d_weights_reference(td)
        assert math.gcd(*d) == 1 and min(d) >= 1
        n = len(b)
        assert all(d[i] * b[i][j] == d[j] * b[j][i] for i in range(n) for j in range(n))

    def test_d_weights_are_least(self, monkeypatch):
        # short-long-short: the pass reaches (2, 4, 2) and divides out the 2
        b = ((2, -2, 0), (-1, 2, -1), (0, -2, 2))
        monkeypatch.setattr(TwistedDiagram, "finite_cartan", lambda td: b)
        assert TwistedDiagram("D2", 3).d_weights() == (1, 2, 1)

    def test_folding_fails_on_a_wrong_count(self, monkeypatch):
        # f_{X,t} must be |I(t)|: one more node fails the check at every t
        f = TwistedDiagram.f
        monkeypatch.setattr(TwistedDiagram, "f", lambda td, t: f(td, t) + 1)
        for td in (TwistedDiagram("A2_odd", 3), TwistedDiagram("D2", 2), TwistedDiagram("E6_2"),
                   TwistedDiagram("D4_3")):
            for t in range(1, 7):
                assert not folding_det_check(td, t), (td, t)

    def test_folding_rejects_a2even(self):
        with pytest.raises(ValueError):
            folding_det_check(TwistedDiagram("A2_even", 2), 1)

    def test_d_weights_refuse_a2even(self):
        with pytest.raises(ValueError, match="no folding data"):
            TwistedDiagram("A2_even", 2).d_weights()


def test_type_a_helper():
    assert type_a(2) == DynkinDiagram("A", 1)
    with pytest.raises(ValueError):
        type_a(1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exponent_N(0, 1, 1), "colors must be >= 1"),
        (lambda: exponent_N(1, -1, 1), "d must be >= 0"),
        (lambda: exponent_N(1, 1, 0), "s must be >= 1"),
        (lambda: irreducible_at(type_a(3), 0), "ell must be >= 1"),
        (lambda: irreducible_at(type_a(3), 2, "x"), "unknown mode 'x'"),
        (lambda: folding_det_check(parse_diagram("tA2:3"), 0), "t must be >= 1"),
        (lambda: parse_diagram("A:x"), "bad diagram rank in 'A:x'"),
    ],
    ids=["N-colors", "N-d", "N-s", "irreducible-ell", "irreducible-mode", "folding-t", "rank"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
