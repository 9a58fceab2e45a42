import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gcartan import cli, gram
from gcartan import partitions as pt
from gcartan.gram import (
    GramMatrix,
    _reversal,
    _reversal_split,
    block_sum,
    cartan_graded,
    gram_det,
    gram_det_at_one,
    gram_field_invariants,
    gram_matrix,
    permanent_matrix,
    schur_in_x,
    schur_orthonormality,
    x_monomial_expansion,
    y_pair,
)
from gcartan.invariants import bracket_product_values
from gcartan.linalg import int_det, laurent_det
from gcartan.qcartan import DynkinDiagram, quantized_cartan, shapovalov_det_formula, type_a
from gcartan.qlaurent import ONE, LaurentPoly, quantum_int
from gcartan.snf import multiset_equal_up_to_units, snf_laurent_field, snf_of_diagonal


def _x_s(dg, s):
    """[X]_s = ([a_ij]_s), built entry by entry from quantum_int(a_ij, s)."""
    return tuple(tuple(quantum_int(x, s) for x in row) for row in dg.cartan_matrix())


def _reference_index(colors, d):
    """Every coloured partition of d in `colors` colours, one per
    multipartition (component i holds the parts of colour i), sorted by
    (shape, colour vector) descending."""
    cps = (
        pt.colored_partition((s, i) for i, lam in enumerate(mp) for s in lam)
        for mp in pt.multipartitions(colors, d)
    )
    return sorted(cps, key=lambda cp: (pt.shape(cp), tuple(c for _, c in cp)), reverse=True)


def _over_one_denominator(coeffs):
    """{k: Fraction} as (least common denominator L, {k: L * coefficient})."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: int(c * den) for k, c in coeffs.items()}


class TestXExpansion:
    def test_first_coefficients(self):
        assert x_monomial_expansion(((1, 0),)) == (1, {((1, 0),): 1})
        e2 = x_monomial_expansion(((2, 0),))
        # x_2 = y_2 + y_1^2 / 2
        assert e2 == (2, {((2, 0),): 2, ((1, 0), (1, 0)): 1})
        e3 = x_monomial_expansion(((3, 1),))
        # x_3 = y_3 + y_2 y_1 + y_1^3 / 6
        assert e3 == (6, {((3, 1),): 6, ((2, 1), (1, 1)): 6, ((1, 1), (1, 1), (1, 1)): 1})

    def test_monomial_extension(self):
        den, exp = x_monomial_expansion(((2, 0), (1, 1)))
        assert den == 2
        assert exp[((2, 0), (1, 1))] == den
        assert Fraction(exp[((1, 1), (1, 0), (1, 0))], den) == Fraction(1, 2)

    def test_diagonal_coefficient_is_one(self):
        for cp in gram_matrix(DynkinDiagram("A", 2), 5).index:
            den, comb = x_monomial_expansion(cp)
            assert comb[cp] == den
            for other in comb:
                if other != cp:
                    assert pt.shape(other) < pt.shape(cp)


    def test_integer_sums_match_a_fraction_reference(self):
        # every coloured partition with d <= 8 and 3 colours, against the
        # coefficient products summed in Fractions term by term, put over
        # their least common denominator
        def single(n, color):
            out = {}
            for kappa in pt.enum_partitions(n):
                den = math.prod(math.factorial(m) for m in pt.mults(kappa).values())
                out[pt.colored_partition((k, color) for k in kappa)] = Fraction(1, den)
            return out

        def reference(cp):
            acc = {(): Fraction(1)}
            for s, c in cp:
                nxt = {}
                for k1, v1 in acc.items():
                    for k2, v2 in single(s, c).items():
                        k = pt.merge_colored(k1, k2)
                        nxt[k] = nxt.get(k, Fraction(0)) + v1 * v2
                acc = nxt
            return acc

        for d in range(9):
            for cp in _reference_index(3, d):
                den, nums = x_monomial_expansion(cp)
                assert (den, nums) == _over_one_denominator(reference(cp)), cp
                assert type(den) is int and all(type(c) is int for c in nums.values())


class TestYPair:
    def test_examples(self):
        a1 = quantized_cartan(DynkinDiagram("A", 1))
        assert y_pair(((1, 0),), ((1, 0),), a1) == (quantum_int(2), 1)
        assert y_pair(((1, 0), (1, 0)), ((2, 0),), a1)[0].is_zero
        two = quantum_int(2)
        assert y_pair(((1, 0), (1, 0)), ((1, 0), (1, 0)), a1) == (two * two * 2, 1)
        # <y_2, y_2> = [2]_2 / 2: the A_1 family at s = 2 is ([2]_2)
        assert y_pair(((2, 0),), ((2, 0),), a1) == (quantum_int(2, 2), 2)

    def test_symmetry(self):
        x = quantized_cartan(DynkinDiagram("A", 2))
        rng = random.Random(3)
        monos = GramMatrix("A:2", 4, x).index
        for _ in range(40):
            m1 = rng.choice(monos)
            m2 = rng.choice(monos)
            assert y_pair(m1, m2, x) == y_pair(m2, m1, x)

    def test_bar_invariance(self):
        x = quantized_cartan(DynkinDiagram("A", 2))
        monos = GramMatrix("A:2", 3, x).index
        for m1 in monos:
            for m2 in monos:
                num, den = y_pair(m1, m2, x)
                assert num == num.bar()

    def test_identity_pairing_weight(self):
        # <y_2 y_1, y_2 y_1> = (1/2) * (1/1) with one bijection per size
        assert y_pair(((2, 0), (1, 0)), ((2, 0), (1, 0)), ((ONE,),)) == (ONE, 2)


class TestGramMatrix:
    def test_rank_one_values(self):
        a1 = DynkinDiagram("A", 1)
        g1 = gram_matrix(a1, 1)
        assert g1.entries[0][0] == quantum_int(2)
        g2 = gram_matrix(a1, 2)
        assert g2.index == (((2, 0),), ((1, 0), (1, 0)))
        assert g2.entries[0][0] == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert g2.entries[0][1] == quantum_int(2) ** 2
        assert g2.entries[1][1] == 2 * quantum_int(2) ** 2

    def test_weight_zero(self):
        g = gram_matrix(DynkinDiagram("D", 4), 0)
        assert g.size == 1 and g.entries[0][0] == ONE

    @pytest.mark.parametrize(
        "build",
        [gram_matrix, lambda dg, d: cartan_graded(3, d), gram_det, gram_det_at_one,
         gram_field_invariants],
        ids=["gram_matrix", "cartan_graded", "gram_det", "gram_det_at_one",
             "gram_field_invariants"],
    )
    def test_negative_degree_is_refused_once(self, build):
        # every entry point builds one GramMatrix, which refuses d < 0
        with pytest.raises(ValueError, match="d must be nonnegative"):
            build(type_a(3), -1)

    def test_symmetry_and_bar_invariance(self):
        for dg, d in [(DynkinDiagram("A", 2), 3), (DynkinDiagram("D", 4), 2)]:
            g = gram_matrix(dg, d)
            for i in range(g.size):
                for j in range(g.size):
                    assert g.entries[i][j] == g.entries[j][i]
                    assert g.entries[i][j].is_bar_invariant()

    def test_positive_definite_at_one(self):
        # leading principal minors of the v=1 specialization are positive
        from gcartan.linalg import int_det

        g = cartan_graded(3, 3)
        m = g.at_one()
        for k in range(1, g.size + 1):
            assert int_det([row[:k] for row in m[:k]]) > 0

    # the criterion-7 grid, (3,8), and two diagrams with negative coefficients
    AT_ONE_POINTS = (
        [(type_a(ell), d) for ell in (2, 3, 4, 5, 8, 9) for d in range(5)]
        + [(type_a(3), 8)]
        + [(DynkinDiagram("D", 4), d) for d in range(4)]
        + [(DynkinDiagram("E", 6), d) for d in range(3)]
    )

    def test_at_one_is_the_entries_at_one(self):
        # the integer route, run first on a fresh matrix, against the Laurent
        # route evaluated entry by entry
        for dg, d in self.AT_ONE_POINTS:
            g = gram_matrix(dg, d)
            c1 = g.at_one()
            assert c1 == [[e.at_one() for e in row] for row in g.entries], (dg, d)

    def test_at_one_builds_no_laurent_entry(self, monkeypatch):
        # on a fresh matrix, C(1) leaves entries unbuilt and decodes no
        # packed Laurent slot; it is built once and kept.  With the memo of
        # permanent matrices cleared, neither C(1) nor its determinant
        # multiplies a Laurent polynomial: every P(m) is expanded over Z
        def no_decode(*args):
            raise AssertionError("a packed Laurent slot was decoded")

        def no_product(*args):
            raise AssertionError("a Laurent polynomial was multiplied")

        gram._permanents.cache_clear()
        monkeypatch.setattr(gram, "_unpack", no_decode)
        monkeypatch.setattr(gram, "_unpack_signed", no_decode)
        monkeypatch.setattr(LaurentPoly, "__mul__", no_product)
        monkeypatch.setattr(LaurentPoly, "__rmul__", no_product)
        g = cartan_graded(3, 4)
        c1 = g.at_one()
        assert "entries" not in vars(g) and g.at_one() is c1
        det1 = gram_det_at_one(type_a(3), 4)
        monkeypatch.undo()
        assert c1 == [[e.at_one() for e in row] for row in g.entries]
        assert det1 == int_det(c1)

    def test_perturbed_integer_factor_is_caught(self, monkeypatch):
        # P(2) of A_1 is (2 [2]^2), 8 at v=1; one more makes the entries of
        # x_2 = y_2 + y_1^2 / 2 at d=2 gain 1/4 and 1/2
        original = gram.permanent_matrix

        def perturbed(a, s, m):
            f = original(a, s, m)
            return ((f[0][0] + 1,),) if m == 2 and isinstance(f[0][0], int) else f

        monkeypatch.setattr(gram, "permanent_matrix", perturbed)
        g = gram_matrix(DynkinDiagram("A", 1), 2)
        with pytest.raises(AssertionError, match="non-integral Gram entry"):
            g.at_one()
        # the Laurent route does not read the integer factors
        assert g.entries[0][0] == LaurentPoly({2: 1, 0: 1, -2: 1})


class TestGramDeterminant:
    CASES = [
        (DynkinDiagram("A", 1), 4),
        (DynkinDiagram("A", 2), 3),
        (DynkinDiagram("A", 3), 2),
        (DynkinDiagram("D", 4), 2),
        (DynkinDiagram("E", 6), 1),
    ]

    def test_dense_equals_factored(self):
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det(dg, d) == laurent_det(gram_matrix(dg, d).entries)

    def test_matches_formula(self):
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det(dg, d) == shapovalov_det_formula(dg, d)

    def test_det_at_one(self):
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det_at_one(dg, d) == gram_det(dg, d).at_one()

    def test_det_at_one_against_dense(self):
        # integer Bareiss on the whole matrix at v=1 shares no factoring
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det_at_one(dg, d) == int_det(gram_matrix(dg, d).at_one())

    def test_full_bareiss_against_blocks(self):
        g = gram_matrix(DynkinDiagram("A", 2), 4)
        assert laurent_det(g.entries) == gram_det(DynkinDiagram("A", 2), 4)

    @pytest.mark.parametrize("ell, d", [(7, 4), (5, 5), (3, 8)])
    def test_det_at_one_against_bareiss_at_the_frontier(self, ell, d):
        # the product of the factor determinants' powers over Z, the ring
        # of [X] at v=1, against Bareiss on the whole C(1) of 315, 252 and
        # 185 rows
        assert gram_det_at_one(type_a(ell), d) == int_det(cartan_graded(ell, d).at_one())

    def test_matches_formula_at_ell_6_d_4(self):
        # the 70-row factor P_1(4) of A_5, split by the colour reversal
        assert gram_det(type_a(6), 4) == shapovalov_det_formula(type_a(6), 4)


class TestColourReversalSplit:
    """gram._reversal_split: det f = det(plus) det(minus) / 2^pairs wherever
    the colour reversal fixes f, and no split where the entries say it does
    not."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_split_against_unsplit(self, rank):
        # every P_s(m) with s m <= 4, the factors of the Gram matrices of
        # degree at most 4
        x = quantized_cartan(DynkinDiagram("A", rank))
        for s, m in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]:
            f = permanent_matrix(x, s, m)
            sigma = _reversal(rank, m)
            plus, minus, pairs = _reversal_split(f, sigma)
            assert pairs == len(minus) == sum(a < sigma[a] for a in range(len(f)))
            assert len(plus) + len(minus) == len(f)
            assert laurent_det(plus) * laurent_det(minus) == 2**pairs * laurent_det(f)
            at_one = [[e.at_one() for e in row] for row in f]
            plus1, minus1, pairs1 = _reversal_split(at_one, sigma)
            assert pairs1 == pairs
            assert int_det(plus1) * int_det(minus1) == 2**pairs * int_det(at_one)

    @pytest.mark.parametrize("dg", [DynkinDiagram("D", 4), DynkinDiagram("E", 6)])
    def test_entries_decline_the_split(self, dg):
        # the reversal moves multisets here, but is no symmetry of the entries
        for s, m in [(1, 1), (1, 2), (2, 1)]:
            sigma = _reversal(dg.nodes, m)
            assert any(sigma[a] != a for a in range(len(sigma)))
            assert _reversal_split(permanent_matrix(quantized_cartan(dg), s, m), sigma) is None

    def test_one_perturbed_entry_declines_the_split(self):
        x = quantized_cartan(DynkinDiagram("A", 3))
        f = [list(row) for row in permanent_matrix(x, 1, 2)]
        sigma = _reversal(3, 2)
        assert _reversal_split(f, sigma) is not None
        f[0][1] = f[0][1] + ONE
        assert _reversal_split(f, sigma) is None

    @staticmethod
    def _rows_eliminated(monkeypatch):
        rows = []

        def laurent(matrix):
            rows.append(len(matrix))
            return laurent_det(matrix)

        monkeypatch.setattr(gram, "laurent_det", laurent)
        return rows

    def test_one_half_where_the_reversal_negates_v(self, monkeypatch):
        # the factors at d = 3 are P(1) and P(3); at A_4, where m(k-1) is odd
        # for both, plus(-v) = 2 R minus(v) K, so only their minus halves are
        # eliminated: 2 rows of P(1), and 10 of P(3)'s 20
        rows = self._rows_eliminated(monkeypatch)
        assert gram_det(type_a(5), 3) == shapovalov_det_formula(type_a(5), 3)
        assert sorted(rows) == [2, 10]
        assert len(permanent_matrix(quantized_cartan(type_a(5)), 1, 3)) == 20

    def test_perturbed_minus_half_takes_both_halves(self, monkeypatch):
        check = gram._reversal_split

        def perturbed(f, sigma):
            out = check(f, sigma)
            if out is not None and len(f) == 20:
                plus, minus, pairs = out
                minus = [list(row) for row in minus]
                minus[0][0] = minus[0][0] + ONE
                out = plus, minus, pairs
            return out

        monkeypatch.setattr(gram, "_reversal_split", perturbed)
        rows = self._rows_eliminated(monkeypatch)
        # the perturbed P(3) has another determinant, which the final
        # division of the Gram determinant then refuses
        with pytest.raises(AssertionError, match="determinant not divisible"):
            gram_det(type_a(5), 3)
        assert sorted(rows) == [2, 10, 10]

    def test_one_colour_is_not_split(self):
        f = permanent_matrix(quantized_cartan(DynkinDiagram("A", 1)), 1, 3)
        assert _reversal_split(f, _reversal(1, 3)) is None

    @pytest.mark.parametrize(
        "dg, d, splits",
        [(DynkinDiagram("A", 3), 3, True), (DynkinDiagram("D", 4), 2, False),
         (DynkinDiagram("E", 6), 2, False), (DynkinDiagram("A", 1), 4, False)],
    )
    def test_every_factor_is_checked(self, monkeypatch, dg, d, splits):
        # gram_det and gram_det_at_one put every distinct factor through the check
        seen = []
        check = gram._reversal_split

        def spy(f, sigma):
            out = check(f, sigma)
            seen.append(out is not None)
            return out

        monkeypatch.setattr(gram, "_reversal_split", spy)
        g = gram_matrix(dg, d)
        assert gram_det(dg, d) == shapovalov_det_formula(dg, d)
        assert gram_det_at_one(dg, d) == shapovalov_det_formula(dg, d).at_one()
        # one base factor P(m) per distinct m serves every part size
        ms = {m for keys in g.factor_keys.values() for _, m in keys}
        assert len(seen) == 2 * len(ms)
        assert all(seen) if splits else not any(seen)


def _brute_permanent(a, rows, cols):
    """perm (a[r][c]) for r in rows, c in cols, as the sum over all
    bijections of positions; colours may repeat."""
    out = LaurentPoly()
    for perm in itertools.permutations(range(len(cols))):
        term = ONE
        for r, j in zip(rows, perm):
            term = term * a[r][cols[j]]
        out = out + term
    return out


def _random_matrix(seed, k):
    # not symmetric, with zeros, so neither is assumed
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.25:
            return LaurentPoly()
        return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})

    return tuple(tuple(entry() for _ in range(k)) for _ in range(k))


def _laurent_permanents(a, m):
    """P(m) of the matrix a over Z[v,v^-1], column by column as a dict
    expansion of LaurentPoly coefficients: entry (c, c') is the coefficient
    of e^c in prod_{i in c'} (sum_j a[j][i] e_j) times prod_j mult_c(j)!."""
    k = len(a)
    sets = list(itertools.combinations_with_replacement(range(k - 1, -1, -1), m))
    cols = []
    for col in sets:
        expansion = {(0,) * k: ONE}
        for i in col:
            nxt = {}
            for mono, coeff in expansion.items():
                for j in range(k):
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    nxt[key] = nxt.get(key, LaurentPoly()) + coeff * a[j][i]
            expansion = nxt
        cols.append([
            expansion.get(counts, LaurentPoly()) * math.prod(map(math.factorial, counts))
            for counts in (tuple(c.count(j) for j in range(k)) for c in sets)
        ])
    return tuple(zip(*cols))


class TestPermanent:
    MATRICES = [quantized_cartan(DynkinDiagram("A", n)) for n in (1, 2, 3)] + [
        ((ONE,),),
        _random_matrix(11, 2),
        _random_matrix(12, 3),
    ]

    def test_repeated_colours_against_permutation_sum(self):
        # every entry of P_s(m) for 1 to 3 colours and m <= 5, against the
        # permanents of the pairing's matrix A at v^s; rows and columns are
        # the colour multisets in the order of the reference colourings of
        # the shape 1^m
        for x in self.MATRICES:
            k = len(x)
            for s in (1, 2):
                a = [[e.subst_power(s) for e in row] for row in x]
                for m in range(6):
                    sets = [
                        tuple(c for _, c in cp)
                        for cp in _reference_index(k, m)
                        if pt.shape(cp) == (1,) * m
                    ]
                    got = permanent_matrix(x, s, m)
                    assert len(got) == len(sets)
                    for c, row in zip(sets, got):
                        assert len(row) == len(sets)
                        for c2, e in zip(sets, row):
                            assert e == _brute_permanent(a, c, c2), (x, s, c, c2)

    @pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
    def test_packed_expansion_against_a_dict_expansion(self, ell):
        # P(m) over Z[v,v^-1] is expanded on packed ints and decoded once per
        # entry; against the expansion over LaurentPoly coefficients, for
        # [X] of A_{ell-1} and, at ell = 2, 3 and 4, a random matrix of as
        # many colours with negative exponents and mixed signs
        xs = [quantized_cartan(type_a(ell))]
        if ell <= 4:
            xs.append(_random_matrix(ell, ell - 1))
        for x in xs:
            for m in range(5):
                assert permanent_matrix(x, 1, m) == _laurent_permanents(x, m), (x, m)

    def test_distinct_colours(self):
        a = ((LaurentPoly({1: 1}), LaurentPoly({0: 2})), (LaurentPoly({0: 3}), LaurentPoly({-1: 1})))
        p = permanent_matrix(a, 1, 2)  # rows (1,1), (1,0), (0,0)
        # every colour once: the plain 2x2 permanent ad + bc
        assert p[1][1] == LaurentPoly({0: 7})
        # rows of colour 0 against columns of colour 1: 2! a[0][1]^2
        assert p[2][0] == LaurentPoly({0: 8})

    @pytest.mark.parametrize("first", [0, 1], ids=["laurent-first", "int-first"])
    def test_the_memo_keeps_the_rings_apart(self, first):
        # ((ONE,),) == ((1,),) with equal hashes, so a memo keyed on the
        # matrix alone would hand the second call the first call's ring
        gram._permanents.cache_clear()
        calls = [(((ONE,),), LaurentPoly), (((1,),), int)]
        for a, ring in calls[first:] + calls[:first]:
            p = permanent_matrix(a, 1, 2)
            assert p == ((2,),) and all(type(e) is ring for row in p for e in row), ring


class TestCauchyBinet:
    @staticmethod
    def _laurent_matmul(a, b):
        return tuple(
            tuple(sum((x * y for x, y in zip(row, col)), LaurentPoly()) for col in zip(*b))
            for row in a
        )

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_permanent_power_of_a_product(self, k, m):
        # P_m(AB) = P_m(A) W^-1 P_m(B), W = diag(prod_j mult_c(j)!), on random
        # Laurent matrices; times det W, so every entry stays in Z[v,v^-1]
        for seed in range(3):
            a = _random_matrix(100 * k + 10 * m + seed, k)
            b = _random_matrix(200 * k + 10 * m + seed, k)
            ab = self._laurent_matmul(a, b)
            sets = gram._multisets(k, m)
            w = [math.prod(math.factorial(c.count(j)) for j in range(k)) for c in sets]
            det_w = math.prod(w)
            pa, pb = permanent_matrix(a, 1, m), permanent_matrix(b, 1, m)
            scaled = [[x * (det_w // we) for x, we in zip(row, w)] for row in pa]
            assert self._laurent_matmul(scaled, pb) == tuple(
                tuple(x * det_w for x in row) for row in permanent_matrix(ab, 1, m)
            )

    @pytest.mark.parametrize(
        "ell, d", [(ell, d) for ell in (2, 3, 4) for d in range(5)] + [(5, 4), (4, 5)]
    )
    def test_transfer_equals_elimination_of_each_factor(self, ell, d):
        # each distinct factor (at most 35 rows at these points): the products
        # of the Smith form of [X]_s over the colour multisets against its own
        # elimination; and the whole result against the per-factor
        # eliminations, recombined
        dg = type_a(ell)
        g = gram_matrix(dg, d)
        smith = {}
        eliminated = {}
        invs = []
        for lam in g.shapes:
            diag = [ONE]
            for s, m in g.factor_keys[lam]:
                if (s, m) not in eliminated:
                    if s not in smith:
                        smith[s] = snf_laurent_field(_x_s(dg, s)).elements
                    transfer = [
                        math.prod((smith[s][i] for i in c), start=ONE)
                        for c in gram._multisets(dg.nodes, m)
                    ]
                    f = permanent_matrix(g.a, s, m)
                    eliminated[s, m] = snf_laurent_field(f).elements
                    assert snf_of_diagonal(transfer).elements == eliminated[s, m], (s, m)
                diag = [x * y for x in diag for y in eliminated[s, m]]
            invs.extend(diag)
        assert gram_field_invariants(dg, d) == snf_of_diagonal(invs)


    @pytest.mark.parametrize(
        "dg, d",
        [(type_a(ell), d) for ell in (2, 3, 4) for d in range(5)]
        + [(type_a(5), 4), (type_a(2), 12), (type_a(3), 6), (type_a(4), 5)]
        + [(DynkinDiagram("D", 4), d) for d in range(4)]
        + [(DynkinDiagram("E", 6), d) for d in range(3)],
        ids=str,
    )
    def test_factored_products_equal_expanded(self, dg, d):
        # gram_field_invariants hands snf_of_diagonal each diagonal entry as
        # its tuple of Smith-form factors; the same products expanded give
        # the same invariants
        g = gram_matrix(dg, d)
        smith = {s: snf_laurent_field(_x_s(dg, s)).elements for s in range(1, d + 1)}
        expanded = [
            math.prod((smith[s][i] for (s, _), c in zip(keys, combo) for i in c), start=ONE)
            for lam in g.shapes
            for keys in [list(pt.mults(lam).items())]
            for combo in itertools.product(*(gram._multisets(dg.nodes, m) for _, m in keys))
        ]
        assert gram_field_invariants(dg, d) == snf_of_diagonal(expanded)

    @pytest.mark.parametrize("ell", range(2, 8))
    def test_weight_zero_eliminates_nothing(self, monkeypatch, ell):
        # at d = 0 no Kronecker factor reads the Smith form of [X], so [X] is
        # not eliminated; the invariants are those of the 1 x 1 Gram matrix
        want = snf_laurent_field(gram_matrix(type_a(ell), 0).entries)
        calls = []
        monkeypatch.setattr(gram, "snf_laurent_field", lambda m: calls.append(m))
        got = gram_field_invariants(type_a(ell), 0)
        assert not calls and multiset_equal_up_to_units(got, want)


class TestKroneckerFactors:
    @pytest.mark.parametrize(
        "dg, dmax",
        [(DynkinDiagram("A", n), 4) for n in range(1, 5)]
        + [(DynkinDiagram("D", 4), 3), (DynkinDiagram("E", 6), 2)],
    )
    def test_dense_block_is_kron_of_factors(self, dg, dmax):
        # each entry of a y-block is the product over part sizes s of the
        # permanents of the two members' colours of size s, summed over
        # permutations here; the block's denominator is prod s^m_s.  The
        # integer blocks are the same blocks at v=1
        perms = {}
        for d in range(dmax + 1):
            g = gram_matrix(dg, d)
            at_one = g.y_blocks(tuple(tuple(e.at_one() for e in row) for row in g.a))
            for lam, (den, block) in g.y_blocks(g.a).items():
                got_den, got_block = at_one[lam]
                assert got_den == den and [list(row) for row in got_block] == [
                    [e.at_one() for e in row] for row in block
                ]
                sizes = pt.mults(lam)
                assert den == math.prod(s**m for s, m in sizes.items()), (dg, d, lam)
                groups = [pt.group_by_size(cp) for cp in g.block_members[lam]]
                assert len(block) == len(groups)
                for gx, row in zip(groups, block):
                    for gy, e in zip(groups, row):
                        want = ONE
                        for s in sizes:
                            key = (s, gx[s], gy[s])
                            if key not in perms:
                                perms[key] = _brute_permanent(
                                    _x_s(dg, s), gx[s], gy[s]
                                )
                            want = want * perms[key]
                        assert e == want, (dg, d, lam)

    def test_factors_are_memoised_per_size_and_multiplicity(self):
        # the factor keys of two shapes that share P_3(1), largest part first
        g = gram_matrix(DynkinDiagram("A", 2), 5)
        assert g.factor_keys[3, 1, 1] == ((3, 1), (1, 2))
        assert g.factor_keys[3, 2] == ((3, 1), (2, 1))
        assert permanent_matrix(g.a, 3, 1) is permanent_matrix(g.a, 3, 1)
        # colour multisets of size 2 from 2 colours
        assert len(permanent_matrix(g.a, 1, 2)) == 3

    def test_index_matches_the_multipartition_reference(self):
        # the index, built from the Kronecker layout, against one coloured
        # partition per multipartition sorted by (shape, colour vector)
        matrices = [quantized_cartan(DynkinDiagram("A", n)) for n in range(1, 7)]
        cases = [(x, d) for x in matrices for d in range(6)]
        cases += [(quantized_cartan(DynkinDiagram("D", 4)), d) for d in range(4)]
        cases += [(quantized_cartan(DynkinDiagram("E", 6)), d) for d in range(3)]
        cases += [(((ONE,),), n) for n in range(7)]
        for x, d in cases:
            want = _reference_index(len(x), d)
            assert list(GramMatrix("X", d, x).index) == want, (x, d)

    def test_field_invariants_match_bracket_products(self):
        # the theorem-backed sub-check at ell=4, d=5: the dense 30-row block
        # of shape (2,1,1,1) alone did not finish the field SNF in 60 s
        got = gram_field_invariants(type_a(4), 5)
        assert multiset_equal_up_to_units(got, snf_of_diagonal(bracket_product_values(4, 5)))

    def test_field_invariants_at_ell_6_d_4_in_time(self):
        # eliminating the 70-row factor P_1(4) at ell=6 once took over 11
        # minutes; a subprocess with a timeout makes any return of that swell
        # fail instead of hang
        code = (
            "from gcartan.gram import gram_field_invariants\n"
            "from gcartan.invariants import bracket_product_values\n"
            "from gcartan.qcartan import type_a\n"
            "from gcartan.snf import snf_of_diagonal\n"
            "got = gram_field_invariants(type_a(6), 4)\n"
            "raise SystemExit(got != snf_of_diagonal(bracket_product_values(6, 4)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestPartSizeSubstitution:
    """[n]_s(v) = [n](v^s): the kernels see part size 1, and v -> v^s is
    applied to their results."""

    DIAGRAMS = [DynkinDiagram("A", n) for n in range(1, 6)] + [
        DynkinDiagram("D", 4),
        DynkinDiagram("E", 6),
    ]

    @pytest.mark.parametrize("dg", DIAGRAMS, ids=str)
    def test_factor_against_permanents_of_x_s(self, dg):
        # P_s(m), taken from P(m) at v^s, against the permanents of [X]_s
        sets = {m: gram._multisets(dg.nodes, m) for m in range(1, 4)}
        for s in (1, 2, 3):
            x_s = _x_s(dg, s)
            for m, cs in sets.items():
                got = permanent_matrix(quantized_cartan(dg), s, m)
                want = tuple(tuple(_brute_permanent(x_s, c, c2) for c2 in cs) for c in cs)
                assert got == want, (dg, s, m)

    @pytest.mark.parametrize("dg", DIAGRAMS, ids=str)
    def test_smith_form_of_x_s_is_that_of_x_at_v_s(self, dg):
        # the canonical invariants of [X]_s, eliminated, against those of
        # [X]_1 at v^s, which gram_field_invariants uses
        base = snf_laurent_field(quantized_cartan(dg)).elements
        for s in range(1, 7):
            got = snf_laurent_field(_x_s(dg, s)).elements
            assert got == tuple(x.subst_power(s) for x in base), (dg, s)


def _exponent_step(matrix):
    """The largest g with every exponent of row i in lo_i + g Z (lo_i = 0
    for a bar-invariant matrix, else the row's least exponent); 0 when every
    entry is a constant."""
    bar = all(e.is_bar_invariant() for row in matrix for e in row)
    step = 0
    for row in matrix:
        nonzero = [e for e in row if not e.is_zero]
        lo = 0 if bar else min(e.min_exp for e in nonzero)
        step = math.gcd(step, *(k - lo for e in nonzero for k, _ in e))
    return step


class TestKernelTraffic:
    """Every kernel call sees part size 1: one base factor per m, one
    Smith form of [X]_1."""

    @pytest.mark.parametrize("ell, d", [(5, 4), (4, 5), (2, 12), (3, 8)])
    def test_calls_per_base_factor(self, monkeypatch, ell, d):
        dg = type_a(ell)
        g = gram_matrix(dg, d)
        ms = {m for keys in g.factor_keys.values() for _, m in keys}
        calls = {"laurent": [], "field": 0, "at_one": 0}

        def laurent(matrix):
            calls["laurent"].append((len(matrix), _exponent_step(matrix)))
            return laurent_det(matrix)

        def field(matrix):
            calls["field"] += 1
            return snf_laurent_field(matrix)

        at_one = gram._int_det_multimodular

        def at_one_spy(matrix):
            calls["at_one"] += 1
            return at_one(matrix)

        monkeypatch.setattr(gram, "laurent_det", laurent)
        monkeypatch.setattr(gram, "snf_laurent_field", field)
        monkeypatch.setattr(gram, "_int_det_multimodular", at_one_spy)
        want_det = gram_det(dg, d)
        assert want_det == shapovalov_det_formula(dg, d)
        assert calls["laurent"]
        # no matrix needs the exponent rename v^g -> u, unless it is 1x1
        assert all(step <= 1 for rows, step in calls["laurent"] if rows > 1), calls["laurent"]
        gram_field_invariants(dg, d)
        assert calls["field"] == 1
        assert gram_det_at_one(dg, d) == want_det.at_one()
        # one kernel run per distinct m, two where the colour reversal splits
        splits = [
            _reversal_split(
                [[e.at_one() for e in row] for row in permanent_matrix(g.a, 1, m)],
                _reversal(dg.nodes, m),
            )
            for m in ms
        ]
        assert calls["at_one"] == sum(1 if split is None else 2 for split in splits)


class TestAssembly:
    @pytest.mark.parametrize(
        "dg, dmax",
        [(DynkinDiagram("A", n), 4) for n in range(1, 5)]
        + [(DynkinDiagram("D", 4), 3), (DynkinDiagram("E", 6), 2)],
    )
    def test_entries_are_pairwise_sums_of_y_pairs(self, dg, dmax):
        # entry (i, j) = sum over monomials a of x_i and b of x_j of
        # coeff_a coeff_b <y_a, y_b>, summed here pair by pair, with no
        # blocks, no shared denominators and no sparse index
        x = quantized_cartan(dg)
        for d in range(dmax + 1):
            g = gram_matrix(dg, d)
            exps = []
            for cp in g.index:
                den, nums = x_monomial_expansion(cp)
                exps.append([(y, Fraction(t, den)) for y, t in nums.items()])
            for i in range(g.size):
                for j in range(i, g.size):
                    want: dict[int, Fraction] = {}
                    for ya, ca in exps[i]:
                        for yb, cb in exps[j]:
                            num, den = y_pair(ya, yb, x)
                            for e, c in num.terms.items():
                                want[e] = want.get(e, 0) + ca * cb * c / den
                    want = {e: c for e, c in want.items() if c}
                    assert g.entries[i][j].terms == want, (dg, d, i, j)
                    assert g.entries[j][i].terms == want, (dg, d, j, i)

    @pytest.mark.parametrize("dg, d", [(DynkinDiagram("D", 4), 3), (DynkinDiagram("E", 6), 2)])
    def test_scaled_blocks_scale_the_matrix(self, monkeypatch, dg, d):
        # G = T Y T^t is linear in Y, so scaling every y-block entry by f
        # scales G by f.  f = 2^200 + 1 makes every packed slot wider than
        # 8 bytes; D4 and E6 have negative coefficients, so signed slots
        # are decoded across the whole range
        f = 2**200 + 1
        want = gram_matrix(dg, d)
        assert any(c < 0 for row in want.entries for e in row for c in e.terms.values())
        want_at_one = want.at_one()
        original = GramMatrix.y_blocks

        def scaled(self, a):
            return {
                lam: (den, [[y * f for y in row] for row in block])
                for lam, (den, block) in original(self, a).items()
            }

        monkeypatch.setattr(GramMatrix, "y_blocks", scaled)
        got = gram_matrix(dg, d)
        assert got.entries == tuple(tuple(e * f for e in row) for row in want.entries)
        assert got.at_one() == [[x * f for x in row] for row in want_at_one]

    @pytest.mark.parametrize(
        "delta, message",
        [
            # x_2 = y_2 + y_1^2 / 2, so entry (0, 0) of A_1 at d=2 gains delta / 4
            (ONE, "non-integral Gram entry"),
            (LaurentPoly({1: 4}), "not bar-invariant"),
        ],
        ids=["non-integral", "not-bar-invariant"],
    )
    def test_broken_block_entry_is_caught(self, monkeypatch, capsys, delta, message):
        original = GramMatrix.y_blocks

        def perturbed(self, a):
            blocks = dict(original(self, a))
            den, block = blocks[(1, 1)]
            blocks[(1, 1)] = den, [[block[0][0] + delta]]
            return blocks

        monkeypatch.setattr(GramMatrix, "y_blocks", perturbed)
        with pytest.raises(AssertionError, match=message):
            gram_matrix(DynkinDiagram("A", 1), 2).entries
        code = cli.main(["gram", "--ell", "2", "--d", "2"])
        err = capsys.readouterr().err
        assert code == 3 and "internal error" in err and message in err


class TestUnitriangularCheck:
    # every consumer of the x -> y change of basis checks it first: a broken
    # expansion of one x-monomial is caught, not folded into a determinant
    CHECKED = (gram_det, gram_det_at_one, gram_field_invariants)
    DG, D = DynkinDiagram("A", 2), 3

    @pytest.fixture(autouse=True)
    def fresh_expansions(self):
        gram.x_monomial_expansion.cache_clear()
        yield
        gram.x_monomial_expansion.cache_clear()

    def _break(self, monkeypatch, change):
        """Patch the expansion of the finest x-monomial of (DG, D) by
        change(cp, den, numerators), on a copy of the cached value."""
        original = gram.x_monomial_expansion
        target = gram_matrix(self.DG, self.D).index[-1]

        def broken(cp):
            den, nums = original(cp)
            return (den, change(cp, den, dict(nums))) if cp == target else (den, nums)

        monkeypatch.setattr(gram, "x_monomial_expansion", broken)
        return target

    @pytest.mark.parametrize("fn", CHECKED, ids=lambda fn: fn.__name__)
    def test_a_wrong_diagonal_is_caught(self, monkeypatch, fn):
        def change(cp, den, nums):
            nums[cp] = den + 1
            return nums

        self._break(monkeypatch, change)
        with pytest.raises(AssertionError, match="diagonal coefficient"):
            fn(self.DG, self.D)

    @pytest.mark.parametrize("fn", CHECKED, ids=lambda fn: fn.__name__)
    def test_a_coarser_monomial_is_caught(self, monkeypatch, fn):
        # the finest x-monomial gains the y-monomial of the coarsest shape
        def change(cp, den, nums):
            nums[((self.D, 0),)] = 1
            return nums

        target = self._break(monkeypatch, change)
        assert pt.shape(target) == (1,) * self.D
        with pytest.raises(AssertionError, match="does not refine"):
            fn(self.DG, self.D)


class TestBlockSum:
    def test_examples(self):
        bs = block_sum(2, 2)
        assert len(bs.blocks) == 1
        assert bs.blocks[0][1].entries[0][0] == quantum_int(2)
        bs = block_sum(1, 4)
        assert len(bs.blocks) == 1 and bs.blocks[0][1].size == 1
        assert bs.blocks[0][1].entries[0][0] == ONE
        bs = block_sum(4, 2)
        assert [lbl.weight for lbl, _ in bs.blocks] == [2]

    def test_direct_sum_shape(self):
        bs = block_sum(5, 3)
        m = bs.matrix()
        assert len(m) == bs.size == sum(g.size for _, g in bs.blocks)
        off = 0
        for _, g in bs.blocks:
            assert m[off][off] == g.entries[0][0]
            if off > 0:
                assert m[off][0].is_zero
            off += g.size


def _n_matrix_count(rows, cols):
    """The number of matrices over the nonnegative integers with row sums
    rows and column sums cols, by choosing the first row and recursing."""
    if not rows:
        return int(not any(cols))
    return sum(
        _n_matrix_count(rows[1:], tuple(c - x for c, x in zip(cols, first)))
        for first in itertools.product(*(range(c + 1) for c in cols))
        if sum(first) == rows[0]
    )


def _k_gram(n):
    """The K-Gram matrix of degree n as (partitions, entries)."""
    g = GramMatrix("K", n, ((ONE,),))
    return [tuple(s for s, _ in cp) for cp in g.index], g.entries


def _jacobi_trudi_leibniz(lam):
    """det(x_{lam_i - i + j}) as a sum over permutations with their signs,
    the reference for schur_in_x's Laplace expansion."""
    acc = {}
    for perm in itertools.permutations(range(len(lam))):
        parts = [lam[i] - i + j for i, j in enumerate(perm)]
        if min(parts, default=0) < 0:
            continue
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        key = tuple(sorted((m for m in parts if m), reverse=True))
        acc[key] = acc.get(key, 0) + (-1) ** inversions
    return {k: v for k, v in acc.items() if v}


class TestKPairingAndSchur:
    def test_jacobi_trudi(self):
        assert dict(schur_in_x(())) == {(): 1}
        assert dict(schur_in_x((1,))) == {(1,): 1}
        assert dict(schur_in_x((4,))) == {(4,): 1}
        assert dict(schur_in_x((1, 1))) == {(1, 1): 1, (2,): -1}
        assert dict(schur_in_x((2, 1))) == {(2, 1): 1, (3,): -1}

    @pytest.mark.parametrize("n", range(9))
    def test_jacobi_trudi_matches_the_permutation_sum(self, n):
        for lam in pt.enum_partitions(n):
            assert dict(schur_in_x(lam)) == _jacobi_trudi_leibniz(lam), lam

    def test_k_pair_examples(self):
        assert _k_gram(0) == ([()], ((ONE,),))
        assert _k_gram(1) == ([(1,)], ((ONE,),))
        # <h_2, h_2> = <h_2, h_1^2> = 1 and <h_1^2, h_1^2> = 2
        assert _k_gram(2) == ([(2,), (1, 1)], ((ONE, ONE), (ONE, LaurentPoly.const(2))))

    def test_k_gram_counts_n_matrices(self):
        # x_n = h_n, and <h_lam, h_mu> counts the matrices over N with row
        # sums lam and column sums mu
        for n in range(7):
            index, entries = _k_gram(n)
            assert sorted(index) == sorted(pt.enum_partitions(n))
            for lam, row in zip(index, entries):
                for mu, e in zip(index, row):
                    assert e == LaurentPoly.const(_n_matrix_count(lam, mu)), (lam, mu)

    def test_orthonormality_small(self):
        assert schur_orthonormality(5)

    def test_orthonormality_refuses_an_empty_range(self):
        # no degree to check is not a pass
        with pytest.raises(ValueError, match="nmax must be >= 0"):
            schur_orthonormality(-1)

    @pytest.mark.parametrize(
        "weight", [LaurentPoly.const(2), quantum_int(3) - 2 * ONE], ids=["two", "one-at-v=1"]
    )
    def test_oracle_sees_the_assembly(self, monkeypatch, weight):
        # a weight other than 1 breaks orthonormality in degree 1; [3] - 2 is
        # 1 at v=1, so only the exact comparison over Z[v,v^-1] catches it
        monkeypatch.setattr(gram, "_K_PAIRING", ((weight,),))
        assert not schur_orthonormality(3)
        monkeypatch.undo()
        assert schur_orthonormality(3)
