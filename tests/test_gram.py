import random
from fractions import Fraction

import pytest

from gcartan import partitions as pt
from gcartan.gram import (
    CartanPairing,
    GramMatrix,
    IdentityPairing,
    block_sum,
    cartan_graded,
    gram_det,
    gram_det_at_one,
    gram_matrix,
    k_pair,
    schur_in_x,
    schur_orthonormality,
    x_expand,
    x_monomial_expansion,
    y_pair,
)
from gcartan.linalg import laurent_det
from gcartan.qcartan import DynkinDiagram, shapovalov_det_formula, type_a
from gcartan.qlaurent import ONE, LaurentPoly, quantum_int


class TestXExpansion:
    def test_first_coefficients(self):
        assert dict(x_expand(1, 0).combination) == {((1, 0),): Fraction(1)}
        e2 = dict(x_expand(2, 0).combination)
        assert e2 == {((2, 0),): Fraction(1), ((1, 0), (1, 0)): Fraction(1, 2)}
        e3 = dict(x_expand(3, 1).combination)
        assert e3 == {
            ((3, 1),): Fraction(1),
            ((2, 1), (1, 1)): Fraction(1),
            ((1, 1), (1, 1), (1, 1)): Fraction(1, 6),
        }

    def test_monomial_extension(self):
        exp = x_monomial_expansion(((2, 0), (1, 1))).combination
        assert exp[((2, 0), (1, 1))] == 1
        assert exp[((1, 1), (1, 0), (1, 0))] == Fraction(1, 2)

    def test_diagonal_coefficient_is_one(self):
        for cp in pt.enum_colored(5, 2):
            comb = x_monomial_expansion(cp).combination
            assert comb[cp] == 1
            for other in comb:
                if other != cp:
                    assert pt.shape(other) < pt.shape(cp)


class TestYPair:
    def test_examples(self):
        a1 = CartanPairing(DynkinDiagram("A", 1))
        assert y_pair(((1, 0),), ((1, 0),), a1) == (quantum_int(2), 1)
        assert y_pair(((1, 0), (1, 0)), ((2, 0),), a1)[0].is_zero
        two = quantum_int(2)
        assert y_pair(((1, 0), (1, 0)), ((1, 0), (1, 0)), a1) == (two * two * 2, 1)
        # <y_2, y_2> = [2]_2 / 2: the A_1 family at s = 2 is ([2]_2)
        assert y_pair(((2, 0),), ((2, 0),), a1) == (quantum_int(2, 2), 2)

    def test_symmetry(self):
        pairing = CartanPairing(DynkinDiagram("A", 2))
        rng = random.Random(3)
        monos = pt.enum_colored(4, 2)
        for _ in range(40):
            m1 = rng.choice(monos)
            m2 = rng.choice(monos)
            assert y_pair(m1, m2, pairing) == y_pair(m2, m1, pairing)

    def test_bar_invariance(self):
        pairing = CartanPairing(DynkinDiagram("A", 2))
        for m1 in pt.enum_colored(3, 2):
            for m2 in pt.enum_colored(3, 2):
                num, den = y_pair(m1, m2, pairing)
                assert num == num.bar()

    def test_identity_pairing_weight(self):
        idp = IdentityPairing()
        # <y_2 y_1, y_2 y_1> = (1/2) * (1/1) with one bijection per size
        assert y_pair(((2, 0), (1, 0)), ((2, 0), (1, 0)), idp) == (ONE, 2)


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

    def test_json_roundtrip(self):
        g = gram_matrix(DynkinDiagram("A", 2), 2)
        assert GramMatrix.from_json(g.to_json()) == g


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
                assert gram_det(dg, d, "dense") == gram_det(dg, d, "factored")

    def test_matches_formula(self):
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det(dg, d) == shapovalov_det_formula(dg, d)

    def test_det_at_one(self):
        for dg, dmax in self.CASES:
            for d in range(dmax + 1):
                assert gram_det_at_one(dg, d) == gram_det(dg, d).at_one()

    def test_full_bareiss_against_blocks(self):
        g = gram_matrix(DynkinDiagram("A", 2), 4)
        assert laurent_det(g.entries) == gram_det(DynkinDiagram("A", 2), 4)


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


class TestKPairingAndSchur:
    def test_jacobi_trudi(self):
        assert dict(schur_in_x(())) == {(): 1}
        assert dict(schur_in_x((1,))) == {(1,): 1}
        assert dict(schur_in_x((4,))) == {(4,): 1}
        assert dict(schur_in_x((1, 1))) == {(1, 1): 1, (2,): -1}
        assert dict(schur_in_x((2, 1))) == {(2, 1): 1, (3,): -1}

    def test_k_pair_examples(self):
        assert k_pair({(): 1}, {(): 1}) == ONE
        assert k_pair({(1,): 1}, {(1,): 1}) == ONE
        # complete homogeneous pairing: <h_lam, h_mu> counts nonnegative
        # integer matrices with row sums lam and column sums mu
        assert k_pair({(2,): 1}, {(2,): 1}) == ONE
        assert k_pair({(2,): 1}, {(1, 1): 1}) == ONE
        assert k_pair({(1, 1): 1}, {(1, 1): 1}) == LaurentPoly.const(2)

    def test_orthonormality_small(self):
        assert schur_orthonormality(5)
