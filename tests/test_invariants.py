import math

import pytest

from gcartan import invariants, snf
from gcartan import partitions as pt
from gcartan.invariants import (
    BunkaitoComponent,
    _graded_hill_factors,
    asy_Q,
    bracket_product_values,
    bunkaito_decompose,
    composite_hill,
    conjecture_report,
    graded_hill,
    graded_hill_values,
    graded_kor,
    hill_invariant,
    hill_values,
    kor_invariant,
    verify_bhmulti,
    verify_conjcheck,
    verify_conjequiv,
    verify_saigo2,
    verify_tsaigo,
)
from gcartan.qcartan import exponent_N
from gcartan.qlaurent import ONE, bracket_product, quantum_int


class TestHill:
    def test_examples(self):
        assert hill_invariant(2, 1, (1,)) == 2
        assert hill_invariant(5, 3, ()) == 1
        assert hill_invariant(2, 2, (2,)) == 2

    def test_prime_required(self):
        with pytest.raises(ValueError):
            hill_invariant(4, 1, (1,))

    def test_graded_examples(self):
        assert graded_hill(2, 1, (1,)) == quantum_int(2)
        assert graded_hill(3, 2, ()) == ONE
        assert graded_hill(2, 2, (2,)) == quantum_int(2, 2)
        assert graded_hill(2, 1, (1, 1)) == quantum_int(2) * quantum_int(4)

    def test_graded_is_the_product_of_its_brackets(self):
        # the window sums against plain multiplication of the brackets
        for p, r in ((2, 1), (2, 3), (3, 2), (5, 1)):
            for n in range(0, 9):
                for lam in pt.enum_partitions(n):
                    want = ONE
                    for m, s in _graded_hill_factors(p, r, lam):
                        want = want * quantum_int(m, s)
                    assert graded_hill(p, r, lam) == want, (p, r, lam)

    def test_graded_specializes_to_ungraded(self):
        for p in (2, 3, 5):
            for r in (1, 2, 3):
                for n in range(0, 11):
                    for lam in pt.enum_partitions(n):
                        assert graded_hill(p, r, lam).at_one() == hill_invariant(p, r, lam)

    def test_cut_invariance(self):
        # I^v is blind to parts divisible by p^r
        for p, r in ((2, 1), (2, 2), (3, 1)):
            ell = p**r
            for n in range(0, 9):
                for lam in pt.enum_partitions(n):
                    assert graded_hill(p, r, lam) == graded_hill(p, r, pt.cut(lam, ell))

    def test_r1_equals_asy(self):
        for p in (2, 3, 5):
            for n in range(0, 11):
                for lam in pt.enum_partitions(n):
                    assert graded_hill(p, 1, lam) == asy_Q(p, lam)

    def test_composite(self):
        lam = (3, 2, 1, 1)
        assert composite_hill(6, lam) == hill_invariant(2, 1, lam) * hill_invariant(3, 1, lam)

    @pytest.mark.parametrize("ell", [1, 0, -3])
    def test_composite_refuses_ell_below_2(self, ell):
        # as kor_invariant and asy_Q do; ell = 1 has no prime divisor and
        # gave the empty product 1
        with pytest.raises(ValueError, match="ell must be >= 2"):
            composite_hill(ell, (3,))


class TestKor:
    def test_examples(self):
        assert kor_invariant(2, (1, 1)) == 2
        assert kor_invariant(7, (3, 2, 1)) == 1
        assert kor_invariant(6, (1,) * 12) == 72

    def test_graded_examples(self):
        assert graded_kor(2, 1, (1, 1)) == quantum_int(2)
        assert graded_kor(3, 1, (2, 2)) == ONE
        # the paper's own reduction identity r^v = I^v o RED forces this value
        assert graded_kor(2, 1, (2, 2)) == ONE

    def test_graded_specializes_to_kor(self):
        for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
            ell = p**r
            for n in range(0, 11):
                for lam in pt.enum_partitions(n):
                    assert graded_kor(p, r, lam).at_one() == kor_invariant(ell, lam)

    def test_red_identity_both_ways(self):
        for p, r in ((2, 1), (2, 2), (3, 1)):
            ell = p**r
            for n in range(0, 10):
                for lam in pt.enum_partitions(n):
                    assert graded_kor(p, r, lam) == graded_hill(p, r, pt.red(lam, ell))


class TestAsy:
    def test_examples(self):
        assert asy_Q(2, (1,)) == quantum_int(2)
        assert asy_Q(7, ()) == ONE
        assert asy_Q(3, (1, 1, 1)) == quantum_int(3) * quantum_int(3, 2) * quantum_int(9)

    def test_composite_ell_is_allowed(self):
        assert asy_Q(6, (1, 1)) == quantum_int(6) * quantum_int(6, 2)


class TestMultisets:
    def test_rhs_examples(self):
        assert graded_hill_values(2, 1, 1) == [quantum_int(2)]
        assert graded_hill_values(3, 1, 0) == [ONE]  # the weight-0 block is 1-dimensional
        assert sorted(hill_values(2, 1, 2)) == [1, 8]

    def test_cardinality_matches_dimension(self):
        # |multiset| = u(ell-1, d): necessary for any equivalence claim
        for p, r in ((2, 1), (3, 1), (2, 2)):
            ell = p**r
            for d in range(0, 7):
                assert len(graded_hill_values(p, r, d)) == pt.u_count(ell - 1, d)
                assert len(hill_values(p, r, d)) == pt.u_count(ell - 1, d)
                assert len(bracket_product_values(ell, d)) == pt.u_count(ell - 1, d)

    def test_graded_values_specialize(self):
        for d in range(0, 5):
            g = sorted(x.at_one() for x in graded_hill_values(2, 2, d))
            assert g == sorted(hill_values(2, 2, d))

    def test_one_bracket_product_is_the_product_of_the_values(self):
        # layer 1 expands the conjectured determinant from every bracket
        # factor of every weighted partition at once; on the criterion-8
        # grid that is the product of the expanded diagonal entries
        for p, r in ((2, 1), (3, 1), (2, 2)):
            for d in range(0, 5):
                factors = [
                    f
                    for lam, mult in invariants._weighted_partitions(p**r, d)
                    for f in _graded_hill_factors(p, r, lam) * mult
                ]
                want = math.prod(graded_hill_values(p, r, d), start=ONE)
                assert bracket_product(factors) == want, (p, r, d)


class TestIdentityVerifiers:
    def test_conjcheck(self):
        assert verify_conjcheck(2, 1, 4)
        assert verify_conjcheck(5, 1, 0)
        assert verify_conjcheck(2, 2, 5) and verify_conjcheck(3, 1, 5)

    def test_conjcheck_refuses_an_empty_range(self):
        # no degree to check is not a pass
        with pytest.raises(ValueError, match="dmax must be >= 0"):
            verify_conjcheck(2, 1, -1)

    def test_conjcheck_matches_direct_expansion(self):
        for p, r, d in ((2, 1, 3), (3, 1, 3), (2, 2, 3)):
            ell = p**r
            lhs = ONE
            for s in range(1, d + 1):
                lhs = lhs * quantum_int(ell, s) ** exponent_N(ell - 1, d, s)
            rhs = ONE
            for val in graded_hill_values(p, r, d):
                rhs = rhs * val
            assert lhs == rhs

    def test_tsaigo(self):
        assert verify_tsaigo(2, 1, 3, 1)
        assert verify_tsaigo(2, 1, 4, 7)  # u > d: both sides empty
        assert verify_tsaigo(3, 2, 8, 1)
        with pytest.raises(ValueError):
            verify_tsaigo(2, 1, 3, 2)

    def test_tsaigo_refuses_negative_d(self):
        # refused after p and r, as conjecture_report refuses it, not by the
        # partition enumeration's "n must be nonnegative"
        with pytest.raises(ValueError, match="d must be nonnegative"):
            verify_tsaigo(2, 1, -2, 1)
        with pytest.raises(ValueError, match="p must be prime"):
            verify_tsaigo(4, 1, -2, 1)

    def test_saigo2(self):
        assert verify_saigo2(2, 2)
        assert verify_saigo2(3, 0)
        assert verify_saigo2(3, 6)

    def test_bhmulti(self):
        assert verify_bhmulti(2, 4)
        assert verify_bhmulti(5, 1)
        assert verify_bhmulti(6, 5)  # composite ell with PRS = {2, 3}

    def test_conjequiv(self):
        assert verify_conjequiv(2, 1, 4)
        assert verify_conjequiv(3, 1, 0)
        assert verify_conjequiv(2, 2, 6)


class TestBunkaito:
    def test_small(self):
        # S^{2,1}_2 = {CUT_2(lam) != () : lam in Par(2)} = {(1,1)}
        rep = bunkaito_decompose(2, 1, 2)
        assert rep.verified and rep.total == 1
        assert rep.components == (BunkaitoComponent(0, ((1, 2),), 1),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bunkaito_decompose(2, 1, 0)

    @pytest.mark.parametrize(
        "p, r, message",
        [(1, 1, "p must be prime, got 1"), (4, 1, "p must be prime, got 4"), (2, 0, "r must be >= 1")],
    )
    def test_p_and_r_are_checked(self, p, r, message):
        # p = 1 makes ell = 1, which cuts every part: both sides were empty
        # and the check passed with nothing in it
        with pytest.raises(ValueError, match=message):
            bunkaito_decompose(p, r, 3)

    def test_medium(self):
        assert bunkaito_decompose(2, 2, 6).verified
        assert bunkaito_decompose(3, 1, 5).verified

    def test_large_r(self):
        # ell = 2^2000 exceeds d, so nothing is cut: the blocks hold only the
        # parts 1 and 2, and the powers above them are never walked
        rep = bunkaito_decompose(2, 2000, 3)
        assert rep.verified and rep.total == 3 and len(rep.components) == 2


class TestConjectureReport:
    @pytest.mark.parametrize(
        "p, r, d, message",
        [(2, 0, 3, "r must be >= 1"), (1, 1, 3, "p must be prime"), (2, 1, -1, "d must be nonnegative")],
    )
    def test_arguments_are_checked_first(self, p, r, d, message):
        with pytest.raises(ValueError, match=message):
            conjecture_report(p, r, d)

    def test_trivial_case_all_verified(self):
        rep = conjecture_report(2, 1, 1)
        assert [lay.status for lay in rep.layers] == ["VERIFIED"] * 4

    def test_weight_zero(self):
        rep = conjecture_report(3, 1, 0)
        assert rep.ok

    def test_layer_names_and_json(self):
        rep = conjecture_report(2, 1, 2)
        names = [lay.name for lay in rep.layers]
        assert names == [
            "determinant",
            "field-invariants",
            "integer-invariants",
            "integral-diagonalization",
        ]
        j = rep.to_json()
        assert j["params"]["ell"] == 2 and len(j["layers"]) == 4
        assert "elapsed_ms" in j

    def test_layers_carry_time_and_dimension(self):
        rep = conjecture_report(3, 1, 3)
        for lay in rep.layers:
            assert lay.details["dim"] == pt.u_count(2, 3) == 10
            assert 0 <= lay.details["elapsed_ms"] <= rep.elapsed_ms
            assert lay.to_json()["dim"] == 10
        assert sum(lay.details["elapsed_ms"] for lay in rep.layers) <= rep.elapsed_ms

    def test_statuses_at_least_consistent(self):
        rep = conjecture_report(3, 1, 2)
        assert rep.layer("determinant").status == "VERIFIED"
        for lay in rep.layers[1:]:
            assert lay.status in ("VERIFIED", "CONSISTENT", "INCONCLUSIVE")

    @pytest.mark.parametrize(
        "p, r, d, status, stopped",
        [
            (2, 1, 4, "VERIFIED", "cleared"),
            (3, 1, 2, "VERIFIED", "cleared"),
            (2, 2, 2, "VERIFIED", "cleared"),
            (5, 1, 2, "VERIFIED", "cleared"),
            (3, 1, 3, "CONSISTENT", "stalled"),
            (2, 2, 3, "CONSISTENT", "stalled"),
        ],
    )
    def test_integral_diagonalization_status(self, p, r, d, status, stopped):
        # criterion 8 accepts VERIFIED or CONSISTENT alike; this pins which
        lay = conjecture_report(p, r, d).layer("integral-diagonalization")
        assert (lay.status, lay.details["stopped"]) == (status, stopped)
        assert ("stalled" in lay.details.get("note", "")) == (stopped == "stalled")


    @pytest.mark.parametrize(
        "p, r, d, status, steps, stopped",
        [
            (3, 1, 4, "CONSISTENT", 18, "stalled"),
            (5, 1, 3, "CONSISTENT", 54, "stalled"),
            (2, 2, 3, "CONSISTENT", 13, "stalled"),
            (2, 1, 4, "VERIFIED", 9, "cleared"),
            (5, 1, 2, "VERIFIED", 19, "cleared"),
        ],
    )
    def test_integral_diagonalization_steps(self, p, r, d, status, steps, stopped):
        # the diagonalizer's pass count and stop reason at the five
        # conjecture-report benchmark points
        lay = conjecture_report(p, r, d).layer("integral-diagonalization")
        assert (lay.status, lay.details["steps"], lay.details["stopped"]) == (status, steps, stopped)

    @pytest.mark.parametrize(
        "p, r, d, last",
        [(2, 1, 4, "VERIFIED"), (3, 1, 3, "CONSISTENT"), (5, 1, 2, "VERIFIED"),
         (2, 2, 3, "CONSISTENT")],
    )
    def test_no_dense_integer_elimination(self, monkeypatch, p, r, d, last):
        # the integer layer and the diagonalizer's v=1 cross-check see only
        # nonsingular matrices, which the local engine takes
        def refuse(matrix):
            raise AssertionError("a nonsingular matrix reached the dense loop")

        monkeypatch.setattr(snf, "_snf_int_dense", refuse)
        rep = conjecture_report(p, r, d)
        assert [lay.status for lay in rep.layers] == ["VERIFIED"] * 3 + [last]

    def test_wrong_determinant_fails_its_layer_only(self, monkeypatch):
        # an unchecked determinant is not handed to the local engine: the
        # integer layer computes its own |det| and still verifies
        monkeypatch.setattr(invariants, "gram_det", lambda dg, d: ONE)
        rep = conjecture_report(3, 1, 3)
        assert rep.layer("determinant").status == "FAILED"
        assert rep.layer("integer-invariants").status == "VERIFIED"

    def test_other_diagonal_is_consistent(self, monkeypatch):
        # Z[v,v^-1] is not a PID, so a diagonal other than the conjectured
        # representative refutes nothing
        real = snf.try_diagonalize_zlaurent

        def other_diagonal(matrix, budget):
            res = real(matrix, budget=budget)
            ones = snf.InvariantMultiset.polys([ONE] * len(matrix), snf.RING_ZLAURENT)
            return snf.DiagonalizationResult(ones, res.steps, res.stopped)

        monkeypatch.setattr(snf, "try_diagonalize_zlaurent", other_diagonal)
        rep = conjecture_report(2, 1, 2)
        assert [lay.status for lay in rep.layers] == ["VERIFIED"] * 3 + ["CONSISTENT"]
        lay = rep.layer("integral-diagonalization")
        assert lay.details["stopped"] == "cleared" and lay.details["multiset_match"] is False
        assert lay.details["note"] == "diagonal found but not the conjectured representative"

    def test_stop_after_a_failed_layer_is_inconclusive(self, monkeypatch):
        # a stalled diagonalizer is CONSISTENT only while the field and v=1
        # layers hold; here the field layer's theorem check fails
        monkeypatch.setattr(
            invariants, "bracket_product_values", lambda ell, d: [ONE] * pt.u_count(ell - 1, d)
        )
        rep = conjecture_report(3, 1, 3)
        assert [lay.status for lay in rep.layers] == [
            "VERIFIED", "FAILED", "VERIFIED", "INCONCLUSIVE"
        ]
        lay = rep.layer("integral-diagonalization")
        assert lay.details["stopped"] == "stalled"
        assert lay.details["note"] == invariants._DIAG_STOPS["stalled"]
