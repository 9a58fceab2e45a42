import random
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcartan import qlaurent
from gcartan.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    QProduct,
    bracket_product,
    cyclotomic,
    divide_exact,
    exact_quotient,
    kss_bracket,
    normalize_unit,
    power_product,
    quantum_binomial,
    quantum_factorial,
    quantum_int,
    su_bracket,
    sub_product,
    vanishes_at_primitive_root,
)

small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=5
).map(LaurentPoly)


class TestRingBasics:
    def test_canonical_form_drops_zeros(self):
        assert LaurentPoly({3: 0, 1: 2}).terms == {1: 2}

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: Fraction(1, 2)})
        with pytest.raises(TypeError):
            LaurentPoly({0: 2.0})
        with pytest.raises(TypeError):
            LaurentPoly({1.0: 1})

    def test_rejects_integral_fractions(self):
        # Coefficients are exact ints; a Fraction is refused even when integral.
        with pytest.raises(TypeError):
            LaurentPoly({0: Fraction(4, 2)})
        with pytest.raises(TypeError):
            LaurentPoly({0: 1, 1: Fraction(0, 3)})

    def test_rejects_bools(self):
        # a bool is an int subclass, but to_json would write it as "True",
        # which from_json refuses
        with pytest.raises(TypeError, match="coefficient True"):
            LaurentPoly({0: True})
        with pytest.raises(TypeError, match="exponent True"):
            LaurentPoly({True: 2})
        with pytest.raises(TypeError, match="exponent False"):
            LaurentPoly({2: 1, False: 3})

    def test_equality_is_term_equality(self):
        assert LaurentPoly({1: 1, -1: 1}) == LaurentPoly({-1: 1, 1: 1})
        assert LaurentPoly({1: 1}) != LaurentPoly({1: 2})

    def test_a_constant_hashes_like_its_int(self):
        # a constant equals its int, so the two are one set member and one
        # dict key
        for c in (0, 1, -1, 7, -(2**100)):
            assert LaurentPoly.const(c) == c and hash(LaurentPoly.const(c)) == hash(c)
        assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
        assert {ONE: "x"}.get(1) == "x" and {2: "y"}.get(LaurentPoly.const(2)) == "y"
        assert len({ONE, LaurentPoly({1: 1}), LaurentPoly({-1: 1}), ONE + LaurentPoly({1: 1})}) == 4

    def test_additive_identity(self):
        x = LaurentPoly({5: 3, -2: 1})
        assert x + ZERO == x and ZERO + x == x

    def test_binomial_square(self):
        two = quantum_int(2)
        assert two * two == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_mixed_bracket_product(self):
        assert quantum_int(2, 1) * quantum_int(2, 2) == LaurentPoly({3: 1, 1: 1, -1: 1, -3: 1})

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_bar_is_ring_involution(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a

    def test_pow(self):
        t = quantum_int(2)
        assert t**0 == ONE
        assert t**3 == t * t * t

    def test_json_roundtrip(self):
        p = LaurentPoly({10**20: 3, -5: -(10**30)})
        assert LaurentPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "terms, exponent",
        [({"1": "2", "01": "3"}, 1), ({"0": "5", "-0": "7"}, 0), ({"-2": 1, -2: 4}, -2)],
    )
    def test_from_json_refuses_a_repeated_exponent(self, terms, exponent):
        # two keys naming one exponent used to keep whichever came last
        with pytest.raises(ValueError, match=rf"^exponent {exponent} is given twice$"):
            LaurentPoly.from_json({"terms": terms})


def _schoolbook(a: LaurentPoly, b: LaurentPoly) -> dict:
    # the reference product: every pair of terms, summed in a dict
    out: dict[int, int] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def product_operands(draw, terms=80, bits=2000):
    """A Laurent polynomial of 1 to `terms` terms at the exponents
    lo + step k, with coefficients of 1 to `bits` bits that are all
    positive, all negative or mixed; seeded by the draw, so hypothesis
    shrinks the shape."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, terms))
    step = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.integers(-60, 60))
    bits = draw(st.integers(1, bits))
    signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    ks = sorted(rng.sample(range(2 * n), n)) if draw(st.booleans()) else range(n)
    return LaurentPoly(
        {lo + step * k: rng.choice(signs) * rng.randint(1, 2**bits - 1) for k in ks}
    )


def _all_ones(n: int, k: int, sign: int, step: int = 2) -> LaurentPoly:
    # n terms at step apart, every coefficient sign (2^k - 1)
    return LaurentPoly({step * i - n: sign * (2**k - 1) for i in range(n)})


class TestKroneckerProduct:
    """LaurentPoly products, which take a Kronecker-packed big-integer
    product or the dict schoolbook by an estimate of their costs, against a
    dict schoolbook kept here."""

    # every coefficient 2^k - 1 of one sign: the middle coefficient of the
    # product is min(|a|_1 max|b|, |b|_1 max|a|), the slot bound itself
    @example(_all_ones(40, 64, 1), _all_ones(30, 64, 1))
    @example(_all_ones(40, 63, -1), _all_ones(64, 57, -1))
    @example(_all_ones(200, 1000, 1, 3), _all_ones(17, 1000, 1, 3))
    @given(product_operands(), product_operands())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_the_schoolbook(self, a, b):
        want = _schoolbook(a, b)
        assert (a * b).terms == want and (b * a).terms == want
        # the packed path alone, whatever the estimate would choose, on a
        # shorter operand of two terms or more, as __mul__ hands it over
        x, y = (a, b) if len(a) <= len(b) else (b, a)
        if len(x) >= 2:
            with mock.patch.object(qlaurent, "_DICT_TERM", 10**9):
                assert qlaurent._packed_product(x.terms, y.terms) == want

    def test_the_bound_is_met_exactly(self):
        a, b = _all_ones(40, 64, 1), _all_ones(30, 64, 1)
        top = max(map(abs, (a * b).terms.values()))
        assert top == min(40 * (2**64 - 1) ** 2, 30 * (2**64 - 1) ** 2)

    @given(product_operands(terms=40, bits=400), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_power_matches_repeated_schoolbook(self, a, n):
        want = ONE
        for _ in range(n):
            want = LaurentPoly(_schoolbook(want, a))
        assert a**n == want
        assert power_product([(a, n), (a, 1)], ONE) == LaurentPoly(_schoolbook(want, a))

    @pytest.mark.parametrize(
        "shape_a, shape_b, packed",
        [
            # balanced operands of wide coefficients, as the powers of the
            # factor determinants at (7,4) and (5,4) are
            ((500, 260, 1), (250, 420, -1), True),
            ((280, 180, 1), (140, 180, 1), True),
            # one short operand: the schoolbook
            ((1877, 200, 1), (15, 30, 1), False),
            # a long operand of wide coefficients against a narrow one, as
            # in shapovalov_det_formula(A_2, 10): the schoolbook
            ((3925, 1800, 1), (75, 55, 1), False),
        ],
    )
    def test_the_estimate_picks_the_path(self, shape_a, shape_b, packed):
        a, b = _all_ones(*shape_a), _all_ones(*shape_b)
        with mock.patch.object(qlaurent, "_signed_pack", side_effect=qlaurent._signed_pack) as spy:
            assert (a * b).terms == _schoolbook(a, b)
        assert spy.called == packed


class TestPowerProduct:
    def test_both_rings(self):
        # over Z the factors are ints, which have no len: the product orders
        # them by their bits
        assert power_product([(3, 4), (-2, 3), (10**30, 2)], 1) == 3**4 * (-2) ** 3 * 10**60
        assert power_product([], 1) == 1 and power_product([], ONE) == ONE
        q = quantum_int(3)
        assert power_product([(q, 3), (V, 2), (q, 0)], ONE) == q * q * q * V * V


class TestBarAndSubst:
    def test_bar_example(self):
        assert LaurentPoly({2: 1, 0: 3}).bar() == LaurentPoly({-2: 1, 0: 3})
        assert ZERO.bar() == ZERO

    def test_quantum_ints_bar_invariant(self):
        for n in range(0, 12):
            for s in (1, 2, 3, 5):
                assert quantum_int(n, s).bar() == quantum_int(n, s)

    def test_subst_power(self):
        assert quantum_int(2).subst_power(2) == LaurentPoly({2: 1, -2: 1})
        a = LaurentPoly({3: 2, -1: 5})
        assert a.subst_power(1) == a
        assert LaurentPoly({1: 1}).subst_power(-1) == LaurentPoly({-1: 1})
        with pytest.raises(ValueError):
            a.subst_power(0)

    @given(small_polys, small_polys, st.sampled_from([-3, -2, -1, 1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_subst_is_ring_homomorphism(self, a, b, s):
        assert (a * b).subst_power(s) == a.subst_power(s) * b.subst_power(s)
        assert (a + b).subst_power(s) == a.subst_power(s) + b.subst_power(s)


class TestQuantumIntegers:
    def test_examples(self):
        assert quantum_int(2, 1) == LaurentPoly({1: 1, -1: 1})
        for s in (1, 2, 7):
            assert quantum_int(1, s) == ONE
            assert quantum_int(-1, s) == -ONE
            assert quantum_int(0, s) == ZERO
        assert quantum_int(3, 2) == LaurentPoly({4: 1, 0: 1, -4: 1})

    def test_subst_consistency(self):
        for n in range(1, 21):
            for s in range(1, 11):
                assert quantum_int(n, s) == quantum_int(n, 1).subst_power(s)

    def test_at_one(self):
        for n in range(-5, 9):
            assert quantum_int(n, 3).at_one() == n

    def test_power_product_identity(self):
        # [a^b]_c = prod_{i=1}^{b} [a]_{c a^{i-1}}
        for a in range(2, 6):
            for b in range(1, 4):
                for c in range(1, 5):
                    prod = ONE
                    for i in range(1, b + 1):
                        prod = prod * quantum_int(a, c * a ** (i - 1))
                    assert prod == quantum_int(a**b, c)

    def test_s_is_checked_at_every_n(self):
        # n = 0 expands no bracket, so s is checked before the expansion
        for call in (
            lambda: quantum_int(1, 0),
            lambda: quantum_factorial(0, 0),
            lambda: quantum_factorial(1, 0),
            lambda: quantum_factorial(0, -1),
            lambda: quantum_binomial(0, 0, -1),
            lambda: quantum_binomial(3, 1, 0),
        ):
            with pytest.raises(ValueError, match="s must be a positive integer"):
                call()

    def test_factorial_and_binomial(self):
        assert quantum_factorial(2) == quantum_int(2)
        assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)
        for n in range(0, 7):
            assert quantum_binomial(n, 0) == ONE
            assert quantum_binomial(n, n) == ONE
        assert quantum_binomial(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
        with pytest.raises(ValueError):
            quantum_binomial(2, 3)
        # Pascal recurrence for Gaussian binomials
        for n in range(1, 7):
            for m in range(1, n):
                lhs = quantum_binomial(n, m)
                rhs = (
                    quantum_binomial(n - 1, m - 1) * LaurentPoly({n - m: 1})
                    + quantum_binomial(n - 1, m) * LaurentPoly({-m: 1})
                )
                assert lhs == rhs


class TestBracketProduct:
    def test_matches_the_product_of_quantum_ints(self):
        rng = random.Random(18)
        for _ in range(200):
            factors = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))]
            want = ONE
            for n, s in factors:
                want = want * quantum_int(n, s)
            assert bracket_product(factors) == want, factors
        assert bracket_product([(1, 5)]) == ONE
        assert bracket_product([]) == ONE

    def test_refuses_brackets_below_one(self):
        for n, s in ((0, 1), (-2, 1), (3, 0), (3, -1)):
            with pytest.raises(ValueError):
                bracket_product([(2, 1), (n, s)])
        with pytest.raises(ValueError):
            quantum_factorial(3, 0)


class TestCyclotomic:
    def test_small_table(self):
        assert cyclotomic(1) == LaurentPoly({1: 1, 0: -1})
        assert cyclotomic(2) == LaurentPoly({1: 1, 0: 1})
        assert cyclotomic(4) == LaurentPoly({2: 1, 0: 1})
        assert cyclotomic(6) == LaurentPoly({2: 1, 1: -1, 0: 1})

    def test_product_over_divisors(self):
        for m in range(1, 61):
            prod = ONE
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == LaurentPoly({m: 1, 0: -1})


class TestBrackets:
    def test_kss_examples(self):
        # {3}_1 = (v^3 - v^-3)/(v - v^-1) = [3]; at v=1 equals 3 for odd s
        assert kss_bracket(3, 1) == quantum_int(3)
        assert kss_bracket(1, 4) == ONE
        assert kss_bracket(3, 2).at_one() == 1
        for n in (1, 3, 5, 7):
            for s in range(1, 6):
                expected = n if s % 2 else 1
                assert kss_bracket(n, s).at_one() == expected
        with pytest.raises(ValueError):
            kss_bracket(2, 1)

    def test_su_examples(self):
        assert su_bracket(1) == ONE
        assert su_bracket(3) == LaurentPoly({2: 1, 0: -1, -2: 1})
        assert su_bracket(5).at_one() == 1
        with pytest.raises(ValueError):
            su_bracket(4)

    def test_kss_su_relation(self):
        # {p}_m = [p]^su at v -> v^m for even m
        for p in (1, 3, 5, 7, 9):
            for m in (2, 4, 6):
                assert kss_bracket(p, m) == su_bracket(p).subst_power(m)


class TestUnitsAndDivision:
    def test_normalize_unit_examples(self):
        unit, canon = normalize_unit(LaurentPoly({-1: -1, -3: -1}))
        assert unit == LaurentPoly({-3: -1}) and canon == LaurentPoly({2: 1, 0: 1})
        unit, canon = normalize_unit(quantum_int(2))
        assert unit == LaurentPoly({-1: 1}) and canon == LaurentPoly({2: 1, 0: 1})
        assert normalize_unit(LaurentPoly.const(5)) == (ONE, LaurentPoly.const(5))
        with pytest.raises(ValueError):
            normalize_unit(ZERO)

    @given(
        small_polys.filter(lambda p: not p.is_zero),
        st.integers(min_value=-4, max_value=4),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalize_unit_reconstructs(self, a, k, neg):
        a = a.shift(k) * (-1 if neg else 1)
        unit, canon = normalize_unit(a)
        assert unit * canon == a
        assert canon.min_exp == 0
        assert canon.coefficient(canon.max_exp) > 0

    def test_divide_exact(self):
        assert divide_exact(LaurentPoly({2: 1, -2: -1}), LaurentPoly({1: 1, -1: -1})) == quantum_int(2)
        assert divide_exact(LaurentPoly({1: 1, 0: 1}), LaurentPoly({1: 1, 0: -1})) is None
        assert divide_exact(ZERO, quantum_int(3)) == ZERO
        with pytest.raises(ZeroDivisionError):
            divide_exact(ONE, ZERO)
        # [6] = [3] * [2]_3: both factors divide exactly
        assert divide_exact(quantum_int(6), quantum_int(3)) == quantum_int(2, 3)
        assert divide_exact(quantum_int(6), quantum_int(2, 3)) == quantum_int(3)

    @given(small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_divide_exact_inverts_multiplication(self, a, b):
        b = b + ONE
        assume(not b.is_zero)  # b = -1 gives 0, which divides nothing
        assert divide_exact(a * b, b) == a

    @given(
        small_polys,
        st.integers(-6, 6),
        st.sampled_from([-6, -2, -1, 1, 3, 4]),
        st.integers(-6, 6),
        st.integers(-9, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_divide_exact_by_a_monomial(self, a, k, c, e, x):
        # the monomial path: exact division inverts the product, and a
        # coefficient that c does not divide leaves no quotient
        m = LaurentPoly({k: c})
        assert divide_exact(a * m, m) == a
        q = divide_exact(a, m)
        if q is None:
            assert any(y % c for y in a.terms.values())
        else:
            assert q * m == a
        if x % c:
            assert divide_exact(a * m + LaurentPoly({e: x}), m) is None

    def test_exact_quotient(self):
        # the quotient where it exists; ArithmeticError where it does not
        assert exact_quotient(quantum_int(6), quantum_int(3)) == quantum_int(2, 3)
        assert exact_quotient(ZERO, quantum_int(3)) == ZERO
        with pytest.raises(ArithmeticError):
            exact_quotient(LaurentPoly({1: 1, 0: 1}), LaurentPoly({1: 1, 0: -1}))
        with pytest.raises(ArithmeticError):
            exact_quotient(quantum_int(3), LaurentPoly.const(2))


class TestSubProduct:
    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_equals_difference_of_product(self, a, q, b):
        got = sub_product(a, q, b)
        assert got == a - q * b
        assert 0 not in got.terms.values()

    def test_cancels_to_zero(self):
        q = LaurentPoly({1: 2, -1: -1})
        assert sub_product(q * quantum_int(3), q, quantum_int(3)).is_zero


class TestRootOfUnityVanishing:
    def test_examples(self):
        assert vanishes_at_primitive_root(quantum_int(4), 4)
        assert not vanishes_at_primitive_root(quantum_int(3), 2)
        for m in (1, 2, 3, 12):
            assert not vanishes_at_primitive_root(ONE, m)

    def test_quantum_int_vanishing_rule(self):
        # [n]_s vanishes at a primitive ell-th root iff ell | 2ns and ell does not divide 2s
        for n in range(1, 8):
            for s in range(1, 5):
                for ell in range(1, 15):
                    expected = (2 * n * s) % ell == 0 and (2 * s) % ell != 0
                    assert vanishes_at_primitive_root(quantum_int(n, s), ell) == expected

    def test_zero_vanishes_and_the_index_is_checked(self):
        assert vanishes_at_primitive_root(ZERO, 5)
        with pytest.raises(ValueError):
            vanishes_at_primitive_root(ONE, 0)

    def test_periodicity_in_s_mod_ell(self):
        # v^ell = 1 mod Phi_ell, so [n]_{s+ell} and [n]_s agree there; this
        # justifies bounding the exact irreducibility scan by s <= ell
        for ell in (2, 3, 4, 5, 6):
            for n in (2, 3, 4):
                for s in range(1, ell + 1):
                    a = quantum_int(n, s).shift(n * s)
                    b = quantum_int(n, s + ell).shift(n * (s + ell))
                    assert divide_exact(a - b, cyclotomic(ell)) is not None

    def test_vanishing_is_a_zero_long_division_remainder(self):
        # v^m = 1 modulo Phi_m, so shifting every exponent by a multiple of m
        # keeps the residue; after the shift a is a polynomial, whose
        # remainder under long division by the monic Phi_m is zero exactly
        # when a vanishes at a primitive m-th root of unity
        rng = random.Random(30)
        for _ in range(600):
            m = rng.randint(1, 30)
            a = LaurentPoly(
                {rng.randint(-80, 80): rng.randint(-20, 20) for _ in range(rng.randint(0, 10))}
            )
            for b in (a, a * cyclotomic(m)):  # the product vanishes
                want = b.is_zero or _long_division_remainder(b, m).is_zero
                assert vanishes_at_primitive_root(b, m) == want, (b, m)


def _long_division_remainder(a, m):
    shift = -(a.min_exp // m) * m if a.min_exp < 0 else 0
    rem = [0] * (a.max_exp + shift + 1)
    for e, c in a.terms.items():
        rem[e + shift] = c
    phi = cyclotomic(m).terms
    deg = max(phi)
    while len(rem) > deg:
        c = rem.pop()  # Phi_m is monic: the quotient term is c v^(len(rem) - deg)
        for e, cp in phi.items():
            if e < deg:
                rem[len(rem) - deg + e] -= c * cp
    return LaurentPoly(dict(enumerate(rem)))


def _qproduct(pairs):
    qp = QProduct()
    for n, k, power in pairs:
        qp.mul_bracket(n, k, power)
    return qp


def _brackets(pairs):
    return bracket_product((n, k) for n, k, power in pairs for _ in range(power))


def _random_pairs(rng):
    return [(rng.randint(1, 9), rng.randint(1, 5), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))]


def _rewritten(rng, pairs):
    # the same product: [ab]_k = [a]_{bk} [b]_k splits a bracket, and the
    # factors are shuffled
    out = []
    for n, k, power in pairs:
        splits = [(a, n // a) for a in range(2, n) if n % a == 0 and n // a * k <= 5]
        if splits:
            a, b = rng.choice(splits)
            out += [(a, b * k, power), (b, k, power)]
        else:
            out.append((n, k, power))
    rng.shuffle(out)
    return out


def _perturbed(rng, pairs):
    # a near miss: one power up or down, or one bracket moved to another k
    pairs = list(pairs) or [(2, 1, 1)]
    i = rng.randrange(len(pairs))
    n, k, power = pairs[i]
    pairs[i] = rng.choice([(n, k, power + 1), (n, k, power - 1), (n, k % 5 + 1, power)])
    return pairs


class TestQProduct:
    def test_matches_expansion(self):
        # v^vshift prod_N (v^N - 1)^f_N is the product: its factors with
        # f_N < 0 moved to the other side, both sides expanded exactly
        pairs = [(4, 1, 2), (3, 2, 1), (2, 5, 3)]
        qp = _qproduct(pairs)
        direct = quantum_int(4) ** 2 * quantum_int(3, 2) * quantum_int(2, 5) ** 3
        assert _brackets(pairs) == direct
        lhs, rhs = LaurentPoly({qp.vshift: 1}), direct
        for n, f in qp.factors.items():
            if f > 0:
                lhs = lhs * LaurentPoly({n: 1, 0: -1}) ** f
            else:
                rhs = rhs * LaurentPoly({n: 1, 0: -1}) ** -f
        assert lhs == rhs

    def test_detects_distinct_products(self):
        a = QProduct().mul_bracket(2, 1, 2)
        b = QProduct().mul_bracket(4, 1, 1)
        assert a != b

    def test_bracket_factorizations_agree(self):
        assert QProduct().mul_bracket(6, 1) == QProduct().mul_bracket(2, 3).mul_bracket(3, 1)

    def test_trivial_factors_and_bad_input(self):
        # [1]_k and a zeroth power change nothing; n, k < 1 or a negative
        # power is refused, [1]_0 included
        assert QProduct().mul_bracket(1, 4, 3).mul_bracket(5, 2, 0) == QProduct()
        for n, k, power in [(1, 0, 1), (0, 1, 1), (2, 0, 1), (2, 1, -1)]:
            with pytest.raises(ValueError):
                QProduct().mul_bracket(n, k, power)

    def test_equal_exactly_when_the_expansions_are(self):
        # random bracket products with powers (n <= 9, k <= 5), each against
        # an independent product, a rewriting of itself or a near miss of one
        rng = random.Random(20261019)
        outcomes = []
        for _ in range(600):
            a = _random_pairs(rng)
            b = rng.choice([lambda: _random_pairs(rng), lambda: _rewritten(rng, a),
                            lambda: _perturbed(rng, _rewritten(rng, a))])()
            same = _brackets(a) == _brackets(b)
            assert (_qproduct(a) == _qproduct(b)) == same, (a, b)
            outcomes.append(same)
        assert 150 < sum(outcomes) < 450


V = LaurentPoly({1: 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ZERO.min_exp, "zero polynomial has no exponents"),
        (lambda: ZERO.max_exp, "zero polynomial has no exponents"),
        (lambda: V**-1, "negative powers are not defined in Z[v,v^-1]"),
        (lambda: quantum_factorial(-1), "quantum factorial needs n >= 0"),
        (lambda: quantum_binomial(3, -1), "binomial needs m >= 0"),
        (lambda: kss_bracket(3, 0), "s must be a positive integer"),
    ],
    ids=["min_exp", "max_exp", "negative-power", "factorial", "binomial", "kss"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_integers_mix_with_polynomials():
    # an int operand is the constant polynomial, on either side
    assert V + 1 == 1 + V == LaurentPoly({1: 1, 0: 1})
    assert V - 1 == LaurentPoly({1: 1, 0: -1})
    with pytest.raises(TypeError):
        ONE + "a"
