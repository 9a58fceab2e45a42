import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcartan import snf
from gcartan.gram import cartan_graded, gram_det_at_one, gram_matrix
from gcartan.invariants import hill_values
from gcartan.linalg import int_det, laurent_det
from gcartan.partitions import is_prime, p_adic_split, prime_divisors
from gcartan.qcartan import DynkinDiagram, type_a
from gcartan.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    cyclotomic,
    divide_exact,
    normalize_unit,
    quantum_int,
    sub_product,
)
from gcartan.snf import (
    RING_QLAURENT,
    RING_ZINT,
    RING_ZLAURENT,
    InvariantMultiset,
    _snf_int_dense,
    canonical_poly,
    multiset_equal_up_to_units,
    snf_int,
    snf_int_certified,
    snf_int_diagonal,
    snf_laurent_field,
    snf_of_diagonal,
    try_diagonalize_zlaurent,
)


def random_int_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def random_laurent_matrix(rng, n):
    def poly():
        return LaurentPoly(
            {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
        )

    return [[poly() for _ in range(n)] for _ in range(n)]


# zeros, units and shared cyclotomic factors, so that gcds are nontrivial and
# values repeat; plus small arbitrary polynomials
DIAGONAL_ENTRIES = st.one_of(
    st.sampled_from(
        [
            ZERO,
            ONE,
            LaurentPoly({3: -2}),
            quantum_int(2),
            quantum_int(3),
            quantum_int(2) * quantum_int(2),
            quantum_int(2) * quantum_int(3) * 3,
            quantum_int(2, 2),
            quantum_int(4),
        ]
    ),
    st.dictionaries(st.integers(-2, 2), st.integers(-4, 4), max_size=3).map(LaurentPoly),
)


@st.composite
def _quantum_product(draw):
    """Zero, or a unit of Q[v,v^-1] (c v^k) times up to three [n]_s."""
    if draw(st.integers(0, 5)) == 0:
        return ZERO
    p = LaurentPoly({draw(st.integers(-3, 3)): draw(st.sampled_from([1, -1, 2, -3]))})
    for n, s in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=3)):
        p = p * quantum_int(n, s)
    return p


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _unimodular_times_diagonal(draw, primes=(2, 3, 5), top=12):
    """(U D V, |det|) with D a diagonal of products of powers (at most top)
    of the primes and U, V products of elementary integer row and column
    additions."""
    n = draw(st.integers(1, 6))
    exps = st.integers(0, top)
    diag = [math.prod(p ** draw(exps) for p in primes) for _ in range(n)]
    m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    idx = st.integers(0, n - 1)
    ops = draw(st.lists(st.tuples(idx, idx, st.integers(-3, 3), st.booleans()), max_size=3 * n))
    for i, j, c, on_rows in ops:
        if i == j:
            continue
        if on_rows:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    det = 1
    for x in diag:
        det *= x
    return m, det


@st.composite
def _often_singular(draw, entries, zero, max_rows=4):
    """Square matrices of 1..max_rows rows whose rows may be zeroed or
    replaced by a multiple of an earlier row, so many are singular."""
    n = draw(st.integers(1, max_rows))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "multiple"]))
        if kind == "zero":
            m[i] = [zero] * n
        elif kind == "multiple" and i:
            c = draw(entries)
            m[i] = [c * x for x in m[draw(st.integers(0, i - 1))]]
    return m


def _determinantal_divisors(m):
    """gcd of all k x k minors by integer Bareiss (int_det), k = 1..n."""
    n = len(m)
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, int_det([[m[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


def _det_ideal_gcds(m):
    """gcd over Q[v,v^-1] of all k x k minors (laurent_det), k = 1..n, each
    primitive with lowest exponent 0, or ZERO."""
    from gcartan.snf import _poly_gcd

    n = len(m)
    out = []
    for k in range(1, n + 1):
        g = ZERO
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = _poly_gcd(g, laurent_det([[m[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


class TestSnfInt:
    def test_examples(self):
        assert snf_int([[1, 0], [0, 1]]).elements == (1, 1)
        assert snf_int([[3, 4], [4, 8]]).elements == (1, 8)
        assert snf_int([[2, 0], [0, 6]]).elements == (2, 6)

    def test_non_integer_entries_are_refused(self):
        # int() would truncate them: det [[2.9, 1], [1, 2]] is 4.8, not 3
        for bad in ([[2.9, 1], [1, 2]], [[Fraction(3, 2)]], [[True, 0], [0, 1]]):
            with pytest.raises(TypeError, match="not an integer entry"):
                int_det(bad)
        for bad in ([[2.5, 0], [0, 0]], [[Fraction(1, 2)]], [[0, False], [1, 1]]):
            with pytest.raises(TypeError, match="not an integer entry"):
                snf_int(bad)
            with pytest.raises(TypeError, match="not an integer entry"):
                _snf_int_dense(bad)

    def test_chain_and_product(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n)
            inv = snf_int(m).elements
            for a, b in zip(inv, inv[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0
            prod = 1
            for x in inv:
                prod *= x
            assert prod == abs(int_det(m))

    def test_diagonal_shortcut(self):
        rng = random.Random(5)
        for _ in range(60):
            vals = [rng.randint(0, 40) for _ in range(rng.randint(1, 6))]
            n = len(vals)
            full = _snf_int_dense([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])
            assert snf_int_diagonal(vals).elements == full.elements

    def test_certified_matches_general(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            while True:
                m = random_int_matrix(rng, n)
                d = int_det(m)
                if d:
                    break
            assert snf_int_certified(m, abs(d)).elements == _snf_int_dense(m).elements

    def test_certified_rejects_wrong_det(self):
        with pytest.raises(AssertionError):
            snf_int_certified([[2, 0], [0, 2]], 8)

    def test_certified_factors_primes_beyond_trial_bound(self):
        # a prime above 10^5 must not be mistaken for a cofactor to skip
        p = 100003
        assert snf_int_certified([[p, 0], [0, p]], p * p).elements == (p, p)
        assert snf_int_certified([[2 * p, 0], [0, p]], 2 * p * p).elements == (p, 2 * p)

    def test_small_primorial_is_certified(self):
        # snf._SMALL_PRIMORIAL is a literal, so that import does no primality
        # work: it is the product of the 172 primes below 2^10
        primes = list(filter(is_prime, range(1 << 10)))
        assert len(primes) == 172
        assert snf._SMALL_PRIMORIAL == math.prod(primes)
        assert snf._SMALL_PRIMORIAL.bit_length() == 1420

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_matches_general_property(self, vals):
        n = len(vals)
        dense = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
        got = snf_int_diagonal(vals).elements
        assert got == _snf_int_dense(dense).elements
        if all(vals):
            # the local method shares no code with the gcd/lcm chain
            prod = 1
            for v in vals:
                prod *= abs(v)
            assert got == snf_int_certified(dense, prod).elements

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_certified_matches_general_property(self, m):
        d = int_det(m)
        assume(d != 0)
        assert snf_int_certified(m, abs(d)).elements == _snf_int_dense(m).elements

    @given(_often_singular(st.integers(-9, 9), 0))
    @settings(max_examples=80, deadline=None)
    def test_matches_determinantal_divisors_property(self, m):
        # d_k = D_k / D_(k-1), D_k the gcd of the k x k minors, and 0 once
        # D_k is 0; singular matrices and zero rows included
        divisors = [1] + _determinantal_divisors(m)
        want = tuple(b // a if b else 0 for a, b in zip(divisors, divisors[1:]))
        assert snf_int(m).elements == want
        assert _snf_int_dense(m).elements == want

    def test_dense_loop_only_for_singular_input(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("a nonsingular matrix reached the dense loop")

        monkeypatch.setattr(snf, "_snf_int_dense", refuse)
        assert snf_int([[3, 4], [4, 8]]).elements == (1, 8)
        assert snf_int(cartan_graded(3, 4).at_one()).elements == snf_int_diagonal(
            hill_values(3, 1, 4)
        ).elements
        with pytest.raises(AssertionError, match="dense loop"):
            snf_int([[2, 4], [1, 2]])

    @pytest.mark.parametrize(
        "m", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]],
        ids=["2x3", "3x2", "ragged"],
    )
    def test_certified_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="matrix must be square"):
            snf_int_certified(m, 3)

    def test_certified_rejects_singular_matrix(self):
        # a singular matrix with a positive det_abs must raise, not retry
        # forever; the rank pass catches these two
        with pytest.raises(ArithmeticError):
            snf_int_certified([[2, 0], [0, 0]], 2)
        with pytest.raises(ArithmeticError):
            snf_int_certified([[1, 2], [2, 4]], 4)
        # nonsingular mod 3, but the invariant 4 needs 3 digits at p=2 and
        # det_abs = 2 caps the precision at 2: it fails at the cap
        with pytest.raises(ArithmeticError, match="more than 2 digits"):
            snf_int_certified([[2, 0], [0, 4]], 2)

    @pytest.mark.parametrize("m", [[[0]], [[1, 1], [1, 1]]])
    def test_certified_rejects_singular_matrix_with_unit_det(self, m):
        # det_abs = 1 has no prime to work at, so only the rank pass at q=2
        # sees that these are singular; without it they came out (1,) and (1, 1)
        with pytest.raises(ArithmeticError, match="singular mod 2"):
            snf_int_certified(m, 1)

    @pytest.mark.parametrize(
        "diag, u, v",
        [
            ([1, 3, 3**40], [[1, 2, 3], [0, 1, 4], [0, 0, 1]], [[1, 0, 0], [5, 1, 0], [-2, 3, 1]]),
            ([2, 2**70], [[2, 1], [1, 1]], [[3, -2], [-1, 1]]),
        ],
    )
    def test_certified_retries_beyond_first_precision(self, monkeypatch, diag, u, v):
        # the largest local invariant needs more digits than the first try
        n = len(diag)
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        m = _matmul(_matmul(u, d), v)
        det = 1
        for x in diag:
            det *= x
        (p,) = prime_divisors(det)
        cap = p_adic_split(det, p)[1] + 1
        tries = []
        local = snf._local_valuations

        def record(matrix, q, digits):
            got = local(matrix, q, digits)
            if q == p:  # not the rank pass, which runs at a prime not dividing det
                tries.append((digits, got is None))
            return got

        monkeypatch.setattr(snf, "_local_valuations", record)
        assert snf_int_certified(m, det).elements == _snf_int_dense(m).elements
        assert tries[0][1], "the first precision already sufficed"
        assert tries[-1][0] <= cap and not tries[-1][1]

    @pytest.mark.parametrize("case", ["cartan 3,8", "synthetic"])
    def test_certified_makes_one_pass_per_modulus(self, monkeypatch, case):
        # the first try takes the most digits that keep the slot width of
        # min(8, cap) digits: at (3,8) 17 digits at p=3, where 8 digits fall
        # short of the largest valuation; in the synthetic case 15 digits at
        # p=2 (4-byte slots on 3 rows) cover the valuation 12
        if case == "synthetic":
            u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
            v = [[1, 0, 0], [4, 1, 0], [-3, 2, 1]]
            m = _matmul(_matmul(u, [[1, 0, 0], [0, 8, 0], [0, 0, 2**12 * 5]]), v)
            det = 2**15 * 5
            want = (1, 8, 2**12 * 5)
        else:
            m = cartan_graded(3, 8).at_one()
            det = abs(gram_det_at_one(type_a(3), 8))
            want = snf_int_diagonal(hill_values(3, 1, 8)).elements
        passes = []
        local = snf._local_valuations

        def record(matrix, p, digits):
            got = local(matrix, p, digits)
            passes.append((p, digits, got))
            return got

        monkeypatch.setattr(snf, "_local_valuations", record)
        assert snf_int_certified(m, det).elements == want
        rank, *local_passes = passes
        assert det % rank[0] and rank[1] == 1
        moduli = [p for p, _, _ in local_passes]
        assert len(moduli) == len(set(moduli)) and all(det % p == 0 for p in moduli)
        assert all(got is not None for _, _, got in local_passes)
        if case == "synthetic":
            # the modulus 10 = 2 * 5 is split where the elimination meets 2
            assert [(p, k) for p, k, _ in local_passes] == [(10, 2), (2, 15), (5, 2)]
        else:
            assert [(p, k) for p, k, _ in local_passes] == [(3, 17)]

    @given(_unimodular_times_diagonal())
    @settings(max_examples=60, deadline=None)
    def test_certified_matches_general_on_smooth_diagonals(self, case):
        m, det = case
        assert snf_int_certified(m, det).elements == _snf_int_dense(m).elements

    @given(_unimodular_times_diagonal((2, 1031, 1033), 3))
    @settings(max_examples=60, deadline=None)
    def test_certified_splits_unfactored_moduli(self, case):
        # 1031 and 1033 lie above 2^10, so they stay in the unfactored part
        # of det_abs, which is split where the elimination meets a proper
        # factor of a modulus
        m, det = case
        assert snf_int_certified(m, det).elements == _snf_int_dense(m).elements

    def test_large_prime_factors_are_not_factored(self, monkeypatch):
        # the last |det| is 2 * 13 * 47 * 67 * 4310719579914596281, a prime
        # that trial division would take hours to find: the local engine
        # takes it whole as a modulus
        moduli = set()
        local = snf._local_valuations

        def record(matrix, p, digits):
            moduli.add(p)
            return local(matrix, p, digits)

        monkeypatch.setattr(snf, "_local_valuations", record)
        rng = random.Random(1)
        for n, hi in [(4, 100), (5, 1000), (6, 1000), (6, 10**4)]:
            m = random_int_matrix(rng, n, -hi, hi)
            assert snf_int(m).elements == _snf_int_dense(m).elements
        assert abs(int_det(m)) == 2 * 13 * 47 * 67 * 4310719579914596281
        assert 4310719579914596281 in moduli

    def test_certified_matches_general_on_cartan_matrix(self):
        m = cartan_graded(4, 3).at_one()
        det = abs(int_det(m))
        assert snf_int_certified(m, det).elements == _snf_int_dense(m).elements

    def test_certified_with_slots_wider_than_eight_bytes(self, monkeypatch):
        # 2^40 + 15 is prime: at that modulus the slot bound p^k + n (p^k - 1)^2
        # needs more than 8 bytes, so those rows take the per-entry route,
        # while the rank pass and the modulus 6 use array-packed slots
        p = 2**40 + 15
        widths = set()
        pack = snf._pack

        def record(row, width):
            widths.add(width)
            return pack(row, width)

        monkeypatch.setattr(snf, "_pack", record)
        u = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
        v = [[1, 0, 0], [4, 1, 0], [-3, 2, 1]]
        m = _matmul(_matmul(u, [[1, 0, 0], [0, p, 0], [0, 0, 6 * p * p]]), v)
        assert snf_int_certified(m, 6 * p**3).elements == (1, p, 6 * p * p)
        assert snf_int_certified(m, 6 * p**3).elements == _snf_int_dense(m).elements
        assert max(widths) > 8 and min(widths) <= 8


class TestPackedRows:
    @pytest.mark.parametrize("width", [1, 2, 4, 8, 3, 9, 16])
    def test_round_trip(self, width):
        # 1, 2, 4 and 8 bytes go through array, 3, 9 and 16 entry by entry
        top = (1 << (8 * width)) - 1
        row = [0, top, 1, top - 1, top >> 1, 0]
        packed = snf._pack(row, width)
        assert packed == sum(x << (8 * width * k) for k, x in enumerate(row))
        assert snf._unpack(packed, width, len(row)) == row

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
    def test_entry_too_wide_for_its_slot(self, width):
        with pytest.raises(OverflowError):
            snf._pack([1, 1 << (8 * width)], width)

    @pytest.mark.parametrize(
        "bound, width",
        [(0, 1), (255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4), (2**24, 4),
         (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8), (2**64, 9), (2**72, 10)],
    )
    def test_slot_width(self, bound, width):
        assert snf._slot_width(bound) == width


def _diagonal_divisors(vals):
    """D_k of diag(vals) over Q[v,v^-1], k = 1..n: the gcd of the nonzero
    k x k minors, which are the products of the k-subsets of vals."""
    from gcartan.snf import _poly_gcd

    out = []
    for k in range(1, len(vals) + 1):
        g = ZERO
        for sub in combinations(vals, k):
            p = ONE
            for x in sub:
                p = p * x
            if not p.is_zero:
                g = _poly_gcd(g, p)
        out.append(g)
    return out


def _assert_divisor_ratios(inv, divisors):
    """inv are the ratios D_k / D_(k-1) (D_0 = 1), up to units; zero where
    D_k is zero."""
    assert len(inv) == len(divisors)
    prev = ONE
    for x, d in zip(inv, divisors):
        if d.is_zero:
            assert x.is_zero
            continue
        q = divide_exact(d, prev)
        assert q is not None
        assert x == canonical_poly(q, primitive=True)
        prev = d


class TestSnfLaurentField:
    def test_one_by_one(self):
        ms = snf_laurent_field([[quantum_int(2)]])
        assert ms.elements == (LaurentPoly({2: 1, 0: 1}),)

    def test_diagonal_chain(self):
        f = quantum_int(2)
        g = quantum_int(2) * quantum_int(3)
        ms = snf_laurent_field([[f, ZERO], [ZERO, g]])
        assert multiset_equal_up_to_units(ms, InvariantMultiset.polys([f, g], RING_QLAURENT))

    def test_c22(self):
        # gcd of the entries of C^v_{2,2} is 1, so its field invariants are
        # {1, [2]^2 [2]_2}
        c = gram_matrix(DynkinDiagram("A", 1), 2).entries
        ms = snf_laurent_field(c)
        want = [ONE, quantum_int(2) ** 2 * quantum_int(2, 2)]
        assert multiset_equal_up_to_units(ms, InvariantMultiset.polys(want, RING_QLAURENT))

    def test_product_matches_det_up_to_unit(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            n = rng.randint(1, 4)
            m = random_laurent_matrix(rng, n)
            d = laurent_det(m)
            if d.is_zero:
                continue
            done += 1
            inv = snf_laurent_field(m).elements
            prod = ONE
            for x in inv:
                prod = prod * x
            lhs = normalize_unit(prod)[1]
            rhs = canonical_poly(d, primitive=True)
            g = canonical_poly(lhs, primitive=True)
            assert g == rhs

    def test_divisibility_chain(self):
        from gcartan.snf import _poly_gcd

        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = random_laurent_matrix(rng, n)
            inv = snf_laurent_field(m).elements
            for a, b in zip(inv, inv[1:]):
                if a.is_zero:
                    assert b.is_zero
                elif not b.is_zero:
                    # a | b over Q[v,v^-1] iff gcd(a, b) is a up to units
                    assert _poly_gcd(a, b) == canonical_poly(a, primitive=True)

    def test_snf_of_diagonal_reorders(self):
        vals = [quantum_int(3), ONE, quantum_int(2)]
        ms = snf_of_diagonal(vals)
        assert ms.elements[0] == ONE  # gcd is 1

    @given(st.lists(DIAGONAL_ENTRIES, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_snf_of_diagonal_matches_dense_property(self, vals):
        # the reference is the determinantal divisors of the diagonal, not a
        # second Smith form: snf_laurent_field finishes on snf_of_diagonal
        _assert_divisor_ratios(snf_of_diagonal(vals).elements, _diagonal_divisors(vals))

    @given(
        st.lists(_quantum_product(), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_snf_of_diagonal_matches_dense_on_quantum_products(self, vals):
        # values drawn with repeats from a few products of [n]_s, which share
        # cyclotomic factors, so the coprime base has to split and regroup them
        _assert_divisor_ratios(snf_of_diagonal(vals).elements, _diagonal_divisors(vals))


# factors of a diagonal entry: zero, units of Q[v,v^-1] (+-v^k, +-n),
# quantum integers and cyclotomics, which share factors with one another
_FACTORS = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda k, c: LaurentPoly({k: c}), st.integers(-3, 3), st.sampled_from([1, -1, 2, -3])
    ),
    st.builds(quantum_int, st.integers(1, 6), st.integers(1, 3)),
    st.builds(cyclotomic, st.integers(1, 12)),
)


class TestFactoredDiagonal:
    """snf_of_diagonal on entries given as tuples of factors: the Smith form
    of the diagonal of their products."""

    @given(
        st.lists(_FACTORS, min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(
                st.lists(st.sampled_from(pool), max_size=4).map(tuple), min_size=1, max_size=6
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_factored_equals_expanded(self, entries, plain_one_tuples):
        # entries drawn with repeats from a small pool, so factors repeat
        # within an entry and across entries; some 1-tuples as plain values
        expanded = [math.prod(fs, start=ONE) for fs in entries]
        factored = [
            fs[0] if plain_one_tuples and len(fs) == 1 else fs for fs in entries
        ]
        assert snf_of_diagonal(factored) == snf_of_diagonal(expanded)

    def test_empty_and_zero_tuples(self):
        q2 = quantum_int(2)
        got = snf_of_diagonal([(), (q2, ZERO), (q2, q2), (LaurentPoly({2: -3}),)])
        assert got == snf_of_diagonal([ONE, ZERO, q2 * q2, ONE])
        assert got.elements == (ONE, ONE, canonical_poly(q2 * q2, primitive=True), ZERO)


class TestTryDiagonalize:
    def test_already_diagonal(self):
        m = [[quantum_int(2), ZERO], [ZERO, quantum_int(4)]]
        res = try_diagonalize_zlaurent(m)
        assert res.success
        assert multiset_equal_up_to_units(
            res.diagonal, InvariantMultiset.polys([quantum_int(2), quantum_int(4)], RING_ZLAURENT)
        )

    def test_one_by_one(self):
        res = try_diagonalize_zlaurent([[quantum_int(2)]])
        assert res.success and res.diagonal.elements == (LaurentPoly({2: 1, 0: 1}),)
        assert res.stopped == "cleared"

    def test_c22_reduces_to_conjectured_invariants(self):
        c = gram_matrix(DynkinDiagram("A", 1), 2).entries
        res = try_diagonalize_zlaurent(c)
        assert res.success
        want = InvariantMultiset.polys([ONE, quantum_int(2) * quantum_int(4)], RING_ZLAURENT)
        assert multiset_equal_up_to_units(res.diagonal, want)

    @pytest.mark.parametrize(
        "matrix, diag, message",
        [
            # 1 + v is no unit over Q[v,v^-1]
            ([[LaurentPoly({0: 1, 1: 1}), ZERO], [ZERO, ONE]], [ONE, ONE], "field-ring"),
            # 2 is a unit over Q[v,v^-1] but not over Z
            ([[LaurentPoly.const(2)]], [ONE], "v=1"),
        ],
        ids=["field-ring", "at-one"],
    )
    def test_success_sanity_refuses_a_wrong_diagonal(self, matrix, diag, message):
        with pytest.raises(AssertionError, match=f"diagonalization changed the {message} invariants"):
            snf._success_sanity(matrix, diag)

    def test_success_sanity_compares_with_given_field_invariants(self):
        # the caller's field-ring invariants stand in for the elimination
        m = [[quantum_int(2), ZERO], [ZERO, quantum_int(3)]]
        diag = [quantum_int(2), quantum_int(3)]
        snf._success_sanity(m, diag, snf_laurent_field(m))
        other = snf_of_diagonal([ONE, quantum_int(2) * quantum_int(3) * quantum_int(5)])
        with pytest.raises(AssertionError, match="diagonalization changed the field-ring invariants"):
            snf._success_sanity(m, diag, other)
        with pytest.raises(AssertionError, match="diagonalization changed the field-ring invariants"):
            try_diagonalize_zlaurent(m, field_invariants=other)

    def test_budget_exhaustion_is_inconclusive(self):
        c = cartan_graded(3, 2).entries
        res = try_diagonalize_zlaurent(c, budget=1)
        assert not res.success and res.diagonal is None
        assert res.stopped == "budget"

    def test_stops_at_first_stall(self):
        # no elementary step clears C^v_{3,3} greedily; the reducer must say
        # so at once instead of spending its budget
        res = try_diagonalize_zlaurent(cartan_graded(3, 3).entries)
        assert not res.success and res.stopped == "stalled"
        assert res.steps < 100

    def test_sanity_checks_run_on_success(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = random_laurent_matrix(rng, n)
            # symmetrize to look like a Gram matrix; success is not required,
            # but any success must pass the automatic cross-checks
            for i in range(n):
                for j in range(i + 1, n):
                    m[j][i] = m[i][j]
            try_diagonalize_zlaurent(m, budget=2000)


# The quotient code as it was before its long divisions ran in the
# dividend's own exponents, kept as independent references: the packed
# engine finds its quotients on packed integers (snf._Slots.quotient), and
# its reference (_reduce_zlaurent) builds them from these, so that it shares
# no quotient code with it.


def _divide_exact_reference(a, b):
    """qlaurent.divide_exact with a and b shifted to lowest exponent 0 and
    the quotient shifted back."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    if len(b.terms) == 1:
        ((k, c),) = b.terms.items()
        t = {}
        for e, x in a.terms.items():
            y, rem = divmod(x, c)
            if rem:
                return None
            t[e - k] = y
        return LaurentPoly(t)
    shift = a.min_exp - b.min_exp
    ra = a.shift(-a.min_exp).terms
    rb = b.shift(-b.min_exp).terms
    db = max(rb)
    lead_b = rb[db]
    q = {}
    r = ra
    while r:
        dr = max(r)
        if dr < db:
            return None
        c, rem = divmod(r[dr], lead_b)
        if rem:
            return None
        q[dr - db] = c
        for e, cb in rb.items():
            ee = e + dr - db
            s = r.get(ee, 0) - c * cb
            if s:
                r[ee] = s
            else:
                r.pop(ee, None)
    return LaurentPoly(q).shift(shift)


def _pseudo_divmod_reference(a, b):
    """snf._pseudo_divmod with a and b shifted to lowest exponent 0, and the
    quotient and remainder shifted back."""
    if b.is_zero:
        raise ZeroDivisionError
    if a.is_zero:
        return ZERO, ZERO, 1
    sa, sb = a.min_exp, b.min_exp
    ra = a.shift(-sa).terms
    db = b.max_exp - sb
    rb = b.shift(-sb).terms
    lead = rb[db]
    q = {}
    scale = 1
    while ra:
        da = max(ra)
        if da < db:
            break
        c = ra[da]
        if c % lead:
            scale *= lead
            ra = {e: x * lead for e, x in ra.items()}
            q = {e: x * lead for e, x in q.items()}
            c *= lead
        f = c // lead
        q[da - db] = q.get(da - db, 0) + f
        for e, cb in rb.items():
            ee = e + da - db
            s = ra.get(ee, 0) - f * cb
            if s:
                ra[ee] = s
            else:
                ra.pop(ee, None)
    return LaurentPoly(q).shift(sa - sb), LaurentPoly(ra).shift(sa), scale


def _end_quotient_reference(e, piv):
    """snf._end_quotient reading the pivot's ends and keying e afresh at
    every step."""
    q = {}
    guard = 0
    while not e.is_zero and guard < 256:
        guard += 1
        te, tp = e.terms, piv.terms
        hi_e, hi_p = max(te), max(tp)
        lo_e, lo_p = min(te), min(tp)
        if hi_e - lo_e < hi_p - lo_p:
            break
        for k, c in ((hi_e - hi_p, te[hi_e] // tp[hi_p]), (lo_e - lo_p, te[lo_e] // tp[lo_p])):
            if c:
                nxt = e - piv.shift(k) * c
                if nxt.is_zero or snf._complexity(nxt) < snf._complexity(e):
                    break
        else:
            break
        e = nxt
        q[k] = q.get(k, 0) + c
    return LaurentPoly(q)


# at 64-bit slots 2v + 1 divides v^4 + 2^61 as integers, but not as
# polynomials
_INTEGER_ONLY_DIVIDEND = LaurentPoly({4: 1, 0: 2**61})
_INTEGER_ONLY_DIVISOR = LaurentPoly({1: 2, 0: 1})

_NONZERO_COEFFICIENTS = st.integers(-9, 9).filter(bool)
# negative exponents, and leading coefficients that are not 1 and may be
# negative; a monomial about one time in three
_NONZERO_POLYS = st.one_of(
    st.builds(lambda k, c: LaurentPoly({k: c}), st.integers(-6, 6), _NONZERO_COEFFICIENTS),
    st.dictionaries(st.integers(-6, 6), _NONZERO_COEFFICIENTS, min_size=1, max_size=5).map(
        LaurentPoly
    ),
    st.dictionaries(st.integers(-4, 4), _NONZERO_COEFFICIENTS, min_size=2, max_size=4).map(
        LaurentPoly
    ),
)


@st.composite
def _division_pairs(draw):
    """(a, b) with b nonzero and a zero, any polynomial, a multiple of b, or
    a multiple of b plus one term, so that exact and inexact divisions are
    both common."""
    b = draw(_NONZERO_POLYS)
    kind = draw(st.sampled_from(["zero", "any", "multiple", "perturbed"]))
    if kind == "zero":
        return ZERO, b
    if kind == "any":
        return draw(_NONZERO_POLYS), b
    a = draw(_NONZERO_POLYS) * b
    if kind == "perturbed":
        a = a + LaurentPoly({draw(st.integers(-12, 12)): draw(_NONZERO_COEFFICIENTS)})
    return a, b


class TestQuotientsAgainstReferences:
    """divide_exact, _pseudo_divmod, _end_quotient and _reducing_quotient
    against the references above, which shift every operand to lowest
    exponent 0."""

    @given(_division_pairs())
    @settings(max_examples=400, deadline=None)
    def test_divide_exact(self, pair):
        a, b = pair
        before = a.terms
        got = divide_exact(a, b)
        assert got == _divide_exact_reference(a, b)
        assert a.terms == before  # the dividend is not consumed
        if got is not None:
            assert got * b == a and 0 not in got.terms.values()

    @given(_division_pairs())
    @settings(max_examples=400, deadline=None)
    def test_pseudo_divmod(self, pair):
        a, b = pair
        before = a.terms
        got = snf._pseudo_divmod(a, b)
        assert got == _pseudo_divmod_reference(a, b)
        assert a.terms == before
        for part in got[:2]:
            assert 0 not in part.terms.values()

    @given(_division_pairs())
    @settings(max_examples=400, deadline=None)
    def test_pseudo_divmod_contract(self, pair):
        # scale * a = q * b + r, with r zero or of smaller span than b, and
        # scale a power of b's leading coefficient: one factor at most per
        # quotient term, of which there are at most span(a) + 1
        a, b = pair
        q, r, scale = snf._pseudo_divmod(a, b)
        assert a * scale == q * b + r
        assert r.is_zero or snf._span(r) < snf._span(b)
        lead = b.coefficient(b.max_exp)
        span_a = snf._span(a) if a else 0
        assert scale in {lead**j for j in range(span_a + 2)}

    @given(_NONZERO_POLYS, _NONZERO_POLYS)
    @settings(max_examples=400, deadline=None)
    def test_end_quotient(self, e, piv):
        assert snf._end_quotient(e, piv) == _end_quotient_reference(e, piv)

    @given(_division_pairs(), st.sampled_from([64, 128]))
    @example((_INTEGER_ONLY_DIVIDEND, _INTEGER_ONLY_DIVISOR), 64)
    @settings(max_examples=400, deadline=None)
    def test_reducing_quotient(self, pair, bits):
        # the exact quotient where there is one, else the end quotient; None
        # for a zero dividend or a zero end quotient
        e, piv = pair
        want = _reducing_quotient_reference(e, piv)
        if want is not None:
            want = want, sum(map(abs, want.terms.values()))
        assert _slots_quotient(e, piv, bits) == want

    def test_integer_division_that_is_no_polynomial_division(self, monkeypatch):
        # 2v + 1 does not divide v^4 + 2^61, but at 64-bit slots their values
        # divide as integers; the candidate's digits fail the slot-bound
        # check, and divide_exact decides
        slots = snf._Slots(64)
        a, b = slots.pack(_INTEGER_ONLY_DIVIDEND), slots.pack(_INTEGER_ONLY_DIVISOR)
        value, rem = divmod(a.value, b.value)
        assert rem == 0
        assert snf._unpack_signed(value, slots.nbytes, 4) == [2**61, -(2**62), -(2**63), 1]
        calls = []

        def spy(x, y):
            calls.append((x, y))
            return divide_exact(x, y)

        monkeypatch.setattr(snf, "divide_exact", spy)
        # the end quotient's coefficients outgrow 64-bit slots
        with pytest.raises(snf._SlotOverflow):
            slots.quotient(a, b)
        assert calls == [(_INTEGER_ONLY_DIVIDEND, _INTEGER_ONLY_DIVISOR)]
        want = _end_quotient_reference(_INTEGER_ONLY_DIVIDEND, _INTEGER_ONLY_DIVISOR)
        assert _slots_quotient(_INTEGER_ONLY_DIVIDEND, _INTEGER_ONLY_DIVISOR, 64) == (
            want, sum(map(abs, want.terms.values())))


def test_end_quotient_hands_over_to_wider_slots(monkeypatch):
    # at 64-bit slots the first step of v^4 + 2^61 by 2v + 1 would reach
    # 2^61 + 2 * 2^61 > 2^62 even with tightened bounds: the grind hands the
    # steps left to _end_quotient, on wider slots, and its sum is unchanged
    calls = []
    end_quotient = snf._end_quotient

    def spy(e, piv, steps=256):
        calls.append(steps)
        return end_quotient(e, piv, steps)

    monkeypatch.setattr(snf, "_end_quotient", spy)
    slots = snf._Slots(64)
    got = slots.grind(slots.pack(_INTEGER_ONLY_DIVIDEND), slots.pack(_INTEGER_ONLY_DIVISOR))
    assert calls == [256]
    want = _end_quotient_reference(_INTEGER_ONLY_DIVIDEND, _INTEGER_ONLY_DIVISOR)
    assert LaurentPoly(got) == want


def _reducing_quotient_reference(e, piv):
    """The exact quotient of e by piv where there is one, else the end
    quotient; None for a zero e or a zero end quotient."""
    if e.is_zero:
        return None
    q = _divide_exact_reference(e, piv)
    if q is None:
        q = _end_quotient_reference(e, piv)
    return q or None


def _slots_quotient(e, piv, bits):
    """snf._Slots(bits).quotient of e by piv as (q, |q|_1), or None; None
    for a zero e, which the diagonalizer never reduces.  A quotient that
    outgrows the slots is found again on the wider slots it asks for, as
    the diagonalizer restarts."""
    if e.is_zero:
        return None
    while True:
        slots = snf._Slots(bits)
        try:
            found = slots.quotient(slots.pack(e), slots.pack(piv))
            break
        except snf._SlotOverflow as wider:
            bits = wider.args[0]
    return None if found is None else (slots.poly(found[0]), found[1])


def _reduce_zlaurent(row, prow):
    """The dict-based row reduction that the packed engine replaced: each
    entry a - q*b term by term on LaurentPoly entries."""
    q = _reducing_quotient_reference(row[0], prow[0])
    if q is None:
        return None
    # a zero in the pivot row leaves the entry as it is
    return [a if b.is_zero else sub_product(a, q, b) for a, b in zip(row, prow)]


def _reference_diagonalize(matrix, budget):
    """((diagonal, steps, stopped), pivots) of the dict-based engine: every
    entry a LaurentPoly keyed by snf._complexity, through the shared loop,
    with (rows, pivot) for every row reduction."""
    pivots = []

    def reduce(row, prow):
        pivots.append((len(row), prow[0]))
        return _reduce_zlaurent(row, prow)

    m = [list(row) for row in matrix]
    least = snf._least_by(snf._complexity)
    diag, steps, stopped = snf._diagonalize(m, least, reduce, (0, 1, 1), budget)
    diagonal = None if diag is None else InvariantMultiset.polys(diag, RING_ZLAURENT)
    return (diagonal, steps, stopped), pivots


class _PackedSpy:
    """Spies on the packed engine's slots: per run at one slot width, the
    (rows, pivot) of every row reduction, and the count of tightenings and
    exact entries."""

    def __init__(self, monkeypatch):
        self.runs = {}  # _Slots -> [(rows, pivot)]
        self.tightened = self.exact = 0
        reduce, tighten, exact = snf._Slots.reduce, snf._Slots.tighten, snf._Slots.exact

        def spy_reduce(slots, row, prow):
            self.runs.setdefault(slots, []).append((len(row), slots.poly(prow[0])))
            return reduce(slots, row, prow)

        def spy_tighten(slots, *args):
            self.tightened += 1
            return tighten(slots, *args)

        def spy_exact(slots, *args):
            self.exact += 1
            return exact(slots, *args)

        monkeypatch.setattr(snf._Slots, "reduce", spy_reduce)
        monkeypatch.setattr(snf._Slots, "tighten", spy_tighten)
        monkeypatch.setattr(snf._Slots, "exact", spy_exact)

    def run(self, matrix, budget):
        """(diagonal, steps, stopped), the pivots of the run that finished,
        and the slot widths of the runs before it."""
        self.runs.clear()
        res = try_diagonalize_zlaurent(matrix, budget)
        runs = list(self.runs.items())
        pivots = runs[-1][1] if runs else []
        return (res.diagonal, res.steps, res.stopped), pivots, [s.bits for s, _ in runs[:-1]]


def _assert_same_run(spy, matrix, budget):
    want, want_pivots = _reference_diagonalize(matrix, budget)
    got, got_pivots, widened = spy.run(matrix, budget)
    assert got == want
    assert got_pivots == want_pivots
    return widened


# the Gram points of the criterion-8 grid (ell in 2, 3, 4 and d <= 4)
CRITERION_8_GRAM = [(ell, d) for ell in (2, 3, 4) for d in range(5)]

# coefficients below the slot bound 2^62 of 64-bit slots, where the run
# starts at 64 bits, and above it up to past 2^64, where it starts wider;
# small ones besides, so that quotients exist
_BELOW_SLOT_BOUND = [2**59 + 1, 2**61 - 1, 2**62 - 1]
_ABOVE_SLOT_BOUND = [2**62, 2**63 + 1, 2**64 - 1, 2**64 + 1]


@st.composite
def _wide_laurent_matrix(draw):
    wide = st.sampled_from(draw(st.sampled_from([_BELOW_SLOT_BOUND, _ABOVE_SLOT_BOUND])))
    coefficients = st.one_of(st.integers(-3, 3), wide, wide.map(lambda c: -c))
    terms = st.dictionaries(st.integers(-2, 2), coefficients, max_size=3)
    n = draw(st.integers(1, 4))
    return [[LaurentPoly(draw(terms)) for _ in range(n)] for _ in range(n)]


class TestPackedDiagonalizer:
    """try_diagonalize_zlaurent, on packed entries, against the dict-based
    engine it replaced: the same diagonal, steps, stop reason and pivots."""

    @pytest.mark.parametrize("ell, d", CRITERION_8_GRAM)
    def test_matches_reference_on_criterion_8_grid(self, monkeypatch, ell, d):
        spy = _PackedSpy(monkeypatch)
        matrix = cartan_graded(ell, d).entries
        for budget in (snf.DIAG_BUDGET, 1):
            assert _assert_same_run(spy, matrix, budget) == []

    @pytest.mark.parametrize("ell, d", [(5, 3), (3, 5), (5, 4)])
    def test_matches_reference_beyond_the_grid(self, monkeypatch, ell, d):
        spy = _PackedSpy(monkeypatch)
        assert _assert_same_run(spy, cartan_graded(ell, d).entries, snf.DIAG_BUDGET) == []

    def test_matches_reference_about_the_slot_bound(self, monkeypatch):
        # coefficients straddle 2^62 and 2^64: the bounds are tightened,
        # entries are computed exactly, and a run at 64-bit slots restarts
        # wider, each at least once, and the outcome never changes
        spy = _PackedSpy(monkeypatch)
        seen = {"tightened": 0, "exact": 0, "widened_mid_run": 0, "widened_at_input": 0}

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(_wide_laurent_matrix(), st.sampled_from([snf.DIAG_BUDGET, 1]))
        def check(matrix, budget):
            spy.tightened = spy.exact = 0
            widened = _assert_same_run(spy, matrix, budget)
            # every exact entry follows one tightening that did not suffice
            seen["tightened"] += spy.tightened - spy.exact
            seen["exact"] += spy.exact
            if widened:
                mid_run = any(slots.bits == 64 and pivots for slots, pivots in spy.runs.items())
                seen["widened_mid_run" if mid_run else "widened_at_input"] += 1

        check()
        assert all(seen.values()), seen

    def test_budget_one_stops_after_one_pass(self, monkeypatch):
        spy = _PackedSpy(monkeypatch)
        matrix = cartan_graded(5, 3).entries
        assert _assert_same_run(spy, matrix, 1) == []
        assert spy.run(matrix, 1)[0] == (None, 2, "budget")


class TestDetIdealGcds:
    """snf_laurent_field against the gcds of the k x k minors over
    Q[v,v^-1] (_det_ideal_gcds): the invariant factors are their ratios."""

    def test_identity(self):
        eye = [[ONE, ZERO], [ZERO, ONE]]
        assert _det_ideal_gcds(eye) == [ONE, ONE]
        assert snf_laurent_field(eye).elements == (ONE, ONE)

    def test_one_by_one(self):
        assert _det_ideal_gcds([[quantum_int(2)]]) == [LaurentPoly({2: 1, 0: 1})]
        assert multiset_equal_up_to_units(
            snf_laurent_field([[quantum_int(2)]]), snf_of_diagonal([quantum_int(2)])
        )

    def test_ratios_reproduce_field_invariants(self):
        rng = random.Random(37)
        done = 0
        while done < 15:
            m = random_laurent_matrix(rng, 3)
            if laurent_det(m).is_zero:
                continue
            done += 1
            gcds = _det_ideal_gcds(m)
            inv = snf_laurent_field(m).elements
            prev = ONE
            for k in range(3):
                expect = canonical_poly(prev * inv[k], primitive=True)
                assert gcds[k] == expect
                prev = prev * inv[k]

    @given(_often_singular(DIAGONAL_ENTRIES, ZERO, max_rows=3))
    @settings(max_examples=25, deadline=None)
    def test_ratios_reproduce_field_invariants_when_singular(self, m):
        # the test above skips singular matrices; here they are the point
        assume(laurent_det(m).is_zero)
        gcds = _det_ideal_gcds(m)
        inv = snf_laurent_field(m).elements
        prev = ONE
        for k in range(len(m)):
            if inv[k].is_zero:
                assert gcds[k].is_zero
            else:
                prev = prev * inv[k]
                assert gcds[k] == canonical_poly(prev, primitive=True)


class TestMultisets:
    def test_equal_up_to_units(self):
        a = InvariantMultiset.polys([quantum_int(2)], RING_QLAURENT)
        b = InvariantMultiset.polys([LaurentPoly({2: 1, 0: 1})], RING_QLAURENT)
        assert multiset_equal_up_to_units(a, b)
        c = InvariantMultiset.polys([quantum_int(3)], RING_QLAURENT)
        assert not multiset_equal_up_to_units(a, c)
        f = quantum_int(5)
        g = quantum_int(2, 2)
        x = InvariantMultiset.polys([f * LaurentPoly({3: -1}), g], RING_ZLAURENT)
        y = InvariantMultiset.polys([f, g], RING_ZLAURENT)
        assert multiset_equal_up_to_units(x, y)

    def test_ring_mismatch(self):
        a = snf_int_diagonal([1, 2])
        b = InvariantMultiset.polys([ONE], RING_QLAURENT)
        with pytest.raises(ValueError):
            multiset_equal_up_to_units(a, b)

    def test_the_diagonalizer_cross_checks_through_the_judge(self, monkeypatch):
        # both halves of its cross-check, over Q[v,v^-1] and at v=1, compare
        # multisets built on one ring
        seen = []
        judge = snf.multiset_equal_up_to_units

        def spy(a, b):
            seen.append((a.ring, b.ring))
            return judge(a, b)

        monkeypatch.setattr(snf, "multiset_equal_up_to_units", spy)
        m = [[quantum_int(2), ZERO], [ZERO, quantum_int(3)]]
        assert try_diagonalize_zlaurent(m).success
        assert seen == [(RING_QLAURENT, RING_QLAURENT), (RING_ZINT, RING_ZINT)]

    def test_json(self):
        a = snf_int_diagonal([2, 1])
        assert a.to_json() == {"ring": RING_ZINT, "elements": ["1", "2"]}
        b = InvariantMultiset.polys([quantum_int(2)], RING_ZLAURENT)
        assert b.to_json()["ring"] == RING_ZLAURENT


class TestRefusals:
    def test_certified_refuses_a_zero_det(self):
        with pytest.raises(ValueError) as exc:
            snf_int_certified([[1]], 0)
        assert str(exc.value) == "det_abs must be the positive |det| of a nonsingular matrix"

    def test_certified_on_the_empty_matrix(self):
        assert snf_int_certified([], 1) == InvariantMultiset(RING_ZINT, ())

    def test_pseudo_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            snf._pseudo_divmod(LaurentPoly({1: 1}), ZERO)
