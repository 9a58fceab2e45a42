"""The multi-modular Laurent determinant against independent references."""

import hashlib
import random
from itertools import permutations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcartan import gram, linalg
from gcartan.gram import (
    _reversal,
    _reversal_split,
    gram_det,
    gram_det_at_one,
    permanent_matrix,
)
from gcartan.linalg import PRIMES, int_det, laurent_det
from gcartan.qcartan import DynkinDiagram, quantized_cartan, type_a
from gcartan.qlaurent import ONE, ZERO, LaurentPoly


def leibniz(m):
    """det m as the signed sum over all permutations."""
    n = len(m)
    total = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ONE if inversions % 2 == 0 else -ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def at(poly, v):
    return sum(c * v**e for e, c in poly)


coefficients = st.integers(-6, 6)
polys = st.dictionaries(st.integers(-3, 3), coefficients, max_size=3).map(LaurentPoly)
bar_polys = polys.map(lambda p: p + p.bar())


@st.composite
def laurent_matrices(draw):
    n = draw(st.integers(0, 5))
    entries = bar_polys if draw(st.booleans()) else polys
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n:
        kind = draw(st.sampled_from(["plain", "zero row", "repeated row"]))
        i = draw(st.integers(0, n - 1))
        if kind == "zero row":
            m[i] = [ZERO] * n
        elif kind == "repeated row" and n > 1:
            m[i] = list(m[(i + 1) % n])
    return m


class TestLaurentDet:
    @settings(max_examples=80, deadline=None)
    @given(laurent_matrices())
    def test_matches_leibniz(self, m):
        assert laurent_det(m) == leibniz(m)

    def test_bar_invariant_and_general_nodes_agree(self):
        # scaling a row by v^3 leaves the bar-invariant route for the general one
        m = [[LaurentPoly({1: 2, -1: 2}), LaurentPoly({0: -1})],
             [LaurentPoly({0: -1}), LaurentPoly({2: 1, 0: 5, -2: 1})]]
        scaled = [[e.shift(3) for e in m[0]], m[1]]
        assert laurent_det(scaled) == laurent_det(m).shift(3) == leibniz(scaled)

    def test_large_coefficients_need_a_larger_prime(self, monkeypatch):
        big = 2**300
        m = [[LaurentPoly({0: big + 1, 2: -big}), LaurentPoly({-1: 3 * big})],
             [LaurentPoly({1: big - 7}), LaurentPoly({0: -big, 1: 5})]]
        used = []
        interpolate = linalg._interpolate_mod

        def spy(rows, width, degree, bar, parity, p):
            used.append(p)
            return interpolate(rows, width, degree, bar, parity, p)

        monkeypatch.setattr(linalg, "_interpolate_mod", spy)
        assert laurent_det(m) == leibniz(m)
        assert used and min(used) > 2**521 - 1

    def test_crt_over_several_primes(self, monkeypatch):
        # entries near 2^1500 put 2B above 2^4500, past the largest prime
        # (4423 bits): two primes and a CRT are needed
        big = 2**1500
        m = [[LaurentPoly({0: big, 1: -3}), LaurentPoly({0: big - 1}), LaurentPoly({2: big})],
             [LaurentPoly({-1: -big}), LaurentPoly({0: 7}), LaurentPoly({0: big + 5})],
             [LaurentPoly({1: big}), LaurentPoly({0: -big, 1: big}), LaurentPoly({0: 1})]]
        used = []
        interpolate = linalg._interpolate_mod

        def spy(rows, width, degree, bar, parity, p):
            used.append(p)
            return interpolate(rows, width, degree, bar, parity, p)

        monkeypatch.setattr(linalg, "_interpolate_mod", spy)
        assert laurent_det(m) == leibniz(m)
        assert len(used) == 2

    def test_bound_beyond_the_table_raises(self):
        # 2B above the product of every table prime
        top = sum(p.bit_length() for p in PRIMES)
        with pytest.raises(ArithmeticError):
            laurent_det([[LaurentPoly({0: 2**top})]])

    def test_sparse_high_degree_entries(self):
        # every exponent a multiple of 40: [2]_40 on the diagonal of A_3
        q = LaurentPoly({40: 1, -40: 1})
        m = [[q, -ONE, ZERO], [-ONE, q, -ONE], [ZERO, -ONE, q]]
        assert laurent_det(m) == leibniz(m)

    def test_largest_factor_against_int_det_at_two(self):
        # P_1(4) at ell=5, the 35-row factor of shape 1^4, with rows scaled
        # into Z[v] and evaluated at v=2
        f = permanent_matrix(quantized_cartan(type_a(5)), 1, 4)
        assert len(f) == 35
        lows = [min(e.min_exp for e in row if not e.is_zero) for row in f]
        at_two = [[at(e.shift(-lo), 2) for e in row] for row, lo in zip(f, lows)]
        det = laurent_det(f).shift(-sum(lows))
        assert det.min_exp >= 0
        assert at(det, 2) == int_det(at_two)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            laurent_det([[ONE, ZERO]])
        with pytest.raises(ValueError):
            laurent_det([[ONE, ZERO], [ONE]])

    def test_empty_matrix(self):
        assert laurent_det([]) == ONE


@st.composite
def graded_matrices(draw):
    """(matrix, g, e): entry (i, j) a sum of c v^(g k) over k = rho_i +
    kappa_j mod 2, for random row and column parities rho and kappa and a
    step g; either symmetric and bar-invariant (kappa = rho), or general,
    row i times v^(g o_i) for a random o_i.  Every term of the determinant
    is then c v^(g k) with k = e = sum rho + sum kappa + sum o mod 2."""
    n = draw(st.integers(1, 5))
    step = draw(st.integers(1, 3))
    symmetric = draw(st.booleans())
    bits = st.integers(0, 1)
    rho = [draw(bits) for _ in range(n)]
    kappa = rho if symmetric else [draw(bits) for _ in range(n)]

    def entry(parity):
        halves = draw(st.lists(st.integers(-2, 2), max_size=2, unique=True))
        e = LaurentPoly({step * (2 * k + parity): draw(coefficients) for k in halves})
        return e + e.bar() if symmetric else e

    m = [[entry((r + k) % 2) for k in kappa] for r in rho]
    shifts = [0 if symmetric else draw(st.integers(-2, 2)) for _ in range(n)]
    for i in range(n):
        if symmetric:
            m[i][:i] = [m[j][i] for j in range(i)]
        else:
            m[i] = [e.shift(step * shifts[i]) for e in m[i]]
    return m, step, (sum(rho) + sum(kappa) + sum(shifts)) % 2


def _count_eliminations(monkeypatch):
    calls = {"sym": 0, "full": 0}
    sym, full = linalg._sym_det_mod, linalg._det_mod

    def spy_sym(uppers, p):
        # one node per matrix: the kernel eliminates a list of them together
        calls["sym"] += len(uppers)
        return sym(uppers, p)

    def spy_full(m, p):
        calls["full"] += 1
        return full(m, p)

    monkeypatch.setattr(linalg, "_sym_det_mod", spy_sym)
    monkeypatch.setattr(linalg, "_det_mod", spy_full)
    return calls


class TestParityGrading:
    """laurent_det on matrices whose exponent parities split into row and
    column parities: det A(-x) = (-1)^e det A(x), and half the nodes serve."""

    @settings(max_examples=120, deadline=None)
    @given(graded_matrices())
    def test_graded_matrices_match_leibniz(self, case):
        m, step, e = case
        det = leibniz(m)
        assert laurent_det(m) == det
        assert all(k % step == 0 and k // step % 2 == e for k, _ in det), (det, step, e)

    Q = LaurentPoly({1: 1, -1: 1})  # [2] = v + v^-1

    @pytest.mark.parametrize(
        "m, nodes, kernel",
        [
            # the Cartan matrix of A_2: [2]^2 - 1 is even in w = v + v^-1, of
            # degree 2, so 2 nodes instead of 3
            ([[Q, -ONE], [-ONE, Q]], 2, "sym"),
            # that of A_3: [2]^3 - 2 [2] is odd, of degree 3, so 2 nodes
            # (t = 1, 2) instead of 4
            ([[Q, -ONE, ZERO], [-ONE, Q, -ONE], [ZERO, -ONE, Q]], 2, "sym"),
            # exponents in steps of 2 and rows shifted by v^0 and v^2: the
            # determinant is v^2 P(v) with P = 2 v^6 - 4 v^2 even and of degree
            # at most 6 + 2, so 5 nodes instead of 9
            ([[LaurentPoly({2: 1, 6: 2}), LaurentPoly({0: 5})],
              [LaurentPoly({4: 1}), LaurentPoly({2: 1})]], 5, "full"),
            # one off-grade entry, v^2 + v^3 + v^4 (1 + v + v^2 after its row's
            # shift), breaks the grading: the full 9 nodes of degree 6 + 2
            ([[LaurentPoly({2: 1, 6: 2}), LaurentPoly({0: 5})],
              [LaurentPoly({4: 1}), LaurentPoly({2: 1, 3: 1, 4: 1})]], 9, "full"),
            # the same in the symmetric bar-invariant Cartan matrix of A_2:
            # the off-grade entry [2] - 1 costs the full 3 nodes
            ([[Q, -ONE], [-ONE, Q - ONE]], 3, "sym"),
        ],
    )
    def test_node_count(self, monkeypatch, m, nodes, kernel):
        calls = _count_eliminations(monkeypatch)
        assert laurent_det(m) == leibniz(m)
        assert calls == {"sym": 0, "full": 0, kernel: nodes}

    @pytest.mark.parametrize(
        "ell, m, half, rows, nodes, full, digest",
        [
            # the odd 9-row minus half of P_1(5) at ell=4: degree 45 in w,
            # 23 nodes instead of 46
            (4, 5, 1, 9, 23, 46,
             "ba616b44ca1e9c119044203a9438668cb6ae648fb48a612c3dcb8bf61dbda306"),
            # the even 19-row plus half of P_1(4) at ell=5: degree 76, 39
            # nodes instead of 77
            (5, 4, 0, 19, 39, 77,
             "80615385fb7564d2795bf6db58a75cf37ce3f9a9ba82045298711abf63e779c1"),
        ],
    )
    def test_reversal_halves(self, monkeypatch, ell, m, half, rows, nodes, full, digest):
        # the digest is of the determinant as computed on all the nodes
        # before the grading was used; the full-node route must still give it
        f = permanent_matrix(quantized_cartan(type_a(ell)), 1, m)
        part = _reversal_split(f, _reversal(ell - 1, m))[half]
        assert len(part) == rows
        calls = _count_eliminations(monkeypatch)
        det = laurent_det(part)
        assert calls == {"sym": nodes, "full": 0}
        assert hashlib.sha256(repr(sorted(det.terms.items())).encode()).hexdigest() == digest
        monkeypatch.setattr(linalg, "_parity_grading", lambda rows: None)
        assert laurent_det(part) == det
        assert calls == {"sym": nodes + full, "full": 0}

    @staticmethod
    def _big_factors(monkeypatch, dg, d):
        # (m, k, split, rows, graded) for every factor of more than two rows
        # that laurent_det receives while computing gram_det(dg, d)
        seen = []
        factor = {}
        reversal, split, interpolate = gram._reversal, gram._reversal_split, linalg._interpolate_mod

        def reversal_spy(colors, m):
            factor.update(k=colors, m=m)
            return reversal(colors, m)

        def split_spy(f, sigma):
            out = split(f, sigma)
            factor["split"] = out is not None
            return out

        def interpolate_spy(rows, width, degree, bar, parity, p):
            seen.append((factor["m"], factor["k"], factor["split"], len(rows), parity is not None))
            return interpolate(rows, width, degree, bar, parity, p)

        monkeypatch.setattr(gram, "_reversal", reversal_spy)
        monkeypatch.setattr(gram, "_reversal_split", split_spy)
        monkeypatch.setattr(linalg, "_interpolate_mod", interpolate_spy)
        gram_det(dg, d)
        big = [entry for entry in seen if entry[3] > 2]
        assert any(graded for *_, graded in big)
        return big

    @pytest.mark.parametrize(
        "dg, d",
        [
            pytest.param(type_a(5), 4, id="A_4-4"),
            pytest.param(type_a(4), 5, id="A_3-5"),
            pytest.param(type_a(3), 6, id="A_2-6"),
            pytest.param(DynkinDiagram("D", 4), 3, id="D_4-3"),
            pytest.param(DynkinDiagram("E", 6), 2, id="E_6-2"),
        ],
    )
    def test_gram_factors_of_more_than_two_rows_are_graded(self, monkeypatch, dg, d):
        big = self._big_factors(monkeypatch, dg, d)
        assert all(graded for *_, graded in big), big

    @pytest.mark.parametrize(
        "dg, d, ungraded",
        [
            # k = 4 colours: m(k-1) is odd for P(3) and P(5), whose 10- and
            # 28-row halves are ungraded
            pytest.param(type_a(5), 5, {(3, 10), (5, 28)}, id="A_4-5"),
        ],
    )
    def test_gram_factors_are_graded_unless_the_reversal_flips_parities(
        self, monkeypatch, dg, d, ungraded
    ):
        # every half of a colour reversal split of P(m) with m(k-1) even is
        # parity graded; the halves with m(k-1) odd, where the reversal flips
        # the row parities, are the ones listed
        big = self._big_factors(monkeypatch, dg, d)
        for m, k, halves, n, graded in big:
            assert graded or (halves and m * (k - 1) % 2), big
        assert {(m, n) for m, _, _, n, graded in big if not graded} == ungraded

def _symmetric_mod(rng, n, p, kind):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice([0, 0, 1, -1, 2, rng.randrange(p)]) % p
    if kind == "zero diagonal":
        for i in range(n):
            m[i][i] = 0
    elif kind == "singular" and n:
        # row and column j repeat row and column i (or are zero when n = 1)
        i, j = rng.randrange(n), rng.randrange(n)
        for x in range(n):
            m[j][x] = m[i][x] if i != j else 0
        for x in range(n):
            m[x][j] = m[x][i] if i != j else 0
    return m


class TestSymmetricKernel:
    """linalg._sym_det_mod, the upper-triangle elimination, against the
    full Gaussian elimination linalg._det_mod."""

    def test_against_full_elimination(self):
        rng = random.Random(20261018)
        singular = 0
        for p in (3, 7, (1 << 521) - 1):
            for n in range(9):
                for kind in ("plain", "zero diagonal", "singular"):
                    for _ in range(12):
                        m = _symmetric_mod(rng, n, p, kind)
                        want = linalg._det_mod([row[:] for row in m], p) % p
                        upper = [row[i:] for i, row in enumerate(m)]
                        assert linalg._sym_det_mod([upper], p) == [want], (p, kind, m)
                        singular += want == 0
        assert singular > 100

    @pytest.mark.parametrize(
        "m, p, det",
        [
            ([[0, 1], [1, 0]], 7, 6),  # c = 1: pivot 2 a_01
            ([[0, 1], [1, 1]], 3, 2),  # c = 1 gives 2 + 1 = 0 mod 3, so c = 2
            ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], 5, 0),  # a zero row after the repair
            ([[0, 0, 2], [0, 3, 0], [2, 0, 0]], 7, 7 - 12 % 7),
        ],
    )
    def test_zero_pivot_repairs(self, m, p, det):
        assert linalg._sym_det_mod([[row[i:] for i, row in enumerate(m)]], p) == [det]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(polys, min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_symmetric_laurent_matrices_match_leibniz(self, m):
        for i in range(len(m)):
            for j in range(i):
                m[i][j] = m[j][i]
        assert laurent_det(m) == leibniz(m)

    def test_lockstep_matches_one_at_a_time(self):
        # matrices eliminated together, sharing one inverse per step, give
        # each its own determinant, singular ones and zero-pivot repairs
        # among them
        rng = random.Random(20261021)
        for p in (3, 7, (1 << 89) - 1):
            for n in range(1, 7):
                kinds = ["plain", "zero diagonal", "singular"] * 4
                ms = [_symmetric_mod(rng, n, p, kind) for kind in kinds]
                uppers = [[row[i:] for i, row in enumerate(m)] for m in ms]
                alone = [linalg._sym_det_mod([u], p)[0] for u in uppers]
                assert linalg._sym_det_mod(uppers, p) == alone
                assert alone == [linalg._det_mod([r[:] for r in m], p) % p for m in ms]

    def test_only_symmetric_rows_take_the_symmetric_kernel(self, monkeypatch):
        calls = _count_eliminations(monkeypatch)
        q = LaurentPoly({1: 1, -1: 1})
        symmetric = [[q, -ONE], [-ONE, q]]
        assert laurent_det(symmetric) == leibniz(symmetric)
        assert calls["sym"] and not calls["full"]
        calls["sym"] = 0
        skew = [[q, -ONE], [ONE, q]]
        assert laurent_det(skew) == leibniz(skew)
        assert calls["full"] and not calls["sym"]


def _symmetric_int(rng, n, kind, lo=-9, hi=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    if kind == "zero row" and n:
        i = rng.randrange(n)
        for x in range(n):
            m[i][x] = m[x][i] = 0
    elif kind == "singular" and n > 1:
        # row and column j repeat row and column i
        i, j = rng.sample(range(n), 2)
        for x in range(n):
            m[j][x] = m[i][x]
        for x in range(n):
            m[x][j] = m[x][i]
    return m


class TestIntDetMod:
    """linalg._int_det_multimodular, the kernel of laurent_det on integer matrices
    (F_p elimination, CRT over the prime table, symmetric lift), against
    Bareiss int_det."""

    def test_random_symmetric_matrices(self):
        rng = random.Random(20261018)
        signs = set()
        for n in range(13):
            for kind in ("plain", "zero row", "singular"):
                for _ in range(6):
                    m = _symmetric_int(rng, n, kind)
                    want = int_det(m)
                    assert linalg._int_det_multimodular(m) == want, (kind, m)
                    signs.add((want > 0) - (want < 0))
        assert signs == {-1, 0, 1}


    def test_bound_that_needs_two_table_primes(self, monkeypatch):
        # Hadamard's bound of this matrix is above 2^4502, and the largest
        # table prime has 4423 bits: the product of two primes is needed
        rng = random.Random(3)
        big = 2**1500
        m = _symmetric_int(rng, 3, "plain", -big, big)
        m[0][0] = -big
        counts = []
        moduli = linalg._moduli

        def spy(bound_sq):
            out = moduli(bound_sq)
            counts.append(len(out))
            return out

        monkeypatch.setattr(linalg, "_moduli", spy)
        assert linalg._int_det_multimodular(m) == int_det(m)
        assert counts == [2]

    def test_non_square_or_non_symmetric_raises(self):
        with pytest.raises(ValueError, match="square"):
            linalg._int_det_multimodular([[1, 2]])
        with pytest.raises(ValueError, match="symmetric"):
            linalg._int_det_multimodular([[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "dg",
        [DynkinDiagram("A", r) for r in range(2, 7)] + [DynkinDiagram("D", 4), DynkinDiagram("E", 6)],
        ids=str,
    )
    def test_every_factor_and_reversal_half_at_one(self, dg):
        # every P_s(m) with s m <= 4 at v=1, and the two halves of its colour
        # reversal split where there is one
        x = quantized_cartan(dg)
        for s, m in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]:
            f = [[e.at_one() for e in row] for row in permanent_matrix(x, s, m)]
            split = _reversal_split(f, _reversal(dg.nodes, m))
            parts = [f] if split is None else [f, split[0], split[1]]
            for part in parts:
                assert linalg._int_det_multimodular(part) == int_det(part)


class TestPrimeTable:
    """linalg.PRIMES: every entry certified prime, and the choice that
    _moduli makes from it."""

    # for each Proth prime N of the ladder, in order, a witness a with
    # a^((N-1)/2) = -1 mod N (the least prime quadratic non-residue)
    PROTH_WITNESSES = (
        3, 5, 3, 5, 3, 5, 7, 5, 3, 7, 3, 5, 3, 3, 3, 3, 3, 3, 5, 5, 3, 13, 3, 3, 5, 5, 7, 3, 3, 5, 3,
        11, 5, 3, 13, 3, 3, 11, 7, 3, 3, 3, 3, 5, 5, 7, 3, 7, 11, 3, 3, 3, 3, 7, 7, 3, 11, 3, 3,
        3, 3, 5, 7, 3, 5, 19, 5, 3, 5, 3, 3, 3, 5,
    )

    def test_every_entry_is_certified(self):
        assert list(PRIMES) == sorted(set(PRIMES))
        mersenne = [p for p in PRIMES if not p & (p + 1)]
        proth = [p for p in PRIMES if p & (p + 1)]
        assert len(proth) == len(self.PROTH_WITNESSES)
        for N, a in zip(proth, self.PROTH_WITNESSES):
            # Proth's theorem: N = k 2^n + 1 with k odd and k < 2^n is prime
            # if a^((N-1)/2) = -1 mod N for some a
            n = ((N - 1) & (1 - N)).bit_length() - 1
            k = (N - 1) >> n
            assert k % 2 == 1 and k < 1 << n, N
            assert pow(a, (N - 1) // 2, N) == N - 1, N
        for m in mersenne:
            # Lucas-Lehmer: 2^k - 1 (k an odd prime) is prime iff
            # s_{k-2} = 0, where s_0 = 4 and s_{i+1} = s_i^2 - 2 mod 2^k - 1;
            # reduced by folding the bits
            k = m.bit_length()
            assert all(k % q for q in range(2, isqrt(k) + 1)), k
            s = 4
            for _ in range(k - 2):
                s = s * s - 2
                s = (s & m) + (s >> k)
                s = (s & m) + (s >> k)
            assert s % m == 0, k
        # one prime per 30 bits from 30 bits to the top of the ladder and the
        # first Mersenne prime above it
        bits = [p.bit_length() for p in PRIMES[: len(proth) + 1]]
        assert bits[0] <= 30 and max(b - a for a, b in zip(bits, bits[1:])) <= 30

    def test_smallest_prime_above_2b(self):
        # bounds drawn across the ladder, and at each prime's edge: 4 B^2
        # one below p^2 (p serves) and three above (it does not)
        rng = random.Random(20261018)
        bounds = [rng.getrandbits(rng.randrange(1, 4380)) | 1 for _ in range(300)]
        bounds += [x for p in PRIMES for x in ((p * p - 1) // 4, (p * p + 3) // 4)]
        for bound_sq in bounds:
            want = next((p for p in PRIMES if p * p > 4 * bound_sq), None)
            if want is None:
                continue
            assert linalg._moduli(bound_sq) == [want]
            if want <= PRIMES[len(self.PROTH_WITNESSES)]:  # up to the ladder's top
                assert want.bit_length() <= isqrt(4 * bound_sq).bit_length() + 30, bound_sq

    def test_every_factor_half_at_9_4_gets_a_close_prime(self, monkeypatch):
        # 2B of the 170-row plus half of P_1(4) at v=1 has 1289 bits, past
        # 2^1279 - 1; every factor and half gets one prime within 30 bits of
        # 2B
        calls = []
        moduli = linalg._moduli

        def spy(bound_sq):
            out = moduli(bound_sq)
            calls.append((isqrt(4 * bound_sq).bit_length(), [p.bit_length() for p in out]))
            return out

        monkeypatch.setattr(linalg, "_moduli", spy)
        gram_det_at_one(type_a(9), 4)
        assert calls and any(two_b > 1279 for two_b, _ in calls)
        for two_b, (bits,) in calls:
            assert bits <= two_b + 30, (two_b, bits)
