import math
import random

import pytest

from gcartan import partitions as pt
from gcartan.gram import gram_matrix
from gcartan.qcartan import DynkinDiagram


def _gram_index(d, colors):
    # the coloured partitions of d that index the Gram matrix of A_colors
    return gram_matrix(DynkinDiagram("A", colors), d).index


class TestEnumeration:
    def test_empty(self):
        assert pt.enum_partitions(0) == ((),)

    def test_counts(self):
        assert len(pt.enum_partitions(4)) == 5
        assert len(pt.enum_partitions(10)) == 42
        assert pt.u_count(1, 10) == 42

    def test_descending_lex_order(self):
        pars = pt.enum_partitions(6)
        assert pars == tuple(sorted(pars, reverse=True))

    def test_partition_validation(self):
        assert pt.partition([1, 3, 1]) == (3, 1, 1)
        with pytest.raises(ValueError):
            pt.partition([2, 0])

    def test_mults(self):
        lam = (4, 2, 2, 1)
        assert pt.mults(lam) == {4: 1, 2: 2, 1: 1}


class TestCores:
    def test_examples(self):
        assert pt.ell_core((2,), 2) == ()
        assert pt.ell_core((3, 1), 2) == ()
        assert pt.ell_core((2, 1), 3) == ()  # the corner box has hook length 3
        assert pt.ell_core((2,), 3) == (2,)
        assert pt.ell_core((3, 1, 1), 3) == (3, 1, 1)

    def test_idempotent_and_hook_free(self):
        for n in range(0, 9):
            for lam in pt.enum_partitions(n):
                for ell in (2, 3, 4, 5):
                    core = pt.ell_core(lam, ell)
                    assert pt.ell_core(core, ell) == core
                    assert not pt.has_rim_hook(core, ell)

    def test_weight_is_integral(self):
        for n in range(0, 10):
            for lam in pt.enum_partitions(n):
                for ell in (2, 3, 5):
                    core = pt.ell_core(lam, ell)
                    assert (sum(lam) - sum(core)) % ell == 0

    def test_two_cores_are_staircases(self):
        staircases = {(), (1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)}
        found = set()
        for n in range(0, 11):
            for lam in pt.enum_partitions(n):
                if pt.is_ell_core(lam, 2):
                    found.add(lam)
        assert found == staircases


class TestBlocks:
    def test_examples(self):
        bl = pt.blocks(2, 2)
        assert len(bl) == 1 and bl[0].core == () and bl[0].weight == 1
        bl = pt.blocks(1, 5)
        assert len(bl) == 1 and bl[0].core == (1,) and bl[0].weight == 0
        bl = pt.blocks(4, 2)
        assert [(b.core, b.weight) for b in bl] == [((), 2)]

    def test_blocks_partition_all_partitions(self):
        for ell in (2, 3, 4):
            for n in range(0, 9):
                total = 0
                for b in pt.blocks(n, ell):
                    total += sum(
                        1 for lam in pt.enum_partitions(n) if pt.ell_core(lam, ell) == b.core
                    )
                assert total == pt.u_count(1, n)

    @pytest.mark.parametrize("ell", [0, 1, -2])
    def test_ell_is_checked(self, ell):
        # ell = 0 would divide by zero, and a negative ell would give no block
        with pytest.raises(ValueError, match="ell must be >= 2"):
            pt.blocks(3, ell)

    def test_block_label_validation(self):
        with pytest.raises(ValueError):
            pt.BlockLabel((2,), 1, 2)  # (2) has a removable 2-hook

    def test_json(self):
        b = pt.blocks(5, 3)[0]
        j = b.to_json()
        assert set(j) == {"core", "weight", "ell"}


class TestCounting:
    def test_u_count_values(self):
        assert pt.u_count(0, 0) == 1
        assert pt.u_count(0, 3) == 0
        assert pt.u_count(2, 3) == 10
        assert pt.u_count(1, 6) == 11

    def test_u_count_at_a_huge_m(self):
        # u(m, 2) = 2m ((2) or (1,1) in one component) + C(m, 2) ((1) in
        # two) = (m^2 + 3m) / 2, counted without m steps
        m = 10**12
        assert pt.u_count(m, 2) == (m * m + 3 * m) // 2

    def test_u_count_matches_enumeration(self):
        for m in range(0, 4):
            for n in range(0, 7):
                assert pt.u_count(m, n) == sum(1 for _ in pt.multipartitions(m, n))

    def test_class_regular(self):
        assert pt.enum_class_regular(2, 2) == ((1, 1),)
        assert pt.enum_class_regular(4, 2) == ((3, 1), (1, 1, 1, 1))
        for n in range(0, 8):
            assert pt.enum_class_regular(n, 9) == pt.enum_partitions(n)

    @pytest.mark.parametrize("ell", range(2, 8))
    def test_class_regular_count(self, ell):
        # |CRP_ell(n)| three ways: the product formula, the enumeration, and
        # u(ell-1, w) summed over the blocks of rank n
        for n in range(23):
            blocks = sum(pt.u_count(ell - 1, b.weight) for b in pt.blocks(n, ell))
            assert pt.class_regular_count(n, ell) == len(pt.enum_class_regular(n, ell)) == blocks

    @pytest.mark.parametrize(
        "n, ell, message",
        [(-1, 2, "n must be nonnegative"), (-1, 1, "n must be nonnegative"),
         (3, 1, "ell must be >= 2"), (3, 0, "ell must be >= 2")],
    )
    def test_class_regular_count_refusals(self, n, ell, message):
        # the messages of `blocks`, in its order: n first, then ell
        with pytest.raises(ValueError, match=message):
            pt.class_regular_count(n, ell)


REFUSALS = [
    (lambda: pt.enum_partitions(-1), "n must be nonnegative"),
    (lambda: pt.blocks(-1, 2), "n must be nonnegative"),
    (lambda: pt.enum_class_regular(3, 1), "ell must be >= 2"),
    (lambda: pt.ell_core((2,), 1), "ell must be >= 2"),
    (lambda: pt.red((2,), 1), "ell must be >= 2"),
    (lambda: pt.u_count(-1, 0), "u_count needs nonnegative arguments"),
    (lambda: pt.BlockLabel((), -1, 2), "weight must be nonnegative"),
    (lambda: pt.cut((2,), 0), "d must be positive"),
    (lambda: pt.infl((2,), 0), "d must be positive"),
    (lambda: pt.p_adic_split(4, 1), "p must be >= 2"),
    (lambda: pt.prime_divisors(0), "n must be positive"),
    (lambda: pt.psi_set(2, 0, 1), "need r >= 1 and a >= 1"),
]


@pytest.mark.parametrize(
    "call, message",
    REFUSALS,
    ids=[
        "enum_partitions", "blocks", "enum_class_regular", "ell_core", "red", "u_count",
        "BlockLabel", "cut", "infl", "p_adic_split", "prime_divisors", "psi_set",
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestOperators:
    def test_cut(self):
        assert pt.cut((4, 3, 2, 1), 2) == (3, 1)
        assert pt.cut((5, 3, 1), 2) == (5, 3, 1)
        assert pt.cut((2, 2), 2) == ()
        for lam in pt.enum_partitions(6):
            assert pt.cut(pt.cut(lam, 3), 3) == pt.cut(lam, 3)
            removed = sum(lam) - sum(pt.cut(lam, 3))
            assert removed == sum(p for p in lam if p % 3 == 0)

    def test_infl(self):
        assert pt.infl((2, 1), 3) == (6, 3)
        assert pt.infl((4, 1, 1), 1) == (4, 1, 1)
        assert pt.infl((), 7) == ()
        assert sum(pt.infl((3, 2), 5)) == 25

    def test_red(self):
        assert pt.red((1, 1, 1), 2) == (1,)
        assert pt.red((3, 2), 4) == ()
        assert pt.red((2, 2, 2, 2, 1, 1), 2) == (2, 2, 1)

    def test_sort_merge(self):
        assert pt.sort_merge([(3, 1), (2,)]) == (3, 2, 1)
        assert pt.sort_merge([(4, 4)]) == (4, 4)
        assert pt.sort_merge([]) == ()

    def test_p_adic_split(self):
        assert pt.p_adic_split(12, 2) == (3, 2)
        assert pt.p_adic_split(7, 3) == (7, 0)
        assert pt.p_adic_split(8, 2) == (1, 3)
        with pytest.raises(ValueError):
            pt.p_adic_split(0, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_factorial_valuation(self, p):
        # Legendre's count against the p-adic split of n! itself
        assert pt.factorial_valuation(0, p) == 0
        for n in range(1, 61):
            assert pt.factorial_valuation(n, p) == pt.p_adic_split(math.factorial(n), p)[1], n

    def test_factorial_valuation_refuses_p_below_2(self):
        # p = 1 would never leave the loop over the powers of p
        for p in (1, 0, -2):
            with pytest.raises(ValueError):
                pt.factorial_valuation(5, p)

    def test_prime_helpers(self):
        assert pt.prime_divisors(1) == ()
        assert pt.prime_divisors(12) == (2, 3)
        assert [p for p in range(2, 20) if pt.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestPsiSets:
    def test_examples(self):
        assert set(pt.psi_set(2, 2, 2)) == {(2,), (1, 1)}
        assert set(pt.psi_set(2, 2, 3)) == {(2, 1), (1, 1, 1)}
        for a in range(1, 6):
            assert pt.psi_set(5, 1, a) == ((1,) * a,)
        # only the powers p^h <= a are parts: 2^2000 needs no deeper walk
        assert pt.psi_set(2, 2000, 3) == pt.psi_set(2, 2, 3)
        with pytest.raises(ValueError):
            pt.psi_set(4, 1, 3)

    def test_characterization(self):
        # Psi^{p,r}_a = class-regular partitions of a with all parts powers of p
        for p in (2, 3):
            for r in (1, 2, 3):
                ell = p**r
                for a in range(1, 13):
                    brute = {
                        lam
                        for lam in pt.enum_class_regular(a, ell)
                        if all(pt.p_adic_split(x, p)[0] == 1 for x in lam)
                    }
                    assert set(pt.psi_set(p, r, a)) == brute, (p, r, a)

    def test_literal_definition(self):
        # the digit inequalities of the definition, applied to every partition
        # of a into parts p^h with h < r: a = sum_i a_i p^i with a_j < p for
        # j < r-1, and sum_{h>=k} a_h p^{h-k} >= sum_{h>=k} m_{p^h} p^{h-k}
        # for every k < r, with equality at k = 0
        for p in (2, 3, 5):
            for r in (1, 2, 3, 4):
                powers = [p**h for h in range(r)]
                for a in range(1, 21):
                    digits, rest = [], a
                    for _ in range(r - 1):
                        digits.append(rest % p)
                        rest //= p
                    digits.append(rest)
                    want = []
                    for lam in pt.enum_partitions(a):
                        if not set(lam) <= set(powers):
                            continue
                        m = [lam.count(q) for q in powers]
                        tails = [
                            (sum(digits[h] * p ** (h - k) for h in range(k, r)),
                             sum(m[h] * p ** (h - k) for h in range(k, r)))
                            for k in range(r)
                        ]
                        if tails[0][0] == tails[0][1] and all(x >= y for x, y in tails):
                            want.append(lam)
                    assert pt.psi_set(p, r, a) == tuple(want), (p, r, a)


class TestColored:
    def test_counts_match_u(self):
        for d in range(0, 8):
            for c in (1, 2, 3, 4):
                assert len(_gram_index(d, c)) == pt.u_count(c, d)

    def test_examples(self):
        assert len(_gram_index(2, 1)) == 2
        assert _gram_index(0, 3) == ((),)
        assert len(_gram_index(2, 2)) == 5

    def test_canonical_orderptrs(self):
        for cp in _gram_index(5, 3):
            assert cp == pt.colored_partition(cp)
            sizes = [s for s, _ in cp]
            assert sizes == sorted(sizes, reverse=True)
            for (s1, c1), (s2, c2) in zip(cp, cp[1:]):
                if s1 == s2:
                    assert c1 >= c2

    def test_shape_and_groups(self):
        cp = pt.colored_partition([(1, 0), (2, 1), (1, 2)])
        assert cp == ((2, 1), (1, 2), (1, 0))
        assert pt.shape(cp) == (2, 1, 1)
        assert pt.group_by_size(cp) == {2: (1,), 1: (2, 0)}
        assert pt.merge_colored(cp, ((3, 0),))[0] == (3, 0)

    def test_keyless_order_is_the_keyed_order(self):
        # (size, colour) tuples sorted descending are sizes descending, then
        # colours descending within equal sizes: the order of the key
        # (-size, -colour), on random canonical inputs with repeated parts
        rng = random.Random(20260)
        key = lambda t: (-t[0], -t[1])  # noqa: E731
        for _ in range(2000):
            a, b = (
                tuple(sorted(((rng.randint(1, 5), rng.randint(0, 3))
                              for _ in range(rng.randint(0, 6))), key=key))
                for _ in range(2)
            )
            assert pt.merge_colored(a, b) == tuple(sorted(a + b, key=key))
            assert pt.colored_partition(a + b) == tuple(sorted(a + b, key=key))
