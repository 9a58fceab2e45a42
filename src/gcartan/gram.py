"""The Shapovalov Gram-matrix engine.

The degree-d weight space of the basic representation has a polynomial-ring
model: a commuting family of colored Heisenberg generators y_n^{(i)} (one
color per node of the finite diagram), with lattice generators x_n^{(i)}
defined by 1 + sum_n x_n z^n = exp(sum_n y_n z^n) color by color.  The
pairing acts by colored derivations: peeling one y_m^{(i)} off the left
argument inserts (1/m) sum_j [a_ij]_m d/dy_m^{(j)} on the right.  For two
monomials with the same underlying partition this telescopes to

    < y^{(i)}_lam , y^{(j)}_lam >  =  sum over size-preserving bijections pi
                                      of prod_k [a_{i_k, j_pi(k)}]_{r_k} / r_k,

a product of permanents, one per part size.  Since [n]_m(v) = [n](v^m),
([a_ij]_m) is [X] = ([a_ij]) at v^m, so a pairing is its k x k matrix [X],
passed as it is: the quantized Cartan matrix quantized_cartan(dg) of a
finite diagram, or ((ONE,),) for schur_orthonormality.  One column expansion,
permanent_matrix, gives the permanents over the ring of the matrix it is
given: over Z[v,v^-1] from [X], over Z from [X] at v=1.  One class,
GramMatrix, takes [X] and d and is the Gram matrix: its index, its entries,
its value at v=1 and its determinant.

The Gram matrix on the x-basis is G = T Y T^t, with T the x-to-y change of
basis (rational, sparse, unitriangular; each row is kept as integer
numerators over one denominator) and Y the block-diagonal y-Gram matrix.
It is formed row by row as a sparse product: for each row i and each
shape in its support, the half-product t_i Y runs over the nonzero
entries of the block rows, and is scattered through an inverted index of
T's columns into the rows j >= i that share a y-column with it.  The one
product runs over either ring: over Z[v,v^-1] on packed integers, or at v=1,
where C(1) is built from the P(m) of [X] at v=1 (which v -> v^s fixes) with
no Laurent polynomial formed or multiplied.  Everything accumulates over one
common denominator per entry; each entry is checked to be integral (over
Z[v,v^-1] also bar-invariant), and is stored symmetrically.

For type A_{ell-1} the resulting matrix IS the graded Cartan matrix of a
weight-d block at quantum characteristic ell; schur_orthonormality builds
it for one colour of weight 1.

The determinant and the invariant factors go through that structure.  The
x-to-y change of basis is unitriangular (verified at run time, not
assumed), so it is unimodular.  The y-Gram matrix is block diagonal by shape
lam, and the block of lam is, up to the scalar prod_s s^{m_s}, the Kronecker
product over the distinct part sizes s (largest first) of the permanent
matrices P_s(m_s) = (perm [X]_s[c, c']), indexed by the colour multisets c
of size m_s.  The Gram index is built from that layout: the members of
each shape are the row-major product of the colour multisets of each part
size, so they run in the Kronecker order by construction.  Hence

    det(A (x) B) = det(A)^{dim B} det(B)^{dim A},
    SNF(A (x) B) = SNF(diag(a_i b_j))   (a, b the invariant factors of A, B,
                                         over a principal ideal domain).

Only part size 1 reaches a kernel: v -> v^s commutes with permanents,
determinants and Smith forms, and P_s(m) is P(m) = P_1(m) at v^s, so the
substitution is applied to results.  Over Q[v,v^-1], the invariant factors
come from the Smith form of the k x k matrix [X] by Cauchy-Binet for
permanents (gram_field_invariants).  For the determinant, a P(m) that the
colour reversal i -> k-1-i fixes entrywise (checked on every call; in type A
it is the diagram automorphism) is split by a congruence into a plus and a
minus block of about half its size; the factor, or each block, is eliminated
once per m.  P(m) is Sym^m([X]) up to a diagonal of multiplicity factorials,
but det Sym^m = det^binom is the determinant theorem under test, so it is
never used: no closed determinant formula enters this computation.  Each P(m)
is computed once per process and ring, column by column: column c' is one
expansion of prod_{i in c'} (sum_j [X][j][i] e_j), whose coefficient of e^c
times prod_j mult_c(j)! is the permanent.  The expansion runs over Z in both
rings: over Z[v,v^-1] on [X]'s entries packed into ints, each entry of P(m)
decoded once.  The dense y-blocks are the Kronecker products
of the factors over the product's ring, and it reads only their nonzeros.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, product

from . import partitions as pt
from .linalg import _int_det_multimodular, laurent_det
from .qcartan import DynkinDiagram, quantized_cartan, type_a
from .qlaurent import (
    ONE, ZERO, LaurentPoly, _owned, _signed_pack, _slot_width, _unpack, _unpack_signed,
    power_product,
)
from .snf import snf_laurent_field, snf_of_diagonal


@lru_cache(maxsize=None)
def _multisets(colors: int, m: int) -> tuple[tuple[int, ...], ...]:
    # colour multisets of size m as descending tuples, in descending
    # lexicographic order: the rows of P_s(m) and the colours of the parts
    # of size s in the Gram index
    return tuple(combinations_with_replacement(range(colors - 1, -1, -1), m))


def permanent_matrix(a, s: int, m: int) -> tuple[tuple, ...]:
    """P_s(m) = (perm [X]_s[c, c']) for the k x k matrix a = [X], indexed by
    the colour multisets c, c' of size m in the order of _multisets, with
    entries in the ring of a's entries: Z[v,v^-1], or Z for [X] at v=1.  Only
    P(m) = P_1(m) is expanded: [X]_s is [X] at v^s, and v -> v^s commutes
    with permanents, so P_s(m) is P(m) at v^s (and at v=1, P(m) itself).

    A bijection from the positions of c to the positions of c' is a map from
    c' onto the colours of c, and each such map comes from prod_j mult_c(j)!
    bijections.  So column c' is one expansion of prod_{i in c'} (sum_j
    a[j][i] e_j) in commuting variables e_j, and entry (c, c') is the
    coefficient of e^c times prod_j mult_c(j)!.
    """
    # memoised per (a, its ring, s, m): LaurentPoly.const(c) == c, so a alone
    # would not tell [X] at v=1 from a constant Laurent matrix
    return _permanents(a, _one(a), s, m)


def _one(a):
    # the unit of the ring of a's entries: Z[v,v^-1], or Z at v=1
    return ONE if isinstance(a[0][0], LaurentPoly) else 1


@lru_cache(maxsize=None, typed=True)
def _permanents(a, one, s: int, m: int) -> tuple[tuple, ...]:
    """P_s(m) for [X] = a over the ring of one, as permanent_matrix gives it.

    Over Z the columns are expanded as they stand.  Over Z[v,v^-1] each
    entry of a is packed into one int, its coefficient of v^e in the W-bit
    slot e - lo, lo the lowest exponent in a: evaluation at v = 2^W after a
    shift by v^-lo, a ring map.  The same integer expansion then runs on the
    packed matrix, and each entry, a sum of products of m packed entries, is
    decoded once from its balanced slots, the slot k holding the
    coefficient of v^(k + m lo).  Each coefficient of a product of entries
    of the columns c' is at most the product of their columns' 1-norms, so
    one of P(m) is at most max_i |column i|_1^m times the multiplicity
    weight, at most m!; W is that bound's width with a sign bit, rounded up
    as `_slot_width` rounds, so no coefficient reaches into the next slot."""
    if s != 1:
        base = _permanents(a, one, 1, m)
        return tuple(tuple(_at_power(e, s) for e in row) for row in base)
    if one is not ONE:
        return _expand_permanents(a, m)
    nonzero = [e for row in a for e in row if e]
    lo = min((e.min_exp for e in nonzero), default=0)
    span = max((e.max_exp for e in nonzero), default=0) - lo + 1
    top = max(sum(sum(map(abs, x._terms.values())) for x in col) for col in zip(*a))
    width = _slot_width(2 * top**m * math.factorial(m) + 1)
    packed = tuple(tuple(_signed_pack(x._terms, lo, 1, span, width) for x in row) for row in a)
    slots = m * (span - 1) + 1

    def decoded(x: int) -> LaurentPoly:
        # most entries of a large P(m) are 0: the shared ZERO, undecoded
        if not x:
            return ZERO
        return _owned({j + m * lo: c for j, c in enumerate(_unpack_signed(x, width, slots)) if c})

    return tuple(tuple(map(decoded, row)) for row in _expand_permanents(packed, m))


def _expand_permanents(a, m: int) -> tuple[tuple[int, ...], ...]:
    # P(m) of the integer matrix a, column by column: entry (c, c') is the
    # coefficient of e^c in prod_{i in c'} (sum_j a[j][i] e_j) times
    # prod_j mult_c(j)!
    k = len(a)
    sets = _multisets(k, m)
    # per colour i, the nonzero entries a[j][i] of its linear form
    forms = [[(j, a[j][i]) for j in range(k) if a[j][i]] for i in range(k)]
    counts = [tuple(c.count(j) for j in range(k)) for c in sets]
    row_keys = [(u, math.prod(map(math.factorial, u))) for u in counts]
    cols = []
    for col in sets:
        expansion = {(0,) * k: 1}
        for i in col:
            nxt: dict[tuple[int, ...], int] = {}
            for mono, coeff in expansion.items():
                for j, x in forms[i]:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    term = coeff * x
                    nxt[key] = nxt[key] + term if key in nxt else term
            expansion = nxt
        cols.append([expansion[counts] * w if counts in expansion else 0 for counts, w in row_keys])
    return tuple(zip(*cols))


def _reversal(colors: int, m: int) -> tuple[int, ...]:
    # position in _multisets(colors, m) of each multiset's image under the
    # colour reversal i -> colors - 1 - i
    sets = _multisets(colors, m)
    pos = {c: i for i, c in enumerate(sets)}
    return tuple(pos[tuple(colors - 1 - i for i in reversed(c))] for c in sets)


def _reversal_split(f, sigma):
    """(plus, minus, pairs) for a square matrix f that the involution sigma of
    its index set fixes, f[sigma a][sigma b] == f[a][b] for all a, b (checked
    from the entries); None if it does not, or if sigma moves nothing.

    The congruence with the basis e_a + e_sigma(a) (one a per pair that sigma
    swaps), e_g (the indices it fixes), e_a - e_sigma(a) is block diagonal.
    plus is its first block, with entries |orbit a| sum_{b' in orbit b}
    f[a][b'], and minus its second block halved, f[a][b] - f[a][sigma b].
    The change of basis has determinant +-2^pairs, so

        det f = det(plus) det(minus) / 2^pairs.
    """
    n = len(f)
    if all(sigma[a] == a for a in range(n)) or any(
        f[sigma[a]][sigma[b]] != f[a][b] for a in range(n) for b in range(n)
    ):
        return None
    pairs = [a for a in range(n) if a < sigma[a]]
    reps = pairs + [a for a in range(n) if a == sigma[a]]
    plus = []
    for a in reps:
        row = [f[a][b] if b == sigma[b] else f[a][b] + f[a][sigma[b]] for b in reps]
        plus.append(row if a == sigma[a] else [2 * x for x in row])
    minus = [[f[a][b] - f[a][sigma[b]] for b in pairs] for a in pairs]
    return plus, minus, len(pairs)


def _mirrored(plus, minus, sign: int, signs: list[int]) -> bool:
    """Whether plus(-v) = 2 R minus(v) K for the halves of `_reversal_split`,
    R = sign diag(signs) and K = diag(signs), checked from the entries; then

        det plus(v) = 2^pairs det R det K det minus(-v),

    with det R det K = sign^pairs.  For [X] of A_k, [X](-v) = -T [X](v) T
    with T = diag((-1)^i), so P(m)(-v) = (-1)^m T_m P(m) T_m, T_m the sign
    (-1)^(colour sum) of each multiset; the reversal i -> k - 1 - i turns
    that sign by (-1)^(m(k-1)), and where m(k-1) is odd (no multiset is then
    fixed) this holds with sign = (-1)^m and signs those of the pairs."""
    return len(plus) == len(minus) and all(
        _at_minus_v(x) == y * (2 * sign * r * k)
        for prow, mrow, r in zip(plus, minus, signs)
        for x, y, k in zip(prow, mrow, signs)
    )


def _at_minus_v(p: LaurentPoly) -> LaurentPoly:
    # the ring map v -> -v
    return _owned({e: -c if e & 1 else c for e, c in p._terms.items()})


def y_pair(m1: pt.ColoredPartition, m2: pt.ColoredPartition, a) -> tuple[LaurentPoly, int]:
    """The pairing of two y-monomials under the k x k matrix a = [X] as
    (integer numerator, denominator), meaning numerator / denominator; zero
    unless the shapes agree.  The numerator is one entry of P_s(m_s) per part
    size s."""
    if pt.shape(m1) != pt.shape(m2):
        return ZERO, 1
    g2 = pt.group_by_size(m2)
    num = ONE
    den = 1
    for s, colors in pt.group_by_size(m1).items():
        m = len(colors)
        sets = _multisets(len(a), m)
        num = num * permanent_matrix(a, s, m)[sets.index(colors)][sets.index(g2[s])]
        den *= s**m
    return num, den


# ---------------------------------------------------------------------------
# the x-basis and its expansion into y-monomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _x_single(n: int, color: int) -> tuple[tuple[pt.ColoredPartition, int], ...]:
    # x_n = sum over partitions kappa of n of y_kappa / prod_u m_u(kappa)!,
    # as integer numerators over n! (each prod_u m_u(kappa)! divides n!)
    out = []
    for kappa in pt.enum_partitions(n):
        denom = math.prod(map(math.factorial, pt.mults(kappa).values()))
        cp = pt.colored_partition((k, color) for k in kappa)
        out.append((cp, math.factorial(n) // denom))
    return tuple(out)


@lru_cache(maxsize=None)
def x_monomial_expansion(cp: pt.ColoredPartition) -> tuple[int, dict[pt.ColoredPartition, int]]:
    """An x-monomial in the y-monomial basis, as (denominator, {y-monomial:
    integer numerator}): the product over its parts x_{n_i} of their
    expansions _x_single, with integer numerators summed over the common
    denominator prod_i n_i!.  That is the least common denominator: the
    numerator of prod_i (y_1^{(c_i)})^{n_i} is 1."""
    acc: dict[pt.ColoredPartition, int] = {(): 1}
    den = 1
    for s, c in cp:
        den *= math.factorial(s)
        single = _x_single(s, c)
        nxt: dict[pt.ColoredPartition, int] = {}
        for k1, v1 in acc.items():
            for k2, v2 in single:
                k = pt.merge_colored(k1, k2)
                nxt[k] = nxt.get(k, 0) + v1 * v2
        acc = nxt
    return den, acc


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class GramMatrix:
    """The Gram matrix, over Z[v,v^-1], of the pairing with k x k matrix
    a = [X] in degree d, indexed by colored partitions.

    It holds the layout of the index by shape and the x -> y change of basis
    T.  Its entries over Z[v,v^-1] (`entries`) and its value at v=1
    (`at_one()`) are each built by the sparse product _product over that ring
    the first time they are read, and kept; neither is derived from the
    other.  Its determinant is taken from the Kronecker factors (_kron_det)
    without building either."""

    def __init__(self, label: str, d: int, a):
        if d < 0:
            raise ValueError("d must be nonnegative")
        self.label = label
        self.d = d
        self.a = a
        self.shapes = pt.enum_partitions(d)
        # per shape: (s, m_s) for each distinct part size s, largest first
        self.factor_keys = {lam: tuple(pt.mults(lam).items()) for lam in self.shapes}
        # per shape: its members, the row-major product of the colour
        # multisets of each part size in factor_keys order, which is the
        # order of the Kronecker product of its factors
        self.block_members = {
            lam: [
                tuple((s, c) for (s, _), colors in zip(keys, combo) for c in colors)
                for combo in product(*(_multisets(len(a), m) for _, m in keys))
            ]
            for lam, keys in self.factor_keys.items()
        }
        self.index = tuple(chain.from_iterable(self.block_members.values()))
        self._c1: list[list[int]] | None = None  # C(1), built by at_one()

    @property
    def size(self) -> int:
        return len(self.index)

    def to_json(self) -> dict:
        return {
            "diagram": self.label,
            "d": self.d,
            "index": [[list(pair) for pair in cp] for cp in self.index],
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    # -- y-Gram blocks --------------------------------------------------------

    def y_blocks(self, a) -> dict:
        """Per shape: (denominator prod(s^m_s), dense block), the block being
        the Kronecker product of the factors permanent_matrix(a, s, m_s) over
        the distinct part sizes s in factor_keys order, the order in which
        block_members runs through the colour multisets.  a is [X], whose
        factors are P(m_s) at v^s, or [X] at v=1, whose integer factors are
        P(m_s) at v=1."""
        blocks = {}
        for lam, keys in self.factor_keys.items():
            fs = [permanent_matrix(a, s, m) for s, m in keys] or [permanent_matrix(a, 1, 0)]
            block = fs[0]
            for f in fs[1:]:
                # a zero entry is kept as it is, so zeros stay shared
                block = [[x and y and x * y for x in ra for y in rb] for ra in block for rb in f]
            blocks[lam] = math.prod(s**m for s, m in keys), block
        return blocks

    # -- the transition matrix x -> y ------------------------------------------

    def check_unitriangular(self) -> None:
        """The x->y change of basis must be unitriangular under any order
        refining 'strictly finer shape comes later'; verified, not assumed."""
        for cp in self.index:
            den, comb = x_monomial_expansion(cp)
            if comb.get(cp, None) != den:
                raise AssertionError(f"diagonal coefficient of {cp} is not 1")
            lam = pt.shape(cp)
            for other in comb:
                if other != cp and not pt.shape(other) < lam:
                    # shapes of d sorted descending lexicographically: a
                    # strict refinement must compare strictly smaller
                    raise AssertionError(f"{other} does not refine below {lam}")

    @cached_property
    def t_rows(self):
        """Per row i of T: [(y-column in the block, t_ia)] by shape, and L_i;
        per shape lam: N_lam, the largest 1-norm of a row on lam's columns."""
        local = {
            lam: {cp: k for k, cp in enumerate(members)}
            for lam, members in self.block_members.items()
        }
        supports = []
        scales = []
        norms: dict[pt.Partition, int] = {}
        for x in self.index:
            scale, exp = x_monomial_expansion(x)
            by_shape: dict[pt.Partition, list[tuple[int, int]]] = {}
            for cp, t in exp.items():
                lam = pt.shape(cp)
                by_shape.setdefault(lam, []).append((local[lam][cp], t))
            supports.append(by_shape)
            scales.append(scale)
            for lam, left in by_shape.items():
                norms[lam] = max(norms.get(lam, 0), sum(abs(t) for _, t in left))
        return supports, scales, norms

    # -- products ---------------------------------------------------------------

    def _product(self, blocks, pack, finish, zero) -> list[list]:
        """The Gram matrix on the x-basis as the sparse product G = T Y T^t,
        formed row by row (Gustavson's row-wise sparse product) in the ring
        of the y-blocks.

        T is the x -> y change of basis and Y the block-diagonal y-Gram
        matrix of blocks.  Row i of T is the integer vector t_i over its
        denominator L_i (x_monomial_expansion), and the block of shape lam
        times K / den_lam, K the lcm of the den_lam, has integer coefficients.
        For each shape lam in the support of row i, the half-product
        H = sum_a t_ia (K / den_lam) Y_lam[a] runs over the nonzero entries
        of the block rows, and each H[b] times t_jb is added to the
        accumulator of every row j >= i that holds y-column b of lam, found
        in an inverted index of T's columns.  So the work follows the
        nonzeros of T and Y.

        Every block entry y goes in as pack(y).  Entry (i, j) is
        finish(i, j, acc, K L_i L_j) for each accumulator acc that is not
        zero, stored symmetrically, and every other entry is zero."""
        common = math.lcm(*(den for den, _ in blocks.values()))
        supports, scales, _ = self.t_rows
        # per shape: K / den and the packed nonzero entries of each block row
        sparse = {
            lam: (common // den, [[(b, pack(y)) for b, y in enumerate(row) if y] for row in block])
            for lam, (den, block) in blocks.items()
        }
        n = len(self.index)
        rows = [[zero] * n for _ in range(n)]
        # per shape and y-column b: [(j, t_jb)] over the rows j >= i seen so far
        holders = {lam: [[] for _ in members] for lam, members in self.block_members.items()}
        for i in range(n - 1, -1, -1):
            support = supports[i]
            for lam, left in support.items():
                cols = holders[lam]
                for b, t in left:
                    cols[b].append((i, t))
            acc: dict[int, int] = {}
            for lam, left in support.items():
                weight, block_rows = sparse[lam]
                cols = holders[lam]
                halves: dict[int, int] = {}
                for a, t in left:
                    t *= weight
                    for b, y in block_rows[a]:
                        halves[b] = halves.get(b, 0) + t * y
                for b, h in halves.items():
                    for j, t in cols[b]:
                        acc[j] = acc.get(j, 0) + h * t
            for j, total in acc.items():
                if total:
                    rows[i][j] = rows[j][i] = finish(i, j, total, common * scales[i] * scales[j])
        return rows

    @cached_property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The Gram matrix over Z[v,v^-1]: _product on the y-blocks of [X].

        Every y-block entry, half-product and accumulator is one
        Kronecker-packed int: the coefficient of v^e, signed, sits in the
        W-bit slot e + E, where E is the largest |exponent| in Y, so adding
        two polynomials or scaling one by an integer is one big-integer
        operation.  No coefficient may reach into the next slot.  A
        coefficient of the half-product for lam is at most N_lam (K /
        den_lam) y_lam in absolute value, and one of an accumulator at most

            B = sum over lam of N_lam^2 (K / den_lam) y_lam,

        N_lam the largest 1-norm of a row of (t_i) on the y-columns of lam
        and y_lam the largest |coefficient| in Y_lam: the bound (max row
        1-norm of T)^2 max(K / den) max |y| taken shape by shape.  W is the
        bit length of B plus a sign bit, rounded up as `_slot_width`
        rounds, so a finished accumulator plus 2^(W-1) in every slot has
        every slot in [0, 2^W) and is read off whole by `_unpack`, with the
        one bias of every entry.

        Each finished accumulator is decoded once.  An entry that is not
        bar-invariant (its slots are not a palindrome) raises AssertionError.
        Otherwise entry (i, j) is the accumulator divided by K L_i L_j, slot
        by slot from v^0 up and mirrored to v^-1 down, and a remainder raises
        AssertionError.  The packing changes how the sums are stored, not
        their values, so these checks see the same coefficients as an
        unpacked sum would.  Every other entry is the shared ZERO.
        """
        blocks = self.y_blocks(self.a)
        common = math.lcm(*(den for den, _ in blocks.values()))
        norms = self.t_rows[2]
        # the packing: slot ex + top of W = 8 * width bits holds the
        # coefficient of v^ex (see above)
        terms = {
            lam: [y._terms for row in block for y in row if y._terms]
            for lam, (_, block) in blocks.items()
        }
        top = max(map(abs, chain.from_iterable(chain.from_iterable(terms.values()))), default=0)
        bound = sum(
            norms.get(lam, 0) ** 2
            * (common // den)
            * max(map(abs, chain.from_iterable(t.values() for t in terms[lam])), default=0)
            for lam, (den, _) in blocks.items()
        )
        width = _slot_width(2 * bound + 1)  # B and a sign bit
        bits = 8 * width
        slots = 2 * top + 1
        half = 1 << (bits - 1)
        bias = half * (((1 << (bits * slots)) - 1) // ((1 << bits) - 1))  # half in every slot

        def pack(y: LaurentPoly) -> int:
            return sum(c << bits * (ex + top) for ex, c in y._terms.items())

        def finish(i: int, j: int, packed: int, den_ij: int) -> LaurentPoly:
            coeffs = _unpack(packed + bias, width, slots)
            if coeffs != coeffs[::-1]:
                raise AssertionError(f"Gram entry {(i, j)} is not bar-invariant")
            entry_terms = {}
            for ex, x in enumerate(coeffs[top:]):
                if x != half:
                    entry_terms[ex] = entry_terms[-ex] = _entry_quotient(i, j, x - half, den_ij)
            # every coefficient is a nonzero int
            return _owned(entry_terms)

        return tuple(map(tuple, self._product(blocks, pack, finish, ZERO)))

    def at_one(self) -> list[list[int]]:
        """C(1), the same list at every call: _product on the integer
        y-blocks of [X] at v=1, with int accumulators.  Entry (i, j) is the
        accumulator divided by K L_i L_j, and a remainder raises
        AssertionError; no Laurent polynomial is formed or multiplied."""
        if self._c1 is None:
            self._c1 = self._product(self.y_blocks(_at_one(self.a)), int, _entry_quotient, 0)
        return self._c1

    def _kron_det(self, a):
        """The determinant of this matrix from the Kronecker factors of every
        shape, without building `entries` or `at_one()`, over the ring of a's
        entries: a is self.a = [X] for det G, or [X] at v=1 for det G at v=1.
        det(A (x) B) = det(A)^{dim B} det(B)^{dim A}, and the unitriangular
        change of basis contributes 1 (checked here).

        The ring picks the kernel: laurent_det over Z[v,v^-1], and its
        multi-modular integer kernel _int_det_multimodular at v=1.  P_s(m) is
        P(m) at v^s, so each P(m) = permanent_matrix(a, 1, m) is computed
        once, for every s: it is split by the colour reversal where
        _reversal_split finds that it fixes it, and the kernel eliminates
        each part (or the whole factor); the result is taken at v^s and
        raised once per (m, s) to its exponent summed over the shapes, and
        `power_product` folds the powers into the largest, each product over
        Z[v,v^-1] choosing between the dict and a Kronecker-packed one (see
        `LaurentPoly.__mul__`).  Over Z[v,v^-1], where the plus half is
        the image of the minus half under v -> -v (`_mirrored`, checked from
        the entries: m(k-1) odd for k colours), only the minus half is
        eliminated, and det P(m) = sign^pairs det minus(-v) det minus(v).
        That halves the kernel's work on P(3) at (7,3), 0.104 s on two
        28-row halves against 0.055 s on one, and on P(5) at (7,5), two
        halves of 126 rows (single runs, shared 2-core x86-64 machine,
        CPython 3.11)."""
        self.check_unitriangular()
        colors = len(a)
        laurent = _one(a) is ONE
        factor_det = laurent_det if laurent else _int_det_multimodular
        dets = {}
        # the exponent of P_s(m) = P(m) at v^s in the determinant, per (m, s)
        powers: dict[tuple[int, int], int] = {}
        den = 1
        for lam in self.shapes:
            keys = self.factor_keys[lam]
            sizes = [len(_multisets(colors, m)) for _, m in keys]
            dim = math.prod(sizes)
            for (s, m), size in zip(keys, sizes):
                if m not in dets:
                    values = permanent_matrix(a, 1, m)
                    sigma = _reversal(colors, m)
                    split = _reversal_split(values, sigma)
                    if split is None:
                        dets[m] = factor_det(values)
                    else:
                        plus, minus, pairs = split
                        sign = (-1) ** m
                        signs = [(-1) ** sum(c) for i, c in enumerate(_multisets(colors, m))
                                 if i < sigma[i]]
                        if laurent and _mirrored(plus, minus, sign, signs):
                            half = factor_det(minus)
                            dets[m] = _at_minus_v(half) * half * sign**pairs
                        else:
                            dets[m] = _divide_by_int(factor_det(plus) * factor_det(minus), 2**pairs)
                powers[m, s] = powers.get((m, s), 0) + dim // size
                den *= s ** (m * dim)
        num = power_product(((_at_power(dets[m], s), n) for (m, s), n in powers.items()), _one(a))
        return _divide_by_int(num, den)


def _entry_quotient(i: int, j: int, x: int, den: int) -> int:
    # a coefficient of Gram entry (i, j): x / den, which must be an integer
    q, r = divmod(x, den)
    if r:
        raise AssertionError(f"non-integral Gram entry at {(i, j)}: bug in the pairing")
    return q


def _at_one(a):
    # [X] at v=1: the integer matrix whose permanents are the P(m) at v=1
    return tuple(tuple(e.at_one() for e in row) for row in a)


def _at_power(x, s: int):
    # x at v^s; an integer, a value at v=1, is unchanged
    return x if isinstance(x, int) else x.subst_power(s)


def _divide_by_int(x, q: int):
    """x / q for an integer or a LaurentPoly x, which q must divide exactly
    (AssertionError otherwise)."""
    if isinstance(x, int):
        out, r = divmod(x, q)
        if r:
            raise AssertionError(f"determinant not divisible by {q}")
        return out
    return LaurentPoly({e: _divide_by_int(c, q) for e, c in x})


def gram_matrix(dg: DynkinDiagram, d: int) -> GramMatrix:
    """The Gram matrix of the degree-d weight space on the lattice x-basis.

    For dg = A_{ell-1} this is the graded Cartan matrix of a weight-d block
    at quantum characteristic ell.
    """
    return GramMatrix(dg.label(), d, quantized_cartan(dg))


def cartan_graded(ell: int, d: int) -> GramMatrix:
    """C^v_{ell,d} with the type-A label attached."""
    return GramMatrix(f"ell={ell}", d, quantized_cartan(type_a(ell)))


def gram_det(dg: DynkinDiagram, d: int) -> LaurentPoly:
    """Exact determinant of gram_matrix(dg, d).

    Exploits the run-time-verified unitriangular change of basis and the
    Kronecker-factored shape blocks (GramMatrix._kron_det on [X]).  det P(m)
    is computed once, and det P_s(m) is it at v^s: where the colour reversal
    fixes P(m) (checked, see _reversal_split), laurent_det (evaluation mod p,
    F_p elimination, Newton interpolation, CRT under a Hadamard bound) runs on
    its plus and minus blocks, or on the minus block alone where the plus
    block is its image under v -> -v (checked, see _mirrored), else on the
    whole factor.  No closed
    determinant formula is consulted; in particular not det Sym^m =
    det^binom, which is under test.
    """
    g = gram_matrix(dg, d)
    return g._kron_det(g.a)


def gram_det_at_one(dg: DynkinDiagram, d: int) -> int:
    """Exact determinant of gram_matrix(dg, d) at v=1, which v -> v^s fixes,
    so one result per P(m) serves every s.  GramMatrix._kron_det, handed [X]
    at v=1, expands each P(m) at v=1 over Z (the factors GramMatrix.at_one
    reads), and for that integer ring runs the multi-modular kernel of
    laurent_det (F_p elimination, CRT, symmetric lift under a Hadamard bound)
    on it or on the two blocks of its colour reversal split; no Laurent
    polynomial is multiplied and no closed formula is involved."""
    g = gram_matrix(dg, d)
    return g._kron_det(_at_one(g.a))


def gram_field_invariants(dg: DynkinDiagram, d: int):
    """Invariant factors of gram_matrix(dg, d) over Q[v,v^-1].

    Rationals are units of Q[v,v^-1], so the unitriangular change of basis
    (GramMatrix.check_unitriangular) and the per-block denominators are
    unimodular: the Gram matrix is equivalent to the direct sum of the
    Kronecker products of the permanent matrices P_s(m_s) over its
    factor_keys.  Over a principal ideal domain the Smith form of A (x) B is
    that of diag(a_i b_j), a and b those of A and B.

    No P_s(m) is eliminated.  Cauchy-Binet for permanents (Minc, Permanents,
    1978) gives P_m(AB) = P_m(A) W^-1 P_m(B) for P_m(A) = (perm A[c, c']) on
    the colour multisets of size m, W = diag(prod_j mult_c(j)!) a unit; so
    P_m(U) is invertible with U.  Hence U [X] V = D makes P_s(m) equivalent
    to P_m(D) = W diag(prod_{i in c} D_i) at v^s, since v -> v^s keeps units
    and divisibility: [X] is eliminated once (snf_laurent_field).  No
    product is expanded: each diagonal entry goes to snf_of_diagonal as its
    tuple of factors D_i at v^s, over the parts of the shape, and the factor
    refinement runs on the few distinct ones.
    """
    g = gram_matrix(dg, d)
    g.check_unitriangular()
    # at d = 0 there is no factor to read the Smith form of [X]
    smith = snf_laurent_field(g.a).elements if d else ()
    factor_invs = {
        (s, m): [tuple(smith[i].subst_power(s) for i in c) for c in _multisets(dg.nodes, m)]
        for s, m in set(chain.from_iterable(g.factor_keys.values()))
    }
    invs = [
        tuple(chain.from_iterable(values))
        for keys in g.factor_keys.values()
        for values in product(*(factor_invs[key] for key in keys))
    ]
    return snf_of_diagonal(invs)


# ---------------------------------------------------------------------------
# block sums over all blocks of a symmetric-group algebra
# ---------------------------------------------------------------------------


class BlockSum(pt.Record):
    """The direct sum of C^v_{ell,d} over the blocks of rank n: `blocks` is a
    tuple of (BlockLabel, GramMatrix) pairs."""

    __slots__ = ("ell", "n", "blocks")

    @property
    def size(self) -> int:
        return sum(g.size for _, g in self.blocks)

    def matrix(self) -> list[list[LaurentPoly]]:
        n = self.size
        out = [[ZERO] * n for _ in range(n)]
        off = 0
        for _, g in self.blocks:
            for i in range(g.size):
                for j in range(g.size):
                    out[off + i][off + j] = g.entries[i][j]
            off += g.size
        return out

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "n": self.n,
            "blocks": [
                {"label": lbl.to_json(), "gram": g.to_json()} for lbl, g in self.blocks
            ],
        }


def block_sum(n: int, ell: int) -> BlockSum:
    """One Gram matrix per block (rho, d) of rank n; the core only sets the
    label, the matrix depends on the weight alone."""
    out = []
    cache: dict[int, GramMatrix] = {}
    for lbl in pt.blocks(n, ell):
        if lbl.weight not in cache:
            cache[lbl.weight] = cartan_graded(ell, lbl.weight)
        out.append((lbl, cache[lbl.weight]))
    return BlockSum(ell, n, tuple(out))


# ---------------------------------------------------------------------------
# the Schur orthonormality oracle on the Gram matrix of the K-pairing
# ---------------------------------------------------------------------------


_K_PAIRING = ((ONE,),)


@lru_cache(maxsize=None)
def schur_in_x(lam: pt.Partition) -> tuple[tuple[pt.Partition, int], ...]:
    """The Schur element as an integer polynomial in the x_n: the Jacobi-Trudi
    determinant det(x_{lam_i - i + j}), with x_0 = 1 and x_m = 0 for m < 0,
    by Laplace expansion along the rows.  Row i pairs with each column j not
    yet used, with the sign (-1)^k when j is the k-th of those columns
    (counting from 0), times the expansion of the later rows on the columns
    that remain; an empty minor is 1."""
    acc: dict[pt.Partition, int] = {}

    def expand(row: int, cols: tuple[int, ...], sign: int, parts: tuple):
        if not cols:
            key = tuple(sorted(filter(None, parts), reverse=True))
            acc[key] = acc.get(key, 0) + sign
        for k, col in enumerate(cols):
            m = lam[row] - row + col
            if m >= 0:
                expand(row + 1, cols[:k] + cols[k + 1 :], (-1) ** k * sign, parts + (m,))

    expand(0, tuple(range(len(lam))), 1, ())
    return tuple((k, v) for k, v in acc.items() if v)


def schur_orthonormality(nmax: int) -> bool:
    """Check S G S^t = I exactly over Z[v,v^-1] for every n <= nmax.

    G is the degree-n Gram matrix of the K-pairing ((ONE,),), one colour
    with weight 1, under which x_n is the complete homogeneous h_n and the
    pairing is the Hall inner product: G is the matrix of <h_lam, h_mu>, a
    GramMatrix like every Cartan Gram matrix.  Row lam of S holds the
    coefficients of the Jacobi-Trudi element schur_in_x(lam) on G's
    x-monomials.  The entries are compared as Laurent polynomials, so a
    stray power of v fails the check instead of vanishing at v=1."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    for n in range(nmax + 1):
        g = GramMatrix("K", n, _K_PAIRING)
        pos = {tuple(s for s, _ in cp): k for k, cp in enumerate(g.index)}
        rows = [[(pos[mu], c) for mu, c in schur_in_x(lam)] for lam in pt.enum_partitions(n)]
        for i, si in enumerate(rows):
            half = [sum((g.entries[a][b] * c for a, c in si), ZERO) for b in range(g.size)]
            for j in range(i, len(rows)):
                if sum((half[b] * c for b, c in rows[j]), ZERO) != (ONE if i == j else ZERO):
                    return False
    return True
