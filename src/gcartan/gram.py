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
([a_ij]_m) is [X] = ([a_ij]) at v^m, so a pairing is one matrix:
CartanPairing takes the quantized Cartan matrix [X] of a finite diagram, and
IdentityPairing is one colour with weight 1, the K-pairing, under which x_n
is the complete homogeneous h_n and the pairing is the Hall inner product.
One assembly, _Assembly, takes a pairing and builds the Gram matrix of
either kind.

The Gram matrix on the x-basis is G = T Y T^t, with T the x-to-y change of
basis (rational, sparse, unitriangular; each row is kept as integer
numerators over one denominator) and Y the block-diagonal y-Gram matrix.
It is formed row by row as a sparse product: for each row i and each
shape in its support, the half-product t_i Y runs over the nonzero
entries of the block rows, and is scattered through an inverted index of
T's columns into the rows j >= i that share a y-column with it.  Everything
accumulates in integers over one common denominator per entry; each entry
is checked to be integral and bar-invariant, and is stored symmetrically.

For type A_{ell-1} the resulting matrix IS the graded Cartan matrix of a
weight-d block at quantum characteristic ell.  For IdentityPairing it is the
matrix of <h_lam, h_mu>, on which schur_orthonormality checks S G S^t = I
exactly, S the Jacobi-Trudi rows of the Schur elements.

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
is computed once per process, column by column: column c' is one expansion of
prod_{i in c'} (sum_j [X][j][i] e_j), whose coefficient of e^c times prod_j
mult_c(j)! is the permanent.  The dense y-blocks, built only for the full
matrix, are the Kronecker products of the factors; the sparse product reads
only their nonzero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product

from . import partitions as pt
from .linalg import _int_det_multimodular, laurent_det
from .qcartan import DynkinDiagram, quantized_cartan, type_a
from .qlaurent import ONE, ZERO, LaurentPoly
from .snf import _slot_width, _unpack, snf_laurent_field, snf_of_diagonal


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanPairing:
    """[X] = [X]_1: the quantized Cartan matrix of a finite diagram."""

    diagram: DynkinDiagram

    @property
    def colors(self) -> int:
        return self.diagram.nodes

    @property
    def label(self) -> str:
        return self.diagram.label()

    def matrix(self):
        return quantized_cartan(self.diagram, 1)


@dataclass(frozen=True)
class IdentityPairing:
    """(1): the single-color pairing with trivial weight, the K-pairing (the
    Hall inner product, with x_n = h_n)."""

    @property
    def colors(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return "K"

    def matrix(self):
        return ((ONE,),)


@lru_cache(maxsize=None)
def _multisets(colors: int, m: int) -> tuple[tuple[int, ...], ...]:
    # colour multisets of size m as descending tuples, in descending
    # lexicographic order: the rows of P_s(m) and the colours of the parts
    # of size s in the Gram index
    return tuple(combinations_with_replacement(range(colors - 1, -1, -1), m))


@lru_cache(maxsize=None)
def permanent_matrix(pairing, s: int, m: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """P_s(m) = (perm [X]_s[c, c']), indexed by the colour multisets c, c' of
    size m in the order of _multisets; memoised per (pairing, s, m).  Only
    P(m) = P_1(m) is expanded: [X]_s is [X] at v^s, and v -> v^s commutes
    with permanents, so P_s(m) is P(m) at v^s.

    A bijection from the positions of c to the positions of c' is a map from
    c' onto the colours of c, and each such map comes from prod_j mult_c(j)!
    bijections.  So column c' is one expansion of prod_{i in c'} (sum_j
    [X][j][i] e_j) in commuting variables e_j, and entry (c, c') is the
    coefficient of e^c times prod_j mult_c(j)!.
    """
    if s != 1:
        base = permanent_matrix(pairing, 1, m)
        return tuple(tuple(e.subst_power(s) for e in row) for row in base)
    a = pairing.matrix()
    k = pairing.colors
    sets = _multisets(k, m)
    # per colour i, the nonzero entries a[j][i] of its linear form
    forms = [[(j, a[j][i]) for j in range(k) if not a[j][i].is_zero] for i in range(k)]
    row_keys = []
    for c in sets:
        counts = tuple(c.count(j) for j in range(k))
        row_keys.append((counts, math.prod(math.factorial(u) for u in counts)))
    cols = []
    for col in sets:
        expansion = {(0,) * k: ONE}
        for i in col:
            nxt: dict[tuple[int, ...], LaurentPoly] = {}
            for mono, coeff in expansion.items():
                for j, x in forms[i]:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    term = coeff * x
                    nxt[key] = nxt[key] + term if key in nxt else term
            expansion = nxt
        cols.append(
            [expansion[counts] * w if counts in expansion else ZERO for counts, w in row_keys]
        )
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


def y_pair(m1: pt.ColoredPartition, m2: pt.ColoredPartition, pairing) -> tuple[LaurentPoly, int]:
    """The pairing of two y-monomials as (integer numerator, denominator),
    meaning numerator / denominator; zero unless the shapes agree.  The
    numerator is one entry of P_s(m_s) per part size s."""
    if pt.shape(m1) != pt.shape(m2):
        return ZERO, 1
    g2 = pt.group_by_size(m2)
    num = ONE
    den = 1
    for s, colors in pt.group_by_size(m1).items():
        m = len(colors)
        sets = _multisets(pairing.colors, m)
        num = num * permanent_matrix(pairing, s, m)[sets.index(colors)][sets.index(g2[s])]
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
        denom = 1
        for m in pt.mults(kappa).values():
            denom *= math.factorial(m)
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


@dataclass(frozen=True)
class GramMatrix:
    """A Gram matrix indexed by colored partitions, over Z[v,v^-1]."""

    label: str
    d: int
    index: tuple[pt.ColoredPartition, ...]
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.index)

    def at_one(self) -> list[list[int]]:
        return [[0 if e is ZERO else e.at_one() for e in row] for row in self.entries]

    def to_json(self) -> dict:
        return {
            "diagram": self.label,
            "d": self.d,
            "index": [[list(pair) for pair in cp] for cp in self.index],
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }


class _Assembly:
    """Shared state for building the Gram matrix of one pairing family in
    degree d, and its determinant."""

    def __init__(self, pairing, d: int):
        self.pairing = pairing
        self.d = d
        self.shapes = pt.enum_partitions(d)
        # per shape: (s, m_s) for each distinct part size s, largest first
        self.factor_keys = {lam: tuple(pt.mults(lam).items()) for lam in self.shapes}
        # per shape: its members, the row-major product of the colour
        # multisets of each part size in factor_keys order, which is the
        # order of the Kronecker product of its factors
        self.block_members = {
            lam: [
                tuple((s, c) for (s, _), colors in zip(keys, combo) for c in colors)
                for combo in product(*(_multisets(pairing.colors, m) for _, m in keys))
            ]
            for lam, keys in self.factor_keys.items()
        }
        self.index = tuple(chain.from_iterable(self.block_members.values()))

    # -- y-Gram blocks --------------------------------------------------------

    def y_blocks(self) -> dict:
        """Per shape: (denominator prod(s^m_s), dense integer block), the block
        being the Kronecker product of the factors P_s(m_s) = permanent_matrix,
        P(m_s) at v^s, over the distinct part sizes s in factor_keys order,
        the order in which block_members runs through the colour multisets;
        only the full matrix needs these."""
        blocks = {}
        for lam, keys in self.factor_keys.items():
            fs = [permanent_matrix(self.pairing, s, m) for s, m in keys] or [((ONE,),)]
            block = fs[0]
            for f in fs[1:]:
                block = [
                    [x * y if x and y else ZERO for x in ra for y in rb]
                    for ra in block
                    for rb in f
                ]
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

    # -- products ---------------------------------------------------------------

    def matrix(self) -> GramMatrix:
        """The Gram matrix on the x-basis as the sparse product G = T Y T^t,
        formed row by row (Gustavson's row-wise sparse product).

        T is the x -> y change of basis and Y the block-diagonal y-Gram
        matrix of y_blocks.  Row i of T is the integer vector t_i over its
        denominator L_i (x_monomial_expansion), and the block of shape lam
        times K / den_lam, K the lcm of the den_lam, is an integer matrix.
        For each shape lam in the support of row i, the half-product
        H = sum_a t_ia (K / den_lam) Y_lam[a] runs over the nonzero entries
        of the block rows, and each H[b] times t_jb is added to the
        accumulator of every row j >= i that holds y-column b of lam, found
        in an inverted index of T's columns.  So the work follows the
        nonzeros of T and Y.

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
        bit length of B plus a sign bit, rounded up as `snf._slot_width`
        rounds, so a finished accumulator plus 2^(W-1) in every slot has
        every slot in [0, 2^W) and is read off whole by `snf._unpack`.

        Only the accumulators that received a contribution are finished,
        each decoded once.  An entry that is not bar-invariant (its slots are
        not a palindrome) raises AssertionError.  Otherwise entry (i, j) is
        the accumulator divided by K L_i L_j, slot by slot from v^0 up and
        mirrored to v^-1 down, and a remainder raises AssertionError.  The
        packing changes how the sums are stored, not their values, so these
        checks see the same coefficients as an unpacked sum would.  Every
        other entry is the shared ZERO.
        """
        blocks = self.y_blocks()
        common = math.lcm(*(den for den, _ in blocks.values()))
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
        # per shape: K / den and the packed nonzero entries of each block row
        sparse = {
            lam: (
                common // den,
                [
                    [
                        (b, sum(c << bits * (ex + top) for ex, c in y._terms.items()))
                        for b, y in enumerate(row)
                        if y._terms
                    ]
                    for row in block
                ],
            )
            for lam, (den, block) in blocks.items()
        }

        n = len(self.index)
        rows: list[list[LaurentPoly]] = [[ZERO] * n for _ in range(n)]
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
            for j, packed in acc.items():
                if not packed:
                    continue
                den_ij = common * scales[i] * scales[j]
                coeffs = _unpack(packed + bias, width, slots)
                if coeffs != coeffs[::-1]:
                    raise AssertionError(f"Gram entry {(i, j)} is not bar-invariant")
                entry_terms = {}
                for ex, x in enumerate(coeffs[top:]):
                    if x != half:
                        q, r = divmod(x - half, den_ij)
                        if r:
                            raise AssertionError(
                                f"non-integral Gram entry at {(i, j)}: bug in the pairing"
                            )
                        entry_terms[ex] = entry_terms[-ex] = q
                # every coefficient is a nonzero int: skip the constructor's checks
                e = LaurentPoly.__new__(LaurentPoly)
                e._terms = entry_terms
                rows[i][j] = e
                rows[j][i] = e
        return GramMatrix(self.pairing.label, self.d, self.index, tuple(tuple(r) for r in rows))

    def _kron_det(self, evaluate, factor_det, one):
        """det G from the Kronecker factors of every shape:
        det(A (x) B) = det(A)^{dim B} det(B)^{dim A}, and the unitriangular
        change of basis contributes 1 (checked here).

        P_s(m) is P(m) at v^s, so each P(m) is computed once, for every s:
        its entries are mapped by evaluate, split by the colour reversal where
        _reversal_split finds that it fixes them, and factor_det eliminates
        each part (or the whole factor); the result is taken at v^s."""
        self.check_unitriangular()
        colors = self.pairing.colors
        dets = {}
        num = one
        den = 1
        for lam in self.shapes:
            keys = self.factor_keys[lam]
            sizes = [len(_multisets(colors, m)) for _, m in keys]
            dim = math.prod(sizes)
            for (s, m), size in zip(keys, sizes):
                if m not in dets:
                    values = evaluate(permanent_matrix(self.pairing, 1, m))
                    split = _reversal_split(values, _reversal(colors, m))
                    if split is None:
                        dets[m] = factor_det(values)
                    else:
                        plus, minus, pairs = split
                        dets[m] = _divide_by_int(factor_det(plus) * factor_det(minus), 2**pairs)
                num = num * _at_power(dets[m], s) ** (dim // size)
                den *= s ** (m * dim)
        return _divide_by_int(num, den)

    def det(self) -> LaurentPoly:
        """det G = prod over shapes of the Kronecker-factored block
        determinants, each base factor P(m), or each half of its colour
        reversal split, by the generic multi-modular determinant
        (laurent_det: evaluation mod p, F_p elimination, Newton
        interpolation, CRT under a Hadamard bound), at v^s for each s.  The
        identity det Sym^m = det^binom is never used: it is under test."""
        return self._kron_det(lambda f: f, laurent_det, ONE)

    def det_at_one(self) -> int:
        """det G at v=1, which v -> v^s fixes: each P(m) is evaluated at v=1
        before it is split, and each part goes to the multi-modular kernel
        of laurent_det (F_p elimination modulo primes sized to a Hadamard
        bound, symmetric lift)."""
        return self._kron_det(
            lambda f: [[e.at_one() for e in row] for row in f], _int_det_multimodular, 1
        )


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
    if d < 0:
        raise ValueError("d must be nonnegative")
    return _Assembly(CartanPairing(dg), d).matrix()


def cartan_graded(ell: int, d: int) -> GramMatrix:
    """C^v_{ell,d} with the type-A label attached."""
    g = gram_matrix(type_a(ell), d)
    return GramMatrix(f"ell={ell}", d, g.index, g.entries)


def gram_det(dg: DynkinDiagram, d: int) -> LaurentPoly:
    """Exact determinant of gram_matrix(dg, d).

    Exploits the run-time-verified unitriangular change of basis and the
    Kronecker-factored shape blocks.  det P(m) is computed once, and
    det P_s(m) is it at v^s: where the colour reversal fixes P(m) (checked, see
    _reversal_split), laurent_det (evaluation and interpolation modulo primes
    sized to a Hadamard bound) runs on its plus and minus blocks, else on the
    whole factor.  No closed determinant formula is consulted.
    """
    return _Assembly(CartanPairing(dg), d).det()


def gram_det_at_one(dg: DynkinDiagram, d: int) -> int:
    """Exact determinant of the Gram matrix at v=1: the multi-modular kernel
    of laurent_det (F_p elimination, CRT, symmetric lift under a Hadamard
    bound) on each base factor P(m) at v=1, or on the two blocks of its
    colour reversal split; no closed formula involved."""
    return _Assembly(CartanPairing(dg), d).det_at_one()


def gram_field_invariants(dg: DynkinDiagram, d: int):
    """Invariant factors of gram_matrix(dg, d) over Q[v,v^-1].

    Rationals are units of Q[v,v^-1], so the unitriangular change of basis
    (runtime-checked) and the per-block denominators are unimodular: the
    Gram matrix is equivalent to the direct sum of the Kronecker products of
    the permanent matrices P_s(m_s).  Over a principal ideal domain the Smith
    form of A (x) B is that of diag(a_i b_j), a and b those of A and B.

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
    asm = _Assembly(CartanPairing(dg), d)
    asm.check_unitriangular()
    smith = snf_laurent_field(quantized_cartan(dg, 1)).elements
    factor_invs = {
        (s, m): [tuple(smith[i].subst_power(s) for i in c) for c in _multisets(dg.nodes, m)]
        for s, m in set(chain.from_iterable(asm.factor_keys.values()))
    }
    invs = [
        tuple(chain.from_iterable(values))
        for keys in asm.factor_keys.values()
        for values in product(*(factor_invs[key] for key in keys))
    ]
    return snf_of_diagonal(invs)


# ---------------------------------------------------------------------------
# block sums over all blocks of a symmetric-group algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSum:
    """The direct sum of C^v_{ell,d} over the blocks of rank n."""

    ell: int
    n: int
    blocks: tuple[tuple[pt.BlockLabel, GramMatrix], ...]

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
# the Schur orthonormality oracle on the K-Gram matrix of IdentityPairing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def schur_in_x(lam: pt.Partition) -> tuple[tuple[pt.Partition, int], ...]:
    """The Schur element as an integer polynomial in the x_n, by the
    determinant det(x_{lam_i - i + j}) with x_0 = 1 and x_m = 0 for m < 0."""
    lam = tuple(lam)
    L = len(lam)
    if L == 0:
        return (((), 1),)
    acc: dict[pt.Partition, int] = {}

    def expand(row: int, used: int, sign: int, parts: tuple):
        if row == L:
            key = tuple(sorted(parts, reverse=True))
            acc[key] = acc.get(key, 0) + sign
            return
        local = 0  # cofactor sign tracks the index among the unused columns
        for col in range(L):
            bit = 1 << col
            if used & bit:
                continue
            m = lam[row] - (row + 1) + (col + 1)
            if m >= 0:
                s = sign if local % 2 == 0 else -sign
                expand(row + 1, used | bit, s, parts + ((m,) if m > 0 else ()))
            local += 1

    expand(0, 0, 1, ())
    return tuple((k, v) for k, v in acc.items() if v)


def schur_orthonormality(nmax: int) -> bool:
    """Check S G S^t = I exactly over Z[v,v^-1] for every n <= nmax.

    G is the degree-n Gram matrix of IdentityPairing, built by the same
    assembly as every Cartan Gram matrix; row lam of S holds the coefficients
    of the Jacobi-Trudi element schur_in_x(lam) on G's x-monomials.  The
    entries are compared as Laurent polynomials, so a stray power of v fails
    the check instead of vanishing at v=1."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    for n in range(nmax + 1):
        g = _Assembly(IdentityPairing(), n).matrix()
        pos = {tuple(s for s, _ in cp): k for k, cp in enumerate(g.index)}
        rows = [[(pos[mu], c) for mu, c in schur_in_x(lam)] for lam in pt.enum_partitions(n)]
        for i, si in enumerate(rows):
            half = [sum((g.entries[a][b] * c for a, c in si), ZERO) for b in range(g.size)]
            for j in range(i, len(rows)):
                if sum((half[b] * c for b, c in rows[j]), ZERO) != (ONE if i == j else ZERO):
                    return False
    return True
