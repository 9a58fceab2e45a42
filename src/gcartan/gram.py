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

a product of permanents, one per part size.  Everything is assembled over
exact rationals; entries of the Gram matrix on the x-basis are asserted to
be integral, symmetric, and bar-invariant.

For type A_{ell-1} the resulting matrix IS the graded Cartan matrix of a
weight-d block at quantum characteristic ell.

The determinant has a fast exact route: the x-to-y change of basis is
unitriangular (verified at run time, not assumed), and the y-Gram matrix is
block diagonal over underlying partitions, so det G is the product of the
block determinants, each computed by generic fraction-free elimination.  No
closed determinant formula enters this computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from . import partitions as pt
from .linalg import laurent_det
from .qcartan import DynkinDiagram, quantized_cartan, type_a
from .qlaurent import ONE, ZERO, LaurentPoly


# ---------------------------------------------------------------------------
# pairing families A^{(s)}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanPairing:
    """A^{(s)} = [X]_s: the quantized Cartan family of a finite diagram."""

    diagram: DynkinDiagram

    @property
    def colors(self) -> int:
        return self.diagram.nodes

    def matrix(self, s: int):
        return quantized_cartan(self.diagram, s).entries


@dataclass(frozen=True)
class IdentityPairing:
    """A^{(s)} = (1): the single-color pairing with trivial weights."""

    @property
    def colors(self) -> int:
        return 1

    def matrix(self, s: int):
        return ((ONE,),)


def _permanent(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Permanent by subset dynamic programming, O(n 2^n) ring operations."""
    n = len(rows)
    if n == 0:
        return ONE
    f = [ZERO] * (1 << n)
    f[0] = ONE
    for mask in range(1, 1 << n):
        i = mask.bit_count() - 1
        acc = ZERO
        rest = mask
        while rest:
            low = rest & (-rest)
            j = low.bit_length() - 1
            e = rows[i][j]
            if not e.is_zero:
                prev = f[mask ^ low]
                if not prev.is_zero:
                    acc = acc + e * prev
            rest ^= low
        f[mask] = acc
    return f[(1 << n) - 1]


@lru_cache(maxsize=None)
def _group_permanent(pairing, s: int, c1: tuple, c2: tuple) -> LaurentPoly:
    # the permanent only depends on the two color multisets; A^{(s)} is
    # symmetric, so the key can be ordered
    if c2 < c1:
        c1, c2 = c2, c1
    a = pairing.matrix(s)
    return _permanent([[a[i][j] for j in c2] for i in c1])


def _pair_by_size(pairing, g1: dict, g2: dict) -> tuple[LaurentPoly, int]:
    # the y-pairing of two monomials of one shape, given by their colors
    # grouped by part size: one permanent and one factor s^{m_s} per size
    num = ONE
    den = 1
    for s, colors1 in g1.items():
        num = num * _group_permanent(pairing, s, colors1, g2[s])
        den *= s ** len(colors1)
    return num, den


def y_pair(m1: pt.ColoredPartition, m2: pt.ColoredPartition, pairing) -> tuple[LaurentPoly, int]:
    """The pairing of two y-monomials as (integer numerator, denominator),
    meaning numerator / denominator; zero unless the shapes agree."""
    if pt.shape(m1) != pt.shape(m2):
        return ZERO, 1
    return _pair_by_size(pairing, pt.group_by_size(m1), pt.group_by_size(m2))


# ---------------------------------------------------------------------------
# the x-basis and its expansion into y-monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XExpansion:
    """An x-basis monomial written in the y-monomial basis."""

    index: pt.ColoredPartition
    combination: Mapping[pt.ColoredPartition, Fraction]


@lru_cache(maxsize=None)
def _x_single(n: int, color: int) -> tuple[tuple[pt.ColoredPartition, Fraction], ...]:
    # x_n = sum over partitions kappa of n of y_kappa / prod_u m_u(kappa)!
    out = []
    for kappa in pt.enum_partitions(n):
        denom = 1
        for m in pt.mults(kappa).values():
            denom *= math.factorial(m)
        cp = pt.colored_partition((k, color) for k in kappa)
        out.append((cp, Fraction(1, denom)))
    return tuple(out)


def x_expand(n: int, color: int = 0) -> XExpansion:
    """The expansion of a single generator x_n^{(color)}."""
    if n < 1:
        raise ValueError("n must be positive")
    return XExpansion(((n, color),), dict(_x_single(n, color)))


@lru_cache(maxsize=None)
def x_monomial_expansion(cp: pt.ColoredPartition) -> XExpansion:
    """The multiplicative extension of x_expand to an x-monomial."""
    acc: dict[pt.ColoredPartition, Fraction] = {(): Fraction(1)}
    for s, c in cp:
        single = _x_single(s, c)
        nxt: dict[pt.ColoredPartition, Fraction] = {}
        for k1, v1 in acc.items():
            for k2, v2 in single:
                k = pt.merge_colored(k1, k2)
                nxt[k] = nxt.get(k, Fraction(0)) + v1 * v2
        acc = nxt
    return XExpansion(cp, acc)


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

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i][j]

    def at_one(self) -> list[list[int]]:
        return [[e.at_one() for e in row] for row in self.entries]

    def to_json(self) -> dict:
        return {
            "diagram": self.label,
            "d": self.d,
            "index": [[list(pair) for pair in cp] for cp in self.index],
            "entries": [e.to_json() for row in self.entries for e in row],
        }

    @staticmethod
    def from_json(obj: dict) -> "GramMatrix":
        index = tuple(tuple((int(s), int(c)) for s, c in cp) for cp in obj["index"])
        n = len(index)
        flat = [LaurentPoly.from_json(e) for e in obj["entries"]]
        rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        return GramMatrix(obj["diagram"], obj["d"], index, rows)


class _Assembly:
    """Shared state for building one Gram matrix and its determinant."""

    def __init__(self, dg: DynkinDiagram, d: int):
        self.diagram = dg
        self.d = d
        self.pairing = CartanPairing(dg)
        self.index = pt.enum_colored(d, dg.nodes)
        self.shapes = pt.enum_partitions(d)
        self.block_members = {
            lam: [cp for cp in self.index if pt.shape(cp) == lam] for lam in self.shapes
        }
        self._blocks: dict[pt.Partition, tuple[int, list[list[LaurentPoly]]]] | None = None

    # -- y-Gram blocks --------------------------------------------------------

    def y_blocks(self) -> dict:
        """Per shape: (denominator prod(s^m_s), integer permanent matrix)."""
        if self._blocks is None:
            self._blocks = {
                lam: _y_block(self.pairing, members)
                for lam, members in self.block_members.items()
            }
        return self._blocks

    # -- the transition matrix x -> y ------------------------------------------

    def expansions(self) -> list[dict]:
        return [dict(x_monomial_expansion(cp).combination) for cp in self.index]

    def check_unitriangular(self) -> None:
        """The x->y change of basis must be unitriangular under any order
        refining 'strictly finer shape comes later'; verified, not assumed."""
        for cp, exp in zip(self.index, self.expansions()):
            comb = x_monomial_expansion(cp).combination
            if comb.get(cp, None) != 1:
                raise AssertionError(f"diagonal coefficient of {cp} is not 1")
            lam = pt.shape(cp)
            for other in comb:
                if other != cp and not pt.shape(other) < lam:
                    # shapes of d sorted descending lexicographically: a
                    # strict refinement must compare strictly smaller
                    raise AssertionError(f"{other} does not refine below {lam}")

    # -- products ---------------------------------------------------------------

    def matrix(self) -> GramMatrix:
        blocks = self.y_blocks()
        local = {
            lam: {cp: k for k, cp in enumerate(members)}
            for lam, members in self.block_members.items()
        }
        supports = []
        for exp in self.expansions():
            by_shape: dict[pt.Partition, list[tuple[int, Fraction]]] = {}
            for cp, coeff in exp.items():
                by_shape.setdefault(pt.shape(cp), []).append((local[pt.shape(cp)][cp], coeff))
            supports.append(by_shape)

        n = len(self.index)
        rows: list[list[LaurentPoly]] = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            si = supports[i]
            for j in range(i, n):
                sj = supports[j]
                acc: dict[int, Fraction] = {}
                for lam, left in si.items():
                    right = sj.get(lam)
                    if right is None:
                        continue
                    den, block = blocks[lam]
                    for a, ta in left:
                        row = block[a]
                        for b, tb in right:
                            e = row[b]
                            if e.is_zero:
                                continue
                            w = ta * tb / den
                            for ex, c in e._terms.items():
                                acc[ex] = acc.get(ex, 0) + c * w
                entry_terms = {}
                for ex, c in acc.items():
                    if c:
                        if c.denominator != 1:
                            raise AssertionError(
                                f"non-integral Gram entry at {(i, j)}: bug in the pairing"
                            )
                        entry_terms[ex] = c.numerator
                e = LaurentPoly(entry_terms)
                if not e.is_bar_invariant():
                    raise AssertionError(f"Gram entry {(i, j)} is not bar-invariant")
                rows[i][j] = e
                rows[j][i] = e
        return GramMatrix(
            self.diagram.label(), self.d, self.index, tuple(tuple(r) for r in rows)
        )

    def det(self) -> LaurentPoly:
        """det G = prod over shapes of det(y-block): the change of basis is
        unitriangular, so it contributes determinant 1 (checked above)."""
        self.check_unitriangular()
        num = ONE
        den = 1
        for lam in self.shapes:
            d_block, block = self.y_blocks()[lam]
            num = num * laurent_det(block)
            den *= d_block ** len(block)
        out = {}
        for e, c in num.terms.items():
            q, r = divmod(c, den)
            if r:
                raise AssertionError("block determinant product is not integral")
            out[e] = q
        return LaurentPoly(out)

    def det_at_one(self) -> int:
        """det G evaluated at v=1, via integer elimination per block."""
        from .linalg import int_det

        self.check_unitriangular()
        num = 1
        den = 1
        for lam in self.shapes:
            d_block, block = self.y_blocks()[lam]
            num *= int_det([[e.at_one() for e in row] for row in block])
            den *= d_block ** len(block)
        q, r = divmod(num, den)
        if r:
            raise AssertionError("block determinant product is not integral")
        return q


def _y_block(pairing, members: list) -> tuple[int, list[list[LaurentPoly]]]:
    # all members share one shape, hence one denominator
    k = len(members)
    groups = [pt.group_by_size(cp) for cp in members]
    den = 1
    block = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            p, den = _pair_by_size(pairing, groups[i], groups[j])
            block[i][j] = p
            block[j][i] = p
    return den, block


def gram_matrix(dg: DynkinDiagram, d: int) -> GramMatrix:
    """The Gram matrix of the degree-d weight space on the lattice x-basis.

    For dg = A_{ell-1} this is the graded Cartan matrix of a weight-d block
    at quantum characteristic ell.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return _Assembly(dg, d).matrix()


def cartan_graded(ell: int, d: int) -> GramMatrix:
    """C^v_{ell,d} with the type-A label attached."""
    g = gram_matrix(type_a(ell), d)
    return GramMatrix(f"ell={ell}", d, g.index, g.entries)


def gram_det(dg: DynkinDiagram, d: int, method: str = "factored") -> LaurentPoly:
    """Exact determinant of gram_matrix(dg, d).

    "factored" exploits the run-time-verified unitriangular change of basis
    and block structure; "dense" runs Bareiss elimination on the assembled
    matrix.  Both are generic exact algorithms; neither consults any closed
    determinant formula.
    """
    asm = _Assembly(dg, d)
    if method == "factored":
        return asm.det()
    if method == "dense":
        return laurent_det(asm.matrix().entries)
    raise ValueError(f"unknown method {method!r}")


def gram_det_at_one(dg: DynkinDiagram, d: int) -> int:
    """Exact determinant of the Gram matrix at v=1 (integer elimination per
    block; no closed formula involved)."""
    return _Assembly(dg, d).det_at_one()


def gram_field_invariants(dg: DynkinDiagram, d: int):
    """Invariant factors of gram_matrix(dg, d) over Q[v,v^-1].

    Rational numbers are units of Q[v,v^-1], so the unitriangular change of
    basis (runtime-checked) and the per-block scalar denominators are both
    unimodular: the Gram matrix is equivalent to the direct sum of the
    integer y-pairing blocks.  Each small block is eliminated generically and
    the block invariants are recombined by snf_of_diagonal.  Elimination
    on the assembled matrix itself suffers catastrophic coefficient swell
    beyond ~15 rows; this route is exact and fast, and the two are
    cross-checked on small cases in the test suite.
    """
    from .snf import snf_laurent_field, snf_of_diagonal

    asm = _Assembly(dg, d)
    asm.check_unitriangular()
    invs = []
    for lam in asm.shapes:
        _, block = asm.y_blocks()[lam]
        invs.extend(snf_laurent_field(block).elements)
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

    def at_one(self) -> list[list[int]]:
        return [[e.at_one() for e in row] for row in self.matrix()]

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
# the single-color K-pairing and the Schur orthonormality oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _xexp_shape(lam: pt.Partition) -> tuple[tuple[pt.Partition, Fraction], ...]:
    exp = x_monomial_expansion(pt.colored_partition((k, 0) for k in lam)).combination
    return tuple((pt.shape(cp), c) for cp, c in exp.items())


@lru_cache(maxsize=None)
def _k_weight(lam: pt.Partition) -> Fraction:
    # <y_lam, y_lam>_K = prod_s m_s! / s^{m_s}
    out = Fraction(1)
    for s, m in pt.mults(lam).items():
        out *= Fraction(math.factorial(m), s**m)
    return out


def _to_y_shape(f: Mapping[pt.Partition, int]) -> dict[pt.Partition, Fraction]:
    out: dict[pt.Partition, Fraction] = {}
    for lam, c in f.items():
        if not c:
            continue
        for mu, w in _xexp_shape(tuple(lam)):
            out[mu] = out.get(mu, Fraction(0)) + c * w
    return {k: v for k, v in out.items() if v}


def k_pair(f: Mapping[pt.Partition, int], g: Mapping[pt.Partition, int]) -> LaurentPoly:
    """The K-pairing of two single-color x-polynomials (dicts partition -> int).

    The derivation weights are all 1, so this is y_pair with the 1x1 identity
    family, extended bilinearly through the x-expansion.
    """
    fy = _to_y_shape(f)
    gy = _to_y_shape(g)
    acc = Fraction(0)
    for lam, cf in fy.items():
        cg = gy.get(lam)
        if cg is not None:
            acc += cf * cg * _k_weight(lam)
    if acc.denominator != 1:
        raise AssertionError("K-pairing of lattice elements must be an integer")
    return LaurentPoly.const(acc.numerator)


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
    """Check k_pair(s_lam, s_mu) = delta for all lam, mu of size <= nmax."""
    for n in range(nmax + 1):
        pars = pt.enum_partitions(n)
        schurs = [dict(schur_in_x(lam)) for lam in pars]
        for i, si in enumerate(schurs):
            for j in range(i, len(schurs)):
                want = 1 if i == j else 0
                if k_pair(si, schurs[j]) != LaurentPoly.const(want):
                    return False
    return True
