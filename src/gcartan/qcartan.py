"""Finite ADE and twisted affine diagram data, quantized Cartan matrices,
their determinants, the exponent formulas, and irreducibility criteria.

Node numbering follows the diagrams in the source tables this package is
built around: A_n is the path 1..n; D_m is the path 1..(m-2) with both m-1
and m attached to m-2; E_6/E_7 attach the last node to node 3 of a path;
E_8 attaches node 8 to node 5 of a path of 7.  Internally nodes are 0-based.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from . import partitions as pt
from .linalg import laurent_det
from .qlaurent import (
    ONE,
    LaurentPoly,
    kss_bracket,
    normalize_unit,
    quantum_int,
    su_bracket,
    vanishes_at_primitive_root,
)


@dataclass(frozen=True)
class DynkinDiagram:
    """A finite simply-laced diagram: A_n (n>=1), D_m (m>=4), E_6/E_7/E_8."""

    family: Literal["A", "D", "E"]
    rank: int

    def __post_init__(self):
        f, r = self.family, self.rank
        if f == "A" and r >= 1:
            return
        if f == "D" and r >= 4:
            return
        if f == "E" and r in (6, 7, 8):
            return
        raise ValueError(f"invalid diagram {f}_{r}")

    @property
    def nodes(self) -> int:
        return self.rank

    def edges(self) -> tuple[tuple[int, int], ...]:
        r = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(r - 1))
        if self.family == "D":
            return tuple((i, i + 1) for i in range(r - 2)) + ((r - 3, r - 1),)
        branch = {6: 2, 7: 2, 8: 4}[r]
        return tuple((i, i + 1) for i in range(r - 2)) + ((branch, r - 1),)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.nodes
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in self.edges():
            m[i][j] = m[j][i] = -1
        return tuple(tuple(row) for row in m)

    def classical_det(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 4
        return {6: 3, 7: 2, 8: 1}[self.rank]

    def label(self) -> str:
        return f"{self.family}:{self.rank}"

    def __str__(self) -> str:
        return f"{self.family}_{self.rank}"


def type_a(ell: int) -> DynkinDiagram:
    """A_{ell-1}, the diagram whose affinization governs quantum char. ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return DynkinDiagram("A", ell - 1)


@lru_cache(maxsize=None)
def quantized_cartan(dg: DynkinDiagram, s: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of [X]_s = ([a_ij]_s): entrywise quantum integers of the
    Cartan matrix."""
    return tuple(tuple(quantum_int(x, s) for x in row) for row in dg.cartan_matrix())


@lru_cache(maxsize=None)
def det_quantized(dg: DynkinDiagram, s: int) -> LaurentPoly:
    """det [X]_s, exactly: det [X]_1 by laurent_det, at v^s.  [n]_s(v) =
    [n](v^s), so [X]_s is [X]_1 under the ring map v -> v^s, which commutes
    with determinants."""
    if s != 1:
        return det_quantized(dg, 1).subst_power(s)
    return laurent_det(quantized_cartan(dg, 1))


# ---------------------------------------------------------------------------
# exponent formulas
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _exponents_binomial(f: tuple[int, ...], d: int) -> tuple[int, ...]:
    # N_s = sum over partitions lam of d of
    #       (m_s(lam)/f_s) * prod_u C(m_u + f_u - 1, m_u),
    # with f_u = f[u - 1] >= 1 colors for the parts of size u, computed in the
    # rearranged integer form
    #       C(m_s + f_s - 1, m_s - 1) * prod_{u != s} C(m_u + f_u - 1, m_u).
    out = [0] * (d + 1)
    for lam in pt.enum_partitions(d):
        ms = pt.mults(lam)
        full = 1
        for u, m in ms.items():
            full *= math.comb(m + f[u - 1] - 1, m)
        for s, m in ms.items():
            top = m + f[s - 1] - 1
            out[s] += math.comb(top, m - 1) * (full // math.comb(top, m))
    return tuple(out)


@lru_cache(maxsize=None)
def _part_counts(k: int) -> tuple[int, ...]:
    # entry s is sum over lam of k of m_s(lam), the parts of size s in Par(k)
    counts = Counter(s for lam in pt.enum_partitions(k) for s in lam)
    return tuple(counts[s] for s in range(k + 1))


@lru_cache(maxsize=None)
def _exponents_multipartition(colors: int, d: int) -> tuple[int, ...]:
    # N_s = sum over colors-tuples of partitions with total size d of
    # m_s(lam_1); marginalizing the other components counts them with
    # multiplicity u(colors-1, d-|lam_1|)
    out = [0] * (d + 1)
    for k in range(d + 1):
        rest = pt.u_count(colors - 1, d - k)
        if rest:
            for s, m in enumerate(_part_counts(k)):
                out[s] += m * rest
    return tuple(out)


def exponent_formulas_agree(colors: int, d: int) -> bool:
    """Whether the two closed forms of N agree at every step s of degree d."""
    return _exponents_binomial((colors,) * d, d) == _exponents_multipartition(colors, d)


def exponent_N(colors: int, d: int, s: int) -> int:
    """The determinant exponent N for `colors` node colors, degree d, step s.

    Evaluates both closed forms — the binomial-product sum over Par(d) and
    the multipartition sum — and insists they agree; their equality is the
    content of the determinant theorem's displayed double formula.
    """
    if colors < 1:
        raise ValueError("colors must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    if s < 1:
        raise ValueError("s must be >= 1")
    if s > d:
        return 0
    a = _exponents_binomial((colors,) * d, d)[s]
    b = _exponents_multipartition(colors, d)[s]
    if a != b:
        raise AssertionError(
            f"exponent formulas disagree at colors={colors}, d={d}, s={s}: {a} != {b}"
        )
    return a


def _power_product(factor, exponents) -> LaurentPoly:
    """prod_{s=1}^{d} factor(s)^{exponents[s - 1]}, skipping zero exponents."""
    out = ONE
    for s, n in enumerate(exponents, 1):
        if n:
            out = out * factor(s) ** n
    return out


def shapovalov_det_formula(dg: DynkinDiagram, d: int) -> LaurentPoly:
    """prod_{s=1}^{d} (det [X]_s)^{N_{|I|,d,s}} as an explicit Laurent polynomial."""
    if d < 0:
        raise ValueError("d must be >= 0")
    exponents = [exponent_N(dg.nodes, d, s) for s in range(1, d + 1)]
    return _power_product(lambda s: det_quantized(dg, s), exponents)


# ---------------------------------------------------------------------------
# irreducibility of the specialized basic representation
# ---------------------------------------------------------------------------


def irreducible_at(dg: DynkinDiagram, ell: int, mode: str = "closed_form") -> bool:
    """Whether the level-1 module stays irreducible at a primitive ell-th root.

    closed_form: gcd(ell, 2n) in {1, 2} for A_{n-1}; ell not divisible by
    4 / 3 / 4 / 60 for D_m / E_6 / E_7 / E_8.

    exact: no det [X]_k vanishes at zeta = exp(2*pi*i/ell).  Since v^ell = 1
    modulo Phi_ell(v), the value of [n]_k there depends only on k mod ell, so
    1 <= k <= ell suffices.  And [n]_k(v) = [n]_1(v^k), so det [X]_k(zeta) =
    det [X]_1(zeta^k), where zeta^k is a primitive m-th root for m =
    ell / gcd(ell, k): det [X]_1 is tested at every divisor m of ell, by
    exact division by Phi_m (`vanishes_at_primitive_root`).  Both reductions
    are unit-tested.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if mode == "closed_form":
        if dg.family == "A":
            return math.gcd(ell, 2 * (dg.rank + 1)) in (1, 2)
        if dg.family == "D":
            return ell % 4 != 0
        divisor = {6: 3, 7: 4, 8: 60}[dg.rank]
        return ell % divisor != 0
    if mode == "exact":
        det = det_quantized(dg, 1)
        return not any(
            vanishes_at_primitive_root(det, m) for m in range(1, ell + 1) if ell % m == 0
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# twisted affine types: the conjectured determinant formula and the folding
# consistency check for its table data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedDiagram:
    """A twisted affine ADE diagram.

    kinds: "A2_odd" (n>=3) is A^(2)_{2n-1}, "A2_even" (n>=1) is A^(2)_{2n},
    "D2" (n>=1) is D^(2)_{n+1}, "E6_2" is E^(2)_6, "D4_3" is D^(3)_4.
    """

    kind: Literal["A2_odd", "A2_even", "D2", "E6_2", "D4_3"]
    n: int = 0

    def __post_init__(self):
        k, n = self.kind, self.n
        if k == "A2_odd" and n >= 3:
            return
        if k in ("A2_even", "D2") and n >= 1:
            return
        if k in ("E6_2", "D4_3") and n == 0:
            return
        raise ValueError(f"invalid twisted diagram {k} with n={n}")

    @property
    def twist(self) -> int:
        """r: the order of the twist."""
        return 3 if self.kind == "D4_3" else 2

    @property
    def epsilon(self) -> int:
        """The distinguished node label carried by the highest weight."""
        return self.n if self.kind == "A2_even" else 0

    def table(self) -> tuple[int, int, LaurentPoly, LaurentPoly]:
        """(n, k, alpha, beta) from the conjecture's table."""
        n = self.n
        if self.kind == "A2_odd":
            return n, n - 1, quantum_int(2, n), quantum_int(n)
        if self.kind == "A2_even":
            return n, n, su_bracket(2 * n + 1), quantum_int(2 * n + 1)
        if self.kind == "D2":
            return n, 1, quantum_int(2, n), quantum_int(2)
        if self.kind == "E6_2":
            return 4, 2, kss_bracket(3, 2), quantum_int(3)
        return 2, 1, su_bracket(3), quantum_int(2)  # D4_3

    def gamma(self, s: int) -> LaurentPoly:
        nn, kk, alpha, beta = self.table()
        return (alpha if s % self.twist == 0 else beta).subst_power(s)

    def f(self, s: int) -> int:
        nn, kk, _, _ = self.table()
        return nn if s % self.twist == 0 else kk

    # finite-part Cartan data (for the folding check; not defined for A2_even)

    def finite_cartan(self) -> tuple[tuple[int, ...], ...]:
        if self.kind == "A2_odd":  # type C_n: long root at the end
            n = self.n
            m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                m[i][i + 1] = m[i + 1][i] = -1
            m[n - 2][n - 1] = -2
            return tuple(tuple(r) for r in m)
        if self.kind == "D2":  # type B_n: short root at the end
            n = self.n
            m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                m[i][i + 1] = m[i + 1][i] = -1
            if n >= 2:
                m[n - 1][n - 2] = -2
            return tuple(tuple(r) for r in m)
        if self.kind == "E6_2":  # type F_4, short roots first
            return ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
        if self.kind == "D4_3":  # type G_2, short root first
            return ((2, -3), (-1, 2))
        raise ValueError("A^(2)_{2n} has no folding data here")

    def d_weights(self) -> tuple[int, ...]:
        """d_i = a_i^v / a_i on the finite part (the symmetrizer of B)."""
        if self.kind == "A2_odd":
            return tuple([1] * (self.n - 1) + [2])
        if self.kind == "D2":
            return tuple([2] * (self.n - 1) + [1])
        if self.kind == "E6_2":
            return (1, 1, 2, 2)
        if self.kind == "D4_3":
            return (1, 3)
        raise ValueError("A^(2)_{2n} has no folding data here")

    def __str__(self) -> str:
        return {
            "A2_odd": f"A^(2)_{2 * self.n - 1}",
            "A2_even": f"A^(2)_{2 * self.n}",
            "D2": f"D^(2)_{self.n + 1}",
            "E6_2": "E^(2)_6",
            "D4_3": "D^(3)_4",
        }[self.kind]


def twisted_det_formula(td: TwistedDiagram, d: int) -> LaurentPoly:
    """The CONJECTURAL twisted determinant prod_{s=1}^{d} gamma_{X,s}^{N_{X,d,s}},
    where N_{X,d,s} = sum_lam (m_s(lam)/f_s) prod_i C(f_i - 1 + m_i, m_i) is
    the binomial exponent sum with f_i = f_{X,i}.

    This evaluates a conjectured closed formula; no twisted Gram matrix is
    computed anywhere in this package.
    """
    f = tuple(td.f(i) for i in range(1, d + 1))
    return _power_product(td.gamma, _exponents_binomial(f, d)[1:])


def folding_det_check(td: TwistedDiagram, t: int) -> bool:
    """Validate the twisted table against the folded finite Cartan data.

    Builds Y^(t) over I(t) = {i : d_i | t} with diagonal [B_ii]_t and
    off-diagonal B_ij, and checks det Y^(t) = gamma_{X,t} up to the canonical
    unit together with f_{X,t} = |I(t)|.
    """
    if td.kind == "A2_even":
        raise ValueError("the folding construction excludes A^(2)_{2n}")
    if t < 1:
        raise ValueError("t must be >= 1")
    b = td.finite_cartan()
    dw = td.d_weights()
    sel = [i for i in range(len(dw)) if t % dw[i] == 0]
    if td.f(t) != len(sel):
        return False
    y = [
        [quantum_int(2, t) if i == j else LaurentPoly.const(b[i][j]) for j in sel]
        for i in sel
    ]
    det = laurent_det(y)
    gamma = td.gamma(t)
    if det == gamma:
        return True
    if det.is_zero or gamma.is_zero:
        return False
    return normalize_unit(det)[1] == normalize_unit(gamma)[1]


# ---------------------------------------------------------------------------
# label parsing (shared by the CLI and the JSON encodings)
# ---------------------------------------------------------------------------


def parse_diagram(text: str) -> DynkinDiagram | TwistedDiagram:
    """Parse "A:4", "D:5", "E:7", "tA2:3", "tA2e:2", "tD2:4", "tE6", "tD4"."""
    text = text.strip()
    if text == "tE6":
        return TwistedDiagram("E6_2")
    if text == "tD4":
        return TwistedDiagram("D4_3")
    if ":" in text:
        head, _, num = text.partition(":")
        try:
            n = int(num)
        except ValueError:
            raise ValueError(f"bad diagram rank in {text!r}") from None
        kinds = {"tA2": "A2_odd", "tA2e": "A2_even", "tD2": "D2"}
        if head in kinds:
            return TwistedDiagram(kinds[head], n)
        if head in ("A", "D", "E"):
            return DynkinDiagram(head, n)
    raise ValueError(f"unrecognized diagram label {text!r}")
