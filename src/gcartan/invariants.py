"""Closed-form graded Cartan invariants and the multiset identities that
support them.

Covers the ungraded block invariants I_{p,r} and r_ell, their graded
refinements I^v_{p,r} and r^v_{p,r}, the product invariant Q_ell, the
conjectured right-hand multisets, and independent verifiers for every
identity tying them together.  Verifiers always build both sides by direct
enumeration, sharing nothing beyond the partition primitives.

Boundary convention, used throughout and forced by the proven identities
(e.g. the Bessenrodt-Hill multiset identity at ell=3, n=3): the multiset
attached to a weight-d block includes the boundary term s=0, contributing
u(ell-2, d) unit invariants.  With it every multiset has cardinality equal
to the matrix dimension u(ell-1, d) and the n=0 degenerate cases hold as
stated; without it the proven identities themselves fail.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import partitions as pt
from . import snf as snf_mod
from .gram import cartan_graded, gram_det, gram_field_invariants
from .qcartan import exponent_N, type_a
from .qlaurent import LaurentPoly, QProduct, bracket_product


# ---------------------------------------------------------------------------
# closed-form invariants
# ---------------------------------------------------------------------------


def _check_p_r(p: int, r: int) -> None:
    """The invariants I_{p,r} and I^v_{p,r} are defined for prime p and
    r >= 1 only: ValueError otherwise."""
    if not pt.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if r < 1:
        raise ValueError("r must be >= 1")


def hill_invariant(p: int, r: int, lam: pt.Partition) -> int:
    """I_{p,r}(lam): the power of p with
    log_p = sum over n not in p^r Z of ((r - nu_p(n)) m_n + sum_t floor(m_n / p^t))."""
    _check_p_r(p, r)
    ell = p**r
    e = 0
    for n, m in pt.mults(lam).items():
        if n % ell == 0:
            continue
        e += (r - pt.p_adic_split(n, p)[1]) * m + pt.factorial_valuation(m, p)
    return p**e


def _graded_hill_factors(p: int, r: int, lam: pt.Partition) -> tuple[tuple[int, int], ...]:
    # the bracket parameters (n, s) with I^v = prod [n]_s
    ell = p**r
    out = []
    for n, m in sorted(pt.mults(lam).items()):
        if n % ell == 0:
            continue
        nun = pt.p_adic_split(n, p)[1]
        for k in range(1, m + 1):
            ak, nuk = pt.p_adic_split(k, p)
            out.append((p ** (r + nuk - nun), ak * p**nun))
    return tuple(out)


def graded_hill(p: int, r: int, lam: pt.Partition) -> LaurentPoly:
    """I^v_{p,r}(lam) = prod over n not in p^r Z, 1 <= k <= m_n(lam) of
    [p^{r + nu_p(k) - nu_p(n)}]_{a_p(k) p^{nu_p(n)}}, expanded by
    `bracket_product` from the same factors `verify_conjcheck` compares in
    factored form.  At v=1 this is I_{p,r}."""
    _check_p_r(p, r)
    return bracket_product(_graded_hill_factors(p, r, lam))


def kor_invariant(ell: int, lam: pt.Partition) -> int:
    """r_ell(lam) = prod over k not in ell*Z of
    (ell/gcd(ell,k))^floor(m_k/ell) * floor(m_k/ell)!_{PRS(ell/gcd(ell,k))}."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    out = 1
    for k, m in pt.mults(lam).items():
        if k % ell == 0:
            continue
        f = m // ell
        if f:
            base = ell // math.gcd(ell, k)
            out *= base**f
            for q in pt.prime_divisors(base):
                out *= q ** pt.factorial_valuation(f, q)
    return out


def graded_kor(p: int, r: int, lam: pt.Partition) -> LaurentPoly:
    """r^v_{p,r}(lam) = prod over k not in ell*Z, 1 <= t <= floor(m_k/ell) of
    [p^{r - nu_p(k) + nu_p(t)}]_{a_p(t) p^{nu_p(k)}} with ell = p^r.

    The k-product is restricted to k not divisible by ell (on class-regular
    partitions, the only ones the conjecture quantifies over, there are no
    such parts anyway); with this reading the identity
    r^v_{p,r} = I^v_{p,r} o RED_ell holds for every partition.
    """
    _check_p_r(p, r)
    ell = p**r
    factors = []
    for k, m in pt.mults(lam).items():
        if k % ell == 0:
            continue
        nuk = pt.p_adic_split(k, p)[1]
        for t in range(1, m // ell + 1):
            at, nut = pt.p_adic_split(t, p)
            factors.append((p ** (r - nuk + nut), at * p**nuk))
    return bracket_product(factors)


def asy_Q(ell: int, lam: pt.Partition) -> LaurentPoly:
    """Q_ell(lam) = prod over n not in ell*Z, 1 <= k <= m_n(lam) of
    [ell^{1 + nu_ell(k)}]_{a_ell(k)}."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    factors = []
    for n, m in pt.mults(lam).items():
        if n % ell == 0:
            continue
        for k in range(1, m + 1):
            ak, nuk = pt.p_adic_split(k, ell)
            factors.append((ell ** (1 + nuk), ak))
    return bracket_product(factors)


def composite_hill(ell: int, lam: pt.Partition) -> int:
    """I_ell(lam) = prod over prime divisors p of ell of I_{p, nu_p(ell)}(lam)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return math.prod(
        hill_invariant(p, pt.p_adic_split(ell, p)[1], lam) for p in pt.prime_divisors(ell)
    )


# ---------------------------------------------------------------------------
# right-hand multisets (with the s=0 boundary term)
# ---------------------------------------------------------------------------


def _weighted_partitions(ell: int, d: int) -> Iterator[tuple[pt.Partition, int]]:
    """(lam, multiplicity u(ell-2, d-s)) over 0 <= s <= d, lam in Par(s)."""
    for s in range(d + 1):
        mult = pt.u_count(ell - 2, d - s)
        if mult:
            for lam in pt.enum_partitions(s):
                yield lam, mult


def _weighted_values(value, ell: int, d: int) -> list:
    """value(lam) for each (lam, mult) of `_weighted_partitions`, repeated
    mult times."""
    out = []
    for lam, mult in _weighted_partitions(ell, d):
        out.extend([value(lam)] * mult)
    return out


def graded_hill_values(p: int, r: int, d: int) -> list[LaurentPoly]:
    """The conjectured diagonal entries for C^v_{p^r, d}, with multiplicity."""
    return _weighted_values(lambda lam: graded_hill(p, r, lam), p**r, d)


def hill_values(p: int, r: int, d: int) -> list[int]:
    return _weighted_values(lambda lam: hill_invariant(p, r, lam), p**r, d)


def bracket_product_values(ell: int, d: int) -> list[LaurentPoly]:
    """The theorem-backed field-ring diagonal: prod_i [ell]_i^{m_i(lam)}."""
    return _weighted_values(lambda lam: bracket_product((ell, i) for i in lam), ell, d)


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------


def verify_conjcheck(p: int, r: int, dmax: int) -> bool:
    """prod_s [ell]_s^{N_{ell,d,s}} = prod_{s,lam} I^v_{p,r}(lam)^{u(ell-2,d-s)}
    for every d <= dmax, compared exactly as QProducts: each side is a v-power
    times prod_N (v^N - 1)^{f_N}, equal exactly when the data are (direct
    expansion is infeasible at the required exponents)."""
    _check_p_r(p, r)
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    ell = p**r
    for d in range(dmax + 1):
        lhs = QProduct()
        for s in range(1, d + 1):
            lhs.mul_bracket(ell, s, exponent_N(ell - 1, d, s))
        rhs = QProduct()
        for lam, mult in _weighted_partitions(ell, d):
            for n, s in _graded_hill_factors(p, r, lam):
                rhs.mul_bracket(n, s, mult)
        if lhs != rhs:
            return False
    return True


def verify_tsaigo(p: int, r: int, d: int, u: int) -> bool:
    """The valuation multiset identity: over lam in Par(d), parts n not
    divisible by p^r and 1 <= k <= m_n(lam) with a_p(k) = u, the multisets
    {nu_p(n)} and {nu_p(k) % r} coincide.

    Parts divisible by p^r are excluded: the proposition's proof factors
    through the CUT_{p^r} multiset (which removes them), and the identity is
    false without the exclusion.
    """
    _check_p_r(p, r)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if u < 1 or u % p == 0:
        raise ValueError("u must be a positive integer not divisible by p")
    ell = p**r
    left: Counter = Counter()
    right: Counter = Counter()
    for lam in pt.enum_partitions(d):
        for n, m in pt.mults(lam).items():
            if n % ell == 0:
                continue
            nun = pt.p_adic_split(n, p)[1]
            for k in range(1, m + 1):
                ak, nuk = pt.p_adic_split(k, p)
                if ak == u:
                    left[nun] += 1
                    right[nuk % r] += 1
    return left == right


def _blockwise_equals_class_regular(ell: int, n: int, blockwise, class_regular) -> bool:
    """Whether {blockwise(lam)} over the weighted partitions of every block of
    rank n equals {class_regular(lam) : lam in CRP_ell(n)} as multisets.  The
    class-regular side goes first: it refuses an ell below 2 with ValueError."""
    right = Counter(class_regular(lam) for lam in pt.enum_class_regular(n, ell))
    left: Counter = Counter()
    for b in pt.blocks(n, ell):
        for lam, mult in _weighted_partitions(ell, b.weight):
            left[blockwise(lam)] += mult
    return left == right


def verify_saigo2(ell: int, n: int) -> bool:
    """CUT images over all blocks match RED images of class-regular partitions."""
    return _blockwise_equals_class_regular(
        ell, n, lambda lam: pt.cut(lam, ell), lambda lam: pt.red(lam, ell)
    )


def verify_bhmulti(ell: int, n: int) -> bool:
    """Bessenrodt-Hill: {r_ell(lam) : lam class-regular} equals the blockwise
    composite Hill multiset."""
    return _blockwise_equals_class_regular(
        ell, n, lambda lam: composite_hill(ell, lam), lambda lam: kor_invariant(ell, lam)
    )


def verify_conjequiv(p: int, r: int, n: int) -> bool:
    """The graded multiset identity: blockwise I^v values equal
    {r^v_{p,r}(lam) : lam class-regular}, as exact Laurent polynomials."""
    return _blockwise_equals_class_regular(
        p**r, n, lambda lam: graded_hill(p, r, lam), lambda lam: graded_kor(p, r, lam)
    )


# ---------------------------------------------------------------------------
# decomposition of the CUT multiset into inflated Psi blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BunkaitoComponent:
    weight: int  # e, with multiplicity p(e)
    pairs: tuple  # ((d_j, a_j), ...) with distinct p'-parts d_j
    multiplicity: int


@dataclass(frozen=True)
class BunkaitoReport:
    components: tuple[BunkaitoComponent, ...]
    total: int
    verified: bool


def _types(m: int, p: int, min_d: int = 1) -> Iterator[tuple[tuple[int, int], ...]]:
    # sets of (d_j, a_j) with distinct p-coprime d_j >= min_d and sum d_j a_j = m
    if m == 0:
        yield ()
        return
    for dj in range(min_d, m + 1):
        if dj % p == 0:
            continue
        for aj in range(1, m // dj + 1):
            for rest in _types(m - dj * aj, p, dj + 1):
                yield ((dj, aj),) + rest


def bunkaito_decompose(p: int, r: int, d: int) -> BunkaitoReport:
    """Decompose S^{p,r}_d = {CUT_{p^r}(lam) != empty : lam in Par(d)} as a
    disjoint union of Sort(prod_j INFL_{d_j}(Psi^{p,r}_{a_j})) blocks and
    verify the multiset equality against the direct construction."""
    _check_p_r(p, r)
    if d < 1:
        raise ValueError("d must be positive")
    ell = p**r
    direct: Counter = Counter()
    for lam in pt.enum_partitions(d):
        c = pt.cut(lam, ell)
        if c:
            direct[c] += 1

    components = []
    rebuilt: Counter = Counter()
    e = 0
    while d - ell * e >= 1:
        m = d - ell * e
        mult = pt.u_count(1, e)
        for pairs in _types(m, p):
            components.append(BunkaitoComponent(e, pairs, mult))
            # expand Sort(prod INFL_{d_j}(Psi_{a_j})), checking disjoint support
            batch = [()]
            seen_values: set[int] = set()
            for dj, aj in pairs:
                block = [pt.infl(x, dj) for x in pt.psi_set(p, r, aj)]
                vals = {v for lamb in block for v in lamb}
                if vals & seen_values:
                    raise AssertionError("inflated Psi blocks are not part-disjoint")
                seen_values |= vals
                batch = [pt.sort_merge((acc, b)) for acc in batch for b in block]
            for lam in batch:
                rebuilt[lam] += mult
        e += 1

    return BunkaitoReport(tuple(components), sum(direct.values()), rebuilt == direct)


# ---------------------------------------------------------------------------
# the layered conjecture report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerResult:
    name: str
    status: str  # VERIFIED | CONSISTENT | INCONCLUSIVE | FAILED
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, **self.details}


@dataclass(frozen=True)
class ConjectureReport:
    p: int
    r: int
    d: int
    layers: tuple[LayerResult, ...]
    elapsed_ms: int

    def layer(self, name: str) -> LayerResult:
        for lay in self.layers:
            if lay.name == name:
                return lay
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(lay.status != "FAILED" for lay in self.layers)

    def to_json(self) -> dict:
        return {
            "conjecture": "graded-invariant-factors",
            "params": {"p": self.p, "r": self.r, "d": self.d, "ell": self.p**self.r},
            "layers": [lay.to_json() for lay in self.layers],
            "elapsed_ms": self.elapsed_ms,
        }


_DIAG_STOPS = {
    "stalled": "greedy reduction stalled: no elementary step clears the pivot line",
    "budget": "greedy reduction hit its step cap",
}


def conjecture_report(
    p: int, r: int, d: int, budget: int = snf_mod.DIAG_BUDGET
) -> ConjectureReport:
    """Run the layered verification of the graded invariant-factor conjecture
    for C^v_{p^r, d}.

    Layer 1 (theorem): the determinant of the Gram matrix equals the product
    of the conjectured invariants.  Layer 2: invariant factors over
    Q[v,v^-1], read off the Smith form of [X] at v^s by Cauchy-Binet for
    permanents; its theorem-backed bracket-product sub-check checks that
    combinatorics, not an independent elimination of the Kronecker factors,
    and the I^v-multiset check is the conjecture's field-ring shadow.  Layer 3:
    invariant factors at v=1 against the ungraded multiset (a theorem when
    r <= p), by the local Smith form at the primes of |det C(1)|; when
    layer 1 is VERIFIED its determinant at v=1 supplies that |det|, else
    `snf_int` computes it.  Layer 4: greedy diagonalization over
    Z[v,v^-1], which stops at its first stall or after `budget` steps; its
    details give the steps and why it stopped.  Success with the conjectured multiset verifies the
    conjecture at this size (VERIFIED).  Any other diagonal, or a stop with
    all three earlier checks holding, is CONSISTENT; a stop otherwise is
    INCONCLUSIVE.  No outcome of this layer refutes the conjecture.

    Every layer's details carry `elapsed_ms`, the time since the previous
    layer ended (layer 3 builds C(1) on integers; the Laurent matrix is
    assembled in layer 4, and charged to it), and `dim`, the dimension of the
    Gram matrix.
    """
    _check_p_r(p, r)
    if d < 0:
        raise ValueError("d must be nonnegative")
    start = time.monotonic()
    ell = p**r
    dim = pt.u_count(ell - 1, d)
    graded_rhs = graded_hill_values(p, r, d)
    layers = []
    last = start

    def layer(name: str, status: str, details: dict) -> None:
        # each layer is charged the time since the previous one ended
        nonlocal last
        now = time.monotonic()
        timing = {"elapsed_ms": int((now - last) * 1000), "dim": dim}
        last = now
        layers.append(LayerResult(name, status, {**details, **timing}))

    # the product of the conjectured invariants, expanded once from all
    # their bracket factors
    det = gram_det(type_a(ell), d)
    det_ok = det == bracket_product(
        f
        for lam, mult in _weighted_partitions(ell, d)
        for f in _graded_hill_factors(p, r, lam) * mult
    )
    layer("determinant", "VERIFIED" if det_ok else "FAILED", {"theorem": True})

    snf_c = gram_field_invariants(type_a(ell), d)
    theorem_ok = snf_mod.multiset_equal_up_to_units(
        snf_c, snf_mod.snf_of_diagonal(bracket_product_values(ell, d))
    )
    conj_ok = snf_mod.multiset_equal_up_to_units(
        snf_c, snf_mod.snf_of_diagonal(graded_rhs)
    )
    layer(
        "field-invariants",
        "VERIFIED" if theorem_ok and conj_ok else "FAILED",
        {"theorem_subcheck": theorem_ok, "conjecture_check": conj_ok},
    )

    # C(1) is built here at v=1, without the Laurent entries, which layer 4
    # builds.  Only a determinant that layer 1 has checked is handed to the
    # local engine.
    gm = cartan_graded(ell, d)
    c1 = gm.at_one()
    snf_z = snf_mod.snf_int_certified(c1, abs(det.at_one())) if det_ok else snf_mod.snf_int(c1)
    int_ok = snf_z.elements == snf_mod.snf_int_diagonal(hill_values(p, r, d)).elements
    layer(
        "integer-invariants",
        "VERIFIED" if int_ok else "FAILED",
        {"theorem": r <= p, "conjectural": r > p},
    )

    diag = snf_mod.try_diagonalize_zlaurent(gm.entries, budget=budget)
    if diag.success:
        target = snf_mod.InvariantMultiset.polys(graded_rhs, snf_mod.RING_ZLAURENT)
        if snf_mod.multiset_equal_up_to_units(diag.diagonal, target):
            status = "VERIFIED"
            extra = {"multiset_match": True}
        else:
            # a different diagonal representative is no refutation: the ring
            # is not a PID, so the diagonal form is not canonical
            status = "CONSISTENT"
            extra = {"multiset_match": False, "note": "diagonal found but not the conjectured representative"}
    elif theorem_ok and conj_ok and int_ok:
        # the heuristic proved nothing either way; the complete-ring
        # necessary conditions all hold, so the conjecture stands consistent
        status = "CONSISTENT"
        extra = {"note": f"{_DIAG_STOPS[diag.stopped]}; field and v=1 invariants agree"}
    else:
        status = "INCONCLUSIVE"
        extra = {"note": _DIAG_STOPS[diag.stopped]}
    details = {"steps": diag.steps, "stopped": diag.stopped, **extra}
    layer("integral-diagonalization", status, details)

    elapsed = int((time.monotonic() - start) * 1000)
    return ConjectureReport(p, r, d, tuple(layers), elapsed)
