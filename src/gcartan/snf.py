"""Invariant-factor engines.

Smith normal form over Z and over Q[v,v^-1] (both genuine principal-ideal
settings, so the invariant factors are complete equivalence invariants), a
greedy diagonalizer over Z[v,v^-1] (which is NOT a PID: it reports Success,
cross-checked against both complete invariants, or Inconclusive at its first
stall or step cap, and never claims a negative), determinantal-ideal gcds as
extra necessary conditions, and unit-normalized multiset comparison.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .linalg import laurent_det
from .partitions import prime_divisors
from .qlaurent import ONE, ZERO, LaurentPoly, divide_exact, normalize_unit

RING_ZINT = "ZInt"
RING_QLAURENT = "QLaurent"
RING_ZLAURENT = "ZLaurent"


def canonical_poly(p: LaurentPoly, primitive: bool = False) -> LaurentPoly:
    """Unit-normalize, optionally stripping integer content (for Q[v,v^-1])."""
    _, c = normalize_unit(p)
    if primitive:
        g = c.content()
        if g > 1:
            c = LaurentPoly({e: x // g for e, x in c.terms.items()})
    return c


def _poly_sort_key(p: LaurentPoly):
    # zero divides nothing and everything divides it: it sorts last
    if p.is_zero:
        return (1, 0, ())
    return (0, p.max_exp, tuple(sorted(p.terms.items())))


@dataclass(frozen=True)
class InvariantMultiset:
    """A multiset of invariant factors in unit-normalized canonical form."""

    ring: str
    elements: tuple

    @staticmethod
    def integers(values: Sequence[int]) -> "InvariantMultiset":
        return InvariantMultiset(
            RING_ZINT, tuple(sorted((abs(v) for v in values), key=lambda v: (v == 0, v)))
        )

    @staticmethod
    def polys(values: Sequence[LaurentPoly], ring: str = RING_QLAURENT) -> "InvariantMultiset":
        primitive = ring == RING_QLAURENT
        canon = [canonical_poly(v, primitive=primitive) if v else ZERO for v in values]
        return InvariantMultiset(ring, tuple(sorted(canon, key=_poly_sort_key)))

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        if self.ring == RING_ZINT:
            elems = [str(v) for v in self.elements]
        else:
            elems = [e.to_json() for e in self.elements]
        return {"ring": self.ring, "elements": elems}


def multiset_equal_up_to_units(a: InvariantMultiset, b: InvariantMultiset) -> bool:
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    return a.elements == b.elements


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


def _chain_fix(d: list, gcd, divisible, quotient) -> list:
    """Turn the nonzero diagonal d into a divisibility chain, in place.

    diag(a, b) is equivalent to diag(gcd(a,b), lcm(a,b)), with lcm(a,b) =
    quotient(a, gcd(a,b)) * b; divisible(b, a) says whether a divides b.
    After the pairs (i, j > i) have been swept, d_i divides every later
    entry, and swaps among later entries keep that, so one sweep suffices.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if not divisible(d[j], d[i]):
                g = gcd(d[i], d[j])
                d[i], d[j] = g, quotient(d[i], g) * d[j]
    return d


def _chain_fix_int(diag: Sequence[int]) -> list[int]:
    # smallest first, so most pairs already divide; zeros last
    d = sorted(abs(x) for x in diag if x)
    zeros = len(diag) - len(d)
    _chain_fix(d, math.gcd, lambda b, a: b % a == 0, operator.floordiv)
    return d + [0] * zeros


def snf_int(matrix: Sequence[Sequence[int]]) -> InvariantMultiset:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Classic pivoting diagonalization (gcd descent on the smallest entry),
    then the divisibility chain is restored by pairwise gcd/lcm swaps on the
    diagonal, which is an equivalence of diagonal matrices.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    m = [list(map(int, r)) for r in matrix]

    for k in range(n):
        while True:
            # smallest nonzero entry of the trailing submatrix (early out on 1)
            best = None
            bestval = 0
            for i in range(k, n):
                row = m[i]
                for j in range(k, n):
                    x = row[j]
                    if x:
                        if x < 0:
                            x = -x
                        if best is None or x < bestval:
                            best, bestval = (i, j), x
                            if x == 1:
                                break
                if bestval == 1:
                    break
            if best is None:
                break
            bi, bj = best
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            piv = m[k][k]
            clean = True
            rk = m[k]
            for i in range(k + 1, n):
                x = m[i][k]
                if x:
                    q = x // piv
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], rk)]
                    if m[i][k]:
                        clean = False
            for j in range(k + 1, n):
                x = rk[j]
                if x:
                    q = x // piv
                    if q:
                        for row in m:
                            row[j] -= q * row[k]
                    if rk[j]:
                        clean = False
            if clean:
                break
    return InvariantMultiset(RING_ZINT, tuple(_chain_fix_int([m[i][i] for i in range(n)])))


def _local_valuations(matrix: Sequence[Sequence[int]], p: int, bound: int) -> list[int] | None:
    """p-adic valuations of the invariant factors, by elimination mod p^bound.

    Layered elimination: clear every pivot that is a unit mod p, then divide
    the remaining Schur complement (all entries divisible by p) by p and
    recurse one valuation level up.  All arithmetic is on residues, one lost
    precision digit per level; returns None when precision runs out.
    """
    prec = bound
    mod = p**prec
    m = [[x % mod for x in row] for row in matrix]
    vals: list[int] = []
    level = 0
    while m:
        n = len(m)
        k = 0
        while k < n:
            # any entry that is a unit mod p can serve as the pivot
            found = None
            for i in range(k, n):
                row = m[i]
                for j in range(k, n):
                    if row[j] % p:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break
            bi, bj = found
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            inv_u = pow(m[k][k], -1, mod)
            rk = [(x * inv_u) % mod for x in m[k]]
            m[k] = rk
            for i in range(k + 1, n):
                x = m[i][k]
                if x:
                    m[i] = [(a - x * b) % mod for a, b in zip(m[i], rk)]
            # rows below are zero in column k now, so column clearing only
            # touches row k itself
            for j in range(k + 1, n):
                rk[j] = 0
            vals.append(level)
            k += 1
        if k == n:
            return sorted(vals)
        # remaining block is divisible by p: peel one valuation level
        prec -= 1
        if prec <= 0:
            return None
        mod //= p
        m = [[m[i][j] // p for j in range(k, n)] for i in range(k, n)]
        level += 1
    return sorted(vals)


def snf_int_certified(matrix: Sequence[Sequence[int]], det_abs: int) -> InvariantMultiset:
    """Invariant factors of a nonsingular integer matrix with known |det|.

    Works prime by prime modulo p^B (fast fixed-size arithmetic) over the
    prime support of det_abs, then certifies exactness by checking that the
    product of the assembled invariants equals |det|.  Only the supplied
    determinant is trusted, and only through that final identity.
    """
    n = len(matrix)
    if det_abs <= 0:
        raise ValueError("det_abs must be the positive |det| of a nonsingular matrix")
    out = [1] * n
    for p in prime_divisors(det_abs):
        bound = 64
        while True:
            vals = _local_valuations(matrix, p, bound)
            if vals is not None:
                break
            bound *= 4
        for i, e in enumerate(vals):
            out[i] *= p**e
    prod = 1
    for x in out:
        prod *= x
    if prod != det_abs:
        raise AssertionError("local Smith forms do not account for |det|")
    return InvariantMultiset(RING_ZINT, tuple(sorted(out)))


def snf_int_diagonal(values: Sequence[int]) -> InvariantMultiset:
    """Invariant factors of diag(values) over Z, by gcd/lcm swaps on the
    diagonal; no elimination and no factoring."""
    return InvariantMultiset(RING_ZINT, tuple(_chain_fix_int(values)))


# ---------------------------------------------------------------------------
# Smith normal form over Q[v,v^-1]
# ---------------------------------------------------------------------------
#
# Q[v,v^-1] is the localization of the Euclidean domain Q[v] at the powers of
# v; the Euclidean size of an element is the exponent span of its v-cleared
# form.  Entries stay integer Laurent polynomials: nonzero integers and powers
# of v are units of this ring, so pseudo-division may scale a row or column by
# an integer, and stripping content and v-powers keeps coefficients small.


def _span(p: LaurentPoly) -> int:
    t = p._terms
    return max(t) - min(t)


def _pseudo_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, int]:
    """(q, r, scale) with scale*a = q*b + r, span(r) < span(b), scale a power
    of b's leading coefficient (a unit over Q[v,v^-1])."""
    if b.is_zero:
        raise ZeroDivisionError
    if a.is_zero:
        return ZERO, ZERO, 1
    sa, sb = a.min_exp, b.min_exp
    ra = a.shift(-sa).terms
    db = b.max_exp - sb
    rb = b.shift(-sb).terms
    lead = rb[db]
    q: dict[int, int] = {}
    scale = 1
    while ra:
        da = max(ra)
        if da < db:
            break
        c = ra[da]
        if c % lead:
            # scale the running remainder (and the quotient built so far)
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


def _divides_field(a: LaurentPoly, b: LaurentPoly) -> bool:
    """Whether b divides a over Q[v,v^-1]."""
    return _pseudo_divmod(a, b)[1].is_zero


def _strip_row(row: list[LaurentPoly]) -> list[LaurentPoly]:
    # integer content and a common v-power are units over Q[v,v^-1]
    g = 0
    lo = None
    for e in row:
        if not e.is_zero:
            g = math.gcd(g, e.content())
            lo = e.min_exp if lo is None else min(lo, e.min_exp)
    if g <= 1 and not lo:
        return row
    out = []
    for e in row:
        if e.is_zero:
            out.append(e)
        else:
            t = {ex - lo: c // g for ex, c in e._terms.items()}
            out.append(LaurentPoly(t))
    return out


def snf_laurent_field(matrix: Sequence[Sequence[LaurentPoly]]) -> InvariantMultiset:
    """Invariant factors over Q[v,v^-1], unit-normalized to primitive integer
    polynomials with lowest exponent 0 and positive leading coefficient.

    Fraction-free: reductions use pseudo-division (scaling a row or column by
    an integer is a unit operation over this ring), and every updated row and
    column is stripped of integer content to keep coefficients small.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    m = [_strip_row(list(row)) for row in matrix]

    def scale_col(j: int, s: int, lo: int) -> None:
        for row in m:
            if not row[j].is_zero:
                row[j] = LaurentPoly({e: c * s for e, c in row[j]._terms.items()})
        if lo:
            for row in m:
                row[j] = row[j].shift(-lo)

    def strip_col(j: int) -> None:
        g = 0
        lo = None
        for row in m:
            e = row[j]
            if not e.is_zero:
                g = math.gcd(g, e.content())
                lo = e.min_exp if lo is None else min(lo, e.min_exp)
        if g > 1 or lo:
            for row in m:
                if not row[j].is_zero:
                    row[j] = LaurentPoly({ex - lo: c // g for ex, c in row[j]._terms.items()})

    for k in range(n):
        while True:
            best = None
            best_key = None
            for i in range(k, n):
                for j in range(k, n):
                    e = m[i][j]
                    if not e.is_zero:
                        key = (_span(e), len(e._terms))
                        if best is None or key < best_key:
                            best, best_key = (i, j), key
            if best is None:
                break
            bi, bj = best
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            piv = m[k][k]
            dirty = False
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    q, r, scale = _pseudo_divmod(m[i][k], piv)
                    if scale != 1:
                        m[i] = [e * scale for e in m[i]]
                    if not q.is_zero:
                        m[i] = [a - q * b for a, b in zip(m[i], m[k])]
                    m[i] = _strip_row(m[i])
                    if not m[i][k].is_zero:
                        dirty = True
            for j in range(k + 1, n):
                if not m[k][j].is_zero:
                    q, r, scale = _pseudo_divmod(m[k][j], piv)
                    if scale != 1:
                        scale_col(j, scale, 0)
                    if not q.is_zero:
                        for row in m:
                            row[j] = row[j] - q * row[k]
                    strip_col(j)
                    if not m[k][j].is_zero:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    e = m[i][j]
                    if not e.is_zero and not _divides_field(e, piv):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[k] = [a + b for a, b in zip(m[k], m[offender])]
    return InvariantMultiset.polys([m[i][i] for i in range(n)], RING_QLAURENT)


def _exact_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q = divide_exact(a, b)
    if q is None:
        raise ArithmeticError(f"{b} does not divide {a} in Z[v,v^-1]")
    return q


def snf_of_diagonal(values: Sequence[LaurentPoly]) -> InvariantMultiset:
    """Field-ring invariant factors of diag(values), by gcd/lcm swaps on the
    diagonal.  Each lcm a/gcd(a,b) * b stays in Z[v,v^-1]: the gcd is
    primitive, so by Gauss's lemma it divides a there, not only over Q."""
    d = sorted(
        (canonical_poly(x, primitive=True) for x in values if not x.is_zero), key=_span
    )
    _chain_fix(d, _poly_gcd, _divides_field, _exact_quotient)
    return InvariantMultiset.polys(d + [ZERO] * (len(values) - len(d)), RING_QLAURENT)


# ---------------------------------------------------------------------------
# greedy diagonalization over Z[v,v^-1]
# ---------------------------------------------------------------------------


# the step cap of every caller; the stall rule ends a failing run long before
# it (within 54 steps on every conjecture-report point checked), so the cap
# only guards a progress loop that might never end
DIAG_BUDGET = 3000


@dataclass(frozen=True)
class DiagonalizationResult:
    status: str  # "success" | "inconclusive"
    diagonal: InvariantMultiset | None
    steps: int
    stopped: str  # "cleared" | "stalled" | "budget"

    @property
    def success(self) -> bool:
        return self.status == "success"


def _complexity(p: LaurentPoly):
    # exponent span is the Euclidean size over the field ring, so it leads
    t = p._terms
    return (max(t) - min(t), len(t), sum(map(abs, t.values())))


def _end_reduce(e: LaurentPoly, piv: LaurentPoly) -> tuple[LaurentPoly, bool]:
    """Shrink e by monomial multiples of piv, working from both exponent ends.

    Coefficient division is Euclidean (floor quotients, remainders allowed),
    so this also grinds down end coefficients, not just end exponents.
    """
    changed = False
    guard = 0
    while not e.is_zero and guard < 256:
        guard += 1
        te, tp = e._terms, piv._terms
        hi_e, hi_p = max(te), max(tp)
        lo_e, lo_p = min(te), min(tp)
        if hi_e - lo_e < hi_p - lo_p:
            break
        ch = te[hi_e] // tp[hi_p]
        if ch:
            nxt = e - piv.shift(hi_e - hi_p) * ch
            if _complexity_lt(nxt, e):
                e = nxt
                changed = True
                continue
        cl = te[lo_e] // tp[lo_p]
        if cl:
            nxt = e - piv.shift(lo_e - lo_p) * cl
            if _complexity_lt(nxt, e):
                e = nxt
                changed = True
                continue
        break
    return e, changed


def _complexity_lt(a: LaurentPoly, b: LaurentPoly) -> bool:
    return a.is_zero or _complexity(a) < _complexity(b)


def _reducing_quotient(e: LaurentPoly, piv: LaurentPoly) -> LaurentPoly | None:
    """q with e - q*piv zero or simpler than e: the exact quotient if piv
    divides e, else the quotient of e's end-monomial reduction; None when
    neither gives a nonzero q."""
    if e.is_zero:
        return None
    q = divide_exact(e, piv)
    if q is None:
        r, changed = _end_reduce(e, piv)
        q = divide_exact(e - r, piv) if changed else None
    return None if q is None or q.is_zero else q


def try_diagonalize_zlaurent(
    matrix: Sequence[Sequence[LaurentPoly]], budget: int = DIAG_BUDGET
) -> DiagonalizationResult:
    """Greedy elementary reduction over Z[v,v^-1].

    Pivots on the lowest-complexity entry (smallest exponent span, then
    fewest terms, then smallest coefficient sum) and clears its row and
    column with exact divisions plus end-monomial reductions.  A pass over
    the pivot row and column that changes nothing while they are still not
    clear is a stall, and the reduction stops there, as it does after
    `budget` passes in all.  Z[v,v^-1] is not a PID, so this can only answer
    Success (with a diagonal unimodularly equivalent to the input) or
    Inconclusive; it never claims non-equivalence.  `stopped` says why it
    ended: "cleared", "stalled" or "budget".  On Success the result is
    cross-checked against the complete field-ring and v=1 invariants.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square")
    m = [list(row) for row in matrix]
    steps = 0

    for k in range(n):
        while True:
            steps += 1
            if steps > budget:
                return DiagonalizationResult("inconclusive", None, steps, "budget")
            best = None
            best_key = None
            for i in range(k, n):
                for j in range(k, n):
                    e = m[i][j]
                    if not e.is_zero:
                        key = _complexity(e)
                        if best is None or key < best_key:
                            best, best_key = (i, j), key
            if best is None:
                break  # zero block
            bi, bj = best
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            piv = m[k][k]
            progress = False
            for i in range(k + 1, n):
                q = _reducing_quotient(m[i][k], piv)
                if q is not None:
                    # a zero in the pivot row leaves the entry as it is
                    m[i] = [a if b.is_zero else a - q * b for a, b in zip(m[i], m[k])]
                    progress = True
            for j in range(k + 1, n):
                q = _reducing_quotient(m[k][j], piv)
                if q is not None:
                    for row in m:
                        if not row[k].is_zero:
                            row[j] = row[j] - q * row[k]
                    progress = True
            row_clear = all(m[i][k].is_zero for i in range(k + 1, n))
            col_clear = all(m[k][j].is_zero for j in range(k + 1, n))
            if row_clear and col_clear:
                break
            if not progress:
                return DiagonalizationResult("inconclusive", None, steps, "stalled")

    diag = [m[i][i] for i in range(n)]
    result = InvariantMultiset.polys(
        [canonical_poly(e) if not e.is_zero else ZERO for e in diag], RING_ZLAURENT
    )
    _success_sanity(matrix, diag)
    return DiagonalizationResult("success", result, steps, "cleared")


def _success_sanity(matrix, diag) -> None:
    if not multiset_equal_up_to_units(snf_of_diagonal(diag), snf_laurent_field(matrix)):
        raise AssertionError("diagonalization changed the field-ring invariants")
    a = snf_int([[e.at_one() for e in row] for row in matrix])
    if a.elements != snf_int_diagonal([e.at_one() for e in diag]).elements:
        raise AssertionError("diagonalization changed the v=1 invariants")


# ---------------------------------------------------------------------------
# determinantal-ideal gcds
# ---------------------------------------------------------------------------


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd over Q[v,v^-1], returned primitive with lowest exponent 0."""
    if a.is_zero:
        return canonical_poly(b, primitive=True) if not b.is_zero else ZERO
    a = canonical_poly(a, primitive=True)
    while not b.is_zero:
        b = canonical_poly(b, primitive=True)
        # pseudo-remainder keeps everything integral
        if a.max_exp < b.max_exp:
            a, b = b, a
            continue
        lead = b.coefficient(b.max_exp)
        r = a * lead ** (a.max_exp - b.max_exp + 1)
        while not r.is_zero and r.max_exp >= b.max_exp:
            c = r.coefficient(r.max_exp)
            q, rem = divmod(c, lead)
            if rem:
                r = r * lead
                continue
            r = r - b.shift(r.max_exp - b.max_exp) * q
        a, b = b, r
    return canonical_poly(a, primitive=True)


def det_ideal_gcds(matrix: Sequence[Sequence[LaurentPoly]], max_dim: int = 9) -> list[LaurentPoly]:
    """gcd over Q[v,v^-1] of all k x k minors, for k = 1..n.

    The ratios gcd_k / gcd_{k-1} reproduce the field-ring invariant factors;
    these are unimodular-equivalence invariants used as necessary conditions.
    Guarded by max_dim: the number of minors explodes combinatorially.
    """
    n = len(matrix)
    if n > max_dim:
        raise ValueError(f"matrix dimension {n} exceeds max_dim={max_dim}")
    out = []
    for k in range(1, n + 1):
        g = ZERO
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = laurent_det([[matrix[i][j] for j in cols] for i in rows])
                if not minor.is_zero:
                    g = _poly_gcd(g, minor)
                if g == ONE:
                    break
            if g == ONE:
                break
        out.append(g)
    return out
