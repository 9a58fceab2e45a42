"""Invariant-factor engines.

Smith normal form over Z and over Q[v,v^-1] (both genuine principal-ideal
settings, so the invariant factors are complete equivalence invariants), a
greedy diagonalizer over Z[v,v^-1] (which is NOT a PID: it reports Success,
cross-checked against both complete invariants, or Inconclusive at its first
stall or step cap, and never claims a negative), and the comparison of
multisets of invariant factors up to units (`multiset_equal_up_to_units`),
through which every such verdict of the package goes.

Over Z, `snf_int_certified` is the engine for a nonsingular matrix with
known |det| (Storjohann's local Smith form, Algorithms for Matrix Canonical
Forms, ETH 2000); the conjecture report gives it the determinant its first
layer checked.  `snf_int` takes |det| from a caller that already holds
it, computes it by Bareiss for any other caller, and hands a singular
matrix, whose rank the local engine cannot certify, to dense elimination.

The dense engines share one elimination loop (`_diagonalize`): pivot on an
entry of least size, clear its column by row operations, clear its row the
same way on the transpose, and repeat until the matrix is diagonal.  Each
engine supplies only its size key and its one-row reduction, and finishes on
the diagonal (Kannan & Bachem, SIAM J. Comput. 8, 1979: diagonalize first,
then restore divisibility).  Diagonal matrices take no elimination: over Z
by gcd/lcm swaps, over Q[v,v^-1] by factor refinement into a pairwise
coprime base and a sort of each base element's exponents.

The Z[v,v^-1] diagonalizer runs that loop on packed entries (`_Slots`).
Each nonzero entry is one int, its polynomial shifted to lowest exponent 0
and evaluated at 2^64 with balanced (signed) digits, kept beside its lowest
exponent and a bound on its |coefficients|.  A row update a - q*b is then
one big-integer product, one shift and one subtraction, and the pivot scan
reads each entry's span off its bit length: only the entries that tie
their row's least span are decoded (`_unpack_signed`) to their full
key.  The quotients are found on the packed ints too (`_Slots.quotient`).
Evaluation at 2^64 is a ring map, so a nonzero remainder of a by b as
integers proves that b does not divide a; a zero remainder is a candidate
only, since values can divide where the polynomials do not (2^65 + 1
divides 2^256 + 2^61, but 2v + 1 does not divide v^4 + 2^61), and the
candidate q, decoded, is taken when |q|_1 max|b| is below the slot
bound, which puts every coefficient of q*b in the slot range, so that q*b,
equal to a at 2^64, is a; otherwise `divide_exact` decides on the decoded
entries.  Failing an exact quotient, the end-monomial grinding runs on the
packed int, one shifted multiply-subtract per step (`_Slots.grind`).  So the
pivots, quotients, steps and diagonal are those of the same loop on
LaurentPoly entries.  Every coefficient stays below the slot bound 2^62:
each update is proven below it from max|a| + |q|_1 max|b|, or after both
bounds are tightened by decoding, or else computed exactly by
`sub_product` (a grinding step, by `_end_quotient` on wider slots), and a
coefficient that reaches the bound restarts the run on wider slots.  The
largest coefficient of a run is 47 bits at (5,1,3), the most at the
benchmark's report points, and 31, 40, 27 and 26 bits at the frontier
points (5,1,4), (7,1,3), (2,2,5) and (3,1,5).  At those six points
tightening always suffices (92 times at (5,1,3), 404 at (7,1,3)): no entry
is computed exactly and no run restarts, and of the 1441 and 5152 quotients
there, 18 and 4 are decided by `divide_exact`.  Further out it does not,
which is why `_Slots.exact` stays beside the restart.  Full runs at
(7,1,4), (2,2,6) and (5,1,5) computed 5, 0 and 0 entries exactly, after
5644, 311 and 3921 tightenings, in 166, 45 and 95 steps and 64.5, 6.5 and
16.5 s (shared 2-core x86-64 machine, CPython 3.11, before the quotients
were packed).  With a restart in place of each exact entry, (7,1,4) would
re-run its 65 s pass up to five times.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count
from operator import attrgetter
from typing import Sequence

from .linalg import _int_rows, _require_square, int_det
from .partitions import Record, is_prime, p_adic_split
from .qlaurent import (
    ONE, ZERO, LaurentPoly, _owned, _pack, _slot_width, _unpack, _unpack_signed, divide_exact,
    exact_quotient, normalize_unit, sub_product,
)

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


class InvariantMultiset(Record):
    """A multiset of invariant factors in unit-normalized canonical form."""

    __slots__ = ("ring", "elements")

    @staticmethod
    def polys(values: Sequence[LaurentPoly], ring: str = RING_QLAURENT) -> "InvariantMultiset":
        primitive = ring == RING_QLAURENT
        canon = [canonical_poly(v, primitive=primitive) if v else ZERO for v in values]
        return InvariantMultiset(ring, tuple(sorted(canon, key=_poly_sort_key)))

    def to_json(self) -> dict:
        if self.ring == RING_ZINT:
            elems = [str(v) for v in self.elements]
        else:
            elems = [e.to_json() for e in self.elements]
        return {"ring": self.ring, "elements": elems}


def multiset_equal_up_to_units(a: InvariantMultiset, b: InvariantMultiset) -> bool:
    """The one judge of two multisets of invariant factors: equal when their
    canonical forms are, on one ring.  Both sides must be built here (by
    `InvariantMultiset.polys` or an engine of this module), so that each
    element is in the canonical form of its ring; a ring mismatch raises."""
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    return a.elements == b.elements


# ---------------------------------------------------------------------------
# the shared elimination loop
# ---------------------------------------------------------------------------


def _clear_column(m: list[list], reduce) -> bool:
    """Reduce each row of m below the first that is nonzero in column 0 by
    the pivot row m[0]; whether any row changed."""
    prow = m[0]
    changed = False
    for i in range(1, len(m)):
        if m[i][0] and (new := reduce(m[i], prow)) is not None:
            m[i] = new
            changed = True
    return changed


def _least_by(key):
    """The row scan of an engine that keys every nonzero entry: the least
    (key(e), j) over the nonzero entries e = row[j], or None for a zero row."""
    return lambda row: min(((key(e), j) for j, e in enumerate(row) if e), default=None)


def _diagonalize(
    m: list[list], least, reduce, unit, budget: int | None = None
) -> tuple[list | None, int, str]:
    """Diagonalize the square list of rows m by pivot passes.

    A pass pivots on the first nonzero entry of least key in m, scanning row
    by row: least(row) gives the least key over the row's nonzero entries
    and the first column that holds it, or None for a zero row, and the scan
    stops at the key `unit` of a unit, the least key in each ring here.  The
    pivot moves to (0, 0).  The pass clears the pivot's column with the row
    operations reduce(row, m[0]), which return the new row or None to leave
    the row alone; then it transposes m, clears again (this clears the
    pivot's row) and transposes back.  Once the pivot's row and column are
    clear (at once if m is zero), the pivot joins the diagonal and the
    passes go on in the trailing block.  Returns (diagonal, steps, stopped):
    steps is the number of passes, and stopped is "cleared" (the diagonal
    is equivalent to m), "stalled" (a pass changed nothing while the pivot's
    row or column is not clear) or "budget" (past `budget` passes); the
    diagonal is None unless cleared.
    """
    diag = []
    steps = 0
    while m:
        steps += 1
        if budget is not None and steps > budget:
            return None, steps, "budget"
        best = None
        for i, row in enumerate(m):
            found = least(row)
            if found is not None and (best is None or found[0] < best[1][0]):
                best = i, found
                if found[0] == unit:
                    break
        if best is not None:
            i, (_, j) = best
            m[0], m[i] = m[i], m[0]
            if j:
                for row in m:
                    row[0], row[j] = row[j], row[0]
            progress = _clear_column(m, reduce)
            if any(m[0][1:]):
                m = list(map(list, zip(*m)))
                progress = _clear_column(m, reduce) or progress
                m = list(map(list, zip(*m)))
            if any(row[0] for row in m[1:]) or any(m[0][1:]):
                if not progress:
                    return None, steps, "stalled"
                continue
        diag.append(m[0][0])
        m = [row[1:] for row in m[1:]]
    return diag, steps, "cleared"


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


def snf_int_diagonal(values: Sequence[int]) -> InvariantMultiset:
    """Invariant factors of diag(values) over Z, zeros last, by gcd/lcm
    swaps on the diagonal; no elimination and no factoring.

    diag(a, b) is equivalent to diag(gcd(a,b), lcm(a,b)).  After the pairs
    (i, j > i) have been swept, d_i divides every later entry, and swaps
    among later entries keep that, so one sweep suffices.  Smallest first,
    so most pairs already divide.
    """
    d = sorted(abs(x) for x in values if x)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return InvariantMultiset(RING_ZINT, tuple(d + [0] * (len(values) - len(d))))


def _reduce_int(row: list[int], prow: list[int]) -> list[int] | None:
    q = (2 * row[0] + prow[0]) // (2 * prow[0])
    return [a - q * b for a, b in zip(row, prow)] if q else None


def snf_int(matrix: Sequence[Sequence[int]], det_abs: int | None = None) -> InvariantMultiset:
    """Invariant factors d_1 | d_2 | ... of a square integer matrix, zeros
    last.  det_abs is its |det| for a caller that already holds it; by
    default a Bareiss |det| (`int_det`, which rejects a non-square matrix).
    A nonsingular matrix goes to `snf_int_certified`, a singular one to
    `_snf_int_dense`, the one path that handles singular input.
    """
    if det_abs is None:
        det_abs = abs(int_det(matrix))
    return snf_int_certified(matrix, det_abs) if det_abs else _snf_int_dense(matrix)


def _snf_int_dense(matrix: Sequence[Sequence[int]]) -> InvariantMultiset:
    """Invariant factors of any square integer matrix by dense elimination.

    The shared loop (`_diagonalize`) pivots on the entry of least absolute
    value and clears with nearest-integer quotients (gcd descent, each
    remainder at most half the pivot); then the divisibility chain is
    restored by gcd/lcm swaps on the diagonal (`snf_int_diagonal`), an
    equivalence of diagonal matrices.  An entry that is not an int raises
    TypeError.
    """
    m = _int_rows(matrix)
    diag, _, stopped = _diagonalize(m, _least_by(abs), _reduce_int, 1)
    if stopped != "cleared":
        raise ArithmeticError(f"integer elimination {stopped}")
    return snf_int_diagonal(diag)


def _local_valuations(
    matrix: Sequence[Sequence[int]], p: int, digits: int
) -> list[int] | int | None:
    """p-adic valuations of the invariant factors, by elimination mod p^digits.

    Layered elimination: at level L the block is a residue matrix mod p^k,
    k = digits - L.  Every row is packed into one int with W-bit slots, one
    per column (`_pack`), so clearing a column from a row is one big-integer
    multiply-add.  Columns are searched in turn (see Order) for a row whose
    entry is a unit mod p; that row is reduced, scaled so the pivot is 1,
    and each other open row R_i with entry x is cleared by R_i += (p^k - x)
    * R_pivot.  Each pivot is an invariant of valuation L.  The open rows
    and the columns that held no unit form the Schur complement, all
    divisible by p: it is divided by p and taken one level up, mod
    p^(k-1).  Returns None when the precision runs out with a block left,
    which happens only if an invariant has valuation >= digits; for a
    nonsingular matrix digits = v_p(det) + 1 is always enough.

    Order.  The rows and columns are taken last index first.  Any order of
    unit pivots gives the same local Smith form, and the Gram matrix at v=1
    is T Y T^t with T upper unitriangular in its index order (finer shapes
    later, `GramMatrix.check_unitriangular`): reversed, it is L Y L^t with L
    lower unitriangular, and elimination from the top keeps the fill inside
    L's pattern.  At (7,4) the main pass makes 3390 row updates, against
    17,644 in index order; at (7,5) 18,776 against 190,913.

    Symmetric input.  The reduced rows are tested once for symmetry.  While
    the open block of a symmetric input is symmetric, column c of the open
    rows is row c at their columns: one `_unpack` of row c replaces one read
    per open row, and (c, c) is the pivot when it is a unit, its row already
    unpacked.  A column whose diagonal entry is 0 mod p but that holds a
    unit in an open row i takes a 2 x 2 pivot: row i clears column c, and
    column i, read out of turn by the reads below, is cleared by the first
    open row with a unit there, the updated row c.  The open rows before c
    are those of columns that held no unit, which stay 0 mod p (so i > c,
    and by symmetry their entries in column i are 0 mod p), and row c holds
    the unit (c, i) plus a multiple of (c, c).  Rows and columns c and i
    close together, and the open block, the Schur complement of a symmetric
    2 x 2 block, is symmetric again.  A non-symmetric input is read column
    by column throughout.  At (7,4) and (7,5) every pivot is diagonal.  At
    (5,5), (3,8) and (9,4) 3, 36 and 306 pivots are 2 x 2; they make more
    row updates than off-diagonal pivots read column by column (7080
    against 5694 at (5,5), 31,147 against 12,930 at (9,4)), yet the whole
    engine is faster: 0.24 against 0.29 s at (9,4), 0.027 against 0.034 s
    at (5,5) (warm, min of 3).

    Slots.  All slots stay non-negative and rows are reduced only when they
    become pivots, so a slot holds at most a residue plus n products of two
    residues, p^k + n (p^k - 1)^2, and no carry crosses a slot within a
    level; a column read off a row is slots of the same bound.  W is that
    bound's width rounded up to 1, 2, 4 or 8 bytes, or to whole bytes
    above 8 (`_slot_width`), so that rows of up to 8-byte slots are packed
    and unpacked by `array` in C.  Otherwise column c of a row is read as
    (row & (mask << at)) >> at when 2c < n and as (row >> at) & mask
    otherwise, at = cW: each read touches the c slots below the column or
    the n - c from it up, whichever is fewer.  A wider slot only leaves more
    room, and every read gives a value congruent to the entry mod p^k, so no
    residue depends on them: every check of `snf_int_certified` (the rank
    pass, the precision cap and the product against |det|) sees the same
    values at any width.

    p need not be prime.  A pivot candidate that shares a proper factor with
    p ends the elimination, which returns that factor gcd(candidate, p).
    Without one, every candidate is a unit or zero mod p, so every prime of
    p sees the same elimination and the valuations hold at each of them.
    """
    mod = p**digits
    rows = [[x % mod for x in reversed(row)] for row in reversed(matrix)]
    sym = all(row[i:] == [r[i] for r in rows[i:]] for i, row in enumerate(rows))
    vals: list[int] = []
    level = 0
    while rows:
        n = len(rows)
        width = _slot_width(mod + n * (mod - 1) ** 2)
        slot = 8 * width
        mask = (1 << slot) - 1
        packed = [_pack(row, width) for row in rows]
        open_rows = list(range(n))
        no_unit: list[int] = []
        todo, pair = list(range(n - 1, -1, -1)), False
        while todo:
            c = todo.pop()
            at = c * slot
            if sym:  # column c of the open rows is row c at their columns
                entries = _unpack(packed[c], width, n)
                col = [entries[i] for i in open_rows]
            elif 2 * c < n:
                window = mask << at
                col = [(packed[i] & window) >> at for i in open_rows]
            else:
                col = [(packed[i] >> at) & mask for i in open_rows]
            if sym and entries[c] % p:
                k = open_rows.index(c)
            else:
                k = next((t for t, x in enumerate(col) if x % p), None)
            if k is not None and (g := math.gcd(col[k], p)) > 1:
                return g
            if k is None:
                no_unit.append(c)
                continue
            pivot = open_rows.pop(k)
            del col[k]
            if not (sym and pivot == c):
                entries = _unpack(packed[pivot], width, n)
            if pair:  # a 2 x 2 pivot done: symmetric again
                sym, pair = True, False
            elif sym and pivot != c:  # a 2 x 2 pivot: column `pivot` next
                todo.remove(pivot)
                todo.append(pivot)
                sym, pair = False, True
            inv = pow(entries[c], -1, mod)
            prow = _pack([x * inv % mod for x in entries], width)
            for i, x in zip(open_rows, col):
                x %= mod
                if x:
                    packed[i] += (mod - x) * prow
            vals.append(level)
        if not open_rows:
            return vals
        # the remaining block is divisible by p: peel one valuation level
        digits -= 1
        if not digits:
            return None
        rows = []
        for i in open_rows:
            entries = _unpack(packed[i], width, n)
            rows.append([entries[c] % mod // p for c in no_unit])
        mod //= p
        level += 1
    return vals


def _full_rank_mod2(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether a square integer matrix is nonsingular mod 2, by elimination
    over GF(2) on one int per row, bit j holding entry j mod 2: each row is
    XORed with the kept row of its top bit until its top bit is new, and is
    then kept, or until it is zero, which proves the rows dependent."""
    kept: dict[int, int] = {}
    for row in matrix:
        r = int(bytes([48 | x & 1 for x in reversed(row)]), 2)
        while r and (top := r.bit_length()) in kept:
            r ^= kept[top]
        if not r:
            return False
        kept[top] = r
    return True


# the product of the 172 primes below 2^10, 1420 bits: a literal, so that
# import does no primality work (certified in tests/test_snf.py)
_SMALL_PRIMORIAL = 0xb7d179681be0a7a10ce608f14cffea50afd39a59245bffbdf693d70b90e9f5290e3f3207dfbb1a846ae30dd5a0d15624eb7bbf2afbd475edd69edb0e5ddc2aeb5527f60251e309b8ca6954052ecebde40c7f814e7a8e177184db0f824bcfa569b61e9feb556ac85cb3f9603d84d4027d5e50e4d87eea836597d939d5a417eb50cd1f89b1edad20531561e05ee10dfbd68f9888c7ec39e79b3ad7114ce5331fa90a6f89ab8848a2d994923d086ba0b993c32


def _coprime_split(p: int, g: int) -> list[int]:
    """g and the largest divisor of p prime to g, without 1s: for a divisor
    g of p, coprime moduli whose primes are those of p."""
    rest = p
    while (h := math.gcd(rest, g)) > 1:
        rest //= h
    return [m for m in (g, rest) if m > 1]


def _first_digits(p: int, n: int, cap: int) -> int:
    """Digits of the first try at modulus p on n rows: the most digits k <=
    cap whose first level in `_local_valuations` packs rows in slots as wide
    as those of min(8, cap) digits."""

    def width(k: int) -> int:
        return _slot_width(p**k + n * (p**k - 1) ** 2)

    digits = min(8, cap)
    first = width(digits)
    while digits < cap and width(digits + 1) == first:
        digits += 1
    return digits


def snf_int_certified(matrix: Sequence[Sequence[int]], det_abs: int) -> InvariantMultiset:
    """Invariant factors of a nonsingular integer matrix with known |det|.

    Works modulus by modulus, by elimination mod p^k on packed rows (see
    `_local_valuations`), and factors nothing.  The first moduli are the
    product of the primes of det_abs below 2^10 and the part of det_abs
    prime to them; where the elimination meets a proper factor g of a
    modulus p, p is replaced by g and the part of p prime to g
    (`_coprime_split`).  No invariant has valuation above v = v_p(det_abs),
    so k = v + 1 digits always suffice.  The first try uses the most digits
    up to that cap whose first-level slots are as wide as those of
    min(8, v + 1) digits (`_first_digits`): the same slot width means the
    same big-integer sizes, so the extra digits cost nothing.  Each retry
    doubles k up to the cap.  Running out of
    precision at the cap means the matrix is singular or det_abs is wrong,
    and raises ArithmeticError.  Exactness is certified by checking that
    the product of the assembled invariants equals |det|.

    One rank pass comes first: elimination mod the smallest prime q that
    does not divide det_abs must find a full-rank matrix, else the matrix is
    singular (or q divides its |det|) and ArithmeticError is raised.  This
    catches a singular matrix whose det_abs has no prime to work at, such
    as det_abs = 1.  When q = 2, as for every odd det_abs, the pass runs on
    GF(2) bitsets (`_full_rank_mod2`), 4-6 times faster than the engine mod
    2 at (7,4), (9,4) and (7,5).  det_abs is still trusted for its prime
    support: a prime of the true |det| that det_abs lacks, other than q,
    goes unseen.
    """
    n = _require_square(matrix)
    if det_abs <= 0:
        raise ValueError("det_abs must be the positive |det| of a nonsingular matrix")
    q = next(r for r in count(2) if det_abs % r and is_prime(r))
    if not (_full_rank_mod2(matrix) if q == 2 else _local_valuations(matrix, q, 1) is not None):
        raise ArithmeticError(
            f"the matrix is singular mod {q}, a prime that does not divide det_abs: "
            "the matrix is singular or det_abs is not its |det|"
        )
    moduli = _coprime_split(det_abs, math.gcd(det_abs, _SMALL_PRIMORIAL))
    out = [1] * n
    while moduli:
        p = moduli.pop()
        cap = p_adic_split(det_abs, p)[1] + 1
        digits = _first_digits(p, n, cap)
        while (vals := _local_valuations(matrix, p, digits)) is None:
            if digits == cap:
                raise ArithmeticError(
                    f"the local Smith form at p={p} needs more than {cap} digits: "
                    "the matrix is singular or det_abs is not its |det|"
                )
            digits = min(2 * digits, cap)
        if isinstance(vals, int):  # a proper factor of p
            moduli += _coprime_split(p, vals)
            continue
        for i, e in enumerate(vals):
            out[i] *= p**e
    if math.prod(out) != det_abs:
        raise AssertionError("local Smith forms do not account for |det|")
    return InvariantMultiset(RING_ZINT, tuple(sorted(out)))


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
    of b's leading coefficient (a unit over Q[v,v^-1]).  The long division
    runs in a's own exponents, as `divide_exact`'s does: it stops once the
    next quotient term v^k has k below min(a) - min(b)."""
    if b.is_zero:
        raise ZeroDivisionError
    if a.is_zero:
        return ZERO, ZERO, 1
    r, tb = dict(a._terms), b._terms
    top = max(tb)
    lead, floor = tb[top], min(r) - min(tb)
    q: dict[int, int] = {}
    scale = 1
    while r:
        k = max(r) - top
        if k < floor:
            break
        c = r[k + top]
        if c % lead:
            # scale the running remainder (and the quotient built so far)
            scale *= lead
            r = {e: x * lead for e, x in r.items()}
            q = {e: x * lead for e, x in q.items()}
            c *= lead
        f = q[k] = c // lead
        for e, cb in tb.items():
            s = r.get(e + k, 0) - f * cb
            if s:
                r[e + k] = s
            else:
                del r[e + k]
    return _owned(q), _owned(r), scale


def _strip_row(row: list[LaurentPoly]) -> list[LaurentPoly]:
    # integer content and a common v-power are units over Q[v,v^-1]
    g, lo = 0, None
    for e in row:
        if t := e._terms:
            g, low = math.gcd(g, *t.values()), min(t)
            lo = low if lo is None else min(lo, low)
    if g <= 1 and not lo:
        return row
    return [_owned({x - lo: c // g for x, c in e._terms.items()}) if e else e for e in row]


def _reduce_field(row: list[LaurentPoly], prow: list[LaurentPoly]):
    q, _, scale = _pseudo_divmod(row[0], prow[0])
    if q.is_zero:
        return None
    if scale != 1:
        row = [e * scale for e in row]
    return _strip_row([sub_product(a, q, b) for a, b in zip(row, prow)])


def snf_laurent_field(matrix: Sequence[Sequence[LaurentPoly]]) -> InvariantMultiset:
    """Invariant factors over Q[v,v^-1], unit-normalized to primitive integer
    polynomials with lowest exponent 0 and positive leading coefficient.

    The shared loop (`_diagonalize`) pivots on the entry of least (exponent
    span, term count) and reduces fraction-free by pseudo-division: scaling
    a row by an integer is a unit operation over this ring, and every
    updated row is stripped of integer content and a common v-power to keep
    coefficients small.  Divisibility is not repaired during elimination;
    the diagonal it leaves is finished by `snf_of_diagonal` (diagonalize
    first, then restore divisibility, as in Kannan & Bachem, SIAM J. Comput.
    8, 1979).
    """
    _require_square(matrix)
    m = [_strip_row(list(row)) for row in matrix]
    least = _least_by(lambda e: (_span(e), len(e._terms)))
    diag, _, stopped = _diagonalize(m, least, _reduce_field, (0, 1))
    if stopped != "cleared":
        raise ArithmeticError(f"field-ring elimination {stopped}")
    return snf_of_diagonal(diag)


def _coprime_base(values: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """A pairwise coprime base over Q[v,v^-1] of canonical primitive nonunits
    such that every value is a unit times a product of their powers (factor
    refinement, Bach, Driscoll & Shallit, J. Algorithms 15, 1993).

    Each value is divided by the base elements that divide it; where one
    does not but shares a factor g with the value, it is replaced by g and
    its cofactor, which are refined like new values, as is the value's
    cofactor.  Every split lowers the total degree, so this ends."""
    base: list[LaurentPoly] = []
    for x in values:
        todo = [x]
        while todo:
            a = todo.pop()
            for b in base:
                while (q := divide_exact(a, b)) is not None:
                    a = q
            if not _span(a):
                continue
            for i, b in enumerate(base):
                g = _poly_gcd(a, b)
                if _span(g):
                    del base[i]
                    todo += [g, exact_quotient(b, g), exact_quotient(a, g)]
                    break
            else:
                base.append(a)
    return base


def snf_of_diagonal(values: Sequence[LaurentPoly | tuple[LaurentPoly, ...]]) -> InvariantMultiset:
    """Field-ring invariant factors of diag(values), by factor refinement.

    Each value is a LaurentPoly or a tuple of factors whose product it is
    (a LaurentPoly x is the 1-tuple (x,); the empty tuple is 1, a tuple with
    a zero factor is 0).  Over a coprime base (see `_coprime_base`) of the
    distinct canonical factors, every factor is a unit times a product of
    base powers: its exponent vector is found once, and each value's vector
    is the sum of its factors' vectors.  For each base element, the values'
    exponents sorted ascending are its exponents in the invariants
    d_1 | d_2 | ...: the i-th invariant is the product of the base elements
    to their i-th exponents.  A factor that is not a unit after its base
    powers are divided out raises ArithmeticError.  Quotients stay in
    Z[v,v^-1]: the factors and base elements are primitive, so by Gauss's
    lemma a divisor over Q divides there too."""
    entries = [x if isinstance(x, tuple) else (x,) for x in values]
    counts = Counter(fs for fs in entries if not any(f.is_zero for f in fs))
    canon = {f: canonical_poly(f, primitive=True) for f in {f for fs in counts for f in fs}}
    base = _coprime_base(sorted(set(canon.values()), key=_span))
    vectors: dict[LaurentPoly, list[int]] = {}
    for x in set(canon.values()):
        vec = vectors[x] = []
        for b in base:
            e = 0
            while (q := divide_exact(x, b)) is not None:
                x, e = q, e + 1
            vec.append(e)
        if _span(x):
            raise ArithmeticError(f"{x} is left after dividing out the coprime base")
    columns: list[list[int]] = [[] for _ in base]
    for fs, mult in counts.items():
        vec = map(sum, zip([0] * len(base), *(vectors[canon[f]] for f in fs)))
        for col, e in zip(columns, vec):
            col += [e] * mult
    for col in columns:
        col.sort()
    powers: dict[tuple[int, ...], LaurentPoly] = {}
    invs = []
    for i in range(sum(counts.values())):
        exps = tuple(col[i] for col in columns)
        if exps not in powers:
            powers[exps] = math.prod((b**e for b, e in zip(base, exps) if e), start=ONE)
        invs.append(powers[exps])
    return InvariantMultiset.polys(invs + [ZERO] * (len(values) - len(invs)), RING_QLAURENT)


# ---------------------------------------------------------------------------
# greedy diagonalization over Z[v,v^-1]
# ---------------------------------------------------------------------------


# the step cap of every caller; the stall rule ends a failing run long before
# it (after 13-54 steps at the benchmark's report points, and 22-166 at the
# frontier points (3,1,5), (2,2,5), (2,2,6), (5,1,4), (7,1,3), (5,1,5) and
# (7,1,4)), so the cap only guards a progress loop that might never end.  A
# pass at (7,1,4) (315 rows) takes 0.24 s on average (39.8 s for its 166;
# single run, shared 2-core x86-64 machine, CPython 3.11), so a run to the
# cap there would take about 12 minutes.
DIAG_BUDGET = 3000


class DiagonalizationResult(Record):
    # diagonal: an InvariantMultiset, or None; stopped: "cleared" | "stalled" | "budget"
    __slots__ = ("diagonal", "steps", "stopped")

    @property
    def success(self) -> bool:
        return self.stopped == "cleared"


def _complexity(p: LaurentPoly):
    # exponent span is the Euclidean size over the field ring, so it leads
    t = p._terms
    return (max(t) - min(t), len(t), sum(map(abs, t.values())))


def _end_quotient(e: LaurentPoly, piv: LaurentPoly, steps: int = 256) -> LaurentPoly:
    """Shrink e by monomial multiples of piv, working from both exponent ends,
    while each step makes e simpler, and return the sum of those monomials.

    Coefficient division is Euclidean (floor quotients, remainders allowed),
    so this also grinds down end coefficients, not just end exponents.  e and
    piv are nonzero, and at most `steps` steps are taken.  The steps run on
    slots wide enough for the first of them (`_Slots.grind`): |c| <= max|e| + 1
    for its monomial c v^k, so max|e| + |c| max|piv| is below 2^(bits-2)
    once bits >= bitlen max|e| + bitlen max|piv| + 2.
    """
    need = sum(max(map(abs, p._terms.values())).bit_length() for p in (e, piv)) + 2
    slots = _Slots(-(-need // 64) * 64)
    return LaurentPoly(slots.grind(slots.pack(e), slots.pack(piv), steps))


class _SlotOverflow(ArithmeticError):
    """A coefficient reached the slot bound; args[0] is a slot width, in
    bits, whose bound it is below."""


class _Entry:
    """A nonzero entry of the Z[v,v^-1] diagonalizer: v^lo * sum_k c_k v^k
    with c_0 != 0, packed as the int value = sum_k c_k 2^(W k) at the slot
    width W of its run, beside span (the degree of the sum), an upper bound
    on every |c_k|, and its LaurentPoly and key once decoded."""

    __slots__ = ("value", "lo", "span", "bound", "poly", "key")

    def __init__(self, value: int, lo: int, span: int, bound: int, poly=None):
        self.value, self.lo, self.span, self.bound, self.poly, self.key = (
            value, lo, span, bound, poly, None)


_SPAN = attrgetter("span")


class _Slots:
    """The Z[v,v^-1] diagonalizer's entries packed in slots of `bits` bits,
    a multiple of 64, with the row scan, the quotients and the row reduction
    that `_diagonalize` runs on them; a zero entry is None.

    Every coefficient stays below the slot bound 2^(bits-2), one bit inside
    the 2^(bits-1) that balanced digits need.  So the digits c_k of value
    are the signed coefficients, which `_unpack_signed` reads, and
    value.bit_length() // bits is the span.  A row update a - q*b is one
    packed product, one shift and one subtraction once max|a| + |q|_1 max|b|
    is below the bound; failing that, the two entries' bounds are tightened
    to their decoded maxima, and failing that too, the entry is computed
    exactly by `sub_product`.  A coefficient at or above the bound raises
    _SlotOverflow: nothing wraps.
    """

    def __init__(self, bits: int):
        self.bits, self.nbytes = bits, bits // 8
        self.limit, self.half = 1 << (bits - 2), 1 << (bits - 1)
        self.low = (1 << bits) - 1
        # the pivot row of the last reduce, its pivot, nonzero columns and end digits
        self.pivot = (None, None, (), (0, 0))

    def pack(self, p: LaurentPoly) -> _Entry:
        """p, nonzero, as an entry that holds p as its decoded form."""
        t = p._terms
        lo, top = min(t), max(map(abs, t.values()))
        if top >= self.limit:
            # the least multiple of 64 bits whose bound 2^(bits-2) is above top
            raise _SlotOverflow(-(-(top.bit_length() + 2) // 64) * 64)
        value = sum(c << self.bits * (e - lo) for e, c in t.items())
        return _Entry(value, lo, max(t) - lo, top, p)

    def poly(self, e: _Entry) -> LaurentPoly:
        if e.poly is None:
            digits = _unpack_signed(e.value, self.nbytes, e.span + 1)
            e.poly = _owned({e.lo + k: c for k, c in enumerate(digits) if c})
        return e.poly

    def key(self, e: _Entry):
        if e.key is None:
            e.key = _complexity(self.poly(e))
        return e.key

    def ends(self, e: _Entry) -> tuple[int, int]:
        """e's top digit, by a rounded shift (the digits below it sum to less
        than half its unit), and its lowest digit, from the lowest slot."""
        at = self.bits * e.span
        low = e.value & self.low
        return (e.value + (1 << at >> 1)) >> at, low - (low >= self.half) * (self.low + 1)

    def entry(self, value: int, lo: int, bound: int) -> _Entry | None:
        """The entry v^lo * value, its lowest zero slots stripped; None for 0."""
        if not value:
            return None
        if not value & self.low:
            k = ((value & -value).bit_length() - 1) // self.bits
            value, lo = value >> self.bits * k, lo + k
        return _Entry(value, lo, value.bit_length() // self.bits, bound)

    def least(self, row: list):
        """The least key over the row's nonzero entries and its first column:
        the span leads the key, so only the entries of least span are
        decoded and keyed."""
        s = min(map(_SPAN, filter(None, row)), default=None)
        if s is None:
            return None
        return min((self.key(e), j) for j, e in enumerate(row) if e and e.span == s)

    def tighten(self, a: _Entry | None, b: _Entry, norm: int) -> int:
        """The bound on a - q*b, |q|_1 = norm, from the decoded maxima of a
        and b, which become their bounds."""
        for e in filter(None, (a, b)):
            e.bound = max(map(abs, self.poly(e)._terms.values()))
        return norm * b.bound + (a.bound if a else 0)

    def exact(self, a: _Entry | None, q: _Entry, b: _Entry) -> _Entry | None:
        r = sub_product(self.poly(a) if a else ZERO, self.poly(q), self.poly(b))
        return self.pack(r) if r else None

    def quotient(self, a: _Entry, b: _Entry) -> tuple[_Entry, int] | None:
        """(q, |q|_1) with a - q*b zero or simpler than a: the exact quotient
        if b divides a, else the end quotient (`grind`); None when neither
        gives a nonzero q.

        Evaluation at 2^bits is a ring map, so a remainder of a.value by
        b.value proves that b does not divide a.  A zero remainder gives a
        candidate q, its balanced digits; if |q|_1 max|b| is below the slot
        bound, every coefficient of q*b is in the slot range, so q*b, equal
        to a at 2^bits, is a.  Otherwise `divide_exact` decides on the
        decoded entries: at 64-bit slots the value of 2v + 1 divides that of
        v^4 + 2^61, with the candidate digits 2^61, -2^62, -2^63, 1, but the
        polynomial does not."""
        if a.span < b.span:
            return None
        value, rem = divmod(a.value, b.value)
        if not rem:
            d = _unpack_signed(value, self.nbytes, (value.bit_length() + 1) // self.bits + 1)
            while not d[-1]:
                d.pop()
            norm = sum(map(abs, d))
            if norm * b.bound < self.limit:
                # the row update reads |q|_1 alone; it bounds every |q_k| too
                return _Entry(value, a.lo - b.lo, len(d) - 1, norm), norm
            q = divide_exact(self.poly(a), self.poly(b))
            if q is not None:
                return self.pack(q), sum(map(abs, q._terms.values()))
        t = {k: c for k, c in self.grind(a, b).items() if c}
        return (self.pack(_owned(t)), sum(map(abs, t.values()))) if t else None

    def grind(self, e: _Entry, piv: _Entry, steps: int = 256) -> dict[int, int]:
        """`_end_quotient` of e by piv on packed values, its monomials by
        exponent: each step is one shifted multiply-subtract, and the keys
        are compared on the span first, so a step is decoded only when its
        span ties.  A step whose bound max|e| + |c| max|piv| reaches the slot
        bound after both are tightened hands e and the steps left to
        `_end_quotient`, on wider slots."""
        bits, limit = self.bits, self.limit
        top_p, low_p = self.pivot[3] if self.pivot[1] is piv else self.ends(piv)
        q: dict[int, int] = {}
        for i in range(steps):
            if e.span < piv.span:
                break
            top, low = self.ends(e)
            for at, c in ((e.span - piv.span, top // top_p), (0, low // low_p)):
                if c:
                    bound = e.bound + abs(c) * piv.bound
                    if bound >= limit and (bound := self.tighten(e, piv, abs(c))) >= limit:
                        rest = _end_quotient(self.poly(e), self.poly(piv), steps - i)
                        for k, x in rest._terms.items():
                            q[k] = q.get(k, 0) + x
                        return q
                    nxt = self.entry(e.value - (c * piv.value << bits * at), e.lo, bound)
                    if nxt is None or nxt.span < e.span or (
                        nxt.span == e.span and self.key(nxt) < self.key(e)
                    ):
                        break
            else:
                break
            k = e.lo - piv.lo + at
            q[k] = q.get(k, 0) + c
            if nxt is None:
                break
            e = nxt
        return q

    def reduce(self, row: list, prow: list) -> list | None:
        piv = prow[0]
        if self.pivot[0] is not prow or self.pivot[1] is not piv:
            # a zero in the pivot row leaves the entry as it is
            self.pivot = (prow, piv, [(j, b) for j, b in enumerate(prow) if b], self.ends(piv))
        found = self.quotient(row[0], piv)
        if found is None:
            return None
        q, norm = found
        qv, qlo = q.value, q.lo
        bits, limit = self.bits, self.limit
        out = list(row)
        for j, b in self.pivot[2]:
            a = out[j]
            bound = norm * b.bound + (a.bound if a else 0)
            if bound >= limit and (bound := self.tighten(a, b, norm)) >= limit:
                out[j] = self.exact(a, q, b)
                continue
            prod, lo = qv * b.value, qlo + b.lo
            if not a:
                value = -prod
            elif lo > a.lo:
                value, lo = a.value - (prod << bits * (lo - a.lo)), a.lo
            elif lo < a.lo:
                value = (a.value << bits * (a.lo - lo)) - prod
            else:
                # only here can the lowest slots cancel
                out[j] = self.entry(a.value - prod, lo, bound)
                continue
            out[j] = _Entry(value, lo, value.bit_length() // bits, bound)
        return out


def try_diagonalize_zlaurent(
    matrix: Sequence[Sequence[LaurentPoly]],
    budget: int = DIAG_BUDGET,
    field_invariants: InvariantMultiset | None = None,
) -> DiagonalizationResult:
    """Greedy elementary reduction over Z[v,v^-1], by the shared loop.

    Pivots on the lowest-complexity entry (smallest exponent span, then
    fewest terms, then smallest coefficient sum) and clears its row and
    column with exact divisions plus end-monomial reductions.  A pass over
    the pivot row and column that changes nothing while they are still not
    clear is a stall, and the reduction stops there, as it does after
    `budget` passes in all.  Z[v,v^-1] is not a PID, so this can only answer
    Success (with a diagonal unimodularly equivalent to the input) or
    Inconclusive; it never claims non-equivalence.  `stopped` says why it
    ended: "cleared", "stalled" or "budget".  On Success the result is
    cross-checked against the complete field-ring and v=1 invariants.  A
    caller that holds the field-ring invariants of matrix from a computation
    that shares no code with this one passes them as `field_invariants`, and
    the check compares with them instead of eliminating matrix over
    Q[v,v^-1]; by default it eliminates.

    The loop runs on packed entries (`_Slots`, see the module docstring),
    which give the pivots, steps, stop reason and diagonal of the same loop
    on LaurentPoly entries.  The input is packed at 64-bit slots, or wider
    where a coefficient needs it, and a run whose coefficients outgrow its
    slots restarts on slots at least twice as wide; the passes do not depend
    on the width, so the restart retraces them.
    """
    _require_square(matrix)
    bits = 64
    while True:
        slots = _Slots(bits)
        try:
            m = [[slots.pack(e) if e else None for e in row] for row in matrix]
            diag, steps, stopped = _diagonalize(m, slots.least, slots.reduce, (0, 1, 1), budget)
            break
        except _SlotOverflow as wider:
            bits = max(2 * bits, wider.args[0])
    if stopped != "cleared":
        return DiagonalizationResult(None, steps, stopped)
    diag = [slots.poly(e) if e else ZERO for e in diag]
    result = InvariantMultiset.polys(diag, RING_ZLAURENT)
    _success_sanity(matrix, diag, field_invariants)
    return DiagonalizationResult(result, steps, "cleared")


def _success_sanity(matrix, diag, field_invariants: InvariantMultiset | None = None) -> None:
    # the field-ring invariants of matrix: a caller's, else by elimination
    if field_invariants is None:
        field_invariants = snf_laurent_field(matrix)
    if not multiset_equal_up_to_units(snf_of_diagonal(diag), field_invariants):
        raise AssertionError("diagonalization changed the field-ring invariants")
    a = snf_int([[e.at_one() for e in row] for row in matrix])
    if not multiset_equal_up_to_units(a, snf_int_diagonal([e.at_one() for e in diag])):
        raise AssertionError("diagonalization changed the v=1 invariants")


# ---------------------------------------------------------------------------
# polynomial gcd over Q[v,v^-1]
# ---------------------------------------------------------------------------


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd over Q[v,v^-1], returned primitive with lowest exponent 0: Euclid
    on pseudo-remainders, each made canonical primitive."""
    while not b.is_zero:
        b = canonical_poly(b, primitive=True)
        a, b = b, _pseudo_divmod(a, b)[1]
    return canonical_poly(a, primitive=True) if not a.is_zero else ZERO
