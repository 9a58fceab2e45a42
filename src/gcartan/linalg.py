"""Exact determinants of matrices over Z and Z[v,v^-1].

int_det is fraction-free Bareiss elimination over Z; every interior division
is exact, and is checked to be so.  laurent_det is a multi-modular kernel:
evaluation mod p at enough points, F_p elimination at each (on the upper
triangle only when the matrix is symmetric, every point's elimination in
lockstep so that one modular inverse per step serves all their pivots),
Newton interpolation on packed ints, CRT and a
symmetric lift under a Hadamard coefficient bound B (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 5).  When the entries' exponent parities split
into row and column parities (checked from the entries), the determinant is
even or odd, and half the points suffice.  Every base factor P(m) of a Gram
matrix checked is so graded, and so is each half of its colour reversal split
when m(k-1) is even (k colours); when it is odd, the reversal flips the row
parities and neither half is graded (both 126-row halves of P(5) at (ell, d) =
(7,5)), and those take all the points.  The modulus is the smallest prime of
PRIMES above 2B.  The table holds one prime per 30 bits up to 2190 bits and
five Mersenne primes up to 4423 bits; only a bound past the largest takes a
product of primes.

Its prime loop, CRT and lift (`_lift`) also serve symmetric integer matrices
(`_int_det_multimodular`).  Neither integer determinant wins everywhere, so
each caller picks the one it uses.  On a whole Cartan matrix C(1) at v=1,
Bareiss against the kernel took 0.07-0.09/0.02-0.03 s at (ell, d) = (7,3),
0.18-0.26/0.22-0.26 s at (4,5), 3.2-3.6/8.6-10.5 s at (5,5), 5.2-5.9/8.6-8.8 s
at (7,4) and 1.9-2.4/17-18 s at (3,8) (two runs each, shared 2-core machine,
CPython 3.11): there Hadamard's bound is far above |det| (2047 against 469
bits at (7,4)).  So `snf_int` and the command line keep int_det, while the
Gram determinant at v=1 takes its factors by the kernel, 6 times faster
than by Bareiss at (9,4) (0.055 against 0.34 s).  Every bound is an
integer, so no result rests on rounding, and a bound the prime table cannot
cover raises instead of guessing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import mul
from typing import Sequence

from .qlaurent import ONE, ZERO, LaurentPoly, _pack, _slot_width, _unpack, _unpack_signed

# The moduli of laurent_det, smallest first: for b = 30, 60, ..., 2190 (one
# prime per 30-bit digit of a CPython int) the largest Proth prime below 2^b,
# which is 2^b - d 2^(b/2) + 1 for the least d that makes it prime, stored
# as (b, d); then the Mersenne primes 2^k - 1 above them, stored as k.  Each
# is certified in the test suite (Proth's theorem, Lucas-Lehmer), never at
# import: PRIMES is built by shifts alone.
PROTH_LADDER = (
    (30, 3), (60, 10), (90, 3), (120, 85), (150, 162), (180, 25), (210, 38), (240, 4),
    (270, 159), (300, 97), (330, 162), (360, 4), (390, 138), (420, 300), (450, 54),
    (480, 213), (510, 36), (540, 105), (570, 11), (600, 109), (630, 249), (660, 217),
    (690, 258), (720, 459), (750, 29), (780, 40), (810, 437), (840, 183), (870, 171),
    (900, 166), (930, 99), (960, 238), (990, 941), (1020, 540), (1050, 68), (1080, 459),
    (1110, 288), (1140, 1744), (1170, 557), (1200, 489), (1230, 258), (1260, 2766),
    (1290, 258), (1320, 190), (1350, 419), (1380, 412), (1410, 393), (1440, 286),
    (1470, 173), (1500, 537), (1530, 456), (1560, 120), (1590, 558), (1620, 4), (1650, 773),
    (1680, 120), (1710, 203), (1740, 99), (1770, 171), (1800, 3039), (1830, 462),
    (1860, 61), (1890, 347), (1920, 456), (1950, 1349), (1980, 274), (2010, 71),
    (2040, 1011), (2070, 761), (2100, 939), (2130, 924), (2160, 603), (2190, 431),
)
MERSENNE_EXPONENTS = (2203, 2281, 3217, 4253, 4423)
PRIMES = tuple(
    [(1 << b) - (d << b // 2) + 1 for b, d in PROTH_LADDER]
    + [(1 << k) - 1 for k in MERSENNE_EXPONENTS]
)
# the most matrix entries that `_interpolate_mod` hands `_sym_det_mod` at
# once, which holds each node's upper triangle and reduced rows together
_LOCKSTEP_ENTRIES = 1 << 15


def _require_square(matrix: Sequence[Sequence]) -> int:
    """The row count of matrix, which must be square (ValueError if not)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return n


def _int_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """A copy of matrix as lists of rows, every entry an int: anything else,
    bools included, raises TypeError rather than being truncated by int()."""
    rows = [list(row) for row in matrix]
    bad = [x for row in rows for x in row if type(x) is not int]
    if bad:
        raise TypeError(f"not an integer entry: {bad[0]!r}")
    return rows


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination; an entry that
    is not an int raises TypeError."""
    n = _require_square(matrix)
    if n == 0:
        return 1
    m = _int_rows(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - mik * row_k[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError("Bareiss division failed")
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def laurent_det(matrix: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix over Z[v,v^-1], by evaluation
    and interpolation modulo primes of PRIMES.

    Rows are scaled by units v^-lo_i into Z[v].  The determinant is then
    v^shift times a polynomial P(v) of degree at most D, the sum of the row
    exponent spans.  When every entry is bar-invariant, so is the determinant,
    and the matrix is a polynomial matrix in w = v + v^-1 of row degrees hi_i;
    P is then a polynomial in w of degree at most D = sum hi_i, and the value
    at w = t serves both points z, z^-1 with z + z^-1 = t.  P is evaluated at
    D + 1 nodes t = 0..D mod p (one power table per node, F_p elimination per
    node, symmetric elimination on the upper triangle when the coefficient
    rows are symmetric) and recovered by Newton interpolation.

    Half the nodes serve when the matrix is parity graded: every entry
    (i, j) has exponents (in v, or degree in w) of one parity, which is
    rho_i + kappa_j mod 2 for some row parities rho and column parities
    kappa (`_parity_grading` looks for them from the entries).  Then
    A(-x) = R A(x) K with R = diag((-1)^rho_i) and K = diag((-1)^kappa_j),
    so det A(-x) = (-1)^e det A(x) with e = sum rho + sum kappa mod 2, and
    P(x) = x^e Q(x^2) with Q of degree N = floor((D - e) / 2).  Q is
    interpolated from P(t) / t^e at the N + 1 nodes x = t^2, t = e..N + e.

    Every coefficient c of the result satisfies |c| <= B, where
    B^2 = prod_rows sum_j ||m_ij||_1^2 (Hadamard's inequality on the unit
    circle).  The modulus is the smallest prime of PRIMES above 2B, within
    30 bits of 2B up to 2190 bits; past the largest prime, the largest primes
    whose product exceeds 2B, combined by CRT.  Each coefficient is lifted to
    the symmetric range.  A bound beyond the table raises ArithmeticError.
    """
    if not _require_square(matrix):
        return ONE
    bar = all(e.is_bar_invariant() for row in matrix for e in row)
    lows = []
    bound_sq = 1
    for row in matrix:
        nonzero = [e for e in row if not e.is_zero]
        if not nonzero:
            return ZERO
        bound_sq *= sum(sum(abs(c) for _, c in e) ** 2 for e in nonzero)
        lows.append(0 if bar else min(e.min_exp for e in nonzero))
    # row i lies in v^lo_i Z[v], so the determinant is v^shift P(v); each
    # entry becomes dense coefficients from v^0 (when bar-invariant, c_k is
    # the coefficient of v^k + v^-k)
    degree = 0
    width = 1
    rows = []
    for row, lo in zip(matrix, lows):
        dense = [tuple(e.coefficient(k) for k in range(lo, e.max_exp + 1)) if e else () for e in row]
        span = max(map(len, dense)) - 1
        degree += span
        width = max(width, span + 1)
        rows.append(dense)
    parity = _parity_grading(rows)
    coeffs = _lift(bound_sq, lambda p: _interpolate_mod(rows, width, degree, bar, parity, p))
    # coeffs run from v^0 up, or from v^-degree up when bar-invariant
    shift = -degree if bar else sum(lows)
    return LaurentPoly({shift + k: c for k, c in enumerate(coeffs) if c})


def _parity_grading(rows) -> int | None:
    """e = sum rho + sum kappa mod 2 for row and column parities with every
    nonzero coefficient c_k of entry (i, j) at k = rho_i + kappa_j mod 2, or
    None when the dense coefficient rows have no such grading.

    Each nonzero entry ties rho_i to kappa_j; the ties are followed through
    each connected component of the bipartite graph of nonzero entries from
    one row (or column) set to 0, and a tie that closes a cycle with the
    wrong parity rules the grading out.  The choice within a component is
    free only up to flipping all of it, which changes e by its row count
    plus its column count; when those differ the determinant is 0 (no
    permutation stays inside the nonzero entries), so e is then moot."""
    n = len(rows)
    # nodes 0..n-1 are the rows, n..2n-1 the columns
    ties: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for i, row in enumerate(rows):
        for j, cs in enumerate(row):
            even, odd = any(cs[::2]), any(cs[1::2])
            if even and odd:
                return None
            if even or odd:
                ties[i].append((n + j, odd))
                ties[n + j].append((i, odd))
    label: list[int | None] = [None] * (2 * n)
    for root in range(2 * n):
        if label[root] is not None:
            continue
        label[root] = 0
        todo = [root]
        while todo:
            a = todo.pop()
            for b, odd in ties[a]:
                want = label[a] ^ odd
                if label[b] is None:
                    label[b] = want
                    todo.append(b)
                elif label[b] != want:
                    return None
    return sum(label) % 2


def _int_det_multimodular(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a symmetric integer matrix by the kernel of
    laurent_det: symmetric F_p elimination on the upper triangle
    (`_sym_det_mod`) modulo the table primes that Hadamard's bound
    B^2 = prod_rows sum_j m_ij^2 asks for, CRT and a symmetric lift.  A zero
    row gives 0; a matrix that is not symmetric raises ValueError."""
    n = _require_square(matrix)
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    bound_sq = math.prod(sum(x * x for x in row) for row in matrix)
    if not bound_sq:
        return 0
    upper = [row[i:] for i, row in enumerate(matrix)]
    return _lift(bound_sq, lambda p: _sym_det_mod([[[x % p for x in row] for row in upper]], p))[0]


def _lift(bound_sq: int, residues) -> list[int]:
    """The integers c_k with |c_k| <= B, B^2 <= bound_sq, from their residues
    mod p (residues(p), a list), over the moduli of _moduli: CRT, then each
    value lifted to the symmetric range of the product."""
    modulus = 1
    coeffs: list[int] = []
    for p in _moduli(bound_sq):
        found = residues(p)
        if modulus == 1:
            coeffs = found
        else:
            inv = pow(modulus, -1, p)
            coeffs = [a + modulus * ((b - a) * inv % p) for a, b in zip(coeffs, found)]
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


def _moduli(bound_sq: int) -> list[int]:
    # the product M of the moduli must exceed 2B, i.e. M > isqrt(4 B^2): the
    # smallest single prime of PRIMES that does, at most 30 bits above 2B up
    # to the top of the ladder, else the largest primes first
    root = math.isqrt(4 * bound_sq)
    i = bisect_right(PRIMES, root)
    if i < len(PRIMES):
        return [PRIMES[i]]
    chosen = []
    product = 1
    for p in reversed(PRIMES):
        chosen.append(p)
        product *= p
        if product > root:
            return chosen
    raise ArithmeticError("determinant coefficient bound exceeds the prime table")


def _interpolate_mod(
    rows, width: int, degree: int, bar: bool, parity: int | None, p: int
) -> list[int]:
    """Coefficients mod p of the determinant of the dense coefficient rows:
    of P(v) from v^0 up to v^degree, or, when bar, of the Laurent polynomial
    from v^-degree up to v^degree.

    P is a polynomial in X = v, or X = w = v + v^-1 when bar.  Without a
    parity grading (parity None), P is interpolated at the nodes
    t = 0..degree; with one, P(X) = X^parity Q(X^2), and Q is interpolated
    from P(t) / t^parity at the nodes x = t^2, t = parity..N + parity with
    N = floor((degree - parity) / 2).  Either way the nodes are distinct
    mod p, since t is far below p / 2 (the smallest table prime is above
    2^29).  When the coefficient rows are symmetric, only the upper triangle
    is evaluated, and the nodes are eliminated together by `_sym_det_mod`,
    at most _LOCKSTEP_ENTRIES matrix entries at a time.

    The two changes of basis after the Newton interpolation run on packed
    ints, reduced mod p only now and then: the Newton form to monomials
    (Horner, acc <- acc (x - x_i) + c_i, a shift, a small multiple and an
    add), and P(w) to the Laurent coefficients (Horner on w = v + v^-1, a
    shift and two adds).  Their slots, as wide as p^2, are reduced mod p
    whenever a bound on their coefficients would reach the slots' sign bit,
    so they stay that wide at any degree."""
    n = len(rows)
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))
    first, power = (0, 1) if parity is None else (parity, 2)
    ts = range(first, first + (degree - first) // power + 1)
    # inverses of 1..2 max(ts) + 1, one multiplication each: p = (p // k) k +
    # p % k gives 1/k = -(p // k) / (p % k), and p % k < k
    inv = [0, 1]
    for k in range(2, 2 * first + 2 * len(ts)):
        inv.append(-(p // k) * inv[p % k] % p)

    def evaluated(t: int) -> list[list[int]]:
        # the matrix at the node t (its upper triangle when symmetric), from
        # the powers t^k, or when bar T_k(t) = z^k + z^-k with T_0 = 2 (but
        # the constant coefficient counts once) and T_{k+1} = t T_k - T_{k-1}
        table = [1, t]
        for k in range(1, width - 1):
            if bar:
                table.append((t * table[k] - (table[k - 1] if k > 1 else 2)) % p)
            else:
                table.append(t * table[k] % p)
        return [[sum(map(mul, cs, table)) % p for cs in (row[i:] if symmetric else row)]
                for i, row in enumerate(rows)]

    if symmetric:
        chunk = max(1, _LOCKSTEP_ENTRIES // (n * n))
        values = []
        for at in range(0, len(ts), chunk):
            values += _sym_det_mod([evaluated(t) for t in ts[at : at + chunk]], p)
    else:
        values = [_det_mod(evaluated(t), p) for t in ts]
    if first:
        values = [value * inv[t] % p for value, t in zip(values, ts)]
    # Newton coefficients by divided differences, in place: the gap
    # x_i - x_{i-j} is j for x = t, and j (t_i + t_{i-j}) for x = t^2
    for j in range(1, len(ts)):
        for i in range(len(ts) - 1, j - 1, -1):
            gap = inv[j] if power == 1 else inv[j] * inv[ts[i] + ts[i - j]] % p
            values[i] = (values[i] - values[i - 1]) * gap % p
    # Horner on the Newton form, acc <- acc (x - x_i) + c_i, gives Q's
    # coefficients in x, that of x^e in slot e of acc (P's in X are every
    # power-th from X^first on).  A step takes a bound M on |every
    # coefficient| to M (1 + x_i) + p.  Slots are as wide as p^2; before M
    # would reach a slot's sign bit, every slot is reduced mod p and M is p
    nbytes = _slot_width(p * p)
    limit = 1 << (8 * nbytes - 1)
    acc = bound = 0
    for x, c in zip([t**power for t in reversed(ts)], reversed(values)):
        if bound * (1 + x) + p >= limit:
            acc, bound = _pack([a % p for a in _unpack_signed(acc, nbytes, len(ts))], nbytes), p
        acc = (acc << 8 * nbytes) - x * acc + c
        bound = bound * (1 + x) + p
    coeffs = [0] * (degree + 1)
    coeffs[first::power] = [c % p for c in _unpack_signed(acc, nbytes, len(ts))]
    if not bar:
        return coeffs
    # P(w) to the Laurent coefficients of v^-degree..v^degree, by Horner on
    # w = v + v^-1: after j steps the coefficient of v^e sits in slot e + j,
    # so a step is laurent (v^2 + 1), over one slot more, plus c in slot j.
    # The coefficients only add, a step taking M to 2M + p, and are reduced
    # as above
    laurent = bound = 0
    for j, c in enumerate(reversed(coeffs)):
        if 2 * bound + p >= limit:
            laurent, bound = _pack([u % p for u in _unpack(laurent, nbytes, 2 * j - 1)], nbytes), p
        laurent = (laurent << 16 * nbytes) + laurent + (c << 8 * nbytes * j)
        bound = 2 * bound + p
    return [u % p for u in _unpack(laurent, nbytes, 2 * degree + 1)]


def _det_mod(m: list[list[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination over F_p; m is overwritten."""
    n = len(m)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        row_k = m[k]
        det = det * row_k[k] % p
        inv = pow(row_k[k], -1, p)
        tail = row_k[k + 1:]
        for row_i in m[k + 1:]:
            f = row_i[k]
            if f:
                f = f * inv % p
                row_i[k + 1:] = [(x - f * y) % p for x, y in zip(row_i[k + 1:], tail)]
    return det


def _sym_det_mod(uppers: list[list[list[int]]], p: int) -> list[int]:
    """Determinants mod p of symmetric matrices of one size, matrix m given
    by its upper triangle, row i from the diagonal on being uppers[m][i]:
    symmetric elimination (A = L D L^t) on the upper triangle only, all the
    matrices in lockstep.

    A row is left unreduced until it becomes the pivot row.  Row k of the
    Schur complement is then a_kx - sum_{l<k} (a_lk / d_l) a_lx over the
    reduced pivot rows l, one dot product and one residue per entry.  A zero
    pivot in a nonzero row k, with a_kj != 0, is repaired by the congruence
    row/col k += c row/col j, which keeps the determinant and makes the pivot
    2c a_kj + c^2 a_jj: nonzero for c = 1 or c = 2, since p is odd.  A zero
    row k makes its matrix singular, and it drops out.  At each step one
    modular inverse serves the pivots of every matrix (Montgomery's trick:
    the inverse of their product, unwound by the prefix products, three
    products mod p per pivot in place of a `pow` each).
    """
    n = len(uppers[0]) if uppers else 0
    dets = [1] * len(uppers)
    # per matrix: cols[x], entry x of every reduced pivot row so far, and the
    # inverses 1/d_l of its pivots
    cols = [[[] for _ in range(n)] for _ in uppers]
    inverses: list[list[int]] = [[] for _ in uppers]

    def reduced(m: int, i: int, k: int) -> list[int]:
        # entries k.. of row i of matrix m after the pivots 0..k-1; a_ix = a_xi
        # for x < i
        upper, mcols = uppers[m], cols[m]
        f = [a * w % p for a, w in zip(mcols[i], inverses[m])]
        row = [upper[x][i - x] for x in range(k, i)] + upper[i]
        return [(a - sum(map(mul, f, mcols[x]))) % p for x, a in enumerate(row, k)]

    for k in range(n):
        pivots = {}
        # a singular matrix has det 0 and drops out; every other det is a
        # product of nonzero pivots
        for m in [m for m, det in enumerate(dets) if det]:
            row = reduced(m, k, k)
            if not row[0]:
                j = next((j for j in range(1, n - k) if row[j]), None)
                if j is None:
                    dets[m] = 0
                    continue
                other = reduced(m, k + j, k)
                c = 1 if (2 * row[j] + other[j]) % p else 2
                row = [(a + c * b) % p for a, b in zip(row, other)]
                row[0] = (row[0] + c * row[j]) % p
            dets[m] = dets[m] * row[0] % p
            pivots[m] = row[0]
            for x, a in enumerate(row[1:], k + 1):
                cols[m][x].append(a)
        for m, w in zip(pivots, _inverses_mod(list(pivots.values()), p)):
            inverses[m].append(w)
    return dets


def _inverses_mod(xs: list[int], p: int) -> list[int]:
    """The inverses mod p of the nonzero residues xs, by one `pow`: with
    prefix products q_i = x_0 ... x_{i-1}, 1/x_i = q_i / q_{i+1}, and
    1/q_i = x_i / q_{i+1} walks the inverse of the full product down."""
    prefix = list(accumulate(xs, lambda a, b: a * b % p, initial=1))
    inv = pow(prefix.pop(), -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i], inv = inv * prefix[i] % p, inv * xs[i] % p
    return out
