"""Exact determinants of matrices over Z and Z[v,v^-1].

Fraction-free Bareiss elimination; every interior division is exact, and is
checked to be so.  Numerical stability is irrelevant here — exactness is the
whole point — so pivoting only chases sparsity.
"""

from __future__ import annotations

from typing import Sequence

from .qlaurent import ONE, ZERO, LaurentPoly, divide_exact


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
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
    """Exact determinant of a square matrix over Z[v,v^-1].

    Rows are first scaled by units v^-k to land in Z[v]; Bareiss elimination
    then keeps every entry in Z[v], and the scaling is undone at the end.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    shift = 0
    m: list[list[LaurentPoly]] = []
    for row in matrix:
        if all(e.is_zero for e in row):
            return ZERO
        k = min(e.min_exp for e in row if not e.is_zero)
        shift += k
        m.append([e.shift(-k) for e in row])

    sign = 1
    prev = ONE
    for k in range(n - 1):
        # pivot on the sparsest nonzero entry in the column (row swaps only)
        best = None
        for i in range(k, n):
            e = m[i][k]
            if not e.is_zero and (best is None or len(e) < len(m[best][k])):
                best = i
        if best is None:
            return ZERO
        if best != k:
            m[k], m[best] = m[best], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            if mik.is_zero:
                if prev is not ONE:
                    for j in range(k + 1, n):
                        q = divide_exact(pivot * m[i][j], prev)
                        if q is None:
                            raise ArithmeticError("Bareiss division failed")
                        m[i][j] = q
                else:
                    for j in range(k + 1, n):
                        m[i][j] = pivot * m[i][j]
            else:
                for j in range(k + 1, n):
                    num = pivot * m[i][j] - mik * m[k][j]
                    if prev is ONE:
                        m[i][j] = num
                    else:
                        q = divide_exact(num, prev)
                        if q is None:
                            raise ArithmeticError("Bareiss division failed")
                        m[i][j] = q
            m[i][k] = ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    return (det if sign == 1 else -det).shift(shift)


def sym_power_matrix(f: Sequence[Sequence[int]], m: int) -> list[list[int]]:
    """The matrix of Sym^m(f) on the monomial basis of Sym^m(k^n).

    Basis elements are weakly increasing index tuples of length m; the image
    of e_T is the product of the images of its factors, expanded in the
    symmetric algebra.
    """
    from itertools import combinations_with_replacement

    n = len(f)
    basis = list(combinations_with_replacement(range(n), m))
    pos = {T: idx for idx, T in enumerate(basis)}
    out = [[0] * len(basis) for _ in range(len(basis))]
    for col, T in enumerate(basis):
        # expand prod_{i in T} (sum_j f[j][i] e_j) into monomials
        acc: dict[tuple, int] = {(): 1}
        for i in T:
            nxt: dict[tuple, int] = {}
            for mono, c in acc.items():
                for j in range(n):
                    cij = f[j][i]
                    if cij:
                        key = tuple(sorted(mono + (j,)))
                        nxt[key] = nxt.get(key, 0) + c * cij
            acc = nxt
        for mono, c in acc.items():
            if c:
                out[pos[mono]][col] += c
    return out
