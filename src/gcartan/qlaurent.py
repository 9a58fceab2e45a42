"""Exact arithmetic in Z[v,v^-1].

Laurent polynomials are kept in canonical sparse form: a map from integer
exponent to nonzero ``int`` coefficient.  Coefficients are arbitrary-precision,
so every operation here is exact; a rational multiple is carried as an integer
polynomial and a separate integer denominator.  On top of the ring arithmetic
this module provides the quantum integers ``[n]_s`` and their products,
Gaussian binomials, cyclotomic polynomials, the bar involution ``v -> v^-1``,
unit normalization, and exact vanishing tests at roots of unity (by exact
division by Phi_m(v), never in floating point).

A product of two polynomials takes one of two paths, chosen per product from
the operands' term counts and coefficient bits by an estimate of both costs
(`_packed_product`, whose constants were fitted to timed products): a dict
schoolbook over every pair of terms, which wins when one operand is short or
when a long operand of wide coefficients meets one of narrow coefficients,
or Kronecker substitution, which wins on operands of like size: each
operand evaluated at v^g = 2^W, g the gcd of its exponent steps and W a
slot width that bounds every coefficient of the product, so that one
big-integer product carries them all.  On the powers of the factor
determinants of a Gram determinant, 3-8 times faster than the dict.
`power_product` multiplies a product of powers, largest first, over
Z[v,v^-1] or over Z.  The slot codec of those packed ints
(`_slot_width`, `_pack`, `_unpack`, `_unpack_signed`) is this module's, and
the determinant kernel, the Gram assembly and the Smith-form engines read
their packed rows and entries through it.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence


class LaurentPoly:
    """A Laurent polynomial over Z in the variable v, as a sparse exponent map."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                # type, not isinstance: a bool would serialise as "True"
                if type(e) is not int:
                    raise TypeError(f"exponent {e!r} is not an integer")
                if type(c) is not int:
                    raise TypeError(f"coefficient {c!r} is not an integer")
                if c:
                    t[e] = c
        self._terms = t

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c: int) -> LaurentPoly:
        return LaurentPoly({0: c})

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The exponent-to-coefficient map (a copy; instances are immutable)."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def coefficient(self, e: int) -> int:
        return self._terms.get(e, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items(), reverse=True))

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals the int c, so it hashes as c does
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other) -> LaurentPoly:
        other = _coerce_int_poly(other)
        if other is None:
            return NotImplemented
        r = dict(self._terms)
        for e, c in other._terms.items():
            s = r.get(e, 0) + c
            if s:
                r[e] = s
            else:
                r.pop(e, None)
        return _owned(r)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _owned({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        other = _coerce_int_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, int):
            if not other:
                return ZERO
            return _owned({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) >= _PACK_MIN_TERMS and (packed := _packed_product(a, b)) is not None:
            return _owned(packed)
        r: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = r.get(e, 0) + c1 * c2
                if s:
                    r[e] = s
                else:
                    del r[e]
        return _owned(r)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[v,v^-1]")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure maps ----------------------------------------------------------

    def bar(self) -> LaurentPoly:
        """The Q-algebra involution v -> v^-1 (exponent negation)."""
        return _owned({-e: c for e, c in self._terms.items()})

    def subst_power(self, s: int) -> LaurentPoly:
        """The ring homomorphism v -> v^s for nonzero s."""
        if s == 0:
            raise ValueError("v -> v^0 is not a ring homomorphism of Z[v,v^-1]")
        return _owned({e * s: c for e, c in self._terms.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiplication by the unit v^k."""
        return _owned({e + k: c for e, c in self._terms.items()})

    def at_one(self) -> int:
        """Exact evaluation at v = 1."""
        return sum(self._terms.values())

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._terms.values()) if self._terms else 0

    def is_bar_invariant(self) -> bool:
        return all(self._terms.get(-e, 0) == c for e, c in self._terms.items())

    # -- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e, c in sorted(self._terms.items(), reverse=True):
            if e == 0:
                body = str(abs(c))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                body = vpow if abs(c) == 1 else f"{abs(c)}*{vpow}"
            if not bits:
                bits.append(body if c > 0 else "-" + body)
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- JSON encoding (exponents/coefficients as decimal strings) -------------

    def to_json(self) -> dict:
        return {"terms": {str(e): str(c) for e, c in sorted(self._terms.items())}}

    @staticmethod
    def from_json(obj: dict) -> LaurentPoly:
        """Inverse of to_json.  Exponents and coefficients must be integers
        or integer strings, not bools or floats, and no two keys may name
        one exponent ("1" and "01", "0" and "-0"); anything else raises
        ValueError."""
        terms = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(terms, dict):
            raise ValueError(f"expected {{'terms': {{exponent: coefficient}}}}, got {obj!r}")
        out: dict[int, int] = {}
        for e, c in terms.items():
            if (k := _json_int(e)) in out:
                raise ValueError(f"exponent {k} is given twice")
            out[k] = _json_int(c)
        return LaurentPoly(out)


def _json_int(x) -> int:
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    if type(x) is not int:  # JSON true and 2.5 are not integers
        raise ValueError(f"not an integer: {x!r}")
    return x


def _owned(terms: dict[int, int]) -> LaurentPoly:
    """A LaurentPoly on `terms` as given, without the constructor's checks:
    only for terms a caller computed itself, every exponent an int and every
    coefficient a nonzero int, and which nothing else holds.  Input from
    outside goes through `LaurentPoly(terms)`, which checks it."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


def _coerce_int_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return None


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


# ---------------------------------------------------------------------------
# the slot codec, and products by Kronecker substitution
# ---------------------------------------------------------------------------

# unsigned array typecodes by item size in bytes, for 1, 2, 4 and 8
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_width(bound: int) -> int:
    """Bytes per slot for slots that must hold every integer in [0, bound]:
    the least of 1, 2, 4 and 8 bytes that does, else the least whole number
    of bytes.  The first four widths are the item sizes of `array`, which
    packs and unpacks a whole row in C (see `_pack`)."""
    nbytes = (bound.bit_length() + 7) // 8
    return next((w for w in (1, 2, 4, 8) if nbytes <= w), nbytes)


def _pack(row: Sequence[int], width: int) -> int:
    """One int whose width-byte slots hold the non-negative entries of row,
    the first entry in the lowest slot.

    A width of 1, 2, 4 or 8 bytes (as `_slot_width` picks) goes through an
    unsigned `array` of that item size, byteswapped on big-endian hosts, so
    the row is converted in one C call; an entry that does not fit raises
    OverflowError there.  Any other width takes the per-entry route."""
    code = _TYPECODES.get(width)
    if code is None:
        return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in row]), "little")
    packed = array(code, row)
    if _BIG_ENDIAN:
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpack(packed: int, width: int, n: int) -> list[int]:
    """The n width-byte slots of packed, lowest first: the inverse of `_pack`,
    by an `array` of the slot's item size where there is one."""
    raw = packed.to_bytes(width * n, "little")
    code = _TYPECODES.get(width)
    if code is None:
        return [int.from_bytes(raw[j : j + width], "little") for j in range(0, width * n, width)]
    slots = array(code, raw)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots.tolist()


def _unpack_signed(packed: int, width: int, n: int) -> list[int]:
    """The n balanced digits of packed, lowest first, at the base 2^(8 width):
    packed must have n such digits, each in [-2^(8 width - 1),
    2^(8 width - 1)).  Adding the bias, 2^(8 width - 1) in every slot, makes
    slot k of packed u = c_k + 2^(8 width - 1), read by `_unpack`; at 8 bytes,
    u with its top bit flipped is c_k as a signed 8-byte int, so `array`
    decodes the whole row in C."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    if width == 8:
        signed = array("q", ((packed + bias) ^ bias).to_bytes(8 * n, "little"))
        if _BIG_ENDIAN:
            signed.byteswap()
        return signed.tolist()
    half = 1 << (8 * width - 1)
    return [u - half for u in _unpack(packed + bias, width, n)]


# The product's two paths.  Below _PACK_MIN_TERMS terms in the shorter
# operand it takes the dict schoolbook without an estimate: at 8 terms
# packing won only against 64 terms of at most 40-bit coefficients, by under
# 2x, and lost by up to 5x elsewhere.  Above, `_packed_product` estimates both
# costs in nanoseconds, with constants fitted by least squares to 519 timed
# products of dense operands (8 to 512 terms against 1 to 8 times as many,
# coefficients of 8 to 1200 bits; shared 2-core x86-64 machine, CPython
# 3.11.7; both fits within 10-12% at the median):
#   dict:   182 per pair of terms, 1.15 per product of two 30-bit digits;
#   packed: 1.10 per digit product of the one big-integer product
#           (`_mul_digits`), 7.6 per byte and 291 per slot packed or decoded;
# the two costs per digit product are both taken as 1.
_PACK_MIN_TERMS = 16
_DICT_TERM, _PACK_BYTE, _PACK_SLOT = 182, 8, 291


def _mul_digits(m: int, n: int) -> int:
    """Digit products of CPython's product of an m-digit and an n-digit int,
    m <= n, in 30-bit digits: schoolbook up to 70 digits, Karatsuba above,
    and an operand under half the other's length cut into slices of it."""
    if m <= 70:
        return m * n
    if 2 * m <= n:
        return -(-n // m) * _mul_digits(m, m)
    return 3 * _mul_digits((m + 1) // 2, (n + 1) // 2)


def _packed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """The terms of the product of the term maps a and b, len(a) <= len(b),
    by one big-integer product (Kronecker substitution); None when the dict
    schoolbook is estimated to be cheaper (see _PACK_MIN_TERMS).

    Both operands are taken over their lowest exponents in the variable
    v^g, g the gcd of every exponent's distance from its operand's lowest
    (a Gram entry or determinant has exponents of one parity, so g = 2
    halves the slots).  Each is evaluated at v^g = 2^W with balanced digits:
    its positive coefficients packed as one byte string (`_pack`) less its
    negative ones as another.  No coefficient of the product exceeds
    min(|a|_1 max|b|, |b|_1 max|a|), and W is that bound's width with a
    sign bit, rounded up as `_slot_width` rounds, so the product's balanced
    digits (`_unpack_signed`) are its coefficients."""
    na, nb, va, vb = len(a), len(b), a.values(), b.values()
    da, db = sum(map(int.bit_length, va)) // 30 + na, sum(map(int.bit_length, vb)) // 30 + nb
    dict_cost = na * nb * _DICT_TERM + da * db
    # packing costs at least its slots, of which there are at least as many
    # as terms
    if dict_cost <= 2 * (na + nb) * _PACK_SLOT:
        return None
    lo_a, lo_b = min(a), min(b)
    step = math.gcd(*[e - lo_a for e in a], *[e - lo_b for e in b])
    sa, sb = (max(a) - lo_a) // step + 1, (max(b) - lo_b) // step + 1
    bound = min(sum(map(abs, va)) * max(map(abs, vb)), sum(map(abs, vb)) * max(map(abs, va)))
    width = _slot_width(2 * bound + 1)  # the bound and a sign bit
    la, lb = sorted((8 * width * sa // 30 + 1, 8 * width * sb // 30 + 1))
    pack_cost = _mul_digits(la, lb) + 2 * (sa + sb) * (width * _PACK_BYTE + _PACK_SLOT)
    if pack_cost >= dict_cost:
        return None
    x = _signed_pack(a, lo_a, step, sa, width)
    y = x if a is b else _signed_pack(b, lo_b, step, sb, width)
    lo = lo_a + lo_b
    return {lo + k * step: c for k, c in enumerate(_unpack_signed(x * y, width, sa + sb - 1)) if c}


def _signed_pack(terms: dict[int, int], lo: int, step: int, n: int, width: int) -> int:
    # the value at v^step = 2^(8 width) of terms over v^lo: the positive
    # coefficients packed as one byte string, less the negative ones as another
    rows = [0] * n, [0] * n
    for e, c in terms.items():
        rows[c < 0][(e - lo) // step] = abs(c)
    return _pack(rows[0], width) - _pack(rows[1], width)


def power_product(powers: Iterable[tuple], one):
    """prod x^n over the (x, n) pairs of powers, n >= 0, in Z[v,v^-1] or in
    Z (one is ONE or 1, the empty product).  Each x^n is one power by
    squaring; the powers are then folded into the largest, largest first by
    their coefficients' bits, each product choosing its own path.  Folding
    beat multiplying the two smallest first (the order where a packed product
    gains most) on the products of powers timed: 5.5-6.4 against 8.0-9.4 s at
    (4,8), 0.58-0.67 against 0.71-0.84 s at (4,7), 0.11-0.12 against 0.21-0.24
    s at (2,14) and 0.84-1.02 against 1.29-1.61 s for shapovalov_det_formula
    of A_2 at d = 10: there the balanced top products, packed at the width of
    their widest coefficients, cost more than the sparse factors they would
    spare.  It lost 2-3 ms at (5,4) and (4,5) and 15-18 ms at (7,4) (three or
    four runs each, shared 2-core x86-64 machine, CPython 3.11.7)."""
    return math.prod(sorted((x**n for x, n in powers), key=_bits, reverse=True), start=one)


def _bits(x) -> int:
    # the coefficient bits of an int or a LaurentPoly
    return x.bit_length() if isinstance(x, int) else sum(map(int.bit_length, x._terms.values()))


# ---------------------------------------------------------------------------
# quantum integers and relatives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def quantum_int(n: int, s: int = 1) -> LaurentPoly:
    """The balanced quantum integer [n]_s = sum_{k=1}^{n} v^{(n+1-2k)s}.

    Extended to all n by [0]_s = 0 and [-n]_s = -[n]_s.  Bar-invariant, and
    [n]_s at v=1 equals n.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if n == 0:
        return ZERO
    if n < 0:
        return -quantum_int(-n, s)
    return LaurentPoly({(n + 1 - 2 * k) * s: 1 for k in range(1, n + 1)})


def bracket_product(factors: Iterable[tuple[int, int]]) -> LaurentPoly:
    """prod [n]_s over the (n, s) pairs of `factors`, each with n, s >= 1.

    The product is kept as dense coefficients from its lowest exponent up.
    As [n]_s = sum_{t<n} v^{(n-1)s - 2ts}, multiplying by it makes each new
    coefficient the sum of a window of n old ones spaced 2s apart, formed as
    a difference of running sums along each residue class mod 2s.
    """
    low = 0
    coeffs = [1]
    for n, s in factors:
        if n < 1 or s < 1:
            raise ValueError(f"bracket products take [n]_s with n, s >= 1, got [{n}]_{s}")
        step = 2 * s
        low -= (n - 1) * s
        coeffs += [0] * ((n - 1) * step)
        for i in range(step, len(coeffs)):
            coeffs[i] += coeffs[i - step]
        for i in range(len(coeffs) - 1, n * step - 1, -1):
            coeffs[i] -= coeffs[i - n * step]
    return LaurentPoly({low + i: c for i, c in enumerate(coeffs) if c})


def quantum_factorial(n: int, s: int = 1) -> LaurentPoly:
    """[n]_s! = prod_{m=1}^{n} [m]_s."""
    if n < 0:
        raise ValueError("quantum factorial needs n >= 0")
    if s < 1:
        raise ValueError("s must be a positive integer")
    return bracket_product((m, s) for m in range(1, n + 1))


def quantum_binomial(n: int, m: int, s: int = 1) -> LaurentPoly:
    """The Gaussian binomial [n]_s! / ([m]_s! [n-m]_s!), exact in Z[v,v^-1]."""
    if n < m:
        raise ValueError(f"binomial needs n >= m, got n={n}, m={m}")
    if m < 0:
        raise ValueError("binomial needs m >= 0")
    num = quantum_factorial(n, s)
    den = quantum_factorial(m, s) * quantum_factorial(n - m, s)
    return exact_quotient(num, den)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> LaurentPoly:
    """The m-th cyclotomic polynomial Phi_m(v), via v^m - 1 = prod_{d|m} Phi_d."""
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = LaurentPoly({m: 1, 0: -1})
    for d in range(1, m):
        if m % d == 0:
            num = exact_quotient(num, cyclotomic(d))
    return num


def kss_bracket(n: int, s: int) -> LaurentPoly:
    """{n}_s = (v^{ns} + (-1)^s v^{-ns}) / (v^s + (-1)^s v^{-s}) for odd n.

    At v=1 this is n for odd s and 1 for even s.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("{n}_s is defined for odd positive n only")
    if s < 1:
        raise ValueError("s must be a positive integer")
    sign = -1 if s % 2 else 1
    return exact_quotient(LaurentPoly({n * s: 1, -n * s: sign}), LaurentPoly({s: 1, -s: sign}))


def su_bracket(p: int) -> LaurentPoly:
    """[p]^su = (v^p + v^-p) / (v + v^-1) for odd p; equals 1 at v=1."""
    if p < 1 or p % 2 == 0:
        raise ValueError("[p]^su is defined for odd positive p only")
    return exact_quotient(LaurentPoly({p: 1, -p: 1}), LaurentPoly({1: 1, -1: 1}))


# ---------------------------------------------------------------------------
# units, exact division, root-of-unity vanishing
# ---------------------------------------------------------------------------


def normalize_unit(a: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Write a = unit * canonical with unit = +-v^k.

    The canonical representative has lowest exponent 0 and positive leading
    (highest-exponent) coefficient; this picks one element per orbit of the
    unit group of Z[v,v^-1].
    """
    if a.is_zero:
        raise ValueError("cannot unit-normalize 0")
    k = a.min_exp
    sign = 1 if a.coefficient(a.max_exp) > 0 else -1
    canonical = a.shift(-k) * sign
    return LaurentPoly({k: sign}), canonical


def sub_product(a: LaurentPoly, q: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a - q*b, in one pass that subtracts each term product of q and b from
    a copy of a's terms; equal to a - q * b, without its product and its
    intermediate sum."""
    r = dict(a._terms)
    for e1, c1 in q._terms.items():
        for e2, c2 in b._terms.items():
            e = e1 + e2
            s = r.get(e, 0) - c1 * c2
            if s:
                r[e] = s
            else:
                del r[e]
    return _owned(r)


def divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Return q with a = q*b if q exists in Z[v,v^-1], else None.  A monomial
    b = c v^k divides a exactly when c divides every coefficient of a, and
    is handled term by term; any other b by long division in a's own
    exponents: each quotient term v^k cancels the remainder's top term, and
    k below min(a) - min(b) means b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    tb = b._terms
    if len(tb) == 1:
        ((k, c),) = tb.items()
        t = {}
        for e, x in a._terms.items():
            y, rem = divmod(x, c)
            if rem:
                return None
            t[e - k] = y
        return _owned(t)
    r, top = dict(a._terms), max(tb)
    lead, floor = tb[top], min(r) - min(tb)
    q: dict[int, int] = {}
    while r:
        k = max(r) - top
        c, rem = divmod(r[k + top], lead)
        if rem or k < floor:
            return None
        q[k] = c
        for e, cb in tb.items():
            s = r.get(e + k, 0) - c * cb
            if s:
                r[e + k] = s
            else:
                del r[e + k]
    return _owned(q)


def exact_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b for a quotient that must exist in Z[v,v^-1]; ArithmeticError
    when b does not divide a."""
    q = divide_exact(a, b)
    if q is None:
        raise ArithmeticError(f"{b} does not divide {a} in Z[v,v^-1]")
    return q


def vanishes_at_primitive_root(a: LaurentPoly, m: int) -> bool:
    """True iff a vanishes at exp(2*pi*i/m).  Phi_m is monic and is the
    minimal polynomial of that root, so a vanishes there exactly when Phi_m
    divides a in Z[v,v^-1]."""
    return divide_exact(a, cyclotomic(m)) is not None


# ---------------------------------------------------------------------------
# canonical factorization of products of quantum integers
# ---------------------------------------------------------------------------
#
# [n]_k = v^{-(n-1)k} (v^{2nk} - 1) / (v^{2k} - 1), so a formal product of
# brackets is v^shift prod_N (v^N - 1)^{f_N} with integer f_N.  As
# v^N - 1 = prod_{d|N} Phi_d, the product's exponent of Phi_d is the sum of
# f_N over the multiples N of d: a unitriangular change of basis in
# divisibility order, so distinct f give distinct cyclotomic exponents (at a
# largest N where two f differ, so do the exponents of Phi_N).  The Phi_d are
# pairwise non-associate primes of Z[v,v^-1], whose units are +-v^k, so two
# products are equal iff their shifts and their f agree.  This lets huge
# products (degrees in the tens of thousands) be compared exactly without
# expansion.


class QProduct:
    """A formal product of quantum integers, v^vshift prod_N (v^N - 1)^f_N
    with f = factors; by the canonicity above, equal data mean equal
    products."""

    __slots__ = ("vshift", "factors")

    def __init__(self):
        self.vshift = 0
        self.factors: dict[int, int] = {}

    def mul_bracket(self, n: int, k: int, power: int = 1) -> "QProduct":
        """Multiply by [n]_k^power (n >= 1, k >= 1): add power to f_{2nk}
        and -power to f_{2k}."""
        if n < 1 or k < 1 or power < 0:
            raise ValueError("QProduct tracks products of [n]_k with n,k >= 1")
        self.vshift -= (n - 1) * k * power
        for m, f in ((2 * n * k, power), (2 * k, -power)):
            f += self.factors.pop(m, 0)
            if f:
                self.factors[m] = f
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, QProduct):
            return NotImplemented
        return self.vshift == other.vshift and self.factors == other.factors
