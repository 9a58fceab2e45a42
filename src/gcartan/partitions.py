"""Partition and multipartition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Colored partitions are tuples of (size, color) pairs in
canonical order: sizes weakly decreasing, and colors weakly decreasing within
a run of equal sizes.  Everything here is a pure function over these values.

Covers enumeration, ell-cores via the abacus (first-column beta-numbers on
ell runners), class-regular sets, block labels, the CUT/INFL/RED/Sort
operators, p-adic splittings, nu_p(n!), and the digit-constrained sets
Psi^{p,r}_a.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

Partition = tuple  # tuple[int, ...], weakly decreasing, positive entries
ColoredPartition = tuple  # tuple[tuple[int, int], ...] in canonical order


class Record:
    """The base of the package's frozen records: a subclass names its fields,
    in order, as its __slots__, and any trailing defaults in `_defaults`.

    Fields are given by position or keyword, and `_check()` validates them
    once they are set.  Equality and hash are by type and field values, the
    repr is `Name(field=value, ...)`, a field cannot be set or deleted
    afterwards, and `pickle` and `copy` rebuild a record from its values.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


def partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize an iterable of parts into a Partition."""
    t = tuple(sorted((int(p) for p in parts), reverse=True))
    if t and t[-1] < 1:
        raise ValueError(f"parts must be positive, got {t}")
    return t


def mults(lam: Partition) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def _gen_partitions(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _gen_partitions(n - k, k):
            yield (k,) + rest


@lru_cache(maxsize=None)
def enum_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_gen_partitions(n, n))


@lru_cache(maxsize=None)
def enum_class_regular(n: int, ell: int) -> tuple[Partition, ...]:
    """CRP_ell(n): partitions of n with no part divisible by ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return tuple(lam for lam in enum_partitions(n) if all(p % ell for p in lam))


def class_regular_count(n: int, ell: int) -> int:
    """|CRP_ell(n)|, the coefficient of q^n in prod_{ell does not divide k}
    1/(1 - q^k), counted in O(n^2) integer steps without enumerating.  It
    equals the sum of u(ell-1, w) over the blocks of rank n, since both count
    the ell-regular partitions of n, so it is the size of the block sum."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell < 2:
        raise ValueError("ell must be >= 2")
    c = [1] + [0] * n
    for k in range(1, n + 1):
        if k % ell:
            for t in range(k, n + 1):
                c[t] += c[t - k]
    return c[n]


@lru_cache(maxsize=None)
def u_count(m: int, n: int) -> int:
    """u(m, n) = |Par_m(n)|, the number of m-multipartitions of n.

    The logarithmic derivative of the generating function
    prod_k (1 - q^k)^(-m) gives t u(m, t) = m sum_{k=1}^{t} sigma(k) u(m, t-k),
    sigma the divisor sum: O(n^2) exact integer steps for any m, so a size
    guard can count a huge m at once, and each division by t is exact.  Note
    u(0,0) = 1 and u(0,n) = 0 for n >= 1.
    """
    if m < 0 or n < 0:
        raise ValueError("u_count needs nonnegative arguments")
    if m == 0:
        return int(n == 0)
    sigma = [sum(k for k in range(1, t + 1) if t % k == 0) for t in range(n + 1)]
    u = [1]
    for t in range(1, n + 1):
        u.append(m * sum(sigma[k] * u[t - k] for k in range(1, t + 1)) // t)
    return u[n]


def multipartitions(m: int, n: int) -> Iterator[tuple[Partition, ...]]:
    """All m-tuples of partitions with total size n."""
    if m == 0:
        if n == 0:
            yield ()
        return
    for k in range(n + 1):
        for lam in enum_partitions(k):
            for rest in multipartitions(m - 1, n - k):
                yield (lam,) + rest


# ---------------------------------------------------------------------------
# abacus: beta-numbers, cores, blocks
# ---------------------------------------------------------------------------


def _beta_numbers(lam: Partition) -> list[int]:
    # first-column hook lengths: strictly decreasing nonnegative integers
    L = len(lam)
    return [lam[i] + (L - 1 - i) for i in range(L)]


def _from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    L = len(beta)
    return tuple(p for p in (beta[i] - (L - 1 - i) for i in range(L)) if p > 0)


def ell_core(lam: Partition, ell: int) -> Partition:
    """The ell-core: push all beads down their runners on an ell-runner abacus.

    Order-independence of rim-hook removal is structural in this encoding.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    runners: list[int] = [0] * ell
    for b in _beta_numbers(lam):
        runners[b % ell] += 1
    beta = [r + ell * pos for r in range(ell) for pos in range(runners[r])]
    return _from_beta(beta)


def is_ell_core(lam: Partition, ell: int) -> bool:
    return ell_core(lam, ell) == lam


def has_rim_hook(lam: Partition, ell: int) -> bool:
    """True iff lam has a removable rim ell-hook (a bead can slide down)."""
    beta = set(_beta_numbers(lam))
    return any(b >= ell and (b - ell) not in beta for b in beta)


class BlockLabel(Record):
    """A block (rho, d): an ell-core rho and weight d with |rho| + ell*d = n."""

    __slots__ = ("core", "weight", "ell")

    def _check(self):
        if not is_ell_core(self.core, self.ell):
            raise ValueError(f"{self.core} is not a {self.ell}-core")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")

    def to_json(self) -> dict:
        return {"core": list(self.core), "weight": self.weight, "ell": self.ell}


@lru_cache(maxsize=None)
def blocks(n: int, ell: int) -> tuple[BlockLabel, ...]:
    """Bl_ell(n): all (rho, d) with rho an ell-core and |rho| + ell*d = n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell < 2:
        raise ValueError("ell must be >= 2")
    out = []
    for d in range(n // ell + 1):
        for rho in enum_partitions(n - ell * d):
            if is_ell_core(rho, ell):
                out.append(BlockLabel(rho, d, ell))
    return tuple(out)


# ---------------------------------------------------------------------------
# the CUT / INFL / RED / Sort operators and p-adic splittings
# ---------------------------------------------------------------------------


def cut(lam: Partition, d: int) -> Partition:
    """Delete every part divisible by d."""
    if d < 1:
        raise ValueError("d must be positive")
    return tuple(p for p in lam if p % d)


def infl(lam: Partition, d: int) -> Partition:
    """Multiply every part by d (length preserved)."""
    if d < 1:
        raise ValueError("d must be positive")
    return tuple(p * d for p in lam)


def red(lam: Partition, ell: int) -> Partition:
    """Floor-divide every part multiplicity by ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    out = []
    for k, m in sorted(mults(lam).items(), reverse=True):
        out.extend([k] * (m // ell))
    return tuple(out)


def sort_merge(seq: Iterable[Partition]) -> Partition:
    """Concatenate part multisets and re-sort into a single partition."""
    out: list[int] = []
    for lam in seq:
        out.extend(lam)
    return tuple(sorted(out, reverse=True))


def p_adic_split(n: int, p: int) -> tuple[int, int]:
    """Write n = a * p^v with p not dividing a; returns (a, v)."""
    if n < 1:
        raise ValueError("n must be positive")
    if p < 2:
        raise ValueError("p must be >= 2")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return n, v


def factorial_valuation(n: int, p: int) -> int:
    """nu_p(n!), the exponent of p in n!, for n >= 0 and p >= 2: by Legendre's
    formula, the sum of floor(n / p^t) over t >= 1."""
    if p < 2:
        raise ValueError("p must be >= 2")
    v, t = 0, p
    while t <= n:
        v += n // t
        t *= p
    return v


def is_prime(p: int) -> bool:
    return p >= 2 and prime_divisors(p) == (p,)


def prime_divisors(n: int) -> tuple[int, ...]:
    """PRS(n): the set of prime divisors of n (empty for n = 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def psi_set(p: int, r: int, a: int) -> tuple[Partition, ...]:
    """Psi^{p,r}_a: the partitions of a into parts p^h with 0 <= h < r.

    Its definition writes a = sum a_i p^i with 0 <= a_j < p for j < r-1 and
    a_{r-1} free, and asks of nu that, for every 0 <= k < r,
    sum_{h>=k} a_h p^{h-k} >= sum_{h>=k} m_{p^h}(nu) p^{h-k}, with equality
    at k = 0.  The left side is floor(a / p^k) and, once the k=0 equality
    holds, the right side is an integer at most a / p^k, so every inequality
    holds: Psi^{p,r}_a is all of CRP_{p^r}(a) with parts in p^N.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if r < 1 or a < 1:
        raise ValueError("need r >= 1 and a >= 1")
    # the parts are the powers p^h <= a, and p >= 2 makes h < a.bit_length()
    powers = [p**h for h in range(min(r, a.bit_length())) if p**h <= a]
    return tuple(sorted(_power_partitions(a, powers), reverse=True))


def _power_partitions(a: int, powers: list[int]) -> Iterator[Partition]:
    # all partitions of a into parts from powers, ascending from powers[0] = 1
    if len(powers) == 1:
        yield (1,) * a
        return
    top = powers[-1]
    for c in range(a // top + 1):
        for rest in _power_partitions(a - c * top, powers[:-1]):
            yield (top,) * c + rest


# ---------------------------------------------------------------------------
# colored partitions
# ---------------------------------------------------------------------------


def colored_partition(pairs: Iterable[tuple[int, int]]) -> ColoredPartition:
    """Canonicalize (size, color) pairs: sizes descending, colors descending
    within equal sizes: (size, color) tuples sorted descending."""
    return tuple(sorted(((int(s), int(c)) for s, c in pairs), reverse=True))


def shape(cp: ColoredPartition) -> Partition:
    return tuple(s for s, _ in cp)


def merge_colored(a: ColoredPartition, b: ColoredPartition) -> ColoredPartition:
    return tuple(sorted(a + b, reverse=True))


def group_by_size(cp: ColoredPartition) -> dict[int, tuple[int, ...]]:
    """Colors of the parts of each size, in the canonical (descending) order."""
    out: dict[int, list[int]] = {}
    for s, c in cp:
        out.setdefault(s, []).append(c)
    return {s: tuple(cs) for s, cs in out.items()}

