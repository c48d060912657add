"""Exact ideal arithmetic in quadratic orders Z[w], plus a rational shortcut.

Only maximal orders are supported: w = sqrt(d) when d = 2, 3 (mod 4) and
w = (1+sqrt(d))/2 when d = 1 (mod 4), with d squarefree.  A nonzero ideal
is a rank-2 sublattice with basis rows (a, 0), (b, c) over (1, w), kept in
Hermite normal form with a > 0, c > 0, c | a, c | b, 0 <= b < a; equality
of ideals is therefore plain tuple equality and norm(I) = a*c.

`IntIdeal` is the same machinery for ideals of the rational integers (an
ideal is just its positive generator).  Both ideal classes answer
`_prime_factors(splittings)`, the (P, v_P(I)) for the primes P that divide I
among (p, primes above p) pairs, so Z shares the one factorization routine
(re-multiplied to I, each prime power by repeated squaring), the one radical
routine, PrimeFactorization and RadicalChain with the quadratic case; it is
the cheapest oracle for the ascending radical chain.  Each routine splits
each rational prime once (`_splittings`), however many ideals it reads.

Every factorization starts from the rational primes of a norm, found by
`factor_int`: trial division with an early exit once deterministic
Miller-Rabin, the module's one primality test, proves the cofactor prime.
The module keeps no mutable state.
"""

from __future__ import annotations

from itertools import accumulate, chain, cycle
from math import gcd, isqrt, prod

from .errors import DEFAULT_BOUNDS, Bounds, _Frozen, exceeded

_TRIAL_LIMIT = 10 ** 6
# past this trial divisor a prime cofactor ends trial division early
_EARLY_EXIT = 1000
# gaps between consecutive integers prime to 30, from 7 on
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)
# Strong-probable-prime tests to the first 13 prime bases are exact below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n < _MR_EXACT_BELOW: deterministic Miller-Rabin
    to the first 13 prime bases."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the exact primality range")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    # a composite below 41^2 has a prime factor below 41, which is a base
    if n < 41 * 41:
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None for a non-residue.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1).
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        c = b * b % p
        m, t, r = i, t * c % p, r * b % p
    return r


def factor_int(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> dict[int, int]:
    """Factor a positive integer by trial division, refusing to guess.

    Trial-divides by 2, 3, 5 and the integers prime to 30 up to
    min(sqrt(cofactor), 10^6).  Past the divisor _EARLY_EXIT, a cofactor
    that Miller-Rabin proves prime ends the division; it is tested when the
    divisor crosses _EARLY_EXIT and again after each later division.  A
    cofactor with no factor up to 10^6 that is not proved prime is refused
    with a resource error, never mis-factored: the trial-division bound for
    a composite, the exact-primality bound from psi_13 on.
    """
    if n < 1:
        raise ValueError("can only factor positive integers")
    if n > bounds.norm:
        exceeded("max-norm", bounds.norm, n, "integer to factor")
    out: dict[int, int] = {}
    rem = n
    # the first divisor past `stop` looks at rem: past sqrt(rem) it is 1 or
    # prime, past _EARLY_EXIT and after each later division it is tested,
    # past 10^6 it is refused
    stop = min(isqrt(rem), _EARLY_EXIT)
    for p in chain((2, 3, 5), accumulate(cycle(_WHEEL), initial=7)):
        if p > stop:
            if p * p > rem or (rem < _MR_EXACT_BELOW and _is_prime(rem)):
                break
            if p > _TRIAL_LIMIT:
                if rem >= _MR_EXACT_BELOW:
                    exceeded("exact-primality", _MR_EXACT_BELOW - 1, rem,
                             "cofactor to test for primality")
                exceeded("trial-division", _TRIAL_LIMIT ** 2, rem,
                         "composite cofactor")
            stop = min(isqrt(rem), _TRIAL_LIMIT)
        if rem % p == 0:
            rem //= p
            e = 1
            while rem % p == 0:
                rem //= p
                e += 1
            out[p] = e
            stop = min(isqrt(rem), max(p, _EARLY_EXIT))
    if rem > 1:
        out[rem] = 1
    return out


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


class QuadRing(_Frozen):
    """The maximal order Z[w] of Q(sqrt(d)), d squarefree and not 0 or 1.

    `min_poly` is (c0, c1) with w^2 + c1*w + c0 = 0.
    """

    def __init__(self, d: int, bounds: Bounds = DEFAULT_BOUNDS):
        self.__dict__.update(d=d, min_poly=(-(d - 1) // 4, -1) if d % 4 == 1 else (-d, 0))
        if d in (0, 1):
            raise ValueError("d must not be 0 or 1")
        if abs(d) > bounds.norm:
            exceeded("max-norm", bounds.norm, abs(d), "|d|")
        if any(e > 1 for e in factor_int(abs(d), bounds).values()):
            raise ValueError(f"d = {d} is not squarefree")

    def __repr__(self):
        # min_poly follows from d, so the repr leaves it out
        return f"QuadRing(d={self.d!r})"

    @property
    def omega_is_half(self) -> bool:
        return self.d % 4 == 1

    @property
    def label(self) -> str:
        if self.d == -1:
            return "Z[i]"
        if self.omega_is_half:
            return f"Z[(1+sqrt({self.d}))/2]"
        return f"Z[sqrt({self.d})]"

    def mul_elements(self, e1, e2):
        """(x1 + y1*w)(x2 + y2*w) in coordinates over (1, w)."""
        x1, y1 = e1
        x2, y2 = e2
        c0, c1 = self.min_poly
        # w^2 = -c0 - c1*w
        yy = y1 * y2
        return (x1 * x2 - c0 * yy, x1 * y2 + x2 * y1 - c1 * yy)

    def elem_norm(self, e) -> int:
        x, y = e
        c0, c1 = self.min_poly
        return x * x - c1 * x * y + c0 * y * y


def _hnf_rows(rows):
    """Hermite normal form (a, b, c) of the lattice spanned by (x, y) rows."""
    xs = []
    pivot = None
    for x, y in rows:
        x, y = int(x), int(y)
        if y == 0:
            if x:
                xs.append(x)
            continue
        if pivot is None:
            pivot = (x, y)
            continue
        px, py = pivot
        g, s, t = _xgcd(py, y)
        # unimodular: det [[s, t], [-y/g, py/g]] = 1
        xs.append((py // g) * x - (y // g) * px)
        pivot = (s * px + t * x, g)
    if pivot is None:
        raise ValueError("lattice has rank < 2 (no w component)")
    px, py = pivot
    if py < 0:
        px, py = -px, -py
    a = 0
    for x in xs:
        a = gcd(a, x)
    if a == 0:
        raise ValueError("lattice has rank < 2 (degenerate first column)")
    return a, px % a, py


class QuadIdeal(_Frozen):
    """A nonzero ideal of Z[w] in HNF: rows (a, 0) and (b, c) over (1, w)."""

    def __init__(self, ring: QuadRing, a: int, b: int, c: int):
        self.__dict__.update(ring=ring, a=a, b=b, c=c)
        if a <= 0 or c <= 0:
            raise ValueError("HNF requires a > 0 and c > 0")
        if not (0 <= b < a):
            raise ValueError("HNF requires 0 <= b < a")
        if a % c or b % c:
            raise ValueError("HNF of an ideal requires c | a and c | b")
        for row in ((a, 0), (b, c)):
            w_row = ring.mul_elements(row, (0, 1))
            if not _member(a, b, c, w_row):
                raise ValueError("lattice is not closed under multiplication by w")

    @classmethod
    def _unchecked(cls, ring, a, b, c):
        """An ideal from an HNF the library derived itself (a product, a sum,
        a prime above p), an ideal by construction: no check."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(ring=ring, a=a, b=b, c=c)
        return ideal

    @property
    def hnf(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def norm(self) -> int:
        return self.a * self.c

    @property
    def is_whole(self) -> bool:
        return self.a == 1 and self.c == 1

    def basis(self):
        return ((self.a, 0), (self.b, self.c))

    def unit(self) -> "QuadIdeal":
        return QuadIdeal._unchecked(self.ring, 1, 0, 1)

    def member(self, element) -> bool:
        return _member(self.a, self.b, self.c, element)

    def contains(self, other) -> bool:
        """Lattice containment: other ⊆ self."""
        if self.ring != other.ring:
            raise ValueError("ideals of different rings")
        return all(self.member(row) for row in other.basis())

    def __mul__(self, other):
        if self.ring != other.ring:
            raise ValueError("ideals of different rings")
        rows = [self.ring.mul_elements(u, v)
                for u in self.basis() for v in other.basis()]
        return QuadIdeal._unchecked(self.ring, *_hnf_rows(rows))

    def factorization(self, bounds: Bounds = DEFAULT_BOUNDS) -> "PrimeFactorization":
        return _factorization(self, bounds)

    def _prime_factors(self, splittings):
        """(P, v_P(I)) for each prime P that divides I, read off the HNF, from
        (p, `primes_above(ring, p)`) pairs.

        Write I = c*J with J = (a/c, b/c, 1) primitive.  The content c gives a
        prime P above p the exponent e(P/p)*v_p(c); a primitive ideal is divisible
        above p only by the degree-1 prime (p, r, 1) with r = b/c (mod p), to the
        power v_p(a/c) (Cohen, A Course in Computational Algebraic Number Theory,
        Sec. 5.2).
        """
        a, b, c = self.hnf
        a1, b1 = a // c, b // c
        out = []
        for p, above in splittings:
            vc, va = _valuation(c, p), _valuation(a1, p)
            for prime, ram in above:
                e = ram * vc
                if va and prime.c == 1 and prime.b == b1 % p:
                    e += va
                if e:
                    out.append((prime, e))
        return out

    def to_dict(self):
        return {"d": self.ring.d, "hnf": [self.a, self.b, self.c]}

    def __repr__(self):
        return f"QuadIdeal(d={self.ring.d}, hnf={list(self.hnf)})"


def _member(a, b, c, element):
    x, y = element
    if y % c:
        return False
    return (x - (y // c) * b) % a == 0


def ideal_from_gens(ring: QuadRing, gens) -> QuadIdeal:
    """The ideal generated by elements given as (x, y) pairs over (1, w)."""
    rows = []
    for g in gens:
        x, y = int(g[0]), int(g[1])
        if x == 0 and y == 0:
            continue
        rows.append((x, y))
        rows.append(ring.mul_elements((x, y), (0, 1)))
    if not rows:
        raise ValueError("the zero ideal is not representable")
    return QuadIdeal(ring, *_hnf_rows(rows))


def principal_ideal(ring: QuadRing, element) -> QuadIdeal:
    return ideal_from_gens(ring, [element])


def whole_ring_ideal(ring: QuadRing) -> QuadIdeal:
    return QuadIdeal._unchecked(ring, 1, 0, 1)


def ideal_sum(i: QuadIdeal, j: QuadIdeal) -> QuadIdeal:
    """I + J via the HNF of the stacked bases."""
    if i.ring != j.ring:
        raise ValueError("ideals of different rings")
    return QuadIdeal._unchecked(i.ring, *_hnf_rows(list(i.basis()) + list(j.basis())))


def primes_above(ring: QuadRing, p: int) -> list[tuple[QuadIdeal, int]]:
    """Kummer-Dedekind splitting of (p): factor the minimal polynomial mod p.

    Returns (prime ideal, ramification exponent) pairs, sorted by HNF, with
    product of P^e over the list equal to (p).  Valid at every prime because
    the order is maximal and monogenic.  The distinct roots r of
    x^2 + c1*x + c0 mod p (by trial for p = 2, from a square root of the
    discriminant for odd p) classify p: no root, p is inert and (p) is
    prime; one root is a double root, p ramifies as (p, -r, 1)^2; two roots,
    p splits into the two primes (p, -r, 1).
    """
    p = int(p)
    if p < 2 or not _is_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    c0, c1 = ring.min_poly
    if p == 2:
        roots = [r for r in (0, 1) if (r * r + c1 * r + c0) % 2 == 0]
    else:
        s = _sqrt_mod(c1 * c1 - 4 * c0, p)
        inv2 = pow(2, -1, p)
        roots = [] if s is None else list({(-c1 + s) * inv2 % p, (-c1 - s) * inv2 % p})
    if not roots:
        return [(QuadIdeal._unchecked(ring, p, 0, p), 1)]
    e = 2 if len(roots) == 1 else 1
    primes = sorted((QuadIdeal._unchecked(ring, p, (-r) % p, 1) for r in roots),
                    key=lambda q: q.hnf)
    return [(q, e) for q in primes]


class PrimeFactorization(_Frozen):
    """(prime ideal, exponent) pairs sorted by (residue characteristic, HNF).

    `rational_primes` lists, sorted, the rational primes below the factors,
    which are the primes dividing the norm.
    """

    def __init__(self, factors: tuple, rational_primes: tuple = ()):
        self.__dict__.update(factors=factors, rational_primes=rational_primes)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    @property
    def max_exponent(self) -> int:
        return max((e for _, e in self.factors), default=0)


class RadicalChain(_Frozen):
    """Links J1 ⊆ J2 ⊆ ... ⊆ Jn of radical ideals whose product is a given ideal.

    `factorization` is the prime factorization the links were read off,
    when they were (`sp_factor`); it takes no part in equality.
    """

    def __init__(self, links: tuple, factorization: PrimeFactorization | None = None):
        self.__dict__.update(links=links, factorization=factorization)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.links == other.links

    def __hash__(self):
        return hash((self.links,))

    def __iter__(self):
        return iter(self.links)

    def __len__(self):
        return len(self.links)

    def product(self):
        if not self.links:
            raise ValueError("empty chain has no well-defined product here")
        return prod(self.links[1:], start=self.links[0])


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _splittings(ring, primes):
    """(p, [(P, e(P/p)), ...]) for each rational prime p: its primes above p."""
    if isinstance(ring, IntRing):
        return [(p, [(IntIdeal(p), 1)]) for p in primes]
    return [(p, primes_above(ring, p)) for p in primes]


def _power(ideal, e: int):
    """ideal^e for e >= 1 by repeated squaring: at most 2*e.bit_length() - 2 products."""
    result = None
    while True:
        if e & 1:
            result = ideal if result is None else result * ideal
        e >>= 1
        if not e:
            return result
        ideal = ideal * ideal


def _factorization(ideal, bounds):
    """Prime factorization with exponents from `_prime_factors`, re-multiplied to I."""
    primes = tuple(sorted(factor_int(ideal.norm, bounds)))
    factors = tuple(ideal._prime_factors(_splittings(ideal.ring, primes)))
    if prod((_power(p, e) for p, e in factors), start=ideal.unit()) != ideal:
        raise ArithmeticError(
            f"prime factorization of {ideal!r} failed to re-multiply")
    return PrimeFactorization(factors, primes)


def radical(i, bounds: Bounds = DEFAULT_BOUNDS):
    """Product of the distinct primes dividing the ideal."""
    return prod((p for p, _ in i.factorization(bounds)), start=i.unit())


def vn(i, n: int, bounds: Bounds = DEFAULT_BOUNDS):
    """Primes P with I ⊆ P^n, read off the factorization exponents."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [p for p, e in i.factorization(bounds) if e >= n]


def sp_factor(i, bounds: Bounds = DEFAULT_BOUNDS) -> RadicalChain:
    """The ascending radical chain J1 ⊆ ... ⊆ Jn with product equal to I.

    J_k multiplies the primes whose exponent is at least k, so the chain
    re-multiplies to I exactly; the unit ideal has no chain and is rejected.
    The links are formed from the top down, J_k = J_{k+1} * (the primes of
    exponent exactly k), one product per prime factor.
    """
    if i.is_whole:
        raise ValueError("the unit ideal has no radical chain")
    pf = i.factorization(bounds)
    links = []
    link = i.unit()
    for k in range(pf.max_exponent, 0, -1):
        for p, e in pf:
            if e == k:
                link = link * p
        links.append(link)
    chain = RadicalChain(tuple(reversed(links)), pf)
    product = chain.product()
    if product != i:
        raise ArithmeticError("radical chain failed to re-multiply to its ideal")
    for lower, upper in zip(chain.links, chain.links[1:]):
        if not upper.contains(lower):
            raise ArithmeticError("radical chain is not ascending")
    return chain


def normalize_factorization(ring, factors,
                            bounds: Bounds = DEFAULT_BOUNDS) -> RadicalChain:
    """Canonical ascending chain with the same product as the given radical ideals."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    unit = factors[0].unit()
    for idx, f in enumerate(factors):
        if f.ring != ring:
            raise ValueError(f"factor {idx} belongs to a different ring")
        if f.is_whole:
            raise ValueError(f"factor {idx} is the unit ideal, not a proper radical")
        if radical(f, bounds) != f:
            raise ValueError(f"factor {idx} is not a radical ideal")
    return sp_factor(prod(factors, start=unit), bounds=bounds)


def _radical_over(i, primes):
    """Product of the primes above `primes` that divide I: its radical if they cover N(I)."""
    return _radical_split(i, _splittings(i.ring, primes))


def _radical_split(i, splittings):
    """Product of the primes among `splittings` that divide I."""
    return prod((p for p, _ in i._prime_factors(splittings)), start=i.unit())


def verify_chain(chain: RadicalChain, ideal=None,
                 bounds: Bounds = DEFAULT_BOUNDS) -> dict[str, bool]:
    """Re-check every RadicalChain invariant; used by reports and tests.

    Each link's radical is recomputed from the link's own HNF, over the
    rational primes of N(I) recorded in the chain's factorization (every
    link divides I, so no norm is factored again), or over the primes of
    each link's norm for a chain that records none.  A link with a prime
    factor outside the recorded primes cannot divide I, and fails the check.
    Those primes are split once here, apart from the factorization's own
    splitting, and read for every link.
    """
    links = list(chain.links)
    if chain.factorization is not None:
        primes = chain.factorization.rational_primes
    else:
        primes = sorted(set().union(*(factor_int(l.norm, bounds) for l in links)))
    splittings = _splittings(links[0].ring, primes) if links else []
    checks = {
        "ascending": all(b.contains(a) for a, b in zip(links, links[1:])),
        "links_radical": all(_radical_split(l, splittings) == l for l in links),
        "links_proper": all(not l.is_whole for l in links),
    }
    if ideal is not None:
        checks["product_matches"] = bool(links) and chain.product() == ideal
    return checks


class IntRing(_Frozen):
    """The rational integers, as the degenerate one-dimensional instance."""

    label = "Z"


INT_RING = IntRing()


class IntIdeal(_Frozen):
    """The ideal nZ, identified with its positive generator n."""

    ring = INT_RING

    def __init__(self, n: int):
        self.__dict__.update(n=n)
        if n < 1:
            raise ValueError("generator must be a positive integer")

    @property
    def norm(self) -> int:
        return self.n

    @property
    def is_whole(self) -> bool:
        return self.n == 1

    def unit(self) -> "IntIdeal":
        return IntIdeal(1)

    def contains(self, other) -> bool:
        return other.n % self.n == 0

    def __mul__(self, other):
        return IntIdeal(self.n * other.n)

    def factorization(self, bounds: Bounds = DEFAULT_BOUNDS) -> PrimeFactorization:
        return _factorization(self, bounds)

    def _prime_factors(self, splittings):
        return [(prime, _valuation(self.n, p))
                for p, [(prime, _)] in splittings if self.n % p == 0]

    def to_dict(self):
        return {"zint": self.n}

    def __repr__(self):
        return f"IntIdeal({self.n})"
