"""Ascending radical chains of principal ideals in Q[X] via derivative gcds.

`RatPoly`, with exact `fractions.Fraction` coefficients, is the public
type; the functions run on a private integer kernel.  A nonzero polynomial
over Q is a rational multiple of one primitive integer polynomial with a
positive leading coefficient, and by Gauss's lemma products and exact
quotients of primitive ones stay primitive.  The kernel has one packed
form, Kronecker substitution (Schonhage 1982): `_pack(a, k)` is the integer
a(2^k) and `_unpack(v, k)` reads v's balanced base-2^k digits back.  A
product of any number of factors is one integer product, unpacked once at
a width above its coefficient bound; the chain is re-multiplied by
comparing packed values at a width where balanced digits are unique.  Gcds
come from the heuristic gcd (Char, Geddes and Gonnet 1989): the integer
gcd of the packed inputs at a power of two beyond twice a root bound,
unpacked and proved by exact division of both inputs; the quotients are
the cofactors it returns.
Pseudo-division (`_divmod`) is the one exact division, since it stops at
the first non-integral step.  The chain takes one derivative gcd, then only
gcds against squarefree links, and reads each quotient it needs off a
cofactor.  `text_chain`, sf-chain's route, runs on integers from text to
report, after `_parse` bounds the written terms (`MAX_POLY_BITS`); a
Fraction appears only in `RatPoly`, the leading coefficient and a monic
link's non-integral coefficient.  Characteristic zero is essential (the
derivative criterion fails in characteristic p).  Polynomial text is read
and written by the one grammar in `radfact.errors`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import (MAX_DEGREE, MAX_POLY_BITS, _decimal,  # noqa: F401 (re-export)
                     _format_terms, _strict_int, _terms, exceeded)


class RatPoly:
    """A polynomial over Q, coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        # an int or Fraction is a constant; other types get NotImplemented, so TypeError
        if isinstance(other, (int, Fraction)):
            b = (other,)
        elif isinstance(other, RatPoly):
            b = other.coeffs
        else:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, RatPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        den = da * db
        return RatPoly([Fraction(c, den) for c in _product(a, b)])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("exponent must be >= 0")
        out = RatPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # self = a/da and other = b/db, with s*a = q*b + r
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        q, r, s = _divmod(a, b)
        den = s * da
        return (RatPoly([Fraction(c * db, den) for c in q]),
                RatPoly([Fraction(c, den) for c in r]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        return self * (1 / self.lc)

    def divides(self, other) -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __repr__(self):
        return f"RatPoly({format_poly(self)!r})"


# --- the integer kernel ------------------------------------------------------
# Integer polynomials as int lists, lowest degree first, [] for zero.  A
# nonzero polynomial over Q is a rational multiple of exactly one primitive
# one with a positive leading coefficient, and the chain keeps every
# polynomial in that form.


def _cleared(coeffs) -> tuple[list[int], int]:
    """Integers a and a common denominator d with coeffs = a/d."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(coeffs) -> list[int]:
    """The primitive part of a RatPoly's coefficients: denominators cleared,
    content divided out, leading coefficient positive."""
    return _content_free(_cleared(coeffs)[0])


def _content_free(a: list[int]) -> list[int]:
    if not a:
        return a
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _divmod(a: list[int], b: list[int], exact: bool = False):
    """Pseudo-division: q, r and s != 0 with s*a = q*b + r and deg r < deg b.

    Each step scales by lc(b)/g, g the gcd of lc(b) and the leading term,
    rather than by lc(b), so s = 1 whenever the quotient is integral.  With
    `exact`, a step that needs scaling or a nonzero remainder raises
    ArithmeticError: b does not divide a in Z[x], which for a primitive b
    means it does not divide a in Q[x] either (Gauss's lemma).
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(c, lb)
        m, c = lb // g, c // g
        if m != 1:
            if exact:
                raise ArithmeticError("division was expected to be exact")
            r = [m * x for x in r]
            q = [m * x for x in q]
            s *= m
        q[k] = c
        r[k:] = [x - c * y for x, y in zip(r[k:], b)]
    while r and not r[-1]:
        r.pop()
    if exact and r:
        raise ArithmeticError("division was expected to be exact")
    return q, r, s


def _pack(a: list[int], k: int) -> int:
    """The value a(2^k), by Horner's rule with shifts."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> list[int]:
    """The balanced base-2^k digits of v, lowest first, each in (-2^(k-1), 2^(k-1)]."""
    out, half, mask = [], 1 << k - 1, (1 << k) - 1
    while v:
        d = v & mask
        v >>= k
        if d > half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


def _gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, a/h, b/h): the primitive gcd h of a and b by the heuristic gcd (Char,
    Geddes and Gonnet 1989), and the cofactors of a and b with content divided out.

    The integer gcd of a(xi) and b(xi), xi = 2^j, read off in balanced base-xi
    digits by `_unpack`, gives a polynomial whose primitive part h is returned
    once it divides both a and b exactly; the quotients of those two divisions
    are the cofactors.  Otherwise xi grows, each step rounded up to a power of
    two.  Take R = 1 + max|c_i|/lc for whichever input gives the smaller bound:
    its roots lie in |z| < R, and j is the bit length of 2*min(max|c_i|//lc) + 4,
    so xi > 2R.  So its value at xi is not 0, and a nonconstant k dividing it
    has |k(xi)| > xi/2.  Then an h dividing both is the gcd: were gcd = h*k with
    k nonconstant, k(xi) would divide the content of the digit polynomial, which
    is not 0 and at most xi/2.  A digit tie at exactly xi/2 reads as +xi/2, and
    the proof divisions accept or refuse the candidate it gives.  Once xi is
    large against the coefficients of the gcd times the resultant of the
    cofactors, the digits are a multiple of the gcd, so the loop ends.
    """
    a, b = _content_free(a), _content_free(b)
    if not a or not b:
        return a or b, [1] if a else [], [1] if b else []
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    j = (2 * min(max(map(abs, a)) // a[-1], max(map(abs, b)) // b[-1]) + 4).bit_length()
    while True:
        h = _content_free(_unpack(gcd(_pack(a, j), _pack(b, j)), j))
        try:
            return h, _divmod(a, h, exact=True)[0], _divmod(b, h, exact=True)[0]
        except ArithmeticError:
            j = ((73794 * isqrt(isqrt(1 << j)) << j) // 27011 - 1).bit_length()


def _product(*polys: list[int]) -> list[int]:
    """The product of any number of polynomials, by one pack and one unpack at
    a width k with 2^(k-1) > prod |g|_1, which bounds every coefficient."""
    k = prod(sum(map(abs, g)) for g in polys).bit_length() + 1
    return _unpack(prod(_pack(g, k) for g in polys), k)


def _derivative(a: list[int]) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _links(p: list[int]) -> list[list[int]]:
    """Primitive links g1, ..., gn of a primitive p; none for a constant p.

    One derivative gcd f1 = gcd(p, p') gives g1 = p/f1; then
    g_{k+1} = gcd(f_k, g_k) and f_{k+1} = f_k/g_{k+1}, so every later gcd
    is taken against a squarefree link.  Both quotients are the first
    cofactor of `_gcd`, the quotient its proof divided out: no division here.
    """
    if len(p) < 2:
        return []
    f, g, _ = _gcd(p, _derivative(p))
    links = [g]
    while len(f) > 1:
        g, f, _ = _gcd(f, g)
        links.append(g)
    return links


def _chain(p: list[int]) -> list[list[int]]:
    """The primitive links of a primitive p of degree >= 1, re-multiplied against p."""
    if len(p) < 2:
        raise ValueError("f must have degree >= 1")
    links = _links(p)
    # by Gauss's lemma a product of primitive links is primitive, so it
    # equals p exactly when the monic links multiply to monic(f)
    if not _remultiplies(links, p):
        raise ArithmeticError("squarefree chain failed to re-multiply")
    return links


def _remultiplies(links: list[list[int]], p: list[int]) -> bool:
    """Whether the links multiply to p, both sides packed at a width k with 2^(k-1)
    above |p|_inf and prod |g|_1, so that balanced digits are unique."""
    k = max(max(map(abs, p), default=0), prod(sum(map(abs, g)) for g in links)).bit_length() + 1
    return prod(_pack(g, k) for g in links) == _pack(p, k)


def _squarefree(g: list[int]) -> bool:
    return len(g) < 2 or len(_gcd(g, _derivative(g))[0]) == 1


def _link_checks(links: list[list[int]], product_matches: bool) -> dict[str, bool]:
    """The report's checks on primitive links, given whether they multiply to the input."""
    # a zero pseudo-remainder: b divides a in Q[x]
    divide = all(not _divmod(a, b)[1] for a, b in zip(links, links[1:]))
    # a divisor of a squarefree polynomial is squarefree, so links that divide
    # downward are squarefree when g1 is, unless g1 is 0 (which every
    # polynomial divides)
    squarefree = all(map(_squarefree, links[:1] if divide and [] not in links else links))
    return {"product_matches_monic_input": product_matches,
            "links_divide_downward": divide,
            "links_squarefree": squarefree}


def _monic(a: list[int]) -> RatPoly:
    lc = a[-1]
    return RatPoly([Fraction(c, lc) for c in a])


def _parse(text) -> tuple[list[int], int]:
    """Integers a, trailing zeros stripped, and one denominator den: text = a/den."""
    if not isinstance(text, str):
        raise ValueError(f"a polynomial must be a string, not {type(text).__name__}")
    terms = _terms(text, "x")
    if not terms:
        raise ValueError("empty polynomial")
    # a cleared term num*(den/d) has within one bit of num.bit_length() +
    # den.bit_length() - d.bit_length() bits, so the written terms are bounded
    # as the common denominator grows and before any product or sum
    a = [0] * (max(e for e, _, _ in terms) + 1)
    excess = max(num.bit_length() - d.bit_length() for _, num, d in terms)
    den = 1
    for d in {d for _, _, d in terms}:
        den = lcm(den, d)
        size = len(a) * (den.bit_length() + excess)
        if size > MAX_POLY_BITS:
            exceeded("max-poly-bits", MAX_POLY_BITS, size,
                     "polynomial size ((highest exponent + 1) * bits of the largest cleared term)")
    for e, num, d in terms:
        a[e] += num * (den // d)
    while a and not a[-1]:
        a.pop()
    return a, den


# --- the public routes --------------------------------------------------------


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd; rejects gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return _monic(_gcd(_primitive(f.coeffs), _primitive(g.coeffs))[0])


def sf_chain(f: RatPoly) -> list[RatPoly]:
    """The ascending squarefree chain g1, ..., gn of the principal ideal (f).

    With f = c * prod p_i^e_i, the link g_k is the monic product of the p_i
    with e_i >= k: each is squarefree, each divides the previous, and the
    product of all links is monic(f).  The links are re-multiplied against
    the primitive part of f before they are returned.
    """
    return [_monic(g) for g in _chain(_primitive(f.coeffs))]


def chain_checks(f: RatPoly, chain: list[RatPoly]) -> dict[str, bool]:
    """Recompute the report's checks on a monic chain of f, in integers."""
    links = [_primitive(g.coeffs) for g in chain]
    return _link_checks(links, _remultiplies(links, _primitive(f.coeffs)))


def _chain_links(f: RatPoly, k: int) -> list[list[int]]:
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if _strict_int(k, "k") < 1:
        raise ValueError("k must be >= 1")
    return _links(_primitive(f.coeffs))


def derivative_gcd(f: RatPoly, k: int) -> RatPoly:
    """Monic gcd(f, f', ..., f^(k-1)): the repeated part of f at threshold k.

    In characteristic 0 it is prod over p^e || f with e >= k of p^(e-k+1),
    which is the product of the links g_k, g_{k+1}, ... of the chain.
    """
    return _monic(_product(*_chain_links(f, k)[k - 1:]))


def vk_poly(f: RatPoly, k: int) -> RatPoly:
    """The monic polynomial whose roots are the points where f vanishes to order >= k."""
    links = _chain_links(f, k)
    return _monic(links[k - 1]) if k <= len(links) else RatPoly.const(1)


def text_chain(text: str) -> tuple[str, list[str], dict[str, bool]]:
    """The leading coefficient and monic link texts and the checks of the chain
    of polynomial text, in integers: text = a/den and p the primitive part of a."""
    a, den = _parse(text)
    p = _content_free(a)
    links = _chain(p)
    texts = [_format_terms(g if g[-1] == 1 else [Fraction(c, g[-1]) for c in g], "x")
             for g in links]
    # _chain has re-multiplied the links against p
    return _decimal(Fraction(a[-1], den)), texts, _link_checks(links, True)


def parse_poly(text: str) -> RatPoly:
    """Parse text in x (`errors._terms`) such as "x^3-x^2-x+1", "3/2*x^2 - 1" or "7"."""
    a, den = _parse(text)
    return RatPoly([Fraction(c, den) for c in a])


def format_poly(p: RatPoly) -> str:
    """Render highest degree first, e.g. "x^2-1"; the zero polynomial is "0"."""
    return _format_terms(p.coeffs, "x")
