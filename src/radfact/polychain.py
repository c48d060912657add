"""Ascending radical chains of principal ideals in Q[X] via derivative gcds.

`RatPoly`, with exact `fractions.Fraction` coefficients, is the public
type; the functions run on a private integer kernel.  A nonzero polynomial
over Q is a rational multiple of one primitive integer polynomial with a
positive leading coefficient, and by Gauss's lemma products and exact
quotients of primitive ones stay primitive.  Gcds come from the primitive
pseudo-remainder sequence (Collins 1967); the chain takes one derivative
gcd, then only gcds against squarefree links and exact divisions.  The CLI
runs on integers from text to report; a Fraction appears only in `RatPoly`
and in a monic link's non-integral coefficient.  Characteristic zero is
essential (the derivative criterion fails in characteristic p).  Polynomial
text is read and written by the one grammar in `radfact.errors`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MAX_DEGREE, _format_terms, _terms  # noqa: F401 (MAX_DEGREE re-exported)


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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
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


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd by the primitive pseudo-remainder sequence (Collins 1967)."""
    a, b = _content_free(a), _content_free(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _content_free(_divmod(a, b)[1])
    return a


def _product(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
    return out


def _derivative(a: list[int]) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _links(p: list[int]) -> list[list[int]]:
    """Primitive links g1, ..., gn of a primitive p; none for a constant p.

    One derivative gcd f1 = gcd(p, p') gives g1 = p/f1; then
    g_{k+1} = gcd(f_k, g_k) and f_{k+1} = f_k/g_{k+1}, so every later gcd
    is taken against a squarefree link.
    """
    if len(p) < 2:
        return []
    f = _gcd(p, _derivative(p))
    g = _divmod(p, f, exact=True)[0]
    links = [g]
    while len(f) > 1:
        g = _gcd(f, g)
        f = _divmod(f, g, exact=True)[0]
        links.append(g)
    return links


def _product_of(links) -> list[int]:
    out = [1]
    for g in links:
        out = _product(out, g)
    return out


def _chain(p: list[int]) -> list[list[int]]:
    """The primitive links of a primitive p of degree >= 1, re-multiplied against p."""
    if len(p) < 2:
        raise ValueError("f must have degree >= 1")
    links = _links(p)
    # by Gauss's lemma a product of primitive links is primitive, so it
    # equals p exactly when the monic links multiply to monic(f)
    if _product_of(links) != p:
        raise ArithmeticError("squarefree chain failed to re-multiply")
    return links


def _link_checks(p: list[int], links: list[list[int]]) -> dict[str, bool]:
    """Recompute the report's checks on the primitive links of a primitive p."""
    return {
        "product_matches_monic_input": _product_of(links) == p,
        # a zero pseudo-remainder: b divides a in Q[x]
        "links_divide_downward": all(not _divmod(a, b)[1] for a, b in zip(links, links[1:])),
        "links_squarefree": all(len(_gcd(g, _derivative(g))) == 1
                                for g in links if len(g) > 1),
    }


def _monic(a: list[int]) -> RatPoly:
    lc = a[-1]
    return RatPoly([Fraction(c, lc) for c in a])


def _format_link(g: list[int]) -> str:
    """The text of monic(g) for a primitive g, as `format_poly(_monic(g))`."""
    return _format_terms(g if g[-1] == 1 else [Fraction(c, g[-1]) for c in g], "x")


def _parse(text) -> tuple[list[int], int]:
    """Integers a, trailing zeros stripped, and one denominator den: text = a/den."""
    if not isinstance(text, str):
        raise ValueError(f"a polynomial must be a string, not {type(text).__name__}")
    terms = _terms(text, "x")
    if not terms:
        raise ValueError("empty polynomial")
    den = lcm(*(d for _, _, d in terms))
    a = [0] * (max(e for e, _, _ in terms) + 1)
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
    return _monic(_gcd(_primitive(f.coeffs), _primitive(g.coeffs)))


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
    return _link_checks(_primitive(f.coeffs), [_primitive(g.coeffs) for g in chain])


def _chain_links(f: RatPoly, k: int) -> list[list[int]]:
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _links(_primitive(f.coeffs))


def derivative_gcd(f: RatPoly, k: int) -> RatPoly:
    """Monic gcd(f, f', ..., f^(k-1)): the repeated part of f at threshold k.

    In characteristic 0 it is prod over p^e || f with e >= k of p^(e-k+1),
    which is the product of the links g_k, g_{k+1}, ... of the chain.
    """
    return _monic(_product_of(_chain_links(f, k)[k - 1:]))


def vk_poly(f: RatPoly, k: int) -> RatPoly:
    """The monic polynomial whose roots are the points where f vanishes to order >= k."""
    links = _chain_links(f, k)
    return _monic(links[k - 1]) if k <= len(links) else RatPoly.const(1)


def parse_poly(text: str) -> RatPoly:
    """Parse text in x (`errors._terms`) such as "x^3-x^2-x+1", "3/2*x^2 - 1" or "7"."""
    a, den = _parse(text)
    return RatPoly([Fraction(c, den) for c in a])


def format_poly(p: RatPoly) -> str:
    """Render highest degree first, e.g. "x^2-1"; the zero polynomial is "0"."""
    return _format_terms(p.coeffs, "x")
