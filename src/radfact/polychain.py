"""Ascending radical chains of principal ideals in Q[X] via derivative gcds.

Everything is exact: coefficients are `fractions.Fraction`, kept in lowest
terms by construction, and gcds are monic outputs of exact Euclidean
division.  Characteristic zero is essential here (the derivative criterion
for repeated factors fails in characteristic p) and is all we implement.
"""

from __future__ import annotations

import re
from fractions import Fraction


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

    @classmethod
    def x(cls):
        return cls([0, 1])

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
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = RatPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lc = 1 / other.lc
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return RatPoly(quot), RatPoly(rem[:other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RatPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("division was expected to be exact")
        return q

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

    def to_fraction_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_fraction_strings(cls, items) -> "RatPoly":
        return cls([Fraction(s) for s in items])

    def __repr__(self):
        return f"RatPoly({format_poly(self)!r})"


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd by exact Euclidean division; rejects gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        # monic remainders keep the coefficient growth of exact Euclid in check
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def derivative_gcd(f: RatPoly, k: int) -> RatPoly:
    """Monic gcd(f, f', ..., f^(k-1)): the repeated part of f at threshold k."""
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = f.monic()
    der = f
    for _ in range(k - 1):
        if g.is_one:
            break
        der = der.derivative()
        g = poly_gcd(g, der)
    return g


def sf_chain(f: RatPoly) -> list[RatPoly]:
    """The ascending squarefree chain g1, ..., gn of the principal ideal (f).

    With f0 = monic(f) and f_j = gcd(f_{j-1}, f_{j-1}'), the links are
    g_k = f_{k-1}/f_k; each is monic squarefree, each divides the previous,
    and the product of all links is monic(f).
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("f must have degree >= 1")
    prev = f.monic()
    chain = []
    while not prev.is_one:
        nxt = poly_gcd(prev, prev.derivative())
        chain.append(prev.exact_div(nxt))
        prev = nxt
    product = RatPoly.const(1)
    for g in chain:
        product = product * g
    if product != f.monic():
        raise ArithmeticError("squarefree chain failed to re-multiply")
    return chain


def squarefree_part(f: RatPoly) -> RatPoly:
    f = f.monic()
    if f.degree < 1:
        return f
    return f.exact_div(poly_gcd(f, f.derivative()))


def vk_poly(f: RatPoly, k: int) -> RatPoly:
    """The monic polynomial whose roots are the points where f vanishes to order >= k."""
    return squarefree_part(derivative_gcd(f, k))


_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?P<var>x)?(?:\^(?P<exp>\d+))?$")


def parse_poly(text: str) -> RatPoly:
    """Parse shapes like "x^3-x^2-x+1", "3/2*x^2 - 1", "-x", "7"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    parts = re.split(r"(?=[+-])", s)
    coeffs: dict[int, Fraction] = {}
    for part in parts:
        if not part or part in "+-":
            if part:
                raise ValueError(f"dangling sign in {text!r}")
            continue
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"could not parse term {part!r} in {text!r}")
        if m.group("exp") is not None and m.group("var") is None:
            raise ValueError(f"exponent without variable in term {part!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {part!r}") from None
        if m.group("sign") == "-":
            coeff = -coeff
        exp = 0
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return RatPoly(out)


def format_poly(p: RatPoly) -> str:
    """Render highest degree first, e.g. "x^2-1"; the zero polynomial is "0"."""
    if p.is_zero:
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        terms.append(sign + body)
    return "".join(terms)
