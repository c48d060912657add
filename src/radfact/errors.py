"""Shared exception types, resource bounds, the two bases of the value
classes, the JSON field checks and the one grammar of polynomial text
(stdlib only), in x for sf-chain and in w for `parse_quad_element`.

`_Value` gives a class equality and a repr from the fields its `__init__`
stores in the instance `__dict__`; `_Frozen` adds hashing and refuses any
later assignment or deletion."""

from __future__ import annotations

import re
import sys

# typing costs a cold start about 10 ms; only type checkers read the annotation
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

MAX_ORDER = 4096
# the largest exponent in polynomial text: on a 2-core Xeon VM a squarefree degree-252
# sf-chain text (monic factors of degree <= 3 with coefficients in -5..5, 14,126
# chars) takes 0.12-0.17 s through cli.main and degree 126 takes 0.012-0.017 s, so
# the cost grows about as degree^3.4; MAX_POLY_BITS bounds the coefficient size
MAX_DEGREE = 256
# a bound on the written terms of polynomial text: (the highest exponent + 1) times
# the bit length of the largest term cleared to the common denominator, about its
# size packed at that width.  Terms are bounded before they are summed, so cancelling
# terms count in full and like terms add up to log2(count) bits uncounted.
# In-process on a 2-core Xeon VM the chain grows about as the square of that size,
# and the slowest shapes have a low degree, their coefficients made by many
# denominators.  At the limit f*g^2 of degree 3 takes 1.3-1.9 s and g^2 1.2 s, a
# monic squarefree degree 255 0.6-0.7 s and f*g^2 of degree 255 0.2 s; at 1 Mbit
# they take 5.6-7.9 s, 2.5-4.2 s and 0.7-1.2 s; at 3.6 Mbit, the 4300-digit limit at
# degree 255, f*g^2 takes 11 s and x^255 + c*x^127 + 1 takes 13 s
MAX_POLY_BITS = 500_000
# levels of JSON arrays and objects a payload may nest
MAX_NESTING = 256
# CPython's default cap on int() of a decimal string, and the lowest nonzero
# cap the interpreter can be set to
MAX_INT_DIGITS = 4300
_LOWEST_INT_DIGITS = 640
# the digits of one piece of a longer integer that `_decimal` writes, under that cap
_PIECE_DIGITS = 600
# an observed size longer than this is shown by its length, not its digits
SHOWN_DIGITS = 20
# a message quotes at most this many characters of an input's repr
SHOWN_CHARS = 60


class ResourceLimitError(Exception):
    """An enumeration or factorization exceeded a configured resource bound.

    `bound` names the limit that was hit (e.g. "max-ideals"), `value` is the
    configured limit and `observed` the size that exceeded it (an int, or a
    text such as "2^3000000" or "14284 bits").  The CLI maps this exception to exit status 3.
    """

    def __init__(self, message, bound, value, observed):
        super().__init__(message)
        self.bound = bound
        self.value = value
        self.observed = observed


def exceeded(bound: str, limit: int, observed, what: str) -> NoReturn:
    """Raise the ResourceLimitError for `what`, of size `observed`, over `limit`;
    an integer of more than SHOWN_DIGITS digits is shown by its bit length."""
    if isinstance(observed, int) and abs(observed) >= 10 ** SHOWN_DIGITS:
        observed = f"{observed.bit_length()} bits"
    raise ResourceLimitError(
        f"{what} exceeds the {bound} bound (limit {limit}, observed {observed})",
        bound, limit, observed)


def _shown(value):
    """The repr of `value`, cut after SHOWN_CHARS characters and then followed
    by "... (N chars)", N the length of the text (of the repr, for a value that
    is not text), so a message that quotes its input stays short."""
    shown = repr(value)
    if len(shown) <= SHOWN_CHARS:
        return shown
    size = len(value) if isinstance(value, str) else len(shown)
    return f"{shown[:SHOWN_CHARS]}... ({size} chars)"


def _strict_int(value, what):
    # int() would turn JSON true and 2.7 into the integers 1 and 2
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {_shown(value)}")


def _int_of_digits(text, what):
    # checked first, since CPython's own refusal points at an interpreter setting;
    # int() applies the interpreter's limit when it is set lower (0 is none, and
    # Python 3.10 before 3.10.7 has no limit at all)
    digits = len(text.lstrip("+-"))
    if digits > _LOWEST_INT_DIGITS:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        limit = limit if 0 < limit < MAX_INT_DIGITS else MAX_INT_DIGITS
        if digits > limit:
            raise ValueError(f"{what} has {digits} digits, over the {limit}-digit limit")
    return int(text)


def _json_object(value, what, allowed):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(value.keys() - allowed)
    if unknown:
        raise ValueError(f"{what} has unknown keys {_shown(unknown)}")
    return value


_SIGNS = re.compile(r"(?=[+-])")
_TERM = re.compile(r"^([+-]?)\s*(?:(\d+)(?:/(\d+))?\s*\*?\s*)?([a-z])?(?:\^(\d+))?$")


def _terms(text, var):
    """The terms of polynomial text in `var` as (exponent, signed numerator,
    denominator), none for blank text.  Spaces are dropped and the text splits
    before each sign; a term is [n or n/d][*][var[^e]], with n or var present.
    An exponent over MAX_DEGREE raises the max-degree ResourceLimitError."""
    terms = []
    for part in filter(None, _SIGNS.split(text.replace(" ", ""))):
        if part in "+-":
            raise ValueError(f"dangling sign in {_shown(text)}")
        m = _TERM.match(part)
        sign, num, den, found, exp = m.groups() if m else (None,) * 5
        if found not in (None, var) or (num is None and found is None):
            raise ValueError(f"could not parse term {_shown(part)} in {_shown(text)}")
        if found is None and exp is not None:
            raise ValueError(f"exponent without variable in term {_shown(part)}")
        num = 1 if num is None else _int_of_digits(num, "coefficient")
        den = 1 if den is None else _int_of_digits(den, "coefficient")
        if not den:
            raise ValueError(f"zero denominator in term {_shown(part)}")
        if exp is None:
            exp = 1 if found else 0
        else:
            digits = exp.lstrip("0") or "0"
            # by length first, since int() refuses strings beyond 4300 digits
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                shown = int(digits) if len(digits) <= SHOWN_DIGITS else f"{len(digits)} digits"
                exceeded("max-degree", MAX_DEGREE, shown, "polynomial degree")
            exp = int(digits)
        terms.append((exp, -num if sign == "-" else num, den))
    return terms


def parse_quad_element(item) -> tuple[int, int]:
    """Accept an int, an [x, y] pair, or text in w such as "1+2*w" (`_terms`)."""
    if isinstance(item, int):
        return (_strict_int(item, "generator"), 0)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return tuple(_strict_int(c, "generator coordinate") for c in item)
    if not isinstance(item, str):
        raise ValueError(f"unrecognized element {_shown(item)}")
    terms = _terms(item, "w")
    if not terms:
        raise ValueError("empty element")
    xy = [0, 0]
    for exp, num, den in terms:
        if exp > 1 or den != 1:
            raise ValueError(f"generator {_shown(item)} is not an integer x + y*w")
        xy[exp] += num
    return tuple(xy)


def _decimal(c) -> str:
    """str(c) for an int or a Fraction c, also past the interpreter's limit on
    int-to-text conversion (MAX_INT_DIGITS by default, or PYTHONINTMAXSTRDIGITS).
    A value whose integers are under the limit goes through str.  A longer
    integer is cut at powers of ten, by halves, into zero-padded pieces of
    _PIECE_DIGITS digits, which even the lowest limit the interpreter takes
    writes.  So a report can hold a longer integer than its input may."""
    try:
        return str(c)
    except ValueError:
        pass
    if c.denominator != 1:
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
    n = c.numerator
    powers = [10 ** _PIECE_DIGITS]      # powers[j] = 10^(_PIECE_DIGITS * 2^j)
    while powers[-1] <= abs(n):
        powers.append(powers[-1] * powers[-1])

    def padded(m, j):                   # m < powers[j], with all its digits
        if not j:
            return f"{m:0{_PIECE_DIGITS}d}"
        high, low = divmod(m, powers[j - 1])
        return padded(high, j - 1) + padded(low, j - 1)

    return ("-" if n < 0 else "") + padded(abs(n), len(powers) - 1).lstrip("0")


def _format_terms(coeffs, var):
    """Text of int or Fraction coefficients, lowest degree first: "x^2-1", or "0"."""
    terms = []
    for k, c in reversed(list(enumerate(coeffs))):
        if c:
            power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            coeff = "" if power and abs(c) == 1 else _decimal(abs(c)) + ("*" if power else "")
            terms.append(("-" if c < 0 else "+" if terms else "") + coeff + power)
    return "".join(terms) or "0"


class _Value:
    """Base of the value classes: two values are equal when they have the same
    class and the same fields, and the repr lists the fields in the order
    `__init__` stored them in the instance `__dict__`."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__name__}({fields})"


class _Frozen(_Value):
    """Base of the immutable value classes: each `__init__` writes its fields
    into the instance `__dict__`, and any later assignment or deletion raises
    AttributeError.  The hash follows the fields in their stored order, so
    every constructor stores them in the same order."""

    __slots__ = ()

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Bounds(_Frozen):
    """The limits a job runs under, one per CLI flag: `order` is max-order
    (ring orders and module sizes, at most MAX_ORDER), `ideals` is max-ideals
    (ideal lattices), `norm` is max-norm (integers factored)."""

    def __init__(self, order: int = MAX_ORDER, ideals: int = 1 << 20, norm: int = 10 ** 12):
        self.__dict__.update(order=order, ideals=ideals, norm=norm)
        for name, value in (("order", order), ("ideals", ideals), ("norm", norm)):
            if value < 1:
                raise ValueError(f"max-{name} {value} is below 1")
        if order > MAX_ORDER:
            raise ValueError(f"max-order {order} exceeds the ceiling "
                             f"{MAX_ORDER} on ring orders")


DEFAULT_BOUNDS = Bounds()
