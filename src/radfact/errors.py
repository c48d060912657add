"""Shared exception types, resource bounds, the two bases of the value
classes, the JSON field checks and the one grammar of polynomial text
(stdlib only), in x for sf-chain and in w for factor's generators.

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
# the largest exponent in polynomial text: a dense degree-256 sf-chain job
# takes about 3 s on a 2-core Xeon VM, and the cost grows about as degree^4
MAX_DEGREE = 256
# levels of JSON arrays and objects a payload may nest
MAX_NESTING = 256
# CPython's default cap on int() of a decimal string, and the lowest nonzero
# cap the interpreter can be set to
MAX_INT_DIGITS = 4300
_LOWEST_INT_DIGITS = 640
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


def _format_terms(coeffs, var):
    """Text of int or Fraction coefficients, lowest degree first: "x^2-1", or "0"."""
    terms = []
    for k, c in reversed(list(enumerate(coeffs))):
        if c:
            power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            coeff = "" if power and abs(c) == 1 else f"{abs(c)}*" if power else str(abs(c))
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
