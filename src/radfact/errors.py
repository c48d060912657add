"""Shared exception types, resource bounds, the base of the immutable value
classes, the JSON field checks and the lazy module loader (stdlib only)."""

from __future__ import annotations

import importlib.util
import sys

# typing costs a cold start about 10 ms; only type checkers read the annotation
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

MAX_ORDER = 4096
# levels of JSON arrays and objects a payload may nest
MAX_NESTING = 256
# CPython's default cap on int() of a decimal string, and the lowest nonzero
# cap the interpreter can be set to
MAX_INT_DIGITS = 4300
_LOWEST_INT_DIGITS = 640
# an observed size longer than this is shown by its length, not its digits
SHOWN_DIGITS = 20


def _lazy_module(name):
    """The module `name`, executed on its first attribute access (importlib's
    LazyLoader recipe), or the module itself when it is already imported.  A
    module that is not installed still fails here, at import."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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


def _strict_int(value, what):
    # int() would turn JSON true and 2.7 into the integers 1 and 2
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


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
        raise ValueError(f"{what} has unknown keys {unknown}")
    return value


class _Frozen:
    """Base of the immutable value classes: each `__init__` writes its fields
    into the instance `__dict__`, and any later assignment or deletion raises
    AttributeError."""

    __slots__ = ()

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.ideals, self.norm) == (other.order, other.ideals, other.norm)

    def __hash__(self):
        return hash((self.order, self.ideals, self.norm))

    def __repr__(self):
        return f"Bounds(order={self.order!r}, ideals={self.ideals!r}, norm={self.norm!r})"


DEFAULT_BOUNDS = Bounds()
