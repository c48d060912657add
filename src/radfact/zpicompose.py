"""Formal ZPI rings: products of special-primary and Dedekind components.

A special-primary component is abstract: its ideal lattice is the chain
M^0 ⊃ M^1 ⊃ ... ⊃ M^t = 0, so an ideal is just an exponent in 0..t
(canonicalized by capping at t).  Dedekind components carry real quadratic
or rational-integer ideals and delegate to `quadring`.  Each component
class answers for its own entries, so a ZPI ring's functions make one pass.

Chains for ideals that touch a component's zero power (exponent t) are a
canonical choice rather than a unique factorization; such chains are
flagged with `canonical_extension=True` in the output.
"""

from __future__ import annotations

from functools import reduce

from .errors import DEFAULT_BOUNDS, Bounds, _Frozen, _shown, _strict_int
from .quadring import (IntIdeal, IntRing, QuadIdeal, QuadRing, sp_factor,
                       whole_ring_ideal)


class _ZeroEntry:
    def __repr__(self):
        return "ZERO"


ZERO = _ZeroEntry()


class SprComponent(_Frozen):
    """Abstract special primary ring with nilpotency index t >= 1."""

    def __init__(self, t: int):
        self.__dict__.update(t=_strict_int(t, "nilpotency index"))
        if t < 1:
            raise ValueError("nilpotency index must be >= 1")

    def _unit(self):
        return 0

    def _entry(self, entry):
        if _strict_int(entry, "special-primary exponent") < 0:
            raise ValueError("special-primary entries are exponents >= 0")
        return min(entry, self.t)

    def _product(self, a, b):
        return min(a + b, self.t)

    def _links(self, entry, bounds):
        return [1] * entry

    def _reaches_zero(self, entry):
        return entry == self.t

    def _to_list(self, entry):
        return entry


class DedComponent(_Frozen):
    """A Dedekind component: a quadratic maximal order or the rational integers."""

    def __init__(self, ring: object):
        self.__dict__.update(ring=ring)
        if not isinstance(ring, (QuadRing, IntRing)):
            raise ValueError("Dedekind component must be a QuadRing or IntRing")

    def _unit(self):
        return IntIdeal(1) if isinstance(self.ring, IntRing) else whole_ring_ideal(self.ring)

    def _entry(self, entry):
        if entry is ZERO or (isinstance(entry, (IntIdeal, QuadIdeal))
                             and entry.ring == self.ring):
            return entry
        raise ValueError("expected an ideal of the component's ring")

    def _product(self, a, b):
        return ZERO if a is ZERO or b is ZERO else a * b

    def _links(self, entry, bounds):
        return [] if entry.is_whole else sp_factor(entry, bounds=bounds).links

    def _reaches_zero(self, entry):
        return False    # ZERO entries are refused before a chain is built

    def _to_list(self, entry):
        if entry is ZERO:
            return "zero"
        return {"zint": entry.n} if isinstance(entry, IntIdeal) else {"hnf": list(entry.hnf)}


class ZpiRing(_Frozen):
    def __init__(self, components: tuple):
        self.__dict__.update(components=components)
        if not components:
            raise ValueError("a ZPI ring needs at least one component")
        for comp in components:
            if not isinstance(comp, (SprComponent, DedComponent)):
                raise ValueError(f"unrecognized component {_shown(comp)}")

    def unit_ideal(self) -> "ZpiIdeal":
        return ZpiIdeal(self, tuple(c._unit() for c in self.components))


class ZpiIdeal(_Frozen):
    """Componentwise ideal: exponents for SPR parts, ideals (or ZERO) for DED parts."""

    def __init__(self, ring: ZpiRing, entries: tuple):
        if len(entries) != len(ring.components):
            raise ValueError("entry count does not match component count")
        self.__dict__.update(ring=ring, entries=tuple(
            c._entry(e) for c, e in zip(ring.components, entries)))

    @property
    def is_unit(self) -> bool:
        return self == self.ring.unit_ideal()

    def has_zero_entry(self) -> bool:
        return any(e is ZERO for e in self.entries)


def zpi_product(i: ZpiIdeal, j: ZpiIdeal) -> ZpiIdeal:
    """Componentwise product: exponents add and cap at t; zero absorbs."""
    if i.ring != j.ring:
        raise ValueError("ideals of different ZPI rings")
    return ZpiIdeal(i.ring, tuple(
        c._product(a, b) for c, a, b in zip(i.ring.components, i.entries, j.entries)))


class ZpiChain(_Frozen):
    """An ascending chain of ZpiIdeals whose product is a given ideal.

    `canonical_extension` is True when an SPR entry hit its zero power M^t;
    there the ascending form is a canonicalization, not a unique chain.
    """

    def __init__(self, links: tuple, canonical_extension: bool):
        self.__dict__.update(links=links, canonical_extension=canonical_extension)

    def __iter__(self):
        return iter(self.links)

    def __len__(self):
        return len(self.links)

    def product(self):
        return reduce(zpi_product, self.links)


def radical_chain(i: ZpiIdeal, bounds: Bounds = DEFAULT_BOUNDS) -> ZpiChain:
    """Merge componentwise ascending chains into one chain of ZpiIdeals."""
    if i.is_unit:
        raise ValueError("the unit ideal has no radical chain")
    if i.has_zero_entry():
        raise ValueError("zero entries in Dedekind components are not factorable")
    pairs = list(zip(i.ring.components, i.entries))
    chains = [c._links(e, bounds) for c, e in pairs]
    links = tuple(ZpiIdeal(i.ring, tuple(ch[k] if k < len(ch) else c._unit()
                                         for (c, _), ch in zip(pairs, chains)))
                  for k in range(max(map(len, chains))))
    chain = ZpiChain(links, any(c._reaches_zero(e) for c, e in pairs))
    if chain.product() != i:
        raise ArithmeticError("componentwise chain failed to re-multiply")
    return chain


def ideal_to_list(i: ZpiIdeal) -> list:
    return [c._to_list(e) for c, e in zip(i.ring.components, i.entries)]
