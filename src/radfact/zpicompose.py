"""Formal ZPI rings: products of special-primary and Dedekind components.

A special-primary component is abstract: its ideal lattice is the chain
M^0 ⊃ M^1 ⊃ ... ⊃ M^t = 0, so an ideal is just an exponent in 0..t
(canonicalized by capping at t).  Dedekind components carry real quadratic
or rational-integer ideals and delegate to `quadring`.

Chains for ideals that touch a component's zero power (exponent t) are a
canonical choice rather than a unique factorization; such chains are
flagged with `canonical_extension=True` in the output.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest

from .errors import DEFAULT_BOUNDS, Bounds, _Frozen
from .quadring import (IntIdeal, IntRing, QuadIdeal, QuadRing, sp_factor,
                       whole_ring_ideal)


class _ZeroEntry:
    def __repr__(self):
        return "ZERO"


ZERO = _ZeroEntry()


class SprComponent(_Frozen):
    """Abstract special primary ring with nilpotency index t >= 1."""

    def __init__(self, t: int):
        self.__dict__.update(t=t)
        if t < 1:
            raise ValueError("nilpotency index must be >= 1")


class DedComponent(_Frozen):
    """A Dedekind component: a quadratic maximal order or the rational integers."""

    def __init__(self, ring: object):
        self.__dict__.update(ring=ring)
        if not isinstance(ring, (QuadRing, IntRing)):
            raise ValueError("Dedekind component must be a QuadRing or IntRing")

    def unit_ideal(self):
        if isinstance(self.ring, IntRing):
            return IntIdeal(1)
        return whole_ring_ideal(self.ring)


class ZpiRing(_Frozen):
    def __init__(self, components: tuple):
        self.__dict__.update(components=components)
        if not components:
            raise ValueError("a ZPI ring needs at least one component")
        for comp in components:
            if not isinstance(comp, (SprComponent, DedComponent)):
                raise ValueError(f"unrecognized component {comp!r}")

    def unit_ideal(self) -> "ZpiIdeal":
        return ZpiIdeal(self, tuple(
            0 if isinstance(c, SprComponent) else c.unit_ideal()
            for c in self.components))


def _canonical_entry(comp, entry):
    if isinstance(comp, SprComponent):
        if not isinstance(entry, int) or entry < 0:
            raise ValueError("special-primary entries are exponents >= 0")
        return min(entry, comp.t)
    if entry is ZERO or (isinstance(entry, (IntIdeal, QuadIdeal))
                         and entry.ring == comp.ring):
        return entry
    raise ValueError("expected an ideal of the component's ring")


class ZpiIdeal(_Frozen):
    """Componentwise ideal: exponents for SPR parts, ideals (or ZERO) for DED parts."""

    def __init__(self, ring: ZpiRing, entries: tuple):
        if len(entries) != len(ring.components):
            raise ValueError("entry count does not match component count")
        self.__dict__.update(ring=ring, entries=tuple(
            _canonical_entry(c, e) for c, e in zip(ring.components, entries)))

    @property
    def is_unit(self) -> bool:
        return self == self.ring.unit_ideal()

    def has_zero_entry(self) -> bool:
        return any(e is ZERO for e in self.entries)


def zpi_product(i: ZpiIdeal, j: ZpiIdeal) -> ZpiIdeal:
    """Componentwise product: exponents add and cap at t; zero absorbs."""
    if i.ring != j.ring:
        raise ValueError("ideals of different ZPI rings")
    out = []
    for comp, a, b in zip(i.ring.components, i.entries, j.entries):
        if isinstance(comp, SprComponent):
            out.append(min(a + b, comp.t))
        elif a is ZERO or b is ZERO:
            out.append(ZERO)
        else:
            out.append(a * b)
    return ZpiIdeal(i.ring, tuple(out))


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
    comp_chains = []
    extension = False
    for comp, entry in zip(i.ring.components, i.entries):
        if isinstance(comp, SprComponent):
            comp_chains.append([1] * entry)
            if entry == comp.t:
                extension = True
        elif entry.is_whole:
            comp_chains.append([])
        else:
            comp_chains.append(sp_factor(entry, bounds=bounds).links)
    unit = i.ring.unit_ideal().entries
    links = tuple(ZpiIdeal(i.ring, tuple(u if e is None else e for e, u in zip(column, unit)))
                  for column in zip_longest(*comp_chains))
    chain = ZpiChain(links, extension)
    if chain.product() != i:
        raise ArithmeticError("componentwise chain failed to re-multiply")
    return chain


def ideal_to_list(i: ZpiIdeal) -> list:
    out = []
    for comp, e in zip(i.ring.components, i.entries):
        if isinstance(comp, SprComponent):
            out.append(e)
        elif e is ZERO:
            out.append("zero")
        elif isinstance(e, IntIdeal):
            out.append({"zint": e.n})
        else:
            out.append({"hnf": list(e.hnf)})
    return out
