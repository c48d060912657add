"""Decide whether every ideal of a finite ring is a product of radical ideals.

The decision is exhaustive: build the closure of the radical ideals under
ideal products and compare against the full ideal lattice.  A structurally
independent oracle (`structural_ssp`) answers the same question through the
local decomposition instead, so the two routes can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_BOUNDS, Bounds
from .finideal import (FinIdeal, _join_closure, _row_sets, _sum_els, _union,
                       all_ideals, ideal_product, radical)
from .finring import (FinModule, FinRing, decompose_local, is_special_primary,
                      mask_of)


@dataclass
class RadicalClosure:
    """Closure of the radical ideals under products, with parent provenance.

    `parent[mask]` is None for the seed radicals and a (member, radical)
    mask pair otherwise; unwinding parents yields a shortest factorization
    because the closure is built breadth-first.
    """

    ring: FinRing
    members: list[FinIdeal]
    parent: dict[int, tuple[int, int] | None]
    _by_mask: dict[int, FinIdeal] = field(repr=False, default_factory=dict)

    def __contains__(self, ideal) -> bool:
        return ideal.mask in self.parent

    def factors_of(self, ideal) -> list[FinIdeal] | None:
        """A minimal-length list of radical ideals whose product is `ideal`."""
        if ideal.mask not in self.parent:
            return None
        out = []
        mask = ideal.mask
        while True:
            p = self.parent[mask]
            if p is None:
                out.append(self._by_mask[mask])
                break
            mask, rmask = p
            out.append(self._by_mask[rmask])
        out.reverse()
        return out


@dataclass
class SspVerdict:
    is_ssp: bool
    witness_nonfactorable: FinIdeal | None
    factorizations: dict[FinIdeal, list[FinIdeal] | None]


@dataclass
class SpVerdict:
    """The regular-ideal factorization property, which finite rings satisfy trivially."""

    is_sp: bool
    note: str


def radical_closure(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> RadicalClosure:
    """All products of radical ideals of a, with one witness expression each."""
    ideals = all_ideals(a, bounds)
    radicals = [i for i in ideals if radical(i).mask == i.mask]
    whole = a.whole_mask
    proper_radicals = [r for r in radicals if r.mask != whole]
    parent: dict[int, tuple[int, int] | None] = {r.mask: None for r in radicals}
    by_mask = {r.mask: r for r in radicals}
    frontier = radicals
    while frontier:
        nxt = []
        for m in frontier:
            for r in proper_radicals:
                p = ideal_product(m, r)
                if p.mask not in parent:
                    parent[p.mask] = (m.mask, r.mask)
                    by_mask[p.mask] = p
                    nxt.append(p)
        frontier = sorted(nxt, key=lambda i: i.mask)
    members = sorted(by_mask.values(), key=lambda i: i.mask)
    return RadicalClosure(a, members, parent, by_mask)


def decide_ssp(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> SspVerdict:
    """Exhaustive SSP decision with factorization witnesses."""
    closure = radical_closure(a, bounds)
    ideals = all_ideals(a, bounds)
    missing = [i for i in ideals if i.mask not in closure.parent]
    factorizations = {i: closure.factors_of(i) for i in ideals}
    witness = missing[0] if missing else None
    return SspVerdict(not missing, witness, factorizations)


def structural_ssp(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Independent oracle: every local factor must be special primary."""
    return all(is_special_primary(f, bounds).is_special_primary for f in decompose_local(a))


def decide_sp(a: FinRing) -> SpVerdict:
    return SpVerdict(True, (
        "in a finite commutative ring every regular element is a unit, so the "
        "only regular ideal is the unit ideal and the regular-ideal "
        "factorization property holds for trivial reasons; it says nothing "
        "about the SSP property"))


def is_vnr(a: FinRing) -> bool:
    """Von Neumann regularity: every x has some y with x*y*x = x."""
    for x in range(a.order):
        if not (a.mul[a.mul[x], x] == x).any():
            return False
    return True


def _submodule_masks(e: FinModule, bounds: Bounds) -> set[int]:
    """All submodules of e, as bitsets, by join-closure of cyclic submodules."""
    # {r·m : r in ring} is already a submodule, so cyclic generation is one shot
    return set(_join_closure(_row_sets(e.action.T), e.add, bounds))


def _ideal_image_masks(e: FinModule, bounds: Bounds) -> set[int]:
    """The submodules IE, for I ranging over all ideals of the base ring."""
    out = set()
    for ideal in all_ideals(e.ring, bounds):
        acc = np.array([e.zero], dtype=np.intp)
        for g in ideal.small_gens():
            acc = _sum_els(e.add, acc, _union(e.add, e.action[g]))
        out.add(mask_of(acc))
    return out


def is_multiplication_module(e: FinModule, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Exhaustively test that every submodule F equals IE for some ideal I."""
    return _submodule_masks(e, bounds) <= _ideal_image_masks(e, bounds)
