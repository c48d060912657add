"""Decide whether every ideal of a finite ring is a product of radical ideals.

The decision is exhaustive: build the closure of the radical ideals under
ideal products and compare against the full ideal lattice.  The radicals of
all lattice ideals come from one gather (`finideal._radical_masks`).  A
structurally independent oracle (`structural_ssp`) answers the same question
through the local decomposition instead, so the two routes can be
cross-checked: `local_factors` reads the order and the special-primary
verdict of each local factor eA inside the ring itself, through xA = eA,
and builds no factor ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DEFAULT_BOUNDS, Bounds
from .finideal import (FinIdeal, _distinct, _join_closure, _lattice_product, _principal_masks,
                       _radical_masks, _row_masks, _span, all_ideals)
from .finring import (FinModule, FinRing, SpecialPrimaryVerdict, _primitive_idempotents,
                      _special_primary, mask_of)


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
    by_mask = {i.mask: i for i in ideals}
    product = _lattice_product(a, {i.mask: i.small_gens() for i in ideals})
    masks = list(by_mask)
    radicals = [m for m, r in zip(masks, _radical_masks(a, masks)) if r == m]
    proper_radicals = [r for r in radicals if r != a.whole_mask]
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(radicals)

    def grow(frontier):
        while frontier:
            nxt = []
            for m in frontier:
                for r in proper_radicals:
                    p = product(m, r)
                    if p not in parent:
                        parent[p] = (m, r)
                        if len(parent) == len(ideals):
                            return      # every ideal is reached: nothing more is inserted
                        nxt.append(p)
            frontier = sorted(nxt)

    if len(parent) < len(ideals):
        grow(radicals)
    members = [by_mask[m] for m in sorted(parent)]
    return RadicalClosure(a, members, parent, {m: by_mask[m] for m in parent})


def decide_ssp(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> SspVerdict:
    """Exhaustive SSP decision with factorization witnesses."""
    closure = radical_closure(a, bounds)
    ideals = all_ideals(a, bounds)
    missing = [i for i in ideals if i.mask not in closure.parent]
    factorizations = {i: closure.factors_of(i) for i in ideals}
    witness = missing[0] if missing else None
    return SspVerdict(not missing, witness, factorizations)


def local_factors(a: FinRing) -> list[tuple[int, SpecialPrimaryVerdict]]:
    """The order of each local factor eA of a, with its special-primary verdict.

    Both are read inside a, one primitive idempotent e at a time (sorted by
    element index): |eA| is the size of the principal ideal eA, and the
    verdict is `is_special_primary(eA)` decided on a's tables and principal
    masks, so no factor ring is built.
    """
    principal = _principal_masks(a)
    return [(principal[e].bit_count(), _special_primary(a, e)) for e in _primitive_idempotents(a)]


def structural_ssp(a: FinRing) -> bool:
    """Independent oracle: every local factor must be special primary."""
    return all(v.is_special_primary for _, v in local_factors(a))


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
    return set(_join_closure(_distinct(_row_masks(e.action.T)), e.add, bounds))


def _ideal_image_masks(e: FinModule, bounds: Bounds) -> set[int]:
    """The submodules IE, for I ranging over all ideals of the base ring."""
    return {mask_of(_span(e.add, [e.zero], [e.action[g] for g in ideal.small_gens()]))
            for ideal in all_ideals(e.ring, bounds)}


def is_multiplication_module(e: FinModule, bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """Exhaustively test that every submodule F equals IE for some ideal I."""
    return _submodule_masks(e, bounds) <= _ideal_image_masks(e, bounds)
