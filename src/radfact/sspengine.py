"""Decide whether every ideal of a finite ring is a product of radical ideals.

`radical_closure` closes the radical ideals under ideal products and returns
one `SspVerdict`: the ideal lattice and the closure's parent links, from
which the verdict, the first non-factorable ideal and, on request, a
shortest factorization of every ideal are read.  The radical ideals are the
meets of sets of primes, read off `finideal.prime_spectrum` with no lattice
scan; `SspVerdict.checks` re-checks every witness once, the radicals through
one independent gather (`finideal._radical_masks`).  A census needs only the
verdict, which `local_ssp` decides one local factor eA at a time: the ideals,
radicals and products of A = prod eA go componentwise, and the products of
radicals of the local ring eA are the powers of its maximal ideal, so each
factor's lattice must hold nothing else, which its size alone tells.  A
structurally independent oracle (`structural_ssp`) answers the same
question through the local decomposition, so the two routes can be
cross-checked: `local_factors` reads the order and special-primary verdict
of each local factor eA inside the ring itself, through xA = eA, and builds
no factor ring.
`is_vnr` counts the nilpotents on the cached power map, since a finite
commutative ring is von Neumann regular exactly when it is reduced.
`is_multiplication_module` tests cyclicity, since over a finite commutative
ring a module is a multiplication module exactly when it is cyclic.
"""

from __future__ import annotations

from .errors import DEFAULT_BOUNDS, Bounds, _Value
from .finideal import (FinIdeal, _lattice_product, _local_lattices, _power_map, _radical_masks,
                       all_ideals, ideal_product, prime_spectrum)
from .finring import (FinModule, FinRing, SpecialPrimaryVerdict, _primitive_idempotents,
                      _principal_masks, _row_masks, _special_primary, units)

# What `decide-ssp` reports as `sp_note` beside `is_sp`, which is always true.
SP_NOTE = ("in a finite commutative ring every regular element is a unit, so the "
           "only regular ideal is the unit ideal and the regular-ideal "
           "factorization property holds for trivial reasons; it says nothing "
           "about the SSP property")


class SspVerdict(_Value):
    """The closure of the radical ideals of `ring` under products.

    `lattice` is every ideal, as {mask: FinIdeal} in `all_ideals` order.
    `parent[mask]` is None for the seed radicals and a (member, radical)
    mask pair for every other product reached; unwinding parents yields a
    shortest factorization because the closure is built breadth-first.
    """

    def __init__(self, ring: FinRing, parent: dict[int, tuple[int, int] | None],
                 lattice: dict[int, FinIdeal]):
        self.ring = ring
        self.parent = parent
        self.lattice = lattice

    @property
    def is_ssp(self) -> bool:
        return len(self.parent) == len(self.lattice)

    @property
    def witness_nonfactorable(self) -> FinIdeal | None:
        """The first ideal, in lattice order, that is no product of radicals."""
        return next((i for m, i in self.lattice.items() if m not in self.parent), None)

    @property
    def members(self) -> list[FinIdeal]:
        """Every product of radical ideals, in lattice order."""
        return [i for m, i in self.lattice.items() if m in self.parent]

    def factors_of(self, ideal) -> list[FinIdeal] | None:
        """A minimal-length list of radical ideals whose product is `ideal`."""
        mask = ideal.mask
        if mask not in self.parent:
            return None
        out = []
        while (p := self.parent[mask]) is not None:
            mask, rmask = p
            out.append(self.lattice[rmask])
        out.append(self.lattice[mask])
        out.reverse()
        return out

    @property
    def checks(self) -> dict[str, bool]:
        """Whether every witness factor is radical, by one gather over the seeds
        and the links' radicals, and every witness multiplies to its ideal.  A
        witness is its parent's times the link's radical, so by induction from
        the one-factor seeds one `ideal_product` per parent link proves that."""
        links = [(p, link) for p, link in self.parent.items() if link is not None]
        factors = list({m for m, link in self.parent.items() if link is None}
                       | {r for _, (_, r) in links})
        radicals = _radical_masks(self.ring, factors)
        return {
            "factors_radical": all(r == m for m, r in zip(factors, radicals)),
            "products_match": all(ideal_product(self.lattice[m], self.lattice[r]).mask == p
                                  for p, (m, r) in links),
        }

    @property
    def factorizations(self) -> dict[FinIdeal, list[FinIdeal] | None]:
        """`factors_of` every ideal, None for those outside the closure."""
        return {i: self.factors_of(i) for i in self.lattice.values()}


def radical_closure(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> SspVerdict:
    """All products of radical ideals of a, with one witness expression each.

    The radical ideals are the meets of sets of primes: every prime of a
    finite ring is maximal, and a radical I is the meet of the maximal ideals
    that contain it, as the Artinian reduced ring a/I has Jacobson radical 0.
    """
    lattice = {i.mask: i for i in all_ideals(a, bounds)}
    product = _lattice_product(a, {m: i.small_gens() for m, i in lattice.items()})
    meets = {a.whole_mask}
    for p in prime_spectrum(a):
        meets |= {m & p.mask for m in meets}
    # breadth-first from the sorted radicals, so unwinding parents gives a shortest product
    frontier = sorted(meets)
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(frontier)
    proper = [r for r in frontier if r != a.whole_mask]
    while frontier and len(parent) < len(lattice):
        nxt = []
        for m in frontier:
            for r in proper:
                p = product(m, r)
                if p not in parent:
                    parent[p] = (m, r)
                    if len(parent) == len(lattice):
                        return SspVerdict(a, parent, lattice)   # nothing more can be inserted
                    nxt.append(p)
        frontier = sorted(nxt)
    return SspVerdict(a, parent, lattice)


def decide_ssp(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> SspVerdict:
    """Exhaustive SSP decision; the verdict unwinds its witnesses on request."""
    return radical_closure(a, bounds)


def local_ssp(a: FinRing, factors: list[tuple[int, SpecialPrimaryVerdict]],
              bounds: Bounds = DEFAULT_BOUNDS) -> bool:
    """`decide_ssp(a).is_ssp`, decided one local factor at a time on a's tables.

    `factors` is `local_factors(a)`.  The ideals of A = prod eA are the sums of
    ideals I_e of the factors, and radicals and products go componentwise, so
    an ideal is a product of radicals exactly when each I_e is one in eA (a
    shorter product pads with eA, itself radical).  The radicals of the local
    ring eA are its maximal ideal M_e and eA, so the products of radicals in
    eA are the powers M_e^k, with M_e^0 = eA.  They fall strictly until they
    reach 0: M^k = M^(k+1) = M·M^k forces M^k = 0 by Nakayama, as M is
    nilpotent.  So there are exactly t_e + 1 of them, t_e the nilpotency
    index, and eA is SSP exactly when its lattice (`finideal._local_lattices`,
    bounded as `all_ideals` is) holds t_e + 1 ideals.
    """
    return all(len(lattice) == v.nilpotency_index + 1
               for (_, lattice), (_, v) in zip(_local_lattices(a, bounds), factors))


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


def is_vnr(a: FinRing) -> bool:
    """Von Neumann regularity: every x has some y with x*y*x = x.

    A finite commutative ring is von Neumann regular exactly when it is
    reduced, a product of fields: so only 0 may have x^N = 0 under the
    cached power map of `finideal._power_map`, whose N is past every
    nilpotency index.
    """
    return int((_power_map(a) == a.zero).sum()) == 1


def is_multiplication_module(e: FinModule) -> bool:
    """Test that every submodule F of e equals IE for some ideal I.

    Over a finite commutative ring A that holds exactly when e is cyclic
    (El-Bast and Smith, Comm. Algebra 16, 1988), so no lattice is enumerated:
    (<=) a submodule F of Am equals (F : m)m, with (F : m) = {r : rm in F};
    (=>) A is the product of the local rings fA over its primitive idempotents
    f, and each fE is a multiplication module over fA (F inside fE is IE, so
    F = (fI)(fE)).  The maximal ideal M of fA is nilpotent, so M(fE) != fE
    when fE != 0 (Nakayama), and some m in fE outside M(fE) has Am = I(fE)
    for an ideal I of fA not inside M: I = fA and Am = fE.  E, the sum of
    the fE, is then generated by the sum m of their generators m_f, as
    fm = m_f.
    """
    # row m of the transposed action is {r·m : r in ring}, the submodule Rm, and
    # Rm = R(um) for a unit u; a list, not the tuple, indexes rows of the action.
    # The distinct Rm come sorted, and the whole module's bitset is the largest
    _, cyclic = _row_masks(e.action.T, e.action[list(units(e.ring))])
    return cyclic[-1][0] == (1 << e.size) - 1
