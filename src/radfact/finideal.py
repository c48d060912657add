"""Ideals of finite table rings: lattice enumeration, radicals, the prime spectrum.

Ideals are bitsets over element indices, in the format that `finring` owns
(`mask_of`, `elements_of`, `_pack`, `_bits`, `_bit_rows`, and the table of
principal ideals `_principal_masks` and their distinct (bitset, least
generator) pairs `_principal_ideals`, which it caches on the ring), compared
and hashed by value; every list of ideals produced here comes back sorted
by bitset value so output is deterministic.  Enumeration never touches the
power set: every ideal is a sum of principal ideals, so an ideal that is
not the sum of the ideals below it (a join-irreducible one) is principal,
and the lattice is the join closure of those.  `_join_closure` walks the
distinct principal ideals by size and sums each one that is not yet a known
sum with every known ideal incomparable with it, in batched gathers
(`_sums`): |L| sums per generator for a lattice of |L| ideals, keeping one
bitset and one generator tuple per ideal.  `_local_lattices` runs that
closure once per local factor eA, over the principal ideals inside eA, for
the census, which counts each lattice against the powers of the factor's
maximal ideal; the product of their sizes is the ideal count, held to the
same bound.  Radicals of many ideals come from one gather of their
membership rows through the power map (`_radical_masks`, which `radical`
and the SSP witness check read).  The spectrum needs no
lattice: a finite ring is the product of its local factors eA, one per
primitive idempotent e, and its primes are its maximal ideals
{x : ex in M_e}, M_e the maximal ideal of eA (Atiyah-Macdonald, Thm 8.7 and
Prop. 8.8), which `finring._special_primary` finds; `is_prime` and `vn_set`
read that list.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DEFAULT_BOUNDS, Bounds, _strict_int, exceeded
from .finring import (FinRing, _bit_rows, _bits, _pack, _primitive_idempotents,
                      _principal_ideals, _principal_ideals_in, _principal_masks,
                      _special_primary, elements_of, mask_of)

# The most sums one gather in `_sums` holds (16 MiB of int32): the subgroups
# one ideal of a product of many fields lacks can hold millions of elements.
_GATHER = 1 << 22


def _sums(add, els, parts):
    """Row k is the membership row of els + parts[k], for the elements `els`
    of a subgroup and bitsets `parts` of subgroups of the group with addition
    table `add`: one gather and one scatter, batched to _GATHER sums."""
    n = add.shape[0]
    offsets = np.flatnonzero(_bit_rows(parts, n))   # k*n + x for x in parts[k]
    cols = offsets % n
    offsets -= cols
    member = np.zeros(len(parts) * n, dtype=bool)
    step = _GATHER // els.size
    for lo in range(0, cols.size, step):
        member[add[els[:, None], cols[lo:lo + step]] + offsets[lo:lo + step]] = True
    return member.reshape(len(parts), n)


def _span(add, mask, parts):
    """The bitset of mask + parts[0] + parts[1] + ..., folded through `_sums`;
    `mask` holds the zero element, or is a subgroup to extend, and each part
    is the bitset of a subgroup.  A part already inside the sum adds nothing."""
    n = add.shape[0]
    for part in parts:
        if part & ~mask:
            mask = _pack(_sums(add, np.flatnonzero(_bits(mask, n)), [part]))[0]
    return mask


def _validate_ideal_mask(ring, mask):
    if mask <= 0 or (mask >> ring.order):
        raise ValueError("members out of range for this ring")
    member = _bits(mask, ring.order)
    els = np.flatnonzero(member)
    if not member[ring.zero]:
        raise ValueError("an ideal must contain zero")
    if not member[ring.add[np.ix_(els, els)]].all():
        raise ValueError("subset is not closed under addition")
    if not member[ring.mul[:, els]].all():
        raise ValueError("subset is not closed under ring multiplication")


class FinIdeal:
    """An ideal of a FinRing, stored as a bitset of element indices."""

    __slots__ = ("ring", "mask", "_els", "_gens")

    def __init__(self, ring, elements):
        mask = mask_of(list(elements))
        _validate_ideal_mask(ring, mask)
        self.ring = ring
        self.mask = mask
        self._els = None
        self._gens = None

    @staticmethod
    def _unchecked(ring, mask, gens=None):
        i = object.__new__(FinIdeal)
        i.ring = ring
        i.mask = mask
        i._els = None
        i._gens = gens
        return i

    @property
    def elements(self) -> tuple[int, ...]:
        if self._els is None:
            self._els = elements_of(self.mask)
        return self._els

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, x):
        return bool((self.mask >> int(x)) & 1)

    def contains(self, other) -> bool:
        """Set containment: other ⊆ self."""
        if self.ring is not other.ring:
            raise ValueError("ideals of different rings")
        return other.mask & ~self.mask == 0

    @property
    def is_whole(self) -> bool:
        return self.mask == self.ring.whole_mask

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero

    def __eq__(self, other):
        return (isinstance(other, FinIdeal)
                and self.ring is other.ring and self.mask == other.mask)

    def __hash__(self):
        return hash((id(self.ring), self.mask))

    def __repr__(self):
        return f"FinIdeal({self.ring.label!r}, {list(self.elements)})"

    def to_list(self) -> list[int]:
        return list(self.elements)

    def small_gens(self) -> tuple[int, ...]:
        """A generating set of size at most log2(|I|), computed greedily."""
        if self._gens is None:
            ring = self.ring
            principal = _principal_masks(ring)
            span = 1 << ring.zero
            gens = []
            while span != self.mask:
                # for an ideal the span stays inside the mask and grows each
                # round (it gains g = g*1); a span that leaves the mask, or
                # one that does not grow, would make the loop endless
                if span & ~self.mask:
                    raise ArithmeticError("small_gens: the mask is not an ideal")
                g = (self.mask & ~span)
                g = (g & -g).bit_length() - 1
                gens.append(g)
                span = _span(ring.add, span, [principal[g]])
                if not span >> g & 1:
                    raise ArithmeticError("small_gens: the span does not grow; not a ring")
            self._gens = tuple(gens)
        return self._gens


def zero_ideal(a: FinRing) -> FinIdeal:
    return FinIdeal._unchecked(a, 1 << a.zero, gens=())


def whole_ideal(a: FinRing) -> FinIdeal:
    return FinIdeal._unchecked(a, a.whole_mask, gens=(a.one,))


def generated_ideal(a: FinRing, gens) -> FinIdeal:
    """Least ideal containing the given elements."""
    gens = tuple(_strict_int(g, "generator") for g in gens)
    for g in gens:
        if not 0 <= g < a.order:
            raise ValueError(f"generator {g} out of range")
    principal = _principal_masks(a)   # the ideal is the sum of the principal ideals gR
    span = _span(a.add, 1 << a.zero, [principal[g] for g in gens])
    return FinIdeal._unchecked(a, span, gens=tuple(sorted(set(gens))))


def _join_closure(cyclic, add, bounds):
    """Every sum of the cyclic subgroups in `cyclic`, as {mask: generators}.

    `cyclic` holds (mask, generator) pairs with distinct masks, each mask a
    subgroup of the group with addition table `add`.  A sum that is not the
    sum of the sums strictly below it is one of the cyclic subgroups, so
    only those (the join-irreducible ones) need joining: walk them by size,
    skip one that is already a known sum, and add each other one, as a new
    generator, to every known sum it neither contains nor lies in, at most
    _GATHER // n sums per `_sums` call.  That is |L| sums per generator for
    a lattice of |L| sums.  Sums stay bitsets; only the generator being added
    is unpacked to its elements.  A sum that is itself cyclic keeps its single
    generator, so generator tuples stay short for `_lattice_product`.
    """
    limit = bounds.ideals
    n = add.shape[0]
    least = dict(cyclic)
    known = {}

    def admit(mask, gens):
        known[mask] = gens
        if len(known) > limit:
            exceeded("max-ideals", limit, len(known), "lattice size")

    step = max(1, _GATHER // n)
    for mask, g in sorted(cyclic, key=lambda c: (c[0].bit_count(), c[0])):
        if mask in known:
            continue
        els = np.flatnonzero(_bits(mask, n))
        apart = [m for m in known if m & ~mask and mask & ~m]
        admit(mask, (g,))
        for lo in range(0, len(apart), step):
            batch = apart[lo:lo + step]
            for m, jmask in zip(batch, _pack(_sums(add, els, batch))):
                if jmask not in known:
                    admit(jmask, (least[jmask],) if jmask in least else known[m] + (g,))
    return known


def all_ideals(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> list[FinIdeal]:
    """Every ideal of a, in sorted bitset order."""
    cached = a._cache.get("ideals")
    if cached is None:
        known = _join_closure(_principal_ideals(a), a.add, bounds)
        cached = sorted(known.items())
        a._cache["ideals"] = cached
    if len(cached) > bounds.ideals:
        # a lattice cached under a larger bound
        exceeded("max-ideals", bounds.ideals, len(cached), "ideal count")
    return [FinIdeal._unchecked(a, m, gens=g) for m, g in cached]


def _local_lattices(a: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> list[tuple[int, dict]]:
    """The ideal lattice of each local factor eA, as (eA, {mask: generators}),
    one per primitive idempotent e in index order, read on a's tables.

    The ideals of a inside eA are the ideals of eA, and x lies in eA exactly
    when xA does, so each lattice is the join closure of the principal ideals
    inside eA.  The ideals of a are the sums of one ideal per factor, so the
    product of the lattice sizes is a's ideal count, held to `bounds.ideals`
    after every factor has been held to it on its own.
    """
    principal = _principal_masks(a)
    out = [(principal[e], _join_closure(_principal_ideals_in(a, e), a.add, bounds))
           for e in _primitive_idempotents(a)]
    count = math.prod(len(lattice) for _, lattice in out)
    if count > bounds.ideals:
        exceeded("max-ideals", bounds.ideals, count, "ideal count")
    return out


def ideal_sum(i: FinIdeal, j: FinIdeal) -> FinIdeal:
    if i.ring is not j.ring:
        raise ValueError("ideals of different rings")
    a = i.ring
    return FinIdeal._unchecked(a, _span(a.add, i.mask, [j.mask]))


def ideal_product(i: FinIdeal, j: FinIdeal) -> FinIdeal:
    """IJ: the sum of the principal ideals (gh)R, for g and h generators of I and J."""
    if i.ring is not j.ring:
        raise ValueError("ideals of different rings")
    a = i.ring
    principal = _principal_masks(a)
    parts = [principal[a.mul[g, h]] for g in i.small_gens() for h in j.small_gens()]
    return FinIdeal._unchecked(a, _span(a.add, 1 << a.zero, parts))


def _lattice_product(a, lattice):
    """Multiply ideals of a given by mask, on the full ideal lattice
    `lattice` ({mask: generators}, as `all_ideals` enumerates it).

    With I = sum gR and J = sum hR, IJ is the sum of the principal ideals
    (gh)R.  Their union u lies in IJ, so IJ = u when u is a lattice mask;
    otherwise IJ, the least ideal containing u, is the meet of the lattice
    ideals that contain u, since ideals are closed under intersection.
    Rows of `mul` are fetched as a generator first needs them.
    """
    principal = _principal_masks(a)
    whole = a.whole_mask
    rows = {}

    def product(mask1, mask2):
        u = 0
        for g in lattice[mask1]:
            row = rows.get(g)
            if row is None:
                row = rows[g] = a.mul[g].tolist()
            for h in lattice[mask2]:
                u |= principal[row[h]]
        if u in lattice:
            return u
        meet = whole
        for mask in lattice:
            if u & ~mask == 0:
                meet &= mask
        return meet

    return product


def ideal_power(i: FinIdeal, n: int) -> FinIdeal:
    """I^n.  The powers descend, at least halving at each strict step, and stop
    at the first repeat, so at most order.bit_length() products are taken."""
    if _strict_int(n, "exponent") < 0:
        raise ValueError("exponent must be >= 0")
    out = whole_ideal(i.ring)
    while n and (nxt := ideal_product(out, i)) != out:
        out, n = nxt, n - 1
    return out


def _power_map(a):
    """x -> x^N for N the least power of two >= order.bit_length(), cached on the ring."""
    pw = a._cache.get("power_map")
    if pw is None:
        pw = np.arange(a.order)
        for _ in range((a.order.bit_length() - 1).bit_length()):
            pw = a.mul[pw, pw]
        a._cache["power_map"] = pw
    return pw


def _radical_masks(a, masks) -> list[int]:
    """The radical of each ideal of a in `masks` (bitsets), as bitsets.

    Row I of the membership matrix, gathered through the power map, is the
    membership row of the radical: x is in it when x^N is in I.  At most
    _GATHER // order rows are unpacked, gathered and packed at a time.
    """
    n = a.order
    pw = _power_map(a)
    step = max(1, _GATHER // n)
    out = []
    for lo in range(0, len(masks), step):
        # np.take keeps the result C-ordered, which `_pack` reads fastest
        out += _pack(np.take(_bit_rows(masks[lo:lo + step], n), pw, axis=1))
    return out


def radical(i: FinIdeal) -> FinIdeal:
    """All x with x^N in I, for the power N of `_power_map`.

    A nilpotent of R/I has index at most the composition length of R/I,
    and each composition factor has at least two elements, so the index is
    at most log2|R/I| <= log2|R| < order.bit_length() <= N.  Hence x^k in I
    for some k exactly when x^N in I.
    """
    return FinIdeal._unchecked(i.ring, _radical_masks(i.ring, [i.mask])[0])


def prime_spectrum(a: FinRing) -> list[FinIdeal]:
    """All primes, sorted: {x : ex in M_e} for each primitive idempotent e, M_e the
    maximal ideal of the local factor eA, one gather through row e of `mul`."""
    prim = _primitive_idempotents(a)
    rows = _bit_rows([_special_primary(a, e).maximal_ideal.mask for e in prim], a.order)
    masks = _pack(np.take_along_axis(rows, a.mul[prim], axis=1))
    return [FinIdeal._unchecked(a, m) for m in sorted(masks)]


def is_prime(i: FinIdeal) -> bool:
    """Membership in `prime_spectrum`."""
    return i in prime_spectrum(i.ring)


def vn_set(i: FinIdeal, n: int) -> list[FinIdeal]:
    """All primes P with I ⊆ P^n."""
    if _strict_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return [p for p in prime_spectrum(i.ring) if ideal_power(p, n).contains(i)]
