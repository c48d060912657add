"""Finite commutative rings presented by dense element tables.

Elements are canonical indices 0..order-1; `add` and `mul` are immutable
numpy int32 tables, and a table entry that the int32 cast would change is
refused.  The axioms are verified at the boundary and hold by construction
inside: the public `FinRing` and `FinModule` constructors, and through them
the table form of `ring_from_dict`, take tables from outside and run the
full axiom verification: each table is checked against the declared order
or size before anything indexes with it, and the axioms are certified on
an additive generating set (a module's on the ring's).  The internal
constructors skip it through the private `_trusted` constructors, because
each output is a ring or module by construction: `make_zn` (Z/n),
`make_poly_quotient` (Z/n[x] modulo a monic f, over a canonical Z/n base),
`make_product` and `make_idealization` (of verified parts), `quotient` (a/I,
the image of a under x -> x + I) and `decompose_local` (eA for an idempotent
e, the image of x -> ex), and the modules `free_module` and
`quotient_module`.  So a `FinRing` in hand is always a genuine commutative
unitary ring.  Constructors check the order they would build against
`Bounds.order` (at most MAX_ORDER = 4096) before they allocate a table.

The local factors need no table of their own to be judged.  The primitive
idempotents come from one walk over the principal masks that the ideal
lattice caches (`_primitive_idempotents`), and the special-primary verdict
of eA is read inside a (`_special_primary`): x in eA is a unit of eA exactly
when xA = eA.  `decompose_local` builds eA only for a caller that wants it.

Composite elements have mixed-radix indices: `_pair_table` indexes a pair (x, y)
x*w + y for a second part of order w, so a free-module vector or a residue of
Z/n[x]/(f) with coefficients v_i is sum v_i n^i.  Horner's rule fills the
product of Z/n[x]/(f): a = a_0 + x*a' has index a_0 + n*a', with a' < a.

All values are immutable after construction and every operation here is a
pure function of its inputs.  This module, and numpy with it, runs on the
first table-ring call (the package docstring says what that means for threads).
Its `poly_quotient` labels come from `errors._format_terms`, not `polychain`.
"""

from __future__ import annotations

import numpy as np

from .errors import (DEFAULT_BOUNDS, MAX_ORDER, Bounds, _format_terms, _json_object, _shown,
                     _strict_int, _Value, exceeded)

# The most products (1 MiB of int32) one Horner step of make_poly_quotient fills
_HORNER_BLOCK = 1 << 18


def _check_order(order, bounds, what):
    if order > bounds.order:
        exceeded("max-order", bounds.order, order, what)


def _bounded_power(base, exp, bounds, what):
    """base ** exp for base >= 1, multiplied out with a cut-off at the order
    bound, so a huge exponent fails on it without building a huge integer."""
    size = 1
    for _ in range(exp if base > 1 else 0):
        size *= base
        if size > bounds.order:
            exceeded("max-order", bounds.order, f"{base}^{exp}", what)
    return size


def _pack(member) -> list[int]:
    """Row i of the boolean (k, n) matrix `member` as a bitset integer, for
    every i: bit x is set when member[i, x].  Equal rows share one int."""
    packed = np.packbits(member, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    rows = [raw[i * width:(i + 1) * width] for i in range(packed.shape[0])]
    ints = {row: int.from_bytes(row, "little") for row in set(rows)}
    return [ints[row] for row in rows]


def _bit_rows(masks, n: int):
    """The boolean (k, n) membership matrix of k bitsets below 2**n: bit x of
    masks[i] is member[i, x].  The inverse of `_pack`."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n,
                         bitorder="little").view(bool)


def _bits(mask: int, n: int):
    """The boolean membership row of length n of a bitset `mask` below 2**n."""
    return _bit_rows([mask], n)[0]


def mask_of(elements) -> int:
    """Pack element indices (a sequence or array, repeats allowed) into a bitset integer.

    A negative index raises ValueError (np.bincount refuses it), as does one
    too large for a machine integer.
    """
    try:
        idx = np.asarray(elements, dtype=np.intp).ravel()
    except OverflowError:
        raise ValueError("element index out of range") from None
    return _pack([np.bincount(idx) > 0])[0]


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitset integer into a sorted tuple of element indices."""
    return tuple(np.flatnonzero(_bits(mask, mask.bit_length())).tolist())


def _additive_generators(add, zero):
    # Greedy generating set of the additive group; the closure loop also
    # proves that the returned set generates, which the verification below
    # relies on.  Size is at most log2(order).
    n = add.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[zero] = True
    gens = []
    while not covered.all():
        g = int(np.flatnonzero(~covered)[0])
        gens.append(g)
        covered[g] = True
        while True:
            members = np.flatnonzero(covered)
            covered[add[np.ix_(members, members)].ravel()] = True
            if covered.sum() == members.size:
                break
    return gens


def _check_table(table, shape, identity, what, name, symmetric=True):
    """Refuse an operation table before anything indexes with it: it must have
    the declared `shape` (rows, size) and entries in 0..size-1, `identity`
    must be an integer row index whose row is the identity map, and a
    `symmetric` table must equal its transpose."""
    rows, size = shape
    if table.shape != shape:
        raise ValueError(f"{what} table has shape {table.shape}, not {shape}")
    if table.size and (int(table.min()) < 0 or int(table.max()) >= size):
        raise ValueError(f"{what} table has an entry outside 0..{size - 1}")
    if not 0 <= _strict_int(identity, name) < rows:
        raise ValueError(f"{name} index {identity} is outside the {rows} rows of the {what} table")
    if symmetric and not np.array_equal(table, table.T):
        raise ValueError(f"{what} is not commutative")
    if not np.array_equal(table[identity], np.arange(size)):
        raise ValueError(f"{name} is not an identity for {what}")


def _verify_group(add, n, zero, what):
    _check_table(add, (n, n), zero, f"{what} addition", f"{what} zero")
    if not (add == zero).any(axis=1).all():
        raise ValueError(f"{what}: an element has no additive inverse")
    gens = _additive_generators(add, zero)
    # Light's associativity test: elements g with a+(g+b) == (a+g)+b for all
    # a, b form a subsemigroup, so checking a generating set suffices.
    for g in gens:
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            raise ValueError(f"{what}: addition is not associative")
    return gens


def _verify_ring_tables(order, add, mul, zero, one):
    if order < 1:
        raise ValueError("ring order must be positive")
    gens = _verify_group(add, order, zero, "ring")
    _check_table(mul, (order, order), one, "ring multiplication", "ring one")
    # this also refuses zero == one in a ring of order > 1, where one times
    # every x is x
    if not (mul[:, zero] == zero).all():
        raise ValueError("zero is not multiplicatively absorbing")
    # Distributivity over an additive generating set extends to all elements
    # by induction (only additive associativity is used), and once it holds
    # the middle-associative elements of mul form an additive subgroup, so
    # the same generators certify multiplicative associativity.
    for g in gens:
        lhs = mul[:, add[:, g]]                    # a * (b + g)
        rhs = add[mul, mul[:, g][:, None]]         # a*b + a*g
        if not np.array_equal(lhs, rhs):
            raise ValueError("multiplication does not distribute over addition")
    for g in gens:
        if not np.array_equal(mul[mul[:, g]], mul[:, mul[g]]):
            raise ValueError("multiplication is not associative")


def _verify_module_tables(ring, size, add, zero, action):
    if not isinstance(ring, FinRing):
        raise ValueError(f"ring must be a FinRing, got {ring!r}")
    _verify_group(add, size, zero, "module")
    _check_table(action, (ring.order, size), ring.one, "action", "ring one", symmetric=False)
    # With the ring and the module's group verified, the r with (r + s)x =
    # rx + sx for all s, x are closed under addition; once that holds for
    # every r, so are the r with r(x + y) = rx + ry and those with (rs)x =
    # r(sx).  A nonempty set that generates the finite group R generates it
    # under addition alone, so the ring's additive generators certify all
    # three axioms; the zero ring has none, and its zero stands in.
    for r in _additive_generators(ring.add, ring.zero) or [ring.zero]:
        row = action[r]
        if not np.array_equal(row[add], add[np.ix_(row, row)]):
            raise ValueError("action is not additive in the module argument")
        if not np.array_equal(action[ring.add[r]], add[row[None, :], action]):
            raise ValueError("action is not additive in the ring argument")
        if not np.array_equal(action[ring.mul[r]], row[action]):
            raise ValueError("action does not respect ring multiplication")


def _freeze(table):
    """An immutable int32 copy of `table`; a ragged table, or an entry that
    the cast would change (wrap around, truncate), is refused with a ValueError."""
    try:
        table = np.asarray(table)
        t = np.ascontiguousarray(table, dtype=np.int32)
    except (OverflowError, TypeError, ValueError):
        raise ValueError("table entry is not an int32 integer") from None
    if table.dtype != np.int32 and not np.array_equal(t, table):
        raise ValueError("table entry is not an int32 integer")
    t.setflags(write=False)
    return t


class FinRing:
    """A finite commutative unitary ring with dense operation tables.

    The constructor verifies every ring axiom on the given tables."""

    __slots__ = ("order", "add", "mul", "zero", "one", "label", "_cache")

    def __init__(self, order, add, mul, zero, one, label=""):
        add = _freeze(add)
        mul = _freeze(mul)
        _verify_ring_tables(order, add, mul, zero, one)
        self._fill(order, add, mul, zero, one, label)

    @classmethod
    def _trusted(cls, order, add, mul, zero, one, label):
        """A ring from tables that form a ring by construction: no axiom check."""
        r = object.__new__(cls)
        r._fill(order, _freeze(add), _freeze(mul), zero, one, label)
        return r

    def _fill(self, order, add, mul, zero, one, label):
        self.order = int(order)
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.label = label or f"ring{order}"
        self._cache = {}

    def __repr__(self):
        return f"FinRing({self.label!r}, order={self.order})"

    def add_el(self, a, b):
        return int(self.add[a, b])

    def mul_el(self, a, b):
        return int(self.mul[a, b])

    @property
    def whole_mask(self) -> int:
        return (1 << self.order) - 1


class FinModule:
    """A finite module over a FinRing, given by an addition and action table.

    The constructor verifies the group and module axioms on the given tables."""

    __slots__ = ("ring", "size", "add", "zero", "action", "label")

    def __init__(self, ring, size, add, zero, action, label=""):
        add = _freeze(add)
        action = _freeze(action)
        _verify_module_tables(ring, size, add, zero, action)
        self._fill(ring, size, add, zero, action, label)

    @classmethod
    def _trusted(cls, ring, size, add, zero, action, label):
        """A module from tables that form a module by construction: no axiom check."""
        m = object.__new__(cls)
        m._fill(ring, size, _freeze(add), zero, _freeze(action), label)
        return m

    def _fill(self, ring, size, add, zero, action, label):
        self.ring = ring
        self.size = int(size)
        self.add = add
        self.zero = int(zero)
        self.action = action
        self.label = label or f"mod{size}"

    def __repr__(self):
        return f"FinModule({self.label!r}, size={self.size}, over={self.ring.label!r})"


def make_zn(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> FinRing:
    """The ring of integers modulo n, with representatives 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n, bounds, "ring order")
    # int32 tables reduced in place: (n-1)^2 < 2^31 for n <= MAX_ORDER, so no
    # wider n x n array is made
    idx = np.arange(n, dtype=np.int32)
    add = np.add.outer(idx, idx)
    mul = np.multiply.outer(idx, idx)
    np.remainder(add, n, out=add)
    np.remainder(mul, n, out=mul)
    return FinRing._trusted(n, add, mul, zero=0, one=1 % n, label=f"Z{n}")


def _is_canonical_zn(ring):
    # Every FinRing is a ring.  With zero 0, one 1 % n and x + 1 = x + 1 mod n
    # for every label x, label k is the sum k*1, so the axioms force both
    # tables to be those of make_zn: one column decides, not two n x n tables.
    n = ring.order
    return (ring.zero == 0 and ring.one == 1 % n
            and np.array_equal(ring.add[:, ring.one], (np.arange(n) + 1) % n))


def make_poly_quotient(base: FinRing, f, bounds: Bounds = DEFAULT_BOUNDS) -> FinRing:
    """Quotient Z_n[x]/(f) for a monic f, given lowest-degree-first coefficients."""
    if not _is_canonical_zn(base):
        raise ValueError("base ring must be a canonical Z/n ring built by make_zn")
    n = base.order
    d = len(f) - 1
    if d < 1:
        raise ValueError("modulus must have degree >= 1")
    order = _bounded_power(n, d, bounds, "quotient order")
    f = [int(c) % n for c in f]
    if f[d] != 1 % n:
        raise ValueError("modulus must be monic")
    vectors = free_module(base, d, bounds)   # residues as coefficient vectors
    add, scale, mul = vectors.add, vectors.action, np.empty_like(vectors.add)
    # x*b moves b's coefficients up one place and folds the top one back
    # in through x^d = -(f_0 + f_1 x + ... + f_{d-1} x^{d-1})
    minus_f = sum((-c) % n * n ** i for i, c in enumerate(f[:d]))
    times_x = add[scale[:, minus_f, None], np.arange(0, order, n)].ravel()
    mul[:n] = scale   # the constants; for d = 1 that is every row
    p = 1   # rows n*a' + a_0 for p <= a' < q <= n*p: every row a' is filled already
    while p < order // n:
        q = min(order // n, n * p, p + max(1, _HORNER_BLOCK // (n * order)))
        mul[n * p:n * q] = add[scale, mul[p:q, times_x][:, None]].reshape(-1, order)
        p = q
    label = f"Z{n}[x]/({_format_terms(f, 'x')})"
    return FinRing._trusted(order, add, mul, zero=0, one=1 % order, label=label)


def _pair_table(first, second):
    """The int32 table on pairs (x, y), indexed x*w + y: entry first[i, j] in
    the first coordinate, second[i, y1, j, y2] (broadcast; last axis w, axis 1
    of length w or 1) in the second.  Filled in place in C order: no temporary."""
    x = first[:, None, :, None]
    table = np.empty(np.broadcast_shapes(x.shape, second.shape), dtype=np.int32)
    np.multiply(x, second.shape[-1], out=table)
    table += second
    return table.reshape(table.shape[0] * table.shape[1], -1)


def make_product(a: FinRing, b: FinRing, bounds: Bounds = DEFAULT_BOUNDS) -> FinRing:
    """Direct product ring; element (x, y) has index x*b.order + y."""
    ob = b.order
    _check_order(a.order * ob, bounds, "product order")
    add = _pair_table(a.add, b.add[None, :, None, :])
    mul = _pair_table(a.mul, b.mul[None, :, None, :])
    return FinRing._trusted(a.order * ob, add, mul,
                            zero=a.zero * ob + b.zero, one=a.one * ob + b.one,
                            label=f"{a.label} x {b.label}")


def free_module(ring: FinRing, rank: int, bounds: Bounds = DEFAULT_BOUNDS) -> FinModule:
    """The free module ring^rank with componentwise action; coordinate i has
    weight ring.order^i in the element index."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    n = ring.order
    _bounded_power(n, rank, bounds, "module size")
    add, action, zero = np.zeros((1, 1), np.int32), np.zeros((n, 1), np.int32), 0
    # ring^(k+1) = ring x ring^k with the new coordinate leading; over the
    # zero ring every free module is zero
    for _ in range(rank if n > 1 else 0):
        zero += ring.zero * add.shape[0]
        add = _pair_table(ring.add, add[None, :, None, :])
        action = _pair_table(ring.mul, action[:, None, None, :])
    return FinModule._trusted(ring, add.shape[0], add, zero, action, f"{ring.label}^{rank}")


def module_from_ring(ring: FinRing) -> FinModule:
    """The ring viewed as a module over itself."""
    return FinModule._trusted(ring, ring.order, ring.add, ring.zero, ring.mul,
                              f"{ring.label} (self)")


def zero_module(ring: FinRing) -> FinModule:
    return free_module(ring, 0)


def _relabel(proj):
    """The image of the element map `proj`, in element order, and the index
    in it of each element's image; indexing a table with those indices
    relabels its entries 0..k-1."""
    return np.unique(proj, return_inverse=True)


def _coset_reps(a, ideal):
    """The map x -> least element of x + I."""
    if ideal.ring is not a:
        raise ValueError("ideal belongs to a different ring")
    return a.add[:, list(ideal.elements)].min(axis=1)


def _image_ring(a, proj, label):
    """The factor ring a/J on the element proj[x] picked from each coset x + J:
    the least element for a/I, or ex for eA, which is a/(1-e)A."""
    keep, idx = _relabel(proj)
    sub = np.ix_(keep, keep)
    return FinRing._trusted(keep.size, idx[a.add[sub]], idx[a.mul[sub]],
                            zero=int(idx[a.zero]), one=int(idx[a.one]), label=label)


def quotient_module(ring: FinRing, ideal) -> FinModule:
    """The cyclic module ring/I, with cosets labelled by least representatives."""
    keep, idx = _relabel(_coset_reps(ring, ideal))
    return FinModule._trusted(ring, keep.size, idx[ring.add[np.ix_(keep, keep)]],
                              int(idx[ring.zero]), idx[ring.mul[:, keep]],
                              label=f"{ring.label}/I{len(ideal)}")


def make_idealization(a: FinRing, e: FinModule, bounds: Bounds = DEFAULT_BOUNDS) -> FinRing:
    """The idealization of a module: pairs (r, m) with (r,m)(s,n) = (rs, rn+sm).

    The embedded copy of the module squares to zero, which is what produces
    the non-semiprimary examples this package exists to analyze.
    """
    if e.ring is not a:
        raise ValueError("module is not over the given ring")
    s = e.size
    _check_order(a.order * s, bounds, "idealization order")
    act = e.action
    # module part e.add[act[r1, m2], act[r2, m1]], gathered inline to free it early
    mul = _pair_table(a.mul, e.add[act[:, None, None, :], act.T[None, :, :, None]])
    return FinRing._trusted(a.order * s, _pair_table(a.add, e.add[None, :, None, :]), mul,
                            zero=a.zero * s + e.zero, one=a.one * s + e.zero,
                            label=f"{a.label}(+){e.label}")


def quotient(a: FinRing, ideal) -> FinRing:
    """The factor ring a/I on least coset representatives."""
    return _image_ring(a, _coset_reps(a, ideal), f"{a.label}/I{len(ideal)}")


def regular_elements(a: FinRing) -> tuple[int, ...]:
    """Elements x with xy = 0 only for y = 0; in a finite ring these are the units."""
    counts = (a.mul == a.zero).sum(axis=1)
    return tuple(np.flatnonzero(counts == 1).tolist())


def units(a: FinRing) -> tuple[int, ...]:
    return tuple(np.flatnonzero((a.mul == a.one).any(axis=1)).tolist())


def idempotents(a: FinRing) -> tuple[int, ...]:
    idx = np.arange(a.order)
    return tuple(int(e) for e in idx[a.mul.diagonal() == idx])


def _primitive_idempotents(a: FinRing) -> list[int]:
    """The primitive idempotents of a, sorted by element index.

    A ring whose only nonzero idempotent is 1 is local and needs no search.
    Otherwise walk the nonzero idempotents e by the size of eA and keep e
    when eA holds no idempotent kept before it: a non-primitive e has a
    primitive f with fA strictly inside eA, met earlier, while eA for a
    primitive e holds no idempotent but 0 and e.  That is one bit test per
    (idempotent, kept idempotent) pair, on the cached principal masks.
    """
    nonzero = [e for e in idempotents(a) if e != a.zero]
    if len(nonzero) <= 1:
        prim = nonzero      # a local ring, the zero ring, or tables that are no ring
    else:
        from .finideal import _principal_masks

        principal = _principal_masks(a)
        prim = []
        for e in sorted(nonzero, key=lambda e: principal[e].bit_count()):
            if not any(principal[e] >> f & 1 for f in prim):
                prim.append(e)
        prim.sort()
    products = a.mul[np.ix_(prim, prim)]
    if (products[~np.eye(len(prim), dtype=bool)] != a.zero).any():
        raise ArithmeticError("primitive idempotents not orthogonal")
    acc = a.zero
    for e in prim:
        acc = a.add_el(acc, e)
    if acc != a.one:
        raise ArithmeticError("primitive idempotents do not sum to 1")
    return prim


def decompose_local(a: FinRing) -> list[FinRing]:
    """Split a into its local factors eA along the primitive idempotents.

    The zero ring decomposes into an empty product, and a local ring into
    itself.  Factors come back sorted by their idempotent's element index.
    """
    prim = _primitive_idempotents(a)
    if prim == [a.one]:
        return [a]      # a is local: its one factor is a itself
    return [_image_ring(a, a.mul[e], f"{a.label}|e={e}") for e in prim]


class SpecialPrimaryVerdict(_Value):
    def __init__(self, is_special_primary: bool,
                 maximal_ideal: object | None,      # FinIdeal when the ring is local
                 nilpotency_index: int | None):     # least t with M^t = 0
        self.is_special_primary = is_special_primary
        self.maximal_ideal = maximal_ideal
        self.nilpotency_index = nilpotency_index


def _special_primary(a: FinRing, e: int) -> SpecialPrimaryVerdict:
    """The special-primary verdict of the factor ring eA, for an idempotent
    e of a, read off a's own tables without building eA.

    An element x of eA is a unit of eA exactly when xA = eA, so the
    non-units M of eA are the members whose principal mask is not eA's.
    When eA is local, M is an ideal of a too (with a's zero), and the
    verdict carries it as one; M^t and the nilpotency index are the same
    in a as in eA.  A principal M = mA is an ideal, so eA is local; only a
    non-principal M needs the check that it is closed under addition.
    """
    from .finideal import FinIdeal, _principal_masks, ideal_product

    principal = _principal_masks(a)
    whole = principal[e]
    members = np.flatnonzero(_bits(whole, a.order))
    nonunits = members[np.array([principal[x] != whole for x in members.tolist()], dtype=bool)]
    if nonunits.size == 0:
        return SpecialPrimaryVerdict(False, None, None)    # eA is the zero ring
    mask = mask_of(nonunits)
    gen = next((x for x in nonunits.tolist() if principal[x] == mask), None)
    if gen is not None:
        # M = mA, so M^t = (m^t)A is zero exactly when m^t is
        x, t = gen, 1
        while x != a.zero:
            x = int(a.mul[x, gen])
            t += 1
            if t > a.order:
                raise ArithmeticError("maximal ideal of a finite local ring failed to nilpotate")
        return SpecialPrimaryVerdict(True, FinIdeal._unchecked(a, mask, gens=(gen,)), t)
    if not _bits(mask, a.order)[a.add[np.ix_(nonunits, nonunits)]].all():
        return SpecialPrimaryVerdict(False, None, None)    # eA is not local
    m = FinIdeal._unchecked(a, mask)
    cur, t = m, 1
    while cur.mask != 1 << a.zero:
        cur = ideal_product(cur, m)
        t += 1
        if t > a.order:
            raise ArithmeticError("maximal ideal of a finite local ring failed to nilpotate")
    return SpecialPrimaryVerdict(False, m, t)


def is_special_primary(a: FinRing) -> SpecialPrimaryVerdict:
    """Decide whether every proper ideal of a is a power of a unique maximal ideal.

    a is local exactly when its non-units M are closed under addition, and
    a finite local ring is special primary exactly when M is principal
    (Atiyah-Macdonald, Prop. 8.8; Zariski-Samuel, Vol. I, Ch. IV, §15).
    No ideal lattice is enumerated.
    """
    return _special_primary(a, a.one)


def ring_to_dict(a: FinRing) -> dict:
    return {
        "label": a.label,
        "order": a.order,
        "zero": a.zero,
        "one": a.one,
        "add": a.add.tolist(),
        "mul": a.mul.tolist(),
    }


def _base_ring(spec, key, what, bounds):
    """The ring described under `key`, or Z/n for "zn": exactly one of the two."""
    if (key in spec) == ("zn" in spec):
        raise ValueError(f"{what} needs exactly one of {key!r} or 'zn'")
    return ring_from_dict(spec[key] if key in spec else {"zn": spec["zn"]}, bounds)


def _table(rows, order, what):
    """A JSON table: `order` rows of `order` integers in 0..order-1."""
    if not (isinstance(rows, list) and len(rows) == order
            and all(isinstance(r, list) and len(r) == order for r in rows)
            and all(type(x) is int and 0 <= x < order for r in rows for x in r)):
        raise ValueError(f"{what} table must hold {order} rows of {order} "
                         f"integers in 0..{order - 1}")
    return np.array(rows, dtype=np.int64).reshape(order, order)


_SHORTHANDS = ("zn", "poly_quotient", "product", "idealization")
_TABLE_KEYS = {"order", "zero", "one", "add", "mul"}


def ring_from_dict(obj, bounds: Bounds = DEFAULT_BOUNDS) -> FinRing:
    """Build a ring from its JSON form: full tables or a constructor shorthand.

    Every field is type-checked before it is used, and a key the form does
    not take is refused, each with a ValueError that names the field.
    """
    if not isinstance(obj, dict):
        raise ValueError("ring description must be a JSON object")
    kind = next((k for k in _SHORTHANDS if k in obj), None)
    if kind is None and _TABLE_KEYS <= obj.keys():
        _json_object(obj, "table ring description", _TABLE_KEYS | {"label"})
        order = _strict_int(obj["order"], "order")
        if order < 1:
            raise ValueError("ring order must be positive")
        _check_order(order, bounds, "ring order")
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ValueError("label must be a string")
        return FinRing(order, _table(obj["add"], order, "add"), _table(obj["mul"], order, "mul"),
                       _strict_int(obj["zero"], "zero"), _strict_int(obj["one"], "one"), label)
    if kind is None:
        raise ValueError(f"unrecognized ring description with keys {_shown(sorted(obj))}")
    spec = _json_object(obj, f"{kind} ring description", {kind})[kind]
    if kind == "zn":
        return make_zn(_strict_int(spec, "zn"), bounds)
    if kind == "poly_quotient":
        spec = _json_object(spec, "poly_quotient", {"base", "zn", "f"})
        base = _base_ring(spec, "base", "poly_quotient", bounds)
        if not isinstance(spec.get("f"), list):
            raise ValueError("poly_quotient f must be a JSON list")
        f = [_strict_int(c, "polynomial coefficient") for c in spec["f"]]
        return make_poly_quotient(base, f, bounds)
    if kind == "product":
        if not isinstance(spec, list):
            raise ValueError("product must be a JSON list")
        if not spec:
            raise ValueError("product of zero rings is not supported")
        out = ring_from_dict(spec[0], bounds)
        for part in spec[1:]:
            out = make_product(out, ring_from_dict(part, bounds), bounds)
        return out
    spec = _json_object(spec, "idealization", {"zn", "ring", "module", "module_rank"})
    ring = _base_ring(spec, "ring", "idealization", bounds)
    if "module" in spec and "module_rank" in spec:
        raise ValueError("idealization takes at most one of 'module' or 'module_rank'")
    module = {"rank": spec["module_rank"]} if "module_rank" in spec else spec.get("module", "self")
    if module == "self":
        return make_idealization(ring, module_from_ring(ring), bounds)
    rank = _json_object(module, "module (other than 'self')", {"rank"}).get("rank")
    return make_idealization(ring, free_module(ring, _strict_int(rank, "module rank"), bounds),
                             bounds)
