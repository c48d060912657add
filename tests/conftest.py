import os
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from radfact import cli
from radfact import finring as fr
from radfact import quadring as q
from radfact.errors import DEFAULT_BOUNDS, exceeded
from radfact.finideal import all_ideals, ideal_product
from radfact.polychain import RatPoly, format_poly

SEED = int(os.environ.get("RADFACT_SEED", "20260811"))

SUPPORTED_D = (-1, -2, -5, -7, 2, 3, 5)

# phrasings of Python and numpy internals that must not reach a CLI diagnostic
INTERNAL_PHRASES = ("object is not iterable", "dictionary update sequence",
                    "inhomogeneous", "'f'", "NoneType", "Traceback", "allow_unit",
                    "set_int_max_str_digits")


zn_specs = st.integers(1, 40).map(lambda n: {"zn": n})
poly_specs = st.tuples(st.sampled_from([2, 3, 4]), st.lists(st.integers(0, 3), min_size=1,
                                                            max_size=3)).map(
    lambda t: {"poly_quotient": {"zn": t[0], "f": t[1] + [1]}})
idealization_specs = st.tuples(st.integers(1, 6), st.integers(0, 2)).map(
    lambda t: {"idealization": {"zn": t[0], "module_rank": t[1]}})
part_specs = st.one_of(zn_specs, poly_specs, idealization_specs)
ring_specs = st.one_of(part_specs, st.lists(part_specs, min_size=2, max_size=3).map(
    lambda parts: {"product": parts}))


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def catalog_rings():
    """The rings of the default census catalog, built once per session."""
    return [fr.ring_from_dict(spec) for spec in cli.default_catalog_specs()]


def reference_special_primary(a, bounds=DEFAULT_BOUNDS):
    """Oracle: the special-primary verdict read off the full ideal lattice.

    The ring must have exactly one maximal ideal M, and the proper ideals
    must be exactly the powers of M.  Independent of the principal-ideal
    criterion in `finring.is_special_primary` and of the radical closure.
    """
    maximal = reference_maximal_ideals(a, bounds)
    if len(maximal) != 1:
        return fr.SpecialPrimaryVerdict(False, None, None)
    m = maximal[0]
    zero_mask = 1 << a.zero
    power_masks = {m.mask}
    cur, t = m, 1
    while cur.mask != zero_mask:
        cur = ideal_product(cur, m)
        power_masks.add(cur.mask)
        t += 1
        if t > a.order:
            raise ArithmeticError("maximal ideal of a finite local ring failed to nilpotate")
    ok = {i.mask for i in all_ideals(a, bounds) if i.mask != a.whole_mask} == power_masks
    return fr.SpecialPrimaryVerdict(ok, m, t)


def reference_maximal_ideals(a, bounds=DEFAULT_BOUNDS):
    """Oracle: the proper ideals of the full lattice that no other proper ideal
    contains.  Independent of the local factors that `finideal.prime_spectrum`
    reads; it compares ideal pairs, so it suits small rings only."""
    proper = [i for i in all_ideals(a, bounds) if not i.is_whole]
    return [i for i in proper
            if not any(j.mask != i.mask and j.contains(i) for j in proper)]


def reference_is_prime(i):
    """Oracle: primality by exhaustive pair scan over the complement: I is
    proper and no product of two non-members lies in I.  Independent of the
    local factors that `finideal.prime_spectrum` reads."""
    if i.is_whole:
        return False
    a = i.ring
    member = fr._bits(i.mask, a.order)
    comp = np.flatnonzero(~member)
    return not member[a.mul[np.ix_(comp, comp)]].any()


def reference_primitive_idempotents(a):
    """Oracle: the primitive idempotents by a pairwise scan: a nonzero
    idempotent e is primitive when the only idempotents f with ef = f are 0
    and e.  |E|^2 products for a ring with |E| idempotents."""
    idems = fr.idempotents(a)
    return [e for e in idems if e != a.zero
            and all(f in (a.zero, e) for f in idems if a.mul_el(e, f) == f)]


def relabelled(ring, perm):
    """`ring` with element x renamed perm[x], built by the verifying constructor."""
    perm = np.asarray(perm)
    back = np.argsort(perm)
    sub = np.ix_(back, back)
    return fr.FinRing(ring.order, perm[ring.add[sub]], perm[ring.mul[sub]],
                      int(perm[ring.zero]), int(perm[ring.one]), f"{ring.label}'")


def reference_poly_quotient(base, f):
    """Oracle: Z/n[x]/(f) filled one row at a time, each row an explicit
    convolution of coefficient vectors reduced through the residues of x^j
    mod f; built by the verifying constructor."""
    n, d = base.order, len(f) - 1
    order = n ** d
    f = [int(c) % n for c in f]
    # residues of x^j mod f for j < 2d-1, as coefficient rows
    width = max(2 * d - 1, d)
    red = np.zeros((width, d), dtype=np.int64)
    red[:d] = np.eye(d, dtype=np.int64)
    top = np.array([(-c) % n for c in f[:d]], dtype=np.int64)
    for j in range(d, width):
        prev = red[j - 1]
        shifted = np.concatenate(([0], prev[:-1]))
        red[j] = (shifted + prev[d - 1] * top) % n
    pw = n ** np.arange(d, dtype=np.int64)
    ee = np.arange(order, dtype=np.int64)
    digits = (ee[:, None] // pw[None, :]) % n          # (order, d)
    add = np.empty((order, order), dtype=np.int32)
    mul = np.empty_like(add)
    for a in range(order):
        arow = digits[a]
        add[a] = ((arow[None, :] + digits) % n) @ pw
        conv = np.zeros((order, width), dtype=np.int64)
        for i in range(d):
            if arow[i]:
                conv[:, i:i + d] += arow[i] * digits
        res = (conv % n) @ red % n
        mul[a] = res @ pw
    return fr.FinRing(order, add, mul, 0, 1 % order, f"Z{n}[x]/({format_poly(RatPoly(f))})")


def reference_free_module(ring, rank):
    """Oracle: ring^rank filled one element at a time from explicit digit
    vectors (digit i of weight n^i); built by the verifying constructor."""
    n = ring.order
    size = n ** rank
    width = rank if n > 1 else 0    # over the zero ring every free module is zero
    pw = n ** np.arange(width, dtype=np.int64)
    ee = np.arange(size, dtype=np.int64)
    digits = (ee[:, None] // pw[None, :]) % n
    add = np.zeros((size, size), dtype=np.int64)
    for x in range(size):
        add[x] = ring.add[digits[x][None, :], digits].astype(np.int64) @ pw
    action = np.zeros((n, size), dtype=np.int64)
    for r in range(n):
        action[r] = ring.mul[r][digits] @ pw
    # the zero vector has every digit ring.zero, which need not be index 0
    zero = int(ring.zero * pw.sum())
    return fr.FinModule(ring, size, add, zero, action, f"{ring.label}^{rank}")


def reference_is_module(ring, size, add, zero, action):
    """Oracle: whether the tables make an R-module of `size` elements, with
    every axiom checked on every element: the group axioms on all triples,
    and the action axioms for every ring element r, one r at a time.
    Independent of the generator certificate in `finring._verify_module_tables`."""
    add, action, idx = np.asarray(add), np.asarray(action), np.arange(size)
    if add.shape != (size, size) or action.shape != (ring.order, size) or not 0 <= zero < size:
        return False
    if min(add.min(), action.min()) < 0 or max(add.max(), action.max()) >= size:
        return False
    if not (np.array_equal(add, add.T) and np.array_equal(add[zero], idx)
            and (add == zero).any(axis=1).all()
            and np.array_equal(add[add], add[:, add])        # (a+b)+c == a+(b+c)
            and np.array_equal(action[ring.one], idx)):
        return False
    for r in range(ring.order):
        row = action[r]
        if not (np.array_equal(row[add], add[np.ix_(row, row)])
                and np.array_equal(action[ring.add[r]], add[row[None, :], action])
                and np.array_equal(action[ring.mul[r]], row[action])):
            return False
    return True


def reference_join_closure(cyclic, add, bounds=DEFAULT_BOUNDS):
    """Oracle: `finideal._join_closure` one (known sum, cyclic subgroup) pair
    at a time, each sum gathered and packed on its own through `mask_of`.

    The closure must give the same masks.  Its insertion order and generator
    tuples may differ: each of its tuples need only generate its mask.
    """
    limit = bounds.ideals
    cyclic = [(m, g, np.array(fr.elements_of(m), dtype=np.intp)) for m, g in cyclic]
    known = {m: (els, (g,)) for m, g, els in cyclic}
    if len(known) > limit:
        exceeded("max-ideals", limit, len(known), "lattice size")
    queue = list(known)
    while queue:
        mask = queue.pop()
        els, gens = known[mask]
        rows = els[:, None]
        for cmask, g, cels in cyclic:
            if cmask & ~mask == 0:
                continue
            jmask = fr.mask_of(add[rows, cels])
            if jmask not in known:
                known[jmask] = (np.array(fr.elements_of(jmask), dtype=np.intp), gens + (g,))
                queue.append(jmask)
                if len(known) > limit:
                    exceeded("max-ideals", limit, len(known), "lattice size")
    return {m: gens for m, (_, gens) in known.items()}


def random_quad_ideal(rng, ring, max_norm=10 ** 6):
    """A random nonzero proper ideal with norm at most max_norm."""
    while True:
        kind = rng.randrange(3)
        try:
            if kind == 0:
                g = (rng.randint(-300, 300), rng.randint(-300, 300))
                if g == (0, 0):
                    continue
                ideal = q.principal_ideal(ring, g)
            elif kind == 1:
                m = rng.randint(2, 400)
                g = (rng.randint(-20, 20), rng.randint(-20, 20))
                ideal = q.ideal_from_gens(ring, [(m, 0), g])
            else:
                ideal = q.whole_ring_ideal(ring)
                for _ in range(rng.randint(1, 3)):
                    p = rng.choice([2, 3, 5, 7, 11, 13])
                    primes = q.primes_above(ring, p)
                    prime, _ = primes[rng.randrange(len(primes))]
                    for _ in range(rng.randint(1, 3)):
                        if ideal.norm * prime.norm > max_norm:
                            break
                        ideal = ideal * prime
        except ValueError:
            continue
        if not ideal.is_whole and ideal.norm <= max_norm:
            return ideal


def reference_exponent(ideal, prime):
    """Oracle: greatest k with ideal ⊆ prime^k, by containment iteration."""
    n = ideal.norm
    e = 0
    power = prime
    while power.norm <= n:
        if not power.contains(ideal):
            break
        e += 1
        power = power * prime
    return e


def reference_factorization(ideal, bounds=DEFAULT_BOUNDS):
    """Oracle: (prime HNF, exponent) pairs with exponents by containment iteration."""
    out = []
    for p in sorted(q.factor_int(ideal.norm, bounds)):
        for prime, _ in q.primes_above(ideal.ring, p):
            e = reference_exponent(ideal, prime)
            if e:
                out.append((prime.hnf, e))
    return out


def primes_containing(i, bounds=DEFAULT_BOUNDS):
    """Oracle: V(I) by direct containment scan over the primes above norm divisors.

    Deliberately avoids the exponent bookkeeping of `vn`, so it can serve
    as an independent route when cross-checking V(J_k) = V_k(I).
    """
    out = []
    if isinstance(i, q.IntIdeal):
        for p in sorted(q.factor_int(i.n, bounds)):
            cand = q.IntIdeal(p)
            if cand.contains(i):
                out.append(cand)
        return out
    for p in sorted(q.factor_int(i.norm, bounds)):
        for prime, _ in q.primes_above(i.ring, p):
            if prime.contains(i):
                out.append(prime)
    return out


def random_radical_quad_ideal(rng, ring, max_norm=10 ** 6):
    """A random proper radical ideal: a product of distinct primes."""
    while True:
        ideal = q.whole_ring_ideal(ring)
        seen = set()
        for p in rng.sample([2, 3, 5, 7, 11, 13, 17, 19], rng.randint(1, 3)):
            primes = q.primes_above(ring, p)
            prime, _ = primes[rng.randrange(len(primes))]
            if prime.hnf in seen or ideal.norm * prime.norm > max_norm:
                continue
            seen.add(prime.hnf)
            ideal = ideal * prime
        if not ideal.is_whole:
            return ideal


def random_zpi_ideal(rng):
    """A random non-unit ideal of a random mixed ZPI ring."""
    from radfact import zpicompose as z

    comps = [z.SprComponent(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    ded_rings = [q.QuadRing(-1), q.QuadRing(-5), q.QuadRing(5), q.IntRing()]
    comps += [z.DedComponent(rng.choice(ded_rings)) for _ in range(rng.randint(1, 2))]
    rng.shuffle(comps)
    ring = z.ZpiRing(tuple(comps))
    while True:
        entries = []
        for comp in ring.components:
            if isinstance(comp, z.SprComponent):
                entries.append(rng.randint(0, comp.t))
            elif isinstance(comp.ring, q.IntRing):
                entries.append(q.IntIdeal(rng.randint(1, 4000)))
            elif rng.random() < 0.2:
                entries.append(q.whole_ring_ideal(comp.ring))
            else:
                entries.append(random_quad_ideal(rng, comp.ring, 10 ** 4))
        ideal = z.ZpiIdeal(ring, tuple(entries))
        if not ideal.is_unit:
            return ideal
