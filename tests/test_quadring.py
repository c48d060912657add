import contextlib
import random
from itertools import groupby
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (SUPPORTED_D, random_quad_ideal, random_radical_quad_ideal,
                      reference_factorization, reference_product, reference_radical_over)
from radfact import quadring as q
from radfact.errors import Bounds, ResourceLimitError


def test_ring_validation():
    for bad in (0, 1, 4, 12, -4, 18):
        with pytest.raises(ValueError):
            q.QuadRing(bad)
    assert q.QuadRing(-1).min_poly == (1, 0)         # x^2 + 1
    assert q.QuadRing(5).min_poly == (-1, -1)        # x^2 - x - 1
    assert q.QuadRing(-7).min_poly == (2, -1)        # x^2 - x + 2
    assert not q.QuadRing(-5).omega_is_half
    assert q.QuadRing(-7).omega_is_half
    with pytest.raises(ResourceLimitError):
        q.QuadRing(10 ** 12 + 39)
    assert (q.QuadRing(10 ** 12 + 39, Bounds(norm=10 ** 13))
            == q.QuadRing(10 ** 12 + 39, Bounds(norm=10 ** 14)))


def test_int_ring_is_one_value():
    assert repr(q.IntRing()) == "IntRing()" and q.IntRing().label == "Z"
    assert q.IntRing() == q.INT_RING and hash(q.IntRing()) == hash(q.INT_RING)
    assert q.IntRing() != q.QuadRing(-1) and q.QuadRing(-1) != q.IntRing()


def test_element_arithmetic():
    zi = q.QuadRing(-1)
    assert zi.mul_elements((2, 1), (2, -1)) == (5, 0)
    assert zi.elem_norm((3, 4)) == 25
    golden = q.QuadRing(5)
    # w^2 = w + 1 for the golden ratio order
    assert golden.mul_elements((0, 1), (0, 1)) == (1, 1)
    assert golden.elem_norm((1, 1)) == 1             # 1 + w is a unit


def test_ideal_from_gens_examples():
    zi = q.QuadRing(-1)
    whole = q.ideal_from_gens(zi, [(1, 0)])
    assert whole.hnf == (1, 0, 1) and whole.is_whole
    p2 = q.ideal_from_gens(zi, [(2, 0), (1, 1)])
    assert p2.norm == 2
    z5 = q.QuadRing(-5)
    assert q.ideal_from_gens(z5, [(6, 0)]).norm == 36
    with pytest.raises(ValueError):
        q.ideal_from_gens(zi, [(0, 0)])


@pytest.mark.parametrize("gen, shown", [
    ((2, 0, 5), "(2, 0, 5)"), ((2,), "(2,)"), ([], "[]"), (7, "7"),
    ((1,) * 100, "(" + "1, " * 19 + "1,... (300 chars)"),
])
def test_ideal_from_gens_refuses_a_generator_that_is_not_a_pair(gen, shown):
    with pytest.raises(ValueError) as info:
        q.ideal_from_gens(q.QuadRing(-1), [(1, 1), gen])
    assert str(info.value) == f"a generator must be an (x, y) pair, got {shown}"


@pytest.mark.parametrize("op", [lambda i, j: i * j, lambda i, j: i.contains(j)],
                         ids=["mul", "contains"])
@pytest.mark.parametrize("int_first", [True, False], ids=["int-quad", "quad-int"])
def test_int_and_quadratic_ideals_do_not_mix(op, int_first):
    i, j = q.IntIdeal(2), q.principal_ideal(q.QuadRing(-1), (2, 0))
    with pytest.raises(ValueError, match="^ideals of different rings$"):
        op(*((i, j) if int_first else (j, i)))


def test_hnf_invariants_rejected():
    zi = q.QuadRing(-1)
    with pytest.raises(ValueError):
        q.QuadIdeal(zi, 4, 1, 2)       # c does not divide b
    with pytest.raises(ValueError):
        q.QuadIdeal(zi, 3, 1, 1)       # not closed under multiplication by w
    with pytest.raises(ValueError):
        q.QuadIdeal(zi, -2, 0, 2)


@pytest.mark.parametrize("d", [-1, -5, 2, 5])
def test_an_hnf_not_closed_under_w_is_still_refused(d):
    ring = q.QuadRing(d)
    refused = 0
    for a in range(1, 13):
        for c in (c for c in range(1, a + 1) if a % c == 0):
            for b in range(0, a, c):
                w_rows = [ring.mul_elements(row, (0, 1)) for row in ((a, 0), (b, c))]
                if all(q._member(a, b, c, row) for row in w_rows):
                    assert q.QuadIdeal(ring, a, b, c).hnf == (a, b, c)
                else:
                    refused += 1
                    with pytest.raises(ValueError, match="not closed under multiplication by w"):
                        q.QuadIdeal(ring, a, b, c)
    assert refused > 0


@pytest.mark.parametrize("d", [-1, -5, 2, 3, 5])
def test_ideals_the_library_builds_pass_the_public_check(d):
    ring = q.QuadRing(d)
    primes = [prime for p in (2, 3, 5, 7) for prime, _ in q.primes_above(ring, p)]
    built = [q.whole_ring_ideal(ring), primes[0].unit()] + primes
    built += [i * j for i in primes for j in primes]
    built += [q.ideal_sum(i * i, j) for i in primes for j in primes]
    for ideal in built:
        assert q.QuadIdeal(ring, *ideal.hnf) == ideal


def test_ramified_square():
    z5 = q.QuadRing(-5)
    p2 = q.ideal_from_gens(z5, [(2, 0), (1, 1)])
    assert (p2 * p2) == q.principal_ideal(z5, (2, 0))


def test_norm_multiplicativity_random(rng):
    for d in SUPPORTED_D:
        ring = q.QuadRing(d)
        for _ in range(40):
            i = random_quad_ideal(rng, ring, 10 ** 4)
            j = random_quad_ideal(rng, ring, 10 ** 4)
            assert (i * j).norm == i.norm * j.norm


# k*(m, x + y*w): content k, small m so that two draws often share a prime, and
# (1, 0) for the unit ideal; or k times a prime above 2, 3, 5 or 7
drawn_ideals = st.one_of(
    st.tuples(st.just("gens"), st.integers(1, 12), st.integers(1, 60),
              st.integers(-20, 20), st.integers(-20, 20)),
    st.tuples(st.just("prime"), st.integers(1, 12), st.sampled_from((2, 3, 5, 7)),
              st.integers(0, 1)))


def drawn_ideal(ring, drawn):
    """The ideal a `drawn_ideals` tuple names, built without any ideal product."""
    kind, k, *rest = drawn
    if kind == "gens":
        m, x, y = rest
        gens = [(m, 0), (x, y)]
    else:
        p, which = rest
        above = q.primes_above(ring, p)
        gens = above[which % len(above)][0].basis()
    return q.ideal_from_gens(ring, [(k * x, k * y) for x, y in gens])


@pytest.mark.parametrize("d", SUPPORTED_D)
@given(i=drawn_ideals, j=drawn_ideals)
@example(i=("gens", 1, 1, 0, 0), j=("prime", 3, 2, 0))
@example(i=("prime", 1, 2, 0), j=("prime", 1, 2, 0))
@example(i=("prime", 4, 3, 1), j=("prime", 6, 3, 0))
@example(i=("gens", 6, 36, 5, 1), j=("gens", 10, 60, 3, -2))
def test_product_in_closed_form_matches_the_four_row_hnf(d, i, j):
    ring = q.QuadRing(d)
    i, j = drawn_ideal(ring, i), drawn_ideal(ring, j)
    ij = i * j
    assert ij == reference_product(i, j)
    assert ij == j * i
    assert ij.norm == i.norm * j.norm


@pytest.mark.parametrize("d", [-5, -1, 5])
@given(pick=st.lists(st.integers(0, 2), min_size=1, max_size=8))
@example(pick=[0, 1, 0, 0, 1])
@example(pick=[2, 2, 2, 0, 2, 2])
def test_chain_product_by_runs_is_the_left_to_right_product(d, pick):
    ring = q.QuadRing(d)
    pool = [q.primes_above(ring, 2)[0][0], q.primes_above(ring, 3)[-1][0],
            q.principal_ideal(ring, (6, 1))]
    links = tuple(pool[k] for k in pick)
    assert q.RadicalChain(links).product() == prod(links[1:], start=links[0])


def test_contains_and_sum():
    z5 = q.QuadRing(-5)
    i6 = q.principal_ideal(z5, (6, 0))
    p2 = q.ideal_from_gens(z5, [(2, 0), (1, 1)])
    assert p2.contains(i6)
    assert not i6.contains(p2)
    s = q.ideal_sum(i6, q.principal_ideal(z5, (2, 0)))
    assert s == q.principal_ideal(z5, (2, 0))


def test_primes_above_split_inert_ramified():
    zi = q.QuadRing(-1)
    above5 = q.primes_above(zi, 5)
    assert [(p.hnf, e) for p, e in above5] == [((5, 2, 1), 1), ((5, 3, 1), 1)]
    above2 = q.primes_above(zi, 2)
    assert [(p.hnf, e) for p, e in above2] == [((2, 1, 1), 2)]
    z5 = q.QuadRing(-5)
    above11 = q.primes_above(z5, 11)
    assert [(p.hnf, e) for p, e in above11] == [((11, 0, 11), 1)]
    assert above11[0][0].norm == 121
    with pytest.raises(ValueError):
        q.primes_above(zi, 6)
    with pytest.raises(ValueError):
        q.primes_above(zi, 1)


def test_splitting_soundness_small():
    for d in SUPPORTED_D:
        ring = q.QuadRing(d)
        for p in (2, 3, 5, 7, 11, 13, 97):
            prod = q.whole_ring_ideal(ring)
            for prime, e in q.primes_above(ring, p):
                for _ in range(e):
                    prod = prod * prime
            assert prod == q.principal_ideal(ring, (p, 0)), (d, p)


def test_factor_ideal_examples():
    zi = q.QuadRing(-1)
    f12 = q.principal_ideal(zi, (12, 0)).factorization()
    assert [(p.hnf, e) for p, e in f12] == [((2, 1, 1), 4), ((3, 0, 3), 1)]
    z5 = q.QuadRing(-5)
    f6 = q.principal_ideal(z5, (6, 0)).factorization()
    assert [(p.norm, e) for p, e in f6] == [(2, 2), (3, 1), (3, 1)]
    # re-assembly oracle: multiply the factorization back together
    prod = q.whole_ring_ideal(z5)
    for p, e in f6:
        for _ in range(e):
            prod = prod * p
    assert prod == q.principal_ideal(z5, (6, 0))
    assert len(q.whole_ring_ideal(zi).factorization()) == 0


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
BIG = Bounds(norm=10 ** 60)

# (index into SMALL_PRIMES, which prime above it, exponent); exponents of
# the primes above 2 go up to 20, the others up to 4
prime_powers = st.lists(
    st.integers(0, len(SMALL_PRIMES) - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.integers(0, 1), st.integers(0, 20 if i == 0 else 4))),
    max_size=4)


@pytest.mark.parametrize("d", SUPPORTED_D)
@given(content=st.integers(1, 60), parts=prime_powers,
       gen=st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
@example(content=1, parts=[(0, 0, 20)], gen=(1, 0))
@example(content=1, parts=[(0, 1, 20)], gen=(1, 0))
@example(content=2 ** 5 * 3, parts=[(0, 0, 20), (1, 1, 3)], gen=(1, 0))
@example(content=210, parts=[(0, 0, 20), (1, 0, 3), (2, 1, 2), (3, 0, 2), (4, 1, 1),
                             (5, 0, 1)], gen=(3, 1))
def test_closed_form_matches_containment_iteration(d, content, parts, gen):
    """Valuations read off the HNF equal those found by containment iteration.

    The content covers c > 1, and across d the primes 2..13 are ramified,
    inert and split; the primes above 2 reach exponent 20.
    """
    ring = q.QuadRing(d)
    ideal = q.principal_ideal(ring, (content, 0))
    if gen != (0, 0):
        ideal = ideal * q.principal_ideal(ring, gen)
    for i, which, e in parts:
        above = q.primes_above(ring, SMALL_PRIMES[i])
        for _ in range(e):
            ideal = ideal * above[which % len(above)][0]
    pf = ideal.factorization(BIG)
    assert [(p.hnf, e) for p, e in pf] == reference_factorization(ideal, BIG)
    assert pf.rational_primes == tuple(sorted(q.factor_int(ideal.norm, BIG)))
    if not ideal.is_whole:
        assert all(q.verify_chain(q.sp_factor(ideal, bounds=BIG), ideal).values())


def test_factorization_rejects_unfactorable_norms():
    zi = q.QuadRing(-1)
    with pytest.raises(ResourceLimitError):
        q.principal_ideal(zi, (2, 0)).factorization(bounds=Bounds(norm=3))
    big = 1000003  # prime just over the trial-division bound
    with pytest.raises(ResourceLimitError):
        q.factor_int(big * (big + 30), Bounds(norm=10 ** 14))    # composite cofactor survives
    assert q.factor_int(big, Bounds(norm=10 ** 12)) == {big: 1}


def test_radical_and_vn():
    zi = q.QuadRing(-1)
    i12 = q.principal_ideal(zi, (12, 0))
    assert q.radical(i12).norm == 18
    assert [p.hnf for p in q.vn(i12, 4)] == [(2, 1, 1)]
    assert q.vn(i12, 5) == []
    p5, _ = q.primes_above(zi, 5)[0]
    assert q.radical(p5) == p5


def test_sp_factor_examples():
    z5 = q.QuadRing(-5)
    i6 = q.principal_ideal(z5, (6, 0))
    chain = q.sp_factor(i6)
    assert [l.norm for l in chain] == [18, 2]
    assert chain.product() == i6
    prime, _ = q.primes_above(z5, 11)[0]
    assert [l.hnf for l in q.sp_factor(prime)] == [prime.hnf]
    with pytest.raises(ValueError):
        q.sp_factor(q.whole_ring_ideal(z5))


def test_sp_factor_int_shortcut():
    assert [l.n for l in q.sp_factor(q.IntIdeal(12))] == [6, 2]
    assert [l.n for l in q.sp_factor(q.IntIdeal(7))] == [7]
    chain = q.sp_factor(q.IntIdeal(360))            # 2^3 3^2 5
    assert [l.n for l in chain] == [30, 6, 2]
    assert chain.product() == q.IntIdeal(360)


def test_normalize_factorization():
    out = q.normalize_factorization(q.INT_RING, [q.IntIdeal(2), q.IntIdeal(6)])
    assert [l.n for l in out] == [6, 2]
    chain = q.sp_factor(q.IntIdeal(360))
    again = q.normalize_factorization(q.INT_RING, list(chain.links))
    assert [l.n for l in again] == [l.n for l in chain]
    with pytest.raises(ValueError) as exc:
        q.normalize_factorization(q.INT_RING, [q.IntIdeal(6), q.IntIdeal(4)])
    assert "factor 1" in str(exc.value)
    with pytest.raises(ValueError):
        q.normalize_factorization(q.INT_RING, [q.IntIdeal(1)])
    with pytest.raises(ValueError):
        q.normalize_factorization(q.INT_RING, [])


def test_normalize_is_permutation_invariant(rng):
    ring = q.QuadRing(-5)
    for _ in range(25):
        factors = [random_radical_quad_ideal(rng, ring, 10 ** 3) for _ in range(3)]
        base = q.normalize_factorization(ring, factors)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            out = q.normalize_factorization(ring, [factors[k] for k in perm])
            assert [l.hnf for l in out] == [l.hnf for l in base]


def test_verify_chain_flags_problems():
    bad = q.RadicalChain((q.IntIdeal(2), q.IntIdeal(6)))
    checks = q.verify_chain(bad, q.IntIdeal(12))
    assert not checks["ascending"]
    good = q.sp_factor(q.IntIdeal(12))
    assert all(q.verify_chain(good, q.IntIdeal(12)).values())


def test_verify_chain_checks_links_over_the_recorded_primes():
    """A chain carrying its factorization has each link re-checked over those primes."""
    square = q.IntIdeal(4)
    assert not q.verify_chain(q.RadicalChain((square,), square.factorization()))["links_radical"]
    zi = q.QuadRing(-1)
    p2 = q.primes_above(zi, 2)[0][0]
    i = p2 * p2 * q.principal_ideal(zi, (3, 0))
    chain = q.sp_factor(i)
    assert [l.norm for l in chain] == [18, 2]
    assert all(q.verify_chain(chain, i).values())
    lumped = q.RadicalChain((p2 * p2, q.principal_ideal(zi, (3, 0))), chain.factorization)
    checks = q.verify_chain(lumped, i)
    assert not checks["links_radical"] and checks["product_matches"]
    # P2 is a prime, so radical, but it lies over the recorded 5 and does not divide P1
    (p1, _), (p2, _) = q.primes_above(zi, 5)
    stray = q.RadicalChain((p2,), p1.factorization())
    assert not q.verify_chain(stray, p1)["links_radical"]
    assert all(q.verify_chain(q.RadicalChain((p1,), p1.factorization()), p1).values())


def test_corollary5_sum_identity_small(rng):
    ring = q.QuadRing(-1)
    for _ in range(30):
        i = random_quad_ideal(rng, ring, 10 ** 4)
        j = random_quad_ideal(rng, ring, 10 ** 4)
        s = q.ideal_sum(i, j)
        if s.is_whole:
            continue
        for n in (1, 2, 3):
            lhs = {p.hnf for p in q.vn(s, n)}
            rhs = {p.hnf for p in q.vn(i, n)} & {p.hnf for p in q.vn(j, n)}
            assert lhs == rhs


def test_vn_nesting_and_vanishing(rng):
    for d in (-1, 5):
        ring = q.QuadRing(d)
        for _ in range(20):
            i = random_quad_ideal(rng, ring, 10 ** 4)
            pf = i.factorization()
            prev = None
            for n in range(1, pf.max_exponent + 2):
                cur = {p.hnf for p in q.vn(i, n)}
                if prev is not None:
                    assert cur <= prev
                prev = cur
            assert q.vn(i, pf.max_exponent + 1) == []


def test_chain_norms_multiply_to_ideal_norm(rng):
    ring = q.QuadRing(-5)
    for _ in range(25):
        i = random_quad_ideal(rng, ring, 10 ** 5)
        chain = q.sp_factor(i)
        prod = 1
        for link in chain:
            prod *= link.norm
        assert prod == i.norm


def test_int_ideal_basics():
    i = q.IntIdeal(12)
    assert i.norm == 12 and not i.is_whole
    assert q.IntIdeal(6).contains(i)
    assert not i.contains(q.IntIdeal(6))
    assert (q.IntIdeal(4) * q.IntIdeal(9)).n == 36
    with pytest.raises(ValueError):
        q.IntIdeal(0)
    pf = q.IntIdeal(360).factorization()
    assert [(p.n, e) for p, e in pf] == [(2, 3), (3, 2), (5, 1)]


def test_int_factorization_is_remultiplied(monkeypatch):
    valuation = q._valuation
    monkeypatch.setattr(q, "_valuation", lambda n, p: valuation(n, p) + 1)
    with pytest.raises(ArithmeticError, match="failed to re-multiply"):
        q.IntIdeal(12).factorization()


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from(SUPPORTED_D))
def test_radical_from_the_factorization_matches_the_recheck_route_quad(seed, d):
    ideal = random_quad_ideal(random.Random(seed), q.QuadRing(d))
    pf = ideal.factorization()
    assert q.radical(ideal) == reference_radical_over(ideal, pf.rational_primes)


@given(n=st.integers(2, 10 ** 9))
def test_radical_from_the_factorization_matches_the_recheck_route_int(n):
    ideal = q.IntIdeal(n)
    pf = ideal.factorization()
    assert q.radical(ideal) == reference_radical_over(ideal, pf.rational_primes)


# --- chain assembly counts: products and splittings per routine -----------------
# beside the runtime budgets in test_acceptance.py, never in place of them

@contextlib.contextmanager
def counted():
    """Live counts of `QuadIdeal.__mul__` and `primes_above` calls."""
    counts = {"products": 0, "splittings": 0}
    mul, above = q.QuadIdeal.__mul__, q.primes_above

    def counted_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    def counted_above(ring, p):
        counts["splittings"] += 1
        return above(ring, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(q.QuadIdeal, "__mul__", counted_mul)
        mp.setattr(q, "primes_above", counted_above)
        yield counts


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from(SUPPORTED_D))
def test_chain_assembly_counts(seed, d):
    ideal = random_quad_ideal(random.Random(seed), q.QuadRing(d))
    with counted() as n:
        pf = ideal.factorization()
    # each prime power by squaring, then one product per prime into the unit ideal
    assert n["products"] <= sum(2 * e.bit_length() for _, e in pf)
    assert n["splittings"] == len(pf.rational_primes)
    factorization_products = n["products"]
    with counted() as n:
        chain = q.sp_factor(ideal)
    # one product per prime factor for the links; the re-multiplication raises
    # each run of m equal links to its length by squaring, then joins the runs
    runs = [sum(1 for _ in run) for _, run in groupby(chain.links)]
    remultiply = sum(m.bit_length() + bin(m).count("1") - 2 for m in runs) + len(runs) - 1
    assert n["products"] == factorization_products + len(pf) + remultiply
    # each link's radical is read off the recorded primes: nothing is split again
    with counted() as n:
        assert all(q.verify_chain(chain, ideal).values())
    assert n["splittings"] == 0


def test_chain_assembly_counts_on_a_high_power():
    # (2^18 * 3) in Z[sqrt(-5)]: P^36 for the ramified 2, times both primes above 3
    ideal = q.principal_ideal(q.QuadRing(-5), (2 ** 18 * 3, 0))
    with counted() as n:
        chain = q.sp_factor(ideal)
    assert len(chain) == 36 and n["products"] <= 20
    with counted() as n:
        assert all(q.verify_chain(chain, ideal).values())
    assert n["splittings"] == 0


@pytest.mark.parametrize("d, p, kind", [
    (-1, 5, "split"), (-1, 3, "inert"), (-1, 2, "ramified"),
    (5, 11, "split"), (5, 2, "inert"), (5, 5, "ramified"),
    (-7, 2, "split"), (-5, 7, "split"), (-5, 5, "ramified"),
])
@given(e=st.integers(1, 64))
def test_prime_power_by_squaring_is_the_repeated_product(d, p, kind, e):
    above = q.primes_above(q.QuadRing(d), p)
    assert kind == ("ramified" if above[0][1] == 2 else "split" if len(above) == 2 else "inert")
    for prime, _ in above:
        assert q._power(prime, e) == prod([prime] * e, start=prime.unit())
    assert q._power(q.IntIdeal(p), e) == q.IntIdeal(p ** e)


def test_quadratic_routes_refuse_bad_arguments():
    with pytest.raises(ValueError, match="^can only factor positive integers$"):
        q.factor_int(0)
    gi, g5 = q.QuadRing(-1), q.QuadRing(-5)
    i = q.principal_ideal(gi, (2, 0))
    with pytest.raises(ValueError, match="^ideals of different rings$"):
        q.ideal_sum(i, q.principal_ideal(g5, (2, 0)))
    with pytest.raises(ValueError, match="^empty chain has no well-defined product here$"):
        q.RadicalChain(()).product()
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        q.vn(i, 0)
    other, _ = q.primes_above(g5, 2)[0]
    with pytest.raises(ValueError, match="^factor 0 belongs to a different ring$"):
        q.normalize_factorization(gi, [other])
