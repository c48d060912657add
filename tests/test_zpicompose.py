import random

import pytest

from conftest import SEED, random_zpi_ideal, reference_radical_chain
from radfact import quadring as q
from radfact import zpicompose as z


def mixed_ring():
    return z.ZpiRing((z.SprComponent(3), z.DedComponent(q.IntRing())))


def test_component_validation():
    with pytest.raises(ValueError):
        z.SprComponent(0)
    with pytest.raises(ValueError):
        z.ZpiRing(())
    with pytest.raises(ValueError):
        z.DedComponent("Z")


def test_entry_canonicalization():
    ring = z.ZpiRing((z.SprComponent(2),))
    assert z.ZpiIdeal(ring, (5,)).entries == (2,)
    with pytest.raises(ValueError):
        z.ZpiIdeal(ring, (-1,))
    with pytest.raises(ValueError):
        z.ZpiIdeal(ring, (0, 0))


def test_product_caps_at_nilpotency():
    ring = z.ZpiRing((z.SprComponent(3),))
    m2 = z.ZpiIdeal(ring, (2,))
    assert z.zpi_product(m2, m2).entries == (3,)


def test_unit_is_identity():
    ring = mixed_ring()
    i = z.ZpiIdeal(ring, (2, q.IntIdeal(12)))
    assert z.zpi_product(i, ring.unit_ideal()) == i


def test_mixed_componentwise_product():
    ring = z.ZpiRing((z.SprComponent(3), z.DedComponent(q.QuadRing(-5))))
    i6 = q.principal_ideal(q.QuadRing(-5), (6, 0))
    a = z.ZpiIdeal(ring, (1, i6))
    b = z.ZpiIdeal(ring, (1, q.whole_ring_ideal(q.QuadRing(-5))))
    prod = z.zpi_product(a, b)
    assert prod.entries[0] == 2
    assert prod.entries[1] == i6


def test_equal_values_hash_equal_whatever_built_them():
    # the hash reads the fields in their stored order, which every constructor keeps
    r5 = q.QuadRing(-5)
    p2 = q.primes_above(r5, 2)[0][0]
    zpi = mixed_ring()
    pairs = [
        (q.QuadIdeal(q.QuadRing(-5), 2, 0, 2), p2 * p2),
        (q.QuadIdeal(r5, 2, 1, 1), p2),
        (q.QuadIdeal(r5, 1, 0, 1), q.whole_ring_ideal(r5)),
        (q.QuadIdeal(r5, 6, 0, 6), q.ideal_from_gens(r5, [(6, 0)])),
        (q.IntIdeal(6), q.IntIdeal(2) * q.IntIdeal(3)),
        (z.ZpiIdeal(zpi, (3, q.IntIdeal(6))),
         z.zpi_product(z.ZpiIdeal(zpi, (1, q.IntIdeal(2))), z.ZpiIdeal(zpi, (2, q.IntIdeal(3))))),
    ]
    for built, derived in pairs:
        assert built == derived and hash(built) == hash(derived), built
        assert len({built, derived}) == 1, built


def test_radical_chain_spr_only():
    ring = z.ZpiRing((z.SprComponent(3),))
    chain = z.radical_chain(z.ZpiIdeal(ring, (2,)))
    assert [l.entries for l in chain.links] == [(1,), (1,)]
    assert not chain.canonical_extension
    zero_chain = z.radical_chain(z.ZpiIdeal(ring, (3,)))
    assert [l.entries for l in zero_chain.links] == [(1,), (1,), (1,)]
    assert zero_chain.canonical_extension


def test_radical_chain_mixed_merge():
    ring = mixed_ring()
    ideal = z.ZpiIdeal(ring, (2, q.IntIdeal(12)))
    chain = z.radical_chain(ideal)
    assert [z.ideal_to_list(l) for l in chain.links] == [
        [1, {"zint": 6}], [1, {"zint": 2}]]
    assert chain.product() == ideal


def test_radical_chain_single_ded_matches_sp_factor():
    ring = z.ZpiRing((z.DedComponent(q.QuadRing(-5)),))
    i6 = q.principal_ideal(q.QuadRing(-5), (6, 0))
    chain = z.radical_chain(z.ZpiIdeal(ring, (i6,)))
    expected = q.sp_factor(i6)
    assert [l.entries[0].hnf for l in chain.links] == [l.hnf for l in expected.links]


def test_radical_chain_rejections():
    ring = mixed_ring()
    with pytest.raises(ValueError):
        z.radical_chain(ring.unit_ideal())
    with pytest.raises(ValueError):
        z.radical_chain(z.ZpiIdeal(ring, (1, z.ZERO)))


def test_chain_is_componentwise_ascending():
    ring = z.ZpiRing((z.SprComponent(4), z.DedComponent(q.IntRing()),
                      z.DedComponent(q.QuadRing(-1))))
    ideal = z.ZpiIdeal(ring, (3, q.IntIdeal(360),
                              q.principal_ideal(q.QuadRing(-1), (12, 0))))
    chain = z.radical_chain(ideal)
    for a, b in zip(chain.links, chain.links[1:]):
        for comp, ea, eb in zip(ring.components, a.entries, b.entries):
            if isinstance(comp, z.SprComponent):
                assert ea >= eb        # shrinking exponent = growing ideal
            else:
                assert eb.contains(ea)
    assert chain.product() == ideal


def test_chains_remultiply_over_random_mixed_ideals():
    rng = random.Random(SEED + 11)
    for _ in range(1000):
        ideal = random_zpi_ideal(rng)
        chain = z.radical_chain(ideal)
        assert chain.product() == ideal
        capped = any(isinstance(c, z.SprComponent) and e == c.t
                     for c, e in zip(ideal.ring.components, ideal.entries))
        assert chain.canonical_extension == capped


def test_chains_equal_the_componentwise_merge_over_random_mixed_ideals():
    rng = random.Random(SEED + 29)
    for _ in range(1000):
        ideal = random_zpi_ideal(rng)
        chain = z.radical_chain(ideal)
        links, extension = reference_radical_chain(ideal)
        assert [link.entries for link in chain.links] == links, ideal
        assert chain.canonical_extension == extension, ideal


def test_serialization_round_trip():
    ring = z.ZpiRing((z.SprComponent(2), z.DedComponent(q.QuadRing(-5)),
                      z.DedComponent(q.IntRing())))
    ideal = z.ZpiIdeal(ring, (1, q.ideal_from_gens(q.QuadRing(-5), [(2, 0), (1, 1)]),
                              q.IntIdeal(9)))
    assert z.ideal_to_list(ideal) == [1, {"hnf": [2, 1, 1]}, {"zint": 9}]
    zero = z.ZpiIdeal(ring, (0, z.ZERO, q.IntIdeal(1)))
    assert zero.has_zero_entry()
    assert z.ideal_to_list(zero) == [0, "zero", {"zint": 1}]


@pytest.mark.parametrize("ded_ring, entry", [
    (q.QuadRing(-1), q.IntIdeal(2)),
    (q.QuadRing(-5), q.ideal_from_gens(q.QuadRing(-1), [(2, 0), (1, 1)])),
    (q.IntRing(), q.ideal_from_gens(q.QuadRing(-1), [(2, 0), (1, 1)])),
], ids=["int-ideal-in-quad", "z-i-ideal-in-z-sqrt-5", "quad-ideal-in-z"])
def test_dedekind_entry_of_another_ring_is_rejected(ded_ring, entry):
    ring = z.ZpiRing((z.SprComponent(2), z.DedComponent(ded_ring)))
    with pytest.raises(ValueError, match="^expected an ideal of the component's ring$"):
        z.ZpiIdeal(ring, (1, entry))


@pytest.mark.parametrize("ded_ring", [q.QuadRing(-5), q.IntRing()], ids=["quad", "z"])
def test_zero_entry_is_accepted_in_every_dedekind_component(ded_ring):
    ring = z.ZpiRing((z.DedComponent(ded_ring),))
    assert z.ZpiIdeal(ring, (z.ZERO,)).entries == (z.ZERO,)


def test_product_refuses_ideals_of_different_rings():
    ring, other = z.ZpiRing((z.SprComponent(3),)), z.ZpiRing((z.SprComponent(2),))
    with pytest.raises(ValueError, match="^ideals of different ZPI rings$"):
        z.zpi_product(z.ZpiIdeal(ring, (1,)), z.ZpiIdeal(other, (1,)))


def test_a_chain_iterates_over_its_links_and_counts_them():
    ring = mixed_ring()
    chain = z.radical_chain(z.ZpiIdeal(ring, (2, q.IntIdeal(12))))
    assert list(chain) == list(chain.links) and len(chain) == len(chain.links) == 2
    assert chain.product() == z.ZpiIdeal(ring, (2, q.IntIdeal(12)))
