import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (reference_is_prime, reference_join_closure, reference_maximal_ideals,
                      relabelled, ring_specs)
from radfact import cli, finideal
from radfact import finring as fr
from radfact.errors import DEFAULT_BOUNDS, Bounds, ResourceLimitError
from radfact.finideal import (FinIdeal, _distinct, _join_closure, _principal_masks,
                              _radical_masks, all_ideals,
                              generated_ideal, ideal_power, ideal_product,
                              ideal_sum, is_prime,
                              prime_spectrum, radical, vn_set, whole_ideal,
                              zero_ideal)


def flagship():
    z2 = fr.make_zn(2)
    return fr.make_idealization(z2, fr.free_module(z2, 2))


def brute_force_ideals(ring):
    """Oracle: filter every subset containing zero for the ideal axioms."""
    n = ring.order
    out = set()
    for mask in range(1 << n):
        if not (mask >> ring.zero) & 1:
            continue
        els = [i for i in range(n) if (mask >> i) & 1]
        if any(not (mask >> ring.add_el(x, y)) & 1 for x in els for y in els):
            continue
        if any(not (mask >> ring.mul_el(r, x)) & 1 for r in range(n) for x in els):
            continue
        out.add(mask)
    return out


def test_generated_ideal_examples():
    z12 = fr.make_zn(12)
    assert generated_ideal(z12, []).to_list() == [0]
    assert generated_ideal(z12, [1]).to_list() == list(range(12))
    assert generated_ideal(z12, [8]).to_list() == [0, 4, 8]


@pytest.mark.parametrize("gen", [2.5, True, "2"])
def test_generated_ideal_refuses_a_generator_that_is_not_an_integer(gen):
    with pytest.raises(ValueError, match="generator must be an integer"):
        generated_ideal(fr.make_zn(6), [gen])


def test_contains_refuses_ideals_of_different_rings():
    z6 = fr.make_zn(6)
    with pytest.raises(ValueError, match="ideals of different rings"):
        whole_ideal(z6).contains(zero_ideal(fr.make_zn(5)))
    with pytest.raises(ValueError, match="ideals of different rings"):
        whole_ideal(z6).contains(zero_ideal(fr.make_zn(6)))
    assert whole_ideal(z6).contains(zero_ideal(z6))


def test_ideal_constructor_validates():
    z4 = fr.make_zn(4)
    with pytest.raises(ValueError):
        FinIdeal(z4, [1, 2])      # misses zero
    with pytest.raises(ValueError):
        FinIdeal(z4, [0, 1])      # not closed under multiplication by 2... (1*2=2 missing)
    assert FinIdeal(z4, [0, 2]).to_list() == [0, 2]


def test_small_gens_refuses_a_mask_that_is_not_an_ideal():
    # {1, 2} lacks zero: the greedy span leaves the mask at once
    with pytest.raises(ArithmeticError, match="not an ideal"):
        FinIdeal._unchecked(fr.make_zn(4), 0b0110).small_gens()
    with pytest.raises(ArithmeticError, match="not an ideal"):
        FinIdeal._unchecked(fr.make_zn(4), 0b0011).small_gens()   # {0, 1} spans all of Z4


def test_small_gens_refuses_a_span_that_does_not_grow():
    # tables that are not a ring (1*1 = 0, so 1 is not in 1R) skip verification
    # only through _trusted; the greedy span of {0, 1} then stays {0}
    broken = fr.FinRing._trusted(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]], 0, 1, "broken")
    with pytest.raises(ArithmeticError, match="does not grow"):
        FinIdeal._unchecked(broken, 0b11).small_gens()


def test_all_ideals_counts():
    assert len(all_ideals(fr.make_zn(4))) == 3
    assert len(all_ideals(fr.make_zn(1))) == 1
    gf4 = fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1])
    assert len(all_ideals(gf4)) == 2
    assert len(all_ideals(flagship())) == 6


def test_all_ideals_sorted_and_deterministic():
    z12 = fr.make_zn(12)
    first = [i.mask for i in all_ideals(z12)]
    assert first == sorted(first)
    assert first == [i.mask for i in all_ideals(z12)]


def test_all_ideals_against_subset_oracle():
    rings = [fr.make_zn(n) for n in (4, 6, 12, 16)]
    rings.append(fr.make_poly_quotient(fr.make_zn(2), [0, 0, 1]))
    rings.append(fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1]))
    rings.append(fr.make_product(fr.make_zn(2), fr.make_zn(4)))
    rings.append(flagship())
    for ring in rings:
        assert ring.order <= 16
        assert {i.mask for i in all_ideals(ring)} == brute_force_ideals(ring)


def test_all_ideals_resource_bound():
    with pytest.raises(ResourceLimitError) as exc:
        all_ideals(fr.make_zn(12), bounds=Bounds(ideals=2))
    assert exc.value.bound == "max-ideals"


def test_all_ideals_refuses_a_lattice_cached_under_a_larger_bound():
    ring = fr.make_zn(12)
    assert len(all_ideals(ring)) == 6
    with pytest.raises(ResourceLimitError) as exc:
        all_ideals(ring, bounds=Bounds(ideals=5))
    assert (exc.value.bound, exc.value.value, exc.value.observed) == ("max-ideals", 5, 6)


def test_ideal_product_examples():
    z12 = fr.make_zn(12)
    i2 = generated_ideal(z12, [2])
    i3 = generated_ideal(z12, [3])
    assert ideal_product(i2, i3).to_list() == generated_ideal(z12, [6]).to_list()
    assert ideal_product(i2, whole_ideal(z12)) == i2
    b = flagship()
    m = generated_ideal(b, [1, 2])   # (x, y)
    assert ideal_product(m, m) == zero_ideal(b)


def test_product_contained_in_intersection():
    z36 = fr.make_zn(36)
    ideals = all_ideals(z36)
    for i, j in itertools.product(ideals, repeat=2):
        p = ideal_product(i, j)
        assert i.contains(p) and j.contains(p)


def test_radical_examples():
    z4 = fr.make_zn(4)
    assert radical(zero_ideal(z4)).to_list() == [0, 2]
    assert radical(whole_ideal(z4)) == whole_ideal(z4)
    b = flagship()
    x_ideal = generated_ideal(b, [2])
    assert radical(x_ideal).to_list() == [0, 1, 2, 3]


def reference_radical(i):
    """Oracle: walk x, x^2, ..., x^(n-1) and keep every x with a power in I."""
    a = i.ring
    n = a.order
    member = np.zeros(n, dtype=bool)
    member[list(i.elements)] = True
    idx = np.arange(n)
    v = idx.copy()
    hit = member[v].copy()
    for _ in range(n - 1):
        if hit.all():
            break
        v = a.mul[v, idx]
        hit |= member[v]
    return fr.mask_of(np.flatnonzero(hit))


def test_radical_matches_power_walk():
    rings = [fr.make_zn(n) for n in range(1, 65)]
    rings += [fr.ring_from_dict(spec) for spec in cli.default_catalog_specs()
              if "idealization" in spec]
    rings.append(fr.make_product(fr.make_zn(4), fr.make_zn(4)))
    rings.append(fr.make_poly_quotient(fr.make_zn(2), [0, 0, 0, 1]))
    rings.append(fr.make_zn(2048))
    for ring in rings:
        for i in all_ideals(ring):
            assert radical(i).mask == reference_radical(i), (ring, i)


def test_radical_is_idempotent_and_extensive():
    for ring in (fr.make_zn(24), fr.make_zn(36), flagship()):
        for i in all_ideals(ring):
            r = radical(i)
            assert r.contains(i)
            assert radical(r) == r


def test_is_prime_examples():
    z6 = fr.make_zn(6)
    assert is_prime(generated_ideal(z6, [2]))
    assert not is_prime(zero_ideal(fr.make_zn(4)))
    assert not is_prime(whole_ideal(z6))


def test_spectrum_of_flagship():
    b = flagship()
    assert [p.to_list() for p in prime_spectrum(b)] == [[0, 1, 2, 3]]


def test_spectrum_equals_maximal_ideals(catalog_rings):
    for ring in catalog_rings:
        assert [p.mask for p in prime_spectrum(ring)] == \
            sorted(m.mask for m in reference_maximal_ideals(ring))


@pytest.mark.parametrize("spec", [{"product": [{"zn": 2}] * 12},
                                  {"idealization": {"zn": 2, "module_rank": 11}}],
                         ids=["z2-to-the-12", "z2-idealization-of-rank-11"])
def test_spectrum_of_order_4096_reads_the_local_factors_without_a_lattice(spec):
    ring = fr.ring_from_dict(spec)
    start = time.perf_counter()
    spectrum = prime_spectrum(ring)
    assert time.perf_counter() - start < 2.0
    assert len(spectrum) == len(fr._primitive_idempotents(ring))
    assert all(len(p) * 2 == ring.order for p in spectrum)     # every residue field is Z2
    assert "ideals" not in ring._cache
    assert [p.mask for p in vn_set(zero_ideal(ring), 1)] == [p.mask for p in spectrum]
    assert not is_prime(whole_ideal(ring))
    assert "ideals" not in ring._cache


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_spectrum_matches_the_maximal_ideals_and_the_pair_scan_on_relabelled_rings(spec, seed):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 64)
    ideals = all_ideals(ring)
    masks = [p.mask for p in prime_spectrum(ring)]
    assert masks == sorted(m.mask for m in reference_maximal_ideals(ring))
    assert masks == [i.mask for i in ideals if reference_is_prime(i)]
    assert [is_prime(i) for i in ideals] == [reference_is_prime(i) for i in ideals]


def test_vn_set_examples():
    z8 = fr.make_zn(8)
    i4 = generated_ideal(z8, [4])
    v1 = vn_set(i4, 1)
    assert [p.to_list() for p in v1] == [[0, 2, 4, 6]]
    v2 = vn_set(i4, 2)
    assert [p.to_list() for p in v2] == [[0, 2, 4, 6]]
    assert vn_set(i4, 3) == []
    with pytest.raises(ValueError):
        vn_set(i4, 0)


def test_vn_nesting():
    for ring in (fr.make_zn(48), fr.make_zn(72)):
        for i in all_ideals(ring):
            prev = None
            for n in range(1, 6):
                cur = {p.mask for p in vn_set(i, n)}
                if prev is not None:
                    assert cur <= prev
                prev = cur


def test_v1_is_containment():
    z36 = fr.make_zn(36)
    for i in all_ideals(z36):
        direct = {p.mask for p in prime_spectrum(z36) if p.contains(i)}
        assert {p.mask for p in vn_set(i, 1)} == direct


def test_ideal_sum_is_join():
    z36 = fr.make_zn(36)
    ideals = all_ideals(z36)
    for i, j in itertools.product(ideals[:6], repeat=2):
        s = ideal_sum(i, j)
        assert s.contains(i) and s.contains(j)
        assert s.mask == (generated_ideal(z36, i.elements + j.elements)).mask


def test_ideal_power():
    z8 = fr.make_zn(8)
    m = generated_ideal(z8, [2])
    assert ideal_power(m, 0) == whole_ideal(z8)
    assert ideal_power(m, 2).to_list() == [0, 4]
    assert ideal_power(m, 3).to_list() == [0]


def test_ideal_power_stops_once_the_powers_stabilize(monkeypatch):
    z12 = fr.make_zn(12)
    p = generated_ideal(z12, [2])
    stable = ideal_power(p, z12.order)
    calls = []

    def counted(i, j):
        calls.append(1)
        return ideal_product(i, j)

    monkeypatch.setattr(finideal, "ideal_product", counted)
    assert ideal_power(p, 10 ** 9) == stable
    assert len(calls) <= z12.order.bit_length()
    assert stable.to_list() == [0, 4, 8]


def test_all_ideals_keeps_no_element_array_per_ideal():
    # Z2(+)Z2^6 has 2,826 ideals; a sorted element array beside each bitset
    # peaked at 3.1 MB under tracemalloc, one bitset and one generator tuple
    # per ideal at 1.9 MB
    ring = fr.ring_from_dict({"idealization": {"zn": 2, "module_rank": 6}})
    _principal_masks(ring)
    tracemalloc.start()
    try:
        assert len(all_ideals(ring)) == 2826
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4e6, peak


def test_principal_ideals_match_one_row_at_a_time():
    rings = [fr.make_zn(n) for n in (1, 2, 12, 64)]
    rings += [flagship(), fr.make_product(fr.make_zn(4), fr.make_zn(6)),
              fr.make_poly_quotient(fr.make_zn(3), [0, 0, 1])]
    for ring in rings:
        seen = {}
        for g in range(ring.order):
            seen.setdefault(fr.mask_of(ring.mul[g]), g)
        assert _distinct(_principal_masks(ring)) == sorted(seen.items()), ring


def assert_join_closure_matches_the_reference(ring):
    """The closure has the oracle's masks, each under generators that
    generate it, and `all_ideals` lists them in sorted order."""
    cyclic = _distinct(_principal_masks(ring))
    known = _join_closure(cyclic, ring.add, DEFAULT_BOUNDS)
    reference = reference_join_closure(cyclic, ring.add)
    assert known.keys() == reference.keys(), ring.label
    for mask, gens in known.items():
        assert generated_ideal(ring, gens).mask == mask, (ring.label, gens)
    assert [i.mask for i in all_ideals(ring)] == sorted(reference), ring.label


def test_join_closure_matches_the_pair_at_a_time_reference(catalog_rings):
    factors = [f for ring in catalog_rings for f in fr.decompose_local(ring)]
    assert len(factors) == 2035
    for ring in catalog_rings + factors:
        assert_join_closure_matches_the_reference(ring)


def test_a_principal_member_of_the_lattice_carries_its_least_generator(catalog_rings):
    rings = catalog_rings + [fr.ring_from_dict({"idealization": {"zn": 2, "module_rank": 6}})]
    for ring in rings:
        cyclic = _distinct(_principal_masks(ring))
        known = _join_closure(cyclic, ring.add, DEFAULT_BOUNDS)
        for mask, g in cyclic:
            assert known[mask] == (g,), (ring.label, mask)


def test_join_closure_in_gathers_of_a_few_sums_each(catalog_rings, monkeypatch):
    monkeypatch.setattr(finideal, "_GATHER", 64)
    for ring in catalog_rings:
        if ring.order <= 64:
            assert_join_closure_matches_the_reference(ring)


def drawn_relabelled_ring(spec, seed, order):
    """The ring of `spec` (at most `order` elements) under a random relabelling
    that moves zero off index 0, with the relabelling."""
    try:
        base = fr.ring_from_dict(spec, Bounds(order=order))
    except ResourceLimitError:
        assume(False)
    assume(base.order > 1)
    perm = np.random.default_rng(seed).permutation(base.order)
    if perm[base.zero] == 0:
        perm = (perm + 1) % base.order
    ring = relabelled(base, perm)
    assert ring.zero != 0
    return base, ring, perm


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_join_closure_matches_the_reference_on_relabelled_rings(spec, seed):
    base, ring, perm = drawn_relabelled_ring(spec, seed, 128)
    assert_join_closure_matches_the_reference(ring)
    moved = {fr.mask_of(perm[list(i.elements)]) for i in all_ideals(base)}
    assert {i.mask for i in all_ideals(ring)} == moved


def additive_closure(ring, elements):
    """Oracle: the least set holding zero and `elements` that is closed under +."""
    out = {ring.zero, *elements}
    while True:
        more = {ring.add_el(x, y) for x in out for y in out} - out
        if not more:
            return out
        out |= more


@settings(max_examples=40, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 31), max_size=3))
def test_ideal_operations_match_their_set_definitions_on_relabelled_rings(spec, seed, gens):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 32)
    everything = range(ring.order)
    gens = [g % ring.order for g in gens]
    assert set(generated_ideal(ring, gens).elements) == \
        additive_closure(ring, {ring.mul_el(r, g) for r in everything for g in gens})
    ideals = all_ideals(ring)
    pick = random.Random(seed)
    for _ in range(4):
        # a copy without generators, so ideal_product runs small_gens too
        i = FinIdeal._unchecked(ring, pick.choice(ideals).mask)
        j = pick.choice(ideals)
        assert set(ideal_sum(i, j).elements) == \
            {ring.add_el(x, y) for x in i.elements for y in j.elements}
        assert set(ideal_product(i, j).elements) == \
            additive_closure(ring, {ring.mul_el(x, y) for x in i.elements for y in j.elements})


def assert_radical_masks_match_the_power_walk(ring):
    ideals = all_ideals(ring)
    assert _radical_masks(ring, [i.mask for i in ideals]) == \
        [reference_radical(i) for i in ideals], ring.label


def test_radical_masks_match_the_power_walk_on_the_catalog(catalog_rings):
    for ring in catalog_rings:
        if ring.order <= 64:
            assert_radical_masks_match_the_power_walk(ring)


def test_radical_masks_in_gathers_of_a_few_rows_each(catalog_rings, monkeypatch):
    monkeypatch.setattr(finideal, "_GATHER", 64)
    for ring in catalog_rings:
        if ring.order <= 64:
            assert_radical_masks_match_the_power_walk(ring)


def test_radical_masks_of_no_ideals_is_empty():
    assert _radical_masks(fr.make_zn(12), []) == []


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_radical_masks_match_the_power_walk_on_relabelled_rings(spec, seed):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 64)
    assert_radical_masks_match_the_power_walk(ring)
