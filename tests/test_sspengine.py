import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (drawn_relabelled_ring, part_specs, reference_distinct,
                      reference_ideal_image_masks, reference_idealization_ssp, reference_is_vnr,
                      reference_local_ssp, reference_primitive_idempotents, ring_specs)
from radfact import cli, finideal
from radfact import finring as fr
from radfact import sspengine as ssp
from radfact.errors import Bounds, ResourceLimitError
from radfact.finideal import (all_ideals, generated_ideal, ideal_power, ideal_product, radical,
                              whole_ideal)
from test_cli import run_cli


def flagship():
    z2 = fr.make_zn(2)
    return fr.make_idealization(z2, fr.free_module(z2, 2))


def brute_force_ssp(ring):
    """Oracle: layered search over all products of radical ideals.

    Layer k holds every product of exactly k proper radical ideals; the
    union over k up to the ideal count is compared against the lattice.
    """
    ideals = all_ideals(ring)
    radicals = [i for i in ideals if radical(i) == i]
    proper = [r for r in radicals if not r.is_whole]
    reachable = {r.mask for r in radicals}
    layer = {r.mask: r for r in radicals}
    for _ in range(len(ideals)):
        nxt = {}
        for i in layer.values():
            for r in proper:
                p = ideal_product(i, r)
                if p.mask not in reachable:
                    reachable.add(p.mask)
                    nxt[p.mask] = p
        if not nxt:
            break
        layer = nxt
    return all(i.mask in reachable for i in ideals)


def idealization_2826():
    z2 = fr.make_zn(2)
    return fr.make_idealization(z2, fr.free_module(z2, 6))     # Z2 ⋉ Z2^6, 2,826 ideals


def test_closure_members_remultiply_through_ideal_product(catalog_rings):
    for ring in catalog_rings + [idealization_2826()]:
        clo = ssp.radical_closure(ring)
        by_mask = {m.mask: m for m in clo.members}
        assert sorted(by_mask) == sorted(clo.parent)
        for mask, pair in clo.parent.items():
            if pair is None:
                assert radical(by_mask[mask]).mask == mask, ring.label
            else:
                m, r = pair
                assert ideal_product(by_mask[m], by_mask[r]).mask == mask, ring.label


def test_lattice_product_matches_ideal_product_on_every_pair():
    z2, z3, z4 = fr.make_zn(2), fr.make_zn(3), fr.make_zn(4)
    # the idealizations hold pairs whose principal products do not union to an ideal
    rings = [fr.make_zn(12), fr.make_product(z2, z4), fr.make_poly_quotient(z2, [0, 0, 1]),
             flagship(), fr.make_idealization(z2, fr.free_module(z2, 3)),
             fr.make_idealization(z4, fr.module_from_ring(z4)),
             fr.make_idealization(z3, fr.free_module(z3, 2))]
    misses = 0
    for ring in rings:
        ideals = all_ideals(ring)
        lattice = {i.mask: i.small_gens() for i in ideals}
        product = finideal._lattice_product(ring, lattice)
        principal = fr._principal_masks(ring)
        for i, j in itertools.product(ideals, repeat=2):
            assert product(i.mask, j.mask) == ideal_product(i, j).mask, ring.label
            union = 0
            for g in lattice[i.mask]:
                for h in lattice[j.mask]:
                    union |= principal[ring.mul_el(g, h)]
            misses += union not in lattice
    assert misses >= 20


def test_structural_oracle_enumerates_no_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice enumerated")

    monkeypatch.setattr(finideal, "_join_closure", refuse)
    assert not ssp.structural_ssp(idealization_2826())
    assert ssp.structural_ssp(fr.make_zn(256))
    assert [(order, v.is_special_primary) for order, v in ssp.local_factors(fr.make_zn(12))] == [
        (3, True), (4, True)]


def factor_fields(order, v):
    m = v.maximal_ideal
    return order, v.is_special_primary, v.nilpotency_index, None if m is None else len(m)


def assert_the_oracle_routes_agree(ring):
    """The walk finds the primitive idempotents of the pairwise scan, reading
    each local factor inside the ring gives the verdict of the factor ring
    that `decompose_local` builds, and the census's count per local factor
    gives the verdict of the closure of {M_e, eA} on each factor's lattice and
    of the closure over the whole lattice."""
    assert fr._primitive_idempotents(ring) == reference_primitive_idempotents(ring), ring.label
    factors = ssp.local_factors(ring)
    assert [factor_fields(order, v) for order, v in factors] == \
        [factor_fields(f.order, fr.is_special_primary(f)) for f in fr.decompose_local(ring)], \
        ring.label
    decided = ssp.local_ssp(ring, factors)
    assert decided == reference_local_ssp(ring, factors) == ssp.radical_closure(ring).is_ssp, \
        ring.label


def test_the_oracle_routes_agree_on_the_catalog(catalog_rings):
    # Z1, with no primitive idempotent and no local factor, included
    assert catalog_rings[0].order == 1
    for ring in catalog_rings:
        assert_the_oracle_routes_agree(ring)


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_the_oracle_routes_agree_on_relabelled_rings(spec, seed):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 128)
    assert_the_oracle_routes_agree(ring)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(part_specs, st.just({"zn": 1})), min_size=2, max_size=3))
def test_the_local_verdict_matches_the_closure_on_drawn_products(parts):
    try:
        ring = fr.ring_from_dict({"product": parts}, Bounds(order=256))
    except ResourceLimitError:
        assume(False)
    factors = ssp.local_factors(ring)
    decided = ssp.local_ssp(ring, factors)
    assert decided == reference_local_ssp(ring, factors) == ssp.radical_closure(ring).is_ssp


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_the_products_of_radicals_of_a_local_ring_are_the_powers_of_its_maximal_ideal(spec,
                                                                                      seed):
    """The lemma `local_ssp` counts by: in a local ring A with maximal ideal M
    and nilpotency index t, closing {M, A} under products gives exactly the
    distinct powers M^0 = A, M, ..., M^t = 0."""
    _, ring, _ = drawn_relabelled_ring(spec, seed, 128)
    assume(fr._primitive_idempotents(ring) == [ring.one])
    verdict = fr.is_special_primary(ring)
    m, t = verdict.maximal_ideal, verdict.nilpotency_index
    product = finideal._lattice_product(ring, {i.mask: i.small_gens() for i in all_ideals(ring)})
    seeds = [m.mask, ring.whole_mask]
    reached, frontier = set(seeds), seeds
    while frontier:
        frontier = {product(i, r) for i in frontier for r in seeds} - reached
        reached |= frontier
    powers = [ideal_power(m, k).mask for k in range(t + 1)]
    assert len(set(powers)) == t + 1 and powers[-1] == 1 << ring.zero
    assert reached == set(powers)


def test_census_enumerates_no_whole_ring_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("whole-ring lattice enumerated")

    monkeypatch.setattr(finideal, "all_ideals", refuse)
    monkeypatch.setattr(ssp, "all_ideals", refuse)
    monkeypatch.setattr(ssp, "radical_closure", refuse)
    rows = cli.census_rows(cli.default_catalog_specs())
    assert len(rows) == 827 and all(r["agree"] for r in rows)


def test_census_multiplies_no_ideals_and_closes_each_local_factor_once(monkeypatch):
    """The census counts each factor's lattice against its maximal ideal's
    powers: no `_lattice_product`, and one `_join_closure` per local factor."""
    calls = {"_lattice_product": 0, "_join_closure": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, spy)

    for module, name in [(finideal, "_lattice_product"), (ssp, "_lattice_product"),
                         (finideal, "_join_closure")]:
        counted(module, name)
    rows = cli.census_rows(cli.default_catalog_specs())
    assert len(rows) == 827 and all(r["agree"] for r in rows)
    assert calls == {"_lattice_product": 0,
                     "_join_closure": sum(len(r["local_profile"]) for r in rows)}


def test_census_of_a_product_of_large_idealizations_closes_each_factor_once(monkeypatch):
    """(Z2⋉Z2^5)² has 375² = 140,625 ideals; its census row enumerates the
    two factors' lattices of 375, one `_join_closure` each."""
    lattices = []
    closure = finideal._join_closure

    def spy(*args):
        known = closure(*args)
        lattices.append(len(known))
        return known

    monkeypatch.setattr(finideal, "_join_closure", spy)
    factor = {"idealization": {"zn": 2, "module_rank": 5}}
    start = time.perf_counter()
    [row] = cli.census_rows([{"product": [factor, factor]}])
    assert time.perf_counter() - start < 4.0
    assert lattices == [375, 375]
    assert row["local_profile"] == [64, 64] and not row["decide_ssp"] and row["agree"]


def test_census_builds_no_factor_ring(monkeypatch):
    def refuse(*args):
        raise AssertionError("factor ring built")

    monkeypatch.setattr(fr, "_image_ring", refuse)
    rows = cli.census_rows(cli.default_catalog_specs())
    assert len(rows) == 827 and all(r["agree"] for r in rows)


def test_census_unwinds_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("witness unwound")

    monkeypatch.setattr(ssp.SspVerdict, "factors_of", refuse)
    rows = cli.census_rows(cli.default_catalog_specs())
    assert len(rows) == 827 and all(r["agree"] for r in rows)


def test_census_of_z2_to_the_12_within_budget():
    start = time.perf_counter()
    [row] = cli.census_rows([{"product": [{"zn": 2}] * 12}])
    assert time.perf_counter() - start < 4.0
    assert row["local_profile"] == [2] * 12 and all(row["special_primary"])
    assert row["decide_ssp"] and row["agree"]


@pytest.mark.parametrize("spec, rows", [
    ({"zn": 251}, 2), ({"product": [{"zn": 16}, {"zn": 16}]}, 25),
    ({"product": [{"zn": 2}] * 12}, 4096),      # only the unit 1: every element its own class
], ids=["Z251", "Z16xZ16", "Z2^12"])
def test_principal_masks_pack_one_row_per_associate_class(spec, rows, catalog_rings, monkeypatch):
    """A work count beside the census budgets: `_row_masks` packs the rows of
    the least associates only, one per distinct principal ideal in a finite ring."""
    packed = []
    pack = fr._pack
    monkeypatch.setattr(fr, "_pack", lambda member: packed.append(len(member)) or pack(member))
    for ring in catalog_rings + [fr.ring_from_dict(spec)]:
        ring._cache.pop("principal_masks", None)
        packed.clear()
        masks = fr._principal_masks(ring)
        assert packed == [len(reference_distinct(masks))], ring.label
    assert packed == [rows]


def test_radical_closure_of_flagship():
    b = flagship()
    clo = ssp.radical_closure(b)
    members = {tuple(m.to_list()) for m in clo.members}
    assert members == {(0,), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7)}


def test_radical_closure_of_vnr_ring_is_everything():
    r = fr.make_product(fr.make_zn(2), fr.make_zn(3))
    clo = ssp.radical_closure(r)
    assert {m.mask for m in clo.members} == {i.mask for i in all_ideals(r)}


def test_radical_closure_of_z8():
    z8 = fr.make_zn(8)
    clo = ssp.radical_closure(z8)
    assert {tuple(m.to_list()) for m in clo.members} == {
        (0,), (0, 4), (0, 2, 4, 6), tuple(range(8))}


def test_decide_ssp_flagship_negative():
    verdict = ssp.decide_ssp(flagship())
    assert not verdict.is_ssp
    witness = verdict.witness_nonfactorable
    assert len(witness) == 2
    assert verdict.factorizations[witness] is None


def test_reading_factorizations_leaves_the_verdict_unchanged():
    z8 = fr.make_zn(8)
    read, fresh = ssp.decide_ssp(z8), ssp.decide_ssp(z8)
    text = repr(read)
    assert read.factorizations == fresh.factorizations
    assert read == fresh and repr(read) == text == repr(fresh)


def test_decide_ssp_prime_powers():
    for n in (2, 3, 4, 8, 9, 25, 27):
        assert ssp.decide_ssp(fr.make_zn(n)).is_ssp


def test_decide_ssp_zero_ring():
    assert ssp.decide_ssp(fr.make_zn(1)).is_ssp


def test_factorizations_remultiply_and_are_radical():
    for ring in (fr.make_zn(72), fr.make_zn(16), flagship(),
                 fr.make_product(fr.make_zn(4), fr.make_zn(9))):
        verdict = ssp.decide_ssp(ring)
        for ideal, factors in verdict.factorizations.items():
            if factors is None:
                assert not verdict.is_ssp
                continue
            prod = whole_ideal(ring)
            for f in factors:
                assert radical(f) == f
                prod = ideal_product(prod, f)
            assert prod.mask == ideal.mask


def test_witness_checks_take_one_product_per_parent_link(monkeypatch):
    products = []
    monkeypatch.setattr(ssp, "ideal_product",
                        lambda i, j: products.append((i.mask, j.mask)) or ideal_product(i, j))
    for ring in (fr.make_zn(72), flagship(), fr.ring_from_dict({"product": [{"zn": 4}] * 3})):
        verdict = ssp.decide_ssp(ring)
        products.clear()
        assert verdict.checks == {"factors_radical": True, "products_match": True}
        links = [link for link in verdict.parent.values() if link is not None]
        assert len(products) == len(links) and set(products) == set(links)


def test_witness_checks_catch_a_tampered_link():
    z8 = fr.make_zn(8)
    verdict = ssp.decide_ssp(z8)
    mask = {tuple(i.to_list()): m for m, i in verdict.lattice.items()}
    zero, four, two = mask[(0,)], mask[(0, 4)], mask[(0, 2, 4, 6)]
    assert verdict.parent[zero] == (four, two)

    def tampered(link):
        return ssp.SspVerdict(z8, {**verdict.parent, zero: link}, verdict.lattice).checks

    # (2)(2) = (4), not (0)
    assert tampered((two, two)) == {"factors_radical": True, "products_match": False}
    # (2)(4) = (0), but (4) is not radical
    assert tampered((two, four)) == {"factors_radical": False, "products_match": True}


def test_witness_lengths_are_bfs_minimal():
    z8 = fr.make_zn(8)
    verdict = ssp.decide_ssp(z8)
    by_list = {tuple(i.to_list()): f for i, f in verdict.factorizations.items()}
    assert len(by_list[(0,)]) == 3                 # 0 = (2)^3, no shorter product
    assert len(by_list[(0, 4)]) == 2               # (4) = (2)^2
    assert len(by_list[(0, 2, 4, 6)]) == 1


def test_structural_oracle_examples():
    assert ssp.structural_ssp(fr.make_zn(12))
    assert not ssp.structural_ssp(flagship())
    assert ssp.structural_ssp(fr.make_product(fr.make_zn(2), fr.make_zn(3)))
    assert ssp.structural_ssp(fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1]))


def test_decide_matches_brute_force_search():
    rings = [fr.make_zn(n) for n in (1, 4, 8, 12, 36, 60)]
    rings.append(flagship())
    rings.append(fr.make_product(fr.make_zn(4), fr.make_zn(4)))
    rings.append(fr.make_poly_quotient(fr.make_zn(3), [0, 0, 1]))
    z4 = fr.make_zn(4)
    rings.append(fr.make_idealization(z4, fr.module_from_ring(z4)))
    for ring in rings:
        assert len(all_ideals(ring)) <= 64
        assert ssp.decide_ssp(ring).is_ssp == brute_force_ssp(ring)


def test_is_vnr():
    assert ssp.is_vnr(fr.make_product(fr.make_zn(2), fr.make_zn(2)))
    assert ssp.is_vnr(fr.make_zn(6))
    assert not ssp.is_vnr(fr.make_zn(4))
    assert ssp.is_vnr(fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1]))


def test_is_vnr_matches_the_definition_on_the_catalog(catalog_rings):
    assert [ssp.is_vnr(r) for r in catalog_rings] == [reference_is_vnr(r) for r in catalog_rings]


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_is_vnr_matches_the_definition_on_relabelled_rings(spec, seed):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 128)
    assert ssp.is_vnr(ring) == reference_is_vnr(ring)


@pytest.mark.parametrize("spec, vnr", [
    ({"product": [{"zn": 2}] * 12}, True),
    ({"zn": 4096}, False),
    ({"idealization": {"zn": 2, "module_rank": 11}}, False),
], ids=["z2-to-the-12", "z4096", "z2-idealization-of-rank-11"])
def test_is_vnr_matches_the_definition_at_order_4096(spec, vnr):
    ring = fr.ring_from_dict(spec)
    assert ssp.is_vnr(ring) == reference_is_vnr(ring) == vnr


def test_is_multiplication_module():
    z2 = fr.make_zn(2)
    assert ssp.is_multiplication_module(fr.module_from_ring(z2))
    assert not ssp.is_multiplication_module(fr.free_module(z2, 2))
    assert ssp.is_multiplication_module(fr.zero_module(z2))
    z6 = fr.make_zn(6)
    assert ssp.is_multiplication_module(fr.quotient_module(z6, generated_ideal(z6, [2])))


def test_proposition_16_instance():
    v = fr.make_product(fr.make_zn(2), fr.make_zn(2))
    e = fr.module_from_ring(v)
    assert ssp.is_vnr(v) and ssp.is_multiplication_module(e)
    assert ssp.decide_ssp(fr.make_idealization(v, e)).is_ssp


MODULE_KINDS = st.sampled_from(["self", "zero", "free", "quotient"])


def drawn_module(ring, kind, pick, max_size):
    """A module over `ring` of one of the four kinds, at most `max_size` elements:
    the free module's rank and the quotient's ideal are chosen by `pick`."""
    if kind == "self":
        module = fr.module_from_ring(ring)
    elif kind == "zero":
        module = fr.zero_module(ring)
    elif kind == "free":
        rank = 1 + pick % 3
        assume(ring.order ** rank <= max_size)
        module = fr.free_module(ring, rank)
    else:
        ideals = all_ideals(ring)
        module = fr.quotient_module(ring, ideals[pick % len(ideals)])
    assume(module.size <= max_size)
    return module


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1), MODULE_KINDS, st.integers(0, 2 ** 16))
def test_proposition_16_both_ways_on_drawn_pairs(spec, seed, kind, pick):
    """A(+)E is SSP exactly when the local rule of `reference_idealization_ssp` holds."""
    _, a, _ = drawn_relabelled_ring(spec, seed, 64)
    e = drawn_module(a, kind, pick, 512 // a.order)
    assert ssp.decide_ssp(fr.make_idealization(a, e)).is_ssp == reference_idealization_ssp(a, e)


def test_sp_note_names_the_unit_ideal_and_is_the_reported_note(capsys, tmp_path):
    assert "unit ideal" in ssp.SP_NOTE
    code, out, _ = run_cli(capsys, ["decide-ssp"], {"zn": 8}, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["is_sp"] is True and report["sp_note"] == ssp.SP_NOTE


def test_quotients_of_ssp_rings_stay_ssp():
    for ring in (fr.make_zn(24), fr.make_product(fr.make_zn(4), fr.make_zn(3))):
        assert ssp.decide_ssp(ring).is_ssp
        for ideal in all_ideals(ring):
            assert ssp.decide_ssp(fr.quotient(ring, ideal)).is_ssp


def test_product_law():
    b = flagship()
    z4 = fr.make_zn(4)
    assert not ssp.decide_ssp(fr.make_product(b, fr.make_zn(3))).is_ssp
    assert ssp.decide_ssp(fr.make_product(z4, fr.make_zn(9))).is_ssp


def brute_force_submodules(m):
    """Oracle: filter every subset holding zero for closure under + and the action."""
    masks = np.arange(1 << m.size)
    member = (masks[:, None] >> np.arange(m.size)) & 1 == 1     # row k: the subset k
    closed = member[:, m.zero].copy()
    for x in range(m.size):
        for y in range(m.size):
            closed &= ~(member[:, x] & member[:, y]) | member[:, m.add[x, y]]
        for r in range(m.ring.order):
            closed &= ~member[:, x] | member[:, m.action[r, x]]
    return set(masks[closed].tolist())


def test_multiplication_modules_match_the_definition(catalog_rings):
    """The cyclic-submodule rule against the definition: every submodule of
    the subset oracle is IE for some ideal I."""
    modules = [fr.free_module(fr.make_zn(n), rank)
               for n, top in ((2, 4), (3, 2), (4, 2)) for rank in range(top + 1)]
    z12 = fr.make_zn(12)
    modules += [fr.quotient_module(z12, i) for i in all_ideals(z12)]
    modules += [fr.module_from_ring(ring) for ring in catalog_rings if ring.order <= 16]
    modules += [fr.free_module(ring, 2) for ring in catalog_rings if ring.order <= 4]
    verdicts = []
    for m in modules:
        assert m.size <= 16
        images = reference_ideal_image_masks(m)
        verdicts.append(ssp.is_multiplication_module(m))
        assert verdicts[-1] == (brute_force_submodules(m) <= images), m.label
    assert True in verdicts and False in verdicts


def test_multiplication_modules_match_the_cyclic_submodules_one_column_at_a_time(catalog_rings):
    """The kernel's route against per-column `mask_of`: column m of the action
    is the cyclic submodule Rm, packed one at a time."""
    small = [ring for ring in catalog_rings if ring.order <= 16]
    modules = [fr.free_module(ring, rank) for ring in small if ring.order <= 8 for rank in (2, 3)]
    modules += [fr.module_from_ring(ring) for ring in small]
    modules += [fr.quotient_module(ring, i) for ring in small for i in all_ideals(ring)]
    verdicts = []
    for m in modules:
        cyclic = [fr.mask_of(m.action[:, x]) for x in range(m.size)]
        masks, classes = fr._row_masks(m.action.T, m.action[list(fr.units(m.ring))])
        assert masks == cyclic and classes == reference_distinct(cyclic), m.label
        verdicts.append(ssp.is_multiplication_module(m))
        assert verdicts[-1] == (set(cyclic) <= reference_ideal_image_masks(m)), m.label
    assert True in verdicts and False in verdicts


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1), MODULE_KINDS, st.integers(0, 2 ** 16))
def test_multiplication_modules_match_the_ideal_images_on_relabelled_rings(spec, seed, kind,
                                                                           pick):
    _, ring, _ = drawn_relabelled_ring(spec, seed, 128)
    m = drawn_module(ring, kind, pick, 256)
    cyclic = {fr.mask_of(m.action[:, x]) for x in range(m.size)}
    assert ssp.is_multiplication_module(m) == (cyclic <= reference_ideal_image_masks(m)), m.label


def test_multiplication_module_of_z2_to_the_8_within_budget():
    # its submodule lattice, 417,199 subspaces of F2^8, is never enumerated
    start = time.perf_counter()
    assert not ssp.is_multiplication_module(fr.free_module(fr.make_zn(2), 8))
    assert time.perf_counter() - start < 1.0


def test_multiplication_module_enumerates_no_lattice(monkeypatch):
    """A/M over Z2⋉Z2^7, whose base ring has 29,213 ideals, is decided without them."""
    a = fr.ring_from_dict({"idealization": {"zn": 2, "module_rank": 7}})
    e = fr.quotient_module(a, fr.is_special_primary(a).maximal_ideal)

    def refuse(*args, **kwargs):
        raise AssertionError("lattice enumerated")

    for name in ("all_ideals", "_join_closure", "_span"):
        monkeypatch.setattr(finideal, name, refuse)
    monkeypatch.setattr(ssp, "all_ideals", refuse)
    start = time.perf_counter()
    assert ssp.is_multiplication_module(e)
    assert time.perf_counter() - start < 0.5
    assert e.size == 2


@pytest.mark.parametrize("factor, count, ideals, budget", [
    (2, 12, 4096, 8.0),      # order 4096: every ideal radical, each principal
    (4, 5, 243, 1.0),        # order 1024: 3^5 ideals
], ids=["Z2^12", "(Z4)^5"])
def test_decide_ssp_on_a_large_product_lattice_within_budget(factor, count, ideals, budget):
    start = time.perf_counter()
    ring = fr.ring_from_dict({"product": [{"zn": factor}] * count})
    verdict = ssp.decide_ssp(ring)
    assert time.perf_counter() - start < budget
    assert len(all_ideals(ring)) == ideals
    assert verdict.is_ssp and verdict.witness_nonfactorable is None
