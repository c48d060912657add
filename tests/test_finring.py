import ast
import functools
import itertools
import operator
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (INTERNAL_PHRASES, drawn_relabelled_ring, part_specs, reference_free_module,
                      reference_idealization, reference_is_module, reference_poly_quotient,
                      reference_primitive_idempotents, reference_ring_product,
                      reference_special_primary, relabelled, ring_specs)
from radfact import cli
from radfact import finring as fr
from radfact.errors import Bounds, ResourceLimitError
from radfact.finideal import all_ideals, generated_ideal, zero_ideal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "radfact")


def find_isomorphism(a, b):
    """Brute-force ring isomorphism search; usable up to order ~8."""
    if a.order != b.order:
        return None
    for perm in itertools.permutations(range(a.order)):
        p = np.array(perm)
        if p[a.zero] != b.zero or p[a.one] != b.one:
            continue
        if (np.array_equal(p[a.add], b.add[np.ix_(p, p)])
                and np.array_equal(p[a.mul], b.mul[np.ix_(p, p)])):
            return perm
    return None


def test_make_zn_rejects_zero():
    with pytest.raises(ValueError):
        fr.make_zn(0)


def test_zero_ring():
    z1 = fr.make_zn(1)
    assert z1.order == 1
    assert z1.zero == z1.one


def test_zn_tables():
    z4 = fr.make_zn(4)
    assert z4.mul_el(2, 2) == 0
    assert z4.add_el(3, 2) == 1


def test_zn6_local_decomposition_matches_idempotent_oracle():
    z6 = fr.make_zn(6)
    # oracle: exhaustive idempotent scan
    idems = [e for e in range(6) if (e * e) % 6 == e]
    assert idems == [0, 1, 3, 4]
    factors = fr.decompose_local(z6)
    assert sorted(f.order for f in factors) == [2, 3]


def test_poly_quotient_gf4_is_a_field():
    gf4 = fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1])
    assert gf4.order == 4
    # every nonzero element invertible, by exhaustive scan
    for x in range(1, 4):
        assert any(gf4.mul_el(x, y) == gf4.one for y in range(4))


def test_poly_quotient_nilpotent():
    r = fr.make_poly_quotient(fr.make_zn(2), [0, 0, 1])   # Z2[x]/(x^2)
    assert r.order == 4
    x = 2  # digits (0, 1)
    assert r.mul_el(x, x) == r.zero


def test_poly_quotient_degree_one():
    r = fr.make_poly_quotient(fr.make_zn(3), [0, 1])
    assert r.order == 3
    assert find_isomorphism(r, fr.make_zn(3)) is not None


def test_poly_quotient_rejections():
    z2 = fr.make_zn(2)
    with pytest.raises(ValueError):
        fr.make_poly_quotient(z2, [1])          # degree 0
    with pytest.raises(ValueError):
        fr.make_poly_quotient(z2, [1, 1, 0])    # non-monic after reduction
    gf4 = fr.make_poly_quotient(z2, [1, 1, 1])
    with pytest.raises(ValueError):
        fr.make_poly_quotient(gf4, [1, 1])      # base not a make_zn ring


def test_relabelled_zn_is_refused_as_a_poly_quotient_base():
    # every labelling of Z/n is a verified ring; only make_zn's is canonical,
    # including the relabellings that keep zero at 0 and one at 1
    for n in range(1, 7):
        z = fr.make_zn(n)
        for perm in itertools.permutations(range(n)):
            ring = relabelled(z, perm)
            if perm == tuple(range(n)):
                assert fr.make_poly_quotient(ring, [1, 1]).order == n
            else:
                with pytest.raises(ValueError, match="canonical"):
                    fr.make_poly_quotient(ring, [1, 1])


def test_product_isomorphic_to_crt():
    prod = fr.make_product(fr.make_zn(2), fr.make_zn(3))
    assert prod.order == 6
    assert find_isomorphism(prod, fr.make_zn(6)) is not None


def test_product_with_zero_ring_is_identity():
    a = fr.make_zn(4)
    prod = fr.make_product(fr.make_zn(1), a)
    assert prod.order == a.order
    assert find_isomorphism(prod, a) is not None


def test_product_z2_z2_ideal_count():
    prod = fr.make_product(fr.make_zn(2), fr.make_zn(2))
    assert len(all_ideals(prod)) == 4


def test_idealization_module_squares_to_zero():
    z2 = fr.make_zn(2)
    e = fr.free_module(z2, 2)
    b = fr.make_idealization(z2, e)
    assert b.order == 8
    # elements (0, m) are indices 0..3; all pairwise products vanish
    for m1 in range(e.size):
        for m2 in range(e.size):
            assert b.mul_el(m1, m2) == b.zero


def test_idealization_with_zero_module_is_the_ring():
    z6 = fr.make_zn(6)
    b = fr.make_idealization(z6, fr.zero_module(z6))
    assert np.array_equal(b.add, z6.add)
    assert np.array_equal(b.mul, z6.mul)


def test_idealization_rejects_foreign_module():
    z2, z3 = fr.make_zn(2), fr.make_zn(3)
    with pytest.raises(ValueError):
        fr.make_idealization(z2, fr.free_module(z3, 1))


def test_quotient_z4_by_two():
    z4 = fr.make_zn(4)
    i = generated_ideal(z4, [2])
    qr = fr.quotient(z4, i)
    assert qr.order == 2
    assert find_isomorphism(qr, fr.make_zn(2)) is not None


def test_quotient_by_zero_is_identity():
    z6 = fr.make_zn(6)
    qr = fr.quotient(z6, zero_ideal(z6))
    assert np.array_equal(qr.add, z6.add)
    assert np.array_equal(qr.mul, z6.mul)


def test_quotient_poly_ring_by_nilpotent():
    r = fr.make_poly_quotient(fr.make_zn(2), [0, 0, 1])
    qr = fr.quotient(r, generated_ideal(r, [2]))
    assert qr.order == 2


def test_regular_elements():
    assert fr.regular_elements(fr.make_zn(6)) == (1, 5)
    assert fr.regular_elements(fr.make_zn(4)) == (1, 3)
    gf4 = fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1])
    assert fr.regular_elements(gf4) == (1, 2, 3)


def test_regular_elements_equal_units():
    rings = [fr.make_zn(n) for n in range(1, 25)]
    rings.append(fr.make_poly_quotient(fr.make_zn(3), [0, 0, 1]))
    rings.append(fr.make_product(fr.make_zn(4), fr.make_zn(6)))
    for ring in rings:
        assert fr.regular_elements(ring) == fr.units(ring)


def test_decompose_local_z12():
    z12 = fr.make_zn(12)
    # idempotent oracle
    assert [e for e in range(12) if e * e % 12 == e] == [0, 1, 4, 9]
    factors = fr.decompose_local(z12)
    assert sorted(f.order for f in factors) == [3, 4]


def test_decompose_local_of_local_ring_is_trivial():
    z8 = fr.make_zn(8)
    factors = fr.decompose_local(z8)
    assert len(factors) == 1
    assert factors[0].order == 8
    assert factors[0] is z8


def test_decompose_local_cube():
    r = fr.make_product(fr.make_product(fr.make_zn(2), fr.make_zn(2)), fr.make_zn(2))
    factors = fr.decompose_local(r)
    assert [f.order for f in factors] == [2, 2, 2]


def test_decompose_local_refuses_tables_whose_idempotents_do_not_sum_to_one():
    # an all-zero mul (1*1 = 0) is no ring and gets in only through _trusted
    broken = fr.FinRing._trusted(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]], 0, 1, "broken")
    with pytest.raises(ArithmeticError, match="do not sum to 1"):
        fr.decompose_local(broken)


def test_decompose_local_is_a_bijection():
    for ring in (fr.make_zn(12), fr.make_zn(30), fr.make_product(fr.make_zn(4), fr.make_zn(9))):
        factors = fr.decompose_local(ring)
        idems = sorted(e for e in fr.idempotents(ring)
                       if e != ring.zero
                       and all(f in (ring.zero, e) for f in fr.idempotents(ring)
                               if ring.mul_el(e, f) == f))
        images = set()
        for x in range(ring.order):
            images.add(tuple(ring.mul_el(e, x) for e in idems))
        assert len(images) == ring.order
        assert np.prod([f.order for f in factors]) == ring.order


def test_primitive_idempotents_match_the_pairwise_scan_beyond_the_catalog():
    # the catalog and drawn rings are in test_sspengine's oracle-route tests
    for ring in (fr.ring_from_dict({"product": [{"zn": 2}] * 10}), fr.make_zn(2 * 3 * 5 * 7 * 11)):
        assert fr._primitive_idempotents(ring) == reference_primitive_idempotents(ring), ring.label


def test_a_ring_with_no_idempotent_but_0_and_1_is_local_without_principal_masks():
    ring = fr.make_zn(2048)
    assert fr._primitive_idempotents(ring) == [ring.one]
    assert fr.decompose_local(ring) == [ring]
    assert "principal_masks" not in ring._cache


def reference_subring_of_idempotent(a, e):
    """Oracle: eA on the members of row e of mul, relabelled through a position map."""
    members = np.unique(a.mul[e])
    pos = np.full(a.order, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    sadd = pos[a.add[np.ix_(members, members)]]
    smul = pos[a.mul[np.ix_(members, members)]]
    return members.size, int(pos[a.zero]), int(pos[e]), sadd, smul


def reference_cosets(a, ideal):
    """Oracle: least coset representatives and the position of each in their sorted list."""
    members = np.array(ideal.elements, dtype=np.intp)
    reps = a.add[:, members].min(axis=1)
    keep = np.unique(reps)
    pos = np.full(a.order, -1, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    return reps, keep, pos


def reference_quotient(a, ideal):
    reps, keep, pos = reference_cosets(a, ideal)
    qadd = pos[reps[a.add[np.ix_(keep, keep)]]]
    qmul = pos[reps[a.mul[np.ix_(keep, keep)]]]
    return keep.size, int(pos[reps[a.zero]]), int(pos[reps[a.one]]), qadd, qmul


def reference_quotient_module(a, ideal):
    reps, keep, pos = reference_cosets(a, ideal)
    add = pos[reps[a.add[np.ix_(keep, keep)]]]
    action = pos[reps[a.mul[:, keep]]]
    return keep.size, int(pos[reps[a.zero]]), add, action


def primitive_idempotents(a):
    idems = fr.idempotents(a)
    return [e for e in idems if e != a.zero
            and all(f in (a.zero, e) for f in idems if a.mul_el(e, f) == f)]


def ring_tables(r):
    return r.order, r.zero, r.one, r.add, r.mul


def assert_same_tables(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_projections_match_the_position_map_oracles():
    catalog = [fr.ring_from_dict(spec) for spec in cli.default_catalog_specs()]
    factors = 0
    for ring in catalog:
        prim = primitive_idempotents(ring)
        local = fr.decompose_local(ring)
        assert len(local) == len(prim)
        for e, f in zip(prim, local):
            assert_same_tables(ring_tables(f), reference_subring_of_idempotent(ring, e))
        factors += len(local)
        if ring.order > 16:
            continue
        for ideal in all_ideals(ring):
            assert_same_tables(ring_tables(fr.quotient(ring, ideal)),
                               reference_quotient(ring, ideal))
            m = fr.quotient_module(ring, ideal)
            assert_same_tables((m.size, m.zero, m.add, m.action),
                               reference_quotient_module(ring, ideal))
    assert factors == 2035


def test_local_factors_of_z6_exact_tables():
    f2, f3 = fr.decompose_local(fr.make_zn(6))
    # e = 3: 3*Z6 = {0, 3}, one = 3 -> index 1
    assert_same_tables(ring_tables(f2), (2, 0, 1, [[0, 1], [1, 0]], [[0, 0], [0, 1]]))
    # e = 4: 4*Z6 = {0, 2, 4}, one = 4 -> index 2
    assert_same_tables(ring_tables(f3), (3, 0, 2, [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                                         [[0, 0, 0], [0, 2, 1], [0, 1, 2]]))
    assert (f2.label, f3.label) == ("Z6|e=3", "Z6|e=4")


def test_is_special_primary_z9():
    v = fr.is_special_primary(fr.make_zn(9))
    assert v.is_special_primary
    assert v.maximal_ideal.to_list() == [0, 3, 6]
    assert v.nilpotency_index == 2


def test_is_special_primary_field():
    gf4 = fr.make_poly_quotient(fr.make_zn(2), [1, 1, 1])
    v = fr.is_special_primary(gf4)
    assert v.is_special_primary
    assert v.maximal_ideal.to_list() == [0]
    assert v.nilpotency_index == 1


def test_is_special_primary_flagship_counterexample():
    z2 = fr.make_zn(2)
    b = fr.make_idealization(z2, fr.free_module(z2, 2))
    v = fr.is_special_primary(b)
    assert not v.is_special_primary
    assert v.maximal_ideal.to_list() == [0, 1, 2, 3]


def verdict_fields(v):
    m = v.maximal_ideal
    return v.is_special_primary, None if m is None else m.mask, v.nilpotency_index


def test_special_primary_matches_the_lattice_oracle_on_the_catalog(catalog_rings):
    factors = [f for ring in catalog_rings for f in fr.decompose_local(ring)]
    assert len(factors) == 2035
    for f in factors + catalog_rings:       # the local factors, then rings local or not
        assert verdict_fields(fr.is_special_primary(f)) == \
            verdict_fields(reference_special_primary(f)), f.label


def test_special_primary_of_the_2826_ideal_idealization():
    z2 = fr.make_zn(2)
    b = fr.make_idealization(z2, fr.free_module(z2, 6))
    v = fr.is_special_primary(b)
    assert verdict_fields(v) == (False, (1 << 64) - 1, 2)    # M = {(0, m)}, indices 0..63
    assert "ideals" not in b._cache          # decided without the lattice
    assert verdict_fields(v) == verdict_fields(reference_special_primary(b))


@settings(deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1))
def test_special_primary_matches_the_lattice_oracle_on_drawn_rings(spec, seed):
    """Also with zero and one moved off indices 0 and 1, where the OR of the
    principal ideals inside eA must not lean on zero's index."""
    base, ring, _ = drawn_relabelled_ring(spec, seed, 128)
    for f in [base, ring] + fr.decompose_local(base) + fr.decompose_local(ring):
        assert verdict_fields(fr.is_special_primary(f)) == \
            verdict_fields(reference_special_primary(f)), f.label


@pytest.mark.parametrize("spec", [{"product": [{"zn": 2}] * 12}, {"zn": 251}],
                         ids=["Z2^12", "Z251"])
def test_local_factors_visit_no_member_of_a_factor(spec, monkeypatch):
    """A work count for the verdict per principal class: the maximal ideal of
    each eA is an OR of the class rows' bitsets, so no element list is packed
    (`mask_of`) and no bitset is unpacked (`_bits`), even with 4096 classes."""
    from radfact import finideal, sspengine

    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for module in (fr, finideal):
        for name in ("mask_of", "_bits"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    ring = fr.ring_from_dict(spec)
    factors = sspengine.local_factors(ring)
    assert [v.is_special_primary for _, v in factors] == [True] * len(factors)
    assert calls == []


def test_special_primary_ideal_count_is_t_plus_one():
    for ring in (fr.make_zn(9), fr.make_zn(8), fr.make_zn(5),
                 fr.make_poly_quotient(fr.make_zn(2), [0, 0, 0, 1])):
        v = fr.is_special_primary(ring)
        assert v.is_special_primary
        assert len(all_ideals(ring)) == v.nilpotency_index + 1


def test_from_tables_validates_axioms():
    spec = fr.ring_to_dict(fr.make_zn(4))
    ring = fr.ring_from_dict(spec)
    assert ring.order == 4
    bad = fr.ring_to_dict(fr.make_zn(4))
    bad["mul"][2][3] = 1
    with pytest.raises(ValueError):
        fr.ring_from_dict(bad)


@pytest.mark.parametrize("entry", [np.int64(2 ** 32), 2 ** 70, 1.5])
def test_table_entries_that_the_int32_cast_would_change_are_refused(entry):
    # at 2**32 the cast to int32 used to wrap to 0 and build Z2 silently
    add = np.array([[0, 1], [1, entry]], dtype=type(entry) if entry != 2 ** 70 else object)
    with pytest.raises(ValueError, match="int32"):
        fr.FinRing(2, add, np.array([[0, 0], [0, 1]]), 0, 1)
    assert fr.FinRing(2, np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 1]]), 0, 1).order == 2


@pytest.mark.parametrize("add", [[[0, 1], [1]], [["a", "b"], ["b", "a"]]], ids=["ragged", "text"])
def test_tables_that_are_not_integer_arrays_are_refused(add):
    with pytest.raises(ValueError, match="^table entry is not an int32 integer$"):
        fr.FinRing(2, add, [[0, 0], [0, 1]], 0, 1)


def op_table(op, n):
    return [[op(a, b) % n for b in range(n)] for a in range(n)]


def edited(table, *entries):
    """A copy of `table` with entry [i][j] set to v for each (i, j, v)."""
    out = [row[:] for row in table]
    for i, j, v in entries:
        out[i][j] = v
    return out


Z2_ADD, Z3_ADD, Z4_ADD = (op_table(operator.add, n) for n in (2, 3, 4))
Z2_MUL, Z3_MUL, Z4_MUL = (op_table(operator.mul, n) for n in (2, 3, 4))
Z2, Z3 = fr.make_zn(2), fr.make_zn(3)
Z2_DUAL = fr.make_poly_quotient(Z2, [0, 0, 1])     # Z2[x]/(x^2): 1 is index 1, x is index 2
# order 3 with identity 0: row 1 has no 0
NO_INVERSE = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
# order 3 with identity 0, 1+1 = 2+2 = 0 and 1+2 = 1: commutative, every row
# holds 0, but (1+1)+2 = 2 and 1+(1+2) = 0
NOT_ASSOCIATIVE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
# F2^3 on the basis 1, a, b (bits 0, 1, 2), multiplied bilinearly with aa = b,
# ab = 0 and bb = 1: a commutative unital distributive product, but
# (aa)b = 1 and a(ab) = 0
BASIS_PRODUCTS = [[1, 2, 4], [2, 4, 0], [4, 0, 1]]
XOR_ADD = [[x ^ y for y in range(8)] for x in range(8)]
NONASSOCIATIVE_MUL = [[functools.reduce(operator.xor, (
    BASIS_PRODUCTS[i][j] for i in range(3) for j in range(3) if x >> i & 1 and y >> j & 1), 0)
    for y in range(8)] for x in range(8)]

# Actions on Z2 that pass every check before one action axiom and break it:
# over Z2[x]/(x^2), x*0 = 1; over Z2, 0 acts as 1; over the zero ring, whose
# 0 is its 1, (0 + 0)m = 0m + 0m forces m = 0; over Z2[x]/(x^2), x acts as
# 1, so x*(x*m) = m but (x*x)*m = 0
ACTION_AXIOM_CASES = [
    pytest.param(Z2_DUAL, [[0, 0], [0, 1], [1, 1], [1, 0]],
                 "action is not additive in the module argument", id="module-argument"),
    pytest.param(Z2, [[0, 1], [0, 1]],
                 "action is not additive in the ring argument", id="ring-argument"),
    pytest.param(fr.make_zn(1), [[0, 1]],
                 "action is not additive in the ring argument", id="zero-ring"),
    pytest.param(Z2_DUAL, [[0, 0], [0, 1], [0, 1], [0, 0]],
                 "action does not respect ring multiplication", id="multiplication"),
]


def ring_case(order, add, mul, zero, one, message, id):
    return pytest.param(lambda: fr.FinRing(order, add, mul, zero, one), message, id=id)


def module_case(ring, size, add, zero, action, message, id):
    return pytest.param(lambda: fr.FinModule(ring, size, add, zero, action), message, id=id)


# One case per refusal in the table verifiers, in the order they check: each
# table passes every earlier check and is refused by its own.
@pytest.mark.parametrize("build, message", [
    ring_case(0, np.zeros((0, 0)), np.zeros((0, 0)), 0, 0, "ring order must be positive",
              "ring-order-0"),
    ring_case(3, Z2_ADD, Z3_MUL, 0, 1, r"ring addition table has shape \(2, 2\), not \(3, 3\)",
              "ring-addition-too-small"),
    ring_case(2, Z3_ADD, Z2_MUL, 0, 1, r"ring addition table has shape \(3, 3\), not \(2, 2\)",
              "ring-addition-too-large"),
    ring_case(3, edited(Z3_ADD, (1, 1, 3)), Z3_MUL, 0, 1,
              r"ring addition table has an entry outside 0\.\.2", "ring-addition-entry-3"),
    ring_case(3, edited(Z3_ADD, (1, 1, -1)), Z3_MUL, 0, 1,
              r"ring addition table has an entry outside 0\.\.2", "ring-addition-entry-negative"),
    ring_case(2, Z2_ADD, Z2_MUL, 0.0, 1, "ring zero must be an integer, got 0.0",
              "ring-zero-float"),
    ring_case(2, Z2_ADD, Z2_MUL, False, 1, "ring zero must be an integer, got False",
              "ring-zero-bool"),
    ring_case(3, Z3_ADD, Z3_MUL, 3, 1,
              "ring zero index 3 is outside the 3 rows of the ring addition table",
              "ring-zero-3"),
    ring_case(3, Z3_ADD, Z3_MUL, -1, 1,
              "ring zero index -1 is outside the 3 rows of the ring addition table",
              "ring-zero-negative"),
    ring_case(3, edited(Z3_ADD, (1, 2, 1)), Z3_MUL, 0, 1, "ring addition is not commutative",
              "ring-addition-not-commutative"),
    ring_case(3, Z3_ADD, Z3_MUL, 1, 1, "ring zero is not an identity for ring addition",
              "ring-zero-not-identity"),
    ring_case(3, NO_INVERSE, Z3_MUL, 0, 1, "ring: an element has no additive inverse",
              "ring-no-inverse"),
    ring_case(3, NOT_ASSOCIATIVE, Z3_MUL, 0, 1, "ring: addition is not associative",
              "ring-addition-not-associative"),
    ring_case(3, Z3_ADD, Z2_MUL, 0, 1,
              r"ring multiplication table has shape \(2, 2\), not \(3, 3\)",
              "ring-multiplication-shape"),
    ring_case(3, Z3_ADD, edited(Z3_MUL, (2, 2, 5)), 0, 1,
              r"ring multiplication table has an entry outside 0\.\.2",
              "ring-multiplication-entry"),
    ring_case(3, Z3_ADD, Z3_MUL, 0, 1.0, "ring one must be an integer, got 1.0",
              "ring-one-float"),
    ring_case(3, Z3_ADD, Z3_MUL, 0, 3,
              "ring one index 3 is outside the 3 rows of the ring multiplication table",
              "ring-one-3"),
    ring_case(3, Z3_ADD, edited(Z3_MUL, (2, 0, 1)), 0, 1,
              "ring multiplication is not commutative", "ring-multiplication-not-commutative"),
    ring_case(3, Z3_ADD, edited(Z3_MUL, (1, 2, 0), (2, 1, 0)), 0, 1,
              "ring one is not an identity for ring multiplication", "ring-one-not-identity"),
    ring_case(2, Z2_ADD, [[0, 1], [1, 0]], 0, 0,
              "zero is not multiplicatively absorbing", "ring-zero-is-one"),
    ring_case(3, Z3_ADD, [[1, 0, 0], [0, 1, 2], [0, 2, 1]], 0, 1,
              "zero is not multiplicatively absorbing", "ring-zero-not-absorbing"),
    ring_case(4, Z4_ADD, edited(Z4_MUL, (2, 2, 2)), 0, 1,
              "multiplication does not distribute over addition", "ring-not-distributive"),
    ring_case(8, XOR_ADD, NONASSOCIATIVE_MUL, 0, 1, "multiplication is not associative",
              "ring-multiplication-not-associative"),
    module_case("Z2", 2, Z2_ADD, 0, Z2_MUL, "ring must be a FinRing, got 'Z2'",
                "module-ring-not-finring"),
    module_case(Z2, 2, Z3_ADD, 0, Z2_MUL,
                r"module addition table has shape \(3, 3\), not \(2, 2\)",
                "module-addition-shape"),
    module_case(Z2, 2, edited(Z2_ADD, (1, 1, 2)), 0, Z2_MUL,
                r"module addition table has an entry outside 0\.\.1", "module-addition-entry"),
    module_case(Z2, 2, Z2_ADD, 0.0, Z2_MUL, "module zero must be an integer, got 0.0",
                "module-zero-float"),
    module_case(Z2, 2, Z2_ADD, 5, Z2_MUL,
                "module zero index 5 is outside the 2 rows of the module addition table",
                "module-zero-5"),
    module_case(Z2, 0, np.zeros((0, 0)), 0, np.zeros((2, 0)),
                "module zero index 0 is outside the 0 rows of the module addition table",
                "module-size-0"),
    module_case(Z3, 3, edited(Z3_ADD, (1, 2, 1)), 0, Z3_MUL,
                "module addition is not commutative", "module-addition-not-commutative"),
    module_case(Z2, 2, Z2_ADD, 1, Z2_MUL, "module zero is not an identity for module addition",
                "module-zero-not-identity"),
    module_case(Z3, 3, NO_INVERSE, 0, Z3_MUL, "module: an element has no additive inverse",
                "module-no-inverse"),
    module_case(Z3, 3, NOT_ASSOCIATIVE, 0, Z3_MUL, "module: addition is not associative",
                "module-addition-not-associative"),
    module_case(Z2, 2, Z2_ADD, 0, [[0, 0, 0], [0, 1, 0]],
                r"action table has shape \(2, 3\), not \(2, 2\)", "action-shape"),
    module_case(Z2, 2, Z2_ADD, 0, [[0, 0], [0, 2]],
                r"action table has an entry outside 0\.\.1", "action-entry"),
    module_case(Z2, 2, Z2_ADD, 0, [[0, 0], [0, 0]], "ring one is not an identity for action",
                "action-one-not-identity"),
    *[module_case(ring, 2, Z2_ADD, 0, action, message, f"action-{case.id}")
      for case in ACTION_AXIOM_CASES for ring, action, message in [case.values]],
])
def test_each_verifier_check_refuses_its_table(build, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        build()
    assert not any(phrase in str(exc.value) for phrase in INTERNAL_PHRASES)


@pytest.mark.parametrize("ring, action, message", ACTION_AXIOM_CASES)
def test_hand_built_actions_are_not_modules(ring, action, message):
    assert not reference_is_module(ring, 2, np.array(Z2_ADD), 0, np.array(action))


@st.composite
def mutated_module(draw):
    """A free module, a ring as a module over itself, or a quotient module, of
    a drawn (and relabelled) ring, with one entry of its action table or of
    its addition table (and the mirrored entry) changed; or, unchanged, a
    cyclic group of order at least 2 on which the zero ring acts as the
    identity, which is no module."""
    kind = draw(st.sampled_from(["free", "self", "quotient", "zero-ring"]))
    if kind == "zero-ring":
        group = fr.make_zn(draw(st.integers(2, 8)))
        identity = np.arange(group.order)[None, :]
        return fr.make_zn(1), group.order, np.array(group.add), group.zero, identity
    try:
        base = fr.ring_from_dict(draw(ring_specs), Bounds(order=32))
    except ResourceLimitError:
        assume(False)
    ring = relabelled(base, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
                      .permutation(base.order))
    if kind == "free":
        m = fr.free_module(ring, draw(st.integers(1, 2 if ring.order <= 8 else 1)))
    elif kind == "self":
        m = fr.module_from_ring(ring)
    else:
        units = fr.units(ring)
        non_units = [x for x in range(ring.order) if x not in units] or [ring.zero]
        m = fr.quotient_module(ring, generated_ideal(
            ring, draw(st.lists(st.sampled_from(non_units), max_size=2))))
    assume(m.size > 1)
    add, action = np.array(m.add), np.array(m.action)
    table, rows = (add, m.size) if draw(st.booleans()) else (action, ring.order)
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, m.size - 1))
    table[i, j] = (table[i, j] + draw(st.integers(1, m.size - 1))) % m.size
    if table is add:
        add[j, i] = add[i, j]
    return ring, m.size, add, m.zero, action


@settings(max_examples=200, deadline=None)
@given(mutated_module())
def test_generator_certificate_agrees_with_the_every_element_check(module):
    try:
        fr._verify_module_tables(*module)
        certified = True
    except ValueError:
        certified = False
    assert certified == reference_is_module(*module)


def test_module_on_256_elements_verifies_in_well_under_50_ms():
    m = fr.free_module(fr.make_zn(256), 1)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fr.FinModule(m.ring, m.size, m.add, m.zero, m.action)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_max_order_bound():
    with pytest.raises(ResourceLimitError) as exc:
        fr.make_zn(fr.MAX_ORDER + 1)
    assert exc.value.bound == "max-order"


Z64, Z65 = fr.make_zn(64), fr.make_zn(65)


@pytest.mark.parametrize("build, observed", [
    (lambda: fr.make_zn(fr.MAX_ORDER + 1), fr.MAX_ORDER + 1),
    (lambda: fr.make_poly_quotient(Z2, [1] + [0] * 12 + [1]), "2^13"),
    (lambda: fr.make_product(Z64, Z65), 64 * 65),
    (lambda: fr.free_module(Z2, 13), "2^13"),
    (lambda: fr.make_idealization(Z65, fr.module_from_ring(Z65)), 65 * 65),
], ids=["zn", "poly_quotient", "product", "free_module", "idealization"])
def test_order_bound_is_checked_before_allocating(build, observed):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.bound == "max-order" and exc.value.value == fr.MAX_ORDER
    assert exc.value.observed == observed
    assert peak < 8 * 2 ** 20


def test_shorthand_dispatch():
    r = fr.ring_from_dict({"product": [{"zn": 2}, {"zn": 3}]})
    assert r.order == 6
    r = fr.ring_from_dict({"idealization": {"zn": 2, "module_rank": 2}})
    assert r.order == 8
    r = fr.ring_from_dict({"poly_quotient": {"zn": 2, "f": [1, 1, 1]}})
    assert r.order == 4
    with pytest.raises(ValueError):
        fr.ring_from_dict({"nonsense": 1})


def test_quotient_module_and_self_module():
    z6 = fr.make_zn(6)
    m = fr.quotient_module(z6, generated_ideal(z6, [2]))
    assert m.size == 2
    self_m = fr.module_from_ring(z6)
    assert self_m.size == 6


def as_index_array(xs):
    return np.array(xs, dtype=np.intp)


@given(st.lists(st.integers(min_value=0, max_value=300), max_size=40),
       st.sampled_from([list, tuple, as_index_array]))
@example([], list)
@example([], tuple)
@example([], as_index_array)
def test_mask_of_round_trips_through_elements_of(xs, container):
    assert fr.elements_of(fr.mask_of(container(xs))) == tuple(sorted(set(xs)))


@given(st.lists(st.integers(min_value=0, max_value=300), max_size=10),
       st.integers(max_value=-1))
def test_mask_of_rejects_negative_index(xs, bad):
    with pytest.raises(ValueError):
        fr.mask_of(xs + [bad])


# The internal constructors skip axiom verification (`FinRing._trusted`);
# the tests below run the verifier on what they build.

def assert_ring(r):
    fr._verify_ring_tables(r.order, r.add, r.mul, r.zero, r.one)


def assert_module(m):
    fr._verify_module_tables(m.ring, m.size, m.add, m.zero, m.action)


def test_catalog_rings_and_their_local_factors_pass_the_verifier(catalog_rings):
    for ring in catalog_rings:
        assert_ring(ring)
        for f in fr.decompose_local(ring):
            assert_ring(f)


def test_quotients_of_small_catalog_rings_pass_the_verifier(catalog_rings):
    quotients = 0
    for ring in catalog_rings:
        if ring.order > 16:
            continue
        for ideal in all_ideals(ring):
            assert_ring(fr.quotient(ring, ideal))
            assert_module(fr.quotient_module(ring, ideal))
            quotients += 1
    assert quotients == 370


self_idealization_specs = st.integers(1, 11).map(
    lambda n: {"idealization": {"zn": n, "module": "self"}})
construction_specs = st.one_of(ring_specs, self_idealization_specs, st.lists(
    st.one_of(part_specs, self_idealization_specs), min_size=2, max_size=2).map(
    lambda parts: {"product": parts}))


def assert_constructions_pass_the_verifier(ring, gens, rank, bounds):
    """Run the verifier on `ring` and on what the internal constructors build from it."""
    assert_ring(ring)
    for f in fr.decompose_local(ring):
        assert_ring(f)
    ideal = generated_ideal(ring, [g % ring.order for g in gens])
    assert_ring(fr.quotient(ring, ideal))
    assert_module(fr.quotient_module(ring, ideal))
    modules = [fr.module_from_ring(ring)]
    try:
        modules.append(fr.free_module(ring, rank, bounds))
    except ResourceLimitError:
        pass
    for m in modules:
        assert_module(m)
        try:
            assert_ring(fr.make_idealization(ring, m, bounds))
        except ResourceLimitError:
            pass


@settings(max_examples=100, deadline=None)
@given(construction_specs, st.lists(st.integers(0, 127), max_size=3), st.integers(0, 2))
def test_drawn_constructions_pass_the_verifier(spec, gens, rank):
    bounds = Bounds(order=128)
    try:
        ring = fr.ring_from_dict(spec, bounds)
    except ResourceLimitError:
        assume(False)
    assert_constructions_pass_the_verifier(ring, gens, rank, bounds)


# Z2 with its elements swapped: a valid table ring whose zero is index 1
SWAPPED_Z2 = {"order": 2, "zero": 1, "one": 0, "add": [[1, 0], [0, 1]], "mul": [[0, 1], [1, 1]]}


def test_constructions_over_rings_whose_zero_is_not_index_0():
    z2 = fr.ring_from_dict(SWAPPED_Z2)
    bounds = Bounds(order=128)
    rings = [z2, fr.make_product(fr.make_zn(3), z2),
             fr.make_idealization(z2, fr.module_from_ring(z2))]
    assert [r.zero for r in rings] == [1, 1, 3]
    for ring in rings:
        for rank in range(3):
            m = fr.free_module(ring, rank, bounds)
            assert m.add[m.zero].tolist() == list(range(m.size))
            for g in range(ring.order):
                assert_constructions_pass_the_verifier(ring, [g], rank, bounds)


@settings(max_examples=60, deadline=None)
@given(ring_specs, st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 31), max_size=2),
       st.integers(0, 2))
def test_constructions_over_relabelled_rings_pass_the_verifier(spec, seed, gens, rank):
    try:
        base = fr.ring_from_dict(spec, Bounds(order=32))
    except ResourceLimitError:
        assume(False)
    ring = relabelled(base, np.random.default_rng(seed).permutation(base.order))
    bounds = Bounds(order=128)
    assert_constructions_pass_the_verifier(ring, gens, rank, bounds)
    for product in (fr.make_product(ring, fr.make_zn(2)), fr.make_product(fr.make_zn(3), ring)):
        assert_ring(product)
        assert_module(fr.module_from_ring(product))


def test_trusted_constructors_are_called_only_in_finring_py():
    calls = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_trusted"):
                calls.setdefault(name, []).append(node.lineno)
    assert list(calls) == ["finring.py"]


def test_bitset_format_is_packed_and_unpacked_only_in_finring_py():
    words = ("packbits", "unpackbits", "from_bytes", "to_bytes")
    users = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                text = fh.read()
            users += [f"{name}: {w}" for w in words if w in text]
    assert {user.split(":")[0] for user in users} == {"finring.py"}, users


@pytest.mark.parametrize("build, sums, squares", [
    (lambda: fr.make_zn(4096), 1, 1),
    (lambda: fr.make_product(Z64, Z64), 63 * 64 + 1, 65),
    (lambda: fr.make_idealization(Z2, fr.free_module(Z2, 11)), 4093, 2048),
    (lambda: fr.make_poly_quotient(Z2, [0] * 12 + [1]), 4093, 1365),
], ids=["zn", "product", "idealization", "poly_quotient"])
def test_make_zn_4096_builds_int32_tables_without_wide_intermediates(build, sums, squares):
    tracemalloc.start()
    try:
        z = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.order == 4096
    assert z.add.dtype == np.int32 and z.mul.dtype == np.int32
    assert not z.add.flags.writeable and not z.mul.flags.writeable
    assert (z.add_el(4095, 2), z.mul_el(4095, 4095)) == (sums, squares)
    assert peak < 256 * 2 ** 20


def test_poly_quotient_of_order_4096_builds_in_under_4_s():
    start = time.perf_counter()
    fr.make_poly_quotient(fr.make_zn(2), [0] * 12 + [1])
    assert time.perf_counter() - start < 4.0


def assert_same_construction(got, want):
    names = ("add", "mul", "zero", "one", "order", "label") if isinstance(want, fr.FinRing) \
        else ("add", "action", "zero", "size", "label")
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def test_poly_quotient_matches_the_row_fill_for_every_modulus_up_to_order_64():
    count = 0
    for n in range(1, 65):
        base = fr.make_zn(n)
        for d in range(1, 7):
            if n ** d > 64 or (n == 1 and d > 3):
                break
            for low in itertools.product(range(n), repeat=d):
                f = list(low) + [1]
                assert_same_construction(fr.make_poly_quotient(base, f),
                                         reference_poly_quotient(base, f))
                count += 1
    assert count == 2496


@st.composite
def moduli_up_to_order_600(draw):
    d = draw(st.integers(1, 9))
    n = draw(st.integers(2, int(round(600 ** (1 / d))) + 1).filter(lambda n: n ** d <= 600))
    return n, draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)) + [1]


@settings(max_examples=40, deadline=None)
@given(moduli_up_to_order_600())
@example((2, [1] + [0] * 8 + [1]))
@example((24, [23, 0, 1]))
@example((600, [599, 1]))
def test_poly_quotient_matches_the_row_fill_up_to_order_600(modulus):
    n, f = modulus
    base = fr.make_zn(n)
    assert_same_construction(fr.make_poly_quotient(base, f), reference_poly_quotient(base, f))


@settings(max_examples=60, deadline=None)
@given(part_specs, part_specs, st.integers(0, 2 ** 32 - 1), st.integers(0, 2),
       st.sampled_from([fr._PAIR_BLOCK, 1, 7, 64]))
def test_products_and_idealizations_match_the_element_fill(first, second, seed, rank, block):
    """`_pair_table`'s row-block fill against one element at a time, on drawn
    parts and on the same parts with zero and one moved off indices 0 and 1.
    Small blocks split the fill into blocks of rows and of tiled columns."""
    a, moved_a, _ = drawn_relabelled_ring(first, seed, 16)
    b, moved_b, _ = drawn_relabelled_ring(second, seed + 1, 16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fr, "_PAIR_BLOCK", block)
        for x, y in ((a, b), (moved_a, moved_b), (a, moved_b)):
            assert_same_construction(fr.make_product(x, y), reference_ring_product(x, y))
            modules = [fr.module_from_ring(x)]
            if x.order ** (rank + 1) <= 256:
                modules.append(fr.free_module(x, rank))
            for e in modules:
                assert_same_construction(fr.make_idealization(x, e), reference_idealization(x, e))


@pytest.mark.parametrize("build, parent_peak_mib", [
    (lambda: fr.free_module(Z2, 12), 80.05),
    (lambda: fr.ring_from_dict({"idealization": {"zn": 2, "module_rank": 11}}), 144.05),
], ids=["free_module", "idealization"])
def test_row_block_fill_holds_one_table_at_order_4096(build, parent_peak_mib):
    """The traced peak of the broadcast fill that the row-block fill replaced,
    plus one repeated or tiled block: never a second full-size table (64 MiB)."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < parent_peak_mib * 2 ** 20 + 4 * fr._PAIR_BLOCK, peak / 2 ** 20


def test_free_module_matches_the_digit_fill():
    z4 = fr.make_zn(4)
    moved = relabelled(z4, [2, 0, 3, 1])        # Z4 with zero at index 2
    rings = [fr.make_zn(n) for n in range(1, 8)] + [moved]
    for ring in rings:
        for rank in range(5):
            if ring.order ** rank <= 2401:
                assert_same_construction(fr.free_module(ring, rank),
                                         reference_free_module(ring, rank))
    assert fr.free_module(moved, 3).zero == 2 * (1 + 4 + 16)


def test_free_module_matches_the_digit_fill_over_catalog_rings(catalog_rings):
    specs = cli.default_catalog_specs()
    rings = [r for spec, r in zip(specs, catalog_rings)
             if "poly_quotient" in spec or "product" in spec]
    assert len(rings) > 100
    for ring in rings:
        for rank in (1, 2):
            if ring.order ** rank <= 64:
                assert_same_construction(fr.free_module(ring, rank),
                                         reference_free_module(ring, rank))


def test_free_module_over_the_zero_ring_returns_at_once():
    start = time.perf_counter()
    m = fr.free_module(fr.make_zn(1), 10 ** 9)
    assert time.perf_counter() - start < 0.5
    assert (m.size, m.zero, m.add.tolist(), m.action.tolist()) == (1, 0, [[0]], [[0]])


def test_module_and_quotient_constructors_refuse_bad_arguments():
    z4, z6 = fr.make_zn(4), fr.make_zn(6)
    with pytest.raises(ValueError, match="^rank must be >= 0$"):
        fr.free_module(z4, -1)
    with pytest.raises(ValueError, match="^ideal belongs to a different ring$"):
        fr.quotient(z4, zero_ideal(z6))


def test_module_repr_names_the_module_its_size_and_its_ring():
    z4 = fr.make_zn(4)
    assert repr(fr.free_module(z4, 2)) == "FinModule('Z4^2', size=16, over='Z4')"
    assert repr(fr.module_from_ring(z4)) == "FinModule('Z4 (self)', size=4, over='Z4')"
