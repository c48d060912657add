"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[acceptance] criterion N (...): PASS/FAIL` line;
run with `pytest -s tests/test_acceptance.py` to watch them stream.
The randomized criteria honour RADFACT_SEED (see conftest).
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (SEED, SUPPORTED_D, primes_containing, random_quad_ideal,
                      random_zpi_ideal, reference_idealization_ssp)
from radfact import cli
from radfact import finring as fr
from radfact import polychain as pc
from radfact import quadring as q
from radfact import sspengine as ssp
from radfact import zpicompose as z
from radfact.finideal import all_ideals, ideal_power
from radfact.polychain import RatPoly


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} runtime {elapsed:.1f}s exceeds its {budget}s budget")
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num} ({name}): {status} ({elapsed:.1f}s)",
              flush=True)


def test_criterion_1_flagship_negative_example():
    with criterion(1, "flagship non-SSP idealization", budget=1.0):
        z2 = fr.make_zn(2)
        b = fr.make_idealization(z2, fr.free_module(z2, 2))
        assert b.order == 8
        verdict = ssp.decide_ssp(b)
        assert verdict.is_ssp is False
        assert len(verdict.witness_nonfactorable) == 2
        closure = ssp.radical_closure(b)
        assert {tuple(m.to_list()) for m in closure.members} == {
            (0,), (0, 1, 2, 3), tuple(range(8))}


def test_criterion_2_oracle_equivalence_catalog():
    with criterion(2, "decide_ssp == structural_ssp over the catalog", budget=60.0):
        specs = cli.default_catalog_specs()
        assert len(specs) >= 200
        rows = cli.census_rows(specs)
        disagreements = [r for r in rows if not r["agree"]]
        assert disagreements == []


def _vnr_multiplication_pairs():
    z2, z3, z5 = fr.make_zn(2), fr.make_zn(3), fr.make_zn(5)
    gf4 = fr.make_poly_quotient(z2, [1, 1, 1])
    rings = [z2, z3, z5, gf4,
             fr.make_product(z2, z2), fr.make_zn(6),
             fr.make_product(fr.make_product(z2, z2), z2),
             fr.make_product(gf4, z3)]
    pairs = []
    for a in rings:
        modules = [fr.zero_module(a), fr.module_from_ring(a)]
        modules.extend(fr.quotient_module(a, i) for i in all_ideals(a))
        for e in modules:
            if a.order * e.size <= 256:
                pairs.append((a, e))
    return pairs


def test_criterion_3_proposition_16_suite():
    with criterion(3, "VNR + multiplication module => SSP idealization"):
        pairs = _vnr_multiplication_pairs()
        assert len(pairs) >= 20
        for a, e in pairs:
            assert ssp.is_vnr(a), a.label
            assert ssp.is_multiplication_module(e), (a.label, e.label)
            assert ssp.decide_ssp(fr.make_idealization(a, e)).is_ssp, (a.label, e.label)
        # the non-multiplication-module instance must come out false
        z2 = fr.make_zn(2)
        e2 = fr.free_module(z2, 2)
        assert not ssp.is_multiplication_module(e2)
        assert not ssp.decide_ssp(fr.make_idealization(z2, e2)).is_ssp


def _idealization_pairs():
    """Every (A, E) with A one of 24 small rings, E one of 0, A, A^2, A^3 and
    the A/I, and |A|·|E| <= 512."""
    z2, z3 = fr.make_zn(2), fr.make_zn(3)
    rings = [fr.make_zn(n) for n in range(1, 17)] + [
        fr.make_poly_quotient(z2, [1, 1, 1]),           # GF(4)
        fr.make_poly_quotient(z2, [0, 0, 1]), fr.make_poly_quotient(z3, [0, 0, 1]),
        fr.make_product(z2, z2), fr.make_product(fr.make_product(z2, z2), z2),
        fr.make_product(z2, fr.make_zn(4)), fr.make_product(z3, fr.make_zn(4)),
        fr.make_idealization(z2, fr.module_from_ring(z2))]
    pairs = []
    for a in rings:
        modules = [fr.zero_module(a), fr.module_from_ring(a), fr.free_module(a, 2),
                   fr.free_module(a, 3)]
        modules.extend(fr.quotient_module(a, i) for i in all_ideals(a))
        pairs.extend((a, e) for e in modules if a.order * e.size <= 512)
    return pairs


def test_proposition_16_both_ways():
    """A(+)E is SSP exactly when, for every primitive idempotent f, fE = 0 and
    fA is special primary, or fA is a field and |fE| = |fA|.  VNR is not
    needed: 23 of the SSP pairs have a base ring that is not VNR."""
    pairs = _idealization_pairs()
    assert len(pairs) == 155
    verdicts = [ssp.decide_ssp(fr.make_idealization(a, e)).is_ssp for a, e in pairs]
    assert [(a.label, e.label) for (a, e), v in zip(pairs, verdicts)
            if v != reference_idealization_ssp(a, e)] == []
    assert sum(v and not ssp.is_vnr(a) for (a, _), v in zip(pairs, verdicts)) == 23


def test_criterion_4_dedekind_chain_suite():
    with criterion(4, "1000 random chains per quadratic ring", budget=120.0):
        rng = random.Random(SEED)
        for d in SUPPORTED_D:
            ring = q.QuadRing(d)
            for _ in range(1000):
                ideal = random_quad_ideal(rng, ring)
                chain = q.sp_factor(ideal)
                checks = q.verify_chain(chain, ideal)
                assert all(checks.values()), (d, ideal.hnf, checks)
                # V-coherence: V(J_k), found by containment scan, equals V_k(I)
                pf = ideal.factorization()
                for k in range(1, pf.max_exponent + 1):
                    vjk = {p.hnf for p in primes_containing(chain.links[k - 1])}
                    vki = {p.hnf for p in q.vn(ideal, k)}
                    assert vjk == vki, (d, ideal.hnf, k)
                # permutation invariance of the canonical ascending form
                links = list(chain.links)
                rng.shuffle(links)
                renorm = q.normalize_factorization(ring, links)
                assert [l.hnf for l in renorm.links] == [l.hnf for l in chain.links]


def test_criterion_5_vn_of_sums():
    with criterion(5, "V_n(I+J) == V_n(I) ∩ V_n(J) on 500 pairs"):
        rng = random.Random(SEED + 5)
        pairs_done = 0
        while pairs_done < 500:
            ring = q.QuadRing(SUPPORTED_D[pairs_done % len(SUPPORTED_D)])
            i = random_quad_ideal(rng, ring)
            j = random_quad_ideal(rng, ring)
            s = q.ideal_sum(i, j)
            top = max(i.factorization().max_exponent,
                      j.factorization().max_exponent) + 1
            for n in range(1, top + 1):
                lhs = {p.hnf for p in q.vn(s, n)}
                rhs = {p.hnf for p in q.vn(i, n)} & {p.hnf for p in q.vn(j, n)}
                assert lhs == rhs, (ring.d, i.hnf, j.hnf, n)
            pairs_done += 1


def _random_irreducible(rng, bound=4):
    # monic, degree <= 3, coefficients in -bound..bound, irreducible over Q by
    # the rational root theorem
    while True:
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(deg)] + [Fraction(1)]
        p = RatPoly(coeffs)
        if p.degree != deg:
            continue
        if deg == 1:
            return p
        if p.coeffs[0] == 0:
            continue
        a0, an = p.coeffs[0], p.coeffs[-1]
        has_root = False
        for num in range(1, abs(a0.numerator) + 1):
            if a0.numerator % num:
                continue
            for s in (1, -1):
                r = Fraction(s * num)
                if sum(c * r ** k for k, c in enumerate(p.coeffs)) == 0:
                    has_root = True
        if not has_root:
            return p


def test_criterion_6_polynomial_chain_suite():
    with criterion(6, "500 random squarefree chains over Q[X]", budget=30.0):
        rng = random.Random(SEED + 6)
        for _ in range(500):
            irreducibles = []
            target = rng.randint(1, 4)
            while len(irreducibles) < target:
                p = _random_irreducible(rng)
                if all(p != seen for seen in irreducibles):
                    irreducibles.append(p)
            exps = [rng.randint(1, 5) for _ in irreducibles]
            f = RatPoly.const(rng.choice([1, -1, 2, Fraction(3, 2)]))
            for p, e in zip(irreducibles, exps):
                f = f * p ** e
            chain = pc.sf_chain(f)
            assert len(chain) == max(exps)
            for k, g in enumerate(chain, start=1):
                expected = RatPoly.const(1)
                for p, e in zip(irreducibles, exps):
                    if e >= k:
                        expected = expected * p
                assert g == expected.monic(), (k, [str(p.coeffs) for p in irreducibles])
            # threshold equivalence, both sides computed independently
            for k in range(1, max(exps) + 2):
                dgcd = pc.derivative_gcd(f, k)
                for p, e in zip(irreducibles, exps):
                    power_divides = (p ** k).divides(f)
                    assert power_divides == (k <= e)
                    assert p.divides(dgcd) == power_divides
            # the two routes to V_k agree
            for k in range(1, len(chain) + 2):
                expected = chain[k - 1] if k <= len(chain) else RatPoly.const(1)
                assert pc.vk_poly(f, k) == expected


def _squarefree_product(rng, degree):
    """Distinct monic irreducibles of degree <= 3 with coefficients in -5..5,
    multiplied until the degree reaches at least the given one."""
    f, factors = RatPoly.const(1), []
    while f.degree < degree:
        p = _random_irreducible(rng, bound=5)
        if p not in factors:
            factors.append(p)
            f = f * p
    return f


def _long_poly(rng, degree, digits, lc=None):
    top = 10 ** digits
    coeffs = [rng.randint(-top, top) for _ in range(degree)]
    return RatPoly(coeffs + [rng.randint(1, top) if lc is None else lc])


def _long_sf_chain_cases():
    """(name, f, its links, budget in seconds): the inputs the primitive PRS took
    from 3 s to over a minute on, with budgets at least ten times the heuristic
    gcd's time on a 2-core Xeon VM."""
    rng = random.Random(SEED + 60)
    f, g = _long_poly(rng, 20, 50), _long_poly(rng, 20, 50)
    sf252, sf126 = _squarefree_product(rng, 252), _squarefree_product(rng, 126)
    line = _long_poly(rng, 120, 1000, lc=1)
    cases = [
        (f"squarefree degree {sf252.degree}", sf252, [sf252], 4.0),
        (f"squarefree degree {sf126.degree}", sf126, [sf126], 0.5),
        ("f*g^2 of degree 60 with 50-digit coefficients", f * g * g, [f * g, g], 0.5),
        ("monic squarefree degree 120 with 1000-digit coefficients", line, [line], 12.0),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, f, links, budget", _long_sf_chain_cases())
def test_sf_chain_of_long_inputs_within_budget(capsys, monkeypatch, name, f, links, budget):
    # one derivative gcd plus one gcd per further link makes the chain, and
    # links that divide downward need one squarefree gcd in the checks; the
    # chain divides nothing itself, since each quotient it needs is a cofactor
    # that a gcd's proof divided out, and only that proof divides exactly; the
    # re-multiplication compares packed values and multiplies no polynomials
    calls, phase = {"chain": 0, "checks": 0}, ["chain"]
    divisions = Counter()       # (phase, or "gcd" inside one, exact) -> calls
    products = Counter()        # phase -> _product calls
    gcd, link_checks, divmod_, product = pc._gcd, pc._link_checks, pc._divmod, pc._product

    def counted_gcd(a, b):
        calls[phase[0]] += 1
        phase.append("gcd")
        result = gcd(a, b)
        phase.pop()
        return result

    def counted_checks(*args):
        phase[0] = "checks"
        return link_checks(*args)

    def counted_divmod(a, b, exact=False):
        divisions[phase[-1], exact] += 1
        return divmod_(a, b, exact)

    def counted_product(a, b):
        products[phase[0]] += 1
        return product(a, b)

    monkeypatch.setattr(pc, "_gcd", counted_gcd)
    monkeypatch.setattr(pc, "_link_checks", counted_checks)
    monkeypatch.setattr(pc, "_divmod", counted_divmod)
    monkeypatch.setattr(pc, "_product", counted_product)
    text = pc.format_poly(f)
    with criterion(6, f"sf-chain of {name}", budget=budget):
        code = cli.main(["sf-chain", "--", text])
        out = capsys.readouterr().out
    entry, = json.loads(out)["results"]
    assert code == 0
    assert entry["chain"] == [pc.format_poly(g.monic()) for g in links]
    assert all(entry["checks"].values())
    assert calls == {"chain": len(links), "checks": 1}
    assert not any(where == "chain" for where, _ in divisions)
    assert all(where == "gcd" for where, exact in divisions if exact)
    assert divisions["gcd", True] >= 2 * (len(links) + 1)
    assert products["chain"] == 0


def _product_pair_pool():
    z2 = fr.make_zn(2)
    flagship = fr.make_idealization(z2, fr.free_module(z2, 2))
    z3 = fr.make_zn(3)
    bad2 = fr.make_idealization(z3, fr.free_module(z3, 2))
    pool = [fr.make_zn(n) for n in (2, 3, 4, 5, 7, 8, 9, 12, 16, 18, 24, 25, 27, 30)]
    pool.append(fr.make_poly_quotient(z2, [1, 1, 1]))
    pool.append(fr.make_poly_quotient(z2, [0, 0, 1]))
    pool.append(fr.make_poly_quotient(z3, [0, 0, 1]))
    pool.append(flagship)
    pool.append(bad2)
    return pool


def test_criterion_7_proposition_8_suite():
    with criterion(7, "product law and quotient stability"):
        rng = random.Random(SEED + 7)
        pool = _product_pair_pool()
        verdicts = {id(r): ssp.decide_ssp(r).is_ssp for r in pool}
        pairs = []
        while len(pairs) < 50:
            a, b = rng.choice(pool), rng.choice(pool)
            if a.order * b.order <= 512:
                pairs.append((a, b))
        seen_false = 0
        for a, b in pairs:
            combined = ssp.decide_ssp(fr.make_product(a, b)).is_ssp
            expected = verdicts[id(a)] and verdicts[id(b)]
            assert combined == expected, (a.label, b.label)
            seen_false += not expected
        assert seen_false > 0   # the pair sample must exercise the false branch
        # (a) every quotient of every SSP ring in the base catalog stays SSP
        quotient_catalog = [fr.make_zn(n) for n in range(1, 65)]
        for p in (2, 3):
            for k in (2, 3):
                quotient_catalog.append(
                    fr.make_poly_quotient(fr.make_zn(p), [0] * k + [1]))
        v22 = fr.make_product(fr.make_zn(2), fr.make_zn(2))
        quotient_catalog.append(fr.make_idealization(v22, fr.module_from_ring(v22)))
        checked = 0
        for ring in quotient_catalog:
            if not ssp.decide_ssp(ring).is_ssp:
                continue
            for ideal in all_ideals(ring):
                assert ssp.decide_ssp(fr.quotient(ring, ideal)).is_ssp, ring.label
                checked += 1
        assert checked >= 200


def test_criterion_8_zpi_cross_realization():
    with criterion(8, "ZPI chains re-multiply and match concrete witnesses"):
        rng = random.Random(SEED + 8)
        for _ in range(100):
            ideal = random_zpi_ideal(rng)
            chain = z.radical_chain(ideal)
            assert chain.product() == ideal
        # all-SPR rings realized concretely
        realizations = [fr.make_zn(4), fr.make_zn(8), fr.make_zn(9),
                        fr.make_poly_quotient(fr.make_zn(2), [0, 0, 1])]
        for concrete in realizations:
            verdict = fr.is_special_primary(concrete)
            assert verdict.is_special_primary, concrete.label
            m, t = verdict.maximal_ideal, verdict.nilpotency_index
            abstract_ring = z.ZpiRing((z.SprComponent(t),))
            ssp_verdict = ssp.decide_ssp(concrete)
            for k in range(1, t + 1):
                abstract_chain = z.radical_chain(z.ZpiIdeal(abstract_ring, (k,)))
                mapped = [ideal_power(m, link.entries[0]) for link in abstract_chain.links]
                concrete_ideal = ideal_power(m, k)
                witness = ssp_verdict.factorizations[concrete_ideal]
                assert witness is not None, concrete.label
                # ascending rearrangement: growing ideals, smallest first
                witness_sorted = sorted(witness, key=len)
                assert [w.mask for w in witness_sorted] == [x.mask for x in mapped], \
                    (concrete.label, k)


def test_criterion_9_kummer_dedekind_soundness():
    with criterion(9, "prime splitting re-multiplies to (p), p <= 1000", budget=30.0):
        primes = [p for p in range(2, 1001) if all(p % k for k in range(2, p))]
        assert len(primes) == 168
        for d in SUPPORTED_D:
            ring = q.QuadRing(d)
            for p in primes:
                prod = q.whole_ring_ideal(ring)
                for prime, e in q.primes_above(ring, p):
                    for _ in range(e):
                        prod = prod * prime
                assert prod == q.principal_ideal(ring, (p, 0)), (d, p)
