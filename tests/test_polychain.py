import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import SEED
from radfact import polychain as pc
from radfact.polychain import RatPoly, format_poly, parse_poly


def poly(text):
    return parse_poly(text)


def is_irreducible_over_q(p):
    """Oracle for degrees <= 3: irreducible iff no rational root (deg 2, 3)."""
    if p.degree == 1:
        return True
    if p.degree not in (2, 3):
        raise ValueError("oracle only covers degrees 1..3")
    # rational root theorem on the integer-cleared polynomial
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return False
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]
    for num in divisors(a0):
        for d in divisors(an):
            for s in (1, -1):
                r = Fraction(s * num, d)
                if sum(c * r ** k for k, c in enumerate(p.coeffs)) == 0:
                    return False
    return True


def random_irreducible(rng, max_degree=3):
    while True:
        deg = rng.randint(1, max_degree)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(deg)] + [Fraction(1)]
        p = RatPoly(coeffs)
        if p.degree == deg and is_irreducible_over_q(p):
            return p


def test_parse_and_format_round_trip():
    for text in ("x^3-x^2-x+1", "x^2-1", "x-1", "1", "x", "2*x^2+3", "3/2*x-1/2"):
        assert format_poly(parse_poly(text)) == text
    assert parse_poly("x^2 - 1") == parse_poly("x^2-1")
    with pytest.raises(ValueError):
        parse_poly("x^^2")
    with pytest.raises(ValueError):
        parse_poly("")


def test_fraction_string_serialization():
    p = poly("3/2*x^2+1/2")
    assert p.to_fraction_strings() == ["1/2", "0", "3/2"]
    assert RatPoly.from_fraction_strings(["1/2", "0", "3/2"]) == p


def test_arithmetic_basics():
    f = poly("x^2-1")
    g = poly("x-1")
    assert f % g == RatPoly()
    assert f // g == poly("x+1")
    assert g * poly("x+1") == f
    assert poly("x^2+1").derivative() == poly("2*x")
    q, r = divmod(poly("x^3+2"), poly("x^2+1"))
    assert q * poly("x^2+1") + r == poly("x^3+2")


def test_poly_gcd_examples():
    f = poly("x^2-1")
    assert pc.poly_gcd(f, RatPoly()) == f.monic()
    assert pc.poly_gcd(poly("x^2-1"), poly("x^2-2*x+1")) == poly("x-1")
    assert pc.poly_gcd(poly("x^2+1"), poly("x-3")).is_one
    with pytest.raises(ValueError):
        pc.poly_gcd(RatPoly(), RatPoly())
    assert pc.poly_gcd(2 * poly("x-1"), 4 * poly("x-1")) == poly("x-1")


def test_derivative_gcd_examples():
    f = poly("x^3-x^2-x+1")    # (x-1)^2 (x+1)
    assert pc.derivative_gcd(f, 1) == f.monic()
    assert pc.derivative_gcd(f, 2) == poly("x-1")
    assert pc.derivative_gcd(poly("x^2-2"), 2).is_one
    with pytest.raises(ValueError):
        pc.derivative_gcd(RatPoly(), 1)
    with pytest.raises(ValueError):
        pc.derivative_gcd(f, 0)


def test_sf_chain_examples():
    chain = pc.sf_chain(poly("x^3-x^2-x+1"))
    assert [format_poly(g) for g in chain] == ["x^2-1", "x-1"]
    assert pc.sf_chain(poly("x^2-2")) == [poly("x^2-2")]
    cube = poly("x^2+1") ** 3
    assert pc.sf_chain(cube) == [poly("x^2+1")] * 3
    with pytest.raises(ValueError):
        pc.sf_chain(poly("7"))
    with pytest.raises(ValueError):
        pc.sf_chain(RatPoly())


def test_sf_chain_drops_leading_coefficient_only():
    f = 6 * poly("x^2-1")
    assert pc.sf_chain(f) == [poly("x^2-1")]
    assert f.lc == 6


def test_vk_poly_examples():
    f = poly("x^3-x^2-x+1")
    assert pc.vk_poly(f, 1) == poly("x^2-1")
    assert pc.vk_poly(f, 2) == poly("x-1")
    assert pc.vk_poly(f, 3).is_one
    g = 4 * poly("x^2-1")
    assert pc.vk_poly(g, 1) == poly("x^2-1")


def test_random_reconstruction_small():
    rng = random.Random(SEED)
    for _ in range(40):
        irreducibles = []
        while len(irreducibles) < rng.randint(1, 3):
            p = random_irreducible(rng)
            if all(p != seen for seen in irreducibles):
                irreducibles.append(p)
        exps = [rng.randint(1, 4) for _ in irreducibles]
        f = RatPoly.const(rng.choice([1, 2, -3]))
        for p, e in zip(irreducibles, exps):
            f = f * p ** e
        chain = pc.sf_chain(f)
        assert len(chain) == max(exps)
        for k, g in enumerate(chain, start=1):
            expected = RatPoly.const(1)
            for p, e in zip(irreducibles, exps):
                if e >= k:
                    expected = expected * p
            assert g == expected.monic()
        # Every adjacent pair divides downward and every link is squarefree
        for a, b in zip(chain, chain[1:]):
            assert b.divides(a)
        for g in chain:
            assert pc.poly_gcd(g, g.derivative()).is_one


def test_componentwise_pair_chains_merge():
    # over a product of two copies of Q, polynomials factor componentwise and
    # the per-component chains merge by padding the shorter one with units
    rng = random.Random(SEED + 2)
    one = RatPoly.const(1)
    for _ in range(10):
        f = random_irreducible(rng) ** rng.randint(1, 3) * random_irreducible(rng)
        g = random_irreducible(rng) ** rng.randint(1, 4)
        cf, cg = pc.sf_chain(f), pc.sf_chain(g)
        merged = [(cf[k] if k < len(cf) else one, cg[k] if k < len(cg) else one)
                  for k in range(max(len(cf), len(cg)))]
        prod = (one, one)
        for a, b in merged:
            prod = (prod[0] * a, prod[1] * b)
        assert prod == (f.monic(), g.monic())
        # each component stays ascending: later links divide earlier ones
        for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
            assert a2.divides(a1) and b2.divides(b1)


def test_derivative_gcd_threshold_equivalence():
    rng = random.Random(SEED + 1)
    for _ in range(15):
        p1, p2 = random_irreducible(rng), random_irreducible(rng)
        if p1 == p2:
            continue
        e1, e2 = rng.randint(1, 4), rng.randint(1, 4)
        f = p1 ** e1 * p2 ** e2
        for pi, ei in ((p1, e1), (p2, e2)):
            for k in range(1, 6):
                divides_power = (pi ** k).divides(f)
                divides_dgcd = pi.divides(pc.derivative_gcd(f, k))
                assert divides_power == (k <= ei)
                assert divides_dgcd == divides_power


def test_parse_rejects_zero_denominator():
    for text in ("1/0*x+1", "x^2-3/0", "0/0"):
        with pytest.raises(ValueError):
            parse_poly(text)
