import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SEED
from radfact import polychain as pc
from radfact.errors import ResourceLimitError
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


def test_arithmetic_basics():
    f = poly("x^2-1")
    g = poly("x-1")
    assert f % g == RatPoly()
    assert f // g == poly("x+1")
    assert g * poly("x+1") == f
    assert poly("x^2+1").derivative() == poly("2*x")
    q, r = divmod(poly("x^3+2"), poly("x^2+1"))
    assert q * poly("x^2+1") + r == poly("x^3+2")


def test_power_refuses_a_negative_exponent():
    assert poly("x+1") ** 0 == RatPoly.const(1)
    assert poly("x+1") ** 2 == poly("x^2+2*x+1")
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        poly("x+1") ** -1


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


# --- oracles: the Fraction routes the integer kernel replaced -----------------


def reference_divmod(f, g):
    """Oracle: Euclidean division with Fraction coefficients throughout."""
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return RatPoly(), f
    quot = [Fraction(0)] * (dq + 1)
    inv_lc = 1 / g.lc
    for k in range(dq, -1, -1):
        c = rem[k + g.degree] * inv_lc
        quot[k] = c
        for j, b in enumerate(g.coeffs):
            rem[k + j] -= c * b
    return RatPoly(quot), RatPoly(rem[:g.degree])


def reference_poly_gcd(f, g):
    """Oracle: monic gcd by Euclid over Fraction."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, reference_divmod(a, b)[1]
        if not b.is_zero:
            b = b.monic()
    return a.monic()


def reference_derivative_gcd(f, k):
    """Oracle: gcd(f, f', ..., f^(k-1)) by iterated derivatives."""
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = f.monic()
    der = f
    for _ in range(k - 1):
        if g.is_one:
            break
        der = der.derivative()
        g = reference_poly_gcd(g, der)
    return g


def reference_vk_poly(f, k):
    """Oracle: the squarefree part of the iterated-derivative gcd."""
    g = reference_derivative_gcd(f, k)
    if g.degree < 1:
        return g
    return reference_divmod(g, reference_poly_gcd(g, g.derivative()))[0]


def planted(rng, max_factors=3, max_exp=4, max_degree=3):
    """c * prod p_i^e_i for distinct irreducibles p_i and a rational c."""
    irreducibles = []
    while len(irreducibles) < rng.randint(1, max_factors):
        p = random_irreducible(rng, max_degree)
        if all(p != seen for seen in irreducibles):
            irreducibles.append(p)
    exps = [rng.randint(1, max_exp) for _ in irreducibles]
    f = RatPoly.const(Fraction(rng.choice([1, -1, 3, -5]), rng.choice([1, 2, 7])))
    for p, e in zip(irreducibles, exps):
        f = f * p ** e
    return f, irreducibles, exps


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
rat_polys = st.lists(rationals, max_size=7).map(RatPoly)
int_polys = st.lists(st.integers(-30, 30), max_size=7).map(
    lambda cs: pc._primitive(RatPoly(cs).coeffs))


@given(rat_polys, rat_polys)
@example(RatPoly(), RatPoly())
@example(RatPoly(), RatPoly([Fraction(-3, 2)]))
@example(parse_poly("-3/2*x^2+3/2"), parse_poly("-2/3*x-2/3"))
@example(parse_poly("x^2+1"), parse_poly("-7*x+1/3"))
def test_poly_gcd_matches_fraction_euclid(f, g):
    if f.is_zero and g.is_zero:
        with pytest.raises(ValueError):
            pc.poly_gcd(f, g)
        return
    assert pc.poly_gcd(f, g) == reference_poly_gcd(f, g)


@given(rat_polys, rat_polys, rat_polys)
def test_poly_gcd_finds_a_planted_common_factor(f, g, h):
    if h.is_zero or (f.is_zero and g.is_zero):
        return
    common = pc.poly_gcd(f * h, g * h)
    assert common == reference_poly_gcd(f * h, g * h)
    assert h.divides(common)


@given(rat_polys, rat_polys)
def test_ratpoly_arithmetic_matches_fraction_arithmetic(f, g):
    product = [Fraction(0)] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            product[i + j] += a * b
    assert f * g == RatPoly(product)
    if not g.is_zero:
        assert divmod(f, g) == reference_divmod(f, g)


@given(rat_polys, rationals.filter(bool))
def test_primitive_part_is_the_normal_form_of_rational_multiples(f, c):
    p = pc._primitive(f.coeffs)
    assert pc._primitive((f * c).coeffs) == p
    if p:
        assert p[-1] > 0 and gcd(*p) == 1
        assert RatPoly(p).monic() == f.monic()


@given(int_polys, int_polys, int_polys)
def test_exact_division_raises_unless_it_divides(b, q, r):
    if len(b) < 2:
        return
    r = pc._divmod(r, b)[1]     # deg r < deg b
    a = pc._product(b, q)
    assert pc._divmod(a, b, exact=True)[0] == q
    a_plus_r = [x + y for x, y in zip(a + [0] * len(r), r + [0] * len(a))]
    while a_plus_r and not a_plus_r[-1]:
        a_plus_r.pop()
    if r:
        with pytest.raises(ArithmeticError):
            pc._divmod(a_plus_r, b, exact=True)


def test_exact_division_stops_at_a_non_integral_step():
    # 4x^2 - 1 = (2x - 1)(2x + 1); 2x - 1 does not divide x^2 - 1, and the
    # first quotient coefficient, 1/2, already shows it
    assert pc._divmod([-1, 0, 4], [-1, 2], exact=True)[0] == [1, 2]
    with pytest.raises(ArithmeticError):
        pc._divmod([-1, 0, 1], [-1, 2], exact=True)
    with pytest.raises(ArithmeticError):
        pc._divmod([1, 1], [1, 0, 1], exact=True)


def test_sf_chain_returns_planted_links():
    rng = random.Random(SEED + 3)
    for _ in range(150):
        f, irreducibles, exps = planted(rng)
        expected = []
        for k in range(1, max(exps) + 1):
            link = RatPoly.const(1)
            for p, e in zip(irreducibles, exps):
                if e >= k:
                    link = link * p
            expected.append(link.monic())
        chain = pc.sf_chain(f)
        assert chain == expected
        assert all(pc.chain_checks(f, chain).values())


def test_chain_checks_catch_a_wrong_chain():
    f = poly("x^3-x^2-x+1")                     # (x-1)^2 (x+1)
    bad = {
        "product_matches_monic_input": [poly("x^2-1"), poly("x+1")],
        "links_divide_downward": [poly("x-1"), poly("x^2-1")],
        "links_squarefree": [poly("x^3-x^2-x+1")],
    }
    for failing, chain in bad.items():
        checks = pc.chain_checks(f, chain)
        assert not checks[failing], failing


def test_derivative_gcd_and_vk_poly_match_iterated_derivatives():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        f, _, exps = planted(rng, max_exp=5)
        for k in range(1, max(exps) + 2):
            assert pc.derivative_gcd(f, k) == reference_derivative_gcd(f, k)
            assert pc.vk_poly(f, k) == reference_vk_poly(f, k)


@pytest.mark.parametrize("f", [RatPoly.const(1), RatPoly.const(Fraction(-7, 3))],
                         ids=["one", "-7/3"])
def test_chain_derived_routes_keep_the_constant_edge_cases(f):
    for k in (1, 2, 5):
        assert pc.derivative_gcd(f, k).is_one
        assert pc.vk_poly(f, k).is_one
        assert reference_derivative_gcd(f, k).is_one
    for route in (pc.derivative_gcd, pc.vk_poly, reference_derivative_gcd):
        with pytest.raises(ValueError):
            route(f, 0)
        with pytest.raises(ValueError):
            route(RatPoly(), 1)


def test_parse_poly_bounds_the_degree_before_allocating():
    assert parse_poly(f"x^{pc.MAX_DEGREE}").degree == pc.MAX_DEGREE
    with pytest.raises(ResourceLimitError) as exc:
        parse_poly("x^100000000+1")
    assert exc.value.bound == "max-degree" and exc.value.value == pc.MAX_DEGREE
    assert "100000000" in str(exc.value)
