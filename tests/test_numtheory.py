"""The in-house primality test, modular square roots and splitting of primes
in quadratic orders against sympy.

sympy is only a test oracle here; the package itself does not import it.
"""

import os
import subprocess
import sys
import time
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SUPPORTED_D
from radfact import quadring as q
from radfact.errors import Bounds, ResourceLimitError

sympy = pytest.importorskip("sympy")

PSI_13 = 3317044064679887385961981   # least strong pseudoprime to the first 13 prime bases

# Carmichael 561, strong pseudoprime to bases 2, 3, 5, 7 (3215031751) and to
# the first nine prime bases (3825123056546413051)
PSEUDOPRIMES = (561, 3215031751, 3825123056546413051)


def test_is_prime_by_miller_rabin_below_a_million():
    primes = set(sympy.primerange(10 ** 6))
    assert [n for n in range(10 ** 6) if q._is_prime(n)] == sorted(primes)


@given(st.integers(min_value=0, max_value=PSI_13 - 1))
@example(PSI_13 - 2)
def test_is_prime_matches_sympy_in_exact_range(n):
    assert q._is_prime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    if p < PSI_13:
        assert q._is_prime(p)


@given(st.integers(min_value=2, max_value=10 ** 12), st.integers(min_value=2, max_value=10 ** 12))
def test_is_prime_rejects_semiprimes(a, b):
    p, r = sympy.nextprime(a), sympy.nextprime(b)
    assert not q._is_prime(p * r)


def test_is_prime_rejects_pseudoprimes():
    for n in PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not q._is_prime(n), n
    with pytest.raises(ValueError):
        q._is_prime(PSI_13)


def test_factor_int_refuses_cofactors_beyond_the_exact_range():
    # psi_13 fools all 13 bases, and both its factors exceed the trial bound
    with pytest.raises(ResourceLimitError) as exc:
        q.factor_int(PSI_13, Bounds(norm=10 ** 30))
    assert exc.value.bound == "exact-primality"
    assert exc.value.value == PSI_13 - 1


def test_factor_int_trusts_only_the_primes_it_tried():
    for n in range(9000, 11000):
        try:
            factors = q.factor_int(n)
        except ResourceLimitError:
            continue
        assert all(sympy.isprime(p) for p in factors), (n, factors)
        assert prod(p ** e for p, e in factors.items()) == n


def _prime_between(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(sympy.prevprime)


SMOOTH = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=8).map(prod)


@given(st.one_of(
    # a smooth part times a prime past the early exit: Miller-Rabin ends the loop
    st.tuples(SMOOTH, _prime_between(1010, 10 ** 10)).map(prod),
    # both factors past the early exit: the cofactor is proved composite first
    st.tuples(_prime_between(1010, 10 ** 6), _prime_between(1010, 10 ** 6)).map(prod),
    # prime powers on either side of the early exit and below the trial bound
    st.tuples(st.sampled_from([991, 997, 1009, 1013, 999983]),
              st.integers(1, 3)).map(lambda t: t[0] ** t[1]),
    # strong pseudoprimes inside the cofactor, which must be found composite
    st.tuples(st.sampled_from(PSEUDOPRIMES), st.integers(1, 1000)).map(prod),
))
@example(561 * 1009)
@example(3215031751 * 1009)
@example(1009 ** 2 * 999983)
@example(999983 * 1000003)
@example(6 * 1000000000039)
def test_factor_int_matches_sympy(n):
    assert q.factor_int(n, Bounds(norm=10 ** 24)) == sympy.factorint(n)


def test_worst_case_of_the_default_bound_factors_quickly():
    # the two largest primes below 10^6: trial division runs nearly to its bound
    n = 999983 * 999979
    start = time.perf_counter()
    assert q.factor_int(n) == {999979: 1, 999983: 1}
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", [3, 5, 13, 40961, 65537, 998244353])
def test_sqrt_mod_returns_a_root_or_none(p):
    residues = 0
    for a in list(range(200)) + [p - 1, p - 2, 3 ** 7 % p]:
        r = q._sqrt_mod(a, p)
        if r is None:
            assert sympy.sqrt_mod(a, p) is None, (a, p)
        else:
            assert 0 <= r < p and r * r % p == a % p, (a, p)
            residues += 1
    assert residues


@given(st.sampled_from([40961, 65537, 998244353]), st.integers(min_value=0))
def test_sqrt_mod_of_squares(p, x):
    r = q._sqrt_mod(x * x, p)
    assert r in (x % p, -x % p)


@pytest.mark.parametrize("d", SUPPORTED_D)
def test_primes_above_follow_the_kronecker_symbol(d):
    # (D/p) for the field discriminant D: 1 splits into two primes of norm p,
    # -1 leaves (p) prime of norm p^2, 0 ramifies as P^2 with N(P) = p
    from sympy.functions.combinatorial.numbers import kronecker_symbol

    ring = q.QuadRing(d)
    disc = d if d % 4 == 1 else 4 * d
    for p in sympy.primerange(1001):
        shape = sorted((prime.norm, e) for prime, e in q.primes_above(ring, p))
        expected = {1: [(p, 1), (p, 1)], -1: [(p * p, 1)], 0: [(p, 2)]}
        assert shape == expected[kronecker_symbol(disc, p)], (d, p)


def test_cli_import_leaves_sympy_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, radfact.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
