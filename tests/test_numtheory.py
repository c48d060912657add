"""The in-house primality test, modular square roots and splitting of primes
in quadratic orders against sympy.

sympy is only a test oracle here; the package itself does not import it.
"""

import os
import subprocess
import sys
import threading
from math import isqrt, prod

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


@pytest.fixture
def empty_sieve(monkeypatch):
    """Start from an empty sieve, so every _is_prime call runs Miller-Rabin."""
    monkeypatch.setattr(q, "_sieve", bytearray())
    monkeypatch.setattr(q, "_small_primes", [])


def test_is_prime_by_lookup_below_a_million():
    q._primes_below(10 ** 6)
    assert len(q._sieve) == 10 ** 6
    primes = set(sympy.primerange(10 ** 6))
    assert [n for n in range(10 ** 6) if q._is_prime(n)] == sorted(primes)


def test_is_prime_by_miller_rabin_below_a_million(empty_sieve):
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


def test_is_prime_rejects_pseudoprimes(empty_sieve):
    for n in PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not q._is_prime(n), n
    with pytest.raises(ValueError):
        q._is_prime(PSI_13)


def test_factor_int_refuses_cofactors_beyond_the_exact_range():
    # psi_13 fools all 13 bases, and both its factors exceed the trial bound
    with pytest.raises(ResourceLimitError) as exc:
        q.factor_int(PSI_13, Bounds(norm=10 ** 30))
    assert exc.value.bound == "max-norm"


def test_sieve_is_sized_to_the_job(empty_sieve):
    assert q.factor_int(36) == {2: 2, 3: 2}
    assert len(q._sieve) < 100
    assert q.factor_int(1000003 * 999983, Bounds(norm=10 ** 14)) == {999983: 1, 1000003: 1}
    assert len(q._sieve) == isqrt(1000003 * 999983) + 1
    assert q.factor_int(6 * 1000000000039, Bounds(norm=10 ** 14)) == {2: 1, 3: 1, 1000000000039: 1}
    assert len(q._sieve) == 10 ** 6      # the trial-division cap


def test_factor_int_trusts_only_the_primes_it_tried(empty_sieve, monkeypatch):
    # a grown sieve beside the shorter prime list it replaced: what another
    # thread can read while _primes_below publishes the two
    q._primes_below(10 ** 4)
    monkeypatch.setattr(q, "_small_primes", [p for p in q._small_primes if p < 100])
    with pytest.raises(ResourceLimitError):
        q.factor_int(101 * 103)
    for n in range(9000, 11000):
        try:
            factors = q.factor_int(n)
        except ResourceLimitError:
            continue
        assert all(sympy.isprime(p) for p in factors), (n, factors)
        assert prod(p ** e for p, e in factors.items()) == n


def test_factor_int_beside_a_growing_sieve_on_another_thread(empty_sieve):
    # each round one thread grows the sieve from 2000 to 4000 while another
    # factors 2027 * 2029, which needs the sieve to reach 2029
    results, before = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            q._sieve, q._small_primes = bytearray(), []
            q._primes_below(2000)
            threads = [threading.Thread(target=q._primes_below, args=(4000,)),
                       threading.Thread(target=lambda: results.append(q.factor_int(2027 * 2029)))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(before)
    assert results == [{2027: 1, 2029: 1}] * 200


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
