"""Seeded job lists for the three benchmark workloads, with known-answer checks.

A job is one `radfact <command> --input FILE` invocation.  Every generator
produces only payloads the CLI accepts (exit 0), and attaches the answer it
knows from how it built the input.  A check never asks the program for a
second opinion: expected chains, norms, verdicts and orders come from the
generator's own arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable


@dataclass
class Job:
    command: str
    payload: str
    check: Callable[[dict], bool]

    @property
    def key(self) -> str:
        return self.command + "\0" + self.payload


@dataclass
class Workload:
    probe: Job
    build: Callable[[int], list]


# --------------------------------------------------------------- arithmetic

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact far beyond the 10^12 norms used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


SMALL_PRIMES = [p for p in range(2, 200) if is_prime(p)]


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _chain_norms(exps: dict) -> list:
    """Link k of the ascending chain multiplies the primes with exponent >= k."""
    top = max(exps.values(), default=0)
    return [_prod(p for p, e in exps.items() if e >= k) for k in range(1, top + 1)]


# ------------------------------------------------------------------ census

def _spec_order(spec) -> int:
    if "zn" in spec:
        return spec["zn"]
    if "poly_quotient" in spec:
        pq = spec["poly_quotient"]
        return pq["zn"] ** (len(pq["f"]) - 1)
    if "product" in spec:
        return _prod(_spec_order(s) for s in spec["product"])
    inner = spec["idealization"]
    base = _spec_order(inner["ring"] if "ring" in inner else {"zn": inner["zn"]})
    if "module_rank" in inner:
        return base * base ** inner["module_rank"]
    return base * base


def _is_chain_ring_product(spec) -> bool:
    # Z/n and Z/p[x]/(x^k) are finite products of chain rings, and every ideal
    # of a chain ring is a power of its maximal ideal, so these rings are SSP.
    if "zn" in spec:
        return True
    if "poly_quotient" in spec:
        f = spec["poly_quotient"]["f"]
        return all(c == 0 for c in f[:-1])
    if "product" in spec:
        return all(_is_chain_ring_product(s) for s in spec["product"])
    return False


def _census_check(order, ssp_known):
    def check(report):
        rows = report["rows"]
        if report["total"] != 1 or report["disagreements"] != 0 or len(rows) != 1:
            return False
        row = rows[0]
        if not row["agree"] or row["order"] != order:
            return False
        return not ssp_known or row["decide_ssp"] is True
    return check


def census_job(spec) -> Job:
    return Job("census", json.dumps({"catalog": [spec]}, sort_keys=True),
               _census_check(_spec_order(spec), _is_chain_ring_product(spec)))


def build_census(seed, catalog):
    jobs = [census_job(spec) for spec in catalog]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- dedekind

DEDEKIND_D = (-1, -2, -5, -7, 2, 3, 5)
MAX_NORM = 10 ** 12


def min_poly(d):
    """(c0, c1) with w^2 + c1*w + c0 = 0 for the maximal order of Q(sqrt(d))."""
    if d % 4 == 1:
        return (-(d - 1) // 4, -1)
    return (-d, 0)


def elem_norm(d, x, y) -> int:
    c0, c1 = min_poly(d)
    return x * x - c1 * x * y + c0 * y * y


def elem_mul(d, e1, e2):
    c0, c1 = min_poly(d)
    (x1, y1), (x2, y2) = e1, e2
    yy = y1 * y2
    return (x1 * x2 - c0 * yy, x1 * y2 + x2 * y1 - c1 * yy)


def _poly_roots_mod_p(d, p):
    c0, c1 = min_poly(d)
    return [r for r in range(p) if (r * r + c1 * r + c0) % p == 0]


def _sqrt_mod(a, p):
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _hensel(d, r, p, e):
    """Lift a simple root r of the minimal polynomial mod p to mod p^e."""
    c0, c1 = min_poly(d)
    mod = p
    for _ in range(e - 1):
        mod *= p
        fr = r * r + c1 * r + c0
        dfr = 2 * r + c1
        r = (r - fr * pow(dfr, -1, mod)) % mod
    return r


def _crt(r1, m1, r2, m2):
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def _split_primes(d):
    """Small primes with two simple roots, and ramified ones with a double root."""
    split, ram = {}, {}
    for p in SMALL_PRIMES[:25]:
        roots = _poly_roots_mod_p(d, p)
        if len(roots) == 2:
            split[p] = roots
        elif len(roots) == 1:
            ram[p] = roots[0]
    return split, ram


_SPLIT = {d: _split_primes(d) for d in DEDEKIND_D}


def _zint_check(n, exps):
    chain = _chain_norms(exps)
    fact = sorted(exps.items())

    def check(report):
        return (report["ring"] == "Z" and report["ideal"] == {"zint": n, "norm": n}
                and [link["zint"] for link in report["chain"]] == chain
                and [(f["prime"]["zint"], f["exponent"]) for f in report["factorization"]] == fact
                and all(report["checks"].values()))
    return check


def _principal_check(d, norm):
    def check(report):
        links = [link["norm"] for link in report["chain"]]
        return (report["d"] == d and report["ideal"]["norm"] == norm
                and _prod(links) == norm and all(report["checks"].values()))
    return check


def _two_gen_check(d, m, r, exps):
    links = [[mk, (-r) % mk, 1] for mk in _chain_norms(exps)]

    def check(report):
        return (report["d"] == d and report["ideal"]["hnf"] == [m, (-r) % m, 1]
                and report["ideal"]["norm"] == m
                and [link["hnf"] for link in report["chain"]] == links
                and all(report["checks"].values()))
    return check


def _factor_payload(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _zint_job(rng, big):
    while True:
        exps = {}
        for p in rng.sample(SMALL_PRIMES[:12], rng.randint(1, 4)):
            exps[p] = rng.choice((1, 1, 1, 2, 2, 3, 4, 6))
        if rng.random() < 0.15:
            exps[2] = rng.randint(12, 30)           # a deep prime power
        n = _prod(p ** e for p, e in exps.items())
        if big:
            hi = min(10 ** 10, MAX_NORM // n)
            if hi < 2 * 10 ** 6:
                continue
            q = random_prime(rng, 10 ** 6, hi)
            exps[q] = 1
            n *= q
        if 2 <= n <= MAX_NORM:
            return Job("factor", _factor_payload({"zint": n}), _zint_check(n, exps))


def _principal_job(rng, big):
    while True:
        d = rng.choice(DEDEKIND_D)
        bound = 300_000 if big else 300
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if not big and rng.random() < 0.2:
            # a deep power of a small element
            base = (rng.randint(-3, 3), rng.choice((-1, 1)))
            x, y = base
            for _ in range(rng.randint(2, 6)):
                x, y = elem_mul(d, (x, y), base)
        norm = abs(elem_norm(d, x, y))
        if 2 <= norm <= MAX_NORM:
            gen = f"{x}{y:+d}*w" if y else str(x)
            return Job("factor", _factor_payload({"d": d, "gens": [gen]}),
                       _principal_check(d, norm))


def _two_gen_job(rng, big):
    while True:
        d = rng.choice(DEDEKIND_D)
        split, ram = _SPLIT[d]
        exps, m, r = {}, 1, 0
        for p in rng.sample(sorted(split), min(len(split), rng.randint(1, 3))):
            e = rng.choice((1, 1, 2, 3, 5)) if p > 2 else rng.randint(1, 20)
            root = _hensel(d, rng.choice(split[p]), p, e)
            r, m = _crt(r, m, root, p ** e), m * p ** e
            exps[p] = e
        if ram and rng.random() < 0.5:
            p = rng.choice(sorted(ram))
            r, m = _crt(r, m, ram[p], p), m * p
            exps[p] = 1
        if big:
            c0, c1 = min_poly(d)
            disc = c1 * c1 - 4 * c0
            while True:
                q = random_prime(rng, 10 ** 6, 10 ** 9)
                if pow(disc % q, (q - 1) // 2, q) == 1:
                    break
            s = _sqrt_mod(disc, q)
            root = (-c1 + s) * pow(2, -1, q) % q
            r, m = _crt(r, m, root, q), m * q
            exps[q] = 1
        if 2 <= m <= MAX_NORM:
            gens = [str(m), f"{-r}+w"]
            return Job("factor", _factor_payload({"d": d, "gens": gens}),
                       _two_gen_check(d, m, r, exps))


# (generator, carries a large prime cofactor, jobs per pass).  The p95 falls
# among the 270 large-cofactor jobs, whose cost depends on the primes the
# seed draws; the more of them, the less the p95 moves from seed to seed.
DEDEKIND_MIX = [
    (_zint_job, False, 450),
    (_zint_job, True, 90),
    (_principal_job, False, 630),
    (_principal_job, True, 90),
    (_two_gen_job, False, 450),
    (_two_gen_job, True, 90),
]


def build_dedekind(seed):
    rng = random.Random(seed)
    jobs = [make(rng, big) for make, big, count in DEDEKIND_MIX for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------- sfchain

def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _irreducible(coeffs) -> bool:
    """Monic integer polynomial of degree <= 3, lowest degree first."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg == 2:
        c, b = coeffs[0], coeffs[1]
        return not _is_square(b * b - 4 * c)
    c = coeffs[0]
    if c == 0:
        return False
    # a monic integer cubic is reducible iff it has an integer root dividing c
    for r in range(1, abs(c) + 1):
        if c % r == 0:
            for root in (r, -r):
                if sum(a * root ** k for k, a in enumerate(coeffs)) == 0:
                    return False
    return True


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def format_poly(coeffs) -> str:
    """Highest degree first: 'x^2-1', '3/2*x+5', with unit magnitudes implied."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not xs:
            body = str(mag)
        else:
            body = xs if mag == 1 else f"{mag}*{xs}"
        terms.append(sign + body)
    return "".join(terms) or "0"


def _random_factor(rng, deg):
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [1]
        if _irreducible(coeffs):
            return tuple(coeffs)


def _sf_check(text, lc, links):
    def check(report):
        if len(report["results"]) != 1:
            return False
        res = report["results"][0]
        return (res["input"] == text and res["leading_coefficient"] == str(lc)
                and res["chain"] == links and all(res["checks"].values()))
    return check


def _sf_job(rng, shape):
    """f = lc * prod(p_i^e_i) for a fixed (degree, exponent) shape and random p_i."""
    exps = {}
    for deg, e in shape:
        p = _random_factor(rng, deg)
        while p in exps:
            p = _random_factor(rng, deg)
        exps[p] = e
    monic = [1]
    for p, e in exps.items():
        for _ in range(e):
            monic = _poly_mul(monic, list(p))
    lc = Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3, 7)))
    text = format_poly([lc * c for c in monic])
    links = []
    for k in range(1, max(exps.values()) + 1):
        link = [1]
        for p, e in exps.items():
            if e >= k:
                link = _poly_mul(link, list(p))
        links.append(format_poly(link))
    return Job("sf-chain", text + "\n", _sf_check(text, lc, links))


# ((factor degree, exponent), ...) shapes and jobs per pass.  Fixing the
# shapes keeps the degree mix, and so the cost of a pass, the same for every
# seed; the seed draws the factors and the leading coefficient.  The counts
# put the median inside the degree-13 shape and the p95 inside the degree-30
# tail, where Fraction growth in the Euclidean gcd sets the cost, so neither
# quantile sits on the edge between two shapes.
SFCHAIN_MIX = [
    (((1, 2), (2, 1)), 90),
    (((1, 3), (2, 2), (1, 1)), 90),
    (((2, 3), (3, 2), (1, 1)), 240),
    (((1, 4), (2, 3), (3, 1), (2, 2)), 120),
    (((3, 5), (2, 4), (1, 3), (2, 2)), 60),
]


def build_sfchain(seed):
    rng = random.Random(seed)
    jobs = [_sf_job(rng, shape) for shape, count in SFCHAIN_MIX for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


def workloads(catalog) -> dict:
    """The benchmark's workloads; `catalog` is the CLI's default census catalog."""
    d5_six = Job("factor", _factor_payload({"d": -5, "gens": ["6"]}), _principal_check(-5, 36))
    sf_small = Job("sf-chain", "x^3-x^2-x+1\n",
                   _sf_check("x^3-x^2-x+1", 1, ["x^2-1", "x-1"]))
    return {
        "census": Workload(census_job({"zn": 12}), lambda seed: build_census(seed, catalog)),
        "dedekind": Workload(d5_six, build_dedekind),
        "sfchain": Workload(sf_small, build_sfchain),
    }
