"""radfact: radical factorization of ideals, with exhaustive cross-checks.

Three instance families share the ascending-chain machinery:

* finite commutative rings given by tables (`finring`, `finideal`,
  `sspengine`), where the strong factorization property is decided
  exhaustively and checked against a structural oracle;
* quadratic Dedekind orders and the rational integers (`quadring`),
  with exact Hermite-normal-form ideal arithmetic;
* principal ideals of Q[X] (`polychain`), via one derivative gcd and exact
  divisions of integer polynomials.

`zpicompose` glues abstract special-primary components to the Dedekind
instances, and `cli` exposes everything as batch JSON jobs.

Each engine module, and numpy under the table rings, runs on its first
attribute access (`errors._lazy_module`), so a `factor` job runs only
`quadring` and an `sf-chain` job only `polychain`.  The names below resolve
the same way, on first use.  Every value is immutable and every operation a
pure function, so sharing across threads is safe once a module has run; but
on Python 3.10 and 3.11 importlib's LazyLoader takes no lock for that first
run, so the first call into each engine should come from one thread.
"""

from .errors import _lazy_module

# numpy loads on the first table-ring call, but a missing numpy fails here
_lazy_module("numpy")

finring, finideal, sspengine, quadring, polychain, zpicompose = (
    _lazy_module(f"{__name__}.{name}")
    for name in ("finring", "finideal", "sspengine", "quadring", "polychain", "zpicompose"))

_EXPORTS = {
    "errors": ("DEFAULT_BOUNDS", "Bounds", "ResourceLimitError"),
    "finring": ("FinModule", "FinRing", "decompose_local", "free_module", "is_special_primary",
                "make_idealization", "make_poly_quotient", "make_product", "make_zn",
                "module_from_ring", "quotient", "quotient_module", "regular_elements",
                "ring_from_dict", "ring_to_dict", "zero_module"),
    "finideal": ("FinIdeal", "all_ideals", "generated_ideal", "ideal_power", "ideal_product",
                 "ideal_sum", "is_prime", "prime_spectrum", "radical", "vn_set", "whole_ideal",
                 "zero_ideal"),
    "sspengine": ("SP_NOTE", "SspVerdict", "decide_ssp", "is_multiplication_module", "is_vnr",
                  "radical_closure", "structural_ssp"),
    "quadring": ("IntIdeal", "IntRing", "PrimeFactorization", "QuadIdeal", "QuadRing",
                 "RadicalChain", "ideal_from_gens", "normalize_factorization", "primes_above",
                 "sp_factor"),
    "polychain": ("RatPoly", "derivative_gcd", "poly_gcd", "sf_chain", "vk_poly"),
    "zpicompose": ("DedComponent", "SprComponent", "ZpiChain", "ZpiIdeal", "ZpiRing",
                   "radical_chain", "zpi_product"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # a public name runs its module on first use and is then a plain global
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
