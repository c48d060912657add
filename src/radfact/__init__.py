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

Only radfact's own engines load lazily: each runs on its first attribute
access (`_lazy_module`), so a `factor` job runs only `quadring` and an
`sf-chain` job only `polychain`; numpy, a plain import of `finring`, loads
with the first table-ring call.  The names below resolve on first use too.
Every value is immutable and every operation a pure function, so sharing
across threads is safe once an engine has run.  Before that, the first call
into each engine must come from one thread, or the threads that lose the
race get `AttributeError`: LazyLoader takes no lock on Python 3.10, 3.11
and 3.12.1 (3.13.0 takes one).
"""

import importlib.util
import sys

from . import errors  # `__getattr__` resolves three public names from it

# numpy loads with the first table-ring call, but a missing numpy fails here
if importlib.util.find_spec("numpy") is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")


def _lazy_module(name):
    # importlib's LazyLoader recipe: the module runs on its first attribute access
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
