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
"""

from .errors import DEFAULT_BOUNDS, Bounds, ResourceLimitError
from .finring import (FinModule, FinRing, decompose_local, free_module,
                      is_special_primary, make_idealization, make_poly_quotient,
                      make_product, make_zn, module_from_ring, quotient,
                      quotient_module, regular_elements, ring_from_dict,
                      ring_to_dict, zero_module)
from .finideal import (FinIdeal, all_ideals, generated_ideal, ideal_power,
                       ideal_product, ideal_sum, is_prime, prime_spectrum,
                       radical, vn_set, whole_ideal, zero_ideal)
from .sspengine import (SP_NOTE, SspVerdict, decide_ssp, is_multiplication_module,
                        is_vnr, radical_closure, structural_ssp)
from .quadring import (IntIdeal, IntRing, PrimeFactorization, QuadIdeal,
                       QuadRing, RadicalChain, ideal_from_gens,
                       normalize_factorization, primes_above, sp_factor)
from .polychain import RatPoly, derivative_gcd, poly_gcd, sf_chain, vk_poly
from .zpicompose import (DedComponent, SprComponent, ZpiChain, ZpiIdeal,
                         ZpiRing, radical_chain, zpi_product)

__version__ = "0.1.0"
