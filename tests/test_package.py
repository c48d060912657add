"""The public names of `radfact`, each resolved on first use from the module
that defines it, checked in fresh interpreters where nothing has run yet."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names `import radfact` exported when every module ran at import
PUBLIC = {
    "errors": ["DEFAULT_BOUNDS", "Bounds", "ResourceLimitError"],
    "finring": ["FinModule", "FinRing", "decompose_local", "free_module", "is_special_primary",
                "make_idealization", "make_poly_quotient", "make_product", "make_zn",
                "module_from_ring", "quotient", "quotient_module", "regular_elements",
                "ring_from_dict", "ring_to_dict", "zero_module"],
    "finideal": ["FinIdeal", "all_ideals", "generated_ideal", "ideal_power", "ideal_product",
                 "ideal_sum", "is_prime", "prime_spectrum", "radical", "vn_set", "whole_ideal",
                 "zero_ideal"],
    "sspengine": ["SP_NOTE", "SspVerdict", "decide_ssp", "is_multiplication_module", "is_vnr",
                  "radical_closure", "structural_ssp"],
    "quadring": ["IntIdeal", "IntRing", "PrimeFactorization", "QuadIdeal", "QuadRing",
                 "RadicalChain", "ideal_from_gens", "normalize_factorization", "primes_above",
                 "sp_factor"],
    "polychain": ["RatPoly", "derivative_gcd", "poly_gcd", "sf_chain", "vk_poly"],
    "zpicompose": ["DedComponent", "SprComponent", "ZpiChain", "ZpiIdeal", "ZpiRing",
                   "radical_chain", "zpi_product"],
}

# argv[1] is PUBLIC as JSON
_RESOLVE = """
import json, sys
public = json.loads(sys.argv[1])
import radfact
result = {"all": radfact.__all__, "not_same": [],
          "not_in_dir": sorted({n for names in public.values() for n in names} - set(dir(radfact)))}
for module, names in public.items():
    for name in names:
        if getattr(radfact, name) is not getattr(getattr(radfact, module), name):
            result["not_same"].append(name)
print(json.dumps(result))
"""

_STAR = """
import json
namespace = {}
exec("from radfact import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_the_60_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 60
    result = _python("-c", _RESOLVE, json.dumps(PUBLIC))
    assert sorted(result["all"]) == sorted(names)
    assert len(result["all"]) == len(set(result["all"]))


def test_each_name_is_the_object_its_module_defines():
    result = _python("-c", _RESOLVE, json.dumps(PUBLIC))
    assert result["not_same"] == []
    assert result["not_in_dir"] == []     # dir() lists names not yet resolved


def test_star_import_binds_every_public_name():
    assert _python("-c", _STAR) == sorted(name for names in PUBLIC.values() for name in names)
