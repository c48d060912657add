"""The value classes keep the behaviour their callers observe: constructors,
validation messages, equality, hashing, immutability and repr strings."""

import pytest

from radfact import finring as fr
from radfact import quadring as q
from radfact import sspengine as ssp
from radfact import zpicompose as z
from radfact.errors import Bounds

R5 = q.QuadRing(-5)
SIX = q.ideal_from_gens(R5, [(6, 0)])
ZPI = z.ZpiRing((z.SprComponent(2), z.DedComponent(R5), z.DedComponent(q.IntRing())))


def instances():
    """Per class: a builder of one value (each call a fresh, equal instance),
    a different value of the class, and the repr of the first."""
    z4 = fr.ring_from_dict({"zn": 4})
    z8 = fr.ring_from_dict({"zn": 8})
    six_pf = "((QuadIdeal(d=-5, hnf=[2, 1, 1]), 2), (QuadIdeal(d=-5, hnf=[3, 1, 1]), 1), " \
             "(QuadIdeal(d=-5, hnf=[3, 2, 1]), 1))"
    zpi = "ZpiRing(components=(SprComponent(t=2), DedComponent(ring=QuadRing(d=-5)), " \
          "DedComponent(ring=IntRing())))"
    return {
        "Bounds": (Bounds, Bounds(order=64),
                   "Bounds(order=4096, ideals=1048576, norm=1000000000000)"),
        "SpecialPrimaryVerdict": (
            lambda: fr.is_special_primary(z4), fr.is_special_primary(z8),
            "SpecialPrimaryVerdict(is_special_primary=True, maximal_ideal=FinIdeal('Z4', [0, 2]), "
            "nilpotency_index=2)"),
        "SspVerdict": (
            lambda: ssp.decide_ssp(z4), ssp.decide_ssp(z8),
            "SspVerdict(ring=FinRing('Z4', order=4), parent={5: None, 15: None, 1: (5, 5)}, "
            "lattice={1: FinIdeal('Z4', [0]), 5: FinIdeal('Z4', [0, 2]), "
            "15: FinIdeal('Z4', [0, 1, 2, 3])})"),
        "QuadRing": (lambda: q.QuadRing(-5), q.QuadRing(-1), "QuadRing(d=-5)"),
        "QuadIdeal": (lambda: q.QuadIdeal(q.QuadRing(-5), 6, 0, 6),
                      q.QuadIdeal(q.QuadRing(-1), 6, 0, 6), "QuadIdeal(d=-5, hnf=[6, 0, 6])"),
        "PrimeFactorization": (
            SIX.factorization, q.IntIdeal(6).factorization(),
            f"PrimeFactorization(factors={six_pf}, rational_primes=(2, 3))"),
        "RadicalChain": (
            lambda: q.sp_factor(SIX), q.sp_factor(q.IntIdeal(12)),
            "RadicalChain(links=(QuadIdeal(d=-5, hnf=[6, 3, 3]), QuadIdeal(d=-5, hnf=[2, 1, 1])), "
            f"factorization=PrimeFactorization(factors={six_pf}, rational_primes=(2, 3)))"),
        "IntRing": (q.IntRing, None, "IntRing()"),
        "IntIdeal": (lambda: q.IntIdeal(12), q.IntIdeal(6), "IntIdeal(12)"),
        "SprComponent": (lambda: z.SprComponent(2), z.SprComponent(3), "SprComponent(t=2)"),
        "DedComponent": (lambda: z.DedComponent(q.IntRing()), z.DedComponent(R5),
                         "DedComponent(ring=IntRing())"),
        "ZpiRing": (lambda: z.ZpiRing(ZPI.components), z.ZpiRing((z.SprComponent(2),)), zpi),
        "ZpiIdeal": (lambda: z.ZpiIdeal(ZPI, (3, SIX, z.ZERO)), z.ZpiIdeal(ZPI, (1, SIX, z.ZERO)),
                     f"ZpiIdeal(ring={zpi}, entries=(2, QuadIdeal(d=-5, hnf=[6, 0, 6]), ZERO))"),
        "ZpiChain": (
            lambda: z.radical_chain(z.ZpiIdeal(ZPI, (1, SIX, q.IntIdeal(2)))),
            z.radical_chain(z.ZpiIdeal(ZPI, (2, SIX, q.IntIdeal(2)))),
            f"ZpiChain(links=(ZpiIdeal(ring={zpi}, entries=(1, QuadIdeal(d=-5, hnf=[6, 3, 3]), "
            f"IntIdeal(2))), ZpiIdeal(ring={zpi}, entries=(0, QuadIdeal(d=-5, hnf=[2, 1, 1]), "
            "IntIdeal(1)))), canonical_extension=False)"),
    }


MUTABLE = {"SpecialPrimaryVerdict", "SspVerdict"}
FIELD = {"Bounds": "order", "QuadRing": "d", "QuadIdeal": "a", "PrimeFactorization": "factors",
         "RadicalChain": "links", "IntRing": "label", "IntIdeal": "n", "SprComponent": "t",
         "DedComponent": "ring", "ZpiRing": "components", "ZpiIdeal": "entries",
         "ZpiChain": "links"}


def test_value_classes_keep_repr_equality_hashing_and_immutability():
    table = instances()
    assert len(table) == 14
    values = []
    for name, (build, other, text) in table.items():
        one, same = build(), build()
        assert type(one).__name__ == name
        assert one is not same and repr(one) == text, name
        assert one == same and not one != same, name
        assert other is None or (one != other and not one == other), name
        if name in MUTABLE:
            assert type(one).__hash__ is None, name
        else:
            assert hash(one) == hash(same), name
            with pytest.raises(AttributeError):
                setattr(one, FIELD[name], None)
            with pytest.raises(AttributeError):
                delattr(one, FIELD[name])
        values.append(one)
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and not a == b, (a, b)


def test_radical_chain_equality_ignores_its_factorization():
    chain = q.sp_factor(SIX)
    bare = q.RadicalChain(chain.links)
    assert bare.factorization is None and chain.factorization is not None
    assert bare == chain and hash(bare) == hash(chain)


def test_keyword_construction_with_defaults():
    assert Bounds() == Bounds(order=4096, ideals=1 << 20, norm=10 ** 12)
    assert Bounds(norm=7) == Bounds(4096, 1 << 20, 7)
    pf = q.PrimeFactorization(((q.IntIdeal(2), 1),))
    assert pf.rational_primes == () and len(pf) == 1
    assert q.QuadRing(d=-5, bounds=Bounds(norm=10)) == R5
    assert q.QuadIdeal(ring=R5, a=6, b=0, c=6) == SIX
    assert z.ZpiChain(links=(), canonical_extension=True).canonical_extension
    verdict = fr.SpecialPrimaryVerdict(is_special_primary=False, maximal_ideal=None,
                                       nilpotency_index=None)
    assert verdict == fr.SpecialPrimaryVerdict(False, None, None)


def test_zpi_ideal_canonicalizes_its_entries():
    assert z.ZpiIdeal(ZPI, (9, SIX, z.ZERO)).entries == (2, SIX, z.ZERO)


@pytest.mark.parametrize("build, message", [
    (lambda: Bounds(order=0), "max-order 0 is below 1"),
    (lambda: Bounds(ideals=0), "max-ideals 0 is below 1"),
    (lambda: Bounds(norm=-3), "max-norm -3 is below 1"),
    (lambda: Bounds(order=5000), "max-order 5000 exceeds the ceiling 4096 on ring orders"),
    (lambda: q.QuadRing(1), "d must not be 0 or 1"),
    (lambda: q.QuadRing(-12), "d = -12 is not squarefree"),
    (lambda: q.QuadIdeal(R5, 0, 0, 1), "HNF requires a > 0 and c > 0"),
    (lambda: q.QuadIdeal(R5, 2, 2, 1), "HNF requires 0 <= b < a"),
    (lambda: q.QuadIdeal(R5, 4, 0, 3), "HNF of an ideal requires c | a and c | b"),
    (lambda: q.QuadIdeal(R5, 2, 0, 1), "lattice is not closed under multiplication by w"),
    (lambda: q.IntIdeal(0), "generator must be a positive integer"),
    (lambda: z.SprComponent(0), "nilpotency index must be >= 1"),
    (lambda: z.DedComponent(z.SprComponent(1)), "Dedekind component must be a QuadRing or IntRing"),
    (lambda: z.ZpiRing(()), "a ZPI ring needs at least one component"),
    (lambda: z.ZpiRing((5,)), "unrecognized component 5"),
    (lambda: z.ZpiIdeal(ZPI, (1,)), "entry count does not match component count"),
    (lambda: z.ZpiIdeal(ZPI, (-1, SIX, z.ZERO)), "special-primary entries are exponents >= 0"),
    # a bool or a float is no integer field, though int() and comparisons accept it
    (lambda: q.IntIdeal(True), "generator must be an integer, got True"),
    (lambda: q.IntIdeal(2.5), "generator must be an integer, got 2.5"),
    (lambda: z.SprComponent(True), "nilpotency index must be an integer, got True"),
    (lambda: z.SprComponent(2.5), "nilpotency index must be an integer, got 2.5"),
    (lambda: z.ZpiIdeal(z.ZpiRing((z.SprComponent(3),)), (True,)),
     "special-primary exponent must be an integer, got True"),
    (lambda: z.ZpiIdeal(z.ZpiRing((z.SprComponent(3),)), (2.5,)),
     "special-primary exponent must be an integer, got 2.5"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build", [
    lambda ring: fr.FinModule(ring, 2, [[0, 1], [1, 0]], 0, [[0, 0], [0, 1]]),
    lambda component: z.ZpiRing((component,)),
], ids=["fin-module-ring", "zpi-component"])
def test_a_type_error_quotes_a_bounded_part_of_its_argument(build):
    with pytest.raises(ValueError) as info:
        build("x" * 100_000)
    assert len(str(info.value)) < 400
