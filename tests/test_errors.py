import ast
import os

import pytest

from radfact import finideal as fi
from radfact import finring as fr
from radfact import polychain as pc
from radfact import quadring as q
from radfact.errors import DEFAULT_BOUNDS, MAX_ORDER, SHOWN_CHARS, Bounds, _shown

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "radfact")


def test_resource_limit_error_is_built_only_in_errors_py():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == "ResourceLimitError":
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_src_has_no_assert_statement():
    # an assert vanishes under python -O and is a traceback under the CLI;
    # a broken invariant raises ArithmeticError, which the CLI reports as exit 5
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
    assert offenders == []


def _tree(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


def test_each_shared_decision_has_one_owner():
    owners = {"parse_quad_element": "errors.py", "_row_masks": "finring.py",
              "_principal_ideals": "finring.py", "_principal_ideals_in": "finring.py",
              "_principal_masks": "finring.py", "text_chain": "polychain.py"}
    defined = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            for node in ast.walk(_tree(name)):
                if isinstance(node, ast.FunctionDef) and node.name in owners:
                    defined.setdefault(node.name, []).append(name)
    assert defined == {helper: [owner] for helper, owner in owners.items()}


def test_cli_reads_no_text_and_finring_imports_only_what_it_judges_with():
    cli = _tree("cli.py")
    from_errors = {a.name for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)
                   and node.module == "errors" for a in node.names}
    assert from_errors.isdisjoint({"_terms", "_shown"})
    assert [node.attr for node in ast.walk(cli) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "polychain" and node.attr.startswith("_")] == []
    from_finideal = [a.name for node in ast.walk(_tree("finring.py"))
                     if isinstance(node, ast.ImportFrom) and node.module == "finideal"
                     for a in node.names]
    assert sorted(from_finideal) == ["FinIdeal", "ideal_product"]


def test_zpi_components_answer_for_their_own_entries():
    # outside the component classes only ZpiRing's input validation tests a component's type
    offenders = []
    for top in _tree("zpicompose.py").body:
        if getattr(top, "name", None) in ("SprComponent", "DedComponent"):
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and {"SprComponent", "DedComponent"} & {n.id for n in ast.walk(node.args[1])
                                                            if isinstance(n, ast.Name)}):
                offenders.append(f"{top.name}:{node.lineno}")
    assert len(offenders) == 1 and offenders[0].startswith("ZpiRing:"), offenders


def test_sources_and_tests_parse_as_python_3_10():
    # requires-python is >=3.10: no syntax from a later release
    paths = [os.path.join(d, name) for d in (SRC, os.path.join(ROOT, "tests"))
             for name in sorted(os.listdir(d)) if name.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path) as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))


def test_bounds_defaults_and_ceiling():
    assert DEFAULT_BOUNDS == Bounds(order=4096, ideals=2 ** 20, norm=10 ** 12)
    assert Bounds(order=MAX_ORDER).order == MAX_ORDER
    with pytest.raises(ValueError, match="max-order 4097 exceeds the ceiling 4096"):
        Bounds(order=MAX_ORDER + 1)


@pytest.mark.parametrize("limit", [0, -1])
@pytest.mark.parametrize("field, bound", [("order", "max-order"), ("ideals", "max-ideals"),
                                          ("norm", "max-norm")])
def test_bounds_below_1_are_refused(field, bound, limit):
    with pytest.raises(ValueError, match=f"^{bound} {limit} is below 1$"):
        Bounds(**{field: limit})


def test_shown_keeps_a_short_repr_and_cuts_a_long_one_after_shown_chars():
    short = "x" * (SHOWN_CHARS - 2)
    assert _shown(short) == repr(short)
    assert _shown(short + "y") == repr(short + "y")[:SHOWN_CHARS] + "... (59 chars)"
    assert _shown("z" * 10 ** 6) == "'" + "z" * (SHOWN_CHARS - 1) + "... (1000000 chars)"
    assert _shown([7] * 100) == repr([7] * 100)[:SHOWN_CHARS] + "... (300 chars)"


GAUSS = q.QuadRing(-1)
Z4 = fr.make_zn(4)
X2 = pc.parse_poly("x^2")


# int() and comparisons would take a bool or a float, truncating 2.7 to 2
# and reading True as 1, so each public entry point refuses them by name
@pytest.mark.parametrize("build, message", [
    (lambda: q.ideal_from_gens(GAUSS, [(2.7, 0)]),
     "generator coordinate must be an integer, got 2.7"),
    (lambda: q.ideal_from_gens(GAUSS, [(1, True)]),
     "generator coordinate must be an integer, got True"),
    (lambda: q.primes_above(GAUSS, 2.5), "p must be an integer, got 2.5"),
    (lambda: q.QuadIdeal(GAUSS, True, 0, True), "HNF entry must be an integer, got True"),
    (lambda: q.QuadIdeal(GAUSS, 2, 1, 1.0), "HNF entry must be an integer, got 1.0"),
    (lambda: q.QuadRing(2.0), "d must be an integer, got 2.0"),
    (lambda: q.factor_int(True), "n must be an integer, got True"),
    (lambda: q.vn(q.IntIdeal(12), 1.5), "n must be an integer, got 1.5"),
    (lambda: fr.make_zn(True), "zn must be an integer, got True"),
    (lambda: fr.make_zn(2.0), "zn must be an integer, got 2.0"),
    (lambda: fr.make_poly_quotient(fr.make_zn(2), [1, 0, 1.5]),
     "polynomial coefficient must be an integer, got 1.5"),
    (lambda: fr.free_module(Z4, 1.0), "module rank must be an integer, got 1.0"),
    (lambda: fi.ideal_power(fi.whole_ideal(Z4), 2.5), "exponent must be an integer, got 2.5"),
    (lambda: fi.vn_set(fi.zero_ideal(Z4), 1.5), "n must be an integer, got 1.5"),
    (lambda: pc.derivative_gcd(X2, True), "k must be an integer, got True"),
    (lambda: pc.vk_poly(X2, 1.5), "k must be an integer, got 1.5"),
])
def test_integer_arguments_are_checked_strictly(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
