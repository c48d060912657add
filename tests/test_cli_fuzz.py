"""Hypothesis fuzzing of `cli.main`: any payload ends in a documented exit
code with at most one diagnostic line, never in a traceback or in the
wording of a Python or numpy internal.  The two text parsers are fuzzed
directly as well: they return or raise ValueError or ResourceLimitError, and
each reads back what the one polynomial writer wrote."""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from radfact import cli, polychain
from radfact.errors import ResourceLimitError, _format_terms, parse_quad_element
from radfact.finring import make_zn, ring_to_dict

from conftest import INTERNAL_PHRASES

BOUND_FLAGS = ["--max-order", "64", "--max-ideals", "2000"]

# wrong-typed leaves, mixed in wherever an integer, list or object belongs
junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                 st.text(max_size=3), st.just([]), st.just({}), st.just([1, "x"]),
                 st.integers(-10 ** 30, 10 ** 30))


def mostly(valid, other=junk):
    """`valid` about nine times in ten, `other` (by default a wrong-typed leaf) otherwise."""
    # hypothesis favours the ends of a range, so `other` takes a middle value
    return st.integers(0, 9).flatmap(lambda k: other if k == 4 else valid)


small = mostly(st.integers(1, 12), st.one_of(junk, st.integers(-1, 0)))
extra_key = mostly(st.just({}), st.fixed_dictionaries({"label": junk}))


def table(n):
    entry = mostly(st.integers(-1, n))
    return st.one_of(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
                     st.lists(st.lists(entry, max_size=n + 1), max_size=n + 1), junk)


def with_extra(spec):
    return st.tuples(spec, extra_key).map(lambda pair: {**pair[0], **pair[1]})


tables = st.one_of(
    st.integers(1, 6).map(lambda n: ring_to_dict(make_zn(n))),
    st.integers(0, 3).flatmap(lambda n: st.fixed_dictionaries(
        {"order": mostly(st.just(n)), "zero": small, "one": small,
         "add": table(n), "mul": table(n)}, optional={"label": st.text(max_size=2)})),
)
zn_specs = with_extra(st.fixed_dictionaries({"zn": small}))
monic = st.lists(small, min_size=1, max_size=3).map(lambda f: f + [1])


def compound(rings):
    return st.one_of(
        with_extra(st.fixed_dictionaries({"poly_quotient": mostly(st.one_of(
            st.fixed_dictionaries({"zn": small, "f": mostly(monic)}),
            st.fixed_dictionaries({"base": rings, "f": mostly(monic)}),
            st.fixed_dictionaries({}, optional={"zn": small, "base": rings, "f": monic}),
        ))})),
        with_extra(st.fixed_dictionaries({"product": mostly(st.lists(rings, max_size=3))})),
        st.fixed_dictionaries({"idealization": mostly(st.one_of(
            st.fixed_dictionaries({"zn": small}, optional={"module_rank": small}),
            st.fixed_dictionaries({"ring": rings}, optional={"module": mostly(st.one_of(
                st.just("self"), st.fixed_dictionaries({"rank": small}, optional={"free": junk})))}),
            st.fixed_dictionaries({}, optional={"zn": small, "ring": rings, "module_rank": small,
                                                "module": st.just("self")}),
        ))}),
    )


ring_specs = st.recursive(mostly(st.one_of(zn_specs, zn_specs, tables)), compound, max_leaves=4)

factor_payloads = mostly(st.one_of(
    with_extra(st.fixed_dictionaries({"zint": mostly(st.integers(-5, 10 ** 13))})),
    with_extra(st.fixed_dictionaries({"d": mostly(st.integers(-50, 50))}, optional={
        "gens": mostly(st.lists(mostly(st.one_of(
            st.integers(-30, 30), mostly(st.sampled_from(["6", "1+2*w", "-w", "2-w", "w"]),
                                         st.text("0123456789+-*w", max_size=6)),
            st.lists(st.integers(-9, 9), min_size=2, max_size=2))), max_size=3))})),
))

poly_terms = mostly(st.builds(
    lambda sign, coeff, exp: f"{sign}{coeff}{exp}",
    st.sampled_from(["+", "-"]),
    st.sampled_from(["", "2*", "3/2*", "12*"]),
    st.one_of(st.integers(0, 9).map(lambda e: f"x^{e}"), st.just("x"))),
    st.sampled_from(["+7", "-1/0*x", "*x", "+x^", "+x^1000000", "^2", "+x^9^9"]))
polys = mostly(st.lists(poly_terms, min_size=1, max_size=6).map("".join)).map(str)

jobs = st.one_of(
    st.tuples(st.sampled_from(["decide-ssp", "ideals", "spectrum"]), ring_specs),
    st.tuples(st.just("census"), mostly(st.fixed_dictionaries(
        {"catalog": st.lists(ring_specs, max_size=3)}))),
    st.tuples(st.just("factor"), factor_payloads),
    st.tuples(st.just("sf-chain"), polys),
)


@settings(max_examples=300, deadline=timedelta(seconds=20),
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs)
def test_main_ends_in_a_documented_exit_code(tmp_path_factory, job):
    command, payload = job
    path = tmp_path_factory.getbasetemp() / "fuzz-payload"
    path.write_text(payload if command == "sf-chain" else json.dumps(payload))
    argv = BOUND_FLAGS + ["--input", str(path), command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4, 5)
    assert err.count("\n") == (0 if code in (0, 4) else 1)
    assert not any(phrase in err for phrase in INTERNAL_PHRASES), err


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
parser_inputs = st.one_of(
    st.text(),
    st.text("0123456789+-*/^xw .", max_size=40),
    st.lists(st.sampled_from(["x", "w", "^", "*", "/", "+", "-", "0", "7", "256", "257",
                              "9" * 30, "1" * 5000]), max_size=12).map("".join),
    json_values,
    st.lists(json_values, min_size=2, max_size=2).map(tuple),
)


@settings(max_examples=500, deadline=timedelta(seconds=2))
@given(parser_inputs)
@example("x^257")
@example("x^" + "1" * 5000)
@example("1" * 5000 + "*w")
@example(None)
@example([1, [2]])
def test_text_parsers_return_or_raise_only_input_errors(value):
    for parse in (polychain.parse_poly, parse_quad_element):
        try:
            parse(value)
        except (ValueError, ResourceLimitError) as exc:
            event(f"{parse.__name__}: {type(exc).__name__}")
        else:
            event(f"{parse.__name__}: parsed")


@given(st.lists(st.fractions(), max_size=13).map(polychain.RatPoly))
def test_parse_poly_reads_back_format_poly(p):
    assert polychain.parse_poly(polychain.format_poly(p)) == p


@given(st.integers(), st.integers())
def test_parse_quad_element_reads_back_the_written_element(x, y):
    assert parse_quad_element(_format_terms([x, y], "w")) == (x, y)
