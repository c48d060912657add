import ast
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import INTERNAL_PHRASES
from radfact import cli, finideal, polychain
from radfact import quadring as q
from radfact.errors import MAX_NESTING

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, argv, payload=None, tmp_path=None):
    argv = list(argv)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        argv = ["--input", str(path)] + argv
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_quadratic(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["factor"], {"d": -5, "gens": ["6"]}, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert [link["norm"] for link in report["chain"]] == [18, 2]
    assert all(report["checks"].values())


def test_factor_int_shortcut(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["factor"], {"zint": 12}, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert [link["zint"] for link in report["chain"]] == [6, 2]


def test_factor_accepts_nontrivial_generators(capsys, tmp_path):
    payload = {"d": -1, "gens": ["2", "1+1*w"]}
    code, out, _ = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["ideal"]["hnf"] == [2, 1, 1]


def test_decide_ssp_flagship(capsys, tmp_path):
    payload = {"idealization": {"zn": 2, "module_rank": 2}}
    code, out, _ = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["is_ssp"] is False
    assert len(report["witness"]) == 2
    assert report["is_sp"] is True
    nulls = [k for k, v in report["factorizations"].items() if v is None]
    assert len(nulls) == 3
    assert all(report["checks"].values())


def test_spectrum_and_ideals(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["spectrum"], {"zn": 12}, tmp_path)
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out, _ = run_cli(capsys, ["ideals"], {"zn": 12}, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 6     # divisors of 12


def test_sf_chain_positional(capsys):
    code, out, _ = run_cli(capsys, ["sf-chain", "x^3-x^2-x+1"])
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["chain"] == ["x^2-1", "x-1"]
    assert all(report["results"][0]["checks"].values())


def test_sf_chain_file_lines(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text("x^2-1\n\nx^4-2*x^2+1\n")
    code = cli.main(["--input", str(path), "sf-chain"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert [r["chain"] for r in report["results"]] == [["x^2-1"], ["x^2-1", "x^2-1"]]


def test_sf_chain_refuses_a_polynomial_argument_together_with_input(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text("x^2-1\n")
    code, out, err = run_cli(capsys, ["--input", str(path), "sf-chain", "x^3-x"])
    assert (code, out) == (2, "")
    assert err == ("radfact: invalid input: give either a polynomial argument or --input, "
                   "not both\n")


@pytest.mark.parametrize("text", ["-x+1", "-3/7*x^4+1"])
def test_sf_chain_polynomial_opening_with_a_minus_sign(capsys, text):
    code, out, err = run_cli(capsys, ["sf-chain", text])
    assert (code, out, err) == run_cli(capsys, ["sf-chain", "--", text])
    assert code == 0 and json.loads(out)["results"][0]["input"] == text


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_sf_chain_help_flags_still_print_help(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sf-chain", flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: radfact sf-chain")


@pytest.mark.parametrize("argv", [
    ["-x+1", "sf-chain"], ["sf-chain", "-x+1", "x"], ["sf-chain", "-x+1", "-x+2"],
    ["sf-chain", "--x"], ["factor", "-x+1"],
], ids=" ".join)
def test_other_unknown_arguments_are_still_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: unrecognized arguments: " in capsys.readouterr().err


def test_sf_chain_refuses_a_minus_polynomial_together_with_input(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text("x^2-1\n")
    code, out, err = run_cli(capsys, ["--input", str(path), "sf-chain", "-x+1"])
    assert (code, out) == (2, "")
    assert "give either a polynomial argument or --input, not both" in err


# --- sf-chain on integers against the public RatPoly routes --------------------


def public_sf_chain_entry(text):
    """Oracle: one sf-chain report entry from the public `RatPoly` routes."""
    poly = polychain.parse_poly(text)
    chain = polychain.sf_chain(poly)
    return {
        "input": text,
        "leading_coefficient": str(poly.lc),
        "chain": [polychain.format_poly(g) for g in chain],
        "checks": polychain.chain_checks(poly, chain),
    }


# (lower coefficients, leading coefficient, multiplicity) of one factor
sf_factors = st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                       st.integers(-6, 6).filter(bool), st.integers(1, 5))
sf_texts = st.tuples(st.lists(sf_factors, min_size=1, max_size=3),
                     st.fractions(-20, 20, max_denominator=12).filter(bool)).map(
    lambda drawn: polychain.format_poly(functools.reduce(
        lambda f, factor: f * polychain.RatPoly(factor[0] + [factor[1]]) ** factor[2],
        drawn[0], polychain.RatPoly.const(drawn[1]))))


@settings(max_examples=200, deadline=None)
@given(sf_texts)
@example("-3/7*x^4+6/7*x^2-3/7")
def test_sf_chain_report_entry_equals_the_public_route(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sf-chain", "--", text]) == 0
    entry = public_sf_chain_entry(text)
    assert out.getvalue() == json.dumps({"results": [entry]}, sort_keys=True, indent=2) + "\n"
    assert all(entry["checks"].values())


@pytest.mark.parametrize("text, as_file", [
    *((text, False) for text in (
        "0", "x-x", "7", "5/7", "", "x+", "1/0*x", "x^257", "x^256", "x^0", "0*x^3+x", "-x",
        "2*x+1", "2/4*x^2-2/4", "6/4*x^3-3/2", "-3/7*x^4+6/7*x^2-3/7", "(2*x+1)^2")),
    ("4*x^2-4\n  -2/3*x^3+2/3*x  \n", True),
    ("x^2-1\n3/9\n", True),
], ids=repr)
def test_sf_chain_edge_cases_match_the_public_route(capsys, tmp_path, monkeypatch, text, as_file):
    argv = ["sf-chain", "--", text]
    if as_file:
        path = tmp_path / "polys.txt"
        path.write_text(text)
        argv = ["--input", str(path), "sf-chain"]
    integer = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_sf_chain_entry", public_sf_chain_entry)
    assert run_cli(capsys, argv) == integer


def test_sf_chain_that_does_not_remultiply_exits_5(capsys, monkeypatch):
    links = cli.polychain._links
    monkeypatch.setattr(cli.polychain, "_links", lambda p: links(p)[:-1])
    code, out, err = run_cli(capsys, ["sf-chain", "x^3-x^2-x+1"])
    assert (code, out) == (5, "")
    assert err == "radfact: internal invariant failed: squarefree chain failed to re-multiply\n"


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"zn": ')
    code = cli.main(["--input", str(path), "decide-ssp"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "column" in err


def test_invalid_payload_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["factor"], {"gens": ["6"]}, tmp_path)
    assert code == 2
    assert "factor payload" in err


def test_resource_bound_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["--max-order", "10", "decide-ssp"],
                           {"zn": 100}, tmp_path)
    assert code == 3
    assert "max-order" in err


@pytest.mark.parametrize("payload", [
    {"zn": 2.7},
    {"zn": True},
    {"zn": "4"},
    {"idealization": {"zn": 2, "module_rank": 1.5}},
    {"idealization": {"zn": 2, "module": {"rank": False}}},
    {"poly_quotient": {"zn": 2, "f": [1, 0.5, 1]}},
    {"poly_quotient": {"zn": 2, "f": [0, 0, True]}},
    {"order": 2.0, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    {"order": 2, "zero": False, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    {"order": 2, "zero": 0, "one": 1.0, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    {"order": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0.0]], "mul": [[0, 0], [0, 1]]},
    {"order": 1, "zero": 0, "one": 0, "add": [[2 ** 70]], "mul": [[0]]},
])
def test_non_integer_ring_fields_exit_2(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_table_ring_with_one_broken_distributivity_entry_exits_2(capsys, tmp_path):
    # Z4 with 2*2 = 2: commutative, unital, absorbing, but 2*(1+1) != 2*1 + 2*1
    payload = {"order": 4, "zero": 0, "one": 1,
               "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
               "mul": [[(a * b) % 4 for b in range(4)] for a in range(4)]}
    payload["mul"][2][2] = 2
    code, out, err = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert err == "radfact: invalid input: multiplication does not distribute over addition\n"


def test_idealization_over_a_table_ring_whose_zero_is_not_index_0(capsys, tmp_path):
    # Z2 with its elements swapped; its idealization is Z2(+)Z2 with zero (1, 1) = index 3
    swapped = {"order": 2, "zero": 1, "one": 0, "add": [[1, 0], [0, 1]], "mul": [[0, 1], [1, 1]]}
    code, out, err = run_cli(capsys, ["decide-ssp"], {"idealization": {"ring": swapped}},
                             tmp_path)
    assert (code, err) == (0, "")
    got = json.loads(out)
    code, out, _ = run_cli(capsys, ["decide-ssp"], {"idealization": {"zn": 2}}, tmp_path)
    want = json.loads(out)
    assert code == 0
    for key in ("checks", "is_sp", "is_ssp", "witness"):
        assert got[key] == want[key]
    assert got["factorizations"] == {"[0, 1, 2, 3]": [[0, 1, 2, 3]], "[2, 3]": [[2, 3]],
                                     "[3]": [[2, 3], [2, 3]]}


@pytest.mark.parametrize("payload", [
    {"idealization": {"zn": 2, "module_rank": 3000000}},
    {"idealization": {"zn": 3, "module": {"rank": 10 ** 9}}},
    {"poly_quotient": {"zn": 2, "f": [0] * 100000 + [1]}},
])
def test_huge_exponents_hit_the_order_bound(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 3
    assert out == ""
    assert "max-order" in err and "limit 4096" in err


def test_census_small_catalog(capsys, tmp_path):
    payload = {"catalog": [{"zn": n} for n in range(1, 9)]}
    code, out, _ = run_cli(capsys, ["census"], payload, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 8
    assert report["disagreements"] == 0
    assert all(row["agree"] for row in report["rows"])
    row12 = [r for r in report["rows"] if r["label"] == "Z6"][0]
    assert row12["local_profile"] == [2, 3]


def test_census_empty_catalog(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["census"], {"catalog": []}, tmp_path)
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == [] and report["total"] == 0


def test_census_disagreement_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.sspengine, "decide_ssp",
                        lambda ring, bounds: type(
                            "V", (), {"is_ssp": False, "witness_nonfactorable": None,
                                      "factorizations": {}})())
    payload = {"catalog": [{"zn": 4}]}
    code, out, _ = run_cli(capsys, ["census"], payload, tmp_path)
    assert code == 4
    assert json.loads(out)["disagreements"] == 1


def test_reports_are_byte_deterministic(capsys, tmp_path):
    payload = {"idealization": {"zn": 2, "module_rank": 2}}
    _, out1, _ = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    _, out2, _ = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert out1 == out2


def test_output_file_written_atomically(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    payload = {"zn": 6}
    code, out, _ = run_cli(capsys, ["--output", str(out_path), "spectrum"],
                           payload, tmp_path)
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["count"] == 2
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".radfact-")]
    assert not leftovers


# --- the report writer -----------------------------------------------------------

json_keys = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'), st.characters()),
                    max_size=6)
json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200)
               | st.integers(max_value=-(2 ** 64)) | st.floats() | json_keys
               | st.lists(st.integers(), min_size=20, max_size=80))
json_values = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(json_keys, children, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"": [], "a": {}, "b": [[], {}, [[]]], "\u00e9\"\\": [True, None, -1, 2 ** 70]})
def test_report_text_is_json_dumps_indented(value):
    assert cli._report_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("leaf", [{1, 2}, np.int64(3)], ids=["set", "numpy-int"])
def test_report_text_refuses_a_leaf_as_json_does(leaf):
    report = {"rows": [1, {"value": leaf}]}
    with pytest.raises(TypeError) as expected:
        json.dumps(report, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as refused:
        cli._report_text(report)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("argv, payload", [
    (["factor"], {"d": -5, "gens": ["6", "2+2*w"]}),
    (["decide-ssp"], {"idealization": {"zn": 2, "module_rank": 2}}),
    (["ideals"], {"zn": 12}),
    (["spectrum"], {"product": [{"zn": 4}, {"zn": 3}]}),
    (["sf-chain", "-3/7*x^4+6/7*x^2-3/7"], None),
    (["census"], {"catalog": [{"zn": 8}, {"poly_quotient": {"zn": 2, "f": [0, 0, 1]}}]}),
], ids=["factor", "decide-ssp", "ideals", "spectrum", "sf-chain", "census"])
def test_output_file_bytes_equal_stdout(capsys, tmp_path, argv, payload):
    code, out, err = run_cli(capsys, argv, payload, tmp_path)
    assert (code, err) == (0, "")
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, ["--output", str(out_path)] + argv, payload, tmp_path) == (0, "", "")
    assert out_path.read_bytes() == out.encode()


@pytest.mark.parametrize("target", ["missing/report.json", "existing"],
                         ids=["missing-directory", "existing-directory"])
def test_unwritable_output_names_the_given_path(capsys, tmp_path, target):
    (tmp_path / "existing").mkdir()
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, ["--output", str(out_path), "sf-chain", "x^2"])
    assert code == 2 and out == ""
    assert err.startswith(f"radfact: cannot write report to '{out_path}': ")
    assert ".radfact-" not in err
    assert not list(tmp_path.rglob(".radfact-*"))


def test_parse_quad_element():
    assert cli.parse_quad_element("6") == (6, 0)
    assert cli.parse_quad_element("1+2*w") == (1, 2)
    assert cli.parse_quad_element("-w") == (0, -1)
    assert cli.parse_quad_element("2-1*w") == (2, -1)
    assert cli.parse_quad_element([3, 4]) == (3, 4)
    assert cli.parse_quad_element(7) == (7, 0)
    with pytest.raises(ValueError):
        cli.parse_quad_element("u+v")


@pytest.mark.parametrize("variant, plain", [("w^1", "w"), ("6*w^0", "6"), ("2w", "2*w"),
                                            ("w^0 + w^1", "1+w")])
def test_generator_exponents_up_to_1_read_as_written_out(capsys, tmp_path, variant, plain):
    reports = [run_cli(capsys, ["factor"], {"d": -5, "gens": [g]}, tmp_path)
               for g in (variant, plain)]
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("gen, code, named", [
    ("w^2", 2, "'w^2'"),
    ("x", 2, "'x'"),
    ("1/2*w", 2, "'1/2*w'"),
    ("w^257", 3, "max-degree"),
])
def test_generator_outside_z_w_names_the_generator_or_the_bound(capsys, tmp_path, gen, code,
                                                                named):
    got, out, err = run_cli(capsys, ["factor"], {"d": -5, "gens": ["6", gen]}, tmp_path)
    assert (got, out) == (code, "")
    assert named in err and err.count("\n") == 1
    assert not any(phrase in err for phrase in INTERNAL_PHRASES)


@pytest.mark.parametrize("argv, text, code, opening", [
    (["census"], json.dumps({"catalog": [{"zn": 4}, {"zn": 0}]}), 2,
     "invalid input: catalog[1]: n must be >= 1"),
    (["--max-ideals", "100", "census"],
     json.dumps({"catalog": [{"zn": 4}, {"idealization": {"zn": 2, "module_rank": 6}}]}), 3,
     "resource bound exceeded: catalog[1]: lattice size exceeds the max-ideals bound"),
    (["sf-chain"], "x^2-1\n\n7\n", 2, "invalid input: line 3: f must have degree >= 1"),
    (["sf-chain"], "x^2-1\nx^300+1\n", 3,
     "resource bound exceeded: line 2: polynomial degree exceeds the max-degree bound"),
], ids=["census-exit-2", "census-exit-3", "sf-chain-exit-2", "sf-chain-exit-3"])
def test_a_batch_refusal_names_the_item_that_failed(capsys, tmp_path, argv, text, code, opening):
    path = tmp_path / "batch"
    path.write_text(text)
    got, out, err = run_cli(capsys, ["--input", str(path)] + argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"radfact: {opening}") and err.count("\n") == 1


def test_max_norm_governs_d(capsys, tmp_path):
    # 10^12 + 1 = 73 * 137 * 99990001; 10^12 + 39 is prime, so its
    # squarefree check runs Miller-Rabin on a cofactor above 10^12
    for d in (1000000000001, 1000000000039):
        payload = {"d": d, "gens": ["2"]}
        code, _, err = run_cli(capsys, ["factor"], payload, tmp_path)
        assert code == 3 and "max-norm" in err
        code, out, _ = run_cli(capsys, ["--max-norm", str(10 ** 14), "factor"],
                               payload, tmp_path)
        assert code == 0
        report = json.loads(out)
        assert report["d"] == d
        assert all(report["checks"].values())


def test_sf_chain_zero_denominator_is_invalid(capsys):
    code, out, err = run_cli(capsys, ["sf-chain", "1/0*x+1"])
    assert code == 2
    assert out == "" and "zero denominator" in err


def test_huge_rank_over_the_zero_ring(capsys, tmp_path):
    payload = {"idealization": {"zn": 1, "module_rank": 10 ** 12}}
    code, out, _ = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 0
    assert json.loads(out)["ring"]["order"] == 1


@pytest.mark.parametrize("payload", [
    {"zint": 12.7},
    {"zint": "12"},
    {"zint": True},
    {"d": -5.9, "gens": ["6"]},
    {"d": "-5", "gens": ["6"]},
    {"d": True, "gens": ["6"]},
    {"d": -5, "gens": [[6.5, 0]]},
    {"d": -5, "gens": [[6, "1"]]},
    {"d": -5, "gens": [[6, False]]},
    {"d": -5, "gens": [True]},
])
def test_non_integer_factor_fields_exit_2(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_max_order_above_the_ceiling_exits_2(capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"zn": 4500}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--max-order", "5000", "--input", str(path), "decide-ssp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-order 5000 exceeds the ceiling 4096" in captured.err
    code, _, err = run_cli(capsys, ["--max-order", "4096", "decide-ssp"], {"zn": 4500}, tmp_path)
    assert code == 3 and "limit 4096" in err


@pytest.mark.parametrize("limit", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--max-order", "--max-ideals", "--max-norm"])
def test_bound_flags_below_1_exit_2(capsys, tmp_path, flag, limit):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"zn": 4}))
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, limit, "--input", str(path), "decide-ssp"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} {limit} is below 1" in captured.err


def nested_product(depth):
    return '{"product": [' * depth + '{"zn": 2}' + ']}' * depth


def deepest_nesting_json_accepts():
    lo, hi = 1, 5000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads(nested_product(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("depth", [5000, None], ids=["5000", "deepest-json-accepts"])
def test_deeply_nested_payload_exits_2(capsys, tmp_path, depth):
    path = tmp_path / "payload.json"
    path.write_text(nested_product(depth or deepest_nesting_json_accepts()))
    code = cli.main(["--input", str(path), "decide-ssp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "input nested too deeply" in captured.err


def levels(payload):
    return max(itertools.accumulate((c in "[{") - (c in "]}") for c in payload))


# a ring of two levels: one object inside another
_IDEALIZATION = '{"idealization": {"zn": 2, "module_rank": 1}}'


def test_payload_at_the_nesting_limit_is_accepted(capsys, tmp_path):
    # the sibling Z2 adds a bracket but no level, so the text is scanned
    payload = '{"product": [' * 127 + _IDEALIZATION + ']}' * 126 + ', {"zn": 2}]}'
    assert levels(payload) == MAX_NESTING < payload.count("[") + payload.count("{")
    path = tmp_path / "payload.json"
    path.write_text(payload)
    code, out = cli.main(["--input", str(path), "decide-ssp"]), capsys.readouterr().out
    assert code == 0 and json.loads(out)["ring"]["order"] == 8


def test_payload_one_level_past_the_nesting_limit_exits_2(capsys, tmp_path):
    payload = nested_product(128)
    assert levels(payload) == MAX_NESTING + 1
    path = tmp_path / "payload.json"
    path.write_text(payload)
    code = cli.main(["--input", str(path), "decide-ssp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input nested too deeply (over {MAX_NESTING} levels of arrays and objects)" \
        in captured.err


def test_brackets_inside_a_string_do_not_count_toward_nesting(capsys, tmp_path):
    # json.dumps writes each quote as \", which must not end the string either
    table = dict(_TABLE, label='[{"' * MAX_NESTING)
    payload = '{"product": [' * 126 + json.dumps(table) + ']}' * 126
    assert levels(payload) > MAX_NESTING
    path = tmp_path / "payload.json"
    path.write_text(payload)
    code, out = cli.main(["--input", str(path), "decide-ssp"]), capsys.readouterr().out
    assert code == 0 and json.loads(out)["ring"]["label"] == table["label"]


def test_sf_chain_degree_bound_exits_3(capsys):
    code, out, err = run_cli(capsys, ["sf-chain", "x^100000000"])
    assert code == 3 and out == ""
    assert "max-degree" in err and "limit 256" in err and "100000000" in err


@pytest.mark.parametrize("value", [[1], 3, "x", None])
def test_poly_quotient_that_is_not_an_object_exits_2(capsys, tmp_path, value):
    code, out, err = run_cli(capsys, ["decide-ssp"], {"poly_quotient": value}, tmp_path)
    assert code == 2
    assert out == ""
    assert "poly_quotient must be a JSON object" in err


_TABLE = {"order": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("payload, message", [
    ({"product": 5}, "product must be a JSON list"),
    ({"product": {"zn": 2}}, "product must be a JSON list"),
    ({"idealization": [1]}, "idealization must be a JSON object"),
    ({"idealization": 7}, "idealization must be a JSON object"),
    ({"poly_quotient": {"zn": 3}}, "poly_quotient f must be a JSON list"),
    ({"poly_quotient": {"zn": 3, "f": None}}, "poly_quotient f must be a JSON list"),
    ({"poly_quotient": {"zn": 3, "f": 5}}, "poly_quotient f must be a JSON list"),
    ({"poly_quotient": {"f": [1, 1]}}, "poly_quotient needs exactly one of 'base' or 'zn'"),
    (dict(_TABLE, add=[[0, 1], [1]]), "add table must hold 2 rows of 2 integers"),
    (dict(_TABLE, mul=[[0, 0], [0, "1"]]), "mul table must hold 2 rows of 2 integers"),
    (dict(_TABLE, add=[[0, 1], [1, True]]), "add table must hold 2 rows of 2 integers"),
    (dict(_TABLE, add=[[0, 1], [1, 2 ** 32]]), "add table must hold 2 rows of 2 integers"),
    (dict(_TABLE, mul=5), "mul table must hold 2 rows of 2 integers"),
    (dict(_TABLE, label=7), "label must be a string"),
    (dict(_TABLE, extra=1), "table ring description has unknown keys ['extra']"),
    ({"zn": 4, "label": "x"}, "zn ring description has unknown keys ['label']"),
    ({"poly_quotient": {"base": {"zn": 4, "label": "x"}, "f": [1, 1]}},
     "zn ring description has unknown keys ['label']"),
    ({"poly_quotient": {"zn": 2, "f": [1, 1], "g": 0}}, "poly_quotient has unknown keys ['g']"),
    ({"product": [{"zn": 2}], "label": "x"}, "product ring description has unknown keys"),
    ({"idealization": {"zn": 2, "ring": {"zn": 2}}}, "idealization needs exactly one of"),
    ({"idealization": {"zn": 2, "module_rank": 1, "module": "self"}}, "at most one of"),
    ({"idealization": {"zn": 2, "module": {"rank": 1, "free": True}}}, "unknown keys ['free']"),
])
def test_ring_fields_are_checked_before_use_exit_2(capsys, tmp_path, payload, message):
    code, out, err = run_cli(capsys, ["decide-ssp"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert message in err
    assert not any(phrase in err for phrase in INTERNAL_PHRASES)


IDEALIZATION_2826 = {"idealization": {"zn": 2, "module_rank": 6}}   # 2,826 ideals


@pytest.mark.parametrize("argv, payload, bound, limit, observed", [
    (["--max-order", "64", "decide-ssp"], {"zn": 100}, "max-order", 64, 100),
    (["--max-ideals", "100", "census"], {"catalog": [IDEALIZATION_2826]}, "max-ideals", 100, 101),
    (["--max-norm", str(5 * 10 ** 12), "factor"], {"zint": 10 ** 13},
     "max-norm", 5 * 10 ** 12, 10 ** 13),
    (["sf-chain", "x^300+1"], None, "max-degree", 256, 300),
    (["factor"], {"d": -1, "gens": [[10 ** 4299, 0]]}, "max-norm", 10 ** 12,
     f"{(10 ** 8598).bit_length()} bits"),
    (["factor"], {"zint": int("7" * 4300)}, "max-norm", 10 ** 12,
     f"{int('7' * 4300).bit_length()} bits"),
    (["factor"], {"d": 10 ** 13, "gens": ["2"]}, "max-norm", 10 ** 12, 10 ** 13),
], ids=["max-order", "max-ideals", "max-norm", "max-degree", "max-norm-of-8599-digits",
        "max-norm-of-4300-digits", "max-norm-of-d"])
def test_each_flag_governs_its_bound_and_shows_the_observed_size(
        capsys, tmp_path, monkeypatch, argv, payload, bound, limit, observed):
    lattices = []

    def spy(*args):
        known = closure(*args)
        lattices.append(len(known))
        return known

    closure = finideal._join_closure
    monkeypatch.setattr(finideal, "_join_closure", spy)
    code, out, err = run_cli(capsys, argv, payload, tmp_path)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and len(err) < 200
    assert bound in err and f"(limit {limit}, observed {observed})" in err
    assert all(size <= limit + 1 for size in lattices)


PSI_13 = 3317044064679887385961981


def _shown_over(limit, observed):
    """Whether a resource message's observed size lies above its limit, as far
    as the text shows it: an integer, "N bits", "N digits" or "base^exp"."""
    if observed.isdigit():
        return int(observed) > limit
    if observed.endswith(" bits"):
        return int(observed.split()[0]) >= limit.bit_length()
    if observed.endswith(" digits"):
        return int(observed.split()[0]) > len(str(limit))
    base, exp = map(int, observed.split("^"))
    return exp * math.log(base) > math.log(limit)


@pytest.mark.parametrize("argv, payload", [
    (["--max-order", "10", "decide-ssp"], {"zn": 100}),
    (["decide-ssp"], {"idealization": {"zn": 2, "module_rank": 3000000}}),
    (["decide-ssp"], {"idealization": {"zn": 3, "module": {"rank": 10 ** 9}}}),
    (["decide-ssp"], {"poly_quotient": {"zn": 2, "f": [0] * 100000 + [1]}}),
    (["--max-order", "4096", "decide-ssp"], {"zn": 4500}),
    (["--max-order", "64", "decide-ssp"], {"zn": 100}),
    (["--max-ideals", "100", "census"], {"catalog": [IDEALIZATION_2826]}),
    (["--max-ideals", "100", "ideals"], {"product": [{"zn": 2}] * 12}),
    (["factor"], {"d": 1000000000001, "gens": ["2"]}),
    (["factor"], {"d": 1000000000039, "gens": ["2"]}),
    (["factor"], {"d": 10 ** 13, "gens": ["2"]}),
    (["factor"], {"d": -(10 ** 13), "gens": ["2"]}),
    (["--max-norm", str(5 * 10 ** 12), "factor"], {"zint": 10 ** 13}),
    (["factor"], {"d": -1, "gens": [[10 ** 4299, 0]]}),
    (["factor"], {"zint": int("7" * 4300)}),
    (["sf-chain", "x^300+1"], None),
    (["sf-chain", "x^100000000"], None),
    (["sf-chain", "x^" + "9" * 5000], None),
    # a composite cofactor past the trial division, and a cofactor from psi_13 on
    (["--max-norm", str(10 ** 16), "factor"], {"zint": 100000980001501}),
    (["--max-norm", str(10 ** 25), "factor"], {"zint": PSI_13}),
], ids=["max-order", "module-of-2-to-the-3000000", "module-of-3-to-the-10-to-the-9",
        "quotient-of-degree-100000", "order-over-the-ceiling", "max-order-64", "max-ideals",
        "max-ideals-of-z2-to-the-12", "d-composite", "d-prime", "d", "negative-d", "max-norm",
        "norm-of-8599-digits", "norm-of-4300-digits", "max-degree", "degree-of-9-digits",
        "degree-of-5000-digits", "trial-division", "exact-primality"])
def test_no_refusal_shows_an_observed_size_within_its_limit(capsys, tmp_path, argv, payload):
    code, out, err = run_cli(capsys, argv, payload, tmp_path)
    assert code == 3 and out == ""
    match = re.search(r"\(limit (\d+), observed ([^)]+)\)$", err.strip())
    assert match, err
    assert _shown_over(int(match.group(1)), match.group(2)), err


def test_oversized_d_is_reported_as_d_before_it_is_factored(capsys, tmp_path, monkeypatch):
    def no_factoring(n, bounds):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(q, "factor_int", no_factoring)
    code, out, err = run_cli(capsys, ["factor"], {"d": -(10 ** 13), "gens": ["2"]}, tmp_path)
    assert code == 3 and out == ""
    assert "|d| exceeds the max-norm bound (limit 1000000000000, observed 10000000000000)" in err


def test_max_ideals_stops_the_lattice_of_z2_to_the_12_at_limit_plus_1(capsys, tmp_path):
    payload = {"product": [{"zn": 2}] * 12}
    code, out, err = run_cli(capsys, ["--max-ideals", "100", "ideals"], payload, tmp_path)
    assert code == 3 and out == ""
    assert "max-ideals" in err and "(limit 100, observed 101)" in err


def test_spectrum_enumerates_no_lattice_so_max_ideals_does_not_stop_it(capsys, tmp_path):
    payload = {"product": [{"zn": 2}] * 12}
    code, out, err = run_cli(capsys, ["--max-ideals", "5", "spectrum"], payload, tmp_path)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["count"] == len(report["spectrum"]) == 12


@pytest.mark.parametrize("argv, text", [
    (["sf-chain"], "x^2-1\n" + "x+" * 50000 + "q\n"),
    (["sf-chain"], "x" * (1 << 20) + "\n"),
    (["sf-chain"], "x" + "+" * (1 << 20) + "\n"),
    (["sf-chain"], "1" * (1 << 20) + "^2\n"),
    (["sf-chain"], "1/0*x^" + "9" * (1 << 20) + "\n"),
    (["factor"], json.dumps({"d": -1, "gens": ["1+" + "2" * 40000 + "*v"]})),
    (["factor"], json.dumps({"d": -1, "gens": ["w^2" + "+w" * 250000]})),
    (["factor"], json.dumps({"d": -1, "gens": [[1] * 300000]})),
    (["census"], json.dumps({"catalog": [{"zn": "7" * 50000}]})),
    (["decide-ssp"], json.dumps({f"key{k}": 0 for k in range(20000)})),
    (["decide-ssp"], json.dumps({"zn": 2, "k" * 30000: 1})),
], ids=["sf-chain-100-kb-bad-last-term", "sf-chain-1-mb-term", "sf-chain-1-mb-of-signs",
        "sf-chain-1-mb-exponent-without-variable", "sf-chain-1-mb-zero-denominator",
        "factor-40000-char-generator", "factor-500-kb-generator-outside-z-w",
        "factor-300000-coordinates", "census-50000-char-zn-string",
        "decide-ssp-ring-with-20000-keys", "decide-ssp-30000-char-unknown-key"])
def test_a_refusal_quotes_a_bounded_part_of_its_input(capsys, tmp_path, argv, text):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["--input", str(path)] + argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 400 and err.count("\n") == 1, err[:400]
    assert "chars)" in err


@pytest.mark.parametrize("payload", [[1], 5, "default", True])
def test_census_payload_that_is_not_an_object_exits_2(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, ["census"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert "census payload needs" in err


def test_census_payload_with_an_unknown_key_exits_2(capsys, tmp_path):
    payload = {"catalog": [{"zn": 2}], "catalgo": "default"}
    code, out, err = run_cli(capsys, ["census"], payload, tmp_path)
    assert code == 2 and out == ""
    assert "census payload has unknown keys ['catalgo']" in err


def test_broken_invariant_exits_5_without_traceback(capsys, tmp_path, monkeypatch):
    # every "prime" above p is (p) itself, so the factorization cannot re-multiply
    monkeypatch.setattr(cli.quadring, "primes_above",
                        lambda ring, p: [(cli.quadring.QuadIdeal(ring, p, 0, p), 1)])
    code, out, err = run_cli(capsys, ["factor"], {"d": -1, "gens": ["2", "1+w"]}, tmp_path)
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1 and "internal invariant failed" in err
    assert "Traceback" not in err


def test_int_factorization_that_does_not_remultiply_exits_5(capsys, tmp_path, monkeypatch):
    # one too many of every prime, so the factors multiply to more than (12)
    valuation = cli.quadring._valuation
    monkeypatch.setattr(cli.quadring, "_valuation", lambda n, p: valuation(n, p) + 1)
    code, out, err = run_cli(capsys, ["factor"], {"zint": 12}, tmp_path)
    assert code == 5 and out == ""
    assert err.count("\n") == 1 and "internal invariant failed" in err


def test_broken_local_decomposition_exits_5_without_traceback(capsys, tmp_path, monkeypatch):
    # an all-zero mul (1*1 = 0) has no idempotents that sum to one
    broken = cli.finring.FinRing._trusted(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]], 0, 1, "broken")
    monkeypatch.setattr(cli.finring, "ring_from_dict", lambda spec, bounds: broken)
    code, out, err = run_cli(capsys, ["census"], {"catalog": [{"zn": 2}]}, tmp_path)
    assert code == 5
    assert out == ""
    assert err == "radfact: internal invariant failed: primitive idempotents do not sum to 1\n"


@pytest.mark.parametrize("payload, message", [
    ({"d": -1, "gens": "22"}, "gens must be a JSON list"),
    ({"d": -1, "gens": {"x": 22}}, "gens must be a JSON list"),
    ("zint", "exactly one of"),
    ([{"zint": 12}], "exactly one of"),
    ({"d": -5, "zint": 12}, "exactly one of"),
    ({"d": -5, "gens": ["6"], "zint": 12}, "exactly one of"),
    ({"zint": 12, "label": "x"}, "unknown keys ['label']"),
    ({"d": -5, "gens": ["6"], "max_norm": 5}, "unknown keys ['max_norm']"),
])
def test_factor_payload_shape_is_validated(capsys, tmp_path, payload, message):
    code, out, err = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 2
    assert out == ""
    assert "factor payload" in err and message in err
    assert "string indices" not in err


@pytest.mark.parametrize("payload", [{"zint": 1}, {"d": -5, "gens": ["1"]}])
def test_factor_of_the_unit_ideal_exits_2_naming_no_python_keyword(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 2 and out == ""
    assert err == "radfact: invalid input: the unit ideal has no radical chain\n"
    assert not any(phrase in err for phrase in INTERNAL_PHRASES)


def test_exponent_beyond_int_digit_limit_hits_the_degree_bound(capsys):
    code, out, err = run_cli(capsys, ["sf-chain", "x^" + "9" * 5000])
    assert code == 3 and out == ""
    assert "max-degree" in err and "limit 256" in err and "5000 digits" in err
    assert "int_max_str_digits" not in err


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)


def _fresh_process(argv):
    out = _python("-m", "radfact.cli", *argv)
    return out.returncode, out.stdout


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_shared_parser_matches_fresh_processes(capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"zint": 12}))
    polys = tmp_path / "polys.txt"
    polys.write_text("x^2-1\nx^4-2*x^2+1\n")
    sequence = [
        ["--max-norm", "5", "--input", str(job), "factor"],
        ["--input", str(job), "factor"],
        ["sf-chain", "x^2-1"],
        ["--input", str(polys), "sf-chain"],
        ["--max-norm", "many", "--input", str(job), "factor"],
        ["--input", str(job), "factor"],
    ]
    in_process = [_in_process(capsys, argv) for argv in sequence]
    assert [code for code, _ in in_process] == [3, 0, 0, 0, 2, 0]
    assert in_process == [_fresh_process(argv) for argv in sequence]


def test_reports_are_emitted_only_by_main():
    # a handler returns its report; main writes it once and picks the exit status
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_emit"]
    assert callers == ["main"]


_LONG = "7" * 4301


@pytest.mark.parametrize("argv, payload", [
    (["factor"], '{"zint": %s}' % _LONG),
    (["census"], '{"catalog": [{"zn": %s}]}' % _LONG),
    (["factor"], '{"d": -1, "gens": ["%s"]}' % ("1" * 4301)),
    (["sf-chain", _LONG + "*x^2-1"], None),
], ids=["json-integer", "catalog-integer", "string-generator", "poly-coefficient"])
def test_oversized_integer_exits_2_naming_the_digit_limit(capsys, tmp_path, argv, payload):
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(payload)
        argv = ["--input", str(path)] + argv
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "4301 digits, over the 4300-digit limit" in err
    assert not any(phrase in err for phrase in INTERNAL_PHRASES)


_LOWERED = "7" * 1000


@pytest.fixture
def int_digit_limit_640():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv, payload", [
    (["factor"], '{"zint": %s}' % _LOWERED),
    (["factor"], '{"d": -1, "gens": ["%s"]}' % _LOWERED),
    (["sf-chain", _LOWERED + "*x^2-1"], None),
], ids=["json-integer", "string-generator", "poly-coefficient"])
def test_lowered_interpreter_digit_limit_exits_2_naming_it(
        capsys, tmp_path, int_digit_limit_640, argv, payload):
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(payload)
        argv = ["--input", str(path)] + argv
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "1000 digits, over the 640-digit limit" in err
    assert not any(phrase in err for phrase in INTERNAL_PHRASES)


# Runs jobs through cli.main in a fresh interpreter; argv[1] says whether numpy
# is imported before radfact, argv[2] and argv[3] are factor and decide-ssp payloads
_COLD_JOBS = """
import contextlib, io, json, sys
if sys.argv[1] == "numpy-first":
    import numpy
from radfact import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

jobs = {"factor": run(["--input", sys.argv[2], "factor"]),
        "sf-chain": run(["sf-chain", "x^3-x^2-x+1"])}
loaded = [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]
jobs["decide-ssp"] = run(["--input", sys.argv[3], "decide-ssp"])
print(json.dumps({"jobs": jobs, "numpy_modules": loaded}))
"""


def test_factor_and_sf_chain_jobs_never_load_numpy(tmp_path):
    factor = tmp_path / "factor.json"
    factor.write_text(json.dumps({"d": -5, "gens": ["6"]}))
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"zn": 12}))
    runs = {}
    for order in ("radfact-first", "numpy-first"):
        proc = _python("-c", _COLD_JOBS, order, str(factor), str(ring))
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout)
    lazy = runs["radfact-first"]
    # neither numpy nor any of its submodules is in sys.modules
    assert lazy["numpy_modules"] == []
    assert all(code == 0 for code, _ in lazy["jobs"].values())
    assert lazy["jobs"] == runs["numpy-first"]["jobs"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # diffed across the import, so what site loads beforehand does not count
    proc = _python("-c", "import sys\n"
                         "before = set(sys.modules)\n"
                         "import radfact.cli\n"
                         "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_neither_typing_nor_tempfile():
    # -S skips site and the .pth files that may load both beforehand, so numpy's
    # directory goes on PYTHONPATH for the import-time check that it exists
    numpy_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + numpy_dir)
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys\n"
                           "before = set(sys.modules)\n"
                           "import radfact.cli\n"
                           "print(sorted({'typing', 'tempfile'} & (set(sys.modules) - before)))"],
                          env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs one job through cli.main in a fresh interpreter (argv[1:] is its argv) and
# prints the radfact modules whose code has run: a module registered lazily
# stays a LazyLoader module, not a plain one, until its first attribute access
_RAN_MODULES = """
import contextlib, io, json, sys, types
from radfact import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "ran": sorted(
    name for name, mod in sys.modules.items()
    if name.startswith("radfact") and type(mod) is types.ModuleType)}))
"""

_CORE = ["radfact", "radfact.cli", "radfact.errors"]
_TABLE_RING = ["radfact.finideal", "radfact.finring", "radfact.sspengine"]


@pytest.mark.parametrize("argv, payload, engines", [
    (["factor"], {"d": -5, "gens": ["6"]}, ["radfact.quadring"]),
    (["sf-chain", "x^3-x^2-x+1"], None, ["radfact.polychain"]),
    (["decide-ssp"], {"zn": 12}, _TABLE_RING),
    (["census"], {"catalog": [{"zn": 12}, {"product": [{"zn": 2}, {"zn": 3}]}]}, _TABLE_RING),
], ids=["factor", "sf-chain", "decide-ssp", "census"])
def test_each_command_runs_only_the_engines_it_calls(tmp_path, argv, payload, engines):
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        argv = ["--input", str(path)] + argv
    proc = _python("-c", _RAN_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["ran"] == sorted(_CORE + engines)


# Prints whether numpy is in sys.modules after `import radfact`, and whether it is
# a plain module after a decide-ssp job (argv[1] is its payload)
_NUMPY_STATE = """
import contextlib, io, json, sys, types
import radfact
imported = "numpy" in sys.modules
from radfact import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--input", sys.argv[1], "decide-ssp"])
print(json.dumps({"after_import": imported, "code": code,
                  "plain_after_job": type(sys.modules.get("numpy")) is types.ModuleType}))
"""


def test_import_leaves_numpy_to_the_first_table_ring_job(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"zn": 12}))
    proc = _python("-c", _NUMPY_STATE, str(ring))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"after_import": False, "code": 0, "plain_after_job": True}


# Four threads import numpy at once in a host that imported radfact first
_THREADED_NUMPY = """
import json, threading
import radfact
barrier, failures = threading.Barrier(4, timeout=30), []

def work():
    try:
        barrier.wait()
        import numpy
        numpy.zeros(3)
    except Exception as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
failures += ["still running"] * sum(thread.is_alive() for thread in threads)
print(json.dumps(failures))
"""


def test_host_threads_import_numpy_after_radfact():
    proc = _python("-c", _THREADED_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_finring_uses_an_already_imported_numpy():
    proc = _python("-c", "import numpy; import radfact.finring as f; print(f.np is numpy)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_missing_numpy_still_fails_at_import():
    hide = ("import importlib.util, os, sys\n"
            "site = os.path.dirname(os.path.dirname(importlib.util.find_spec('numpy').origin))\n"
            "sys.path = [p for p in sys.path if os.path.abspath(p) != site]\n"
            "try:\n"
            "    import radfact\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name)\n")
    proc = _python("-c", hide)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"
