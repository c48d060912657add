"""Batch JSON command line: one job per invocation, deterministic reports.

Each command's handler maps the parsed arguments to a report dict; `main`
emits that report once, to stdout or atomically to --output, and maps the
outcome to the exit status.  The table-ring commands (decide-ssp, ideals,
spectrum) share one handler that heads each report with the ring.  Text is
read elsewhere: `factor` generators by `errors.parse_quad_element`, and
each sf-chain entry by `polychain.text_chain`.
Reports are written byte for byte as `json.dumps(report, sort_keys=True,
indent=2)` would write them, by one pass that leaves strings to the C escaper.

Exit status: 0 on success, 2 on invalid input (with a position-bearing
diagnostic for malformed JSON) or a report that cannot be written, 3 when a
resource bound aborts the run, 4 when a census finds a disagreement between
the SSP decision and the structural oracle, 5 when an internal arithmetic
invariant fails (a re-multiplication or exact-division check: a bug, not a
property of the input).  Verdicts themselves live in the report payload,
never in the exit code.  A census or sf-chain --input batch stops at its
first refusal, whose message opens with `catalog[k]: ` or `line k: `.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quoted

from . import finideal, finring, polychain, quadring, sspengine
from .errors import (DEFAULT_BOUNDS, MAX_NESTING, Bounds, ResourceLimitError, _int_of_digits,
                     _json_object, _strict_int, parse_quad_element)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4
EXIT_INVARIANT = 5


def _report_text(report) -> str:
    """`json.dumps(report, sort_keys=True, indent=2) + "\n"`, without the
    pure-Python encoder that `indent` selects: one recursive pass appends the
    pieces to a list.  Keys must be `str`; a leaf other than a str, an int, a
    bool or None goes through `json.dumps` itself, so a float prints and an
    unserializable value is refused exactly as json would."""
    out = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


# the leaves the writer spells itself; bool is not `int` here, as `type` is exact
_LEAVES = {str: _quoted, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}


def _write(value, newline, out):
    # `newline` is a line break plus the indent of the line that holds `value`
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                out.append(f"{sep}{_quoted(key)}: ")
                _write(item, inner, out)
            else:
                out.append(f"{sep}{_quoted(key)}: {leaf(item)}")
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if len(kinds) == 1 and (leaf := _LEAVES.get(kinds.pop())) is not None:
            out.append(f"[{inner}{(',' + inner).join(map(leaf, value))}{newline}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        leaf = _LEAVES.get(type(value))
        out.append(json.dumps(value) if leaf is None else leaf(value))


def _emit(text, output_path):
    if output_path is None:
        sys.stdout.write(text)
        return
    # write once, atomically; tempfile (about 8 ms of a cold start) only here
    import tempfile
    directory = os.path.dirname(os.path.abspath(output_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".radfact-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_input(args):
    if args.input:
        with open(args.input, "r") as fh:
            return fh.read()
    return sys.stdin.read()


# a JSON string (escapes included, possibly unterminated) or one bracket
_JSON_NESTING_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[{]|[\]}]')


def _check_nesting(text):
    """Refuse text whose arrays and objects nest deeper than MAX_NESTING,
    counting brackets outside JSON strings, before any parser recurses."""
    # too few brackets to nest that deep: the per-token scan below would cost
    # more than a small job's own parse
    if text.count("[") + text.count("{") <= MAX_NESTING:
        return
    depth = 0
    for token in _JSON_NESTING_TOKEN.finditer(text):
        bracket = token.group()
        if bracket in ("[", "{"):
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"input nested too deeply (over {MAX_NESTING} levels "
                                 "of arrays and objects)")
        elif bracket in ("]", "}"):
            depth -= 1


def _load_payload(args):
    text = _read_input(args)
    _check_nesting(text)
    return json.loads(text, parse_int=lambda digits: _int_of_digits(digits, "JSON integer"))


def _ideal_dict(ideal):
    return {**ideal.to_dict(), "norm": ideal.norm}


def _cmd_factor(args):
    payload = _load_payload(args)
    if not isinstance(payload, dict) or ("zint" in payload) == ("d" in payload):
        raise ValueError('factor payload needs an object with exactly one of '
                         '"zint" or "d" (with "gens")')
    _json_object(payload, "factor payload", {"zint"} if "zint" in payload else {"d", "gens"})
    if "zint" in payload:
        ideal = quadring.IntIdeal(_strict_int(payload["zint"], "zint"))
        report = {"ring": "Z"}
    else:
        ring = quadring.QuadRing(payload["d"], args.bounds)
        gens = payload.get("gens", [])
        if not isinstance(gens, list):
            raise ValueError("factor payload: gens must be a JSON list")
        ideal = quadring.ideal_from_gens(ring, [parse_quad_element(g) for g in gens])
        report = {"ring": ring.label, "d": ring.d}
    chain = quadring.sp_factor(ideal, bounds=args.bounds)
    report.update(
        ideal=_ideal_dict(ideal),
        chain=[_ideal_dict(link) for link in chain],
        factorization=[{"prime": _ideal_dict(p), "exponent": e}
                       for p, e in chain.factorization],
        # sp_factor has re-multiplied the chain to the ideal
        checks={**quadring.verify_chain(chain, bounds=args.bounds), "product_matches": True})
    return report


def _decide_ssp_body(ring, bounds):
    """The verdict serialized, with every witness factorization and the
    verdict's own re-check of them, so consumers need not re-check it."""
    verdict = sspengine.decide_ssp(ring, bounds)
    witness = verdict.witness_nonfactorable
    return {
        "is_sp": True,
        "sp_note": sspengine.SP_NOTE,
        "is_ssp": verdict.is_ssp,
        "witness": None if witness is None else witness.to_list(),
        "factorizations": {json.dumps(ideal.to_list()):
                           None if factors is None else [f.to_list() for f in factors]
                           for ideal, factors in verdict.factorizations.items()},
        "checks": verdict.checks,
    }


def _listing(key, items):
    return {key: [i.to_list() for i in items], "count": len(items)}


# the body that each table-ring command adds under the ring's header
_RING_BODIES = {
    "decide-ssp": _decide_ssp_body,
    "ideals": lambda ring, bounds: _listing("ideals", finideal.all_ideals(ring, bounds)),
    "spectrum": lambda ring, bounds: _listing("spectrum", finideal.prime_spectrum(ring)),
}


def _cmd_table_ring(args):
    ring = finring.ring_from_dict(_load_payload(args), args.bounds)
    return {"ring": {"label": ring.label, "order": ring.order},
            **_RING_BODIES[args.command](ring, args.bounds)}


def _sf_chain_entry(text):
    lc, chain, checks = polychain.text_chain(text)
    return {"input": text, "leading_coefficient": lc, "chain": chain, "checks": checks}


def _cmd_sf_chain(args):
    if args.poly is not None and args.input:
        raise ValueError("give either a polynomial argument or --input, not both")
    if args.poly is not None:
        return {"results": [_sf_chain_entry(args.poly)]}
    results = []
    for k, line in enumerate(_read_input(args).split("\n"), 1):
        try:
            if line.strip():
                results.append(_sf_chain_entry(line.strip()))
        except (ValueError, ResourceLimitError) as exc:
            exc.args = (f"line {k}: {exc}",)    # names the refused line, keeps the exit
            raise
    if not results:
        raise ValueError("no polynomials given")
    return {"results": results}


def default_catalog_specs() -> list[dict]:
    """The standing census catalog: Z_n, small poly quotients, their pairwise
    products up to order 256, and a batch of idealizations."""
    base = [{"zn": n} for n in range(1, 65)]
    for p in (2, 3):
        for k in (1, 2, 3):
            f = [0] * k + [1]
            base.append({"poly_quotient": {"zn": p, "f": f}})
    orders = [spec.get("zn") or spec["poly_quotient"]["zn"] **
              (len(spec["poly_quotient"]["f"]) - 1) for spec in base]
    specs = list(base)
    for i, a in enumerate(base):
        for j in range(i, len(base)):
            if orders[i] * orders[j] <= 256:
                specs.append({"product": [a, base[j]]})
    idealizations = [
        {"zn": 2, "module_rank": 2},
        {"zn": 2, "module_rank": 1},
        {"zn": 2, "module_rank": 3},
        {"zn": 3, "module_rank": 1},
        {"zn": 3, "module_rank": 2},
        {"zn": 4, "module_rank": 1},
        {"zn": 5, "module_rank": 1},
        {"zn": 6, "module_rank": 1},
        {"ring": {"poly_quotient": {"zn": 2, "f": [1, 1, 1]}}, "module_rank": 1},
        {"ring": {"product": [{"zn": 2}, {"zn": 2}]}, "module": "self"},
        {"ring": {"product": [{"zn": 2}, {"zn": 3}]}, "module": "self"},
        {"ring": {"zn": 4}, "module": "self"},
    ]
    specs.extend({"idealization": spec} for spec in idealizations)
    return specs


def census_rows(specs, bounds: Bounds = DEFAULT_BOUNDS):
    rows = []
    for k, spec in enumerate(specs):
        try:
            ring = finring.ring_from_dict(spec, bounds)
            factors = sspengine.local_factors(ring)
            decided = sspengine.local_ssp(ring, factors, bounds)
        except (ValueError, ResourceLimitError) as exc:
            exc.args = (f"catalog[{k}]: {exc}",)
            raise
        structural = all(v.is_special_primary for _, v in factors)
        rows.append({
            "label": ring.label,
            "order": ring.order,
            "local_profile": [order for order, _ in factors],
            "special_primary": [v.is_special_primary for _, v in factors],
            "decide_ssp": decided,
            "structural_ssp": structural,
            "agree": decided == structural,
        })
    rows.sort(key=lambda r: (r["order"], r["label"]))
    return rows


def _cmd_census(args):
    payload = _load_payload(args)
    catalog = payload.get("catalog") if isinstance(payload, dict) else None
    if catalog == "default":
        specs = default_catalog_specs()
    elif isinstance(catalog, list):
        specs = catalog
    else:
        raise ValueError('census payload needs "catalog": [...] or "default"')
    _json_object(payload, "census payload", {"catalog"})
    rows = census_rows(specs, args.bounds)
    disagreements = sum(1 for r in rows if not r["agree"])
    return {"rows": rows, "total": len(rows), "disagreements": disagreements}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="radfact",
        description="Radical factorization engines: batch JSON in, JSON report out.",
        epilog="The test suite honours the RADFACT_SEED environment variable "
               "for its randomized property runs.")
    parser.add_argument("--input", metavar="FILE", help="read the job payload from FILE")
    parser.add_argument("--output", metavar="FILE", help="write the report to FILE (atomic)")
    parser.add_argument("--max-order", type=int, default=DEFAULT_BOUNDS.order,
                        help="largest permitted ring order (default and ceiling %(default)s)")
    parser.add_argument("--max-ideals", type=int, default=DEFAULT_BOUNDS.ideals,
                        help="largest permitted ideal count (default %(default)s)")
    parser.add_argument("--max-norm", type=int, default=DEFAULT_BOUNDS.norm,
                        help="largest permitted ideal norm (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("factor", help="ascending radical chain of a quadratic or integer ideal")
    sub.add_parser("decide-ssp", help="decide whether every ideal factors into radicals")
    sub.add_parser("spectrum", help="prime spectrum of a finite table ring")
    sub.add_parser("ideals", help="full ideal lattice of a finite table ring")
    sf = sub.add_parser("sf-chain", help="squarefree chain of a rational polynomial")
    sf.add_argument("poly", nargs="?", default=None,
                    help="polynomial such as 'x^3-x^2-x+1' (otherwise one per input line)")
    sub.add_parser("census", help="classify a catalog of rings and cross-check the oracle")
    return parser


_HANDLERS = {
    "factor": _cmd_factor,
    "sf-chain": _cmd_sf_chain,
    "census": _cmd_census,
    **dict.fromkeys(_RING_BODIES, _cmd_table_ring),
}


@functools.cache
def _parser():
    # built on the first call, not at import, so a cold start pays for it once
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = parser.parse_known_args(argv)
    if (args.command == "sf-chain" and args.poly is None and extra == argv[-1:]
            and extra[0].startswith("-") and not extra[0].startswith("--")):
        # argparse takes a last argument such as "-x+1" for an unknown option;
        # after sf-chain it is the polynomial
        args.poly = extra[0]
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        args.bounds = Bounds(args.max_order, args.max_ideals, args.max_norm)
    except ValueError as exc:
        parser.error(f"--{exc}")    # the message opens with the bound's name, the flag's
    try:
        report = _HANDLERS[args.command](args)
        text = _report_text(report)
    except json.JSONDecodeError as exc:
        print(f"radfact: invalid JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        # a fallback: _check_nesting bounds the levels json.loads and
        # ring_from_dict recurse through
        print("radfact: invalid input: input nested too deeply", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"radfact: resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        print(f"radfact: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"radfact: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _emit(text, args.output)
    except OSError as exc:
        # the reason alone: the exception's text may name the hidden temporary file
        print(f"radfact: cannot write report to '{args.output or '<stdout>'}': "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_DISAGREEMENT if report.get("disagreements") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
