"""Command-line interface.

    cmreg compute --input FILE [--t T] [--method c|gin|oracle|all]
                  [--generic | --no-generic] [--seed N] [--bound B]
                  [--json] [--betti]

Exit codes: 0 success, 1 mathematical failure (filter-regularity failure
without --generic, method disagreement, Gin agreement failure), 2 input
error (syntax, undeclared variables, wrong field for the method).
"""

import argparse
import json
import sys

from . import __version__
from .betti import betti_table, invariants_from_betti
from .groebner import initial_ideal, reduced_groebner_basis
from .monomial_ideals import (
    NEG_INF,
    POS_INF,
    MonomialIdeal,
    hilbert_numerator,
    krull_dimension,
)
from .parser import ParseError, parse_input
from .regularity import (
    CharacteristicError,
    FilterRegularityFailure,
    GinAgreementError,
    full_invariants,
    invariants_via_gin,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def ext(v):
    """Render an extended integer JSON-portably."""
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "+inf"
    return int(v)


def _monomials_json(ring, J):
    return [
        {"exponents": list(g), "monomial": ring.format_monomial(g)} for g in J.gens
    ]


def _report_json(report, ring):
    out = {
        "t": report.t,
        "dim_quotient": report.dim_quotient,
        "c": [ext(v) for v in report.c],
        "reg_quotient": ext(report.reg_quotient),
        "reg_ideal": ext(report.reg_ideal),
        "astar_quotient": ext(report.astar_quotient),
        "astar_ideal": ext(report.astar_ideal),
    }
    if report.initial_ideal is not None:
        out["initial_ideal"] = _monomials_json(ring, report.initial_ideal)
    if report.gin is not None:
        out["gin"] = _monomials_json(ring, report.gin.gin)
        out["gin_draws_agreed"] = report.gin.draws_agreed
        out["gin_draws_total"] = report.gin.draws_total
        out["gin_borel_certified"] = report.gin.borel_certified
    if report.generic_retries:
        out["generic_retries"] = report.generic_retries
    return out


def _oracle_json(J, t):
    table = betti_table(J, field_char=J.ring.field.characteristic)
    inv = invariants_from_betti(table, t=t)
    return {
        "t": t,
        "dim_quotient": krull_dimension(J),
        "reg_quotient": ext(inv["reg"]),
        "reg_ideal": ext(inv["reg"] + 1) if J.gens else "-inf",
        "astar_quotient": ext(inv["astar"]),
        "astar_ideal": ext(inv["astar"]) if J.gens else "-inf",
        "reg_t_quotient": ext(inv["reg_t"]),
        "astar_t_quotient": ext(inv["astar_t"]),
        "max_generator_degree": ext(inv["d"]),
    }, table


def _betti_json(table):
    return [
        [i, j, rank] for (i, j), rank in sorted(table.entries.items())
    ]


def emit_json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _print_human(doc, out):
    def show(label, value):
        print("%s: %s" % (label, value), file=out)

    show("ring", " ".join(doc["input"]["variables"]))
    show("field", doc["input"]["field"])
    for name, rep in doc.get("methods", {}).items():
        print("[method %s]" % name, file=out)
        for key in (
            "t",
            "dim_quotient",
            "c",
            "reg_quotient",
            "reg_ideal",
            "astar_quotient",
            "astar_ideal",
        ):
            if key in rep:
                show("  " + key, rep[key])
        if "initial_ideal" in rep:
            show(
                "  initial_ideal",
                ", ".join(m["monomial"] for m in rep["initial_ideal"]),
            )
        if "gin" in rep:
            show("  gin", ", ".join(m["monomial"] for m in rep["gin"]))
    if "methods_agree" in doc:
        show("methods agree", doc["methods_agree"])
    if "betti" in doc:
        show("betti", " ".join("b[%d,%d]=%d" % tuple(e) for e in doc["betti"]))
    if "hilbert_numerator" in doc:
        show("hilbert numerator", doc["hilbert_numerator"])


def build_parser():
    p = argparse.ArgumentParser(
        prog="cmreg",
        description="Castelnuovo-Mumford regularity of homogeneous ideals",
    )
    p.add_argument(
        "--version",
        action="version",
        version="cmreg %s (schema %d)" % (__version__, SCHEMA_VERSION),
    )
    sub = p.add_subparsers(dest="command")
    c = sub.add_parser("compute", help="compute regularity invariants")
    c.add_argument("--input", required=True, help="ideal file")
    c.add_argument("--t", type=int, default=None, help="partial-invariant cutoff")
    c.add_argument(
        "--method", choices=["c", "gin", "oracle", "all"], default="c"
    )
    c.add_argument(
        "--generic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="retry in random coordinates on filter-regularity failure",
    )
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--bound", type=int, default=1000, help="random matrix entry bound")
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.add_argument("--betti", action="store_true", help="include the Betti table")
    return p


def _as_monomial_ideal(document):
    """The input as a monomial ideal, if every generator is a single term."""
    gens = []
    for g in document.generators:
        if len(g.coeffs) != 1:
            return None
        gens.append(next(iter(g.coeffs)))
    return MonomialIdeal.from_generators(document.ring, gens)


def run(argv=None, out=sys.stdout, err=sys.stderr):
    args = build_parser().parse_args(argv)
    if args.command != "compute":
        build_parser().print_help(err)
        return EXIT_INPUT
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=err)
        return EXIT_INPUT
    try:
        document = parse_input(text)
    except ParseError as exc:
        print("input error: %s" % exc, file=err)
        return EXIT_INPUT

    ring = document.ring
    char0 = ring.field.characteristic == 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input": {
            "variables": list(ring.names),
            "field": ring.field.name,
            "ideal": [str(g) for g in document.generators],
        },
        "method": args.method,
        "seed": args.seed,
        "methods": {},
    }
    monomial = _as_monomial_ideal(document)
    # a monomial input is its own initial ideal: no Groebner basis needed
    ideal = monomial if monomial is not None else document.ideal()
    notes = []
    rep = None
    try:
        if args.method in ("c", "all"):
            rep = full_invariants(
                ideal,
                use_generic=args.generic,
                seed=args.seed,
                t=args.t,
                bound=args.bound,
            )
            doc["methods"]["c"] = _report_json(rep, ring)
        if args.method in ("gin", "all"):
            if not char0:
                if args.method == "gin":
                    raise CharacteristicError(
                        "method 'gin' requires characteristic 0"
                    )
                notes.append("gin method skipped over %s" % ring.field.name)
            else:
                gin_rep = invariants_via_gin(
                    ideal, t=args.t, seed=args.seed, bound=args.bound
                )
                doc["methods"]["gin"] = _report_json(gin_rep, ring)
        if args.method in ("oracle", "all"):
            if rep is not None:
                oracle_ideal = rep.initial_ideal
            elif monomial is not None:
                oracle_ideal = monomial
            else:
                oracle_ideal = initial_ideal(reduced_groebner_basis(ideal), ring)
            if monomial is None:
                notes.append(
                    "oracle values describe R/in(I), the quotient by the "
                    "initial ideal"
                )
            t_oracle = ring.n if args.t is None else args.t
            oracle_doc, table = _oracle_json(oracle_ideal, t_oracle)
            doc["methods"]["oracle"] = oracle_doc
            if args.betti:
                doc["betti"] = _betti_json(table)
                doc["hilbert_numerator"] = hilbert_numerator(oracle_ideal)
    except FilterRegularityFailure as exc:
        if args.generic:
            hint = (
                "after %d random coordinate changes; %s may be too small "
                "a field for generic coordinates" % (exc.retries, ring.field.name)
            )
        else:
            hint = "(retry with --generic)"
        print("mathematical failure: %s %s" % (exc, hint), file=err)
        return EXIT_MATH
    except GinAgreementError as exc:
        print("mathematical failure: %s" % exc, file=err)
        return EXIT_MATH
    except CharacteristicError as exc:
        print("input error: %s" % exc, file=err)
        return EXIT_INPUT

    if args.betti and "betti" not in doc and monomial is not None:
        table = betti_table(monomial, field_char=ring.field.characteristic)
        doc["betti"] = _betti_json(table)
        doc["hilbert_numerator"] = hilbert_numerator(monomial)

    if args.method == "all":
        agree, diffs = _check_agreement(doc["methods"], monomial is not None)
        doc["methods_agree"] = agree
        if diffs:
            doc["method_disagreements"] = diffs
    if notes:
        doc["notes"] = notes
    if not doc["methods"]:
        del doc["methods"]

    if args.json:
        out.write(emit_json(doc))
    else:
        _print_human(doc, out)
    if args.method == "all" and not doc["methods_agree"]:
        print("mathematical failure: methods disagree: %s" % diffs, file=err)
        return EXIT_MATH
    return EXIT_OK


def _check_agreement(methods, input_is_monomial):
    """Compare full reg/a* across the methods that computed them faithfully."""
    diffs = []
    comparable = {}
    for name, rep in methods.items():
        if name == "oracle":
            # oracle describes R/in(I); faithful for the input ideal when the
            # input was monomial or the c-method needed no generic retry
            c_rep = methods.get("c")
            faithful = input_is_monomial or (
                c_rep is not None and not c_rep.get("generic_retries")
            )
            if not faithful:
                continue
        if rep.get("t", -1) >= rep.get("dim_quotient", 0):
            comparable[name] = (rep["reg_quotient"], rep["astar_quotient"])
    names = sorted(comparable)
    for a, b in zip(names, names[1:]):
        if comparable[a] != comparable[b]:
            diffs.append(
                "%s=%s vs %s=%s" % (a, comparable[a], b, comparable[b])
            )
    return not diffs, diffs


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
