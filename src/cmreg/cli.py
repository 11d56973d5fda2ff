"""Command-line interface.

    cmreg compute --input FILE [--t T] [--method c|gin|oracle|all]
                  [--generic | --no-generic] [--seed N] [--bound B]
                  [--json] [--betti]

Exit codes: 0 success, 1 mathematical failure (filter-regularity failure,
method disagreement, Gin agreement failure) or out of memory, 2 input
error (a file that is not UTF-8, syntax, undeclared variables, wrong field
for the method, t outside [0, n], the unit ideal, an oracle input beyond
its scope under --method oracle, --bound below 1).

Every route reads in(I) through `regularity`; --betti runs the oracle on
every input.  A route that refuses the input is skipped with a note unless
--method names it or it is the c route.  Under --method all, a route that
fails to certify leaves the others to answer: the document of those that
did is printed with a note naming the failed route and `methods_agree`
false, and the run exits 1 with the failure on stderr.
"""

import argparse
import json
import sys
from functools import cache

from . import __version__
from .fields import _mpq

# not called here: perfbench/test_bench.py checks that its tracer rebinds this
# imported name in `cli`; drop the import and that check together
from .groebner import reduced_groebner_basis  # noqa: F401
from .monomial_ideals import (
    NEG_INF,
    POS_INF,
    InputError,
    MathematicalFailure,
    MonomialIdeal,
)
from .parser import ParseError, parse_input
from .regularity import (
    DENSE_ENTRY_BOUND,
    FilterRegularityFailure,
    _check_bound,
    full_invariants,
    invariants_via_betti,
    invariants_via_gin,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

OUT_OF_MEMORY = (
    "resource failure: out of memory; a Hilbert numerator is a dense list of "
    "coefficients, as long as the degrees the exponents reach (see README, "
    "Scope, on high-exponent inputs)"
)


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
    out = {"t": report.t, "dim_quotient": report.dim_quotient}
    if report.c is not None:
        out["c"] = [ext(v) for v in report.c]
    out["reg_quotient"] = ext(report.reg_quotient)
    out["reg_ideal"] = ext(report.reg_ideal)
    out["astar_quotient"] = ext(report.astar_quotient)
    out["astar_ideal"] = ext(report.astar_ideal)
    if report.betti is not None:
        out["reg_t_quotient"] = ext(report.reg_t_quotient)
        out["astar_t_quotient"] = ext(report.astar_t_quotient)
        out["max_generator_degree"] = ext(report.max_generator_degree)
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


def _betti_json(table):
    return [
        [i, j, rank] for (i, j), rank in sorted(table.entries.items())
    ]


def emit_json(doc):
    return json.dumps(doc, indent=2) + "\n"


# report keys that only the JSON document carries
_JSON_ONLY = {"gin_draws_agreed", "gin_draws_total", "gin_borel_certified", "generic_retries"}


def _print_human(doc, out):
    def show(label, value):
        if isinstance(value, list):  # the c list prints -inf, not '-inf'
            value = "[%s]" % ", ".join(map(str, value))
        print("%s: %s" % (label, value), file=out)

    show("ring", " ".join(doc["input"]["variables"]))
    show("field", doc["input"]["field"])
    for name, rep in doc["methods"].items():
        print("[method %s]" % name, file=out)
        for key, value in rep.items():
            if key in ("initial_ideal", "gin"):
                value = ", ".join(m["monomial"] for m in value)
            if key not in _JSON_ONLY:
                show("  " + key, value)
    if "methods_agree" in doc:
        show("methods agree", doc["methods_agree"])
    if "betti" in doc:
        show("betti", " ".join("b[%d,%d]=%d" % tuple(e) for e in doc["betti"]))
    if "hilbert_numerator" in doc:
        show("hilbert numerator", doc["hilbert_numerator"])
    for note in doc.get("notes", ()):
        show("note", note)


@cache  # built on the first run, not at import, and once per process
def build_parser():
    p = argparse.ArgumentParser(
        prog="cmreg",
        description="Castelnuovo-Mumford regularity of homogeneous ideals",
    )
    p.add_argument(
        "--version",
        action="version",
        version="cmreg %s (schema %d, rationals: %s.%s)"
        % (__version__, SCHEMA_VERSION, _mpq.__module__, _mpq.__name__),
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
    c.add_argument(
        "--bound", type=int, default=DENSE_ENTRY_BOUND,
        help="entry bound of the dense random matrices",
    )
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


def _not_utf8(data, exc):
    """The ParseError for the first byte of data that is not UTF-8, at its
    line and column as parse_input counts them."""
    # the text before the byte is valid; the "x" stands for the byte, so the
    # last line ends at the byte's column even right after a line break
    lines = (data[: exc.start].decode("utf-8") + "x").splitlines()
    return ParseError("byte 0x%02x is not UTF-8" % data[exc.start], len(lines), len(lines[-1]))


def run(argv=None, out=sys.stdout, err=sys.stderr):
    args = build_parser().parse_args(argv)
    if args.command != "compute":
        build_parser().print_help(err)
        return EXIT_INPUT
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        print("error: %s" % exc, file=err)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print("error: %s: %s" % (args.input, _not_utf8(data, exc)), file=err)
        return EXIT_INPUT

    reports, notes, failures = {}, [], []

    def attempt(name, route, skipped=None):
        # a refusal is skipped with a note unless --method names the route;
        # under --method all, a failure to certify leaves the others to answer
        try:
            reports[name] = route()
        except InputError as exc:
            if args.method == name or skipped is None:
                raise
            notes.append(skipped(exc))
        except MathematicalFailure as exc:
            if args.method != "all":
                raise
            failures.append(_failure_text(exc, args.generic, ring.field))
            notes.append("%s method failed: %s" % (name, failures[-1]))

    try:
        _check_bound(args.bound)  # refused on every route, the oracle's too
        document = parse_input(text)
        ring = document.ring
        monomial = _as_monomial_ideal(document)
        # a monomial input is its own initial ideal: no Groebner basis needed
        ideal = monomial if monomial is not None else document.ideal()
        if args.method in ("c", "all"):
            attempt("c", lambda: full_invariants(
                ideal, use_generic=args.generic, seed=args.seed, t=args.t, bound=args.bound
            ))
        if args.method in ("gin", "all"):
            attempt(
                "gin",
                lambda: invariants_via_gin(ideal, t=args.t, seed=args.seed, bound=args.bound),
                lambda exc: "gin method skipped over %s" % ring.field.name,
            )
        # the oracle also supplies --betti's table, of S/in(I) for a non-monomial input
        if args.method in ("oracle", "all") or args.betti:
            attempt(
                "oracle",
                lambda: invariants_via_betti(ideal, args.t),
                lambda exc: "oracle method skipped: %s" % exc,
            )
    except InputError as exc:
        print("input error: %s" % exc, file=err)
        return EXIT_INPUT
    except MathematicalFailure as exc:
        print("mathematical failure: %s" % _failure_text(exc, args.generic, ring.field), file=err)
        return EXIT_MATH
    except MemoryError:
        # exit 1, as an uncaught MemoryError gives, but with no traceback
        print(OUT_OF_MEMORY, file=err)
        return EXIT_MATH

    if monomial is None and "oracle" in reports:
        notes.append(
            "oracle values describe R/in(I), the quotient by the initial ideal"
        )
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
        "methods": {
            name: _report_json(rep, ring)
            for name, rep in reports.items()
            if args.method in (name, "all")
        },
    }
    if args.betti and "oracle" in reports:
        doc["betti"] = _betti_json(reports["oracle"].betti)
        doc["hilbert_numerator"] = reports["oracle"].betti.k_polynomial()
    if args.method == "all":
        agree, diffs = _check_agreement(reports, monomial is not None)
        # a failed route was compared with nothing: the routes did not agree
        doc["methods_agree"] = agree and not failures
        if diffs:
            doc["method_disagreements"] = diffs
            failures.append("methods disagree: %s" % diffs)
    if notes:
        doc["notes"] = notes

    if args.json:
        out.write(emit_json(doc))
    else:
        _print_human(doc, out)
    for failure in failures:
        print("mathematical failure: %s" % failure, file=err)
    return EXIT_MATH if failures else EXIT_OK


def _failure_text(exc, generic, field):
    """A mathematical failure's message, with a hint when the c route
    found no filter-regular coordinates."""
    if not isinstance(exc, FilterRegularityFailure):
        return str(exc)
    if not generic:
        return "%s (retry with --generic)" % exc
    return (
        "%s after %d random coordinate changes; %s may be too small a field "
        "for generic coordinates" % (exc, exc.retries, field.name)
    )


def _check_agreement(reports, input_is_monomial):
    """Compare reg/a* across the routes that computed them faithfully, each
    route with the next by name: on the full values when both have them
    (the oracle always has), otherwise on reg_t/a*_t when their t agree."""
    faithful = {}
    for name, rep in reports.items():
        # the oracle describes R/in(I); faithful for the input ideal when
        # the input was monomial or the c route answered with no generic retry
        if name == "oracle" and not (
            input_is_monomial or ("c" in reports and not reports["c"].generic_retries)
        ):
            continue
        faithful[name] = rep
    diffs = []
    names = sorted(faithful)
    for a, b in zip(names, names[1:]):
        ra, rb = faithful[a], faithful[b]
        full = all(rep.is_full or rep.c is None for rep in (ra, rb))
        if full or ra.t == rb.t:
            va, vb = _compared(ra, full), _compared(rb, full)
            if va != vb:
                diffs.append("%s=%s vs %s=%s" % (a, va, b, vb))
    return not diffs, diffs


def _compared(report, full):
    """(reg, a*) of a report, full or at its t: the c and Gin routes keep
    either in reg_quotient and astar_quotient, the oracle (c is None) its
    reg_t and a*_t apart."""
    if report.c is None and not full:
        return ext(report.reg_t_quotient), ext(report.astar_t_quotient)
    return ext(report.reg_quotient), ext(report.astar_quotient)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
