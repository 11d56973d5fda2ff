"""Outside-in tracing of cmreg's layers.

The tracer wraps public functions of cmreg from outside the package.  A
module that did `from .groebner import reduced_groebner_basis` holds its own
binding, so each wrapper is bound in every loaded `cmreg.*` module that holds
the original, and `remove` puts every original back.

Each call of a wrapped function records a span [name, layer, start, end,
parent span, job, note] in memory; `note` keeps what a counter needs from
the call (a result length, a zero test, a matrix shape).  The callers of
`orders` and the `fields` operators are not wrapped: those run millions of
times per job, so their cost shows as the self time of the calling layer.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, wrapped functions); a run with tracing stops with an
# error if one of them is missing, so a change that renames a wrapped
# function must update this table rather than read 0 on its counters
TARGETS = {
    "cli": ("cmreg.cli", ("run", "emit_json")),
    "parser": ("cmreg.parser", ("parse_input",)),
    "regularity": (
        "cmreg.regularity",
        (
            "full_invariants",
            "c_invariants",
            "invariants_via_gin",
            "generic_initial_ideal",
            "random_invertible_matrix",
            "transform_ideal",
        ),
    ),
    "groebner": (
        "cmreg.groebner",
        ("reduced_groebner_basis", "buchberger", "interreduce", "normal_form", "s_polynomial"),
    ),
    "rings": ("cmreg.rings", ("apply_linear_change", "matrix_is_invertible")),
    "monomial_ideals": (
        "cmreg.monomial_ideals",
        ("hilbert_numerator", "quotient_top_degree", "krull_dimension", "is_borel_fixed"),
    ),
    "betti": (
        "cmreg.betti",
        (
            "betti_table",
            "lcm_multidegrees",
            "upper_koszul_complex",
            "reduced_homology_ranks",
            "invariants_from_betti",
        ),
    ),
    "linalg": ("cmreg.linalg", ("rank_int", "rank_mod_p")),
}

NAME, LAYER, START, END, PARENT, JOB, NOTE = range(7)


def _shape(rows):
    rows = list(rows)
    return len(rows), len(rows[0]) if rows else 0


# what each counter needs from a call: f(args, result) -> note
NOTES = {
    "normal_form": lambda args, r: r.is_zero(),
    "reduced_groebner_basis": lambda args, r: r,
    "lcm_multidegrees": lambda args, r: len(r),
    "upper_koszul_complex": lambda args, r: sum(len(level) for level in r),
    "rank_int": lambda args, r: _shape(args[0]),
    "rank_mod_p": lambda args, r: _shape(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._patched = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "cmreg" or name.startswith("cmreg.")]
        missing = [
            "%s.%s" % (module_name, fn_name)
            for module_name, functions in TARGETS.values()
            for fn_name in functions
            if not callable(getattr(sys.modules.get(module_name), fn_name, None))
        ]
        if missing:
            raise RuntimeError("functions to trace are missing: " + ", ".join(missing))
        for layer, (module_name, functions) in TARGETS.items():
            home = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(layer, fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return wrapper

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def coefficient_bits(c):
    """The larger bit length of numerator and denominator of a coefficient."""
    num = getattr(c, "numerator", None)
    if num is not None:
        return max(int(num).bit_length(), int(c.denominator).bit_length())
    return int(getattr(c, "val", c)).bit_length()


def layer_metrics(spans):
    """Per-layer metrics of one pass, from its spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    count, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for k, s in enumerate(spans):
        duration = s[END] - s[START]
        count[s[NAME]] += 1
        total[s[NAME]] += duration
        self_s[s[LAYER]] += duration - child[k]

    def under(name, parent):
        return [s for s in spans if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent]

    def notes(name):
        return [s[NOTE] for s in spans if s[NAME] == name and s[NOTE] is not None]

    def frac(num, den):
        return num / den if den else 0.0

    bases = notes("reduced_groebner_basis")
    shapes = notes("rank_int") + notes("rank_mod_p")
    nf_in_buchberger = [s[NOTE] for s in under("normal_form", "buchberger")]
    retries = len(under("transform_ideal", "full_invariants"))
    draws = len(under("transform_ideal", "generic_initial_ideal"))
    m = {
        "regularity.c_passes": (count["c_invariants"], "count"),
        "regularity.retries": (retries, "count"),
        "regularity.c_pass_useful_frac": (frac(count["full_invariants"], count["c_invariants"]), "frac"),
        "regularity.gin_draws": (draws, "count"),
        "regularity.gin_draw_useful_frac": (frac(2 * count["generic_initial_ideal"], draws), "frac"),
        "groebner.rgb_calls": (count["reduced_groebner_basis"], "count"),
        "groebner.rgb_s": (total["reduced_groebner_basis"], "s"),
        "groebner.buchberger_s": (total["buchberger"], "s"),
        "groebner.interreduce_s": (total["interreduce"], "s"),
        "groebner.nf_calls": (count["normal_form"], "count"),
        "groebner.nf_s": (total["normal_form"], "s"),
        "groebner.nf_zero_frac": (frac(sum(nf_in_buchberger), len(nf_in_buchberger)), "frac"),
        "groebner.spoly_calls": (count["s_polynomial"], "count"),
        "groebner.basis_len": (frac(sum(len(b) for b in bases), len(bases)), "count"),
        "fields.max_coeff_bits": (
            max((coefficient_bits(c) for b in bases for g in b for c in g.coeffs.values()), default=0),
            "bit",
        ),
        "rings.linear_change_calls": (count["apply_linear_change"], "count"),
        "rings.linear_change_s": (total["apply_linear_change"], "s"),
        "rings.invertible_checks": (count["matrix_is_invertible"], "count"),
        "rings.invertible_s": (total["matrix_is_invertible"], "s"),
        "monomial_ideals.hilbert_calls": (count["hilbert_numerator"], "count"),
        "monomial_ideals.hilbert_s": (total["hilbert_numerator"], "s"),
        "monomial_ideals.qtd_calls": (count["quotient_top_degree"], "count"),
        "monomial_ideals.qtd_s": (total["quotient_top_degree"], "s"),
        "monomial_ideals.krull_s": (total["krull_dimension"], "s"),
        "monomial_ideals.borel_s": (total["is_borel_fixed"], "s"),
        "betti.table_s": (total["betti_table"], "s"),
        "betti.lcm_count": (sum(notes("lcm_multidegrees")), "count"),
        "betti.koszul_s": (total["upper_koszul_complex"], "s"),
        "betti.faces": (sum(notes("upper_koszul_complex")), "count"),
        "betti.homology_s": (total["reduced_homology_ranks"], "s"),
        "linalg.rank_calls": (len(shapes), "count"),
        "linalg.rank_s": (total["rank_int"] + total["rank_mod_p"], "s"),
        "linalg.rank_cells": (sum(r * c for r, c in shapes), "count"),
        "linalg.rank_max_cols": (max((c for _, c in shapes), default=0), "count"),
        "parser.parse_s": (total["parse_input"], "s"),
        "cli.emit_s": (total["emit_json"], "s"),
    }
    for layer in TARGETS:
        m["%s.self_s" % layer] = (self_s[layer], "s")
    return m


def median_metrics(per_pass):
    """Each metric's median over passes, as {name: {"value", "unit"}}."""
    return {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
