"""Ideal-file parsing and the command line front end."""

import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmreg.fields
from cmreg import (
    QQ,
    Ideal,
    InputError,
    MonomialIdeal,
    ParseError,
    PolynomialRing,
    PrimeField,
    RegularityReport,
    apply_linear_change,
    betti_table,
    hilbert_numerator,
    initial_ideal,
    lcm_multidegrees,
    parse_input,
    quotient_top_degree,
    reduced_groebner_basis,
    s_polynomial,
)
from cmreg.betti import upper_koszul_complex
from cmreg.cli import (
    EXIT_INPUT,
    EXIT_MATH,
    EXIT_OK,
    OUT_OF_MEMORY,
    _check_agreement,
    build_parser,
    run,
)
from cmreg.groebner import buchberger

from conftest import non_borel_draw, quartic_curve_ideal

CURVE_FILE = """\
# quartic space curve example
ring: x1 x2 x3 x4
field: QQ
ideal:
x1*x2 - x3*x4
x1*x3^2 - x2^3
x1^2*x3 - x2^2*x4
x1^3 - x2*x4^2
"""

FRF_FILE = """\
ring: x1 x2
field: QQ
ideal:
x1*x2
x2^2
"""

MONOMIAL_FILE = """\
ring: x1 x2 x3
field: QQ
ideal:
x1*x2
x2^3
x1^2*x3
"""

# Stanley-Reisner ideal of the 6-vertex real projective plane: its Betti
# numbers, and reg, depend on whether the characteristic is 2
RP2_NONFACES = """\
x1*x2*x4
x1*x2*x5
x1*x3*x5
x1*x3*x6
x1*x4*x6
x2*x3*x4
x2*x3*x6
x2*x5*x6
x3*x4*x5
x4*x5*x6
"""


def rp2_file(field):
    return "ring: x1 x2 x3 x4 x5 x6\nfield: %s\nideal:\n%s" % (field, RP2_NONFACES)


# a monomial ideal over GF(2) for which none of the c route's RETRY_CAP
# coordinate changes at seed 0 is filter-regular; the oracle gives reg 5
GF2_NO_GENERIC_FILE = """\
ring: x1 x2 x3 x4 x5 x6 x7
field: GF(2)
ideal:
x1*x6
x2^2
x1*x5
x2*x4
x5*x6
x1*x3*x4
x3^2*x4*x7
x4*x7^3
"""


class TestParser:
    def test_curve_file(self):
        doc = parse_input(CURVE_FILE)
        assert doc.ring.names == ("x1", "x2", "x3", "x4")
        assert doc.ring.field.characteristic == 0
        assert len(doc.generators) == 4
        assert str(doc.generators[0]) == "x1*x2 - x3*x4"
        assert doc.ideal().generators == quartic_curve_ideal(doc.ring).generators

    def test_optional_star_and_spacing(self):
        a = parse_input("ring: x y\nfield: QQ\nideal:\n2 x y + y^2\n")
        b = parse_input("ring: x y\nfield: QQ\nideal:\n2*x*y+y^2\n")
        assert a.generators == b.generators

    def test_rational_coefficients(self):
        doc = parse_input("ring: x y\nfield: QQ\nideal:\n1/2 x^2 - 3/4 y^2\n")
        (g,) = doc.generators
        F = doc.ring.field
        assert g.coeffs[(2, 0)] == F(1, 2)
        assert g.coeffs[(0, 2)] == F(-3, 4)

    def test_prime_field(self):
        doc = parse_input("ring: x y\nfield: GF(7)\nideal:\n3 x y\n")
        assert doc.ring.field.characteristic == 7

    def test_coefficients_reduce_mod_p(self):
        doc = parse_input("ring: x y\nfield: GF(7)\nideal:\n7 x y + y^2\n")
        (g,) = doc.generators
        assert (1, 1) not in g.coeffs

    def test_comments_and_blank_lines(self):
        doc = parse_input(
            "# header\nring: x y # inline\n\nfield: QQ\nideal:\n\nx*y # gen\n"
        )
        assert len(doc.generators) == 1

    def test_zero_polynomial_dropped(self):
        doc = parse_input("ring: x y\nfield: QQ\nideal:\nx*y - x*y\nx^2\n")
        assert len(doc.generators) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty input"),
            ("field: QQ\n", "ring"),
            ("ring: x x\nfield: QQ\nideal:\n", "duplicate"),
            ("ring: x y\nfield: RR\nideal:\n", "field"),
            ("ring: x y\nfield: GF(6)\nideal:\n", "prime"),
            ("ring: x y\nfield: QQ\nx*y\n", "ideal"),
            # a parenthesis around p needs its partner
            ("ring: x y\nfield: GF(7\nideal:\n", "line 2: unknown field"),
            ("ring: x y\nfield: GF7)\nideal:\n", "line 2: unknown field"),
            ("ring: x y\nfield: GF((7)\nideal:\n", "line 2: unknown field"),
            ("ring: x y\n", "line 1: expected 'field:' declaration"),
            ("ring:\nfield: QQ\nideal:\n", "line 1: no variables declared"),
            ("ring: x 1y\nfield: QQ\nideal:\n", "line 1: bad variable name '1y'"),
            ("ring: x y\nfield: QQ\nideal: x\n", "line 3: expected 'ideal:' section"),
        ],
    )
    def test_structural_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert fragment.lower() in str(exc.value).lower()

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_input("ring: x y\nfield: QQ\nideal:\nx*z\n")
        assert "z" in str(exc.value)
        assert exc.value.line == 4

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_input("ring: x y\nfield: QQ\nideal:\nx^ + y\n")
        assert exc.value.line == 4
        assert exc.value.col is not None

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_input("ring: x y\nfield: QQ\nideal:\n1/0 x\n")

    def test_non_homogeneous_reports_witness_degrees(self):
        with pytest.raises(ParseError) as exc:
            parse_input("ring: x y\nfield: QQ\nideal:\nx + x*y\n")
        msg = str(exc.value)
        assert "homogeneous" in msg
        assert "1" in msg and "2" in msg

    @pytest.mark.parametrize("spec", ["GF(7)", "GF ( 7 )", "GF7", "GF 7"])
    def test_prime_field_spellings(self, spec):
        doc = parse_input("ring: x y\nfield: %s\nideal:\nx*y\n" % spec)
        assert doc.ring.field == PrimeField(7)

    @pytest.mark.parametrize(
        "field,line,col,fragment",
        [
            ("QQ", "x*w", 3, "undeclared variable 'w'"),
            ("QQ", "x^ + y", 4, "expected an exponent"),
            ("QQ", "x^", 3, "expected an exponent"),
            ("QQ", "1/", 3, "expected a denominator"),
            ("QQ", "1/0 x", 3, "zero denominator"),
            ("GF(7)", "1/2 x", 2, "need field QQ"),
            ("QQ", "x + - y", 5, "unexpected '-'"),
            ("QQ", "x -", 4, "unexpected end of line"),
            ("QQ", "x + *", 5, "unexpected '*'"),
            ("QQ", "*", 1, "unexpected '*'"),
            ("QQ", "x y z \u00e9", 7, "unexpected '\u00e9'"),
            ("QQ", "x y 2", 5, "unexpected '2'"),
            ("QQ", "x + x*y", 3, "not homogeneous (terms of degrees 1 and 2)"),
            # a column counts from the first character of the line as written
            ("QQ", "\t x + \u00e9", 7, "unexpected '\u00e9'"),
            # a number past Python's default conversion limit of 4300 digits
            # is refused at its column, before int() sees it
            pytest.param("QQ", "x + " + "7" * 4301 + "*y", 5, "more than 4300 digits", id="long-coefficient"),
            pytest.param("QQ", "x - 1/" + "7" * 5000 + " y", 7, "more than 4300 digits", id="long-denominator"),
            pytest.param("GF(7)", "x*y^" + "1" * 4301, 5, "more than 4300 digits", id="long-exponent"),
        ],
    )
    def test_polynomial_error_line_and_column(self, field, line, col, fragment):
        text = "ring: x y z\nfield: %s\nideal:\n# a comment\nx*y\n%s # note\n" % (field, line)
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert (exc.value.line, exc.value.col) == (6, col)
        assert fragment in str(exc.value)
        assert str(exc.value).startswith("line 6, column %d: " % col)

    def test_a_long_prime_is_refused_at_its_column(self):
        with pytest.raises(ParseError) as exc:
            parse_input("ring: x y\n  field: GF(%s)\nideal:\nx*y\n" % ("7" * 5000))
        assert (exc.value.line, exc.value.col) == (2, 13)
        assert "more than 4300 digits" in str(exc.value)

    def test_numbers_of_4300_digits_are_read(self):
        num, den = "7" * 4300, "1" * 4300
        doc = parse_input("ring: x y\nfield: QQ\nideal:\n%s/%s x - y\n" % (num, den))
        assert doc.generators[0].coeffs[(1, 0)] == QQ(int(num), int(den))

    @pytest.mark.parametrize(
        "line, col",
        [
            # no number is too long, but the sum is; the column is that of
            # the first term on the monomial
            pytest.param("y + 1/%s x + 1/%s1 x" % ("3" * 4300, "7" * 4299), 3, id="denominator"),
            pytest.param("%s x - y + %s*x" % ("9" * 4300, "9" * 4300), 1, id="numerator"),
        ],
    )
    def test_terms_summing_past_4300_digits_are_refused(self, tmp_path, line, col):
        text = "ring: x y\nfield: QQ\nideal:\n%s\n" % line
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert (exc.value.line, exc.value.col) == (4, col)
        assert "sum to a coefficient of more than 4300 digits" in str(exc.value)
        p = tmp_path / "sum.ideal"
        p.write_text(text)
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert (code, out) == (EXIT_INPUT, "")
        assert "line 4, column %d" % col in err and "Traceback" not in err

    def test_a_sum_of_4300_digits_is_read(self):
        # 1/10^2150 + 1/(10^2149 + 1) has a denominator of exactly 4300 digits
        a, b = 10**2150, 10**2149 + 1
        doc = parse_input("ring: x y\nfield: QQ\nideal:\n1/%d x + 1/%d x\n" % (a, b))
        c = doc.generators[0].coeffs[(1, 0)]
        assert c == QQ(a + b, a * b) and len(str(c.denominator)) == 4300

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]),
        st.integers(1, 4),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 12)), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_printed_polynomial_parses_back(self, field, n, degree, coeffs, seed):
        """str() of a homogeneous polynomial, re-spaced and with '*' dropped
        where optional or doubled, reads back as the same polynomial."""
        rng = random.Random(seed)
        # names without digits: a digit before '*' is then a coefficient's or
        # an exponent's, and the '*' after it may vanish
        ring = PolynomialRing(list("xyzw"[:n]), field)
        terms = []
        for num, den in coeffs:
            exps = [0] * n
            for _ in range(degree):
                exps[rng.randrange(n)] += 1
            terms.append((field(num, den) if field == QQ else num, tuple(exps)))
        poly = ring.from_terms(terms)

        def respace(m):
            sep = m.group()
            if sep == "*":
                # a '*' may vanish after a coefficient; between names it keeps a space
                options = ["*", "**", " * ", " ", "\t"] + ([""] if m.string[m.start() - 1].isdigit() else [])
                return rng.choice(options)
            if sep == " ":
                return rng.choice(["", " ", "  ", "\t"])
            return rng.choice(["", " "]) + sep + rng.choice(["", " "])

        text = re.sub(r"[* ^/]", respace, str(poly))
        doc = parse_input("ring: %s\nfield: %s\nideal:\n%s\n" % (" ".join(ring.names), field.name, text))
        assert doc.generators == ([] if poly.is_zero() else [poly])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def curve_path(tmp_path):
    p = tmp_path / "curve.ideal"
    p.write_text(CURVE_FILE)
    return str(p)


class TestCli:
    def test_compute_human(self, curve_path):
        code, out, err = run_cli(["compute", "--input", curve_path, "--t", "2"])
        assert code == EXIT_OK
        assert "reg_quotient: 2" in out
        assert "astar_quotient: 1" in out
        assert err == ""

    def test_human_output_prints_the_c_list_as_numbers(self, curve_path):
        code, out, _ = run_cli(["compute", "--input", curve_path, "--t", "2"])
        assert code == EXIT_OK
        assert "  c: [-inf, 2, 2]" in out.splitlines()

    def test_compute_json_values(self, curve_path):
        code, out, _ = run_cli(
            ["compute", "--input", curve_path, "--t", "2", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        rep = doc["methods"]["c"]
        assert rep["c"] == ["-inf", 2, 2]
        assert rep["reg_quotient"] == 2
        assert rep["astar_quotient"] == 1
        assert rep["reg_ideal"] == 3
        assert rep["dim_quotient"] == 2

    def test_all_methods_agree(self, curve_path):
        code, out, _ = run_cli(
            ["compute", "--input", curve_path, "--t", "2", "--method", "all", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc["methods"]) == {"c", "gin", "oracle"}
        assert doc["methods_agree"] is True

    def test_json_is_deterministic(self, curve_path):
        argv = ["compute", "--input", curve_path, "--method", "all", "--json"]
        assert run_cli(argv) == run_cli(argv)

    def test_betti_output(self, tmp_path):
        p = tmp_path / "m.ideal"
        p.write_text(MONOMIAL_FILE)
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", "oracle", "--betti", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "betti" in doc
        assert "hilbert_numerator" in doc

    @pytest.mark.parametrize("method", ["c", "gin"])
    def test_betti_of_a_non_monomial_input(self, curve_path, method):
        # the table of S/in(I), as --method oracle prints it, beside the
        # chosen route's answer and the R/in(I) note
        code, out, err = run_cli(
            ["compute", "--input", curve_path, "--method", method, "--betti", "--json"]
        )
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert set(doc["methods"]) == {method}
        assert doc["notes"] == [
            "oracle values describe R/in(I), the quotient by the initial ideal"
        ]
        _, oracle_out, _ = run_cli(
            ["compute", "--input", curve_path, "--method", "oracle", "--betti", "--json"]
        )
        oracle = json.loads(oracle_out)
        assert doc["betti"] == oracle["betti"]
        assert doc["hilbert_numerator"] == oracle["hilbert_numerator"]

    def test_human_output_shows_the_partial_invariants(self, curve_path):
        argv = ["compute", "--input", curve_path, "--method", "oracle", "--t", "1"]
        code, out, _ = run_cli(argv)
        assert code == EXIT_OK
        rep = json.loads(run_cli(argv + ["--json"])[1])["methods"]["oracle"]
        for key in ("reg_t_quotient", "astar_t_quotient", "max_generator_degree"):
            assert "  %s: %s" % (key, rep[key]) in out.splitlines()

    def test_all_exits_1_when_the_methods_disagree(self, tmp_path, monkeypatch):
        # the oracle answers for (x1^3, x2^3) in place of the input (x1^2, x2^2)
        p = tmp_path / "squares.ideal"
        p.write_text("ring: x1 x2\nfield: QQ\nideal:\nx1^2\nx2^2\n")
        cubes = MonomialIdeal.from_generators(PolynomialRing(["x1", "x2"]), [(3, 0), (0, 3)])
        original = cmreg.cli.invariants_via_betti
        monkeypatch.setattr(cmreg.cli, "invariants_via_betti", lambda ideal, t: original(cubes, t))
        code, out, err = run_cli(["compute", "--input", str(p), "--method", "all", "--json"])
        assert code == EXIT_MATH
        doc = json.loads(out)
        assert set(doc["methods"]) == {"c", "gin", "oracle"}
        assert doc["methods_agree"] is False
        assert doc["method_disagreements"] == ["gin=(2, 2) vs oracle=(4, 4)"]
        assert err == "mathematical failure: methods disagree: ['gin=(2, 2) vs oracle=(4, 4)']\n"

    def test_all_compares_reg_t_below_dim(self, tmp_path, monkeypatch):
        # at t = 0 < dim = 1 the c and Gin routes give reg_t and a*_t only,
        # both -inf here, so they are compared with the oracle's reg_t and
        # a*_t, and not with its full reg and a*
        p = tmp_path / "m.ideal"
        p.write_text(MONOMIAL_FILE)
        args = ["compute", "--input", str(p), "--method", "all", "--t", "0", "--json"]
        code, out, err = run_cli(args)
        assert (code, err) == (EXIT_OK, "")
        oracle = json.loads(out)["methods"]["oracle"]
        assert (oracle["dim_quotient"], oracle["reg_quotient"], oracle["reg_t_quotient"]) == (1, 2, "-inf")
        assert json.loads(out)["methods_agree"] is True
        # an oracle with a wrong reg_t
        original = cmreg.cli.invariants_via_betti
        monkeypatch.setattr(
            cmreg.cli,
            "invariants_via_betti",
            lambda ideal, t: original(ideal, t)._replace(reg_t_quotient=7),
        )
        code, out, err = run_cli(args)
        assert code == EXIT_MATH
        doc = json.loads(out)
        assert doc["methods_agree"] is False
        assert doc["method_disagreements"] == ["gin=('-inf', '-inf') vs oracle=(7, '-inf')"]

    def test_monomial_all_methods(self, tmp_path):
        p = tmp_path / "m.ideal"
        p.write_text(MONOMIAL_FILE)
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", "all", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["methods_agree"] is True

    def test_missing_file(self):
        code, _, err = run_cli(["compute", "--input", "/nonexistent.ideal"])
        assert code == EXIT_INPUT
        assert "error" in err

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "latin1.ideal"
        p.write_bytes(b"ring: x y\nfield: QQ\nideal:\nx\xff\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: %s: line 4, column 2: byte 0xff is not UTF-8\n" % p
        # a column counts characters, not bytes, and a CRLF file counts
        # lines as a parsed one does
        p.write_bytes("ring: x y\r\nfield: QQ\r\nideal:\r\n\u00e9 + \u00e9".encode() + b"\xe9\r\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: %s: line 4, column 6: byte 0xe9 is not UTF-8\n" % p

    def test_parse_error_exit(self, tmp_path):
        p = tmp_path / "bad.ideal"
        p.write_text("ring: x y\nfield: QQ\nideal:\nx + x*y\n")
        code, _, err = run_cli(["compute", "--input", str(p)])
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_gin_requires_characteristic_zero(self, tmp_path):
        p = tmp_path / "p.ideal"
        p.write_text("ring: x y\nfield: GF(7)\nideal:\nx^2\n")
        code, _, err = run_cli(["compute", "--input", str(p), "--method", "gin"])
        assert code == EXIT_INPUT
        assert "characteristic" in err

    def test_all_over_prime_field_skips_gin(self, tmp_path):
        p = tmp_path / "p.ideal"
        p.write_text("ring: x y\nfield: GF(7)\nideal:\nx^2\n")
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", "all", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "gin" not in doc["methods"]
        assert any("gin" in note for note in doc["notes"])

    def test_human_output_shows_notes(self, tmp_path):
        p = tmp_path / "p.ideal"
        p.write_text("ring: x y\nfield: GF(7)\nideal:\nx^2\n")
        code, out, _ = run_cli(["compute", "--input", str(p), "--method", "all"])
        assert code == EXIT_OK
        assert "note: gin method skipped over GF(7)" in out.splitlines()

    def test_gin_fails_on_a_draw_with_an_infinite_c(self, tmp_path, monkeypatch):
        # (x1*x2) is not Borel-fixed: c_0 = +inf, so no a* is read off it
        p = tmp_path / "frf.ideal"
        p.write_text(FRF_FILE)
        monkeypatch.setattr(cmreg.regularity, "generic_initial_ideal", non_borel_draw)
        for generic in ("--generic", "--no-generic"):
            code, out, err = run_cli(["compute", "--input", str(p), "--method", "gin", generic])
            assert (code, out) == (EXIT_MATH, "")
            assert "Gin draw" in err and "c_0 = +inf" in err
            assert "--generic" not in err and "too small" not in err

    def test_filter_failure_without_generic(self, tmp_path):
        p = tmp_path / "frf.ideal"
        p.write_text(FRF_FILE)
        code, _, err = run_cli(
            ["compute", "--input", str(p), "--no-generic"]
        )
        assert code == EXIT_MATH
        assert "generic" in err

    def test_filter_failure_recovered_by_default(self, tmp_path):
        p = tmp_path / "frf.ideal"
        p.write_text(FRF_FILE)
        code, out, _ = run_cli(["compute", "--input", str(p), "--json"])
        assert code == EXIT_OK
        rep = json.loads(out)["methods"]["c"]
        assert rep["generic_retries"] >= 1
        assert rep["reg_quotient"] == 1

    def test_small_field_failure_names_the_field(self, tmp_path):
        # GF(2) has too few linear forms for generic coordinates
        p = tmp_path / "gf2.ideal"
        p.write_text(GF2_NO_GENERIC_FILE)
        code, _, err = run_cli(["compute", "--input", str(p), "--method", "c"])
        assert code == EXIT_MATH
        assert "retry with --generic" not in err
        assert "5 random coordinate changes" in err
        assert "GF(2) may be too small" in err

    def test_all_answers_when_the_c_route_fails(self, tmp_path):
        # the c route finds no generic coordinates over GF(2), Gin is
        # skipped there, and the oracle still answers: exit 1 with the
        # oracle's document and the c route's failure
        p = tmp_path / "gf2.ideal"
        p.write_text(GF2_NO_GENERIC_FILE)
        code, out, err = run_cli(
            ["compute", "--input", str(p), "--method", "all", "--betti", "--json"]
        )
        assert code == EXIT_MATH
        doc = json.loads(out)
        assert list(doc["methods"]) == ["oracle"]
        assert doc["methods"]["oracle"]["reg_quotient"] == 5
        assert doc["hilbert_numerator"]
        # only the oracle answered, so nothing was compared
        assert doc["methods_agree"] is False
        assert doc["notes"][0].startswith("c method failed: filter-regularity fails")
        assert err.startswith("mathematical failure: filter-regularity fails")
        assert "GF(2) may be too small" in err

    def test_c_route_answers_rp2_over_gf2(self, tmp_path):
        # a unitriangular retry finds filter-regular coordinates over GF(2);
        # reg and a* are those of the oracle in characteristic 2
        p = tmp_path / "rp2.ideal"
        p.write_text(rp2_file("GF(2)"))
        code, out, _ = run_cli(["compute", "--input", str(p), "--method", "c", "--json"])
        assert code == EXIT_OK
        rep = json.loads(out)["methods"]["c"]
        assert (rep["reg_quotient"], rep["astar_quotient"]) == (3, 0)
        assert rep["generic_retries"] == 4

    def test_oracle_on_in_I_is_not_compared_without_the_c_route(self):
        # without a c report there is no sign that in(I) was read in
        # generic coordinates, so the oracle's values stay out of the check
        gin = RegularityReport(2, (1, 1, 0), 2, 1, 1, 1, 2, "gin")
        oracle = RegularityReport(2, None, 4, 3, 3, 3, 2, "oracle")
        assert _check_agreement({"gin": gin, "oracle": oracle}, False) == (True, [])
        assert _check_agreement({"gin": gin, "oracle": oracle}, True)[0] is False

    @pytest.mark.parametrize("field, reg", [("QQ", 2), ("GF(2)", 3), ("GF(32003)", 2)])
    def test_oracle_honours_characteristic(self, tmp_path, field, reg):
        p = tmp_path / "rp2.ideal"
        p.write_text(rp2_file(field))
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", "oracle", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["methods"]["oracle"]["reg_quotient"] == reg

    def test_oracle_large_exponents(self, tmp_path):
        d = 1300
        p = tmp_path / "dfam.ideal"
        p.write_text(
            "ring: x y z\nfield: QQ\nideal:\n"
            "x^{d}*y^{d}\ny^{d}*z^{d}\nx^{d}*z^{d}\n".format(d=d)
        )
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", "oracle", "--betti", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["methods"]["oracle"]["reg_quotient"] == 3 * d - 2

    @pytest.mark.parametrize("method", ["oracle", "all"])
    def test_out_of_memory_is_one_line_and_exit_1(self, tmp_path, monkeypatch, method):
        # x^1000000000*y, y^1000000000*z^3, x^5*z^1000000000 runs out of
        # memory in its Hilbert numerator on every route; a route that raises
        # MemoryError stands in for it, after the c and Gin routes under all
        p = tmp_path / "m.ideal"
        p.write_text("ring: x y z\nfield: QQ\nideal:\nx*y\ny*z^3\nx^5*z\n")

        def exhausted(ideal, t):
            raise MemoryError

        monkeypatch.setattr(cmreg.cli, "invariants_via_betti", exhausted)
        code, out, err = run_cli(["compute", "--input", str(p), "--method", method])
        assert code == EXIT_MATH == 1
        assert out == ""
        assert err.splitlines() == [OUT_OF_MEMORY]
        assert err.startswith("resource failure: out of memory") and "README" in err
        assert "Traceback" not in err

    def test_no_subcommand_prints_help(self):
        code, _, err = run_cli([])
        assert code == EXIT_INPUT
        assert "compute" in err

    def test_argument_parser_built_once(self):
        parser = build_parser()
        assert build_parser() is parser
        parser.parse_args(["compute", "--input", "a", "--t", "2", "--method", "all", "--json"])
        # the reused parser keeps nothing from one run to the next
        argv = ["compute", "--input", "b"]
        assert parser.parse_args(argv) == build_parser.__wrapped__().parse_args(argv)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "cmreg" in out
        # the rational arithmetic: fractions.Fraction
        assert "%s.%s" % (cmreg.fields._mpq.__module__, cmreg.fields._mpq.__name__) in out
        assert "rationals: fractions.Fraction" in out


class TestOneInitialIdeal:
    """A run computes in(I) once in each coordinate system it visits."""

    @pytest.fixture
    def gb_calls(self, monkeypatch):
        # every Buchberger run of a route, for in(I) and for each drawn g
        import cmreg.groebner

        calls = []
        original = cmreg.groebner._groebner_basis

        def counted(ideal, target):
            calls.append(ideal)
            return original(ideal, target)

        monkeypatch.setattr(cmreg.groebner, "_groebner_basis", counted)
        return calls

    def run_json(self, tmp_path, text, method):
        p = tmp_path / "in.ideal"
        p.write_text(text)
        code, out, _ = run_cli(
            ["compute", "--input", str(p), "--method", method, "--json"]
        )
        assert code == EXIT_OK
        return json.loads(out)["methods"]

    def test_monomial_input_needs_no_groebner_basis(self, tmp_path, gb_calls):
        text = "ring: x1 x2 x3\nfield: QQ\nideal:\nx1^2\nx1*x2\nx2^3\n"
        methods = self.run_json(tmp_path, text, "c")
        assert "generic_retries" not in methods["c"]
        assert len(gb_calls) == 0

    def test_one_per_retry(self, tmp_path, gb_calls):
        methods = self.run_json(tmp_path, MONOMIAL_FILE, "c")
        assert len(gb_calls) == methods["c"]["generic_retries"] >= 1

    def test_c_route(self, tmp_path, gb_calls):
        methods = self.run_json(tmp_path, CURVE_FILE, "c")
        assert "generic_retries" not in methods["c"]
        assert len(gb_calls) == 1

    def test_oracle_route(self, tmp_path, gb_calls):
        self.run_json(tmp_path, CURVE_FILE, "oracle")
        assert len(gb_calls) == 1

    def test_all_routes_share_in_I(self, tmp_path, gb_calls):
        methods = self.run_json(tmp_path, CURVE_FILE, "all")
        assert "generic_retries" not in methods["c"]
        assert len(gb_calls) == 1 + methods["gin"]["gin_draws_total"]

    def test_gin_draws_apart_from_the_c_route_retry(self, tmp_path, gb_calls):
        # the c route's retry is unitriangular and Gin's draws are dense, so
        # the two share only in(I): one in(g I) for the retry, one per draw
        text = "ring: x1 x2\nfield: QQ\nideal:\nx1*x2\nx2^2\n"
        methods = self.run_json(tmp_path, text, "all")
        assert methods["c"]["generic_retries"] == 1
        assert methods["gin"]["gin_draws_total"] == 2
        assert len(gb_calls) == 3


NINE_VARIABLE_FILE = """\
ring: x1 x2 x3 x4 x5 x6 x7 x8 x9
field: QQ
ideal:
x1*x2
x9^2
"""


class TestRefusals:
    """Every refusal exits 2 with "input error" and no traceback."""

    def refused(self, tmp_path, text, argv):
        p = tmp_path / "in.ideal"
        p.write_text(text)
        code, out, err = run_cli(["compute", "--input", str(p)] + argv)
        assert code == EXIT_INPUT
        assert "input error" in err
        assert "Traceback" not in err
        assert out == ""
        return err

    @pytest.mark.parametrize("method", ["c", "gin", "oracle"])
    @pytest.mark.parametrize("t", ["-1", "4"])
    def test_cutoff_out_of_range(self, tmp_path, method, t):
        err = self.refused(tmp_path, MONOMIAL_FILE, ["--method", method, "--t", t])
        assert "[0, 3]" in err

    @pytest.mark.parametrize("method", ["c", "gin", "oracle"])
    def test_unit_ideal(self, tmp_path, method):
        text = "ring: x y\nfield: QQ\nideal:\n1\n"
        err = self.refused(tmp_path, text, ["--method", method])
        assert "unit ideal" in err

    # a composite that passes Miller-Rabin to the bases 2, ..., 37, and the
    # first number the bases 2, ..., 41 cannot decide
    @pytest.mark.parametrize("p", [318665857834031151167461, 3317044064679887385961981])
    def test_characteristic_not_a_certified_prime(self, tmp_path, p):
        text = "ring: x y\nfield: GF(%d)\nideal:\nx*y\n" % p
        err = self.refused(tmp_path, text, ["--method", "c"])
        assert str(p) in err

    # refused before any route runs, so also on the oracle, which draws no
    # matrix, and on x*y, y^2, where the c route would need a retry
    @pytest.mark.parametrize("method", ["c", "gin", "oracle"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one(self, tmp_path, method, bound):
        text = "ring: x y\nfield: QQ\nideal:\nx*y\ny^2\n"
        err = self.refused(tmp_path, text, ["--method", method, "--bound", bound])
        assert "bound" in err

    def test_oracle_scope(self, tmp_path):
        err = self.refused(tmp_path, NINE_VARIABLE_FILE, ["--method", "oracle"])
        assert "8 variables" in err

    def test_out_of_scope_oracle_is_skipped_under_all(self, tmp_path):
        p = tmp_path / "in.ideal"
        p.write_text(NINE_VARIABLE_FILE)
        code, out, err = run_cli(
            ["compute", "--input", str(p), "--method", "all", "--json"]
        )
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert set(doc["methods"]) == {"c", "gin"}
        assert doc["methods_agree"] is True
        assert any("oracle" in note and "8 variables" in note for note in doc["notes"])

    def test_out_of_scope_betti_keeps_the_c_answer(self, tmp_path):
        p = tmp_path / "in.ideal"
        p.write_text(
            "ring: a b c d e f g h i\nfield: QQ\nideal:\na*b\nc*d\ne*f\ng*h\n"
        )
        code, out, err = run_cli(
            ["compute", "--input", str(p), "--method", "c", "--betti", "--json"]
        )
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["methods"]["c"]["reg_quotient"] == 4
        assert "betti" not in doc
        assert doc["notes"] == [
            "oracle method skipped: oracle limited to 20 generators in 8 variables"
        ]


R2 = PolynomialRing(["x", "y"])
X, Y = R2.gens()


# each refusal is an InputError, and so still a ValueError
@pytest.mark.parametrize(
    "call",
    [
        lambda: PrimeField(4),
        lambda: Ideal(R2, [X * X + Y]),
        lambda: MonomialIdeal.from_generators(R2, [(1, -1)]),
        lambda: MonomialIdeal.from_generators(R2, [(1, 1, 0)]),
        lambda: lcm_multidegrees(MonomialIdeal.from_generators(R2, [])),
        lambda: lcm_multidegrees(MonomialIdeal.from_generators(R2, [(0, 0)])),
        lambda: betti_table(MonomialIdeal.from_generators(R2, [(0, 0)])),
        lambda: upper_koszul_complex(MonomialIdeal.from_generators(R2, [(1, 0)]), (1, 1, 1)),
        lambda: apply_linear_change(X, [[1, 1], [1, 1]]),
        lambda: apply_linear_change(PolynomialRing(["x", "y"], PrimeField(7)).variable(0), [[1, 0], [0, 7]]),
        lambda: PolynomialRing([]),
        lambda: PolynomialRing(["x", "x"]),
        lambda: MonomialIdeal.from_generators(R2, [(1, 0)]).contains((1, 0, 0)),
        lambda: MonomialIdeal.from_generators(R2, [(1, 0)]).set_vars_zero(2),
        lambda: R2.drop_last(2),
        # (x, y) leaves no quadric, (x^2) leaves two: (x^2) is no in(g I)
        lambda: buchberger([X, Y], hilbert_numerator(MonomialIdeal.from_generators(R2, [(2, 0)]))),
        lambda: quotient_top_degree(
            MonomialIdeal.from_generators(R2, [(1, 0)]),
            MonomialIdeal.from_generators(PolynomialRing(["x", "y", "z"]), [(1, 0, 0)]),
        ),
        lambda: quotient_top_degree(
            MonomialIdeal.from_generators(R2, [(1, 0)]), MonomialIdeal.from_generators(R2, [(0, 1)])
        ),
        lambda: s_polynomial(X, R2.zero()),
        lambda: initial_ideal([]),
    ],
    ids=[
        "composite-p",
        "non-homogeneous",
        "negative-exponent",
        "wrong-length",
        "lcms-of-zero",
        "lcms-of-unit",
        "betti-of-unit",
        "koszul-wrong-length",
        "singular-over-QQ",
        "singular-over-GF7",
        "no-variables",
        "repeated-variable",
        "contains-wrong-length",
        "set-vars-zero-range",
        "drop-last-range",
        "foreign-hilbert-target",
        "quotient-of-different-rings",
        "quotient-not-contained",
        "s-polynomial-of-zero",
        "initial-ideal-without-ring",
    ],
)
def test_library_refusals_are_input_errors(call):
    with pytest.raises(InputError):
        call()


# a wrong exponent vector or a polynomial from another ring is refused with
# an InputError too, not a plain ValueError
@pytest.mark.parametrize(
    "call",
    [
        lambda: R2.monomial((-1, 0)),
        lambda: R2.monomial((1, 0, 0)),
        lambda: R2.from_terms([(1, (1, 0, 0))]),
        lambda: R2.from_terms([(1, (2, -1))]),
        lambda: X + PolynomialRing(["x", "y", "z"]).variable(0),
        lambda: Ideal(PolynomialRing(["x", "y", "z"]), [X]),
    ],
    ids=[
        "monomial-negative",
        "monomial-wrong-length",
        "from-terms-wrong-length",
        "from-terms-negative",
        "mixed-rings-sum",
        "ideal-of-another-ring",
    ],
)
def test_exponent_and_ring_refusals_are_input_errors(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: betti_table(Ideal(R2, [X])),
        lambda: reduced_groebner_basis([X]),
    ],
    ids=["betti-of-Ideal", "groebner-of-list"],
)
def test_wrong_argument_types_are_type_errors(call):
    with pytest.raises(TypeError):
        call()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every run of the command starts with this import; dataclasses would
    # bring inspect, ast, dis and tokenize into every start
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmreg.fields.__file__)))
    code = (
        "import sys; sys.path.insert(0, %r); import cmreg.cli; "
        "print(cmreg.cli.__file__); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    ) % src
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    where, loaded = out.stdout.splitlines()
    assert where.startswith(src + os.sep)
    assert loaded == "[]"
