"""The CLI's JSON, byte for byte, on fixed inputs.

tests/golden/NAME.json is the `--json` stdout of `cmreg compute` on
tests/golden/NAME.ideal with the arguments listed here.  A change that
alters one of these files changes the output schema or an answer.
"""

import io
import os

import pytest

from cmreg.cli import EXIT_OK, run

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

ALL_ROUTES = ["--method", "all", "--seed", "7", "--betti"]
ORACLE = ["--method", "oracle", "--betti"]

GOLDEN = {
    # the three fixtures of acceptance criterion 9
    "quartic-curve": ALL_ROUTES,
    "frf-witness": ALL_ROUTES,
    "monomial": ALL_ROUTES,
    # the quartic curve at the cutoff t = 1 below its dim 2: the partial
    # outputs of all three routes, compared on reg_t and a*_t
    "quartic-curve-t1": ALL_ROUTES + ["--t", "1"],
    # the Stanley-Reisner ideal of the 6-vertex real projective plane
    "rp2-qq": ORACLE,
    "rp2-gf2": ORACLE,
    # prime-field coefficients reduced mod p on input, and a c route that
    # needs one coordinate retry
    "gfp-retry": ALL_ROUTES,
    # three rational quadrics in six variables: the c route needs one
    # coordinate retry and Gin two draws
    "qq-retry": ALL_ROUTES,
    # an oracle workload ideal (job mono-5 of seed 1): 8 generators in 8
    # variables over GF(2), whose boundary matrices form long elimination
    # chains
    "oracle-gf2": ORACLE,
    # the largest complex in the oracle's scope that any check runs: 17
    # generators in 8 variables with sum_b 2^|supp b| = 112,692 over the lcm
    # lattice, over QQ and over GF(2), recorded before boundary maps were
    # cleared of the pivot faces of the map above
    "oracle-large-qq": ORACLE,
    "oracle-large-gf2": ORACLE,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_matches_golden(name):
    path = os.path.join(GOLDEN_DIR, name + ".ideal")
    out, err = io.StringIO(), io.StringIO()
    code = run(["compute", "--input", path, "--json"] + GOLDEN[name], out=out, err=err)
    assert code == EXIT_OK
    assert err.getvalue() == ""
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
