"""Coefficient fields: the representation of GF(p) values and the primality
check that guards PrimeField."""

import pytest

from cmreg import PrimeField, apply_linear_change, normal_form, parse_input, s_polynomial
from cmreg.fields import FieldError

# coefficients below 0 and at least p, and terms whose sums and products
# leave [0, p) unless reduced
TEXT = """\
ring: x y z
field: GF(%d)
ideal:
-3*x^2 + 40000*x*y - y*z + 7*z^2
x*y + 32005*y^2 - 5*x*z - 7*z^2
"""


def assert_residues(f):
    p = f.ring.field.characteristic
    assert not f.is_zero()
    for c in f.coeffs.values():
        assert type(c) is int and 0 <= c < p, (c, f)


@pytest.mark.parametrize("p", [2, 32003])
def test_prime_field_values_are_ints_in_range(p):
    doc = parse_input(TEXT % p)
    ring = doc.ring
    f, g = doc.generators
    s = s_polynomial(f, g)
    x_squared, yz, z_squared = (2, 0, 0), (0, 1, 1), (0, 0, 2)
    produced = {
        "parse_input f": f,
        "parse_input g": g,
        "from_terms": ring.from_terms(
            [(p - 1, x_squared), (5, x_squared), (-7, yz), (3 * p + 2, z_squared)]
        ),
        "+": f + g,
        "-": f - g,
        "negation": -f,
        "*": f * g,
        "scale": f.scale(-7),
        "scale by p + 3": f.scale(p + 3),
        "monic": f.monic(),
        "s_polynomial": s,
        "normal_form": normal_form(s, [f]),
        "apply_linear_change": apply_linear_change(f, [[1, 2, 0], [0, 1, 0], [-3, 5, 1]]),
    }
    for name, h in produced.items():
        assert h.ring == ring, name
        assert_residues(h)


# strong pseudoprimes to the bases 2, ..., 37 (the first) and 2, ..., 41
@pytest.mark.parametrize(
    "n", [318665857834031151167461, 3317044064679887385961981], ids=["psi12", "psi13"]
)
def test_prime_field_refuses_strong_pseudoprimes(n):
    with pytest.raises(FieldError):
        PrimeField(n)


def test_prime_field_accepts_large_primes():
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1
    assert PrimeField(41).characteristic == 41
