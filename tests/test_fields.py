"""Coefficient fields: the representation of GF(p) values, the primality
check that guards PrimeField, and the canonical integer multiple of a
vector."""

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmreg import QQ, PrimeField, apply_linear_change, normal_form, parse_input, s_polynomial
from cmreg.fields import FieldError, normalized

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


@pytest.mark.parametrize(
    "field,message", [(QQ, "zero denominator"), (PrimeField(7), "zero denominator in GF(7)")]
)
def test_a_zero_denominator_is_refused(field, message):
    # QQ(1, 0) and GF(7)(1, 7)
    with pytest.raises(FieldError) as exc:
        field(1, field.characteristic)
    assert str(exc.value) == message


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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from([0, 2, 32003]),
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=6),
    st.data(),
    st.integers(-(10**6), 10**6),
)
def test_normalized_is_the_same_for_every_unit_multiple(p, entries, data, unit):
    # over QQ (p = 0) the units are the nonzero integers, over GF(p) the
    # integers prime to p; the lead must be a unit too
    values = dict(enumerate(entries))
    lead = data.draw(st.integers(0, len(entries) - 1))
    assume(values[lead] % p if p else values[lead])
    assume(unit % p if p else unit)
    result = normalized(values, lead, p)
    assert normalized({k: unit * v for k, v in values.items()}, lead, p) == result
    assert result.keys() == values.keys()
    # a multiple of the vector: every 2 x 2 minor vanishes
    for k, v in values.items():
        minor = result[k] * values[lead] - v * result[lead]
        assert (minor % p if p else minor) == 0
    if p:
        assert result[lead] == 1
        assert all(0 <= v < p for v in result.values())
    else:
        assert result[lead] > 0
        assert gcd(*result.values()) == 1
