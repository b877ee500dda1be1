"""The residual of a decomposition: one numpy product against the Form sum.

`Decomposition.residual` sums the powered terms through a cached exponent
matrix and the multinomials, as one numpy product.  The reference here is
the definition written with `Form` arithmetic: the float powers of the
terms added one at a time, subtracted from f, max-norm over
max(1, max-norm of f).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring.decomposition import Decomposition, Term
from waring.errors import PreconditionError
from waring.forms import Form, ProjectivePoint, power_of_linear
from waring.monomials import space_dim


def reference_residual(dec: Decomposition, f: Form) -> float:
    total = Form.zero(dec.num_vars, dec.degree, exact=False)
    for t in dec.terms:
        total = total + power_of_linear(t.point.as_floats(), dec.degree, complex(t.coeff))
    return (f.to_float() - total).max_abs() / max(1.0, f.max_abs())


small = st.integers(-3, 3)
unit_float = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def decompositions_with_forms(draw):
    """A decomposition in n = 2 or 3 variables of degree 1..12, with exact or
    float terms, and a form near its sum: the sum of the exact powers (or of
    the float ones) plus a small integer perturbation, which may be zero."""
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 12))
    exact = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        if exact:
            coords = draw(st.lists(small, min_size=n, max_size=n).filter(any))
            coeff = Fraction(draw(small), draw(st.integers(1, 4)))
        else:
            coords = draw(st.lists(st.builds(complex, unit_float, unit_float),
                                   min_size=n, max_size=n).filter(any))
            coeff = complex(draw(unit_float), draw(unit_float))
        terms.append(Term(coeff, ProjectivePoint(tuple(coords))))
    dec = Decomposition(n, d, tuple(terms))
    f = Form.zero(n, d, exact=exact)
    for t in terms:
        f = f + power_of_linear(t.point.coords, d, t.coeff)
    noise = draw(st.lists(small, min_size=space_dim(n, d), max_size=space_dim(n, d)))
    return dec, f + Form(n, d, tuple(Fraction(c) for c in noise))


@settings(max_examples=300, deadline=None)
@given(decompositions_with_forms())
def test_residual_matches_the_form_sum(case):
    dec, f = case
    assert abs(dec.residual(f) - reference_residual(dec, f)) <= 1e-12


def test_residual_of_an_exact_decomposition_is_zero():
    # x0^4 + (x0 + 2 x1 - x2)^4 / 3: every power and product is exact in floats
    terms = (Term(Fraction(1), ProjectivePoint((1, 0, 0))),
             Term(Fraction(1, 3), ProjectivePoint((1, 2, -1))))
    f = power_of_linear((1, 0, 0), 4) + power_of_linear((1, 2, -1), 4, Fraction(1, 3))
    assert Decomposition(3, 4, terms).residual(f) == 0.0
    assert Decomposition(3, 4, ()).residual(f) == pytest.approx(1.0)


def test_residual_checks_the_space():
    dec = Decomposition(2, 3, (Term(Fraction(1), ProjectivePoint((1, 1))),))
    with pytest.raises(PreconditionError):
        dec.residual(power_of_linear((1, 1), 4))
