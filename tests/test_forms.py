import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from waring import ternary
from waring.apolarity import cat_rank_table, catalecticant, essential_variables, rank_lower_bound
from waring.binary import embed_binary, line_embedding, push_decomposition
from waring.decomposition import Decomposition, term_from_vector
from waring.errors import DimensionMismatch, ParseFormError, PreconditionError, ZeroFormError
from waring.forms import (
    Form,
    ProjectivePoint,
    _floats_with_norm,
    _normalize_coeffs,
    chordal_distance,
    complex_coords,
    contract,
    distinct_points,
    evaluate,
    form_to_string,
    is_exact_scalar,
    normalized_point,
    parse_form,
    power_of_linear,
    random_combination,
    random_form,
    same_point,
    substitute,
)
from waring.monomials import (
    embedding_table,
    exponents,
    falling_product,
    index_of,
    multinomial,
    multinomials,
    space_dim,
)
from waring.plane import cross


def test_exponent_order_is_descending_lex():
    assert exponents(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert exponents(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_space_dim_matches_enumeration():
    for n in (2, 3, 4):
        for d in range(1, 7):
            assert space_dim(n, d) == len(exponents(n, d))


def test_parse_round_trip():
    texts = [
        "x0^4",
        "x0^3*x1 + x1^4",
        "2*x0^2*x1^2 - 7*x1^4",
        "x0*x1*x2",
        "-x0^5 + 3/2*x0^2*x1^3",
    ]
    for text in texts:
        n = 3 if "x2" in text else 2
        f = parse_form(text, n)
        again = parse_form(form_to_string(f), n)
        assert again.coeffs == f.coeffs


def test_parse_rejects_garbage():
    with pytest.raises(ParseFormError):
        parse_form("x0 + ", 2)
    with pytest.raises(ParseFormError):
        parse_form("x0^2 + x1", 2)  # mixed degrees
    with pytest.raises(ParseFormError):
        parse_form("x5^2", 2)
    # the last one must fail fast, not backtrack over every split of the run
    for text in ("x0 +- x1", "(1+2j*x0", "x0)", "1e*x0", "2j/3*x0", "x0" * 2000 + "("):
        with pytest.raises(ParseFormError):
            parse_form(text, 2)


def test_parse_exponent_notation_is_exact():
    f = parse_form("1e-05*x0^2 - 2.5E+20*x1^2 + .5e1*x0*x1", 2)
    assert f.is_exact
    assert f.coeffs == (Fraction(1, 100000), Fraction(5), Fraction(-25 * 10**19))


def test_float_form_text_reads_back():
    # imaginary coefficients put the parsed form on the float backend
    f = Form(2, 2, (1e-05, -1j, complex(-2.5, 3e20)))
    again = parse_form(form_to_string(f), 2)
    assert not again.is_exact
    assert again.coeffs == f.coeffs


def test_addition_needs_matching_shape():
    f = parse_form("x0^2", 2)
    g = parse_form("x0^3", 2)
    with pytest.raises(DimensionMismatch):
        f + g


def test_contract_is_falling_factorial_differentiation():
    f = parse_form("x1^4", 2)
    t = parse_form("x1^2", 2)
    assert form_to_string(contract(t, f)) == "12*x1^2"
    # d/dy0 on x0^3*x1 gives 3*x0^2*x1
    g = contract(parse_form("x0", 2), parse_form("x0^3*x1", 2))
    assert form_to_string(g) == "3*x0^2*x1"


def test_contract_degree_drop_and_zero():
    f = parse_form("x0^2*x1", 2)
    assert contract(parse_form("x1^2", 2), f).is_zero()
    h = contract(parse_form("x0*x1", 2), f)
    assert h.degree == 1 and not h.is_zero()


def test_contract_product_rule_composes():
    # contracting by a product equals contracting twice, either order
    rng = random.Random(3)
    for _ in range(20):
        f = random_form(3, 5, seed=rng.randint(0, 10**6))
        a = random_form(3, 1, seed=rng.randint(0, 10**6))
        b = random_form(3, 2, seed=rng.randint(0, 10**6))
        lhs = contract(a * b, f)
        rhs = contract(a, contract(b, f))
        assert (lhs + rhs.scale(-1)).is_zero()
        assert (lhs + contract(b, contract(a, f)).scale(-1)).is_zero()


def test_power_of_linear_carries_multinomials():
    p = power_of_linear((1, 2), 2)
    assert p.coeffs == (Fraction(1), Fraction(4), Fraction(4))
    q = power_of_linear((1, 1, 1), 3)
    assert q.coeff((1, 1, 1)) == 6


def test_power_contraction_identity():
    # t ⌟ l^d = d!/(d-e)! * t(l) * l^(d-e), checked on samples
    rng = random.Random(11)
    for _ in range(10):
        pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        if all(x == 0 for x in pt):
            continue
        f = power_of_linear(pt, 5)
        t = random_form(3, 2, seed=rng.randint(0, 10**6))
        lhs = contract(t, f)
        scalar = evaluate(t, pt) * 20  # 5*4
        rhs = power_of_linear(pt, 3).scale(scalar)
        assert (lhs + rhs.scale(-1)).is_zero()


def test_evaluate_agrees_with_substitution():
    f = parse_form("x0^3*x1 + x1^4", 2)
    assert evaluate(f, (2, 1)) == 9
    assert evaluate(f, (1, -1)) == 0


def test_substitute_linear_change():
    f = parse_form("x0^2", 2)
    images = [parse_form("x0 + x1", 2, degree=1), parse_form("x1", 2, degree=1)]
    g = substitute(f, images)
    assert form_to_string(g) == "x0^2 + 2*x0*x1 + x1^2"


def test_float_backend_round_trip():
    f = parse_form("x0^3*x1 + x1^4", 2).to_float()
    assert not f.is_exact
    assert not f.is_zero()
    assert abs(evaluate(f, (2.0, 1.0)) - 9.0) < 1e-12


def test_projective_point_normalization():
    p = ProjectivePoint((Fraction(2), Fraction(4), Fraction(0)))
    q = ProjectivePoint((1, 2, 0))
    assert same_point(p, q)
    assert chordal_distance(p, q) < 1e-12
    assert not same_point(p, ProjectivePoint((1, 2, 1)))


def test_float_point_normalization_is_idempotent():
    rng = random.Random(7)
    for _ in range(500):
        if rng.random() < 0.5:  # equal magnitudes, as roots of unity have
            coords = tuple(cmath.rect(1, rng.uniform(0, 2 * math.pi))
                           for _ in range(3))
        else:
            coords = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(3))
        p = ProjectivePoint(coords)
        assert 1 in p.coords
        assert ProjectivePoint(p.coords).coords == p.coords


def test_term_from_vector_scales_by_the_point_pivot():
    # the first coordinate is a few ulps below the largest magnitude, so the
    # point pivots on it; the coefficient has to absorb that same pivot
    vec = (cmath.rect(1 - 1e-15, 0.7), 1 + 0j)
    for degree in (3, 4, 5):
        term = term_from_vector(2 + 0j, vec, degree)
        assert term.point.coords[0] == 1
        want = power_of_linear(vec, degree, 2 + 0j)
        got = power_of_linear(term.point.as_floats(), degree, term.coeff)
        assert (got - want).max_abs() < 1e-12
    rng = random.Random(11)
    for _ in range(200):
        vec = tuple(cmath.rect(1, rng.uniform(0, 2 * math.pi)) for _ in range(3))
        term = term_from_vector(1 + 0j, vec, 4)
        got = power_of_linear(term.point.as_floats(), 4, term.coeff)
        assert (got - power_of_linear(vec, 4)).max_abs() < 1e-12


def test_distinct_points_catches_collisions():
    pts = [ProjectivePoint((1, 0)), ProjectivePoint((0, 1)),
           ProjectivePoint((2, 0))]
    assert not distinct_points(pts)
    assert distinct_points(pts[:2])


def test_chordal_distance_rescales_coordinates_whose_squares_underflow():
    assert chordal_distance((0j, 0j, 1e-200j), (1, 0, 0)) == 1.0


def test_distinct_points_rescales_coordinates_whose_squares_underflow():
    assert distinct_points([(0j, 0j, 1e-200j), (1, 0, 0)])


def test_chordal_distance_rescales_a_wedge_whose_squares_underflow():
    # the norm survives but the wedge's squares do not
    p = (3e-162, 1e-162, 0)
    assert chordal_distance(p, (1, 0, 0)) == pytest.approx(math.sqrt(0.1), rel=1e-15)
    assert distinct_points([p, (1, 0, 0)])


def reference_chordal(p, q):
    """The chordal distance of two float vectors, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        a = [mpmath.mpc(complex(c)) for c in p]
        b = [mpmath.mpc(complex(c)) for c in q]
        wedge = sum(abs(a[i] * b[j] - a[j] * b[i]) ** 2
                    for i in range(len(a)) for j in range(i + 1, len(a)))
        norms = mpmath.sqrt(sum(abs(x) ** 2 for x in a) * sum(abs(x) ** 2 for x in b))
        return float(mpmath.sqrt(wedge) / norms)


UNIT = st.one_of(st.just(0.0), st.floats(min_value=-1, max_value=1))


@st.composite
def scaled_vectors(draw):
    """Three complex coordinates of at most 1 in magnitude, times 10**k for |k| <= 300."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    coords = tuple(complex(draw(UNIT) * scale, draw(UNIT) * scale) for _ in range(3))
    assume(any(coords))
    return coords


@settings(max_examples=200, deadline=None)
@given(scaled_vectors(), scaled_vectors())
@example((3e-162, 1e-162, 0j), (1 + 0j, 0j, 0j))
@example((1e300, 1e300j, 0j), (1e-300, 0j, 1e-300))
def test_chordal_distance_matches_a_high_precision_reference(p, q):
    assert chordal_distance(p, q) == pytest.approx(reference_chordal(p, q), abs=1e-12)


def test_chordal_distance_of_the_zero_vector_raises():
    with pytest.raises(ZeroFormError):
        chordal_distance((0, 0, 0), (1, 0, 0))


def test_random_form_is_deterministic():
    assert random_form(2, 4, seed=9).coeffs == random_form(2, 4, seed=9).coeffs
    assert random_form(2, 4, seed=9).coeffs != random_form(2, 4, seed=10).coeffs


class CountingRng:
    """random.Random that counts randint calls, or replays fixed draws."""

    def __init__(self, seed=0, draws=None):
        self.rng = random.Random(seed)
        self.draws = list(draws) if draws is not None else None
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        return self.draws.pop(0) if self.draws is not None else self.rng.randint(a, b)


def test_random_combination_draws_one_integer_per_member():
    basis = [parse_form(t, 2) for t in ("x0^2", "x0*x1", "x1^2", "x0^2 - x1^2")]
    for height in (0, 1, 9):
        for seed in range(20):
            rng = CountingRng(seed)
            combo = random_combination(rng, basis, height)
            assert rng.calls == len(basis)
            if height == 0:
                assert combo is None
    # nonzero coefficients that cancel still draw every integer
    rng = CountingRng(draws=[1, 1, 0])
    assert random_combination(rng, [Form(2, 1, (1, 0)), Form(2, 1, (-1, 0)),
                                     Form(2, 1, (0, 1))], 9) is None
    assert rng.calls == 3


def test_random_combination_keeps_a_negative_zero():
    # starting from a zero float form would turn -0.0 into 0.0
    g = Form(2, 1, (complex(-0.0, 1.0), 1 + 0j))
    combo = random_combination(CountingRng(draws=[0, 2]), [g, g], 9)
    assert combo.coeffs[0] == 2j
    assert math.copysign(1.0, combo.coeffs[0].real) == -1.0


# -- table-driven kernels against the exponent-tuple reference ----------------
#
# The reference kernels below are the dict-based `Form.__mul__` and
# `contract` that the index tables replaced.  The kernels must agree with
# them bit for bit: every coefficient's repr, so a signed zero counts.

KERNEL = settings(max_examples=150, deadline=None)


def reference_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    result = Form.zero(a.num_vars, a.degree + b.degree, exact=a.is_exact and b.is_exact)
    coeffs = list(result.coeffs)
    for expo, value in out.items():
        coeffs[index_of(expo)] = value
    return Form(a.num_vars, result.degree, tuple(coeffs))


def reference_contract(t, f):
    acc = {}
    for alpha, ta in t.items():
        for beta, fb in f.items():
            fall = falling_product(beta, alpha)
            if fall == 0:
                continue
            key = tuple(b - a for b, a in zip(beta, alpha))
            acc[key] = acc.get(key, 0) + ta * fb * fall
    base = Form.zero(f.num_vars, f.degree - t.degree, exact=t.is_exact and f.is_exact)
    coeffs = list(base.coeffs)
    for expo, value in acc.items():
        coeffs[index_of(expo)] = value
    return Form(f.num_vars, base.degree, tuple(coeffs))


def reference_embed(g, u, v):
    """The embedding as it was built before `line_embedding`: per call, from products."""
    n, d = len(u), g.degree
    fu, fv = Form(n, 1, tuple(u)), Form(n, 1, tuple(v))
    total = Form.zero(n, d)
    if not g.is_exact:
        total = total.to_float()
        fu, fv = fu.to_float(), fv.to_float()
    u_pows = [Form(n, 0, (Fraction(1),)) if g.is_exact else Form(n, 0, (1.0 + 0j,))]
    v_pows = list(u_pows)
    for _ in range(d):
        u_pows.append(reference_mul(u_pows[-1], fu))
        v_pows.append(reference_mul(v_pows[-1], fv))
    for j, c in enumerate(g.coeffs):
        if c != 0:
            total = total + reference_mul(u_pows[d - j], v_pows[j]).scale(c)
    return total


def bits(form):
    return form.num_vars, form.degree, form.is_exact, [repr(c) for c in form.coeffs]


EXACT = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=12))
PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-200]),
                 st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
FLOAT = st.one_of(st.just(-0.0 + 0j), st.builds(complex, PART, PART))


@st.composite
def forms(draw, num_vars, degree, exact=None):
    if exact is None:
        exact = draw(st.booleans())
    n = space_dim(num_vars, degree)
    if draw(st.integers(0, 5)) == 0:  # a zero form, with signed zeros if float
        coeffs = [Fraction(0)] * n if exact else draw(
            st.lists(st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]),
                     min_size=n, max_size=n))
    else:
        coeffs = draw(st.lists(EXACT if exact else FLOAT, min_size=n, max_size=n))
    return Form(num_vars, degree, tuple(coeffs))


@st.composite
def form_pairs(draw, contraction=False):
    n = draw(st.integers(1, 3))
    da, db = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if contraction and da > db:
        da, db = db, da
    return draw(forms(n, da)), draw(forms(n, db))


@KERNEL
@given(form_pairs())
def test_product_kernel_matches_the_reference_bit_for_bit(pair):
    a, b = pair
    assert bits(a * b) == bits(reference_mul(a, b))


@KERNEL
@given(form_pairs(contraction=True))
def test_contraction_kernel_matches_the_reference_bit_for_bit(pair):
    t, f = pair
    assert bits(contract(t, f)) == bits(reference_contract(t, f))


def test_kernels_on_degree_zero_and_negative_zero_forms():
    one = Form(3, 0, (Fraction(1),))
    neg_zero = Form(3, 1, (complex(-0.0, -0.0), 1 + 0j, complex(2.0, -0.0)))
    for a, b in ((one, neg_zero), (neg_zero, one), (neg_zero, neg_zero),
                 (Form(3, 0, (complex(-0.0, 0.0),)), neg_zero)):
        assert bits(a * b) == bits(reference_mul(a, b))
    for t, f in ((one, neg_zero), (neg_zero, neg_zero), (Form(3, 0, (-0.0j,)), neg_zero)):
        assert bits(contract(t, f)) == bits(reference_contract(t, f))


SPAN = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), FLOAT)


# The references below are the coefficient-wise expressions that the
# integer-numerator kernels replaced, each normalized by the `Form`
# constructor.  The kernels must agree with them bit for bit.

def reference_add(a, b):
    return Form(a.num_vars, a.degree, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def reference_sub(a, b):
    return Form(a.num_vars, a.degree, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def reference_neg(a):
    return Form(a.num_vars, a.degree, tuple(-x for x in a.coeffs))


def reference_scale(a, scalar):
    return Form(a.num_vars, a.degree, tuple(c * scalar for c in a.coeffs))


def reference_power_of_linear(point, degree, coeff=1):
    coeffs = []
    for expo in exponents(len(point), degree):
        term = coeff * multinomial(expo)
        for p, e in zip(point, expo):
            if e:
                term = term * (p ** e)
        coeffs.append(term)
    return Form(len(point), degree, tuple(coeffs))


@st.composite
def same_space_pairs(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return draw(forms(n, d)), draw(forms(n, d))


SIGNED_ZEROS = st.sampled_from([0, Fraction(0), 0.0, -0.0, 0j, complex(-0.0, -0.0),
                                complex(0.0, -0.0), np.complex128(complex(-0.0, 0.0))])
SCALARS = st.one_of(
    SIGNED_ZEROS,
    st.integers(-9, 9),
    EXACT,
    st.integers(-10**30, 10**30),
    st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**20),
    st.builds(float, PART),
    FLOAT,
    st.builds(np.complex128, FLOAT),
)


@KERNEL
@given(same_space_pairs())
def test_sums_and_negation_match_the_reference_bit_for_bit(pair):
    a, b = pair
    assert bits(a + b) == bits(reference_add(a, b))
    assert bits(a - b) == bits(reference_sub(a, b))
    assert bits(-a) == bits(reference_neg(a))


@KERNEL
@given(st.integers(1, 3).flatmap(lambda n: forms(n, 2)), SCALARS)
@example(Form(2, 2, (complex(-0.0, 1.5), complex(2.0, -0.0), -0.0j)), Fraction(-7, 3))
@example(Form(2, 2, (complex(-0.0, -0.0), complex(1e-300, -1e300), 1j)), 10**30)
def test_scale_matches_the_reference_bit_for_bit(form, scalar):
    # a float form converts an int or Fraction scalar once; the bits are those
    # of Fraction.__rmul__, which converted it once per coefficient
    assert bits(form.scale(scalar)) == bits(reference_scale(form, scalar))


@KERNEL
@given(st.integers(1, 3).flatmap(lambda n: st.lists(SPAN, min_size=n, max_size=n)),
       st.integers(0, 6), st.one_of(st.just(1), st.integers(-9, 9), EXACT, FLOAT))
@example([Fraction(1, 3), Fraction(-2, 9), Fraction(5, 4)], 5, Fraction(7, 6))
@example([Fraction(1), 0.5 - 0.25j, Fraction(0)], 0, 1)
@example([complex(-0.0, 1.0), Fraction(2, 3)], 3, -0.0 + 0j)
@example([complex(-0.0, 1.0), 0.5 - 0.25j, 1e-200 + 0j], 4, complex(2.5, -0.0))
def test_power_of_linear_matches_the_reference_bit_for_bit(point, degree, coeff):
    got = power_of_linear(point, degree, coeff)
    assert bits(got) == bits(reference_power_of_linear(point, degree, coeff))


def reference_substitute(f, images):
    """The `Form`-product substitution the list kernel replaced: each term
    is c * 1 * P_0^k_0 * ..., the powers 1 * g * ... * g, summed onto zero."""
    m, e = images[0].num_vars, images[0].degree
    exact = f.is_exact and all(g.is_exact for g in images)
    one = Form(m, 0, (Fraction(1),))
    powers = [[one] for _ in images]
    result = Form.zero(m, f.degree * e, exact=exact)
    for expo, c in f.items():
        term = Form(m, 0, (c,))
        for i, k in enumerate(expo):
            while len(powers[i]) <= k:
                powers[i].append(powers[i][-1] * images[i])
            term = term * powers[i][k]
        result = result + term
    return result


@st.composite
def substitutions(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d, e = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    images = [draw(forms(m, e)) for _ in range(n)]
    return draw(forms(n, d)), images


@KERNEL
@given(substitutions())
@example((Form(3, 0, (Fraction(5, 3),)), [Form(2, 1, (1 + 0j, complex(-0.0, 2.0)))] * 3))
@example((Form(2, 2, (complex(-0.0, -0.0), 1.5 + 0j, complex(2.0, -0.0))),
          [Form(2, 1, (Fraction(1, 3), Fraction(0))), Form(2, 1, (complex(-0.0, 1.0), 0j))]))
@example((Form(2, 1, (Fraction(2, 7), Fraction(-1))),
          [Form(2, 2, (Fraction(1), Fraction(0), Fraction(-3, 4))),
           Form(2, 2, (complex(0.0, -0.0), 1e-200 + 0j, complex(-1.0, -0.0)))]))
@example((Form(3, 2, tuple(Fraction(k, 5) for k in range(6))),
          [Form(2, 0, (Fraction(0),)), Form(2, 0, (complex(-0.0, 0.0),)),
           Form(2, 0, (Fraction(3),))]))
@example((Form(2, 1, (1e300 + 0j, 0j)),  # an overflowed term times the exact 1 has a NaN
          [Form(2, 1, (1e300 + 0j, 0j)), Form(2, 1, (Fraction(1), Fraction(1)))]))
def test_substitute_matches_the_form_products_bit_for_bit(case):
    # exact, float and mixed images of degree 0, 1 and 2, signed zeros
    # included: the same backend and the same coefficient reprs
    f, images = case
    assert bits(substitute(f, images)) == bits(reference_substitute(f, images))


def test_power_of_linear_takes_complex_terms_as_they_are(monkeypatch):
    # a complex point and coefficient give complex terms, kept without the
    # normalizing scan; a numpy scalar or a float still goes through it
    cases = [((complex(-0.0, 1.0), 0.5 - 0.25j, 1e-200 + 0j), complex(2.5, -0.0)),
             ((np.complex128(1 - 2j), 0.5 + 0j), 3j),
             ((1.5 + 0j, 0.5 + 0j), 2.0)]
    expected = [bits(reference_power_of_linear(point, 5, coeff)) for point, coeff in cases]
    scans = []
    monkeypatch.setattr("waring.forms._normalize_coeffs",
                        lambda values: scans.append(1) or _normalize_coeffs(values))
    got = [bits(power_of_linear(point, 5, coeff)) for point, coeff in cases]
    assert len(scans) == 2
    monkeypatch.undo()
    assert got == expected


def counting(monkeypatch, *names):
    """Count the calls of the named Fraction methods."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(Fraction, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(Fraction, name, wrapper)
    return calls


def test_exact_kernels_add_integer_numerators(monkeypatch):
    a = Form(3, 2, tuple(Fraction(i - 2, i + 2) for i in range(6)))
    b = Form(3, 3, tuple(Fraction(3 - i, 2 * i + 3) for i in range(10)))
    product_ref, contraction_ref = reference_mul(a, b), reference_contract(a, b)
    calls = counting(monkeypatch, "__mul__", "__rmul__", "__add__", "__radd__")
    product, contraction = a * b, contract(a, b)
    assert calls == dict.fromkeys(calls, 0)
    monkeypatch.undo()
    assert bits(product) == bits(product_ref)
    assert bits(contraction) == bits(contraction_ref)


def test_mixed_kernels_convert_each_exact_coefficient_once(monkeypatch):
    # an exact form keeps one complex view, numerator / denominator by int
    # division: no Fraction is converted, and later kernels reuse the view
    exact = Form(3, 2, tuple(Fraction(i - 2, i + 2) for i in range(6)))
    floats = Form(3, 3, tuple(complex(i, 1 - i) for i in range(10)))
    expected = [bits(reference_mul(exact, floats)), bits(reference_mul(floats, exact)),
                bits(reference_contract(exact, floats))]
    calls = counting(monkeypatch, "__complex__", "__float__")
    views = []
    build = Form.__getattr__
    monkeypatch.setattr(Form, "__getattr__",
                        lambda form, name: views.append(name) or build(form, name))
    got = [bits(exact * floats)]
    assert views.count("_cplx") == 1
    got += [bits(floats * exact), bits(contract(exact, floats))]
    assert views.count("_cplx") == 1
    assert calls == dict.fromkeys(calls, 0)
    monkeypatch.undo()
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.fractions(), st.integers(-2 ** 80, 2 ** 80), FLOAT,
                          st.builds(Fraction, st.integers(-2 ** 1100, 2 ** 1100),
                                    st.integers(1, 2 ** 1100))), max_size=4))
def test_complex_coords_have_the_bits_of_complex(values):
    try:
        expected = [repr(complex(v)) for v in values]
    except OverflowError:
        with pytest.raises(OverflowError):
            complex_coords(values)
        return
    assert [repr(c) for c in complex_coords(values)] == expected


def concurrent_triple_brute_force(system):
    """Some three lines meet: each triple on its own, the determinant of its duals."""
    for a, b, c in itertools.combinations(system.lines, 3):
        u = cross(a.coeffs, b.coeffs)
        if a.is_exact and b.is_exact and c.is_exact:
            if sum(x * y for x, y in zip(c.coeffs, u)) == 0:
                return True
            continue
        val = sum(complex(x) * complex(y) for x, y in zip(c.coeffs, u))
        scale = max(abs(complex(x)) for x in u) * max(1.0, c.max_abs())
        if abs(val) <= ternary.CONCURRENCY_TOL * scale:
            return True
    return False


def sampled_line_systems(count):
    """Line systems of 3 to 6 lines, some mixed exact/float, some with a line
    through the meeting point of two others (exactly, or off it by 1e-12)."""
    rng = random.Random(5)
    while count:
        lines = [Form(3, 1, tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)))
                 for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.5:  # a third line through the point of the first two
            a, b = rng.sample(range(len(lines)), 2)
            lines[-1] = lines[a].scale(rng.randint(1, 3)) + lines[b].scale(rng.randint(-3, -1))
        if rng.random() < 0.5:
            lines[-1] = lines[-1].to_float()
            if rng.random() < 0.5:
                lines[-1] = lines[-1] + Form(3, 1, (1e-12j, 0j, 0j))
        try:
            yield ternary.LineSystem(tuple(lines))
        except (PreconditionError, ZeroFormError):
            continue
        count -= 1


def test_in_general_position_is_the_brute_force_triple_check():
    seen = set()
    for system in sampled_line_systems(300):
        concurrent = concurrent_triple_brute_force(system)
        assert system.in_general_position() is not concurrent
        seen.add((system.is_exact, concurrent))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("degree, seed", [(5, 0), (7, 1), (9, 0)])
def test_split_on_lines_converts_no_fraction_on_a_mixed_system(monkeypatch, degree, seed):
    # the float solves read the complex views exact forms keep: the
    # embedding columns, f, the exact spans and the exact intersection
    # points; pushing float piece points onto the spans converts each
    # exact span once, with the bits of the term-by-term products
    f = random_form(3, degree, seed)
    system = ternary.minimize_annihilating(f, ternary.annihilating_lines(f, seed=seed))
    assert any(ell.is_exact for ell in system.lines)
    assert not system.is_exact
    piece = Decomposition(2, degree, tuple(
        term_from_vector(complex(1.5, -k), (complex(k, 0.25), complex(-0.0, 1 / (k + 3))), degree)
        for k in range(3)))
    calls = counting(monkeypatch, "__complex__")
    split = ternary.split_on_lines(f, system)
    pushed = [push_decomposition(piece, span) for span in split.spans]
    assert calls == {"__complex__": 0}
    monkeypatch.undo()
    assert len(split.seesaws) == math.comb(len(system.lines), 2)
    for (u, v), got in zip(split.spans, pushed):
        expected = [term_from_vector(t.coeff, [a * x + b * y for x, y in zip(u, v)], degree)
                    for t in piece.terms for a, b in [t.point.coords]]
        assert [repr((t.coeff, t.point.coords)) for t in got.terms] == [
            repr((t.coeff, t.point.coords)) for t in expected]


# -- numerator storage ---------------------------------------------------------
#
# A kernel result holds integer numerators over one denominator; its
# Fraction `coeffs` and its complex view are built on first read.  Drawn
# numerators and denominators reach 2^80; a drawn shift of 2^1100 puts
# values beyond the float range, where the view raises as complex(Fraction)
# does.

BIG = 2 ** 80


@st.composite
def stored_forms(draw, num_vars, degree):
    """(numerators, denominator) of an exact form, not reduced."""
    n = space_dim(num_vars, degree)
    shift = draw(st.sampled_from([1, 1, 1, 2 ** 1100]))
    nums = draw(st.lists(st.integers(-BIG, BIG).map(lambda v: v * shift),
                         min_size=n, max_size=n))
    return nums, draw(st.integers(1, BIG))


def outcome(kernel, *args):
    """The bits of a kernel's result, or the type of what it raised."""
    try:
        return bits(kernel(*args))
    except OverflowError as err:
        return type(err)


@st.composite
def stored_cases(draw):
    """Stored forms a, b of degree d and c of degree e <= d, and a float form."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    e = draw(st.integers(0, d))
    stored = [draw(stored_forms(n, deg)) for deg in (d, d, e)]
    return n, (d, d, e), stored, draw(forms(n, d, exact=False))


@settings(max_examples=100, deadline=None)
@given(stored_cases(), st.one_of(st.integers(-BIG, BIG), st.fractions(max_denominator=BIG),
                                 FLOAT))
def test_numerator_storage_matches_canonical_fractions(case, scalar):
    n, degrees, stored, floats = case
    eager = [Form(n, deg, tuple(Fraction(v, den) for v in nums))
             for deg, (nums, den) in zip(degrees, stored)]

    def lazy():
        return [Form._exact_over(n, deg, list(nums), den)
                for deg, (nums, den) in zip(degrees, stored)]

    # == and hash build the coeffs, which are then those of the eager forms
    for form, ref in zip(lazy(), eager):
        assert form == ref and hash(form) == hash(ref)
        assert [repr(x) for x in form.coeffs] == [repr(x) for x in ref.coeffs]
        assert all(type(x) is Fraction for x in form.coeffs)
    # the complex view has the bits of complex(Fraction), or raises as it does
    views = [outcome(Form.to_float, form) for form in lazy()]
    assert views == [outcome(lambda f: Form(n, f.degree, tuple(map(complex, f.coeffs))), ref)
                     for ref in eager]
    (a, b, c), (ea, eb, ec) = lazy(), eager
    assert bits(a + b) == bits(reference_add(ea, eb))
    assert bits(a - b) == bits(reference_sub(ea, eb))
    assert bits(-a) == bits(reference_neg(ea))
    assert bits(a * c) == bits(reference_mul(ea, ec))
    assert bits(contract(c, a)) == bits(reference_contract(ec, ea))
    assert outcome(a.scale, scalar) == outcome(reference_scale, ea, scalar)
    point, coeff = (ea.coeffs + ec.coeffs)[:3], eb.coeffs[0]
    assert bits(power_of_linear(point, 3, coeff)) == bits(
        reference_power_of_linear(point, 3, coeff))
    # kernel results keep numerators and denominator with gcd 1
    for got in (a + b, a * c, contract(c, a), a.scale(Fraction(6, BIG))):
        assert got._den > 0 and math.gcd(got._den, *got._num) == 1
    # mixed kernels read the view; beyond the float range the references,
    # which convert only the terms they multiply, need not raise
    if OverflowError in views:
        return
    assert bits(a + floats) == bits(reference_add(ea, floats))
    assert bits(c * floats) == bits(reference_mul(ec, floats))
    assert bits(contract(c, floats)) == bits(reference_contract(ec, floats))


# `line_embedding` builds no `Form`: the powers of an exact line's vectors
# are integer numerators, gathered in float64 below 2^53 and as Python ints
# above it, and a float line runs the loop plan on the complex views of
# both vectors, with the complex product written out.  The vectors below
# reach every path: floats with signed zeros and magnitudes from 1e-200 to
# 1e6, dyadic numerators near 2^20 (past the float64 bound from d = 3 on),
# small non-dyadic fractions, and mixed coordinates; a span takes any two
# of them.
DYADIC = st.builds(lambda k, e: Fraction(k, 2 ** e),
                   st.one_of(st.integers(-8, 8), st.integers(-2 ** 21, 2 ** 21)),
                   st.integers(0, 22))
EMBEDDED = {"float": FLOAT, "dyadic": DYADIC,
            "fraction": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), "mixed": SPAN}


@st.composite
def embedded_spans(draw, n):
    def vector():
        return draw(st.lists(EMBEDDED[draw(st.sampled_from(sorted(EMBEDDED)))],
                             min_size=n, max_size=n))
    return vector(), vector()


@KERNEL
@given(st.integers(1, 3).flatmap(lambda n: st.lists(embedded_spans(n), min_size=1, max_size=2)),
       st.integers(0, 7))
def test_line_embedding_is_the_reference_images_of_the_unit_monomials(spans, d):
    assert_reference_columns(spans, d)


def test_line_embedding_keeps_non_dyadic_numerators_past_2_53():
    # numerators near 10^12 over 7, 11 and 13 send every exact line of the
    # call to the Python-int path, and their columns become floats by int
    # division, with no power of two to spare; a float line reads them
    # through their complex views
    big = (Fraction(10 ** 12 + 1, 7), Fraction(-3 ** 20, 11), Fraction(5, 13))
    small = (Fraction(1, 3), Fraction(2), Fraction(-1, 5))
    float_vector = (0.25 - 1j, -0.0 + 0j, 1e-200 + 0j)
    for d in (3, 5, 7):
        assert_reference_columns([(big, small), (small, big)], d)
        assert_reference_columns([(big, small), (small, float_vector), (float_vector, big)], d)


def test_embed_binary_skips_zero_factors_past_the_float_range():
    # 1e160^2 overflows to inf; a zero factor times it adds nothing, as the
    # `Form` products skip it, where inf * 0 would put NaN into other cells
    huge = (1e160, 0.0, -0.0)
    spans = [(huge, (0.0, 1.0, 0.0)), ((Fraction(1, 3), Fraction(0), Fraction(2)), (1e160j, 0.0, 1.0)),
             ((1e200, 1e-200, 0.0), huge)]
    for d in (2, 3, 5):
        units = [tuple(Fraction(int(i == j)) for i in range(d + 1)) for j in range(d + 1)]
        for g in [Form(2, d, unit) for unit in units] + [Form(2, d, (1.0,) * (d + 1))]:
            for u, v in spans:
                images = [Form(3, 1, tuple(u)), Form(3, 1, tuple(v))]
                assert bits(embed_binary(g, u, v)) == bits(reference_substitute(g, images))


def test_embedding_table_is_the_product_loops_column_by_column():
    for n in (1, 2, 3):
        for d in range(7):
            starts = list(itertools.accumulate((space_dim(n, m) for m in range(d + 1)), initial=0))
            want = [(j * space_dim(n, d) + index_of(tuple(x + y for x, y in zip(a, b))),
                     starts[d - j] + index_of(a), starts[j] + index_of(b))
                    for j in range(d + 1) for a in exponents(n, d - j) for b in exponents(n, j)]
            cells, lefts, rights, step = embedding_table(n, d)
            assert list(zip(cells.tolist(), lefts.tolist(), rights.tolist())) == want
            # the power step W^d = W^(d-1) * W, indexed into W^(d-1) and W
            assert list(zip(*(a.tolist() for a in step))) == [
                (c - space_dim(n, d), left, right - 1) for c, left, right in want
                if space_dim(n, d) <= c < 2 * space_dim(n, d)]
            assert embedding_table(n, d) is embedding_table(n, d)
            assert not any(a.flags.writeable for a in (cells, lefts, rights, *step))


def assert_reference_columns(spans, d):
    """Every column of `line_embedding`, floats and exact values, has the
    bits of `reference_embed`'s image of its unit monomial: on the complex
    views of both vectors of a line with a float vector, and exact values
    come back only when every line is exact."""
    n = len(spans[0][0])
    exact, floats = line_embedding(spans, d)
    floats = floats()
    assert floats.shape == (space_dim(n, d), len(spans) * (d + 1))
    exact_lines = [all(map(is_exact_scalar, (*u, *v))) for u, v in spans]
    assert (exact is not None) == all(exact_lines)
    assert exact is None or len(exact) == len(spans) * (d + 1)
    for c, (u, v) in enumerate(span for span in spans for _ in range(d + 1)):
        j = c % (d + 1)
        if not exact_lines[c // (d + 1)]:
            u, v = complex_coords(u), complex_coords(v)
        want = reference_embed(Form(2, d, tuple(Fraction(int(i == j)) for i in range(d + 1))), u, v)
        got = floats[:, c].tolist()
        assert [repr(z) for z in got] == [repr(z) for z in want.floats()]
        if exact is not None:
            got = [Fraction(x, exact[c][1]) for x in exact[c][0]]
            assert bits(Form(n, d, got)) == bits(want)


@KERNEL
@given(st.lists(SPAN, min_size=6, max_size=6), st.integers(0, 6).flatmap(lambda d: forms(2, d)))
@example([Fraction(1, 3), Fraction(2, 7), Fraction(-5, 9), Fraction(4, 9), Fraction(1), Fraction(1, 7)],
         Form(2, 3, (0.3 + 0.1j, 1j, 0.7, 0.2)))
def test_embed_binary_matches_the_reference_bit_for_bit(vectors, g):
    # embed_binary is the substitution of the linear forms of u and v
    u, v = vectors[:3], vectors[3:]
    images = [Form(3, 1, tuple(u)), Form(3, 1, tuple(v))]
    assert bits(embed_binary(g, u, v)) == bits(reference_substitute(g, images))


def low_rank_form(num_vars, degree, rng):
    """A sum of a few random powers, so that the catalecticant ranks vary."""
    f = Form.zero(num_vars, degree)
    for _ in range(rng.randint(1, 4)):
        point = [rng.randint(-3, 3) for _ in range(num_vars)]
        f = f + power_of_linear(point, degree, coeff=rng.randint(-4, 4))
    return f


def test_rank_only_catalecticants_match_the_full_catalecticant():
    rng = random.Random(5)
    for num_vars in (2, 3):
        for degree in range(2, 8 if num_vars == 2 else 6):
            for build in (lambda: random_form(num_vars, degree, rng.randint(0, 10**6)),
                          lambda: low_rank_form(num_vars, degree, rng)):
                f = build()
                if f.is_zero():
                    continue
                ranks = [(delta, catalecticant(f, delta).rank) for delta in range(1, degree)]
                assert cat_rank_table(f) == ranks
                assert rank_lower_bound(f) == max(r for _, r in ranks)
                assert essential_variables(f) == catalecticant(f, 1).rank


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(SPAN, min_size=3, max_size=3), min_size=0, max_size=6),
       st.sampled_from([1e-6, 1e-1, 0.5]))
def test_distinct_points_is_pairwise_chordal_distance(rows, tol):
    # raw float coordinates whose squares underflow have no norm
    points = [row for row in rows if max(abs(complex(c)) for c in row) > 1e-100]
    points += points[:1]  # a repeat, so both answers occur
    expected = all(chordal_distance(p, q) > tol
                   for i, p in enumerate(points) for q in points[i + 1:])
    assert distinct_points(points, tol) == expected
    assert distinct_points([ProjectivePoint(tuple(p)) for p in points], tol) == expected


UNIT = st.floats(min_value=-1, max_value=1, allow_nan=False)
VECTOR = st.lists(st.builds(complex, UNIT, UNIT), min_size=3, max_size=3).filter(
    lambda v: max(map(abs, v)) > 1e-3)


def at_chordal_distance(p, r, dist):
    """A point at chordal distance `dist` from p, towards the part of r orthogonal to p."""
    pp = sum(abs(x) ** 2 for x in p)
    w = [y - sum(x.conjugate() * z for x, z in zip(p, r)) / pp * x for x, y in zip(p, r)]
    ww = sum(abs(x) ** 2 for x in w)
    assume(ww > 1e-6 * pp)
    t = dist / math.sqrt(1 - dist * dist) * math.sqrt(pp / ww)
    return [x + t * y for x, y in zip(p, w)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(VECTOR, VECTOR), min_size=1, max_size=4),
       st.sampled_from([1e-8, 1e-6, 1e-3, 0.5]),
       st.lists(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9]), min_size=1, max_size=4),
       st.lists(st.sampled_from([-1074 + 60, -300, -201, 0, 201, 300, 900]),
                min_size=1, max_size=8))
def test_distinct_points_is_pairwise_chordal_at_the_tolerance(pairs, tol, factors, shifts):
    # pairs at chordal distance tol * (1 +- 1e-9), and vectors scaled by 2^s
    # outside the 2^(+-200) range that chordal_distance rescales
    points = []
    for (p, r), factor in zip(pairs, itertools.cycle(factors)):
        points += [p, at_chordal_distance(p, r, tol * factor)]
    points = [[complex(math.ldexp(x.real, s), math.ldexp(x.imag, s)) for x in v]
              for v, s in zip(points, itertools.cycle(shifts))]
    expected = all(chordal_distance(p, q) > tol
                   for i, p in enumerate(points) for q in points[i + 1:])
    assert distinct_points(points, tol) == expected


# -- points read once: every kept view and shortcut has the bits of the
# -- normalization and conversion it stands in for -------------------------


def point_bits(values):
    return [(type(c), repr(c)) for c in values]


POINT_PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, 1e-300]),
                       st.floats(min_value=-1e6, max_value=1e6))
POINT_COORD = st.one_of(st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]),
                        st.builds(complex, POINT_PART, POINT_PART))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.one_of(
    st.lists(st.fractions(max_denominator=50), min_size=n, max_size=n),
    st.lists(POINT_COORD, min_size=n, max_size=n))))
@example([complex(-0.0, 0.0), complex(math.nan, 0.0)])
@example([complex(0.5, -0.0), complex(-0.5, 0.0), complex(0.0, -0.0)])
def test_a_point_on_a_chosen_pivot_is_the_normalized_point_bit_for_bit(vec):
    assume(any(c != 0 for c in vec))
    exact = all(isinstance(c, Fraction) for c in vec)

    def outcome(build):  # the coordinates' bits, or the error, as a NaN pivot divides by 0
        try:
            return point_bits(build().coords)
        except ZeroDivisionError:
            return ZeroDivisionError

    want = outcome(lambda: ProjectivePoint(tuple(vec)))
    assert outcome(lambda: normalized_point(vec, exact)[0]) == want
    assert outcome(lambda: term_from_vector(Fraction(3) if exact else 3 + 0j, vec, 4).point) == want
    if want is not ZeroDivisionError:  # the pivot is the first coordinate set to 1
        point, pivot = normalized_point(vec, exact)
        assert point.coords[next(i for i, c in enumerate(vec) if c is pivot)] == 1


# exact coordinates reach far outside the norm range that distances rescale
FAR_COORD = st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
                      st.integers(-999, 999), st.integers(-400, 400))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.one_of(
    st.lists(FAR_COORD, min_size=n, max_size=n),
    st.lists(POINT_COORD, min_size=n, max_size=n))))
@example([Fraction(1), Fraction(2) ** 300])
@example([Fraction(1), Fraction(0), Fraction(3, 2 ** 400)])
def test_a_kept_view_is_the_view_of_the_raw_coordinates_bit_for_bit(vec):
    assume(any(c != 0 for c in vec))
    try:
        p = ProjectivePoint(tuple(vec))
    except ZeroDivisionError:  # a NaN ahead of the pivot
        reject()
    want = _floats_with_norm(p.coords)
    for _ in range(2):  # built on the first read, then kept
        assert point_bits(p.as_floats()) == point_bits(complex_coords(p.coords))
        floats, norm = _floats_with_norm(p)
        assert point_bits(floats) == point_bits(want[0])
        assert point_bits([norm]) == point_bits([want[1]])
    assert p.as_floats() is p.as_floats() and _floats_with_norm(p) is _floats_with_norm(p)


def test_a_kept_pair_outside_the_norm_range_is_rescaled():
    # |(1, 2^300)| is past the 2^200 that distances rescale beyond
    p = ProjectivePoint((Fraction(1), Fraction(2) ** 300))
    assert _floats_with_norm(p) == ((2.0 ** -301 + 0j, 0.5 + 0j), math.hypot(2.0 ** -301, 0.5))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(VECTOR, VECTOR), min_size=1, max_size=2),
       st.lists(VECTOR, max_size=1),
       st.sampled_from([1e-8, 1e-6, 1e-3]),
       st.lists(st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9]), min_size=1, max_size=2))
def test_distinct_points_of_a_few_points_is_pairwise_chordal_at_the_tolerance(
        pairs, extra, tol, factors):
    # two to five points, pairs at chordal distance tol * (1 +- 1e-9): the
    # scalar pass, on raw coordinates and on points that keep their views
    points = []
    for (p, r), factor in zip(pairs, itertools.cycle(factors)):
        points += [p, at_chordal_distance(p, r, tol * factor)]
    points += extra
    expected = all(chordal_distance(p, q) > tol
                   for i, p in enumerate(points) for q in points[i + 1:])
    assert distinct_points(points, tol) == expected
    kept = [ProjectivePoint(tuple(p)) for p in points]
    want = all(chordal_distance(p.coords, q.coords) > tol
               for i, p in enumerate(kept) for q in kept[i + 1:])
    assert distinct_points(kept, tol) == distinct_points(kept, tol) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(POINT_COORD.filter(lambda z: all(map(math.isfinite, (z.real, z.imag)))),
                min_size=2, max_size=3).filter(any),
       st.integers(0, 5))
def test_a_power_of_a_complex_point_is_the_normalized_expansion_bit_for_bit(point, degree):
    n = len(point)
    coeffs = []
    for expo, multi in zip(exponents(n, degree), multinomials(n, degree)):
        term = 1 * multi
        for p, e in zip(point, expo):
            if e:
                term = term * p ** e
        coeffs.append(term)
    assert bits(power_of_linear(point, degree)) == bits(Form(n, degree, tuple(coeffs)))
