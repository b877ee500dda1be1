"""The exact univariate layer of `roots` checked against sympy.

Polynomials are built from factors whose roots are known by
construction: rational roots with numerators and denominators far beyond
trial division, repeated roots, roots at zero, and integer factors that
are usually irreducible.  sympy factors the product over Q and is the
oracle for which roots are rational, which forms are squarefree and
what the monic gcd is.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from waring import roots  # noqa: E402
from waring.roots import is_squarefree_binary, poly_gcd, rational_roots  # noqa: E402

T = sympy.Symbol("t")
X0, X1 = sympy.symbols("x0 x1")

BIG = 10**15
PROPERTY = settings(max_examples=60, deadline=None)


def multiply(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product(factors):
    out = [Fraction(1)]
    for f in factors:
        out = multiply(out, f)
    return out


def to_sympy(coeffs, var=T):
    return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                     for c in coeffs])), var, domain="QQ")


def oracle_rational_roots(coeffs):
    """Distinct rational roots, from the linear factors of sympy's factorization."""
    _, factors = to_sympy(coeffs).factor_list()
    roots = set()
    for factor, _ in factors:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots.add(Fraction(int(-b.p * a.q), int(b.q * a.p)))
    return roots


def divisor_order(roots):
    """0 first, then by (|numerator|, denominator, sign), positive first."""
    rest = sorted((r for r in roots if r != 0),
                  key=lambda q: (abs(q.numerator), q.denominator, q.numerator < 0))
    return ([Fraction(0)] if 0 in roots else []) + rest


rationals = st.builds(
    Fraction,
    st.integers(-BIG, BIG),
    st.integers(1, BIG),
)
small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# a root r as the linear factor (t - r), scaled to integers by its denominator
linear_factors = rationals.map(lambda r: [Fraction(-r.numerator), Fraction(r.denominator)])
# integer quadratics and cubics with a nonzero constant: mostly irreducible
other_factors = st.lists(st.integers(-50, 50), min_size=3, max_size=4).filter(
    lambda c: c[0] != 0 and c[-1] != 0).map(lambda c: [Fraction(x) for x in c])


@st.composite
def polynomials(draw):
    factors = []
    for lin in draw(st.lists(linear_factors, max_size=4)):
        factors.extend([lin] * draw(st.integers(1, 3)))
    factors.extend(draw(st.lists(other_factors, max_size=2)))
    factors.extend([[Fraction(0), Fraction(1)]] * draw(st.integers(0, 2)))
    scale = draw(rationals.filter(bool))
    return [scale * c for c in product(factors)]


@PROPERTY
@given(polynomials())
def test_rational_roots_match_sympy_in_divisor_order(coeffs):
    found = rational_roots(coeffs)
    assert found == divisor_order(oracle_rational_roots(coeffs))


def test_rational_roots_finds_denominators_beyond_trial_division():
    roots = [Fraction(7, 10**13 + 37), Fraction(-(10**14) - 3, 10**13 + 37),
             Fraction(5, 3)]
    coeffs = product([[Fraction(-r.numerator), Fraction(r.denominator)] for r in roots]
                     + [[Fraction(2), Fraction(0), Fraction(1)]])
    assert rational_roots(coeffs) == divisor_order(set(roots))


@st.composite
def binary_forms(draw):
    """Coefficients indexed by the exponent of x1, with the form's degree."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(small_rationals), draw(small_rationals)
        if a == 0 and b == 0:
            continue
        factors.extend([[a, b]] * draw(st.integers(1, 3)))
    if draw(st.booleans()):
        factors.append([Fraction(c) for c in draw(st.lists(
            st.integers(-20, 20), min_size=3, max_size=5))])
    coeffs = product(factors) if factors else [Fraction(draw(st.integers(-3, 3)))]
    return coeffs, len(coeffs) - 1


def oracle_squarefree(coeffs, degree):
    form = sum(sympy.Rational(c.numerator, c.denominator) * X0 ** (degree - i) * X1 ** i
               for i, c in enumerate(coeffs))
    if form == 0:
        return False
    _, factors = sympy.sqf_list(sympy.expand(form), X0, X1)
    return all(mult == 1 for _, mult in factors)


@PROPERTY
@given(binary_forms())
def test_is_squarefree_binary_matches_sympy(form):
    coeffs, degree = form
    assert is_squarefree_binary(coeffs, degree) == oracle_squarefree(coeffs, degree)


def test_is_squarefree_binary_degree_drop_rule():
    # x0 divides the form once: a simple root at (0 : 1) is fine ...
    assert is_squarefree_binary([Fraction(1), Fraction(1), Fraction(0)], 2)
    assert oracle_squarefree([Fraction(1), Fraction(1), Fraction(0)], 2)
    # ... twice is a double root there, whatever the finite part does
    assert not is_squarefree_binary([Fraction(1), Fraction(0), Fraction(0)], 2)
    assert not oracle_squarefree([Fraction(1), Fraction(0), Fraction(0)], 2)


@st.composite
def gcd_pairs(draw):
    def poly(max_degree):
        return [Fraction(c) for c in draw(st.lists(
            st.integers(-30, 30), min_size=1, max_size=max_degree + 1))]

    common = product([poly(3)] + [[-r, Fraction(1)] for r in draw(
        st.lists(small_rationals, max_size=2))])
    scale = draw(rationals.filter(bool))
    return ([scale * c for c in multiply(common, poly(4))],
            multiply(common, poly(4)))


def monic_coeffs(p):
    coeffs = p.monic().all_coeffs() if not p.is_zero else []
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


@PROPERTY
@given(gcd_pairs())
def test_poly_gcd_is_sympys_monic_gcd(pair):
    a, b = pair
    expected = monic_coeffs(to_sympy(a).gcd(to_sympy(b)))
    assert poly_gcd(a, b) == expected


# -- the no-root sieve ---------------------------------------------------------
#
# `rational_roots` first asks whether u has a root modulo each sieve prime
# that does not divide lead(u).  A lead divisible by every sieve prime
# leaves the sieve nothing to decide, rational roots with such denominators
# survive it, and a product with a root modulo every prime but no rational
# root passes it: all must reach the Hensel path with sympy's answer.

SIEVE_LEAD = math.prod(roots._SIEVE_PRIMES)


def sieve_passes(coeffs, monkeypatch):
    """rational_roots(coeffs), and whether the sieve let it through to the Hensel path."""
    calls = []
    real = roots._squarefree_part
    monkeypatch.setattr(roots, "_squarefree_part", lambda u: calls.append(u) or real(u))
    found = rational_roots(coeffs)
    monkeypatch.undo()
    return found, bool(calls)


sieve_denominators = st.lists(st.sampled_from(roots._SIEVE_PRIMES), min_size=1,
                              max_size=4).map(math.prod)


@st.composite
def sieve_lead_polynomials(draw):
    """Products with lead divisible by every sieve prime: SIEVE_LEAD t^2 + c
    (no rational root for c > 0), rational roots whose denominators are
    products of sieve primes, and the factors of `polynomials`."""
    c = draw(st.integers(1, BIG).filter(lambda c: math.gcd(c, SIEVE_LEAD) == 1))
    factors = [[Fraction(c), Fraction(0), Fraction(SIEVE_LEAD)]]  # primitive
    for _ in range(draw(st.integers(0, 3))):
        root = Fraction(draw(st.integers(-BIG, BIG)), draw(sieve_denominators))
        factors.append([Fraction(-root.numerator), Fraction(root.denominator)])
    factors.extend(draw(st.lists(other_factors, max_size=2)))
    scale = draw(rationals.filter(bool))
    return [scale * c for c in product(factors)]


@PROPERTY
@given(sieve_lead_polynomials())
def test_a_lead_divisible_by_every_sieve_prime_goes_to_the_hensel_path(coeffs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        found, passed = sieve_passes(coeffs, monkeypatch)
    assert found == divisor_order(oracle_rational_roots(coeffs))
    assert passed


def test_roots_with_sieve_prime_denominators_pass_the_sieve(monkeypatch):
    expected = [Fraction(5, 6), Fraction(-7, 2 * 3 * 5 * 7 * 11 * 13), Fraction(1, 23 ** 3)]
    coeffs = product([[Fraction(-r.numerator), Fraction(r.denominator)] for r in expected]
                     + [[Fraction(1), Fraction(0), Fraction(1)]])
    found, passed = sieve_passes(coeffs, monkeypatch)
    assert found == divisor_order(set(expected)) and passed


# (t^2 - a)(t^2 - b)(t^2 - ab): modulo any prime one of a, b, ab is a square
EVERYWHERE_LOCAL = [[(-2, 0, 1), (-3, 0, 1), (-6, 0, 1)],
                    [(1, 0, 1), (-2, 0, 1), (2, 0, 1)],
                    [(-5, 0, 1), (-7, 0, 1), (-35, 0, 1)],
                    [(-2, 0, 3), (-7, 0, 5), (-14, 0, 15)]]


@pytest.mark.parametrize("factors", EVERYWHERE_LOCAL)
@pytest.mark.parametrize("extra", [None, (-5, 3), (7, 2 * 3 * 5 * 7 * 11)])
def test_a_root_modulo_every_prime_falls_through_to_the_hensel_path(factors, extra,
                                                                     monkeypatch):
    polys = [[Fraction(c) for c in f] for f in factors + ([extra] if extra else [])]
    coeffs = product(polys)
    found, passed = sieve_passes(coeffs, monkeypatch)
    assert found == divisor_order(oracle_rational_roots(coeffs)) and passed
    assert found == ([Fraction(-extra[0], extra[1])] if extra else [])


def test_no_root_modulo_a_sieve_prime_decides_without_the_hensel_path(monkeypatch):
    # t^2 + t + 1 has no root mod 2; 2 t^3 + t + 1 none mod 3, after 2 | lead skips 2
    for coeffs in ([1, 1, 1], [1, 1, 0, 2]):
        found, passed = sieve_passes([Fraction(c) for c in coeffs], monkeypatch)
        assert found == [] == sorted(oracle_rational_roots([Fraction(c) for c in coeffs]))
        assert not passed
