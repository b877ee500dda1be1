import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waring import decompose_binary, random_form
from waring import roots as roots_module
from waring.errors import PreconditionError, RootFindingError
from waring.roots import (
    COEFF_TRIM_TOL,
    aberth_roots,
    binary_form_roots,
    cubic_from_samples,
    exact_degree_drop,
    is_squarefree_binary,
    pencil_roots,
    poly_gcd,
    rational_roots,
)


def expand_from_roots(roots):
    """Ascending coefficients of prod (t - r), the oracle direction."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def match_multisets(found, expected, tol=1e-8):
    left = list(found)
    for e in expected:
        best = min(range(len(left)), key=lambda i: abs(left[i] - e))
        assert abs(left[best] - e) < tol, (found, expected)
        left.pop(best)
    assert not left


def test_aberth_recovers_planted_roots():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 8)
        planted = set()
        while len(planted) < n:
            planted.add(complex(rng.randint(-5, 5), rng.randint(-5, 5)))
        coeffs = expand_from_roots(sorted(planted, key=abs))
        match_multisets(aberth_roots(coeffs), planted, tol=1e-7)


def test_aberth_handles_multiplicity():
    # (t - 2)^3 (t + 1)
    coeffs = expand_from_roots([2, 2, 2, -1])
    found = sorted(aberth_roots(coeffs), key=lambda z: z.real)
    assert abs(found[0] - (-1)) < 1e-8
    for z in found[1:]:
        assert abs(z - 2) < 1e-4  # clustered roots lose some digits


def test_aberth_roots_at_origin():
    # t^2 (t - 3)
    found = aberth_roots([0, 0, -3, 1])
    zeros = [z for z in found if abs(z) < 1e-12]
    assert len(zeros) == 2
    match_multisets([z for z in found if abs(z) >= 1e-12], [3])


@st.composite
def root_polynomials(draw):
    """Monic polynomials of degree 3..12: distinct roots on a polar grid with
    moduli 10^-3..10^3, the same with one root doubled, or t^n - c (zero
    interior coefficients).  Both ends stay above the trim tolerance, so
    `aberth_roots` sees the whole polynomial."""
    n = draw(st.integers(3, 12))
    # modulus 10^(e / 2), angle a * pi / 6 (plus a fixed tilt off the axes)
    polar = st.tuples(st.integers(-6, 6), st.integers(0, 11))

    def root(e, a):
        return 10.0 ** (e / 2) * cmath.exp(1j * (a * math.pi / 6 + 0.1))

    kind = draw(st.sampled_from(["spread", "double", "binomial"]))
    if kind == "binomial":
        coeffs = [-root(*draw(polar))] + [0j] * (n - 1) + [1 + 0j]
    else:
        planted = [root(e, a) for e, a in draw(st.lists(polar, min_size=n, max_size=n,
                                                        unique=True))]
        if kind == "double":
            planted[1] = planted[0]
        coeffs = expand_from_roots(planted)
    scale = max(abs(c) for c in coeffs)
    assume(min(abs(coeffs[0]), abs(coeffs[-1])) > 10 * COEFF_TRIM_TOL * scale)
    return coeffs


@settings(max_examples=200, deadline=None)
@given(root_polynomials())
def test_aberth_roots_have_small_backward_error(coeffs):
    found = aberth_roots(coeffs)
    assert len(found) == len(coeffs) - 1
    for z in found:
        value = sum(c * z ** i for i, c in enumerate(coeffs))
        size = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
        assert abs(value) <= 1e-10 * size, (coeffs, z)


# the benchmark's binary-ladder forms at seed 0: degree -> form seeds 0..count-1,
# plus the probes random_form(2, 32, 2) and random_form(2, 40, 1)
BINARY_LADDER = {6: 3, 7: 3, 8: 4, 9: 3, 12: 3, 15: 4, 16: 28,
                 20: 1, 21: 1, 24: 18, 25: 2, 28: 1, 32: 1}


def test_aberth_sweeps_on_the_binary_ladder_generators(monkeypatch):
    # the Newton-polygon start needs about 6.3 sweeps per generator; the
    # circle at 0.7 x the Cauchy bound needed 34.9
    forms = [random_form(2, d, s) for d, count in BINARY_LADDER.items() for s in range(count)]
    forms += [random_form(2, 32, 2), random_form(2, 40, 1)]
    evaluations, sweeps = [0], []
    horner, polish, aberth = roots_module._horner, roots_module._polish, roots_module.aberth_roots

    def counted_horner(coeffs, z):
        evaluations[0] += 1
        return horner(coeffs, z)

    def uncounted_polish(coeffs, z):
        before = evaluations[0]
        z = polish(coeffs, z)
        evaluations[0] = before
        return z

    def counted_aberth(*args, **kwargs):
        evaluations[0] = 0
        found = aberth(*args, **kwargs)
        if evaluations[0]:  # degree three and up: the iteration ran
            sweeps.append(evaluations[0] / len(found))
        return found

    monkeypatch.setattr(roots_module, "_horner", counted_horner)
    monkeypatch.setattr(roots_module, "_polish", uncounted_polish)
    monkeypatch.setattr(roots_module, "aberth_roots", counted_aberth)
    for f in forms:
        decompose_binary(f)
    assert len(sweeps) == len(forms)
    assert sum(sweeps) / len(sweeps) <= 10


def test_binary_form_roots_counts_infinity():
    # x0 * x1^2 * (x0 - x1): coeffs by x1 exponent for d = 4
    # f = x0^3 x1 - x0^2 x1^2... expand: x1^2 * (x0^2 - x0 x1)
    # exponents of x1: 3 gives -1? compute directly: x0*(x0-x1)*x1^2
    #   = (x0^2 - x0 x1) x1^2 = x0^2 x1^2 - x0 x1^3
    coeffs = [0, 0, 1, -1, 0]
    pts = binary_form_roots(coeffs)
    assert len(pts) == 4
    infinite = [p for p in pts if abs(p[0]) < 1e-12]
    assert len(infinite) == 1
    finite = [p[1] / p[0] for p in pts if abs(p[0]) > 1e-12]
    match_multisets(finite, [0, 0, 1])


def test_binary_form_roots_exact_drop_override():
    # tiny but nonzero trailing coefficient: float path would keep it,
    # the exact override forces both roots to infinity
    coeffs = [1.0, 0.0, 1e-30]
    pts = binary_form_roots(coeffs, exact_degree_drop=2)
    assert sum(1 for p in pts if abs(p[0]) < 1e-12) == 2
    # a drop of one leaves the exact zero x0 * x1 coefficient in the lead,
    # and a drop of three leaves no coefficient at all
    for drop in (1, 3):
        with pytest.raises(PreconditionError):
            binary_form_roots(coeffs, exact_degree_drop=drop)


def test_binary_form_roots_resamples_a_lead_that_rounds_to_zero():
    # the exact lead is nonzero, so the drop of zero is right, but its
    # float image is 0.0 and the root iteration loses the root
    with pytest.raises(RootFindingError):
        binary_form_roots([Fraction(1), Fraction(1, 10**400)], exact_degree_drop=0)


def test_binary_form_roots_raises_instead_of_losing_roots():
    # (t - 1000)^3 (t - 100) (t - 1)^5: the lead 1 lies below the trim
    # tolerance times the largest coefficient (about 1.0e12), so the root
    # iteration trims it and returns eight roots where the exact drop of
    # zero keeps degree nine
    coeffs = expand_from_roots([1000] * 3 + [100] + [1] * 5)
    assert len(aberth_roots(coeffs)) == 8
    with pytest.raises(RootFindingError):
        binary_form_roots(coeffs, exact_degree_drop=0)
    # without the override the trimmed lead counts as a root at infinity
    pts = binary_form_roots(coeffs)
    assert len(pts) == 9
    assert sum(1 for p in pts if p[0] == 0) == 1


def test_poly_gcd_known_factor():
    # (t^2 + 1)(t - 2) and (t^2 + 1)(t + 5)
    p = [Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)]
    q = [Fraction(5), Fraction(1), Fraction(5), Fraction(1)]
    g = poly_gcd(p, q)
    assert g == [Fraction(1), Fraction(0), Fraction(1)]


def test_poly_gcd_coprime_is_constant():
    g = poly_gcd([Fraction(1), Fraction(1)], [Fraction(2), Fraction(1)])
    assert len(g) == 1


def test_is_squarefree_binary():
    # x0^3 x1: root at x1=0 has multiplicity 1, at x0=0 multiplicity 3
    assert not is_squarefree_binary([0, 1, 0, 0], 3)
    # x0 x1 (x0 + x1) = x0^2 x1 + x0 x1^2
    assert is_squarefree_binary([0, 1, 1, 0], 3)
    # x0^2 x1^2
    assert not is_squarefree_binary([0, 0, 1, 0, 0], 4)
    # x0^4 + x1^4 has 4 distinct complex roots
    assert is_squarefree_binary([1, 0, 0, 0, 1], 4)
    assert not is_squarefree_binary([0, 0, 0], 2)


def test_exact_degree_drop():
    assert exact_degree_drop([Fraction(1), Fraction(2), Fraction(0), Fraction(0)]) == 2
    assert exact_degree_drop([Fraction(1)]) == 0
    assert exact_degree_drop([]) == 0


def test_cubic_from_samples_round_trip():
    rng = random.Random(12)
    for _ in range(20):
        c = [Fraction(rng.randint(-9, 9)) for _ in range(4)]

        def ev(t):
            return c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3

        rec = cubic_from_samples(ev(0), ev(1), ev(-1), ev(2))
        assert rec == c


def test_cubic_from_samples_complex_field():
    c = [1 + 2j, 0j, -3 + 0j, 1j]

    def ev(t):
        return c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3

    rec = cubic_from_samples(ev(0), ev(1), ev(-1), ev(2))
    assert max(abs(a - b) for a, b in zip(rec, c)) < 1e-12


def test_rational_roots_small():
    # 6t^3 - 5t^2 - 2t + 1 = (3t + 1)... check: roots 1, 1/2, -1/3
    # (t - 1)(2t - 1)(3t + 1) = (t-1)(6t^2 - t - 1) = 6t^3 - 7t^2 + 1? no,
    # just build from factors numerically below instead of by hand.
    def from_roots(roots):
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return coeffs

    roots = [Fraction(1), Fraction(1, 2), Fraction(-1, 3)]
    found = rational_roots(from_roots(roots))
    assert sorted(found) == sorted(roots)


def test_rational_roots_mixed_and_zero():
    # t^2 (t - 3)(t^2 + 1): rational roots are 0 and 3 only
    coeffs = [Fraction(c) for c in [0, 0, -3, 1, -3, 1]]
    found = rational_roots(coeffs)
    assert sorted(found) == [Fraction(0), Fraction(3)]


def test_rational_roots_huge_coefficients_fall_back_to_snapping():
    # a trailing coefficient far beyond what trial division could factor;
    # the modest rational roots must still be found and certified exactly
    big = 10 ** 13
    # (3t - 2)(t - 5)(t^2 + big) = (3t^2 - 17t + 10)(t^2 + big)
    quad = [Fraction(10), Fraction(-17), Fraction(3)]
    coeffs = [Fraction(0)] * 5
    for i, a in enumerate(quad):
        coeffs[i] += a * big
        coeffs[i + 2] += a
    found = rational_roots(coeffs)
    assert sorted(found) == [Fraction(2, 3), Fraction(5)]


def test_rational_roots_root_beyond_half_the_lifting_modulus():
    # t - 200 lifts mod 2, 4, 16, 256: at 256 the symmetric residue of 200
    # is -56, so the lift must run on past twice the root bound
    assert rational_roots([Fraction(-200), Fraction(1)]) == [Fraction(200)]


def test_is_squarefree_binary_skips_primes_dividing_the_lead():
    # (p t + 1)^2 (t - 2) with p = 2^61 - 1 reduces to t - 2 mod p, which is
    # squarefree there although the form has a double root
    p = 2**61 - 1
    coeffs = [Fraction(-2), Fraction(1 - 4 * p), Fraction(2 * p - 2 * p * p), Fraction(p * p)]
    assert not is_squarefree_binary(coeffs, 3)


def test_rational_roots_none():
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    assert rational_roots([Fraction(5)]) == []


def test_pencil_roots_of_a_zero_cubic_are_five_fixed_members():
    every = [Fraction(v) for v in (0, 1, -1, 2, -2)]
    for cubic in ([0, 0, 0, 0], [0j, 0j, 0j, 0j]):
        rational, float_roots = pencil_roots(cubic, 1)
        assert rational == every and float_roots() == []


def test_pencil_roots_rational_first_then_complex():
    # 2 (t - 1/2)(t^2 + 1), read over the scale 2
    rational, float_roots = pencil_roots([-1, 2, -1, 2], 2)
    assert rational == [Fraction(1, 2)]
    floats = float_roots()
    assert len(floats) == 2
    assert sorted(round(r.imag, 9) for r in floats) == [-1.0, 1.0]
    assert all(abs(r.real) < 1e-9 for r in floats)


def test_pencil_roots_float_samples_have_no_rational_part():
    # (t - 1)(t - 2)(t - 3) from complex samples
    cubic = cubic_from_samples(*(complex((t - 1) * (t - 2) * (t - 3)) for t in (0, 1, -1, 2)))
    rational, float_roots = pencil_roots(cubic, 1)
    assert rational == []
    assert sorted(round(r.real, 9) for r in float_roots()) == [1.0, 2.0, 3.0]


def test_pencil_roots_never_repeats_a_rational_root():
    # the Aberth roots would land on 1, 2 and -3 again: (t - 1)(t - 2)(t + 3);
    # a double root spreads into two Aberth near-copies unless divided out:
    # (t - 1)^2 (t + 3) and (3t - 2)^3
    for cubic, roots in (([6, -7, 0, 1], [1, 2, -3]), ([3, -5, 1, 1], [1, -3]),
                         ([-8, 36, -54, 27], [Fraction(2, 3)])):
        rational, float_roots = pencil_roots(cubic, 1)
        assert rational == roots and float_roots() == []


def test_pencil_roots_run_no_aberth_until_the_float_roots_are_read(monkeypatch):
    calls = []
    real = roots_module.aberth_roots
    monkeypatch.setattr(roots_module, "aberth_roots", lambda c: calls.append(c) or real(c))
    rational, float_roots = pencil_roots([-1, 2, -1, 2], 2)
    assert rational == [Fraction(1, 2)] and calls == []
    float_roots()
    assert len(calls) == 1
