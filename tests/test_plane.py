import random
from fractions import Fraction

import pytest

from waring.errors import PreconditionError
from waring.forms import Form, ProjectivePoint, evaluate, parse_form, substitute
from waring.plane import (
    adjugate3,
    conic_contains,
    conic_parametrization,
    cross,
    det3,
    factor_rank_two_quadric,
    float_point_on_conic,
    integer_matrices,
    pencil_at,
    plane_basis,
    quadric_matrix,
    quadric_rank,
    quadric_rank_exact,
    rational_point_on_conic,
    rational_sqrt,
    singular_members,
)
from waring.roots import aberth_roots, cubic_from_samples, primitive_integer, rational_roots

F = Fraction


def test_cross_incidence():
    rng = random.Random(16)
    for _ in range(20):
        a = tuple(F(rng.randint(-9, 9)) for _ in range(3))
        b = tuple(F(rng.randint(-9, 9)) for _ in range(3))
        c = cross(a, b)
        assert sum(x * y for x, y in zip(a, c)) == 0
        assert sum(x * y for x, y in zip(b, c)) == 0


def test_plane_basis_spans_orthogonal():
    u, v = plane_basis((F(2), F(0), F(-3)))
    for w in (u, v):
        assert 2 * w[0] - 3 * w[2] == 0
    # independence
    assert any(x != 0 for x in cross(u, v))
    with pytest.raises(PreconditionError):
        plane_basis((0, 0, 0))


def test_adjugate_and_det():
    rng = random.Random(17)
    for _ in range(20):
        m = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        adj = adjugate3(m)
        d = det3(m)
        # m . adj = det * identity
        for i in range(3):
            for j in range(3):
                got = sum(m[i][k] * adj[k][j] for k in range(3))
                assert got == (d if i == j else 0)


EVERY_MEMBER = [F(v) for v in (0, 1, -1, 2, -2)]


def fraction_pencil_members(m_a, m_b):
    """The roots of det(m_a + t m_b) from its Fraction samples: the rational
    roots of the cubic `cubic_from_samples` reads, then the Aberth roots of
    that cubic, or, when it has rational roots, of the primitive integer
    multiple of what is left once they are divided out."""
    cubic = cubic_from_samples(*(det3(pencil_at(m_a, m_b, F(v))) for v in (0, 1, -1, 2)))
    if not any(cubic):
        return EVERY_MEMBER
    rational = rational_roots(cubic)
    rest = cubic
    for r in rational:
        while sum(c * r ** i for i, c in enumerate(rest)) == 0:
            quotient, carry = [], F(0)  # synthetic division by t - r
            for c in reversed(rest[1:]):
                carry = c + carry * r
                quotient.append(carry)
            rest = quotient[::-1]
    return rational + aberth_roots(primitive_integer(rest) if rational else cubic)


def random_pencils(seed, count, height, denominators):
    """Exact pencils whose cubic has a rational root (a line pair member) or,
    mostly, none, with numerators up to `height` over `denominators`."""
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-height, height), rng.choice(denominators))

    def quadric():
        if rng.random() < 0.5:  # a line pair, so that the cubic has a rational root
            l1, l2 = (Form(3, 1, tuple(entry() for _ in range(3))) for _ in range(2))
            return quadric_matrix(l1 * l2)
        return quadric_matrix(Form(3, 2, tuple(entry() for _ in range(6))))

    return [(quadric(), quadric()) for _ in range(count)]


@pytest.mark.parametrize("height, denominators", [
    (9, [1, 2, 3, 4, 6, 7, 12]),
    (10**6, [1, 97, 1009, 65537]),  # integer cubics past 2**53, where c / scale rounds once
])
def test_singular_members_read_the_roots_of_the_fraction_cubic(height, denominators):
    kinds = set()
    for m_a, m_b in random_pencils(18, 60, height, denominators):
        rational, float_roots = singular_members(*integer_matrices((m_a, m_b)))
        got, expected = rational + float_roots(), fraction_pencil_members(m_a, m_b)
        assert [repr(t) for t in got] == [repr(t) for t in expected]
        kinds.add(bool(rational))
        assert all(type(t) is complex for t in got[len(rational):])
    assert kinds == {True, False}  # pencils with and without rational roots


def test_an_identically_singular_pencil_gives_five_members_in_every_exact_search(monkeypatch):
    import waring.quartic as quartic
    import waring.ternary as ternary

    # both members vanish on e2, so every member of the pencil is singular
    m_a = [[F(1, 3), F(2, 5), 0], [F(2, 5), F(-1, 7), 0], [0, 0, 0]]
    m_b = [[F(5, 2), F(1, 6), 0], [F(1, 6), F(3), 0], [0, 0, 0]]
    rational, float_roots = singular_members(*integer_matrices((m_a, m_b)))
    assert rational == EVERY_MEMBER and float_roots() == []
    assert fraction_pencil_members(m_a, m_b) == EVERY_MEMBER
    # the line search, the split triple and the three-line split read the one sampler
    assert ternary.singular_members is quartic.singular_members is singular_members
    # a net of quadrics in x0 and x1 alone, where x0 and x1 are forbidden:
    # its first pencil, x0^2 + t x0 x1, is singular at every t
    seen = []
    real = ternary._split_reducible
    monkeypatch.setattr(ternary, "_split_reducible",
                        lambda q, *args: seen.append(q) or real(q, *args))
    basis = [parse_form(text, 3) for text in ("x0^2", "x0*x1", "x1^2")]
    forbidden = [ProjectivePoint((F(1), F(0), F(0))), ProjectivePoint((F(0), F(1), F(0)))]
    ternary.reducible_member(basis, forbidden)
    assert seen[3:] == [basis[0] + basis[1].scale(t) for t in EVERY_MEMBER]


def test_quadric_matrix_splits_cross_terms():
    q = parse_form("x0^2 + 4*x0*x1 + 2*x1*x2 + 5*x2^2", 3)
    m = quadric_matrix(q)
    assert m[0][0] == 1 and m[2][2] == 5 and m[1][1] == 0
    assert m[0][1] == m[1][0] == 2
    assert m[1][2] == m[2][1] == 1
    assert m[0][2] == m[2][0] == 0
    with pytest.raises(PreconditionError):
        quadric_matrix(parse_form("x0^3", 3))


def test_quadric_ranks():
    assert quadric_rank_exact(parse_form("x0^2 + x1^2 + x2^2", 3)) == 3
    assert quadric_rank_exact(parse_form("x0*x1", 3)) == 2
    assert quadric_rank_exact(parse_form("x0^2", 3)) == 1
    zero = Form(3, 2, (F(0),) * 6)
    assert quadric_rank_exact(zero) == 0
    for text, want in (("x0^2 + x1^2 + x2^2", 3), ("x0*x1", 2), ("x1^2", 1)):
        q = parse_form(text, 3)
        assert quadric_rank(q) == quadric_rank(q.to_float()) == want
    assert quadric_rank(zero) == quadric_rank(zero.to_float()) == 0


def test_rational_sqrt():
    assert rational_sqrt(F(49, 64)) == F(7, 8)
    assert rational_sqrt(F(0)) == F(0)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-4)) is None


def check_product(q, l1, l2, tol=1e-9):
    prod = l1 * l2
    if q.is_exact and prod.is_exact:
        # equality up to the scale baked into the factors
        assert prod.coeffs == q.coeffs
    else:
        scale = max(abs(complex(c)) for c in q.coeffs)
        diffs = [abs(complex(a) - complex(b)) for a, b in zip(prod.coeffs, q.coeffs)]
        assert max(diffs) <= tol * max(1.0, scale)


def test_factor_rank_two_rational_split():
    # (x0 + x1)(x0 - 2x2) has a rational singular point
    l1 = Form(3, 1, (F(1), F(1), F(0)))
    l2 = Form(3, 1, (F(1), F(0), F(-2)))
    q = l1 * l2
    g1, g2 = factor_rank_two_quadric(q)
    check_product(q, g1, g2)
    assert g1.is_exact and g2.is_exact


def test_factor_rank_two_irrational_split_goes_float():
    # x0^2 - 2 x1^2 = (x0 - sqrt2 x1)(x0 + sqrt2 x1): discriminant not a square
    q = parse_form("x0^2 - 2*x1^2", 3)
    g1, g2 = factor_rank_two_quadric(q)
    check_product(q, g1, g2)


def test_factor_rank_two_complex_split():
    # x0^2 + x1^2 needs complex lines
    q = parse_form("x0^2 + x1^2", 3)
    g1, g2 = factor_rank_two_quadric(q)
    check_product(q, g1, g2)
    assert any(abs(complex(c).imag) > 1e-8 for c in list(g1.coeffs) + list(g2.coeffs))


def test_factor_rank_two_random_products():
    rng = random.Random(18)
    for _ in range(20):
        a = Form(3, 1, tuple(F(rng.randint(-6, 6)) for _ in range(3)))
        b = Form(3, 1, tuple(F(rng.randint(-6, 6)) for _ in range(3)))
        if a.is_zero() or b.is_zero():
            continue
        if all(a.coeffs[i] * b.coeffs[j] == a.coeffs[j] * b.coeffs[i]
               for i in range(3) for j in range(3)):
            continue  # proportional: rank 1
        q = a * b
        g1, g2 = factor_rank_two_quadric(q)
        check_product(q, g1, g2)


def test_factor_rejects_rank_one():
    with pytest.raises(PreconditionError):
        factor_rank_two_quadric(parse_form("x0^2", 3))


def test_rational_point_on_conic_found_and_missed():
    # x0^2 + x1^2 - 2 x2^2 contains (1, 1, 1)
    q = parse_form("x0^2 + x1^2 - 2*x2^2", 3)
    pt = rational_point_on_conic(q)
    assert pt is not None
    assert evaluate(q, pt) == 0
    # x0^2 + x1^2 + x2^2 has no real points at all
    assert rational_point_on_conic(parse_form("x0^2 + x1^2 + x2^2", 3), height=6) is None


def test_float_point_on_conic():
    q = parse_form("x0^2 + x1^2 + x2^2", 3)  # only complex points
    pt = float_point_on_conic(q, seed=3)
    assert conic_contains(q, pt)


def test_conic_parametrization_traces_the_conic():
    # smooth conic with a nice point
    q = parse_form("x0*x2 - x1^2", 3)
    base = (F(1), F(0), F(0))
    phi = conic_parametrization(q, base)
    image = substitute(q, list(phi))
    assert image.is_zero()
    # the map hits points other than the base point
    rng = random.Random(19)
    hits = set()
    for _ in range(8):
        s, t = F(rng.randint(-5, 5)), F(rng.randint(1, 5))
        pt = tuple(evaluate(p, (s, t)) for p in phi)
        if all(c == 0 for c in pt):
            continue
        assert evaluate(q, pt) == 0
        # normalize for dedup
        nz = next(c for c in pt if c != 0)
        hits.add(tuple(c / nz for c in pt))
    assert len(hits) >= 4


def test_conic_parametrization_rejects_off_conic_point():
    q = parse_form("x0*x2 - x1^2", 3)
    with pytest.raises(PreconditionError):
        conic_parametrization(q, (F(1), F(1), F(0)))


def test_conic_parametrization_float_backend():
    q = parse_form("x0^2 + x1^2 + x2^2", 3)
    base = float_point_on_conic(q, seed=5)
    phi = conic_parametrization(q.to_float(), base)
    image = substitute(q.to_float(), list(phi))
    assert max(abs(complex(c)) for c in image.coeffs) < 1e-7 * max(
        1.0, max(abs(complex(c)) for c in phi[0].coeffs) ** 2
    )
