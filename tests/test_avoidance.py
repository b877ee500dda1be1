import random
from fractions import Fraction

import pytest

from waring import avoidance
from waring.avoidance import AvoidanceSet, binary_point_dual
from waring.errors import PreconditionError, ZeroFormError
from waring.forms import Form, ProjectivePoint, evaluate, parse_form

F = Fraction


def test_binary_point_dual_vanishes_at_point():
    rng = random.Random(20)
    for _ in range(15):
        p = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
        if p == (0, 0):
            continue
        dual = binary_point_dual(p)
        assert evaluate(dual, p) == 0
        # and nowhere else: dual is nonzero
        assert not dual.is_zero()


def test_constructor_validation():
    with pytest.raises(PreconditionError):
        AvoidanceSet(2, ())
    with pytest.raises(PreconditionError):
        AvoidanceSet(2, (parse_form("x0 + x1 + x2", 3),))
    with pytest.raises(ZeroFormError):
        AvoidanceSet(2, (Form(2, 1, (F(0), F(0))),))


def test_none_avoids_nothing():
    X = AvoidanceSet.none(3)
    assert X.is_trivial
    assert not X.contains((F(1), F(2), F(3)))
    assert not X.contains((1.0, 0.0, 0.0))


def test_membership_exact_and_float():
    X = AvoidanceSet(3, (parse_form("x2", 3),))
    assert X.contains((F(1), F(5), F(0)))
    assert not X.contains((F(1), F(5), F(1)))
    assert X.contains((1.0, 5.0, 0.0))
    assert X.contains((1.0, 5.0, 1e-12))
    assert not X.contains((1.0, 5.0, 0.5))
    with pytest.raises(PreconditionError):
        X.contains((F(1), F(0)))


@pytest.mark.parametrize("generators", [("x2",), ("x0*x2 - x1^2", "x0 + x1 + x2")])
def test_a_float_point_with_a_nan_coordinate_is_inside_wherever_it_sits(generators):
    X = AvoidanceSet(3, tuple(parse_form(g, 3) for g in generators))
    nan = float("nan")
    for point in ((1.0, 2.0, nan), (1.0, nan, 2.0), (nan, 1.0, 2.0), (complex(1, nan), 1.0, 2.0)):
        assert X.contains(point)
        assert X.evaluate_at(ProjectivePoint(point))[1]
    assert not X.contains((1.0, 2.0, 3.0))


def test_membership_multiple_generators_is_intersection():
    X = AvoidanceSet(3, (parse_form("x0", 3), parse_form("x1", 3)))
    assert X.contains((F(0), F(0), F(1)))
    assert not X.contains((F(0), F(1), F(1)))


def test_from_points():
    pts = [(F(1), F(2)), (F(1), F(-1)), (F(0), F(1))]
    X = AvoidanceSet.from_points(pts)
    for p in pts:
        assert X.contains(p)
    assert not X.contains((F(1), F(0)))


def test_restrict_to_line():
    # X = V(x2); restrict to the line spanned by (1,0,0) and (0,1,1):
    # points u*s + v*t have x2 = t, so the restriction is V(t)
    X = AvoidanceSet(3, (parse_form("x2", 3),))
    R = X.restrict_to_line((F(1), F(0), F(0)), (F(0), F(1), F(1)))
    assert R.num_vars == 2
    assert R.contains((F(1), F(0)))
    assert not R.contains((F(0), F(1)))
    assert not R.contains((F(1), F(1)))


def test_restrict_to_line_inside_X_raises():
    X = AvoidanceSet(3, (parse_form("x2", 3),))
    with pytest.raises(PreconditionError):
        X.restrict_to_line((F(1), F(0), F(0)), (F(0), F(1), F(0)))


def test_contains_line():
    X = AvoidanceSet(3, (parse_form("x0*x2", 3),))
    assert X.contains_line((F(1), F(0), F(0)), (F(0), F(1), F(0)))  # x2 = 0
    assert X.contains_line((F(0), F(1), F(0)), (F(0), F(0), F(1)))  # x0 = 0
    assert not X.contains_line((F(1), F(0), F(0)), (F(0), F(0), F(1)))


def test_rational_lines_of_a_product_of_lines():
    # X = V(x0 * (x0 + x1) * x2): three rational lines
    g = parse_form("x0", 3) * parse_form("x0 + x1", 3) * parse_form("x2", 3)
    X = AvoidanceSet(3, (g,))
    duals = X.rational_lines
    assert len(duals) == 3
    normalized = set()
    for d in duals:
        nz = next(c for c in d if c != 0)
        normalized.add(tuple(F(c) / nz for c in d))
    assert normalized == {
        (F(1), F(0), F(0)),
        (F(1), F(1), F(0)),
        (F(0), F(0), F(1)),
    }


def test_rational_lines_of_a_smooth_conic_is_empty():
    X = AvoidanceSet(3, (parse_form("x0*x2 - x1^2", 3),))
    assert X.rational_lines == ()


def test_rational_lines_respects_every_generator():
    # intersection of V(x0*x1) and V(x0*x2) is V(x0) union a point;
    # only the line x0 = 0 lies in both
    X = AvoidanceSet(3, (parse_form("x0*x1", 3), parse_form("x0*x2", 3)))
    duals = X.rational_lines
    assert len(duals) == 1
    d = duals[0]
    nz = next(c for c in d if c != 0)
    assert tuple(F(c) / nz for c in d) == (F(1), F(0), F(0))


def test_rational_lines_binary_set_is_empty():
    X = AvoidanceSet.from_points([(F(1), F(1))])
    assert X.rational_lines == ()


def test_contains_projective_point_object():
    X = AvoidanceSet(3, (parse_form("x1", 3),))
    assert X.contains(ProjectivePoint((F(3), F(0), F(-2))))


def test_rational_lines_recovers_random_line_products():
    # every rational line of a product of rational lines must be found,
    # including configurations that swallow coordinate lines
    rng = random.Random(21)
    for _ in range(12):
        k = rng.randint(1, 4)
        duals = set()
        while len(duals) < k:
            d = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            if d == (0, 0, 0):
                continue
            nz = next(c for c in d if c != 0)
            duals.add(tuple(F(c) / nz for c in d))
        g = None
        for d in duals:
            line = Form(3, 1, tuple(F(c) for c in d))
            g = line if g is None else g * line
        X = AvoidanceSet(3, (g,))
        found = set()
        for d in X.rational_lines:
            nz = next(c for c in d if c != 0)
            found.add(tuple(F(c) / nz for c in d))
        assert found == duals


@pytest.mark.parametrize("exact_first", [True, False])
def test_rational_lines_cache_keeps_the_backends_apart(exact_first):
    g = parse_form("x0*x1", 3)
    exact, floating = AvoidanceSet(3, (g,)), AvoidanceSet(3, (g.to_float(),))
    assert exact == floating and hash(exact) == hash(floating)  # Fraction(1) == 1+0j
    avoidance._rational_lines.cache_clear()
    first, second = (exact, floating) if exact_first else (floating, exact)
    lines = {id(first): first.rational_lines, id(second): second.rational_lines}
    assert lines[id(exact)] == ((1, 0, 0), (0, 1, 0))
    assert lines[id(floating)] == ()
