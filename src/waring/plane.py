"""Projective plane helpers: lines, quadrics, conics.

Points of P(S_1) and lines (classes of dual linear forms) both live as
coordinate triples, and the pairing between them is the evaluation dot
product, so joins and intersections are cross products.  A dual quadric
q in S^2 is a quadratic form on S_1 via its symmetric 3x3 matrix; rank 2
means q factors into two distinct lines, rank 1 into a double line.

Factorization of a rank-2 quadric goes through its singular point (read
off the adjugate) and stays exact whenever the discriminant of the
residual binary quadratic is a rational square; otherwise the factors are
complex floats.  Smooth conics get a stereographic parametrization by
degree-2 binary forms, exact whenever a rational point is available.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .forms import (Form, ProjectivePoint, complex_coords, evaluate, is_exact_scalar,
                    same_point, substitute)
from .linalg import numeric_rank, solve_columns
from .monomials import index_of
from .roots import pencil_roots, primitive_integer

#: x0, x1, x2 as linear duals; `random_combination` over them samples a line
UNIT_DUALS = tuple(Form(3, 1, tuple(Fraction(int(i == j)) for j in range(3)))
                   for i in range(3))
CONIC_TOL = 1e-9


def cross(a: Sequence, b: Sequence) -> tuple:
    """Join of two points / intersection of two lines, by the cross product."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def as_dual_point(obj) -> ProjectivePoint:
    """The point of a line given as a ternary linear dual, a point or coordinates."""
    if isinstance(obj, ProjectivePoint):
        return obj
    if isinstance(obj, Form):
        if obj.degree != 1 or obj.num_vars != 3:
            raise PreconditionError("forbidden loci must be ternary linear duals")
        return ProjectivePoint(obj.coeffs)
    return ProjectivePoint(tuple(obj))


def plane_basis(ell: Sequence) -> tuple[tuple, tuple]:
    """Two independent solutions of ell . v = 0, over any scalar backend.

    Works for a line's dual coefficients (giving points spanning the line)
    and symmetrically for a point (giving the pencil of lines through it).
    """
    coords = list(ell)
    if all(c == 0 for c in coords):
        raise PreconditionError("cannot take the orthogonal plane of zero")
    if is_exact_scalar(coords[0]) and all(is_exact_scalar(c) for c in coords):
        pivot = next(i for i, c in enumerate(coords) if c != 0)
    else:
        pivot = max(range(3), key=lambda i: abs(complex(coords[i])))
    others = [i for i in range(3) if i != pivot]
    basis = []
    for j in others:
        v = [0, 0, 0]
        v[pivot] = -coords[j]
        v[j] = coords[pivot]
        basis.append(tuple(v))
    return basis[0], basis[1]


# -- quadrics ---------------------------------------------------------------


#: _QUADRIC_INDEX[i][j] is the index of x_i x_j among the ternary quadric monomials
_QUADRIC_INDEX = tuple(tuple(index_of(tuple(int(i == m) + int(j == m) for m in range(3)))
                             for j in range(3)) for i in range(3))


def quadric_matrix(q: Form) -> list[list]:
    """Symmetric 3x3 matrix of a ternary quadric (exact or float entries)."""
    if q.num_vars != 3 or q.degree != 2:
        raise PreconditionError("quadric_matrix wants a ternary quadric")
    half = Fraction(1, 2) if q.is_exact else 0.5
    c = q.coeffs
    return [[c[k] if i == j else c[k] * half for j, k in enumerate(row)]
            for i, row in enumerate(_QUADRIC_INDEX)]


def adjugate3(m: list[list]) -> list[list]:
    def minor(r, c):
        rs = [i for i in range(3) if i != r]
        cs = [j for j in range(3) if j != c]
        return m[rs[0]][cs[0]] * m[rs[1]][cs[1]] - m[rs[0]][cs[1]] * m[rs[1]][cs[0]]

    out = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            sign = 1 if (r + c) % 2 == 0 else -1
            out[c][r] = sign * minor(r, c)
    return out


def det3(m: list[list]):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def pencil_at(m_a: list[list], m_b: list[list], t) -> list[list]:
    """The member m_a + t * m_b of a pencil of matrices."""
    return [[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(m_a, m_b)]


def integer_matrices(mats: Sequence[list[list]]) -> tuple[int, list[list[list[int]]]]:
    """(D, [D * m for m in mats]): exact matrices over the lcm D of their denominators."""
    den = lcm(*(x.denominator for m in mats for row in m for x in row))
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m] for m in mats]


def singular_members(den: int, mats: Sequence) -> tuple[list[Fraction], Callable]:
    """Parameters t where det(a + t * b) vanishes, by `pencil_roots`: the
    rational ones at once and a function that gives the float ones.

    a and b are integer matrices over the common denominator `den`, the
    shape `integer_matrices` returns.  Their integer samples at t = 0, 1,
    -1 and 2 give the integer cubic 6 det(a + t b), which is 6 den^3 times
    the cubic of the exact pencil, so no Fraction is made until a rational
    root turns up.  An identically singular pencil gives 0, 1, -1, 2, -2.
    """
    a, b = mats
    d0, d1, dm1, d2 = (det3(pencil_at(a, b, t)) for t in (0, 1, -1, 2))
    c3 = d2 + 3 * d0 - 3 * d1 - dm1
    cubic = [6 * d0, 3 * (d1 - dm1) - c3, 3 * (d1 + dm1) - 6 * d0, c3]
    return pencil_roots(cubic, 6 * den ** 3)


def apart(ell, others: Sequence) -> bool:
    """Whether the line `ell` is none of `others`, as projective points; each
    is a ternary linear dual, a point or coordinates (see `as_dual_point`)."""
    p = as_dual_point(ell)
    return not any(same_point(p, as_dual_point(o)) for o in others)


def quadric_rank_exact(q: Form) -> int:
    m = quadric_matrix(q)
    if det3(m) != 0:
        return 3
    adj = adjugate3(m)
    if any(adj[i][j] != 0 for i in range(3) for j in range(3)):
        return 2
    if any(m[i][j] != 0 for i in range(3) for j in range(3)):
        return 1
    return 0


def quadric_rank(q: Form) -> int:
    """Rank of a ternary quadric: exact through det and adjugate, float
    through `numeric_rank` cut at 1e-6 of the largest singular value."""
    if q.is_exact:
        return quadric_rank_exact(q)
    return numeric_rank(np.array([[complex(x) for x in row] for row in quadric_matrix(q)]),
                        tol=1e-6)


def reduced_plane_basis(u: Sequence, v: Sequence) -> tuple[list[int], list[int]]:
    """A Lagrange-reduced primitive integer basis of span(u, v): its vectors
    meet at 60 to 90 degrees, so no digits go to a nearly parallel pair."""
    u, v = primitive_integer(u), primitive_integer(v)
    while True:
        u, v = sorted((u, v), key=lambda w: sum(x * x for x in w))
        m = round(Fraction(sum(x * y for x, y in zip(u, v)), sum(x * x for x in u)))
        if m == 0:
            return u, v
        v = [y - m * x for x, y in zip(u, v)]


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def factor_rank_two_quadric(q: Form) -> tuple[Form, Form]:
    """Split a rank-<=2 ternary quadric into two lines q = l1 * l2.

    Exact output whenever q is exact and the relevant discriminant is a
    rational square; complex float lines otherwise.  Raises
    PreconditionError on rank < 2 (a double or zero line has no pair of
    distinct factors).
    """
    exact = q.is_exact
    m = quadric_matrix(q)
    adj = adjugate3(m)
    if exact:
        degenerate = all(adj[i][j] == 0 for i in range(3) for j in range(3))
    else:
        scale = max(abs(complex(m[i][j])) for i in range(3) for j in range(3))
        degenerate = all(
            abs(complex(adj[i][j])) <= 1e-10 * max(1.0, scale) ** 2
            for i in range(3) for j in range(3)
        )
    if degenerate:
        raise PreconditionError("quadric has rank <= 1; no distinct line pair")
    # singular point: the first column of the adjugate of largest entry
    col = max((tuple(adj[i][j] for i in range(3)) for j in range(3)),
              key=lambda c: max(abs(complex(x)) for x in c))
    u1, u2 = plane_basis(col)  # the pencil of lines through the singular point
    # express q in the pencil: q = A*u1^2 + B*u1*u2 + C*u2^2
    f1 = Form(3, 1, u1)
    f2 = Form(3, 1, u2)
    solved = solve_columns([g.coeffs for g in (f1 * f1, f1 * f2, f2 * f2)], q.coeffs)
    if solved is None:
        raise PreconditionError("quadric is not supported on its singular pencil")
    a, b, c = solved[0]
    if exact and a != 0:
        root = rational_sqrt(b * b - 4 * a * c)
        exact = root is not None
    if not exact:  # the same formulas on the complex coordinates of the pencil
        u1, u2 = complex_coords(u1), complex_coords(u2)
        a, b, c = complex(a), complex(b), complex(c)
        root = complex(b * b - 4 * a * c) ** 0.5
    if (a == 0) if exact else abs(a) < 1e-14 * max(abs(b), abs(c), 1.0):
        return Form(3, 1, u2), Form(3, 1, tuple(b * x + c * y for x, y in zip(u1, u2)))
    t1 = (-b + root) / (2 * a)
    t2 = (-b - root) / (2 * a)
    return (Form(3, 1, tuple(x - t1 * y for x, y in zip(u1, u2))),
            Form(3, 1, tuple(a * (x - t2 * y) for x, y in zip(u1, u2))))


# -- smooth conics ----------------------------------------------------------


def conic_contains(q: Form, point: Sequence) -> bool:
    """Exact vanishing on exact data, else |q(x)| <= CONIC_TOL * max(1, |q|) * max(1, |x|)^2."""
    value = evaluate(q, tuple(point))
    if isinstance(value, Fraction):
        return value == 0
    scale = max(1.0, q.max_abs()) * max(1.0, max(abs(complex(c)) for c in point)) ** 2
    return abs(complex(value)) <= CONIC_TOL * scale


def rational_point_on_conic(q: Form, height: int = 16) -> tuple | None:
    """Search small-height primitive integer points of an exact conic.

    Deterministic sweep in increasing height; returns coordinates or None.
    This is a search, not a decision procedure: a conic with rational
    points of large height will be missed, and callers fall back to a
    float point from a line section.
    """
    if not q.is_exact:
        return None
    # den * q(v) is the sum of num_b v^b over the monomials x_i x_j, i <= j
    num = q.numerators()[0]
    terms = [(num[_QUADRIC_INDEX[i][j]], i, j) for i in range(3) for j in range(i, 3)]

    def value(v):
        return sum(c * v[i] * v[j] for c, i, j in terms)

    for h in range(1, height + 1):
        for a in range(-h, h + 1):
            for b in range(-h, h + 1):
                for c in range(-h, h + 1):
                    if max(abs(a), abs(b), abs(c)) != h:
                        continue  # only new points at this height
                    v = (a, b, c)
                    if v <= (0, 0, 0):
                        continue  # one representative per +- pair
                    if value(v) == 0:
                        return (Fraction(a), Fraction(b), Fraction(c))
    return None


def float_point_on_conic(q: Form, seed: int = 0) -> tuple:
    """A (possibly complex) float point on a conic via a random line section."""
    rng = random.Random(seed)
    for _ in range(64):
        g = tuple(rng.randint(-9, 9) for _ in range(3))
        h = tuple(rng.randint(-9, 9) for _ in range(3))
        images = [Form(2, 1, (g[i], h[i])) for i in range(3)]
        section = substitute(q, images)  # binary quadratic in (s, t)
        a = complex(section.coeffs[0])
        b = complex(section.coeffs[1])
        c = complex(section.coeffs[2])
        if abs(a) < 1e-12 and abs(b) < 1e-12:
            continue
        if abs(a) < 1e-12:
            s, t = -c / b, 1.0
        else:
            disc = (b * b - 4 * a * c) ** 0.5
            s, t = (-b + disc) / (2 * a), 1.0
        point = tuple(complex(g[i]) * s + complex(h[i]) * t for i in range(3))
        if max(abs(z) for z in point) > 1e-9:
            return point
    raise PreconditionError("could not find any point on the conic")


def conic_parametrization(q: Form, point: Sequence) -> tuple[Form, Form, Form]:
    """Stereographic parametrization of a smooth conic from a point on it.

    Returns three binary quadratics (phi0, phi1, phi2): the degree-2 map
    P^1 -> C sending (s : t) to the second intersection of C with the line
    from `point` in direction s*u + t*w, for a fixed completion (u, w) of
    the point to a basis.  The map is bijective onto C.  Exact whenever q
    and the point are exact.
    """
    if not conic_contains(q, point):
        raise PreconditionError("base point does not lie on the conic")
    m = quadric_matrix(q)
    # complete the point to a basis with the standard vectors other than
    # e_k, k the last nonzero coordinate of the point
    k = max(i for i in range(3) if point[i] != 0)
    u, w = (tuple(int(i == j) for j in range(3)) for i in range(3) if i != k)
    # v(s,t) coordinates as binary linear forms
    v_forms = [Form(2, 1, (u[i], w[i])) for i in range(3)]
    qv = substitute(q, v_forms)  # q(v): binary quadratic
    mp = [sum(m[i][j] * point[j] for j in range(3)) for i in range(3)]  # M . p
    bp = Form(2, 1, (
        sum(mp[i] * u[i] for i in range(3)),
        sum(mp[i] * w[i] for i in range(3)),
    ))  # polar form B(p, v) as a binary linear form
    phi = [qv.scale(point[i]) - (bp * v_forms[i]).scale(2) for i in range(3)]
    if all(p.is_zero() for p in phi):
        raise PreconditionError("degenerate parametrization; conic is singular?")
    return phi[0], phi[1], phi[2]
