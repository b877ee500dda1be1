"""Polynomial root finding.

Complex roots come from Aberth-Ehrlich simultaneous iteration followed by
Newton polish steps that are kept while they lower |p|; that is robust for
the moderate degrees (up to roughly 25) that apolar generators reach here.
The iteration starts from the Newton polygon (Bini, "Numerical computation
of polynomial zeros by means of Aberth's method", Numer. Algorithms 13,
1996): each edge of the upper convex hull of (i, log|a_i|) puts as many
points as it is long on the circle whose radius the edge's slope gives,
which is where that many root moduli lie.  On the apolar generators of
binary forms of degree 6 to 40 that takes about six sweeps, where a circle
inside the Cauchy bound took thirty-five.  Binary forms are dehomogenized
at x0 = 1; a drop in the dehomogenized degree corresponds to roots at the
point (0 : 1), which are reinstated explicitly.

Exact helpers live here too, and run on Python integers (von zur Gathen
and Gerhard, *Modern Computer Algebra*, ch. 6 and 15).  `rational_roots`
is complete: it finds the roots of the squarefree part modulo a small
prime, lifts them by Newton (Hensel) iteration past a root bound and keeps
the candidates that vanish exactly, at any coefficient size.  `poly_gcd`
is a primitive PRS over the integers.  `is_squarefree_binary` takes the
gcd with the derivative modulo a few fixed large primes first and falls
back to the exact PRS only when none of them proves coprimality.

`pencil_roots` is the one determinant-pencil root finder: it rebuilds the
cubic det(A + t B) from four samples and returns its rational roots, then
the complex roots of what is left once they are divided out.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Sequence

from .errors import RootFindingError

#: float coefficients below this times the largest are treated as zero
#: when trimming degree
COEFF_TRIM_TOL = 1e-12


def _trim(coeffs: list[complex]) -> list[complex]:
    scale = max((abs(c) for c in coeffs), default=0.0)
    if scale == 0.0:
        return []
    out = list(coeffs)
    while out and abs(out[-1]) <= COEFF_TRIM_TOL * scale:
        out.pop()
    return out


def _horner(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex]:
    """Evaluate p and p' at z in one pass (coefficients ascending)."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _backward_error(coeffs: Sequence[complex], z: complex) -> float:
    """|p(z)| / sum |a_i| |z|^i: the relative size of the smallest change to
    the coefficients that makes z an exact root."""
    size = 0.0
    for c in reversed(coeffs):
        size = size * abs(z) + abs(c)
    return abs(_horner(coeffs, z)[0]) / size


def _polish(coeffs: Sequence[complex], z: complex) -> complex:
    """At most 40 Newton steps from z, while they lower |p|.

    Simple roots reach full precision in one or two steps; a double root
    converges linearly, halving its error per step, so it takes more.
    Inside a cluster of roots p and p' are both rounding noise and their
    ratio can throw the point far off, which the |p| test refuses.
    """
    p, dp = _horner(coeffs, z)
    for _ in range(40):
        if dp == 0:
            break
        moved = z - p / dp
        p_moved, dp_moved = _horner(coeffs, moved)
        if abs(p_moved) >= abs(p):
            break
        z, p, dp = moved, p_moved, dp_moved
    return z


def _newton_polygon_start(work: list[complex]) -> list[complex]:
    """Bini's starting points for a polynomial with nonzero ends.

    Each edge i -> j of the upper convex hull of (i, log|a_i|) over the
    nonzero coefficients puts j - i points on the circle of radius
    (|a_i| / |a_j|)^(1 / (j - i)), where that many root moduli cluster.
    The edge's points are spread evenly from the angle 2 pi (i / n + 0.371),
    and the k-th point overall is scaled by 1 + 0.05 cos(3.13 k), which
    breaks the symmetry of points that share a circle.
    """
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(work):
        if c == 0:
            continue
        point = (i, math.log(abs(c)))
        # pop while the last hull vertex lies on or below the chord to `point`
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])):
            hull.pop()
        hull.append(point)
    n = len(work) - 1
    z = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        m = j - i
        r = math.exp((log_i - log_j) / m)
        z.extend(r * cmath.exp(2j * math.pi * (k / m + i / n + 0.371))
                 * (1.0 + 0.05 * math.cos(3.13 * (i + k)))
                 for k in range(m))
    return z


def aberth_roots(coeffs: Sequence, max_iter: int = 400, tol: float = 1e-13) -> list[complex]:
    """All complex roots of sum(coeffs[i] * t^i), multiplicities repeated.

    Raises RootFindingError if the simultaneous iteration stalls; callers
    treat that as a resampling event, not a hard failure.
    """
    work = _trim([complex(c) for c in coeffs])
    if len(work) <= 1:
        return []
    # factor out roots at the origin exactly
    zeros_at_origin = 0
    scale = max(abs(c) for c in work)
    while abs(work[0]) <= COEFF_TRIM_TOL * scale:
        work.pop(0)
        zeros_at_origin += 1
    n = len(work) - 1
    roots = [0j] * zeros_at_origin
    if n == 0:
        return roots
    if n == 1:
        return roots + [-work[0] / work[1]]
    if n == 2:
        a, b, c = work[2], work[1], work[0]
        disc = cmath.sqrt(b * b - 4 * a * c)
        if abs(b + disc) < abs(b - disc):
            disc = -disc
        r1 = (-b - disc) / (2 * a)
        r2 = c / (a * r1) if r1 != 0 else -b / a - r1
        return roots + [r1, r2]

    lead = work[-1]
    radius = 1.0 + max(abs(c / lead) for c in work[:-1])
    z = _newton_polygon_start(work)
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            p, dp = _horner(work, z[i])
            if p == 0:
                continue
            if dp == 0:
                z[i] += 1e-6 * radius * (1 + 1j)
                moved = math.inf
                continue
            w = p / dp
            s = 0j
            for j in range(n):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = 1e-14 * radius * (1 + 1j)
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved <= tol * max(1.0, radius):
            break
    else:
        residual = max(_backward_error(work, zi) for zi in z)
        if residual > 1e-6:
            raise RootFindingError(
                f"Aberth iteration did not converge (backward error {residual:.2e})")
    return roots + [_polish(work, zi) for zi in z]


def binary_form_roots(coeffs: Sequence, exact_degree_drop: int | None = None) -> list[tuple[complex, complex]]:
    """Projective roots of a binary form, as coordinate pairs.

    `coeffs` is indexed by the exponent of x1 (so coeffs[i] multiplies
    x0^(d-i) * x1^i).  Finite roots come back as (1, t); the root at
    (0, 1) appears once per unit of degree drop.  For exact input pass
    `exact_degree_drop` so the drop is decided exactly instead of by
    float tolerance.
    """
    vals = [complex(c) for c in coeffs]
    d = len(vals) - 1
    scale = max((abs(c) for c in vals), default=0.0)
    if scale == 0.0:
        return []
    if exact_degree_drop is not None:
        drop = exact_degree_drop
        poly = vals[: len(vals) - drop]
    else:
        poly = list(vals)
        drop = 0
        while poly and abs(poly[-1]) <= COEFF_TRIM_TOL * scale:
            poly.pop()
            drop += 1
    points = [(0j, 1 + 0j)] * drop
    points.extend((1 + 0j, t) for t in aberth_roots(poly))
    return points


# -- exact univariate helpers ----------------------------------------------
#
# Polynomials are ascending coefficient lists.  Rational input is scaled to
# a primitive integer polynomial first, and everything after that runs on
# Python integers, either exactly or modulo a prime.

#: large primes for the modular coprimality test (Mersenne primes)
_TEST_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _strip(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def _primitive(u: list[int]) -> list[int]:
    """u divided by the gcd of its coefficients (u must be nonzero)."""
    g = math.gcd(*u)
    return u if g == 1 else [c // g for c in u]


def primitive_integer(vec: Sequence) -> list[int]:
    """The primitive integer multiple of a nonzero rational vector."""
    vals = [Fraction(c) for c in vec]
    denom = math.lcm(*(c.denominator for c in vals))
    return _primitive([c.numerator * (denom // c.denominator) for c in vals])


def _integer_poly(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple of a rational polynomial, degree-trimmed."""
    vals = _strip(list(coeffs))
    return primitive_integer(vals) if vals else []


def _derivative(u: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(u)][1:]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (primitive PRS).

    Each step replaces (a, b) by (b, pp(prem(a, b))); the pseudo-division
    scales by lead(b) once per quotient term, and taking the primitive part
    keeps the coefficients from compounding across steps.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead = b[-1]
        while len(a) >= len(b):
            top, shift = a[-1], len(a) - len(b)
            a = [lead * c for c in a]
            for i, c in enumerate(b):
                a[i + shift] -= top * c
            _strip(a)
        a, b = b, (_primitive(a) if a else a)
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a in Z[x]."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] // b[-1]
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                a[i + k] -= c * bc
    return q


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """gcd of a and b over GF(p), not normalized."""
    a = _strip([c % p for c in a])
    b = _strip([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            factor, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - factor * c) % p
            _strip(a)
        a, b = b, a
    return a


def _coprime_mod_test_primes(a: list[int], b: list[int]) -> bool:
    """True when a and b are coprime modulo one of the test primes.

    A prime that does not divide lead(a) maps a nontrivial common factor
    over Q to a common factor of the same degree mod p, so a constant gcd
    there proves coprimality.  False means only that no prime decided.
    """
    return any(a[-1] % p and len(_gcd_mod(a, b, p)) == 1 for p in _TEST_PRIMES)


def _squarefree_part(u: list[int]) -> list[int]:
    du = _derivative(u)
    if _coprime_mod_test_primes(u, du):
        return u
    return _exact_quotient(u, _prs_gcd(u, du))


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd of two rational polynomials (ascending coefficients).

    Runs a primitive PRS over the integers; [] when both are zero.
    """
    a, b = _integer_poly(p), _integer_poly(q)
    if not a or not b:
        g = a or b
    else:
        g = _prs_gcd(a, b)
    if not g:
        return []
    return [Fraction(c, g[-1]) for c in g]


def is_squarefree_binary(coeffs: Sequence[Fraction], degree: int) -> bool:
    """Whether an exact binary form has d distinct projective roots.

    Checks the dehomogenization against its derivative and caps the
    multiplicity of the root at infinity (degree drop) at one.  The gcd
    is taken modulo the test primes first; the exact PRS runs only when
    none of them decides.
    """
    vals = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in vals):
        return False
    if exact_degree_drop(vals) >= 2:
        return False
    poly = _integer_poly(vals)
    if len(poly) <= 1:
        return True  # constant after a single drop: degree <= 1 overall
    deriv = _derivative(poly)
    return _coprime_mod_test_primes(poly, deriv) or len(_prs_gcd(poly, deriv)) == 1


def exact_degree_drop(coeffs: Sequence[Fraction]) -> int:
    vals = list(coeffs)
    drop = 0
    while vals and vals[-1] == 0:
        vals.pop()
        drop += 1
    return drop


def cubic_from_samples(d0, d1, dm1, d2) -> list:
    """Ascending coefficients of the cubic with values d0, d1, dm1, d2.

    The samples sit at t = 0, 1, -1, 2; works over any field containing
    halves and sixths (Fractions or complex floats).
    """
    c0 = d0
    c2 = (d1 + dm1) / 2 - d0
    odd = (d1 - dm1) / 2  # c1 + c3
    c3 = (d2 - c0 - 2 * odd - 4 * c2) / 6
    c1 = odd - c3
    return [c0, c1, c2, c3]


def pencil_roots(det_at: Callable) -> list | None:
    """Roots t of the cubic det_at(t), or None when it vanishes identically.

    `det_at` is sampled at the Fractions 0, 1, -1 and 2.  When the samples
    are exact, the rational roots come first, each once; the Aberth roots
    of the cubic with them divided out (multiplicities included) follow.
    A stalled Aberth iteration contributes no float roots.
    """
    cubic = cubic_from_samples(*(det_at(Fraction(v)) for v in (0, 1, -1, 2)))
    if all(c == 0 for c in cubic):
        return None
    roots = rational_roots(cubic) if all(isinstance(c, Fraction) for c in cubic) else []
    rest = _integer_poly(cubic) if roots else cubic
    for r in roots:
        while _vanishes_at(rest, r.numerator, r.denominator):
            rest = _exact_quotient(rest, [-r.numerator, r.denominator])
    try:
        roots += aberth_roots(rest)
    except RootFindingError:
        pass
    return roots


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    p = 2
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _value_mod(u: list[int], x: int, m: int) -> int:
    value = 0
    for c in reversed(u):
        value = (value * x + c) % m
    return value


def _hensel_prime(u: list[int], du: list[int]) -> int:
    """The least prime not dividing lead(u) modulo which u stays squarefree.

    u must be squarefree over Q: only the finitely many primes dividing
    lead(u) or its discriminant fail, so the search ends.
    """
    return next(p for p in _primes()
                if u[-1] % p and len(_gcd_mod(u, du, p)) == 1)


def _lift_root(u: list[int], du: list[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """Newton (Hensel) lift of a simple root r of u mod p to a modulus m > bound.

    Each step squares the modulus: r - u(r)/u'(r) is a root mod m^2 when r
    is one mod m, and u'(r) stays a unit because the root is simple mod p.
    """
    m = p
    while m <= bound:
        m *= m
        r = (r - _value_mod(u, r, m) * pow(_value_mod(du, r, m), -1, m)) % m
    return r, m


def _vanishes_at(u: list[int], num: int, den: int) -> bool:
    """Whether u(num/den) == 0, by homogeneous Horner over the integers."""
    acc, scale = 0, 1
    for c in reversed(u):
        acc = acc * num + c * scale
        scale *= den
    return acc == 0


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a rational polynomial, without multiplicity.

    The polynomial is cleared to a primitive integer u with the zero root
    divided out and reduced to its squarefree part.  A rational root r
    makes s = lead(u)*r an integer with |s| <= |lead(u)| + max|u_i| (the
    Cauchy bound, scaled), and r is a simple root of u over the p-adics
    for any prime p that keeps u squarefree without dividing its lead.  So
    every root of u mod p is lifted by Newton iteration past twice that
    bound, read back as the symmetric residue s, and kept when u(s/lead)
    is exactly zero: the search is complete at any coefficient size.

    The roots come back as 0 first, then by (|numerator|, denominator,
    sign), positive first: the order of a divisor enumeration by the
    rational root theorem.
    """
    u = _integer_poly(coeffs)
    roots: list[Fraction] = []
    if len(u) <= 1:
        return roots
    if u[0] == 0:
        roots.append(Fraction(0))
        while u[0] == 0:
            u.pop(0)
        if len(u) <= 1:
            return roots
    u = _squarefree_part(u)
    lead, du = u[-1], _derivative(u)
    bound = 2 * (abs(lead) + max(abs(c) for c in u[:-1]))
    p = _hensel_prime(u, du)
    found = []
    for r0 in range(p):
        if _value_mod(u, r0, p):
            continue
        r, m = _lift_root(u, du, r0, p, bound)
        s = lead * r % m
        if s > m // 2:
            s -= m
        cand = Fraction(s, lead)
        if cand and u[0] % cand.numerator == 0 and _vanishes_at(
                u, cand.numerator, cand.denominator):
            found.append(cand)
    found.sort(key=lambda q: (abs(q.numerator), q.denominator, q.numerator < 0))
    return roots + found
