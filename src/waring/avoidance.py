"""Closed subsets to avoid, given by finite generator lists.

An avoidance set X is the common zero locus of its generators inside the
projective space of linear forms.  `AvoidanceSet.evaluate_at` is the one
evaluation of the generators at a point and holds the membership rule:
exact when both the generators and the point are exact, and
tolerance-based (`MEMBER_TOL`) otherwise.  `contains` and the
certificate's avoidance check and report read it, so a certificate
evaluates each point once.  An empty set (`AvoidanceSet.none`,
`is_trivial`) is never restricted: the quartic routes hand their binary
pieces None in its place.
A union of two loci is encoded by the products of their generators, so
callers never need a second representation.

For ternary X the class can enumerate the rational lines contained in X
(`rational_lines`).  Lines defined over extensions are invisible to this
search; pipelines that must stay off such lines rely on their residual
checks and report retry exhaustion instead of silently failing.  The
search is memoized per generator tuple and backend in a bounded cache.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import PreconditionError, ZeroFormError
from .forms import Form, ProjectivePoint, evaluate, substitute
from .plane import cross, plane_basis
from .roots import exact_degree_drop, primitive_integer, rational_roots

MEMBER_TOL = 1e-8


def binary_point_dual(point: ProjectivePoint | Sequence) -> Form:
    """The binary linear dual form vanishing exactly at the given point."""
    coords = point.coords if isinstance(point, ProjectivePoint) else tuple(point)
    a, b = coords
    return Form(2, 1, (b, -a))


@dataclass(frozen=True)
class AvoidanceSet:
    num_vars: int
    generators: tuple[Form, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise PreconditionError("avoidance set needs at least one generator")
        for g in gens:
            if g.num_vars != self.num_vars:
                raise PreconditionError("generator variable count mismatch")
        if all(g.is_zero() for g in gens):
            # all-zero generators would make X the whole space
            raise ZeroFormError("avoidance set must be a proper closed subset")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def none(cls, num_vars: int) -> "AvoidanceSet":
        """The empty locus: nothing is ever avoided."""
        return cls(num_vars, (Form(num_vars, 0, (Fraction(1),)),))

    @classmethod
    def from_points(cls, points: Iterable) -> "AvoidanceSet":
        """Binary only: the finite set of the given points, one generator."""
        pts = list(points)
        if not pts:
            raise PreconditionError("from_points needs at least one point")
        product = None
        for p in pts:
            dual = binary_point_dual(p)
            product = dual if product is None else product * dual
        return cls(2, (product,))

    @property
    def is_trivial(self) -> bool:
        return all(g.degree == 0 for g in self.generators)

    def evaluate_at(self, point) -> tuple[list, bool]:
        """The generators' values at a point, and whether the point lies in X.

        The values are exact when the point and every generator are, else
        complex at the point's floats.  The point lies in X when every value
        is exactly zero, on floats when no |g(x)| exceeds
        MEMBER_TOL * max(1, |g|).  A float point with a NaN coordinate lies
        in X, wherever the NaN sits.  `contains` and the certificate's
        avoidance check and report all read this one evaluation.
        """
        pt = point if isinstance(point, ProjectivePoint) else ProjectivePoint(tuple(point))
        if len(pt) != self.num_vars:
            raise PreconditionError("point dimension does not match avoidance set")
        if pt.is_exact and all(g.is_exact for g in self.generators):
            values = [evaluate(g, pt.coords) for g in self.generators]
            return values, not any(values)
        coords = pt.as_floats()
        values = [evaluate(g, coords) for g in self.generators]
        return values, (any(map(cmath.isnan, coords))
                        or not any(abs(value) > MEMBER_TOL * max(1.0, g.max_abs())
                                   for g, value in zip(self.generators, values)))

    def contains(self, point) -> bool:
        """Whether the point lies in X, by the rule of `evaluate_at`."""
        return self.evaluate_at(point)[1]

    def restrict_to_line(self, u: Sequence, v: Sequence) -> "AvoidanceSet":
        """Pull X back to the line spanned by u and v, as a binary set.

        Raises PreconditionError when the whole line sits inside X, since
        the restriction would then fail to be proper.
        """
        if self.num_vars != 3:
            raise PreconditionError("line restriction applies to ternary sets")
        images = [Form(2, 1, (u[i], v[i])) for i in range(3)]
        restricted = []
        for g in self.generators:
            h = substitute(g, images)
            if not h.is_zero():
                restricted.append(h)
        if not restricted:
            raise PreconditionError("line lies inside the avoidance set")
        return AvoidanceSet(2, tuple(restricted))

    def contains_line(self, u: Sequence, v: Sequence) -> bool:
        if self.num_vars != 3:
            raise PreconditionError("lines live in the ternary case")
        images = [Form(2, 1, (u[i], v[i])) for i in range(3)]
        return all(substitute(g, images).is_zero() for g in self.generators)

    @property
    def rational_lines(self) -> tuple[tuple, ...]:
        """Duals of the rational lines contained in a ternary X.

        Candidates are harvested from rational points of the restrictions
        of the first nonzero generator to a family of probe lines, then
        confirmed by exact divisibility against every generator.  Only
        lines defined over the rationals can be found this way.
        """
        # Form equality ignores the backend (Fraction(1) == 1+0j), so the key carries it
        return _rational_lines(self, tuple(g.is_exact for g in self.generators))


@lru_cache(maxsize=256)
def _rational_lines(X: AvoidanceSet, backends: tuple[bool, ...]) -> tuple[tuple, ...]:
    """`X.rational_lines`, memoized on the generators and their backends."""
    if X.num_vars != 3 or not all(backends):
        return ()
    first = next(g for g in X.generators if not g.is_zero())
    if first.degree == 0:
        return ()
    found = []
    for dual in _line_candidates(first):
        u, v = plane_basis(dual)
        if X.contains_line(u, v):
            found.append(dual)
    return tuple(found)


def _probe_duals(count: int) -> list[tuple]:
    """Duals of `count` lines with no three concurrent.

    The family (1, t, t^2) plus the line at infinity: three members
    sharing a point would force a nonzero kernel of a Vandermonde matrix.
    """
    duals = [(0, 0, 1)]
    t = 0
    while len(duals) < count:
        duals.append((1, t, t * t))
        t = -t if t > 0 else 1 - t
    return duals


def _primitive_integer(vec: Sequence[Fraction]) -> tuple[int, ...] | None:
    if all(c == 0 for c in vec):
        return None
    ints = primitive_integer(vec)
    sign = 1 if next(x for x in ints if x != 0) > 0 else -1
    return tuple(sign * x for x in ints)


def _rational_points_on_restriction(g: Form, span) -> list[tuple] | None:
    """Rational projective zeros of g restricted to a coordinate line;
    None when g vanishes on the whole line."""
    a, b = span
    images = [Form(2, 1, (Fraction(a[i]), Fraction(b[i]))) for i in range(3)]
    h = substitute(g, images)
    if h.is_zero():
        return None
    points = []
    # coeffs of h are indexed by the exponent of the second parameter
    for r in rational_roots(h.coeffs):
        points.append(tuple(Fraction(a[i]) + r * Fraction(b[i]) for i in range(3)))
    if exact_degree_drop(h.coeffs) >= 1:
        points.append(tuple(Fraction(b[i]) for i in range(3)))
    return points


def _line_candidates(g: Form) -> list[tuple]:
    """Primitive integer duals of every rational line that could divide g.

    A line inside V(g) meets each probe line in a rational point where the
    restriction of g vanishes; crossing points from two different probes
    recovers its dual.  V(g) can swallow at most deg(g) probes, and a line
    through the meeting point of two probes still shows up on a third, so
    deg(g) + 3 probes in general position leave no blind spots.
    """
    per_line = []
    whole_line_duals = []
    for dual in _probe_duals(g.degree + 3):
        points = _rational_points_on_restriction(g, plane_basis(dual))
        if points is None:
            whole_line_duals.append(tuple(Fraction(x) for x in dual))
            points = []
        per_line.append(points)
    seen = set()
    out = []
    for dual in whole_line_duals:
        key = _primitive_integer(dual)
        if key is not None and key not in seen:
            seen.add(key)
            out.append(key)
    count = len(per_line)
    for i in range(count):
        for j in range(i + 1, count):
            for p in per_line[i]:
                for q in per_line[j]:
                    dual = cross(p, q)
                    key = _primitive_integer(dual)
                    if key is not None and key not in seen:
                        seen.add(key)
                        out.append(key)
    return out
