"""Dense homogeneous forms over exact rationals or complex floats.

Every form carries a scalar backend: either all coefficients are
`fractions.Fraction` (exact) or all are `complex` (float).  Exact arithmetic
is authoritative for every rank and kernel decision in the library; complex
floats appear where roots of polynomials do.  Mixing backends in an
operation silently promotes to complex.

The same class stores both polynomials (the symmetric algebra S, spanned by
monomials in x0..x{n-1}) and their duals (the divided-power side, acting by
differentiation).  Which role a form plays is decided by the operation:
`contract(t, f)` differentiates f by t, so t is dual and f is primal.

Products and contractions run on the index tables of `monomials`.  An
exact form that a kernel makes stores integer numerators over one positive
denominator, with gcd 1; the exact kernels (sums, differences, negation,
exact scaling, products, contractions and powers of linear forms) read and
write those integers.  Its `coeffs`, the canonical `Fraction`s, are built
on first read and kept.  Each exact form also keeps one complex view,
numerator / denominator by int division, which rounds correctly and so has
the bits of `complex(Fraction)`; kernels that mix backends read it.  Their
float loops keep the order of terms (nonzero products onto the backend's
zero in monomial order, left factor outer) and of each multiplication, so
the bits are those of the coefficient-wise expressions.  Kernel results
skip re-normalization; so does `scale` on a float form, whose products
`complex(c * s)` are complex already.

`substitute` runs on coefficient lists over the same product table and
builds one `Form` at the end: on exact data integer numerators over one
denominator, otherwise the products and sums of the `Form` operations it
replaced, in their order, so its float bits are theirs too.

Points of the projective space P(S_1) are `ProjectivePoint`s.  Exact points
normalize their first nonzero coordinate to 1; float points normalize the
first coordinate of largest magnitude (up to a relative 1e-12) to 1.  The
pivot becomes exactly 1, so normalizing a normalized point changes no bit.
This module is the one place that normalizes: `normalized_point` serves
callers whose coordinates are on one backend already, or that scale by the
pivot.  `complex_coords` turns exact coordinates into floats by the same
int division as the view of an exact form; a point keeps that view, and
the rescaled copy with its norm that distances read, from its first read
on.  Comparisons use a normalization-free chordal distance, so they do not
depend on which coordinate was scaled.  `distinct_points` of a few points
takes every pair by that distance; of more, it takes all the pairwise
distances in one vectorised pass, which only prefilters: every pair it
puts within 2 * tol (plus a rounding slack) is confirmed by the scalar
distance, so its answer is that of the pairwise definition.

`random_combination` draws the random members of a span of forms: lines
as combinations of the unit duals, pencils in nets of conics, generic
apolar generators and smooth conics of an apolar net.  Random points,
directions and split coefficients are drawn by `rng.randint` where they
are used.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, ParseFormError, ZeroFormError
from .monomials import (
    contraction_table,
    exponents,
    index_of,
    monomial_string,
    multinomials,
    product_table,
    space_dim,
)

Scalar = Union[Fraction, complex]

#: tolerance for treating a float scalar as zero in structural checks
FLOAT_ZERO_TOL = 1e-9

#: relative slack within which float coordinates count as the largest
_PIVOT_SLACK = 1e-12

#: norms within which neither a vector's squares nor the wedge of two such
#: vectors under- or overflow; `chordal_distance` rescales a vector outside
_NORM_RANGE = (2.0 ** -200, 2.0 ** 200)

#: point counts up to which `distinct_points` takes every pair by the scalar
#: distance, which beats the vectorised pass there and loses to it at eight
_PAIRWISE_MAX = 5

#: bound on how far a chordal distance taken in another rounding order (the
#: vectorised pass of `distinct_points`) can stray: both are within a few
#: ulps of 1 of the true value, since the distance is at most 1
_WEDGE_SLACK = 1e-12


def is_exact_scalar(value) -> bool:
    return isinstance(value, (Fraction, int))


def _normalize_coeffs(values: Iterable) -> tuple[tuple, bool]:
    vals = list(values)
    if all(is_exact_scalar(v) for v in vals):
        return tuple(Fraction(v) for v in vals), True
    return tuple(complex(v) for v in vals), False


@dataclass(frozen=True)
class Form:
    """A homogeneous polynomial with a dense coefficient tuple.

    Coefficients follow the monomial order of :func:`waring.monomials.exponents`.
    """

    num_vars: int
    degree: int
    coeffs: tuple

    def __post_init__(self):
        expected = space_dim(self.num_vars, self.degree)
        if len(self.coeffs) != expected:
            raise DimensionMismatch(
                f"form in {self.num_vars} variables of degree {self.degree} "
                f"needs {expected} coefficients, got {len(self.coeffs)}"
            )
        coeffs, exact = _normalize_coeffs(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_exact", exact)

    @classmethod
    def _trusted(cls, num_vars, degree, coeffs: tuple, exact: bool) -> "Form":
        form = object.__new__(cls)  # coeffs are already all Fraction or all complex
        form.__dict__.update(num_vars=num_vars, degree=degree, coeffs=coeffs, _exact=exact)
        return form

    @classmethod
    def _exact_over(cls, num_vars, degree, num: list[int], den: int) -> "Form":
        g = math.gcd(den, *num)  # stored reduced: num[i] / den with gcd 1
        num, den = ([v // g for v in num], den // g) if g > 1 else (num, den)
        form = object.__new__(cls)
        form.__dict__.update(num_vars=num_vars, degree=degree, _exact=True, _num=num, _den=den)
        return form

    def __getattr__(self, name):  # a missing view of an exact form: built on first read, kept
        state = self.__dict__
        if not state.get("_exact") or name not in ("coeffs", "_num", "_den", "_cplx"):
            raise AttributeError(name)
        if name == "coeffs":  # the canonical Fractions
            d = state["_den"]
            state[name] = tuple(Fraction(v, d) if d > 1 else Fraction(v) for v in state["_num"])
        elif name == "_cplx":
            state[name] = tuple(complex(v / self._den) for v in self._num)
        else:
            state["_num"], state["_den"] = _numerators(state["coeffs"])
        return state[name]

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, degree: int, exact: bool = True) -> "Form":
        n = space_dim(num_vars, degree)
        fill = Fraction(0) if exact else 0j
        return cls(num_vars, degree, (fill,) * n)

    @classmethod
    def from_dict(cls, num_vars: int, degree: int, entries: dict) -> "Form":
        coeffs = [0] * space_dim(num_vars, degree)
        for expo, value in entries.items():
            if len(expo) != num_vars or sum(expo) != degree:
                raise DimensionMismatch(f"exponent {expo} does not fit (n={num_vars}, d={degree})")
            coeffs[index_of(tuple(expo))] = value
        return cls(num_vars, degree, tuple(coeffs))

    # -- backend ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact

    def to_float(self) -> "Form":
        return Form._trusted(self.num_vars, self.degree, self.floats(), False)

    # -- inspection -------------------------------------------------------

    def coeff(self, expo: tuple[int, ...]) -> Scalar:
        return self.coeffs[index_of(tuple(expo))]

    def numerators(self) -> tuple[list[int], int]:
        """(num, den) with coefficient i equal to num[i] / den, den > 0: the
        integers an exact form keeps (read only; exact forms only)."""
        return self._num, self._den

    def floats(self) -> tuple:
        """The coefficients as complex numbers, kept by exact forms (read only)."""
        return self._cplx if self._exact else self.coeffs

    def items(self):
        """Yield (exponent, coefficient) pairs for nonzero coefficients."""
        for expo, c in zip(exponents(self.num_vars, self.degree), self.coeffs):
            if c != 0:
                yield expo, c

    def is_zero(self) -> bool:
        """Exactly zero, or on floats every |coefficient| <= FLOAT_ZERO_TOL."""
        if self.is_exact:
            return not any(self._num)
        return all(abs(c) <= FLOAT_ZERO_TOL for c in self.coeffs)

    def max_abs(self) -> float:
        return max(map(abs, self.floats()), default=0.0)

    # -- arithmetic -------------------------------------------------------

    def _check_same_space(self, other: "Form"):
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise DimensionMismatch(
                f"cannot combine (n={self.num_vars}, d={self.degree}) "
                f"with (n={other.num_vars}, d={other.degree})"
            )

    def _combine(self, other: "Form", op) -> "Form":
        self._check_same_space(other)
        exact = self._exact and other._exact
        if exact:
            den = math.lcm(self._den, other._den)
            sa, sb = den // self._den, den // other._den
            out = [op(x * sa, y * sb) for x, y in zip(self._num, other._num)]
            return Form._exact_over(self.num_vars, self.degree, out, den)
        out = tuple(op(x, y) for x, y in zip(self.floats(), other.floats()))
        return Form._trusted(self.num_vars, self.degree, out, False)

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Form":
        if self._exact:
            return Form._exact_over(self.num_vars, self.degree, [-a for a in self._num], self._den)
        return Form._trusted(self.num_vars, self.degree, tuple(-a for a in self.coeffs), False)

    def scale(self, scalar) -> "Form":
        if not self._exact:  # every product is complex already: no backend scan
            s = complex(scalar)  # once, not per coefficient as Fraction.__rmul__ does
            return Form._trusted(self.num_vars, self.degree,
                                 tuple(c * s for c in self.coeffs), False)
        if isinstance(scalar, (Fraction, int)):
            num, den = scalar.numerator, self._den * scalar.denominator
            return Form._exact_over(self.num_vars, self.degree, [v * num for v in self._num], den)
        products = tuple(c * scalar for c in self.coeffs)
        return Form._trusted(self.num_vars, self.degree, *_normalize_coeffs(products))

    def __mul__(self, other: "Form") -> "Form":
        """Polynomial product within the same variable set."""
        if not isinstance(other, Form):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise DimensionMismatch("product needs matching variable counts")
        n, degree = self.num_vars, self.degree + other.degree
        if self._exact and other._exact:
            out = _product(n, self._num, self.degree, other._num, other.degree, 0)
            return Form._exact_over(n, degree, out, self._den * other._den)
        out = _product(n, self.floats(), self.degree, other.floats(), other.degree, 0j)
        return Form._trusted(n, degree, tuple(out), False)


def _product(n: int, a, da: int, b, db: int, zero) -> list:
    """Coefficients of the product of two coefficient lists of degrees da and
    db: the nonzero products added onto `zero` in monomial order, left
    factor outer."""
    out = [zero] * space_dim(n, da + db)
    right = [(ib, cb) for ib, cb in enumerate(b) if cb != 0]
    for ca, row in zip(a, product_table(n, da, db)):
        if ca != 0:
            for ib, cb in right:
                out[row[ib]] += ca * cb
    return out


def _numerators(coeffs: tuple) -> tuple[list[int], int]:
    """Exact coefficients as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


#: alias used where a form acts by differentiation (the apolarity pairing)
DualForm = Form


def contract(t: Form, f: Form) -> Form:
    """Apply the dual form t to f by repeated partial differentiation.

    For t = x^alpha (a dual monomial) and f = x^beta this is the honest
    derivative d^|alpha| f / dx^alpha, with the falling-factorial integers
    that differentiation produces; the result has degree deg f - deg t.
    """
    if t.num_vars != f.num_vars:
        raise DimensionMismatch("contraction needs matching variable counts")
    if t.degree > f.degree:
        raise DimensionMismatch(
            f"cannot contract degree {f.degree} by degree {t.degree}")
    n, out_degree = f.num_vars, f.degree - t.degree
    exact = t._exact and f._exact
    if exact:
        tc, fc = t._num, f._num
    else:
        tc, fc = t.floats(), f.floats()
    out = [0 if exact else 0j] * space_dim(n, out_degree)
    for ta, row in zip(tc, contraction_table(n, t.degree, f.degree)):
        if ta != 0:
            for ib, k, fall in row:
                fb = fc[ib]
                if fb != 0:
                    out[k] += ta * fb * fall
    return (Form._exact_over(n, out_degree, out, t._den * f._den) if exact
            else Form._trusted(n, out_degree, tuple(out), False))


def power_of_linear(point: Sequence, degree: int, coeff=1) -> Form:
    """coeff * (p0*x0 + ... + p_{n-1}*x_{n-1})^degree, expanded densely."""
    n = len(point)
    exact = is_exact_scalar(coeff) and all(is_exact_scalar(p) for p in point)
    if exact:  # integer numerators over den ** degree
        bases, den = _numerators(tuple(map(Fraction, point)))
        coeff = Fraction(coeff)
        start = coeff.numerator
    else:
        bases, start = point, coeff
    powers = [[p ** e for e in range(degree + 1)] for p in bases]
    coeffs = []
    for expo, multi in zip(exponents(n, degree), multinomials(n, degree)):
        term = start * multi
        for pw, e in zip(powers, expo):
            if e:
                term = term * pw[e]
        coeffs.append(term)
    if exact:
        return Form._exact_over(n, degree, coeffs, coeff.denominator * den ** degree)
    # on complex points every term is complex already: a complex coeff makes
    # it so, and an int one (the default 1) does once a coordinate is a factor
    if ((type(coeff) is complex or type(coeff) is int and degree >= 1)
            and all(type(p) is complex for p in point)):
        return Form._trusted(n, degree, tuple(coeffs), False)
    return Form._trusted(n, degree, *_normalize_coeffs(coeffs))


def evaluate(f: Form, point: Sequence) -> Scalar:
    """Evaluate f at coordinates (substituting x_i := point[i]).

    At complex coordinates an exact f is read through its kept complex
    view: c * z for a Fraction c and a complex z is complex(c) * z, and the
    view holds complex(c), so the bits are those of the exact coefficients.
    """
    if len(point) != f.num_vars:
        raise DimensionMismatch("point length must match variable count")
    values = f.coeffs
    if f.is_exact and all(is_exact_scalar(p) for p in point):
        total = Fraction(0)
    else:
        total = 0j
        if all(type(p) is complex for p in point):
            values = f.floats()
    for expo, c, value in zip(exponents(f.num_vars, f.degree), f.coeffs, values):
        if c != 0:
            term = value
            for p, e in zip(point, expo):
                if e:
                    term = term * (p ** e)
            total = total + term
    return total


def substitute(f: Form, images: Sequence[Form]) -> Form:
    """Substitute x_i := images[i], a list of equal-degree forms.

    With linear images this restricts f to a subspace or changes
    coordinates; with quadratic images it pulls f back along a conic
    parametrization.  The result has degree deg(f) * deg(images).

    The work runs on coefficient lists and builds one `Form` at the end.
    The term of c x^k is c * 1 * P_0^k_0 * ... * P_(n-1)^k_(n-1), the
    power P_i^k being 1 * g_i * ... * g_i, each product as `Form.__mul__`
    takes it: on integer numerators when both factors are exact, else on
    their complex views, the exact 1 included.  Exact terms are summed
    over one denominator; otherwise the terms are added onto the float
    zero in monomial order, so every float bit is that of the `Form`
    operations this replaced.
    """
    if len(images) != f.num_vars:
        raise DimensionMismatch("need one image per variable")
    m = images[0].num_vars
    e = images[0].degree
    for g in images:
        if g.num_vars != m or g.degree != e:
            raise DimensionMismatch("images must share variable count and degree")
    d = f.degree
    exact = f.is_exact and all(g.is_exact for g in images)
    # a value is (degree, coefficients, denominator), the denominator None on floats
    one = (0, [1], 1)
    pieces = [(e, g._num, g._den) if g.is_exact else (e, g.coeffs, None) for g in images]
    powers = [[one] for _ in images]  # P_i^0, P_i^1, ... as far as read
    out = [0 if exact else 0j] * space_dim(m, d * e)
    if exact:  # every term's denominator divides den_f * prod den_i^d
        common = f._den * math.prod(den ** d for _, _, den in pieces)
    coeffs = zip(f._num, repeat(f._den)) if f.is_exact else zip(f.coeffs, repeat(None))
    for expo, (c, den) in zip(exponents(f.num_vars, d), coeffs):
        if c == 0:
            continue
        term = (0, [c], den)
        for i, k in enumerate(expo):
            power = powers[i]
            while len(power) <= k:
                power.append(_value_product(m, power[-1], pieces[i]))
            term = _value_product(m, term, power[k])
        _, vals, den = term
        if exact:
            scale = common // den
            for idx, y in enumerate(vals):
                out[idx] += y * scale
        else:
            for idx, y in enumerate(_value_floats(vals, den)):
                out[idx] = out[idx] + y
    if exact:
        return Form._exact_over(m, d * e, out, common)
    return Form._trusted(m, d * e, tuple(out), False)


def _value_floats(vals, den) -> list:
    """A value's complex view: an exact one by the int division of `Form`'s."""
    return vals if den is None else [complex(v / den) for v in vals]


def _value_product(n: int, x: tuple, y: tuple) -> tuple:
    """The product of two (degree, coefficients, denominator) values, as
    `Form.__mul__` takes it: on integers when both are exact."""
    (da, a, den_a), (db, b, den_b) = x, y
    if den_a is not None and den_b is not None:
        return da + db, _product(n, a, da, b, db, 0), den_a * den_b
    return da + db, _product(n, _value_floats(a, den_a), da, _value_floats(b, den_b), db, 0j), None


def random_form(num_vars: int, degree: int, seed: int, height: int = 9) -> Form:
    """Random exact form with integer coefficients uniform in [-height, height].

    Deterministic per seed; resamples internally rather than return zero.
    """
    rng = random.Random(seed)
    n = space_dim(num_vars, degree)
    while True:
        coeffs = tuple(Fraction(rng.randint(-height, height)) for _ in range(n))
        if any(c != 0 for c in coeffs):
            return Form(num_vars, degree, coeffs)


def random_combination(rng: random.Random, basis: Sequence[Form],
                       height: int) -> Form | None:
    """The `combination` of one `rng.randint(-height, height)` per basis
    member, drawn in order."""
    return combination([rng.randint(-height, height) for _ in basis], basis)


def combination(coeffs: Sequence[int], basis: Sequence[Form]) -> Form | None:
    """sum c_i * basis[i], or None when it is zero.

    The sum starts from the first nonzero part, never from a zero form:
    adding to a zero float form would turn -0.0 into 0.0, and roots that
    depend on a branch cut would move.
    """
    total = None
    for c, g in zip(coeffs, basis):
        if c:
            total = g.scale(c) if total is None else total + g.scale(c)
    if total is None or total.is_zero():
        return None
    return total


# -- projective points ----------------------------------------------------


def pivot_index(coords: Sequence, exact: bool) -> int:
    """Index of the coordinate that `ProjectivePoint` normalizes to 1.

    Exact coordinates pivot on the first nonzero one.  Float coordinates
    pivot on the first one within a relative rounding slack of the largest
    magnitude, so coordinates of equal magnitude (roots of unity) keep
    their pivot when the point is normalized again; a NaN in front makes
    the largest magnitude NaN, and they pivot on the first.  Every caller
    that scales by the pivot must pick it here.
    """
    if exact:
        return next(i for i, c in enumerate(coords) if c != 0)
    mags = [abs(c) for c in coords]
    top = max(mags) * (1 - _PIVOT_SLACK)
    return next((i for i, m in enumerate(mags) if m >= top), 0)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P(S_1), stored with normalized homogeneous coordinates.

    Its float views are built on first read and kept with the point: the
    complex coordinates (`as_floats`) and the pair that the chordal
    distances read (see `_floats_with_norm`).
    """

    coords: tuple

    def __post_init__(self):
        coords, exact = _normalize_coeffs(self.coords)
        if all(c == 0 for c in coords):
            raise ZeroFormError("projective point needs a nonzero coordinate vector")
        object.__setattr__(self, "coords", _divided_by_pivot(coords, exact)[0])

    def __getattr__(self, name):  # a missing float view: built on first read, kept
        if name == "_floats":
            view = complex_coords(self.coords)
        elif name == "_with_norm":
            view = _with_norm(self._floats)
        else:
            raise AttributeError(name)
        self.__dict__[name] = view
        return view

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def as_floats(self) -> tuple[complex, ...]:
        return self._floats


def _divided_by_pivot(coords: Sequence, exact: bool) -> tuple[tuple, Scalar]:
    """Coordinates divided by their pivot (see `pivot_index`), and the pivot."""
    k = pivot_index(coords, exact)
    pivot = coords[k]
    # the pivot is set to 1 outright: a complex c / c can miss 1+0j by an
    # ulp, and then normalizing again would move the other coordinates
    scaled = [c / pivot for c in coords]
    scaled[k] = Fraction(1) if exact else complex(1)
    return tuple(scaled), pivot


def normalized_point(coords: Sequence, exact: bool) -> tuple[ProjectivePoint, Scalar]:
    """The point of coordinates already on one backend, and its pivot.

    `coords` are all `Fraction` when `exact`, else all complex, and not all
    zero.  The point is the one `ProjectivePoint(coords)` gives, divided by
    the same pivot in the same way; the pivot is the coordinate it was
    divided by.  A caller that has converted its coordinates, or scales a
    coefficient by the pivot, takes both here instead of normalizing twice.
    """
    scaled, pivot = _divided_by_pivot(coords, exact)
    point = object.__new__(ProjectivePoint)
    object.__setattr__(point, "coords", scaled)
    return point, pivot


def complex_coords(values: Sequence) -> tuple[complex, ...]:
    """Coordinates as complex floats.  An exact one is numerator / denominator
    by int division: the bits of complex(Fraction), without its detour
    through the abstract base classes; a complex one is kept as it is."""
    return tuple(v if type(v) is complex
                 else complex(v.numerator / v.denominator) if isinstance(v, Fraction)
                 else complex(v)
                 for v in values)


def _norm(a: tuple[complex, ...]) -> float:
    try:
        return math.sqrt(sum(abs(x) ** 2 for x in a))
    except OverflowError:  # a square beyond the float range
        return math.inf


def _floats_with_norm(p: ProjectivePoint | Sequence) -> tuple[tuple[complex, ...], float]:
    """A point's complex coordinates with their norm, rescaled by a power of
    two where the squares would leave the float range; a `ProjectivePoint`
    keeps its pair, raw coordinates are read afresh."""
    return p._with_norm if isinstance(p, ProjectivePoint) else _with_norm(complex_coords(p))


def _with_norm(a: tuple[complex, ...]) -> tuple[tuple[complex, ...], float]:
    norm = _norm(a)
    if not _NORM_RANGE[0] <= norm <= _NORM_RANGE[1]:
        # squares, here or in a wedge, may have under- or overflowed: scale by
        # the power of two of the top entry, which is exact for normal floats
        top = max((abs(x) for x in a), default=0.0)
        if top == 0:
            raise ZeroFormError("the zero vector is not a projective point")
        shift = -math.frexp(top)[1]
        a = tuple(complex(math.ldexp(x.real, shift), math.ldexp(x.imag, shift)) for x in a)
        norm = _norm(a)
    return a, norm


def _chordal(a: tuple, na: float, b: tuple, nb: float) -> float:
    if len(a) != len(b):
        raise DimensionMismatch("points live in different spaces")
    wedge = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            wedge += abs(a[i] * b[j] - a[j] * b[i]) ** 2
    return math.sqrt(wedge) / (na * nb)


def chordal_distance(p: ProjectivePoint | Sequence, q: ProjectivePoint | Sequence) -> float:
    """Normalization-free projective distance: |p wedge q| / (|p| |q|).

    Zero exactly when the points coincide; 1 when orthogonal.  Computed in
    floats regardless of backend.
    """
    return _chordal(*_floats_with_norm(p), *_floats_with_norm(q))


def same_point(p, q, tol: float = 1e-8) -> bool:
    return chordal_distance(p, q) <= tol


def distinct_points(points: Sequence, tol: float = 1e-6) -> bool:
    """Pairwise distinctness at the library's separation tolerance.

    The floats are read once per point (a `ProjectivePoint` keeps them).
    Up to _PAIRWISE_MAX points take the scalar `_chordal` of every pair.
    More take every pairwise chordal distance in one vectorised pass, which
    only rules pairs out: a pair it does not put above 2 * tol + _WEDGE_SLACK
    is confirmed by the scalar `_chordal`, so the answer is the one of the
    pairwise definition either way.
    """
    pts = [_floats_with_norm(p) for p in points]
    if len({len(a) for a, _ in pts}) > 1:
        raise DimensionMismatch("points live in different spaces")
    if len(pts) <= _PAIRWISE_MAX:
        return not any(_chordal(*p, *q) <= tol for p, q in combinations(pts, 2))
    coords = np.array([a for a, _ in pts])
    norms = np.array([na for _, na in pts])
    wedge = np.zeros((len(pts), len(pts)))
    for i, j in combinations(range(coords.shape[1]), 2):
        # entry (p, q) is a[i] * b[j] - a[j] * b[i] for a, b = points p, q
        prod = np.multiply.outer(coords[:, i], coords[:, j])
        wedge += np.abs(prod - prod.T) ** 2
    far = np.sqrt(wedge) / np.multiply.outer(norms, norms) > 2 * tol + _WEDGE_SLACK
    return not any(_chordal(*pts[p], *pts[q]) <= tol
                   for p, q in zip(*np.nonzero(~far)) if p < q)


# -- parsing and printing -------------------------------------------------

_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COEFF_RE = re.compile(rf"^\d+/\d+$|^{_REAL}$")
# Python's complex repr: 1j, 2.5e-05j, (1+2j), (-0-1j)
_IMAG_RE = re.compile(rf"^{_REAL}j$|^\([+-]?{_REAL}[+-]{_REAL}j\)$")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
# a term's body runs up to the next sign; a sign inside a parenthesized
# complex coefficient or right after an exponent marker stays in the body.
# Plain runs and those two pieces start with different characters, so a
# failed match backtracks in linear, not exponential, time.
_BODY = r"(?=[^+\-)])[^+\-()]*(?:(?:\([^()]*\)|(?<=[\d.][eE])[+-])[^+\-()]*)*"
_TERM_RE = re.compile(rf"([+-]?)({_BODY})")
_TERMS_RE = re.compile(rf"[+-]?{_BODY}(?:[+-]{_BODY})*")


def _parse_coeff(text: str) -> Scalar:
    if _COEFF_RE.match(text):
        return Fraction(text)
    if _IMAG_RE.match(text):
        return complex(text)
    raise ParseFormError(f"malformed coefficient {text!r}")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split '-a+b-c' into [(-1,'a'), (1,'b'), (-1,'c')]."""
    if not _TERMS_RE.fullmatch(text):
        head = _TERMS_RE.match(text)
        raise ParseFormError(f"malformed input at {text[head.end() if head else 0:]!r}")
    return [(-1 if sign == "-" else 1, body) for sign, body in _TERM_RE.findall(text)]


def parse_form(text: str, num_vars: int, degree: int | None = None) -> Form:
    """Parse a homogeneous polynomial in the grammar

        term   := [coeff '*'] factor ('*' factor)*  |  coeff
        factor := 'x' index ['^' exponent]
        coeff  := integer | integer '/' integer | decimal | imaginary

    Terms are joined by '+' or '-'; whitespace is insignificant.  Decimals
    may carry an exponent ('2.5e-05') and are read exactly as rationals.
    A complex coefficient is written as Python prints a complex number
    ('1j', '(1e-05+0j)', '(1+2.5e-05j)'); it puts the whole form on the
    float backend, which is how `form_to_string` output of a float form
    reads back.  Otherwise the result is on the exact backend.
    Non-homogeneous input is rejected.  Input that cancels to zero is
    accepted when its degree can be inferred from the terms (or is
    supplied via `degree`); otherwise it is an error.
    """
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise ParseFormError("empty input")
    acc: dict[tuple[int, ...], Fraction] = {}
    seen_degree: int | None = None
    for sign, chunk in _split_terms(stripped):
        coeff = Fraction(sign)
        expo = [0] * num_vars
        saw_factor = False
        for piece in chunk.split("*"):
            if not piece:
                raise ParseFormError(f"empty factor in term {chunk!r}")
            m = _FACTOR_RE.match(piece)
            if m:
                idx = int(m.group(1))
                if idx >= num_vars:
                    raise ParseFormError(
                        f"variable x{idx} out of range for {num_vars} variables")
                expo[idx] += int(m.group(2)) if m.group(2) else 1
                saw_factor = True
            else:
                coeff *= _parse_coeff(piece)
        term_degree = sum(expo)
        if not saw_factor and coeff == 0:
            continue  # a literal zero term constrains nothing
        if seen_degree is None:
            seen_degree = term_degree
        elif seen_degree != term_degree:
            raise ParseFormError(
                f"non-homogeneous input: saw degrees {seen_degree} and {term_degree}")
        key = tuple(expo)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    if seen_degree is None:
        if degree is None:
            raise ParseFormError("cannot infer the degree of a zero form; pass degree=")
        seen_degree = degree
    if degree is not None and degree != seen_degree:
        raise ParseFormError(f"input has degree {seen_degree}, expected {degree}")
    return Form.from_dict(num_vars, seen_degree, acc)


def form_to_string(f: Form) -> str:
    """Inverse of parse_form, up to term order.

    Exact coefficients print as integers and fractions.  Every float
    coefficient prints as the repr of a complex number, real ones too
    ('(1e-05+0j)'), with signed zeros made positive, so the output
    re-parses onto the float backend to the same bits; the sign of a zero
    is the one thing lost, and parse_form's arithmetic would drop it anyway.
    """
    parts: list[str] = []
    for expo, c in f.items():
        mono = monomial_string(expo)
        if isinstance(c, Fraction):
            negative = c < 0
            mag = -c if negative else c
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
        else:
            z = complex(c)
            coeff = repr(complex(z.real + 0.0, z.imag + 0.0))
            negative = coeff.startswith("-")
            if negative:
                coeff = coeff[1:]
            body = f"{coeff}*{mono}" if mono else coeff
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    if not parts:
        return "0"
    return " ".join(parts)
