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

Points of the projective space P(S_1) are `ProjectivePoint`s.  Exact points
normalize their first nonzero coordinate to 1; float points normalize the
first coordinate of largest magnitude (up to a relative 1e-12) to 1.  The
pivot becomes exactly 1, so normalizing a normalized point changes no bit.
`complex_coords` turns exact coordinates into floats by the same int
division as the view of an exact form.  Comparisons use a
normalization-free chordal distance, so they do not depend on which
coordinate was scaled.  `distinct_points` takes all the pairwise
distances in one vectorised pass, which only prefilters: every pair it
puts within 2 * tol (plus a rounding slack) is confirmed by the scalar
distance, so its answer is that of the pairwise definition.

`random_combination` is the one integer sampler: every randomized search
draws its generic members of a linear system through it.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
        return Form._trusted(self.num_vars, self.degree, _floats(self), False)

    # -- inspection -------------------------------------------------------

    def coeff(self, expo: tuple[int, ...]) -> Scalar:
        return self.coeffs[index_of(tuple(expo))]

    def items(self):
        """Yield (exponent, coefficient) pairs for nonzero coefficients."""
        for expo, c in zip(exponents(self.num_vars, self.degree), self.coeffs):
            if c != 0:
                yield expo, c

    def is_zero(self, tol: float = FLOAT_ZERO_TOL) -> bool:
        if self.is_exact:
            return not any(self._num)
        return all(abs(c) <= tol for c in self.coeffs)

    def max_abs(self) -> float:
        return max(map(abs, _floats(self)), default=0.0)

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
        out = tuple(op(x, y) for x, y in zip(_floats(self), _floats(other)))
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
            return Form._trusted(self.num_vars, self.degree,
                                 tuple(complex(c * scalar) for c in self.coeffs), False)
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
        exact = self._exact and other._exact
        if exact:
            a, b = self._num, other._num
        else:
            a, b = _floats(self), _floats(other)
        out = [0 if exact else 0j] * space_dim(n, degree)
        right = [(ib, cb) for ib, cb in enumerate(b) if cb != 0]
        for ca, row in zip(a, product_table(n, self.degree, other.degree)):
            if ca != 0:
                for ib, cb in right:
                    out[row[ib]] += ca * cb
        return (Form._exact_over(n, degree, out, self._den * other._den) if exact
                else Form._trusted(n, degree, tuple(out), False))


def _numerators(coeffs: tuple) -> tuple[list[int], int]:
    """Exact coefficients as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _floats(form: Form) -> tuple:
    """The coefficients as complex numbers: the kept view of an exact form."""
    return form._cplx if form._exact else form.coeffs


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
        tc, fc = _floats(t), _floats(f)
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
    if type(coeff) is complex and all(type(p) is complex for p in point):
        return Form._trusted(n, degree, tuple(coeffs), False)  # every term is complex already
    return Form._trusted(n, degree, *_normalize_coeffs(coeffs))


def evaluate(f: Form, point: Sequence) -> Scalar:
    """Evaluate f at coordinates (substituting x_i := point[i])."""
    if len(point) != f.num_vars:
        raise DimensionMismatch("point length must match variable count")
    total = Fraction(0) if f.is_exact and all(is_exact_scalar(p) for p in point) else 0j
    for expo, c in f.items():
        term = c
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
    """
    if len(images) != f.num_vars:
        raise DimensionMismatch("need one image per variable")
    m = images[0].num_vars
    e = images[0].degree
    for g in images:
        if g.num_vars != m or g.degree != e:
            raise DimensionMismatch("images must share variable count and degree")
    exact = f.is_exact and all(g.is_exact for g in images)
    # memoized powers of each image form, starting at the constant 1
    one = Form(m, 0, (Fraction(1),))
    powers: list[list[Form]] = [[one] for _ in images]
    result = Form.zero(m, f.degree * e, exact=exact)
    for expo, c in f.items():
        term = Form(m, 0, (c,))
        for i, k in enumerate(expo):
            while len(powers[i]) <= k:
                powers[i].append(powers[i][-1] * images[i])
            term = term * powers[i][k]
        result = result + term
    return result


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
    """sum c_i * basis[i] with integers c_i uniform in [-height, height].

    Draws exactly one `rng.randint` per basis member, in order, and returns
    None when the combination is zero.  The sum starts from the first
    nonzero part, never from a zero form: adding to a zero float form would
    turn -0.0 into 0.0, and roots that depend on a branch cut would move.
    """
    coeffs = [rng.randint(-height, height) for _ in basis]
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
    their pivot when the point is normalized again.  Every caller that
    scales by the pivot must pick it here.
    """
    if exact:
        return next(i for i, c in enumerate(coords) if c != 0)
    mags = [abs(c) for c in coords]
    top = max(mags) * (1 - _PIVOT_SLACK)
    return next(i for i, m in enumerate(mags) if m >= top)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P(S_1), stored with normalized homogeneous coordinates."""

    coords: tuple

    def __post_init__(self):
        coords, exact = _normalize_coeffs(self.coords)
        if all(c == 0 for c in coords):
            raise ZeroFormError("projective point needs a nonzero coordinate vector")
        k = pivot_index(coords, exact)
        # the pivot is set to 1 outright: a complex c / c can miss 1+0j by
        # an ulp, and then normalizing again would move the other coordinates
        scaled = [c / coords[k] for c in coords]
        scaled[k] = Fraction(1) if exact else complex(1)
        object.__setattr__(self, "coords", tuple(scaled))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def as_floats(self) -> tuple[complex, ...]:
        return complex_coords(self.coords)


def complex_coords(values: Sequence) -> tuple[complex, ...]:
    """Coordinates as complex floats.  An exact one is numerator / denominator
    by int division: the bits of complex(Fraction), without its detour
    through the abstract base classes."""
    return tuple(complex(v.numerator / v.denominator) if isinstance(v, Fraction) else complex(v)
                 for v in values)


def _norm(a: tuple[complex, ...]) -> float:
    try:
        return math.sqrt(sum(abs(x) ** 2 for x in a))
    except OverflowError:  # a square beyond the float range
        return math.inf


def _floats_with_norm(p: ProjectivePoint | Sequence) -> tuple[tuple[complex, ...], float]:
    a = p.as_floats() if isinstance(p, ProjectivePoint) else complex_coords(p)
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

    The floats are made once, and one vectorised pass takes every pairwise
    chordal distance.  That pass only rules pairs out: a pair it does not
    put above 2 * tol + _WEDGE_SLACK is confirmed by the scalar `_chordal`,
    so the answer is the one of the pairwise definition.
    """
    pts = [_floats_with_norm(p) for p in points]
    if len(pts) < 2:
        return True
    if len({len(a) for a, _ in pts}) > 1:
        raise DimensionMismatch("points live in different spaces")
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
