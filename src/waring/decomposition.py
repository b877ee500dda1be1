"""Power-sum decompositions as verifiable value objects.

A decomposition stores its terms (scalar coefficient, projective point)
plus a provenance dict recording which pipeline produced it and any
sampling data needed to replay the run.  The residual lives here so every
pipeline and the certificate layer measure quality the same way.

The residual sums the powered terms in floats as one numpy product.  With
E the exponent matrix of the space (one row per monomial) and M its
multinomials, both cached per (n, d), the term points P (m x n) give the
power table pw[i, j, e] = P[i, j]^e by cumulative products, the monomial
values V[i, b] = prod_j pw[i, j, E[b, j]], and the coefficient vector
M * sum_i w_i V[i].  The sum is numpy's own reduction, not a matrix
product, so no BLAS call is made and the residual's bits do not depend on
the thread count.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .forms import Form, ProjectivePoint, is_exact_scalar, normalized_point
from .monomials import exponents, multinomials

#: residual the pipelines accept unless a caller passes its own tolerance
RESIDUAL_TOL = 1e-8


def require_float_range(f: Form) -> None:
    """PreconditionError unless every coefficient of f is a finite float: the
    residual is computed in floats, so past that range nothing is certified."""
    try:
        if all(map(cmath.isfinite, f.floats())):
            return
    except OverflowError:  # an exact coefficient that no float holds
        pass
    raise PreconditionError("a coefficient lies past the float range: no certificate")


@dataclass(frozen=True, eq=False)
class Term:
    """coeff * point^degree, with coeff a Fraction or a plain complex."""

    coeff: object
    point: ProjectivePoint

    def __post_init__(self):
        # float solvers hand back numpy scalars; keep them out of the value
        c = self.coeff
        object.__setattr__(self, "coeff", Fraction(c) if is_exact_scalar(c) else complex(c))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.coeff, Fraction) and self.point.is_exact


def term_from_vector(coeff, vector, degree: int) -> Term:
    """Build a term from an unnormalized coordinate vector.

    The point gets normalized once, by `normalized_point`; the coefficient
    absorbs the pivot it divided by, to the degree, so that
    coeff * point**degree stays equal to the original summand.
    """
    vec = list(vector)
    if all(c == 0 for c in vec):
        raise PreconditionError("term point needs a nonzero coordinate vector")
    exact = all(is_exact_scalar(c) for c in vec)
    point, pivot = normalized_point([Fraction(c) for c in vec] if exact
                                    else [complex(c) for c in vec], exact)
    return Term(coeff * pivot ** degree, point)


@dataclass(frozen=True, eq=False)
class Decomposition:
    num_vars: int
    degree: int
    terms: tuple[Term, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for t in self.terms:
            if len(t.point) != self.num_vars:
                raise PreconditionError("term point dimension mismatch")

    @property
    def size(self) -> int:
        return len(self.terms)

    @property
    def is_exact(self) -> bool:
        return all(t.is_exact for t in self.terms)

    def points(self) -> list[ProjectivePoint]:
        return [t.point for t in self.terms]

    def float_weights(self) -> list[complex]:
        """The coefficients as complex floats, read after every point's float
        view (which the point keeps).  PreconditionError when a coefficient
        or a coordinate lies past the float range: no residual is computed
        there, so nothing is certified."""
        try:
            for t in self.terms:
                t.point.as_floats()
            return [complex(t.coeff) for t in self.terms]
        except OverflowError as err:  # an exact scalar that no float holds
            raise PreconditionError(
                "a term lies past the float range: no certificate") from err

    def residual(self, f: Form) -> float:
        """max|f - sum of the powered terms| / max(1, max|f|), in floats."""
        if f.num_vars != self.num_vars or f.degree != self.degree:
            raise PreconditionError("decomposition does not match the form's space")
        n, d = self.num_vars, self.degree
        expo, multi = _power_sum_table(n, d)
        weights = np.array(self.float_weights(), dtype=complex)
        points = np.array([t.point.as_floats() for t in self.terms],
                          dtype=complex).reshape(len(self.terms), n)
        powers = np.empty(points.shape + (d + 1,), dtype=complex)
        powers[..., 0] = 1.0
        powers[..., 1:] = points[..., None]
        np.cumprod(powers, axis=2, out=powers)
        values = powers[:, 0, expo[:, 0]]
        for j in range(1, n):
            values = values * powers[:, j, expo[:, j]]
        total = multi * (weights[:, None] * values).sum(axis=0)
        target = np.array(f.floats(), dtype=complex)
        return float(np.abs(target - total).max()) / max(1.0, f.max_abs())

    def meets_tolerance(self, f: Form, tol: float = RESIDUAL_TOL) -> bool:
        """Whether the residual against f is at most `tol`, the tolerance
        `verify_decomposition` checks at.

        The residual is stored in provenance["residual"] either way.
        """
        res = self.residual(f)
        self.provenance["residual"] = res
        return res <= tol


@lru_cache(maxsize=None)
def _power_sum_table(num_vars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent matrix (one row per monomial) and the multinomials, as
    floats, of the space of forms of this degree."""
    return (np.array(exponents(num_vars, degree), dtype=np.intp).reshape(-1, num_vars),
            np.array(multinomials(num_vars, degree), dtype=float))
