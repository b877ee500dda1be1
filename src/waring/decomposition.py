"""Power-sum decompositions as verifiable value objects.

A decomposition stores its terms (scalar coefficient, projective point)
plus a provenance dict recording which pipeline produced it and any
sampling data needed to replay the run.  Synthesis and residual live
here so every pipeline and the certificate layer measure quality the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError
from .forms import (Form, ProjectivePoint, is_exact_scalar, pivot_index,
                    power_of_linear)

#: residual the pipelines accept unless a caller passes its own tolerance
RESIDUAL_TOL = 1e-8


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

    The point gets normalized; the coefficient absorbs pivot**degree so
    that coeff * point**degree stays equal to the original summand.  The
    pivot comes from `pivot_index`, the rule ProjectivePoint normalizes by.
    """
    vec = list(vector)
    if all(c == 0 for c in vec):
        raise PreconditionError("term point needs a nonzero coordinate vector")
    exact = all(is_exact_scalar(c) for c in vec)
    vec = [Fraction(c) for c in vec] if exact else [complex(c) for c in vec]
    pivot = vec[pivot_index(vec, exact)]
    return Term(coeff * pivot ** degree, ProjectivePoint(tuple(vec)))


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

    def synthesize(self) -> Form:
        """Float sum of the powered terms."""
        total = Form.zero(self.num_vars, self.degree).to_float()
        for t in self.terms:
            total = total + power_of_linear(t.point.as_floats(), self.degree,
                                            complex(t.coeff))
        return total

    def residual(self, f: Form) -> float:
        if f.num_vars != self.num_vars or f.degree != self.degree:
            raise PreconditionError("decomposition does not match the form's space")
        diff = f.to_float() - self.synthesize()
        return diff.max_abs() / max(1.0, f.max_abs())

    def meets_tolerance(self, f: Form, tol: float = RESIDUAL_TOL) -> bool:
        """Whether the residual against f is at most `tol`, the tolerance
        `verify_decomposition` checks at.

        The residual is stored in provenance["residual"] either way.
        """
        res = self.residual(f)
        self.provenance["residual"] = res
        return res <= tol
