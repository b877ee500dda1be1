"""Apolarity: catalecticant matrices and the apolar ideal.

The partial polarization of a degree-d form f at step delta is the linear
map S^delta -> S_(d-delta), t |-> contract(t, f).  Its matrix here has rows
indexed by the dual monomials of S^delta and columns by the monomials of
S_(d-delta); the entry at (m, m') is the coefficient of m' in contract(m, f),
which works out to f_(m+m') times the falling factorial of (m+m') over m.
The row orientation is fixed so certificates reproduce byte for byte.

Ranks and kernels of these matrices decide border rank (binary), essential
variables, and the catalecticant lower bound for Waring rank; all of that
runs on the exact backend.  Float pipelines use `numeric_catalecticant`
and make their own tolerance calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ZeroFormError
from .forms import Form, DualForm
from .linalg import exact_column_space_basis, exact_nullspace, exact_rank
from .monomials import exponents, falling_product, index_of


def _entry(f: Form, row: tuple[int, ...], col: tuple[int, ...]):
    beta = tuple(a + b for a, b in zip(row, col))
    return f.coeffs[index_of(beta)] * falling_product(beta, row)  # never zero: beta >= row


def _entries(f: Form, delta: int) -> list[list]:
    """Rows contract(m, f) of the delta-th catalecticant, m a dual monomial, as lists:
    freed short tuples would pile up on the interpreter's free lists (resident memory)."""
    cols = exponents(f.num_vars, f.degree - delta)
    return [[_entry(f, r, c) for c in cols] for r in exponents(f.num_vars, delta)]


@dataclass(frozen=True)
class CatalecticantMatrix:
    """Exact partial polarization with its rank and kernel precomputed."""

    form: Form
    delta: int
    row_monomials: tuple[tuple[int, ...], ...]
    col_monomials: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[Fraction, ...], ...]
    rank: int
    kernel: tuple[DualForm, ...]


def _exact_entries(f: Form, delta: int) -> list[list[Fraction]]:
    if not f.is_exact:
        raise PreconditionError("catalecticant ranks require the exact backend")
    if not 0 <= delta <= f.degree:
        raise PreconditionError(f"delta must lie in 0..{f.degree}, got {delta}")
    return _entries(f, delta)


def catalecticant_rank(f: Form, delta: int) -> int:
    """`catalecticant(f, delta).rank`, without the kernel's back-substitution."""
    return exact_rank(_exact_entries(f, delta))


def catalecticant(f: Form, delta: int) -> CatalecticantMatrix:
    """The delta-th catalecticant of an exact form, with rank and kernel.

    The kernel consists of the dual degree-delta forms annihilating f: the
    degree-delta piece of the apolar ideal.
    """
    entries = _exact_entries(f, delta)
    # kernel vectors live on the row side: solve M^T v = 0
    kernel_vectors = exact_nullspace([list(column) for column in zip(*entries)])
    kernel = tuple(Form(f.num_vars, delta, tuple(v)) for v in kernel_vectors)
    return CatalecticantMatrix(
        form=f, delta=delta, row_monomials=exponents(f.num_vars, delta),
        col_monomials=exponents(f.num_vars, f.degree - delta), entries=tuple(map(tuple, entries)),
        rank=len(entries) - len(kernel_vectors), kernel=kernel,
    )


def numeric_catalecticant(f: Form, delta: int) -> np.ndarray:
    """Float catalecticant matrix, same orientation as the exact one."""
    return np.array([[complex(x) for x in row] for row in _entries(f, delta)],
                    dtype=complex)


def apolar_component(f: Form, degree: int) -> list[DualForm]:
    """Basis of the degree-`degree` component of the apolar ideal of f.

    Beyond deg f every dual form annihilates, so the full monomial basis
    comes back.
    """
    if f.is_zero():
        raise ZeroFormError("the apolar ideal of the zero form is everything")
    if degree > f.degree:
        basis = []
        for expo in exponents(f.num_vars, degree):
            basis.append(Form.from_dict(f.num_vars, degree, {expo: Fraction(1)}))
        return basis
    return list(catalecticant(f, degree).kernel)


def apolar_initial_degree(f: Form) -> int:
    """Smallest e >= 1 whose apolar component is nonzero.

    For binary forms this is the border rank b, and it is the rank of the
    middle catalecticant, so one rank-only elimination finds it.  The
    apolar ideal of a binary form of degree d is a complete intersection
    with generators of degrees b <= d + 2 - b, so the Hilbert function of
    its apolar algebra is rank Cat(delta) = min(delta + 1, b, d + 1 - delta).
    At delta = d // 2 the two outer terms are at least d // 2 + 1 >= b.
    Forms in more variables scan e = 1, 2, ... for the first kernel.
    """
    if f.is_zero():
        raise ZeroFormError("zero form has no apolar initial degree")
    if f.num_vars == 2:
        return catalecticant_rank(f, f.degree // 2)
    for e in range(1, f.degree + 2):
        if e > f.degree:
            return e  # everything annihilates beyond the degree
        if catalecticant(f, e).kernel:
            return e
    raise AssertionError("unreachable: top degree always has a kernel")


def essential_variables(f: Form) -> int:
    """Number of independent linear forms needed to write f."""
    if f.is_zero():
        return 0
    return catalecticant_rank(f, 1)


def essential_subspace(f: Form) -> list[list[Fraction]]:
    """Exact basis (coordinate vectors in S_1) of the span of the
    (d-1)-fold partial derivatives of f: the smallest subspace whose
    symmetric power contains f."""
    if f.is_zero():
        return []
    matrix = _entries(f, f.degree - 1)
    transpose = [list(column) for column in zip(*matrix)]
    keep = exact_column_space_basis(transpose)
    return [matrix[i] for i in keep]


def rank_lower_bound(f: Form) -> int:
    """max_delta rank of the delta-th catalecticant: a Waring rank bound."""
    if f.is_zero():
        return 0
    return max((rank for _, rank in cat_rank_table(f)), default=1)


def cat_rank_table(f: Form) -> list[tuple[int, int]]:
    """[(delta, rank)] for delta = 1..d-1, as recorded in certificates.

    Cat(d - delta) is the transpose of Cat(delta) up to invertible diagonal
    scalings, so only delta <= d // 2 is eliminated.  Binary forms still scan
    every delta: their table is to come from one rank (ROADMAP item 2) once
    the benchmark's memory reading stops growing with its pass count.
    """
    d = f.degree
    if d <= 1:
        return []
    if f.num_vars == 2:
        return [(delta, catalecticant_rank(f, delta)) for delta in range(1, d)]
    half = [catalecticant_rank(f, delta) for delta in range(1, d // 2 + 1)]
    return [(delta, half[min(delta, d - delta) - 1]) for delta in range(1, d)]
