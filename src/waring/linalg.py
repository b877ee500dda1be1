"""Linear algebra on the two scalar backends.

Exact routines take matrices as rows of `int` and `Fraction` entries; any
other entry (a float, a complex, a numpy scalar) raises PreconditionError.
They decide all ranks and kernels in the library.

`exact_rank` first reads a certificate modulo the prime `RANK_PRIME`: it
reduces each entry (an int as it is, a Fraction as its numerator times the
inverse of its denominator, so no Fraction is built) and eliminates over
the residues, which stay single-digit ints.  A rank modulo the prime is at
most the rank over Q, so a full one is the answer.  A short rank, or a
denominator the prime divides, falls back to the elimination below, as
every kernel and solve does.

That elimination clears denominators row by row, reading each entry's
numerator and denominator in place, and runs fraction-free (Bareiss)
elimination with partial pivoting on the resulting integers, so every
intermediate division is exact.  Kernels and solutions back-substitute
over one integer vector and a common denominator, so the returned vector
holds the only Fractions built.

Numeric routines wrap numpy SVD / least squares and are used only where
roots have already forced the float backend.  Numeric rank cuts singular
values at `NUMERIC_RANK_TOL` relative to the largest.

`solve_columns` is the one exact-then-float span solve: it writes a target
vector in the span of given columns, by exact elimination when every entry
is exact and by column-equilibrated least squares otherwise, and reports
the rank of the columns from that same elimination or solve.  Span tests
pass `tol=SPAN_TOL`, which turns a larger float residual into a miss
(None); `_solve_weights` and `factor_rank_two_quadric` judge theirs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .errors import PreconditionError

NUMERIC_RANK_TOL = 1e-8
#: relative residual up to which a float target counts as in the span
SPAN_TOL = 1e-8
#: the modulus of `exact_rank`'s certificate, the largest prime below 2**15:
#: a product of two residues stays below 2**30, one digit of a Python int
RANK_PRIME = 32749


def _not_exact(x) -> PreconditionError:
    return PreconditionError(
        f"exact linear algebra takes int and Fraction entries, not {type(x).__name__}")


def _integer_rows(matrix: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row as primitive integers: times the lcm of its denominators,
    then divided by the gcd of the result.

    An int entry is used as it is and a Fraction through its numerator and
    denominator, read in place, so no Fraction is built.  Any other entry
    raises PreconditionError: a float has no exact value here, and a numpy
    integer would carry its fixed width into the elimination.
    """
    rows = []
    for row in matrix:
        denom = 1
        for x in row:
            if type(x) is Fraction:
                d = x.denominator
                if denom % d:
                    denom = denom // gcd(denom, d) * d
            elif type(x) is not int:
                raise _not_exact(x)
        if denom == 1:
            scaled = [x if type(x) is int else x.numerator for x in row]
        else:
            scaled = [x * denom if type(x) is int else x.numerator * (denom // x.denominator)
                      for x in row]
        g = 0
        for v in scaled:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            scaled = [v // g for v in scaled]
        rows.append(scaled)
    return rows


def _echelon(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Fraction-free row echelon form.

    Returns the integer echelon rows and the list of (row, col) pivots.
    The pivot in each column is the smallest nonzero entry in magnitude,
    which keeps the Bareiss intermediates modest.
    """
    rows = _integer_rows(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(n):
        if r >= m:
            break
        best = None
        for i in range(r, m):
            v = rows[i][c]
            if v != 0 and (best is None or abs(v) < abs(rows[best][c])):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot = rows[r][c]
        # Bareiss update must touch every lower row, zero pivot entry or
        # not, so that entries stay (k+1)-minors and the division is exact.
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = pivot
        pivots.append((r, c))
        r += 1
    return rows, pivots


def _full_rank_mod_p(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the matrix's image modulo RANK_PRIME has full rank; False
    also when the prime divides a denominator and the image is undefined.

    The image is that of the integer matrix whose rows are multiplied by
    the lcm of their denominators, a unit modulo the prime, and a minor
    of that matrix that is nonzero modulo the prime is a nonzero integer.
    So a full rank modulo the prime is the rank over Q.  The elimination
    runs on the orientation with fewer rows and stops once the columns
    left are fewer than the rows left.
    """
    p = RANK_PRIME
    inverses = {}
    rows = []
    for row in matrix:
        image = []
        for x in row:
            if type(x) is Fraction:
                v, d = x.as_integer_ratio()
                if d != 1:
                    inv = inverses.get(d)
                    if inv is None:
                        if d % p == 0:
                            return False
                        inv = inverses[d] = pow(d, -1, p)
                    v = v % p * inv
            elif type(x) is int:
                v = x
            else:
                raise _not_exact(x)
            image.append(v % p)
        rows.append(image)
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    # each row keeps only the columns not yet eliminated; slack counts the
    # pivot-free columns a full rank can still afford
    slack = len(rows[0]) - len(rows)
    while rows:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            if not slack:
                return False
            slack -= 1
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(i)
        tail, minus_inv = pivot[1:], p - pow(pivot[0], -1, p)
        updated = []
        for row in rows:
            f = row[0] * minus_inv % p
            updated.append([(a + f * b) % p for a, b in zip(row[1:], tail)] if f else row[1:])
        rows = updated
    return True


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: a full rank modulo RANK_PRIME when the matrix has one,
    else the pivot count of the Bareiss elimination `_echelon`."""
    if not matrix or not matrix[0]:
        return 0
    if _full_rank_mod_p(matrix):
        return min(len(matrix), len(matrix[0]))
    return len(_echelon(matrix)[1])


def _back_substitute(rows: list[list[int]], pivots: list[tuple[int, int]],
                     w: list[int], n: int, rhs: bool) -> list[Fraction]:
    """Fill in the pivot entries of w from the echelon rows, last pivot
    first; w holds the free entries, and with `rhs` column n of the rows
    is the right-hand side.

    The vector stays integer over one common denominator: each pivot entry
    s / p is reduced by gcd(s, p) before the denominator takes p, so no
    Fraction is built until the returned vector.
    """
    den = 1
    for r, c in reversed(pivots):
        row = rows[r]
        s = row[n] * den if rhs else 0
        for j in range(c + 1, n):
            if w[j]:
                s -= row[j] * w[j]
        p = row[c]
        g = gcd(s, p)
        s //= g
        p //= g
        if p != 1:
            den *= p
            w = [v * p for v in w]
        w[c] = s
    return [Fraction(v, den) for v in w]


def exact_nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of {v : M v = 0}, one vector per free column.

    Each basis vector sets its free column to 1 and every other free column
    to 0, then back-substitutes through the echelon rows; the result is
    exact and deterministic.
    """
    if not matrix:
        return []
    n = len(matrix[0])
    rows, pivots = _echelon(matrix)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(n):
        if fc not in pivot_cols:
            w = [0] * n
            w[fc] = 1
            basis.append(_back_substitute(rows, pivots, w, n, rhs=False))
    return basis


def exact_solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One particular solution of M x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    return exact_solve_with_rank(matrix, rhs)[0]


def exact_solve_with_rank(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[list | None, int]:
    """`exact_solve` and the rank of M (pivots left of the constants column)."""
    if not matrix:
        return None, 0
    n = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = _echelon(augmented)
    rank = sum(1 for _, c in pivots if c < n)
    if rank < len(pivots):
        return None, rank  # pivot in the constants column
    return _back_substitute(rows, pivots, [0] * n, n, rhs=True), rank


def exact_column_space_basis(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal independent set of columns (the pivot columns)."""
    if not matrix:
        return []
    return [c for _, c in _echelon(matrix)[1]]


# -- numeric --------------------------------------------------------------


def numeric_rank(matrix: np.ndarray, tol: float = NUMERIC_RANK_TOL) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def numeric_nullspace(matrix: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the right null space {v : M v ~ 0}: the right singular
    vectors whose singular values are at most NUMERIC_RANK_TOL times the largest."""
    if matrix.size == 0:
        return []
    _, s, vh = np.linalg.svd(matrix)
    cutoff = NUMERIC_RANK_TOL * (s[0] if s.size else 0.0)
    null = [np.conj(vh[i]) for i in range(vh.shape[0]) if i >= s.size or s[i] <= cutoff]
    return null


def lstsq_solve(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Least-squares solution of M x = b and the numeric rank of M, read
    off the solve's own singular values as `numeric_rank` does."""
    sol, _, _, s = np.linalg.lstsq(matrix, rhs, rcond=None)
    rank = int(np.sum(s > NUMERIC_RANK_TOL * s[0])) if s.size and s[0] != 0.0 else 0
    return sol, rank


# -- both backends ----------------------------------------------------------


def solve_columns(columns: Sequence[Sequence], target: Sequence,
                  tol: float | None = None) -> tuple[list, float, int] | None:
    """Weights x with sum_j x[j] * columns[j] = target, the residual, the rank.

    `columns` is a sequence of columns, or a complex numpy matrix that
    holds them side by side, one row per target entry, which takes the
    float path as it is.  When every entry is exact (Fraction or int) this
    is `exact_solve`: it returns (x, 0.0, rank), or None when the system is
    inconsistent.  Otherwise it is an equilibrated least-squares solve:
    each column is divided by its largest magnitude (1 for a zero or
    subnormal column, where complex division overflows), the scaled system
    is solved, and the solution is divided back, so columns of very
    different size (high powers of points) keep their digits.  The residual
    max|Mx - b| / max(1, max|b|) comes back with the numeric rank of the
    scaled matrix; with `tol` set, a residual above it (or NaN) gives None.
    A float system with an infinite or NaN entry (an exact entry past the
    float range reads as one) gives None before any LAPACK call, whose SVD
    would not converge on it.
    """
    if (not isinstance(columns, np.ndarray)
            and all(isinstance(b, (Fraction, int)) for b in target)
            and all(isinstance(x, (Fraction, int)) for col in columns for x in col)):
        matrix = [[col[r] for col in columns] for r in range(len(target))]
        x, rank = exact_solve_with_rank(matrix, list(target))
        return None if x is None else (x, 0.0, rank)
    try:
        rhs = np.array(target, dtype=complex)
        # a numpy matrix holds complex columns side by side already; numpy
        # converts an exact entry through its __float__, numerator /
        # denominator, the value complex() gives; the copy keeps the row layout
        m = (columns if isinstance(columns, np.ndarray) else
             np.array(columns, dtype=complex).reshape(len(columns), len(target)).T.copy())
    except OverflowError:  # an exact entry past the float range
        return None
    if not (np.isfinite(m).all() and np.isfinite(rhs).all()):
        return None
    scale = np.abs(m).max(axis=0)
    scale[scale < np.finfo(float).tiny] = 1.0
    x, rank = lstsq_solve(m / scale, rhs)
    x = x / scale
    residual = max(abs(r) for r in m @ x - rhs) / max(1.0, max(abs(b) for b in rhs))
    if tol is not None and not residual <= tol:  # `not <=` also catches a NaN
        return None
    return list(x), float(residual), rank
