"""Linear algebra on the two scalar backends.

Exact routines take matrices as lists of Fraction rows, clear denominators
row by row, and run fraction-free (Bareiss) elimination with partial
pivoting on the resulting integers, so every intermediate division is
exact.  These decide all ranks and kernels in the library.

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

NUMERIC_RANK_TOL = 1e-8
#: relative residual up to which a float target counts as in the span
SPAN_TOL = 1e-8

Row = list[Fraction]


def _integer_rows(matrix: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    rows = []
    for row in matrix:
        denom = 1
        for x in row:
            f = Fraction(x)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        scaled = [int(Fraction(x) * denom) for x in row]
        g = 0
        for x in scaled:
            g = gcd(g, abs(x))
        if g > 1:
            scaled = [x // g for x in scaled]
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


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(_echelon(matrix)[1])


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
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((Fraction(rows[r][j]) * v[j] for j in range(c + 1, n)), Fraction(0))
            v[c] = -s / Fraction(rows[r][c])
        basis.append(v)
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
    x = [Fraction(0)] * n
    for r, c in reversed(pivots):
        s = sum((Fraction(rows[r][j]) * x[j] for j in range(c + 1, n)), Fraction(0))
        x[c] = (Fraction(rows[r][n]) - s) / Fraction(rows[r][c])
    return x, rank


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


def numeric_nullspace(matrix: np.ndarray, tol: float = NUMERIC_RANK_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the right null space {v : M v ~ 0}."""
    if matrix.size == 0:
        return []
    _, s, vh = np.linalg.svd(matrix)
    cutoff = tol * (s[0] if s.size else 0.0)
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

    When every entry is exact (Fraction or int) this is `exact_solve`: it
    returns (x, 0.0, rank), or None when the system is inconsistent.
    Otherwise it is an equilibrated least-squares solve: each column is
    divided by its largest magnitude (1 for a zero column), the scaled
    system is solved, and the solution is divided back, so columns of very
    different size (high powers of points) keep their digits.  The residual
    max|Mx - b| / max(1, max|b|) comes back with the numeric rank of the
    scaled matrix; with `tol` set, a residual above it gives None.
    """
    matrix = [[col[r] for col in columns] for r in range(len(target))]
    exact = (all(isinstance(b, (Fraction, int)) for b in target)
             and all(isinstance(x, (Fraction, int)) for row in matrix for x in row))
    if exact:
        x, rank = exact_solve_with_rank(matrix, list(target))
        return None if x is None else (x, 0.0, rank)
    m = np.array([[complex(x) for x in row] for row in matrix])
    rhs = np.array([complex(b) for b in target])
    scale = np.abs(m).max(axis=0)
    scale[scale == 0] = 1.0
    x, rank = lstsq_solve(m / scale, rhs)
    x = x / scale
    residual = max(abs(r) for r in m @ x - rhs) / max(1.0, max(abs(b) for b in rhs))
    if tol is not None and residual > tol:
        return None
    return list(x), float(residual), rank
