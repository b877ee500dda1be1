import random
from fractions import Fraction

import numpy as np
import pytest

from waring.errors import PreconditionError
from waring.linalg import (
    exact_column_space_basis,
    exact_nullspace,
    exact_rank,
    exact_solve,
    lstsq_solve,
    numeric_nullspace,
    numeric_rank,
    solve_columns,
)


def naive_rank(matrix):
    """Textbook Gaussian elimination over Fraction, as an oracle.

    The module uses fraction-free (Bareiss-style) elimination; this one
    divides eagerly.  Agreement over random integer matrices pins both.
    """
    m = [list(map(Fraction, row)) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_exact_rank_against_naive_elimination():
    rng = random.Random(4)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-9, 9)) for _ in range(cols)]
             for _ in range(rows)]
        assert exact_rank(m) == naive_rank(m)


def test_exact_rank_with_forced_dependencies():
    rng = random.Random(5)
    for _ in range(30):
        base = [[Fraction(rng.randint(-9, 9)) for _ in range(5)]
                for _ in range(2)]
        # stack random combinations of two rows: rank stays <= 2
        m = list(base)
        for _ in range(3):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m.append([a * x + b * y for x, y in zip(base[0], base[1])])
        r = exact_rank(m)
        assert r == naive_rank(m) <= 2


def test_nullspace_vectors_annihilate():
    rng = random.Random(6)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-6, 6)) for _ in range(cols)]
             for _ in range(rows)]
        basis = exact_nullspace(m)
        assert len(basis) == cols - exact_rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # basis is independent
        if basis:
            assert exact_rank(basis) == len(basis)


def test_exact_solve_consistent_and_inconsistent():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert exact_solve(m, [Fraction(3), Fraction(6)]) is not None
    assert exact_solve(m, [Fraction(3), Fraction(7)]) is None
    sol = exact_solve([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
                      [Fraction(4), Fraction(9)])
    assert sol == [Fraction(2), Fraction(3)]


def test_exact_solve_overdetermined():
    # 3 equations, 2 unknowns, consistent by construction
    rng = random.Random(7)
    for _ in range(20):
        x = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))]
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(3)]
        rhs = [row[0] * x[0] + row[1] * x[1] for row in m]
        sol = exact_solve(m, rhs)
        assert sol is not None
        for row, b in zip(m, rhs):
            assert row[0] * sol[0] + row[1] * sol[1] == b


def test_column_space_basis_indices():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(7)]]
    picks = exact_column_space_basis(m)
    assert picks == [0, 2]  # column 1 is twice column 0


@pytest.mark.parametrize("bad", [0.5, 1.0, 2j, np.float64(0.5), np.int64(2), "1"])
def test_exact_routines_take_only_int_and_fraction_entries(bad):
    m = [[Fraction(1, 3), 2, Fraction(0)], [1, bad, Fraction(5, 7)]]
    for call in (lambda: exact_rank(m), lambda: exact_nullspace(m),
                 lambda: exact_column_space_basis(m), lambda: exact_solve(m, [1, 2]),
                 lambda: exact_solve([[1, 2, 3]], [bad])):  # in the right-hand side
        with pytest.raises(PreconditionError):
            call()


def test_exact_rank_builds_no_fraction(monkeypatch):
    # rows are cleared by reading numerators and denominators in place
    rng = random.Random(12)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 2 ** 64)) for _ in range(5)]
         for _ in range(4)]
    m += [[Fraction(rng.randint(-9, 9)) for _ in range(5)], [3, Fraction(1, 2), 0, -1, 7]]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda *args, **kw: built.append(1) or new(*args, **kw)))
    rank = exact_rank(m)
    monkeypatch.undo()
    assert built == []
    assert rank == naive_rank(m) == 5


def test_numeric_rank_detects_near_dependence():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 1)) @ rng.normal(size=(1, 4))
    b = rng.normal(size=(6, 1)) @ rng.normal(size=(1, 4))
    m = a + b
    assert numeric_rank(m) == 2
    # moderate column scaling stays within the relative tolerance
    m[:, 0] *= 1e3
    m[:, 2] *= 1e-2
    assert numeric_rank(m) == 2
    # sub-tolerance noise does not inflate the rank
    m += 1e-13 * rng.normal(size=m.shape)
    assert numeric_rank(m) == 2


def test_numeric_nullspace_orthonormal():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 6))
    basis = numeric_nullspace(m)
    assert len(basis) == 3
    for v in basis:
        assert np.max(np.abs(m @ v)) < 1e-10
    g = np.array([[abs(np.vdot(u, v)) for v in basis] for u in basis])
    assert np.max(np.abs(g - np.eye(3))) < 1e-10


def test_lstsq_matches_exact_on_square_systems():
    rng = random.Random(10)
    for _ in range(10):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        if exact_rank(m) < 3:
            continue
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        sol = exact_solve(m, rhs)
        fsol, rank = lstsq_solve(np.array(m, dtype=float), np.array(rhs, dtype=float))
        assert max(abs(float(a) - b) for a, b in zip(sol, fsol)) < 1e-9
        assert rank == 3


def test_lstsq_rank_is_the_numeric_rank():
    rng = np.random.default_rng(11)
    full = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    deficient = rng.normal(size=(7, 2)) @ rng.normal(size=(2, 5))
    near = deficient + 1e-13 * rng.normal(size=deficient.shape)
    for m in (full, deficient, near, np.zeros((3, 2))):
        _, rank = lstsq_solve(m, np.ones(m.shape[0]))
        assert rank == numeric_rank(m)
    assert [lstsq_solve(m, np.ones(7))[1] for m in (full, deficient, near)] == [4, 2, 2]


def test_solve_columns_exact_consistent():
    columns = [(1, 0, 1), (0, Fraction(1, 2), 1)]
    x, residual, rank = solve_columns(columns, (Fraction(2), Fraction(3, 2), Fraction(5)))
    assert x == [Fraction(2), Fraction(3)]
    assert all(isinstance(v, Fraction) for v in x)
    assert residual == 0.0 and rank == 2


def test_solve_columns_exact_inconsistent_is_none():
    assert solve_columns([(1, 0, 1), (0, 1, 1)], (Fraction(2), Fraction(3), Fraction(6))) is None


def test_solve_columns_float_reports_the_residual():
    columns = [(1.0, 0.0, 0.0), (0.0, 1j, 0.0)]
    x, residual, rank = solve_columns(columns, (1.0, 2j, 0.0))
    assert np.allclose(x, [1.0, 2.0]) and residual < 1e-15 and rank == 2
    # off the span: least squares drops the third coordinate, and the
    # residual is max|Mx - b| / max(1, max|b|) = 0.5 / 2
    x, residual, rank = solve_columns(columns, (Fraction(1), 2.0, 0.5))
    assert np.allclose(x, [1.0, -2j]) and rank == 2
    assert abs(residual - 0.25) < 1e-15
