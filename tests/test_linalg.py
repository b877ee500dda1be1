import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import linalg
from waring.apolarity import catalecticant_entries, catalecticant_rank
from waring.errors import PreconditionError
from waring.forms import Form, random_form
from waring.linalg import (
    exact_column_space_basis,
    exact_nullspace,
    exact_rank,
    exact_solve,
    exact_solve_with_rank,
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


def test_exact_rank_falls_back_where_the_image_mod_p_loses_rank_or_is_undefined(monkeypatch):
    p = linalg.RANK_PRIME
    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda m: calls.append(m) or real(m))
    # a full rank modulo p is the answer, and no elimination over Q runs
    assert exact_rank([[p + 1, 0], [Fraction(1, p + 1), 1]]) == 2 and calls == []
    # also past a column without a pivot, which a wide matrix affords
    assert exact_rank([[p, 1, 0], [0, 0, 1]]) == 2 and calls == []
    cases = [
        ([[p, 0], [0, 1]], 2),                    # rank 1 mod p, rank 2 over Q
        ([[Fraction(1, p), 1], [0, 1]], 2),       # p divides a denominator
        ([[1, 2, 3], [2, 4, 6], [-1, 0, 5]], 2),  # short over Q too
    ]
    for m, rank in cases:
        assert not linalg._full_rank_mod_p(m)
        assert exact_rank(m) == naive_rank(m) == rank
    assert calls == [m for m, _ in cases]


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
    # catalecticant ranks eliminate integer rows built from the numerators
    binary = Form(2, 24, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 2 ** 64))
                               for _ in range(25)))
    nonic = random_form(3, 9, seed=12)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda *args, **kw: built.append(1) or new(*args, **kw)))
    rank = exact_rank(m)
    cat_ranks = [catalecticant_rank(binary, 12), catalecticant_rank(nonic, 4)]
    monkeypatch.undo()
    assert built == []
    assert rank == naive_rank(m) == 5
    assert cat_ranks == [naive_rank(catalecticant_entries(binary, 12)),
                         naive_rank(catalecticant_entries(nonic, 4))] == [13, 15]


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


def test_solve_columns_takes_a_subnormal_column_unscaled():
    # dividing by a subnormal scale overflows numpy's complex division, and
    # the NaNs it left made the SVD fail with a LinAlgError
    assert solve_columns([(5e-324 + 0j,)], (0,)) == ([0j], 0.0, 1)
    # the solution 2e323 overflows: its NaN residual fails any tol
    with np.errstate(invalid="ignore"):
        assert solve_columns([(5e-324 + 0j,)], (1,), tol=1e-8) is None
    x, residual, rank = solve_columns([(5e-324 + 0j, 0j), (1.0, 1.0)], (1.0, 1.0))
    assert np.allclose(x, [0, 1]) and residual < 1e-15 and rank == 1


def test_solve_columns_takes_a_complex_matrix_as_it_is():
    # a matrix holding the columns side by side solves as the columns do,
    # bit for bit, and takes the float path even where its values are integers
    rng = np.random.default_rng(7)
    for rows, cols in ((3, 3), (5, 2), (6, 4)):
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        m[:, -1] *= 1e-6  # a small column, which the scaling brings up
        for target in (m @ rng.normal(size=cols), rng.normal(size=rows) + 0j):
            columns = [tuple(m[:, j].tolist()) for j in range(cols)]
            for tol in (None, 1e-8):
                got, want = (solve_columns(c, target.tolist(), tol=tol) for c in (m, columns))
                if want is None:
                    assert got is None
                    continue
                assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
                assert repr(got[1]) == repr(want[1]) and got[2] == want[2]
    x, residual, rank = solve_columns(np.array([[1, 0], [0, 1], [1, 1]], dtype=complex),
                                      (Fraction(2), Fraction(3), Fraction(5)))
    assert not any(isinstance(v, Fraction) for v in x)
    assert np.allclose(x, [2, 3]) and residual < 1e-15 and rank == 2


def row_by_row_system(columns, target):
    """The matrix, right-hand side and column scales of the float branch
    of `solve_columns` as it built them before: a transposed list of rows,
    each entry through complex()."""
    matrix = [[col[r] for col in columns] for r in range(len(target))]
    m = np.array([[complex(x) for x in row] for row in matrix])
    scale = np.abs(m).max(axis=0)
    scale[scale == 0] = 1.0
    return m, np.array([complex(b) for b in target]), scale


def row_by_row_solve(columns, target, tol=None):
    """The float branch of `solve_columns` on the row-by-row build."""
    m, rhs, scale = row_by_row_system(columns, target)
    x, rank = lstsq_solve(m / scale, rhs)
    x = x / scale
    residual = max(abs(r) for r in m @ x - rhs) / max(1.0, max(abs(b) for b in rhs))
    if tol is not None and residual > tol:
        return None
    return list(x), float(residual), rank


# numerators and denominators past 2**53 round when numpy converts them
_entries = st.one_of(
    st.integers(-10**20, 10**20),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**18)),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_solve_columns_matrix_build_keeps_every_bit(rows, cols, data):
    columns = [tuple(data.draw(_entries) for _ in range(rows)) for _ in range(cols)]
    target = tuple(data.draw(_entries) for _ in range(rows))
    tol = data.draw(st.sampled_from([None, 1e-8]))
    solved = []
    with patch.object(linalg, "lstsq_solve", lambda m, b: solved.append((m, b)) or lstsq_solve(m, b)):
        got = solve_columns(columns, target, tol=tol)
    matrix = [[col[r] for col in columns] for r in range(rows)]
    if all(isinstance(v, (int, Fraction)) for v in (*target, *(x for row in matrix for x in row))):
        x, rank = exact_solve_with_rank(matrix, list(target))
        assert got == (None if x is None else (x, 0.0, rank)) and not solved
        return
    # the scaled system handed to the solve, byte for byte: a column whose
    # scale is a normal float as the old build scaled it, a subnormal one
    # unscaled (the old build overflowed there); with every scale normal
    # the solution is the old one too
    m, rhs, scale = row_by_row_system(columns, target)
    normal = scale >= np.finfo(float).tiny
    scaled, handed = solved[0]
    assert scaled[:, normal].tobytes() == (m[:, normal] / scale[normal]).tobytes()
    assert scaled[:, ~normal].tobytes() == m[:, ~normal].tobytes()
    assert handed.tobytes() == rhs.tobytes()
    if not normal.all():
        return
    want = row_by_row_solve(columns, target, tol=tol)
    if want is None:
        assert got is None
        return
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
    assert repr(got[1]) == repr(want[1]) and got[2] == want[2]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.nan, 0.0), complex(1.0, np.inf)])
def test_solve_columns_gives_none_on_a_non_finite_system(bad, capfd):
    # LAPACK's SVD does not converge on such entries and writes to stderr
    columns = [[1.0 + 0j, 2.0], [bad, 1.0]]
    for tol in (None, 1e-8):
        assert solve_columns(columns, [1.0, 2.0], tol=tol) is None
        assert solve_columns(np.array(columns, dtype=complex).T.copy(), [1.0, 2.0],
                             tol=tol) is None
        assert solve_columns([[1.0, 2.0], [0.0, 1.0]], [bad, 2.0], tol=tol) is None
    # an exact entry past the float range reads as no float at all
    assert solve_columns([[Fraction(10 ** 400), 1.0], [0.0, 1.0]], [1.0, 2.0]) is None
    assert capfd.readouterr().err == ""
