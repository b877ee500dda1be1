"""The exact layer of `linalg` checked against sympy.

Matrices are at most 6 x 6 and mix ints with Fractions whose numerators
and denominators reach 2^64.  Some rows are multiples of earlier rows,
and some rows and columns are zero, so that ranks below full, free
columns and inconsistent systems all occur.  sympy's `Matrix.rank`,
`nullspace` and `gauss_jordan_solve` (the elimination behind
`Matrix.solve`) are the oracle.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from waring.linalg import exact_nullspace, exact_rank, exact_solve  # noqa: E402

BIG = 2**64
PROPERTY = settings(max_examples=50, deadline=None)

ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
ZERO = st.sampled_from([0, Fraction(0)])


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rows = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):  # a multiple of an earlier row
            j = draw(st.integers(0, i - 1))
            c = draw(ENTRY)
            rows[i] = [c * x for x in rows[j]]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [draw(ZERO) for _ in range(n)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = draw(ZERO)
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def to_fractions(vector):
    return [Fraction(int(x.p), int(x.q)) for x in vector]


@PROPERTY
@given(matrices())
def test_exact_rank_is_sympys_rank(rows):
    assert exact_rank(rows) == to_sympy(rows).rank()


@PROPERTY
@given(matrices())
def test_exact_nullspace_is_sympys_nullspace(rows):
    # both set one free column to 1 and the others to 0
    assert exact_nullspace(rows) == [to_fractions(v) for v in to_sympy(rows).nullspace()]


@PROPERTY
@given(matrices(max_cols=5), st.data())
def test_exact_solve_is_sympys_solve(rows, data):
    n = len(rows[0])
    if data.draw(st.booleans(), label="consistent"):
        x = data.draw(st.lists(ENTRY, min_size=n, max_size=n), label="x")
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)), label="rhs")
    got = exact_solve(rows, rhs)
    m, b = to_sympy(rows), to_sympy([[v] for v in rhs])
    try:
        solution, params = m.gauss_jordan_solve(b)
    except ValueError:  # no solution
        assert got is None
        return
    # free variables at zero, as exact_solve sets them
    assert got == to_fractions(solution.subs({p: 0 for p in params}))
    if not params:
        assert got == to_fractions(m.solve(b))
