import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import apolarity, linalg
from waring.apolarity import (
    apolar_component,
    apolar_initial_degree,
    cat_rank_table,
    catalecticant,
    catalecticant_rank,
    essential_subspace,
    essential_variables,
    numeric_catalecticant,
    rank_lower_bound,
)
from waring.binary import border_rank_binary, open_rank_binary, rank_binary
from waring.errors import PreconditionError, ZeroFormError
from waring.forms import Form, contract, parse_form, power_of_linear, random_form
from waring.linalg import _integer_rows, exact_nullspace, exact_rank
from waring.monomials import exponents, falling_product, index_of, space_dim
from waring.quartic import witness_quartic


def test_catalecticant_frozen_binary_example():
    # x0^3 x1 + x1^4, delta = 2: rows y0^2, y0 y1, y1^2 against cols
    # x0^2, x0 x1, x1^2.  Entries worked out by hand with falling factorials.
    f = parse_form("x0^3*x1 + x1^4", 2)
    cat = catalecticant(f, 2)
    assert cat.entries == (
        (Fraction(0), Fraction(6), Fraction(0)),
        (Fraction(3), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(12)),
    )
    assert cat.rank == 3
    assert cat.kernel == ()


def test_catalecticant_frozen_ternary_example():
    # f = x0^2 x1 on three variables, delta = 1.  Rows y0, y1, y2; columns
    # the six quadratic monomials in lex-descending order.
    f = parse_form("x0^2*x1", 3)
    cat = catalecticant(f, 1)
    cols = cat.col_monomials
    assert cols == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # y0 . f = 2 x0 x1, y1 . f = x0^2, y2 . f = 0
    expected = [
        {(1, 1, 0): 2},
        {(2, 0, 0): 1},
        {},
    ]
    for row, want in zip(cat.entries, expected):
        got = {c: x for c, x in zip(cols, row) if x != 0}
        assert got == {k: Fraction(v) for k, v in want.items()}
    assert cat.rank == 2
    assert len(cat.kernel) == 1
    # kernel generator is y2 up to scale
    (k,) = cat.kernel
    nz = [(e, c) for e, c in zip((( 1, 0, 0), (0, 1, 0), (0, 0, 1)), k.coeffs) if c != 0]
    assert len(nz) == 1 and nz[0][0] == (0, 0, 1)


def test_kernel_annihilates_form():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.choice([2, 3])
        d = rng.randint(2, 5)
        f = random_form(n, d, seed=rng.randint(0, 10**6))
        if f.is_zero():
            continue
        for delta in range(1, d):
            cat = catalecticant(f, delta)
            for t in cat.kernel:
                assert contract(t, f).is_zero()
            # rank + kernel size fills the row space
            assert cat.rank + len(cat.kernel) == len(cat.row_monomials)


def test_catalecticant_middle_scaled_symmetry():
    # with the falling-factorial normalization the middle catalecticant
    # satisfies m[r][c] * c! == m[c][r] * r!  (both equal coeff * (r+c)!)
    import math

    def mfact(e):
        out = 1
        for a in e:
            out *= math.factorial(a)
        return out

    f = random_form(3, 4, seed=99)
    cat = catalecticant(f, 2)
    m = cat.entries
    mons = cat.row_monomials
    assert mons == cat.col_monomials
    for i in range(len(m)):
        for j in range(len(m)):
            assert m[i][j] * mfact(mons[j]) == m[j][i] * mfact(mons[i])


def test_numeric_catalecticant_matches_exact():
    f = random_form(3, 5, seed=21)
    for delta in (1, 2, 3, 4):
        exact = np.array(catalecticant(f, delta).entries, dtype=complex)
        approx = numeric_catalecticant(f, delta)
        assert np.max(np.abs(exact - approx)) < 1e-12


def reference_numeric_catalecticant(f, delta):
    """The entrywise float catalecticant: complex(c * falling product), one entry at a time."""
    rows = exponents(f.num_vars, delta)
    cols = exponents(f.num_vars, f.degree - delta)
    out = []
    for r in rows:
        row = []
        for c in cols:
            beta = tuple(a + b for a, b in zip(r, c))
            row.append(complex(f.coeffs[index_of(beta)] * falling_product(beta, r)))
        out.append(row)
    return np.array(out, dtype=complex)


def float_form(num_vars, degree, seed):
    """A float form with signed zeros, tiny, huge and complex coefficients."""
    rng = random.Random(seed)
    parts = [0.0, -0.0, 1.0, -2.5, 1e-300, -3e300, 0.1]
    coeffs = [complex(rng.choice(parts + [rng.uniform(-9, 9)]),
                      rng.choice(parts + [rng.uniform(-9, 9)]))
              for _ in exponents(num_vars, degree)]
    return Form(num_vars, degree, tuple(coeffs))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # -3e300 on purpose
@pytest.mark.parametrize("num_vars, degree", [(2, 40), (3, 9), (3, 4)])
def test_numeric_catalecticant_has_the_bits_of_the_entrywise_products(num_vars, degree):
    # binary degree 40 has falling products beyond 2^53, which round to float
    assert falling_product((40, 0), (20, 0)) > 2 ** 53
    for seed in range(3):
        f = float_form(num_vars, degree, seed)
        for delta in range(degree + 1):
            got = numeric_catalecticant(f, delta)
            want = reference_numeric_catalecticant(f, delta)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_catalecticant_rejects_float_backend_and_bad_delta():
    f = parse_form("x0^2 + x1^2", 2).to_float()
    with pytest.raises(PreconditionError):
        catalecticant(f, 1)
    g = parse_form("x0^2 + x1^2", 2)
    with pytest.raises(PreconditionError):
        catalecticant(g, 3)


def test_apolar_component_beyond_degree_is_everything():
    f = parse_form("x0^2", 2)
    basis = apolar_component(f, 3)
    assert len(basis) == 4  # all cubic dual monomials
    for t in basis:
        assert t.degree == 3


def test_apolar_component_zero_form():
    z = Form(2, 3, (Fraction(0),) * 4)
    with pytest.raises(ZeroFormError):
        apolar_component(z, 1)


def test_apolar_initial_degree_binary_border_rank():
    # x0^d: degree 1 (y1 annihilates)
    assert apolar_initial_degree(parse_form("x0^5", 2)) == 1
    # x0^3 x1: smallest annihilator is y1^2, so 2
    assert apolar_initial_degree(parse_form("x0^3*x1", 2)) == 2
    # generic binary quartic: 3
    f = parse_form("x0^4 + x0^3*x1 + 3*x1^4", 2)
    assert apolar_initial_degree(f) == 3


def test_apolar_initial_degree_matches_kernel_scan():
    rng = random.Random(14)
    for _ in range(20):
        f = random_form(2, rng.randint(2, 8), seed=rng.randint(0, 10**6))
        if f.is_zero():
            continue
        e = apolar_initial_degree(f)
        for delta in range(1, e):
            assert not catalecticant(f, delta).kernel
        if e <= f.degree:
            assert catalecticant(f, e).kernel


@pytest.mark.parametrize("text, n, expected", [
    ("x0^2 + x1^2 + x2^2", 3, 2),
    ("x0^3 + x1^3 + x2^3", 3, 2),
    ("x0*x1*x2", 3, 2),
    ("x0^4", 3, 1),
    ("3*x0^5", 1, 6),
])
def test_apolar_initial_degree_beyond_two_variables(text, n, expected):
    assert apolar_initial_degree(parse_form(text, n)) == expected


@pytest.mark.parametrize("seed", range(5))
def test_ternary_initial_degree_is_the_first_catalecticant_kernel(seed):
    f = random_form(3, 6, seed)
    first = next(e for e in range(1, f.degree + 1) if catalecticant(f, e).kernel)
    assert apolar_initial_degree(f) == first


def scan_initial_degree(f):
    """Reference: the first e >= 1 whose catalecticant has a kernel."""
    for e in range(1, f.degree + 1):
        if catalecticant(f, e).kernel:
            return e
    return f.degree + 1  # everything annihilates beyond the degree


def scan_rank(f, b, sympy):
    """Binary rank from the scanned b: b when the degree-b generator (or a
    generic pencil member, when 2b = d + 2) is squarefree, else d + 2 - b."""
    d = f.degree
    if 2 * b == d + 2:
        return b
    (gen,) = catalecticant(f, b).kernel
    x, y = sympy.symbols("x y")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** (b - j) * y ** j
               for j, c in enumerate(gen.coeffs))
    _, factors = sympy.Poly(poly, x, y).sqf_list()
    return b if all(m == 1 for _, m in factors) else d + 2 - b


def monomial(a, b):
    return Form.from_dict(2, a + b, {(a, b): 1})


@st.composite
def binary_forms(draw):
    """Binary forms of degree 0..24: random, planted sums of powers (so the
    initial degree spreads below the generic value), some with a tangent
    term x^(d-1) y (whose double root puts the rank at d + 2 - b), and
    special forms."""
    d = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["random", "planted", "special"]))
    if kind == "random":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
        f = Form(2, d, tuple(Fraction(c) for c in coeffs))
    elif kind == "planted":
        f = monomial(d - 1, 1).scale(draw(st.integers(0, 2))) if d else Form.zero(2, 0)
        for _ in range(draw(st.integers(1, d // 2 + 2))):
            point = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            f = f + power_of_linear(point, d, coeff=draw(st.integers(-2, 2)))
    else:
        a = draw(st.integers(0, d))
        f = draw(st.sampled_from([
            monomial(d, 0), monomial(max(d - 1, 0), min(d, 1)), monomial(a, d - a),
            monomial(d, 0) + monomial(0, d), power_of_linear((1, 1), d)]))
    if f.is_zero():
        f = monomial(d, 0)
    return f


@settings(max_examples=120, deadline=None)
@given(binary_forms())
def test_binary_initial_degree_is_the_kernel_scan(f):
    sympy = pytest.importorskip("sympy")
    b = scan_initial_degree(f)
    d = f.degree
    assert apolar_initial_degree(f) == b
    assert border_rank_binary(f) == b
    assert open_rank_binary(f) == d + 2 - b
    assert rank_binary(f) == scan_rank(f, b, sympy)
    # the Hilbert function of the apolar algebra of a binary form
    assert cat_rank_table(f) == [(delta, min(delta + 1, b, d + 1 - delta))
                                 for delta in range(1, d)]


@st.composite
def weighted_row_forms(draw):
    """Binary forms up to degree 24 and ternary up to degree 9: dense with
    zero coefficients and denominators up to 2^64, pure powers, and forms
    divisible by a power of x1 (binary roots at infinity)."""
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 24 if n == 2 else 9))
    scalar = st.one_of(st.just(0), st.builds(Fraction, st.integers(-10**6, 10**6),
                                             st.integers(1, 2 ** 64)))
    kind = draw(st.sampled_from(["dense", "power", "x1"]))
    if kind == "power":
        point = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return power_of_linear(point, d, coeff=draw(scalar))
    k = draw(st.integers(1, d)) if kind == "x1" else 0
    rest = Form(n, d - k, tuple(draw(st.lists(scalar, min_size=space_dim(n, d - k),
                                              max_size=space_dim(n, d - k)))))
    return Form.from_dict(n, k, {(0, k) + (0,) * (n - 2): 1}) * rest


@settings(max_examples=150, deadline=None)
@given(weighted_row_forms(), st.data())
def test_integer_rows_agree_with_the_reference_entries(f, data):
    # Cat(delta) = G(delta) * diag(1 / (den * m'!)): same rank, and the same
    # primitive rows of Cat(delta) transposed, hence the same kernel Fractions
    delta = data.draw(st.integers(0, f.degree))
    reference = apolarity._exact_entries(f, delta)
    transposed = [list(column) for column in zip(*reference)]
    assert catalecticant_rank(f, delta) == exact_rank(reference)
    assert (_integer_rows(apolarity._weighted_rows(f, f.degree - delta))
            == _integer_rows(transposed))
    cat = catalecticant(f, delta)
    assert [list(t.coeffs) for t in cat.kernel] == exact_nullspace(transposed)
    assert cat.rank == exact_rank(reference)


def test_catalecticant_builds_entries_only_on_read(monkeypatch):
    f = random_form(3, 5, seed=4)
    want = catalecticant(f, 2).entries
    monkeypatch.setattr(apolarity, "_entries", None)  # rank and kernel never call it
    cat = catalecticant(f, 2)
    assert (cat.rank, len(cat.kernel)) == (6, 0)
    monkeypatch.undo()
    assert cat.entries == want


def test_essential_variables():
    assert essential_variables(parse_form("x0^4", 3)) == 1
    assert essential_variables(parse_form("x0^3*x1 + x1^4", 3)) == 2
    assert essential_variables(parse_form("x0^2*x1 + x2^3", 3)) == 3
    # (x0 + x1)^4 uses one variable after a change of coordinates
    assert essential_variables(power_of_linear((1, 1, 0), 4)) == 1


def test_essential_subspace_spans_the_form():
    # for (x0 + 2x1)^3 + (x0 - x2)^3 the space is spanned by the two
    # linear forms themselves
    a = power_of_linear((1, 2, 0), 3)
    b = power_of_linear((1, 0, -1), 3)
    f = Form(3, 3, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    basis = essential_subspace(f)
    assert len(basis) == 2
    # both defining linear forms lie in the span: rank doesn't grow
    from waring.linalg import exact_rank
    for extra in ([1, 2, 0], [1, 0, -1]):
        stacked = [list(map(Fraction, v)) for v in basis] + [list(map(Fraction, extra))]
        assert exact_rank(stacked) == 2


def test_rank_lower_bound_and_table():
    f = parse_form("x0^3*x1 + x1^4", 2)
    assert cat_rank_table(f) == [(1, 2), (2, 3), (3, 2)]
    assert rank_lower_bound(f) == 3
    g = parse_form("x0^2", 2)
    assert rank_lower_bound(g) == 1
    assert cat_rank_table(g) == [(1, 1)]


@st.composite
def exact_forms_in_three_or_four(draw):
    """Exact forms in 3 or 4 variables of degree 2..9: random, planted sums
    of powers (low ranks), x0^d, forms in two essential variables, and the
    witness quartic."""
    n, d = draw(st.sampled_from([3, 4])), draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["random", "planted", "power", "binary", "witness"]))
    if kind == "random":
        return random_form(n, d, seed=draw(st.integers(0, 10**6)), height=3)
    if kind == "power":
        return Form.from_dict(n, d, {(d,) + (0,) * (n - 1): 1})
    if kind == "witness":
        return witness_quartic()
    f = Form.zero(n, d)
    if kind == "planted":
        for _ in range(draw(st.integers(1, 6))):
            point = tuple(draw(st.integers(-2, 2)) for _ in range(n))
            f = f + power_of_linear(point, d, coeff=draw(st.integers(-2, 2)))
    else:
        for a in range(d + 1):
            c = draw(st.integers(-3, 3))
            if c:
                f = f + Form.from_dict(n, d, {(a, d - a) + (0,) * (n - 2): c})
    return f if not f.is_zero() else Form.from_dict(n, d, {(0, d) + (0,) * (n - 2): 1})


@settings(max_examples=40, deadline=None)
@given(exact_forms_in_three_or_four())
def test_cat_rank_table_is_the_full_scan(f):
    assert cat_rank_table(f) == [
        (delta, catalecticant_rank(f, delta)) for delta in range(1, f.degree)]


@pytest.mark.parametrize("d", range(4, 10))
def test_cat_rank_table_eliminates_half_the_deltas(monkeypatch, d):
    # rank Cat(d - delta) = rank Cat(delta): only delta <= d // 2 is eliminated
    calls = []
    real = apolarity.exact_rank
    monkeypatch.setattr(apolarity, "exact_rank", lambda m: calls.append(m) or real(m))
    cat_rank_table(random_form(3, d, 0))
    assert len(calls) == d // 2


def test_cat_rank_table_eliminates_over_q_only_where_a_rank_falls_short(monkeypatch):
    # a full rank modulo the prime is the rank; Bareiss runs on the others
    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda m: calls.append(m) or real(m))
    for f in (random_form(2, 24, 0), random_form(3, 9, 0)):
        cat_rank_table(f)
        assert calls == []
    # a sum of three powers: rank min(delta + 1, 3, 25 - delta), short of
    # full for delta = 3..21
    f = sum((power_of_linear(p, 24) for p in ((3, -1), (2, 5))), power_of_linear((1, 2), 24))
    assert cat_rank_table(f) == [(delta, min(delta + 1, 3, 25 - delta)) for delta in range(1, 24)]
    assert len(calls) == 19


def test_rank_lower_bound_is_a_lower_bound_on_points():
    # sums of r distinct powers have every catalecticant rank at most r
    rng = random.Random(15)
    for _ in range(10):
        r = rng.randint(1, 4)
        n, d = 3, 4
        coeffs = [Fraction(0)] * len(power_of_linear((1, 0, 0), d).coeffs)
        for _ in range(r):
            pt = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4))
            for i, c in enumerate(power_of_linear(pt, d).coeffs):
                coeffs[i] += c
        f = Form(n, d, tuple(coeffs))
        if f.is_zero():
            continue
        assert rank_lower_bound(f) <= r
