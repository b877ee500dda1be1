import random
from fractions import Fraction

import pytest

import waring.apolarity as apolarity
from waring.avoidance import AvoidanceSet
from waring.binary import (
    border_rank_binary,
    decompose_binary,
    decompose_binary_avoiding,
    decompose_binary_bounded,
    embed_binary,
    form_on_line,
    generic_rank_in_subspace,
    open_rank_binary,
    rank_binary,
)
from waring.certify import verify_decomposition
from waring.errors import PreconditionError, RetryExhausted, WaringError
from waring.forms import Form, parse_form, power_of_linear, random_form

F = Fraction


def sum_of_powers(points, degree, weights=None):
    total = None
    for i, p in enumerate(points):
        w = F(1) if weights is None else weights[i]
        part = power_of_linear(p, degree, w)
        total = part if total is None else total + part
    return total


# -- rank invariants ----------------------------------------------------------


def test_border_rank_monomials():
    # x0^(d-k) x1^k has initial degree min(k, d-k) + 1
    for d in range(2, 9):
        for k in range(d + 1):
            mono = [F(0)] * (d + 1)
            mono[k] = F(1)
            f = Form(2, d, tuple(mono))
            assert border_rank_binary(f) == min(k, d - k) + 1


def test_rank_monomials():
    # rank of x0^(d-k) x1^k is max(k, d-k) + 1 for 1 <= k <= d-1
    for d in range(2, 9):
        for k in range(1, d):
            mono = [F(0)] * (d + 1)
            mono[k] = F(1)
            f = Form(2, d, tuple(mono))
            assert rank_binary(f) == max(k, d - k) + 1
    assert rank_binary(parse_form("x0^6", 2)) == 1


def test_rank_of_planted_sums():
    # a sum of r generic powers with r <= (d+1)/2 has rank exactly r
    rng = random.Random(22)
    for _ in range(20):
        d = rng.randint(3, 9)
        r = rng.randint(1, (d + 1) // 2)
        pts = set()
        while len(pts) < r:
            pts.add((F(1), F(rng.randint(-8, 8))))
        f = sum_of_powers(sorted(pts), d)
        b = border_rank_binary(f)
        assert b <= r
        if b == r:
            assert rank_binary(f) == r


def test_rank_dichotomy_exhausts_both_branches():
    seen = set()
    rng = random.Random(23)
    corpus = []
    for _ in range(200):
        d = rng.randint(3, 10)
        corpus.append(random_form(2, d, seed=rng.randrange(1 << 30)))
    for d in range(3, 11):
        # cusp-type monomials force the high branch
        mono = [F(0)] * (d + 1)
        mono[1] = F(1)
        corpus.append(Form(2, d, tuple(mono)))
    for f in corpus:
        if f.is_zero():
            continue
        d = f.degree
        b = border_rank_binary(f)
        r = rank_binary(f)
        assert r in (b, d + 2 - b)
        seen.add("low" if r == b else "high")
        assert open_rank_binary(f) == d + 2 - b
    assert seen == {"low", "high"}


def test_rank_cusp_form():
    # x0^(d-1) x1 is the classic high-rank case: border rank 2, rank d
    for d in (3, 4, 5, 7):
        mono = [F(0)] * (d + 1)
        mono[1] = F(1)
        f = Form(2, d, tuple(mono))
        assert border_rank_binary(f) == 2
        assert rank_binary(f) == d
        assert open_rank_binary(f) == d


def test_exact_backend_required_for_ranks():
    f = parse_form("x0^3 + x1^3", 2).to_float()
    with pytest.raises(PreconditionError):
        rank_binary(f)
    with pytest.raises(PreconditionError):
        border_rank_binary(f)


def test_binary_invariants_take_one_rank_and_at_most_one_kernel_each(monkeypatch):
    calls = {"exact_nullspace": 0, "exact_rank": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(apolarity, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(apolarity, name, counted)
    f = random_form(2, 24, 0)
    rank_binary(f)
    border_rank_binary(f)
    open_rank_binary(f)
    dec = decompose_binary(f)
    assert calls["exact_nullspace"] <= 2
    assert calls["exact_rank"] <= 4
    calls.update(exact_nullspace=0, exact_rank=0)
    verify_decomposition(f, dec)
    # the certificate's rank table: one rank-only elimination per delta
    assert calls == {"exact_nullspace": 0, "exact_rank": f.degree - 1}


# -- line embeddings ----------------------------------------------------------


def test_embed_restrict_round_trip():
    rng = random.Random(24)
    for _ in range(15):
        d = rng.randint(2, 5)
        g = random_form(2, d, seed=rng.randrange(1 << 30))
        if g.is_zero():
            continue
        u = (F(1), F(0), F(2))
        v = (F(0), F(1), F(-1))
        big = embed_binary(g, u, v)
        assert big.num_vars == 3 and big.degree == d
        back = form_on_line(big, u, v)
        assert back is not None
        assert back.coeffs == g.coeffs


def test_embed_power_is_power():
    # s^3 embeds to the cube of the u linear form
    g = parse_form("x0^3", 2)
    u, v = (F(1), F(2), F(0)), (F(0), F(0), F(1))
    big = embed_binary(g, u, v)
    assert big.coeffs == power_of_linear(u, 3).coeffs


def test_form_on_line_detects_off_line_forms():
    f = parse_form("x0^3 + x2^3", 3)
    u, v = (F(1), F(0), F(0)), (F(0), F(1), F(0))
    assert form_on_line(f, u, v) is None


# -- decompositions -----------------------------------------------------------


def check_decomposition(f, dec, size=None, tol=1e-7, avoid=None):
    if size is not None:
        assert dec.size == size
    assert dec.residual(f) <= tol
    pts = dec.points()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i].as_floats(), pts[j].as_floats()
            assert abs(a[0] * b[1] - a[1] * b[0]) > 1e-9
    if avoid is not None:
        for p in pts:
            assert not avoid.contains(p)


def test_decompose_binary_rank_length():
    rng = random.Random(25)
    for _ in range(25):
        d = rng.randint(3, 9)
        f = random_form(2, d, seed=rng.randrange(1 << 30))
        if f.is_zero():
            continue
        dec = decompose_binary(f, seed=7)
        check_decomposition(f, dec, size=rank_binary(f))


def test_decompose_binary_exact_when_roots_rational():
    # f = 2 x0^3 + 3 (x0 + x1)^3: kernel root points are rational
    f = sum_of_powers([(F(1), F(0)), (F(1), F(1))], 3, [F(2), F(3)])
    dec = decompose_binary(f)
    assert dec.is_exact
    assert dec.synthesize_exact().coeffs == f.coeffs
    assert dec.size == 2


def test_decompose_binary_cusp_takes_long_route():
    f = parse_form("x0^4*x1", 2)
    dec = decompose_binary(f, seed=3)
    check_decomposition(f, dec, size=5)


def test_decompose_binary_degree_forty_probe_returns_or_raises_waring_error():
    # the apolar generator's coefficients are far too large to factor by
    # trial division; a failure must surface as a WaringError, nothing else
    f = random_form(2, 40, seed=1)
    try:
        dec = decompose_binary(f)
    except WaringError:
        return
    assert (dec.num_vars, dec.degree) == (2, 40)


def test_float_routes_give_plain_fraction_or_complex_scalars():
    # numpy scalars from the float solvers must not leak into terms
    X = AvoidanceSet.from_points([(F(1), F(3))])
    decs = [decompose_binary(random_form(2, 9, 3)),
            decompose_binary(random_form(2, 8, 4), seed=1),
            decompose_binary(parse_form("x0^4*x1", 2), seed=3),
            decompose_binary_avoiding(random_form(2, 7, 5), X, seed=2),
            decompose_binary_bounded(random_form(2, 6, 6), X, max_size=6, seed=2),
            decompose_binary(random_form(2, 7, 5).to_float())]
    assert all(not dec.is_exact for dec in decs)
    for dec in decs:
        for t in dec.terms:
            assert type(t.coeff) in (Fraction, complex)
            assert all(type(c) in (Fraction, complex) for c in t.point.coords)


def test_decompose_avoiding_open_rank_length():
    rng = random.Random(26)
    for _ in range(15):
        d = rng.randint(3, 8)
        f = random_form(2, d, seed=rng.randrange(1 << 30))
        if f.is_zero():
            continue
        pts = [(F(rng.randint(-6, 6)), F(rng.randint(1, 6))) for _ in range(6)]
        X = AvoidanceSet.from_points(pts)
        dec = decompose_binary_avoiding(f, X, seed=11)
        b = border_rank_binary(f)
        check_decomposition(f, dec, size=d + 2 - b, avoid=X)


def test_decompose_avoiding_pure_power():
    f = parse_form("x0^5", 2).scale(F(3))
    X = AvoidanceSet.from_points([(F(1), F(1)), (F(2), F(1))])
    dec = decompose_binary_avoiding(f, X, seed=2)
    check_decomposition(f, dec, size=6, avoid=X)
    # the power point itself never appears even though X does not name it
    for p in dec.points():
        a = p.as_floats()
        assert abs(a[1]) > 1e-9 or abs(a[0]) < 1e-9


def test_decompose_avoiding_excludes_kernel_roots():
    # f has rational kernel roots at (1,0) and (1,1); forbid one of them
    f = sum_of_powers([(F(1), F(0)), (F(1), F(1))], 5)
    X = AvoidanceSet.from_points([(F(1), F(1))])
    dec = decompose_binary_avoiding(f, X, seed=4)
    check_decomposition(f, dec, size=5, avoid=X)


def test_decompose_bounded_prefers_rank_route():
    f = sum_of_powers([(F(1), F(2)), (F(1), F(-1))], 6)
    X = AvoidanceSet.from_points([(F(1), F(5))])
    dec = decompose_binary_bounded(f, X, max_size=4, seed=5)
    check_decomposition(f, dec, size=2, avoid=X)
    assert dec.provenance["route"] == "kernel-roots-avoiding"


def test_decompose_bounded_grows_when_roots_are_avoided():
    f = sum_of_powers([(F(1), F(2)), (F(1), F(-1))], 6)
    X = AvoidanceSet.from_points([(F(1), F(2))])
    dec = decompose_binary_bounded(f, X, max_size=6, seed=5)
    check_decomposition(f, dec, size=6, avoid=X)


def test_decompose_bounded_cap_violation_raises():
    f = parse_form("x0^5*x1", 2)  # rank 6, open rank 6
    X = AvoidanceSet.from_points([(F(1), F(7))])
    with pytest.raises(RetryExhausted):
        decompose_binary_bounded(f, X, max_size=4, seed=6)


def test_decompose_bounded_pencil_case():
    # binary quartic with 2b = d + 2: pencil route, rank 3
    f = random_form(2, 4, seed=77)
    assert border_rank_binary(f) == 3
    X = AvoidanceSet.from_points([(F(1), F(3))])
    dec = decompose_binary_bounded(f, X, max_size=3, seed=8)
    check_decomposition(f, dec, size=3, avoid=X)
    assert dec.provenance["route"] == "pencil-avoiding"


# -- generic ranks in subspaces ----------------------------------------------


def test_generic_rank_in_subspace_full_space():
    # k = d: the whole space; generic rank caps at max(1, (d+2)/2 floored)
    assert generic_rank_in_subspace(4, 4, trials=30, seed=1) == 3
    assert generic_rank_in_subspace(5, 5, trials=30, seed=1) == 3


def test_generic_rank_in_subspace_point():
    # k = 0: a single random form; its rank is at most d
    d = 5
    r = generic_rank_in_subspace(d, 0, trials=20, seed=2)
    assert 1 <= r <= d


def test_generic_rank_in_subspace_validates_k():
    with pytest.raises(PreconditionError):
        generic_rank_in_subspace(4, 5)
