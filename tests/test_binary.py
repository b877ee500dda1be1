import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import waring.apolarity as apolarity
import waring.binary as binary
from waring.avoidance import AvoidanceSet
from waring.binary import (
    border_rank_binary,
    decompose_binary,
    decompose_binary_avoiding,
    decompose_binary_bounded,
    decompose_on_line,
    embed_binary,
    form_on_line,
    open_rank_binary,
    rank_binary,
)
from waring.certify import BOUND_BINARY_OPEN, BOUND_BINARY_RANK, to_json, verify_decomposition
from waring.errors import (DegenerateSystemError, PreconditionError, RetryExhausted,
                           RootFindingError, WaringError)
from waring.forms import Form, parse_form, power_of_linear, random_form

F = Fraction


def exact_sum(dec):
    """The exact sum of an exact decomposition's powered terms."""
    total = Form.zero(dec.num_vars, dec.degree)
    for t in dec.terms:
        total = total + power_of_linear(t.point.coords, dec.degree, t.coeff)
    return total


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


def scan_every_catalecticant(f):
    """The float initial degree as the scan read it before it stopped at the
    middle: the first catalecticant whose numeric rank leaves a kernel."""
    for e in range(1, f.degree + 1):
        if binary.numeric_rank(binary.numeric_catalecticant(f, e)) < e + 1:
            return e


def test_float_initial_degree_takes_no_svd_past_the_middle(monkeypatch):
    # random forms (generic b), monomials (b = min(k, d - k) + 1) and sums of
    # one or two powers (b = 1, 2), all as floats
    cases = [random_form(2, d, s) for d in range(1, 13) for s in range(3)]
    cases += [Form(2, d, tuple(F(int(i == k)) for i in range(d + 1)))
              for d in range(1, 10) for k in range(d + 1)]
    cases += [sum_of_powers(pts, d) for d in range(1, 10)
              for pts in (((F(2), F(-1)),), ((F(1), F(3)), (F(2), F(1))))]
    svds = []
    rank = binary.numeric_rank
    monkeypatch.setattr(binary, "numeric_rank", lambda m: svds.append(m.shape) or rank(m))
    for f in (g.to_float() for g in cases):
        svds.clear()
        b = binary.initial_degree_any(f)
        assert len(svds) <= max(1, f.degree // 2)
        assert b == scan_every_catalecticant(f)


def test_float_initial_degree_raises_on_a_nan_as_the_full_scan_does():
    # the NaN sits in the last coefficient, which only Cat(1) reads before
    # the scan stops at the middle
    for d in range(1, 9):
        f = Form(2, d, (1 + 0j,) * d + (complex(math.nan, 0.0),))
        with pytest.raises(Exception) as skipped:
            binary.initial_degree_any(f)
        with pytest.raises(Exception) as full:
            scan_every_catalecticant(f)
        assert type(skipped.value) is type(full.value)


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


def test_solve_on_lines_is_exact_only_when_f_and_every_column_are(monkeypatch):
    # two lines of the plane meet in one point, whose cube lies on both:
    # eight columns of rank seven, and f is the sum of one form on each line
    spans = [((F(1), F(0), F(2)), (F(0), F(1), F(-1))), ((F(1), F(1), F(0)), (F(1, 3), F(0), F(1)))]
    g, h = Form(2, 3, (F(1), F(0), F(-2), F(0))), Form(2, 3, (F(0), F(3), F(0), F(1)))
    f = embed_binary(g, *spans[0]) + embed_binary(h, *spans[1])

    def on_lines(x, spans):
        parts = (Form(2, 3, tuple(x[:4])), Form(2, 3, tuple(x[4:])))
        return embed_binary(parts[0], *spans[0]) + embed_binary(parts[1], *spans[1])

    divided = []
    real_quotients = binary._quotients
    monkeypatch.setattr(binary, "_quotients", lambda *a: divided.append(1) or real_quotients(*a))
    x, residual, rank = binary.solve_on_lines(f, spans)
    assert all(type(w) is Fraction for w in x) and residual == 0.0 and rank == 7
    assert not divided  # the exact solve turns no column into floats
    assert on_lines(x, spans) == f
    float_spans = [spans[0], tuple(tuple(complex(c) for c in w) for w in spans[1])]
    for form, lines in ((f.to_float(), spans), (f, float_spans)):
        x, residual, rank = binary.solve_on_lines(form, lines)
        assert divided and not any(isinstance(w, Fraction) for w in x)
        assert residual < 1e-12 and rank == 7
        assert (on_lines([complex(w) for w in x], float_spans) - f.to_float()).max_abs() < 1e-12
    off = f + Form(3, 3, tuple(F(int(i == 4)) for i in range(10)))  # + x0 x1 x2
    assert binary.solve_on_lines(off, spans) is None
    assert binary.solve_on_lines(off.to_float(), spans) is None


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
    assert exact_sum(dec).coeffs == f.coeffs
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


def binary_certificate(f, tol=1e-8):
    return verify_decomposition(f, decompose_binary(f, tol=tol), tol=tol,
                                bound=(rank_binary(f), BOUND_BINARY_RANK))


@pytest.mark.parametrize("degree,seed", [(36, 0), (40, 0), (40, 1), (40, 2), (44, 0), (48, 0)])
def test_high_degree_weight_solves_certify_valid(degree, seed):
    # the root route's weight solve meets columns from 1 to |root|^d in size;
    # unequilibrated least squares left residuals of 2e-8 to 5e-5 here
    assert binary_certificate(random_form(2, degree, seed)).valid


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10**6), st.sampled_from([1e-8, 1e-15]))
@example(36, 0, 1e-8)
@example(40, 1, 1e-8)
def test_decompose_binary_certifies_valid_or_raises_a_waring_error(degree, seed, tol):
    f = random_form(2, degree, seed)
    try:
        certificate = binary_certificate(f, tol)
    except WaringError:
        return
    assert certificate.valid


def test_a_tolerance_below_the_default_is_met():
    # judged against max(tol, 1e-8), the first sample's residual of 1.2e-15
    # passed and the certificate at 1e-15 came out INVALID
    assert binary_certificate(random_form(2, 28, 0), tol=1e-15).valid


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


@pytest.mark.parametrize("exact", [True, False])
def test_both_decomposers_respread_an_avoided_pure_power_alike(exact):
    # (x0 + 2 x1)^5 with its own point avoided: d + 1 = 6 respread points
    f = power_of_linear((1, 2), 5)
    f = f if exact else f.to_float()
    X = AvoidanceSet.from_points([(F(1), F(2))])
    open_dec = decompose_binary_avoiding(f, X, seed=3)
    capped_dec = decompose_binary_bounded(f, X, max_size=6, seed=3)
    certificates = [verify_decomposition(f, dec, avoid=X, bound=(6, BOUND_BINARY_OPEN))
                    for dec in (open_dec, capped_dec)]
    assert to_json(certificates[0]) == to_json(certificates[1])
    assert certificates[0].valid and open_dec.size == 6
    assert open_dec.provenance["route"] == capped_dec.provenance["route"] == "power-respread"
    assert open_dec.is_exact == capped_dec.is_exact == exact


def test_a_respread_asks_the_avoided_set_once_per_point(monkeypatch):
    # `_respread_points` filters each draw, so the whole-set check is skipped
    calls = []
    contains = AvoidanceSet.contains
    monkeypatch.setattr(AvoidanceSet, "contains",
                        lambda self, p: calls.append(p) or contains(self, p))
    f = parse_form("3*x0^5", 2)
    dec = decompose_binary_avoiding(f, AvoidanceSet.from_points([(1, 1), (2, 1)]), seed=0)
    assert dec.provenance["route"] == "power-respread" and dec.provenance["attempt"] == 0
    assert len(calls) == dec.size == 6  # 12 when each point was asked twice


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("options", [{"retries": 0}, {"tol": 1e-30}])
def test_an_exhausted_respread_names_its_rejects(exact, options):
    f = parse_form("x0^5", 2).scale(F(3))
    f = f if exact else f.to_float()
    X = AvoidanceSet.from_points([(F(1), F(1)), (F(2), F(1))])
    with pytest.raises(RetryExhausted) as err:
        decompose_binary_avoiding(f, X, seed=2, **options)
    diag = err.value.diagnostics
    assert set(diag) == {"stage", "rejects", "best_residual", "target_size"}
    assert diag["stage"] == "sample" and diag["target_size"] == 6
    assert set(diag["rejects"]) == {"zero_combo", "repeated_roots", "few_points", "avoided",
                                    "tiny_weight", "residual"}
    if "tol" in options:
        assert diag["rejects"]["residual"] == 64 and diag["best_residual"] > 1e-30
    else:
        assert set(diag["rejects"].values()) == {0} and diag["best_residual"] is None


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



@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, d + 1),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=3),
    st.integers(0, 10**6))))
def test_decompose_bounded_meets_tol_cap_and_avoidance_or_raises_retry_exhausted(case):
    degree, cap, avoided, seed = case
    f = random_form(2, degree, seed)
    X = AvoidanceSet.from_points([(F(a), F(b)) for a, b in avoided]) if avoided else None
    try:
        dec = decompose_binary_bounded(f, X, cap, seed=seed % 97)
    except RetryExhausted:
        return
    assert dec.size <= cap
    assert dec.meets_tolerance(f)
    assert X is None or not any(X.contains(p) for p in dec.points())


def test_root_finding_failure_is_a_retry_signal(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise RootFindingError("simultaneous iteration did not converge")

    monkeypatch.setattr(binary, "binary_form_roots", no_convergence)
    f = random_form(2, 9, 3)  # irrational kernel roots: the float root finder runs
    with pytest.raises(RetryExhausted):
        decompose_binary_bounded(f, None, 10)
    with pytest.raises(RetryExhausted):
        decompose_binary(f)


def test_an_exact_line_past_the_float_range_carries_no_float_form(capfd):
    # its columns stay exact, and reading them as floats overflows: the
    # float solve misses, with no numpy error
    f = random_form(3, 4, seed=0)
    span = ((Fraction(10 ** 400), 1, Fraction(3, 7)), (0, 2, 1))
    assert form_on_line(f.to_float(), *span) is None
    assert capfd.readouterr().err == ""


def test_a_line_past_the_float_range_carries_no_form(capfd):
    # its exact column reads as inf on floats: the solve misses, with no
    # LAPACK message and no numpy error
    f = random_form(3, 4, seed=0)
    span = ((Fraction(10 ** 400), 1, Fraction(3, 7)), (1j, 2.0, 0.5))
    assert form_on_line(f, *span) is None
    with pytest.raises(DegenerateSystemError):
        decompose_on_line(f, span, decompose_binary, "test", 1e-8)
    assert capfd.readouterr().err == ""


# -- reject reasons, each forced through the collaborator that decides it ------


def test_a_tiny_weight_is_rejected_only_at_a_sampled_length(monkeypatch):
    # with the ratio at 1 every weight but the largest reads as tiny
    monkeypatch.setattr(binary, "SMALL_COEFF_TOL", 1.0)
    f = random_form(2, 5, seed=1)  # b = 3, sampled at d + 2 - b = 4
    with pytest.raises(RetryExhausted) as err:
        decompose_binary_avoiding(f, seed=0, retries=4)
    diag = err.value.diagnostics
    assert diag["stage"] == "sample" and diag["target_size"] == 4
    assert diag["rejects"]["tiny_weight"] == 4 and diag["best_residual"] is None
    # kept at the pencil length b (2b = d + 2) and for a pure power
    pencil = decompose_binary(random_form(2, 4, seed=1))
    assert pencil.provenance["route"] == "pencil-avoiding" and pencil.size == 3
    power = decompose_binary_avoiding(parse_form("x0^5", 2).scale(F(3)), seed=0)
    assert power.provenance["route"] == "power-respread" and power.size == 6


def test_a_failed_weight_solve_counts_as_residual_or_inconsistent(monkeypatch):
    monkeypatch.setattr(binary, "_solve_weights", lambda f, points: None)
    with pytest.raises(RetryExhausted) as err:  # sampled: counted, no residual kept
        decompose_binary_avoiding(random_form(2, 5, seed=1), seed=0, retries=4)
    diag = err.value.diagnostics
    assert diag["stage"] == "sample" and diag["rejects"]["residual"] == 4
    assert diag["best_residual"] is None
    with pytest.raises(RetryExhausted) as err:  # the kernel roots of x0 x1: no resampling
        decompose_binary(parse_form("x0^3 + x1^3", 2))
    diag = err.value.diagnostics
    assert diag["stage"] == "bounded" and diag["target_size"] == 2
    assert diag["rejects"] == {"inconsistent": 1, "residual": 0, "cap": 0}
    assert diag["best_residual"] is None
