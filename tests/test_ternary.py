import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import linalg, ternary
from waring.apolarity import catalecticant
from waring.binary import decompose_binary, embed_binary
from waring.certify import BOUND_ODD_SPLIT, verify_decomposition
from waring.decomposition import Decomposition, Term
from waring.errors import (
    DegenerateSystemError,
    PreconditionError,
    Rejects,
    RetryExhausted,
    WaringError,
    ZeroFormError,
)
from waring.forms import (
    Form,
    ProjectivePoint,
    contract,
    evaluate,
    parse_form,
    power_of_linear,
    random_combination,
    random_form,
    same_point,
    substitute,
)
from waring.linalg import numeric_nullspace, solve_columns
from waring.plane import (
    UNIT_DUALS,
    cross,
    det3,
    factor_rank_two_quadric,
    integer_matrices,
    plane_basis,
    quadric_matrix,
    quadric_rank,
    singular_members,
)
from waring.ternary import (
    KernelPair,
    LineSystem,
    annihilates,
    annihilating_lines,
    bound_B1,
    concurrent,
    decompose_ternary_odd,
    minimize_annihilating,
    reducible_kernel_pair,
    split_on_lines,
)

F = Fraction


def lin(*coeffs):
    return Form(3, 1, tuple(F(c) for c in coeffs))


# -- line systems --------------------------------------------------------------


def test_line_system_validation():
    with pytest.raises(PreconditionError):
        LineSystem((Form(2, 1, (F(1), F(0))),))
    with pytest.raises(ZeroFormError):
        LineSystem((lin(0, 0, 0),))
    with pytest.raises(PreconditionError):
        LineSystem((lin(1, 0, 0), lin(2, 0, 0)))  # same line twice


def test_line_system_geometry():
    sys = LineSystem((lin(1, 0, 0), lin(0, 1, 0), lin(0, 0, 1)))
    assert sys.k == 2
    assert sys.is_exact
    # spans solve the incidence equations
    for i in range(3):
        u, v = sys.span(i)
        ell = sys.lines[i].coeffs
        for w in (u, v):
            assert sum(a * b for a, b in zip(ell, w)) == 0
    # intersection of x0 = 0 and x1 = 0 is the point (0, 0, 1)
    p = sys.intersection(0, 1, False)
    nz = next(c for c in p if c != 0)
    assert tuple(F(c) / nz for c in p) == (F(0), F(0), F(1))
    assert sys.in_general_position()
    # an exact meet gets its complex view only when the view is read
    assert sys._meets[0, 1][1] is None
    assert sys.intersection(0, 1, True) == (0j, 0j, 1 + 0j) and sys._meets[0, 1][1] is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=12), min_size=3, max_size=3)
       .filter(any))
def test_exact_spans_are_dyadic_scalings_of_the_pivot_basis(coeffs):
    ell = Form(3, 1, tuple(coeffs))
    for w, pivot in zip(LineSystem((ell,)).span(0), plane_basis(ell.numerators()[0])):
        assert all(type(x) is Fraction for x in w)
        assert 1 <= max(map(abs, w)) < 2
        ratio = next(x / y for x, y in zip(w, pivot) if y != 0)
        assert tuple(x * ratio for x in pivot) == w
        assert ratio.numerator == 1  # 1 / 2^e
        assert ratio.denominator & (ratio.denominator - 1) == 0


def test_line_system_concurrency_detected():
    # three lines through (0, 0, 1)
    sys = LineSystem((lin(1, 0, 0), lin(0, 1, 0), lin(1, 1, 0)))
    assert not sys.in_general_position()


def parent_exact_position(lines):
    """The exact branch of `in_general_position` before `concurrent`."""
    rows = [ell.numerators()[0] for ell in lines]
    return all(det3((rows[a], rows[b], rows[c]))
               for a, b, c in combinations(range(len(lines)), 3))


def parent_float_position(lines):
    """The float branch of `in_general_position` before `concurrent`."""
    m = len(lines)
    for a, b in combinations(range(m - 1), 2):
        la, lb = lines[a], lines[b]
        if not (la.is_exact and lb.is_exact):
            la, lb = la.to_float(), lb.to_float()
        u = cross(la.coeffs, lb.coeffs)
        top = max(abs(complex(x)) for x in u)
        for ell in lines[b + 1:]:
            val = evaluate(ell, u)
            if abs(complex(val)) <= ternary.CONCURRENCY_TOL * (top * max(1.0, ell.max_abs())):
                return False
    return True


def sampled_triples(count):
    """Triples of lines, exact, mixed or float; in half of them the third
    line passes through the point of the first two (or misses it by 1e-12)."""
    rng = random.Random(3)
    for _ in range(count):
        triple = [lin(*(rng.randint(-4, 4) for _ in range(3))) for _ in range(3)]
        if rng.random() < 0.5:
            triple[2] = triple[0].scale(rng.randint(1, 3)) + triple[1].scale(rng.randint(-3, -1))
        floats = rng.randint(0, 3)
        for i in rng.sample(range(3), floats):
            triple[i] = triple[i].to_float()
            if rng.random() < 0.3:
                triple[i] = triple[i] + Form(3, 1, (1e-12j, 0j, 0j))
        if not any(ell.is_zero() for ell in triple):
            yield tuple(triple)


def test_concurrent_is_the_parent_branch_of_its_backend():
    seen = set()
    for triple in sampled_triples(600):
        floats = sum(not ell.is_exact for ell in triple)
        position = parent_exact_position if floats == 0 else parent_float_position
        meet = concurrent(*triple)
        assert meet is not position(triple)
        seen.add(("exact" if floats == 0 else "float" if floats == 3 else "mixed", meet))
    assert seen == {(kind, meet) for kind in ("exact", "mixed", "float") for meet in (True, False)}
    # an exact triple is decided exactly, even where the float test, within
    # its tolerance, would call it concurrent
    near = (lin(1, 0, 0), lin(0, 1, 0), lin(10 ** 9, 10 ** 9, 1))
    assert not concurrent(*near) and not parent_float_position(near)


def test_line_system_annihilates():
    f = parse_form("x0^5 + x1^5", 3)
    assert LineSystem((lin(1, 0, 0), lin(0, 1, 0))).annihilates(f)
    assert not LineSystem((lin(1, 0, 0), lin(1, 1, 0))).annihilates(f)


def test_annihilates_float_duals_within_tolerance():
    # a power of a point on a line is killed by that line's dual
    l1, l2 = (1 + 2j, -0.5j, 0.3), (0.7, 1.1 - 0.4j, -2j)
    f = power_of_linear(cross(l1, (1, 1, 1)), 5) + power_of_linear(cross(l2, (1, -1, 2)), 5)
    assert annihilates((Form(3, 1, l1), Form(3, 1, l2)), f)
    nudged = (l1[0] * (1 + 1e-6),) + l1[1:]
    assert not annihilates((Form(3, 1, nudged), Form(3, 1, l2)), f)


SMALL = st.integers(-3, 3)
NONZERO_DUAL = st.tuples(SMALL, SMALL, SMALL).filter(any)


@st.composite
def exact_duals_and_forms(draw):
    """Exact duals and an exact form, which the duals' product often kills:
    a sum of powers of points, each on one of the lines, maybe plus a stray power."""
    degree = draw(st.integers(1, 5))
    duals = [lin(*draw(NONZERO_DUAL)) for _ in range(draw(st.integers(1, degree)))]
    f = Form.zero(3, degree)
    for _ in range(draw(st.integers(0, 3))):
        ell = draw(st.sampled_from(duals))
        point = cross(ell.coeffs, draw(NONZERO_DUAL))
        f = f + power_of_linear(point, degree, coeff=F(draw(SMALL)))
    if draw(st.booleans()):
        f = f + power_of_linear(draw(NONZERO_DUAL), degree)
    return duals, f


@settings(max_examples=200, deadline=None)
@given(exact_duals_and_forms())
def test_annihilates_exact_data_is_the_product_contraction(case):
    duals, f = case
    product = duals[0]
    for ell in duals[1:]:
        product = product * ell
    assert annihilates(duals, f) is contract(product, f).is_zero()


# -- reducible members of apolar nets ------------------------------------------


def test_reducible_kernel_pair_fermat_cubic():
    f = parse_form("x0^3 + x1^3 + x2^3", 3)
    pair = reducible_kernel_pair(f, seed=1)
    assert not pair.from_sigma
    prod = pair.first * pair.second
    assert contract(prod, f).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_line_search_factors_one_float_pair(monkeypatch, seed):
    # only the first float pair can be returned: later pencils take their
    # rational roots alone, so one factorization is made where 24 used to be
    calls = []
    real = ternary.factor_rank_two_quadric
    monkeypatch.setattr(ternary, "factor_rank_two_quadric",
                        lambda q: calls.append(q) or real(q))
    g = random_form(3, 3, seed)
    pair = reducible_kernel_pair(g, seed=seed)
    assert len(calls) == 1
    assert annihilates((pair.first, pair.second), g)


@pytest.mark.parametrize("text", ["x0^3 + x1^3 + x2^3", "x0*x1*x2",
                                  "x0^3 + x0*x1*x2 + x2^3"])
def test_exact_nets_give_exact_pairs(text):
    g = parse_form(text, 3)
    pair = reducible_kernel_pair(g)
    assert pair.first.is_exact and pair.second.is_exact
    assert annihilates((pair.first, pair.second), g)


def test_exact_pair_found_after_a_float_pair_wins(monkeypatch):
    # a sum of cubes whose search holds a float pair before an exact member
    # splits: the float pair is factored once, the exact member in full
    calls = []
    real = ternary.factor_rank_two_quadric
    monkeypatch.setattr(ternary, "factor_rank_two_quadric",
                        lambda q: calls.append(q.is_exact) or real(q))
    g = Form(3, 3, tuple(F(c) for c in (80, 15, 192, 75, -6, 174, 9, 93, -93, 44)))
    pair = reducible_kernel_pair(g, seed=56)
    assert calls == [False, True]
    assert pair.first.coeffs == (F(92), F(-46, 3), F(92, 3))
    assert pair.second.coeffs == (F(5, 46), F(-3, 46), F(-3, 23))


def float_member_search(basis, forbidden, seed=0):
    """`reducible_member` as it searched before: every pencil took its float
    roots too, and float members after the first float pair were rank-checked."""
    squares, rng, float_hit = [], random.Random(seed), None

    def split(q, factor=True):
        rank = quadric_rank(q)
        if rank == 1:
            root = ternary._square_root_line(q)
            if root is not None and all(
                    not same_point(ProjectivePoint(root.coeffs), ProjectivePoint(s.coeffs))
                    for s in squares):
                squares.append(root)
            return None
        if rank != 2 or not factor:
            return None
        try:
            l1, l2 = factor_rank_two_quadric(q)
        except PreconditionError:
            return None
        return (l1, l2) if ternary._pair_ok(l1, l2, forbidden) else None

    def record(hit):
        nonlocal float_hit
        if hit is None:
            return None
        if hit[0].is_exact and hit[1].is_exact:
            return hit
        float_hit = float_hit or hit
        return None

    for q in basis:
        hit = record(split(q))
        if hit is not None:
            return hit

    def pencil_stream():
        for i, j in combinations(range(len(basis)), 2):
            yield basis[i], basis[j]
        while True:
            va = random_combination(rng, basis, 5)
            vb = random_combination(rng, basis, 5)
            if va is not None and vb is not None:
                yield va, vb

    pencils = 0
    for qa, qb in pencil_stream():
        if pencils >= ternary.LINE_BUDGET:
            break
        pencils += 1
        rational, float_roots = singular_members(
            *integer_matrices((quadric_matrix(qa), quadric_matrix(qb))))
        for t in rational + float_roots():
            exact = isinstance(t, Fraction)
            member = qa + qb.scale(t) if exact else qa.to_float() + qb.to_float().scale(t)
            hit = record(split(member, factor=exact or float_hit is None))
            if hit is not None:
                return hit
        if len(squares) >= 2:
            pair = ternary._square_difference_pair(squares, forbidden)
            if pair is not None:
                return pair
        if float_hit is not None and pencils >= 8:
            break
    pair = ternary._square_difference_pair(squares, forbidden)
    if pair is not None:
        return pair
    if float_hit is not None:
        return float_hit
    raise RetryExhausted("no admissible reducible member found in the net")


# a sum of cubes whose search holds a float pair before an exact member splits
_LATE_EXACT_CUBIC = Form(3, 3, tuple(F(c) for c in (80, 15, 192, 75, -6, 174, 9, 93, -93, 44)))


def _exact_nets():
    """(basis, forbidden, seed) of the apolar nets of fixed exact cubics,
    some searched off a few forbidden lines."""
    nets = [(list(catalecticant(_LATE_EXACT_CUBIC, 2).kernel), [], 56)]
    for seed in range(16):
        g = random_form(3, 3, seed)
        forbidden = [ProjectivePoint(lin(1, seed % 5, -2).coeffs)] if seed % 2 else []
        nets.append((list(catalecticant(g, 2).kernel), forbidden, seed))
    for text in ("x0^3 + x1^3 + x2^3", "x0*x1*x2", "x0^3 + x0*x1*x2 + x2^3"):
        nets.append((list(catalecticant(parse_form(text, 3), 2).kernel), [], 0))
    return nets


def test_line_search_returns_the_pair_of_the_float_member_search():
    floats = 0
    for basis, forbidden, seed in _exact_nets():
        got = ternary.reducible_member(basis, forbidden, seed=seed)
        want = float_member_search(basis, forbidden, seed=seed)
        assert [repr(ell.coeffs) for ell in got] == [repr(ell.coeffs) for ell in want]
        floats += not got[0].is_exact
    assert floats >= 8  # most random nets end on their first float pair


def test_line_search_finds_no_float_roots_after_the_first_float_pair(monkeypatch):
    import waring.roots as roots

    events = []
    real_aberth, real_split = roots.aberth_roots, ternary._split_reducible

    def aberth(*args, **kwargs):
        events.append("aberth")
        return real_aberth(*args, **kwargs)

    def split(q, forbidden, squares):
        hit = real_split(q, forbidden, squares)
        if hit is not None and not hit[0].is_exact:
            events.append("float pair")
        return hit

    monkeypatch.setattr(roots, "aberth_roots", aberth)
    monkeypatch.setattr(ternary, "_split_reducible", split)
    held = 0
    for basis, forbidden, seed in _exact_nets():
        events.clear()
        ternary.reducible_member(basis, forbidden, seed=seed)
        if "float pair" in events:
            held += 1
            assert "aberth" not in events[events.index("float pair"):]
    assert held >= 8


def test_line_search_keeps_a_rational_root_found_after_the_float_pair(monkeypatch):
    events = []
    real = ternary._split_reducible

    def split(q, forbidden, squares):
        hit = real(q, forbidden, squares)
        events.append(None if hit is None else hit[0].is_exact)
        return hit

    monkeypatch.setattr(ternary, "_split_reducible", split)
    basis = list(catalecticant(_LATE_EXACT_CUBIC, 2).kernel)
    pair = ternary.reducible_member(basis, [], seed=56)
    assert events.index(False) < events.index(True) == len(events) - 1
    assert pair[0].coeffs == (F(92), F(-46, 3), F(92, 3))
    assert pair[1].coeffs == (F(5, 46), F(-3, 46), F(-3, 23))
    assert [ell.coeffs for ell in pair] == [
        ell.coeffs for ell in float_member_search(basis, [], seed=56)]


def test_line_search_pencils_on_the_integers_after_the_float_pair(monkeypatch):
    # after the float pair, a pencil reads only its rational roots: it calls
    # no `quadric_matrix`, builds no Form and makes no Fraction until it finds one
    events = []
    real_split, real_roots = ternary._split_reducible, ternary.singular_members

    def split(q, forbidden, squares):
        hit = real_split(q, forbidden, squares)
        if hit is not None and not hit[0].is_exact:
            events.append("float pair")
        return hit

    def roots(den, mats):
        start = len(events)
        found, float_roots = real_roots(den, mats)
        if found:  # the Fractions of the roots it found
            del events[start:]
        events.append("root" if found else "none")
        return found, float_roots

    def noting(name, real):
        return lambda *args, **kwargs: events.append(name) or real(*args, **kwargs)

    monkeypatch.setattr(ternary, "_split_reducible", split)
    monkeypatch.setattr(ternary, "singular_members", roots)
    monkeypatch.setattr(ternary, "quadric_matrix", noting("matrix", quadric_matrix))
    monkeypatch.setattr(Form, "__post_init__", noting("form", Form.__post_init__))
    for kernel in ("_trusted", "_exact_over"):
        real = vars(Form)[kernel].__func__
        monkeypatch.setattr(Form, kernel, classmethod(noting("form", real)))
    monkeypatch.setattr(F, "__new__", noting("fraction", F.__new__))
    checked = found = 0
    for basis, forbidden, seed in _exact_nets():
        events.clear()
        ternary.reducible_member(basis, forbidden, seed=seed)
        if "float pair" not in events:
            continue
        # a pencil that finds no root leaves nothing but its root search
        # between it and the next one (or the end of the search); the tail
        # of the pencil that found the float pair may still build members
        state = None
        for event in events[events.index("float pair") + 1:]:
            if event in ("root", "none"):
                state = event
                checked += event == "none"
                found += event == "root"
            else:
                assert state != "none", (seed, event)
    assert checked >= 100 and found >= 2


def test_reducible_kernel_pair_respects_sigma():
    f = parse_form("x0^3 + x1^3 + x2^3", 3)
    # (y0+y1+y2)^2 does not kill f, so the search must run and stay off it
    sigma = [ProjectivePoint((F(1), F(1), F(1)))]
    pair = reducible_kernel_pair(f, sigma=sigma, seed=2)
    assert not pair.from_sigma
    for ell in (pair.first, pair.second):
        p = ProjectivePoint(ell.coeffs)
        for s in sigma:
            a, b = p.as_floats(), s.as_floats()
            crossed = [a[1] * b[2] - a[2] * b[1],
                       a[2] * b[0] - a[0] * b[2],
                       a[0] * b[1] - a[1] * b[0]]
            assert max(abs(complex(x)) for x in crossed) > 1e-9
    assert contract(pair.first * pair.second, f).is_zero()


def test_reducible_kernel_pair_flags_sigma_hits():
    # a pair of forbidden duals that already annihilates comes back flagged
    f = parse_form("x0^3 + x1^3 + x2^3", 3)
    sigma = [ProjectivePoint((F(1), F(0), F(0))),
             ProjectivePoint((F(0), F(1), F(0)))]
    pair = reducible_kernel_pair(f, sigma=sigma, seed=2)
    assert pair.from_sigma
    assert contract(pair.first * pair.second, f).is_zero()


# -- annihilating systems -------------------------------------------------------


def test_annihilating_lines_quintic():
    f = random_form(3, 5, seed=31)
    sys = annihilating_lines(f, seed=0)
    assert len(sys.lines) == 4
    assert sys.annihilates(f)
    assert sys.in_general_position()


def test_annihilating_lines_triple_product():
    f = parse_form("x0*x1*x2", 3)
    sys = annihilating_lines(f, seed=0)
    assert len(sys.lines) == 2
    assert sys.annihilates(f)


def test_annihilating_lines_counts_every_kernel_pair_failure(monkeypatch):
    def no_pair(g, sigma=(), seed=0):
        raise RetryExhausted("no pair", diagnostics={})

    monkeypatch.setattr(ternary, "reducible_kernel_pair", no_pair)
    with pytest.raises(RetryExhausted) as err:
        annihilating_lines(random_form(3, 5, seed=31), seed=0)
    assert err.value.diagnostics["rejects"]["kernel_pair"] == ternary.LINE_BUDGET == 64


def test_annihilating_lines_rejects_every_pair_from_the_sampled_lines(monkeypatch):
    def sampled_pair(g, sigma=(), seed=0):
        return KernelPair(sigma[0], sigma[1], from_sigma=True)

    monkeypatch.setattr(ternary, "reducible_kernel_pair", sampled_pair)
    with pytest.raises(RetryExhausted) as err:
        annihilating_lines(random_form(3, 5, seed=31), seed=0)
    assert err.value.diagnostics["rejects"]["pair_condition"] == ternary.LINE_BUDGET


def test_annihilating_lines_validates_input():
    with pytest.raises(PreconditionError):
        annihilating_lines(parse_form("x0^2", 3))
    with pytest.raises(PreconditionError):
        annihilating_lines(random_form(3, 5, seed=3).to_float())
    with pytest.raises(PreconditionError):
        annihilating_lines(parse_form("x0^2 + x1^2", 2))


def test_annihilating_lines_rejects_the_zero_form():
    # every line kills the zero form, so there is no system to build
    with pytest.raises(ZeroFormError):
        annihilating_lines(Form.zero(3, 5))


def test_sampled_lines_are_the_draws_of_the_pointwise_check():
    # the lines kept, and so the draws, are those of a check that builds
    # the point of every kept line again for each candidate
    def rebuilt(rng, count, height):
        lines = []
        while len(lines) < count:
            ell = random_combination(rng, UNIT_DUALS, height)
            if ell is None:
                continue
            p = ProjectivePoint(ell.coeffs)
            if any(same_point(p, ProjectivePoint(x.coeffs)) for x in lines):
                continue
            lines.append(ell)
        return lines

    for seed in range(20):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = ternary._sample_lines(got_rng, 8, 1 + seed % 3)
        assert [ell.coeffs for ell in got] == [ell.coeffs for ell in rebuilt(want_rng, 8, 1 + seed % 3)]
        assert got_rng.getstate() == want_rng.getstate()


def test_annihilating_lines_tests_each_pair_once(monkeypatch):
    # each pair of sampled lines goes through `annihilates` once, inside
    # reducible_kernel_pair, then the factored pair is rechecked on the
    # same cubic residual; nothing re-checks the full system
    calls = []
    real = ternary.annihilates
    monkeypatch.setattr(ternary, "annihilates",
                        lambda duals, g: calls.append((duals, g)) or real(duals, g))
    *sampled, first, second = annihilating_lines(random_form(3, 9, 0)).lines
    expected = list(combinations_with_replacement(sampled, 2)) + [(first, second)]

    def points(duals):
        return [ProjectivePoint(ell.coeffs).coords for ell in duals]

    assert [points(duals) for duals, _ in calls] == [points(duals) for duals in expected]
    assert {g.degree for _, g in calls} == {3}


@pytest.mark.parametrize("degree, seed", [(15, 0), (17, 0), (17, 1), (19, 0), (19, 1),
                                          (21, 0), (21, 1)])
def test_annihilating_lines_returns_at_high_degree(degree, seed):
    # the float pair is judged against the residual of the exact lines, not
    # inside the full product of d - 1 lines, whose float error hid it
    f = random_form(3, degree, seed)
    system = annihilating_lines(f, seed=seed)
    assert len(system.lines) == degree - 1
    assert system.annihilates(f)


def test_minimize_annihilating_drops_redundant_line():
    f = parse_form("x0^5 + x1^5", 3)
    fat = LineSystem((lin(1, 0, 0), lin(0, 1, 0), lin(1, 1, 0)))
    slim = minimize_annihilating(f, fat)
    assert len(slim.lines) == 2
    assert slim.annihilates(f)
    duals = {tuple(ell.coeffs) for ell in slim.lines}
    assert duals == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}


def test_a_system_made_for_f_is_not_checked_again_and_meets_once(monkeypatch):
    f = random_form(3, 7, seed=0)
    system = annihilating_lines(f, seed=0)
    n = len(system.lines)
    checks, meets = [], []
    real_annihilates, real_meet = ternary.annihilates, ternary._meet
    monkeypatch.setattr(ternary, "annihilates",
                        lambda duals, g: checks.append(len(duals)) or real_annihilates(duals, g))
    monkeypatch.setattr(ternary, "_meet", lambda a, b: meets.append(1) or real_meet(a, b))
    # minimizing runs only its n trials of n - 1 lines, and no line drops
    assert minimize_annihilating(f, system) is system
    assert checks == [n - 1] * n
    # the split checks nothing, and computes only the meets that the
    # general-position test of the float triples left; it converts each of
    # those once and the kept ones not again, beside the two span vectors
    # of each line, and takes each line's frame once
    kept = len(system._meets)
    converted, frames = [], []
    real_coords, real_frame = ternary.complex_coords, ternary._line_frame
    monkeypatch.setattr(ternary, "complex_coords",
                        lambda xs: converted.append(1) or real_coords(xs))
    monkeypatch.setattr(ternary, "_line_frame", lambda span: frames.append(1) or real_frame(span))
    split = split_on_lines(f, system)
    assert checks == [n - 1] * n and 0 < kept < len(meets) + kept == math.comb(n, 2)
    assert len(converted) == len(meets) + 2 * n and len(frames) == n
    assert len(split.seesaws) == math.comb(n, 2)
    # any other form is checked
    with pytest.raises(PreconditionError):
        split_on_lines(f + power_of_linear((F(1), F(2), F(3)), 7), system)
    assert checks[-1] == n


def test_minimize_requires_annihilation():
    # y0 * (y0 + y1) leaves 20 x0^3 alive on the Fermat quintic
    f = parse_form("x0^5 + x1^5 + x2^5", 3)
    with pytest.raises(PreconditionError):
        minimize_annihilating(f, LineSystem((lin(1, 0, 0), lin(1, 1, 0))))


# -- the splitting system -------------------------------------------------------


def _assemble(split, pieces) -> Form:
    """The pieces pushed back to the plane from their lines and summed."""
    return sum((embed_binary(piece, u, v) for piece, (u, v) in zip(pieces, split.spans)),
               Form.zero(3, split.form.degree))


def test_split_on_lines_solution_space():
    f = random_form(3, 5, seed=41)
    sys = minimize_annihilating(f, annihilating_lines(f, seed=5))
    split = split_on_lines(f, sys)
    k = sys.k
    assert len(split.seesaws) == len(split.kernel) == math.comb(k + 1, 2)
    # the particular solution assembles back to f
    zero = [F(0)] * len(split.kernel)
    assert (_assemble(split, split.pieces(zero)) - f).is_zero()
    # and so does every kernel perturbation
    rng = random.Random(42)
    for _ in range(3):
        coeffs = [F(rng.randint(-5, 5)) for _ in split.kernel]
        pieces = split.pieces(coeffs)
        assert (_assemble(split, pieces) - f).is_zero()


def test_split_on_lines_rejects_non_annihilating():
    f = parse_form("x0^5 + x1^5 + x2^5", 3)
    sys = LineSystem((lin(1, 0, 0), lin(1, 1, 0)))
    with pytest.raises(PreconditionError):
        split_on_lines(f, sys)


def test_split_on_lines_two_planted_lines():
    # f built from powers on the lines x2 = 0 and x0 = 0
    f = (power_of_linear((1, 1, 0), 5) + power_of_linear((1, -2, 0), 5)
         + power_of_linear((0, 1, 3), 5))
    fsum = Form(3, 5, tuple(a + b + c for a, b, c in zip(
        power_of_linear((1, 1, 0), 5).coeffs,
        power_of_linear((1, -2, 0), 5).coeffs,
        power_of_linear((0, 1, 3), 5).coeffs)))
    sys = LineSystem((lin(0, 0, 1), lin(1, 0, 0)))
    assert sys.annihilates(fsum)
    split = split_on_lines(fsum, sys)
    assert len(split.seesaws) == 1
    zero = [F(0)]
    assert (_assemble(split, split.pieces(zero)) - fsum).is_zero()


# -- see-saw coordinates ------------------------------------------------------
#
# `_line_coordinates` writes a point x of a line spanned by (u, v) as
# x = a u + b v in closed form, through the cross product w = u x v, which
# `_line_frame` takes once per line.  The reference is the span solve it
# replaced, `solve_columns`.

nonzero_duals = st.lists(st.integers(-5, 5), min_size=3, max_size=3).filter(any)
small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(nonzero_duals, small_fractions, small_fractions)
def test_line_coordinates_are_the_exact_solve(dual, a, b):
    u, v = plane_basis([F(c) for c in dual])
    x = tuple(a * p + b * q for p, q in zip(u, v))
    got = ternary._line_coordinates(x, ternary._line_frame((u, v)))
    assert got == (a, b)
    assert all(type(c) is Fraction for c in got)
    assert list(got) == solve_columns((u, v), x)[0]


@settings(max_examples=150, deadline=None)
@given(nonzero_duals, st.lists(st.floats(-3, 3), min_size=4, max_size=4))
def test_line_coordinates_agree_with_the_float_solve(dual, parts):
    # an orthonormal float basis, as `LineSystem.span` gives a float line,
    # and the line's exact basis as complex floats
    row = np.array([[complex(c, 0.5 * c - 1) for c in dual]])
    orthonormal = tuple(tuple(map(complex, vec)) for vec in numeric_nullspace(row))
    pivot = tuple(tuple(map(complex, vec)) for vec in plane_basis([F(c) for c in dual]))
    a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    for u, v in (orthonormal, pivot):
        x = tuple(a * p + b * q for p, q in zip(u, v))
        got = ternary._line_coordinates(x, ternary._line_frame((u, v)))
        assert all(type(c) is complex for c in got)
        want = solve_columns((u, v), x)[0]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_line_coordinates_reject_a_point_off_the_line():
    u, v = plane_basis([F(1), F(-2), F(3)])
    off = tuple(c + d for c, d in zip(u, cross(u, v)))
    with pytest.raises(DegenerateSystemError):
        ternary._line_coordinates(off, ternary._line_frame((u, v)))
    floats = tuple(tuple(map(complex, vec)) for vec in (u, v))
    with pytest.raises(DegenerateSystemError):
        ternary._line_coordinates(tuple(map(complex, off)), ternary._line_frame(floats))
    # a miss below the span tolerance is rounding, not an escape
    near = tuple(complex(c) + 1e-12 * d for c, d in zip(u, cross(u, v)))
    assert ternary._line_coordinates(near, ternary._line_frame(floats)) == pytest.approx((1, 0))


def test_float_septic_split_makes_one_least_squares_solve(monkeypatch):
    # the split solve itself; the see-saw coordinates take no solve
    f = random_form(3, 7, 1)
    system = minimize_annihilating(f, annihilating_lines(f, seed=1))
    assert not system.is_exact
    calls = []
    solve = linalg.lstsq_solve

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(linalg, "lstsq_solve", counted)
    split = split_on_lines(f, system)
    assert len(split.kernel) == math.comb(system.k + 1, 2) > 1
    assert calls == [(36, (system.k + 1) * 8)]


def test_split_merge_counts_clash_and_residual():
    # pieces on x2 = 0 and x0 = 0 whose roots miss the point (0, 1, 0)
    f = parse_form("x0^5 + 2*x0^3*x1^2 - x0*x1^4 + 3*x1^5 + x1^3*x2^2 - 2*x2^5", 3)
    sys = LineSystem((lin(0, 0, 1), lin(1, 0, 0)))
    split = split_on_lines(f, sys)
    decs = {i: decompose_binary(p) for i, p in enumerate(split.pieces([F(0)]))
            if not p.is_zero()}
    rejects = Rejects("test", "residual")
    merged = split.merge(decs, {"route": "test"}, 1e-8, rejects)
    assert verify_decomposition(f, merged).valid
    assert merged.provenance["lines"] == [tuple(map(str, ell.coeffs)) for ell in sys.lines]
    assert merged.provenance["route"] == "test"
    assert rejects.counts == {"residual": 0} and rejects.best_residual is None
    first = min(decs)
    # a piece listing each of its points twice merges them into one term
    # with the summed coefficient: the doubled piece misses f as a residual
    doubled = Decomposition(2, 5, decs[first].terms * 2)
    assert split.merge({first: doubled}, {}, 1e-8, rejects) is None
    assert rejects.counts == {"residual": 1}
    assert rejects.best_residual > 1e-8
    halved = Decomposition(2, 5, tuple(Term(t.coeff / 2, t.point) for t in decs[first].terms))
    assert split.merge({**decs, first: halved}, {}, 1e-8, rejects) is None
    assert rejects.counts == {"residual": 2}
    # the two halves of each point merge back into the piece: the sum is f
    rejoined = split.merge({**decs, first: Decomposition(2, 5, halved.terms * 2)},
                           {}, 1e-8, rejects)
    assert rejoined.size == merged.size
    assert [t.coeff for t in rejoined.terms] == [t.coeff for t in merged.terms]
    assert verify_decomposition(f, rejoined).valid
    assert rejects.counts == {"residual": 2}
    # a point and its negated twin cancel exactly and leave no term
    cancelled = Decomposition(2, 5, decs[first].terms + tuple(
        Term(-t.coeff, t.point) for t in decs[first].terms))
    assert ternary._merge_clashes(list(cancelled.terms), 5) == []
    assert split.merge({first: cancelled}, {}, 1e-8, rejects) is None
    assert rejects.counts == {"residual": 3}


def three_powers(d, seed):
    rng = random.Random(seed)
    f = None
    for _ in range(3):
        p = (0, 0, 0)
        while not any(p):
            p = tuple(rng.randint(-3, 3) for _ in range(3))
        f = power_of_linear(p, d) if f is None else f + power_of_linear(p, d)
    return f


@pytest.mark.parametrize("d", [5, 7])
def test_sums_of_three_powers_merge_their_clashing_points(d):
    # the pieces of such sums put points where two lines meet, on both
    # lines; merging them certifies the three powers themselves
    for seed in range(6):
        f = three_powers(d, seed)
        dec = decompose_ternary_odd(f, seed=seed)
        assert verify_decomposition(f, dec).valid
        assert dec.size == 3
    # two float copies of one point with tied largest coordinates pivot
    # on different ones, a factor near -1 apart: the later coefficient
    # enters scaled by it, so the merged term is the sum of both powers
    b = ProjectivePoint((1.0, -1 + 1e-10, 0.5))
    a = ProjectivePoint((1.0, -1 - 1e-10, 0.5))
    assert b.coords[0] == 1 and a.coords[1] == 1 and same_point(a, b, 1e-6)
    (term,) = ternary._merge_clashes([Term(2.0, b), Term(3.0, a)], d)
    assert term.point == b and abs(term.coeff - (2 - 3)) < 1e-8
    both = power_of_linear(b.coords, d, 2.0) + power_of_linear(a.coords, d, 3.0)
    assert (power_of_linear(term.point.coords, d, term.coeff) - both).max_abs() < 1e-6


# -- full odd-degree decompositions ---------------------------------------------


def check_ternary(f, dec, tol=1e-7):
    assert dec.residual(f) <= tol
    pts = dec.points()
    seen = set()
    for p in pts:
        a = p.as_floats()
        nz = max(a, key=abs)
        seen.add(tuple(round(complex(c / nz).real, 6) for c in a)
                 + tuple(round(complex(c / nz).imag, 6) for c in a))
    assert len(seen) == len(pts)


def test_decompose_quintic_respects_global_cap():
    for seed in (51, 52, 53):
        f = random_form(3, 5, seed=seed)
        dec = decompose_ternary_odd(f, seed=1)
        assert dec.size <= 12  # (5^2 - 1) / 2
        check_ternary(f, dec)
        prov = dec.provenance
        assert prov["route"] == "odd-line-split"
        assert all(s <= prov["cap"] for s in prov["piece_sizes"])


def test_decompose_septic_respects_global_cap():
    f = random_form(3, 7, seed=61)
    dec = decompose_ternary_odd(f, seed=1)
    assert dec.size <= 24  # (7^2 - 1) / 2
    check_ternary(f, dec)



@pytest.mark.parametrize("degree, seed", [(d, s) for d in (11, 13) for s in range(3)])
def test_decompose_ternary_odd_certifies_degrees_11_and_13(degree, seed):
    # with exact spans at the height of their lines these raised RetryExhausted
    f = random_form(3, degree, seed=seed)
    dec = decompose_ternary_odd(f, seed=seed)
    bound = (degree * degree - 1) // 2
    assert dec.size == bound
    assert verify_decomposition(f, dec, bound=(bound, BOUND_ODD_SPLIT)).valid


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(0, 10**6), st.sampled_from([1e-8, 1e-15]))
def test_decompose_ternary_odd_certifies_valid_or_raises_a_waring_error(degree, seed, tol):
    f = random_form(3, degree, seed)
    # at 1e-15 most tuples miss, so a short tuple budget keeps the example quick
    retries = ternary.TUPLE_BUDGET if tol == 1e-8 else 16
    try:
        dec = decompose_ternary_odd(f, seed=seed % 97, tol=tol, retries=retries)
    except WaringError:
        return
    cert = verify_decomposition(f, dec, tol=tol, bound=((degree**2 - 1) // 2, BOUND_ODD_SPLIT))
    assert cert.valid


@pytest.mark.parametrize("d", range(5, 42, 2))
def test_per_line_caps_bound_the_total(d):
    # decompose_ternary_odd caps each of its k + 1 pieces at
    # max(d + 1 - k, (d + 1) // 2) points, so (d^2 - 1) / 2 needs no own check
    for k in range(1, d - 1):
        assert (k + 1) * max(d + 1 - k, (d + 1) // 2) <= (d * d - 1) // 2


def test_spent_tuple_budget_reports_the_best_residual():
    # at tol 1e-15 every tuple misses; the diagnostics say by how much
    with pytest.raises(RetryExhausted) as err:
        decompose_ternary_odd(random_form(3, 5, 0), tol=1e-15, retries=4)
    diag = err.value.diagnostics
    assert set(diag) == {"stage", "rejects", "best_residual"} and diag["stage"] == "odd-split"
    assert set(diag["rejects"]) == {"lines", "split", "piece_fail", "residual"}
    assert 1e-15 < diag["best_residual"] < 1e-8


def test_every_tuple_step_lowers_the_records_best_residual():
    f = random_form(3, 5, 0)
    split = split_on_lines(f, minimize_annihilating(f, annihilating_lines(f)))
    caps, avoids = (6,) * len(split.spans), (None,) * len(split.spans)
    rejects, bests = Rejects("test", "piece_fail", "residual"), []
    for c in (0, 1, -2):
        # each step alone, then into the shared record: it holds the least so far
        alone = Rejects("test", "piece_fail", "residual")
        coeffs = [c] * len(split.kernel)
        assert split.decompose_tuple(coeffs, caps, avoids, 0, 1e-30, alone, {}) is None
        assert split.decompose_tuple(coeffs, caps, avoids, 0, 1e-30, rejects, {}) is None
        bests.append(alone.best_residual)
        assert alone.best_residual > 0 and sum(alone.counts.values()) == 1
        assert rejects.best_residual == min(bests)
    assert sum(rejects.counts.values()) == 3 and len(set(bests)) > 1


def test_tuple_rejects_use_one_vocabulary():
    # no tuple meets 1e-30, so the budget runs out and names its rejects
    with pytest.raises(RetryExhausted) as err:
        decompose_ternary_odd(random_form(3, 5, 0), tol=1e-30, retries=8)
    rejects = err.value.diagnostics["rejects"]
    assert set(rejects) == {"lines", "split", "piece_fail", "residual"}
    # each of the four line systems is lost before its tuples or spends all eight
    systems = 4 - rejects["lines"] - rejects["split"]
    assert systems > 0
    assert rejects["piece_fail"] + rejects["residual"] == 8 * systems


def test_tuple_search_powers_the_seesaws_only_past_the_zero_tuple(monkeypatch):
    calls = []
    monkeypatch.setattr(ternary, "power_of_linear",
                        lambda *args: calls.append(1) or power_of_linear(*args))
    dec = decompose_ternary_odd(random_form(3, 5, 0))
    assert dec.provenance["tuple_attempt"] == 0 and calls == []
    dec = decompose_ternary_odd(parse_form("x0^3*x1*x2", 3))
    assert dec.provenance["tuple_attempt"] == 1 and calls


def test_binary_subspace_route_certifies_a_nearly_parallel_plane_valid():
    # the essential plane's exact basis (-600, 216, -1032), (216, -84, 384) is
    # nearly parallel; pushed through it, the binary decomposition missed f
    # by 4e-8.  The route reduces the basis first.
    f = substitute(random_form(2, 5, 1), [parse_form("x0 + x2", 3),
                                          parse_form("x1 - 2*x2", 3)])
    for seed in range(3):
        dec = decompose_ternary_odd(f, seed=seed)
        assert dec.provenance["route"] == "binary-subspace"
        assert dec.size == 3
        assert verify_decomposition(f, dec).valid


def exact_sum(dec):
    """The exact sum of an exact decomposition's powered terms."""
    total = Form.zero(dec.num_vars, dec.degree)
    for t in dec.terms:
        total = total + power_of_linear(t.point.coords, dec.degree, t.coeff)
    return total


def test_decompose_single_power():
    f = power_of_linear((2, -1, 3), 5, F(7))
    dec = decompose_ternary_odd(f)
    assert dec.size == 1
    assert dec.is_exact
    assert exact_sum(dec).coeffs == f.coeffs


def test_decompose_essentially_binary():
    # three powers on the line spanned by (1,0,2) and (0,1,-1)
    f = Form(3, 5, tuple(a + b + c for a, b, c in zip(*(x.coeffs for x in (
        power_of_linear((1, 0, 2), 5),
        power_of_linear((1, 1, 1), 5),
        power_of_linear((2, 1, 3), 5))))))
    dec = decompose_ternary_odd(f, seed=2)
    assert dec.provenance["route"] == "binary-subspace"
    assert dec.size <= 3
    check_ternary(f, dec)


def test_decompose_rejects_bad_degrees_and_backends():
    with pytest.raises(PreconditionError):
        decompose_ternary_odd(random_form(3, 4, seed=7))
    with pytest.raises(PreconditionError):
        decompose_ternary_odd(random_form(3, 6, seed=7))
    with pytest.raises(PreconditionError):
        decompose_ternary_odd(parse_form("x0^3 + x1^3", 3))
    with pytest.raises(PreconditionError):
        decompose_ternary_odd(random_form(3, 5, seed=7).to_float())
    with pytest.raises(PreconditionError):
        decompose_ternary_odd(random_form(2, 5, seed=7))
    with pytest.raises(ZeroFormError):
        decompose_ternary_odd(Form.zero(3, 5))


# -- the avoidance-length bound --------------------------------------------------


def test_bound_values_frozen():
    # hand-expanded binomial sums
    assert bound_B1(3, 4) == 8
    assert bound_B1(3, 5) == 13
    assert bound_B1(3, 6) == math.comb(7, 5) - math.comb(2, 2) - math.comb(3, 3)
    assert bound_B1(4, 4) == 17  # C(6,3) - C(1,0) - C(2,1)


def test_bound_dominates_odd_degree_totals():
    for d in range(5, 40, 2):
        assert bound_B1(3, d) > (d * d - 1) // 2


def test_bound_validates_range():
    with pytest.raises(PreconditionError):
        bound_B1(2, 5)
    with pytest.raises(PreconditionError):
        bound_B1(3, 3)
