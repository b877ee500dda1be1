import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import ternary
from waring.binary import decompose_binary, embed_binary
from waring.certify import BOUND_ODD_SPLIT, verify_decomposition
from waring.decomposition import Decomposition, Term
from waring.errors import (
    DegenerateSystemError,
    PreconditionError,
    WaringError,
    ZeroFormError,
)
from waring.forms import (
    Form,
    ProjectivePoint,
    contract,
    parse_form,
    power_of_linear,
    random_form,
)
from waring.plane import cross
from waring.ternary import (
    LineSystem,
    annihilates,
    annihilating_lines,
    bound_B1,
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
    p = sys.intersection(0, 1)
    nz = next(c for c in p if c != 0)
    assert tuple(F(c) / nz for c in p) == (F(0), F(0), F(1))
    assert sys.in_general_position()


def test_line_system_concurrency_detected():
    # three lines through (0, 0, 1)
    sys = LineSystem((lin(1, 0, 0), lin(0, 1, 0), lin(1, 1, 0)))
    assert not sys.in_general_position()


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


# -- reducible members of apolar nets ------------------------------------------


def test_reducible_kernel_pair_fermat_cubic():
    f = parse_form("x0^3 + x1^3 + x2^3", 3)
    pair = reducible_kernel_pair(f, seed=1)
    assert not pair.from_sigma
    prod = pair.first * pair.second
    assert contract(prod, f).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_line_search_factors_one_float_pair(monkeypatch, seed):
    # only the first float pair can be returned: later float members are only
    # rank-checked, so one factorization is made where 24 used to be
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


def test_annihilating_lines_validates_input():
    with pytest.raises(PreconditionError):
        annihilating_lines(parse_form("x0^2", 3))
    with pytest.raises(PreconditionError):
        annihilating_lines(random_form(3, 5, seed=3).to_float())
    with pytest.raises(PreconditionError):
        annihilating_lines(parse_form("x0^2 + x1^2", 2))


def test_annihilating_lines_tests_each_pair_once(monkeypatch):
    # the pairs of sampled lines are tested inside reducible_kernel_pair only
    calls = []
    real = ternary.contract
    monkeypatch.setattr(ternary, "contract", lambda t, g: calls.append(t) or real(t, g))
    annihilating_lines(random_form(3, 9, 0))
    assert len(calls) == 29


def test_minimize_annihilating_drops_redundant_line():
    f = parse_form("x0^5 + x1^5", 3)
    fat = LineSystem((lin(1, 0, 0), lin(0, 1, 0), lin(1, 1, 0)))
    slim = minimize_annihilating(f, fat)
    assert len(slim.lines) == 2
    assert slim.annihilates(f)
    duals = {tuple(ell.coeffs) for ell in slim.lines}
    assert duals == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}


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
    assert split.solution_dim == math.comb(k + 1, 2)
    assert len(split.kernel) == split.solution_dim
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
    assert split.solution_dim == 1
    zero = [F(0)]
    assert (_assemble(split, split.pieces(zero)) - fsum).is_zero()


def test_split_merge_counts_clash_and_residual():
    # pieces on x2 = 0 and x0 = 0 whose roots miss the point (0, 1, 0)
    f = parse_form("x0^5 + 2*x0^3*x1^2 - x0*x1^4 + 3*x1^5 + x1^3*x2^2 - 2*x2^5", 3)
    sys = LineSystem((lin(0, 0, 1), lin(1, 0, 0)))
    split = split_on_lines(f, sys)
    decs = {i: decompose_binary(p) for i, p in enumerate(split.pieces([F(0)]))
            if not p.is_zero()}
    rejects = {"clash": 0, "residual": 0}
    merged = split.merge(decs, {"route": "test"}, 1e-8, rejects)
    assert verify_decomposition(f, merged).valid
    assert merged.provenance["lines"] == [tuple(map(str, ell.coeffs)) for ell in sys.lines]
    assert merged.provenance["route"] == "test"
    assert rejects == {"clash": 0, "residual": 0}
    first = min(decs)
    doubled = Decomposition(2, 5, decs[first].terms * 2)
    assert split.merge({first: doubled}, {}, 1e-8, rejects) is None
    assert rejects == {"clash": 1, "residual": 0}
    halved = Decomposition(2, 5, tuple(Term(t.coeff / 2, t.point) for t in decs[first].terms))
    assert split.merge({**decs, first: halved}, {}, 1e-8, rejects) is None
    assert rejects == {"clash": 1, "residual": 1}


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



@settings(max_examples=15, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(0, 10**6))
def test_decompose_ternary_odd_certifies_valid_or_raises_a_waring_error(degree, seed):
    f = random_form(3, degree, seed)
    try:
        dec = decompose_ternary_odd(f, seed=seed % 97)
    except WaringError:
        return
    assert verify_decomposition(f, dec, bound=((degree**2 - 1) // 2, BOUND_ODD_SPLIT)).valid

def test_decompose_single_power():
    f = power_of_linear((2, -1, 3), 5, F(7))
    dec = decompose_ternary_odd(f)
    assert dec.size == 1
    assert dec.is_exact
    assert dec.synthesize_exact().coeffs == f.coeffs


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
