import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring import apolarity, avoidance, quartic
from waring.apolarity import catalecticant, essential_variables, rank_lower_bound
from waring.avoidance import AvoidanceSet
from waring.binary import border_rank_binary
from waring.certify import BOUND_QUARTIC_EIGHT, verify_decomposition
from waring.errors import (
    NoSmoothConic,
    PreconditionError,
    RetryExhausted,
    WaringError,
    ZeroFormError,
)
from waring.forms import Form, contract, parse_form, power_of_linear, random_form
from waring.monomials import exponents
from waring.plane import UNIT_DUALS, det3, pencil_at, quadric_matrix
from waring.quartic import (
    _BINARY_QUADRIC_DUALS,
    quartic_brk3_decompose,
    quartic_decompose_open,
    quartic_predecomp,
    witness_quartic,
)

F = Fraction

LINE_X2 = AvoidanceSet(3, (parse_form("x2", 3),))


def powsum(points, weights=None):
    total = Form.zero(3, 4)
    for i, p in enumerate(points):
        w = F(1) if weights is None else F(weights[i])
        total = total + power_of_linear(p, 4, w)
    return total


def check_open(f, dec, X, max_size=8, tol=1e-7):
    assert dec.size <= max_size
    assert dec.residual(f) <= tol
    for p in dec.points():
        assert not X.contains(p)


# -- the witness ---------------------------------------------------------------


def test_witness_construction():
    f = witness_quartic()
    assert essential_variables(f) == 3
    assert rank_lower_bound(f) >= 4
    g = witness_quartic((2, -1, 3, 5))
    assert essential_variables(g) == 3


def test_witness_rejects_degenerate_weights():
    with pytest.raises(PreconditionError):
        witness_quartic((1, 0, 0, 0))  # collapses to a single power
    with pytest.raises(PreconditionError):
        witness_quartic((1, 1, 1))


# -- the split triple ------------------------------------------------------------


def test_predecomp_postconditions():
    rng = random.Random(71)
    found = 0
    for _ in range(6):
        f = random_form(3, 4, seed=rng.randrange(1 << 30))
        if f.is_zero() or rank_lower_bound(f) < 4:
            continue
        l0, l1, l2 = quartic_predecomp(f, seed=3)
        found += 1
        # the product of the three lines annihilates f
        prod = l0 * l1 * l2
        killed = contract(prod, f)
        if killed.is_exact:
            assert killed.is_zero()
        else:
            assert killed.max_abs() < 1e-7 * max(1.0, f.max_abs())
        # lines are non-concurrent (so they pairwise differ too)
        rows = [list(l0.coeffs), list(l1.coeffs), list(l2.coeffs)]
        assert abs(complex(det3(rows))) > 1e-12
    assert found >= 4


def test_predecomp_gate():
    f = parse_form("x0^4 + x1^4 + x2^4", 3)
    assert catalecticant(f, 2).rank == 3
    with pytest.raises(PreconditionError):
        quartic_predecomp(f, seed=0, check_gate=True)


# -- conic pullback ---------------------------------------------------------------


def brk3_fixture():
    # x0^4 + x1^4 + (x0 + x1 + x2)^4: middle catalecticant rank three
    return powsum([(1, 0, 0), (0, 1, 0), (1, 1, 1)])


def test_brk3_decompose_seven_points():
    f = brk3_fixture()
    assert catalecticant(f, 2).rank == 3
    dec = quartic_brk3_decompose(f, LINE_X2, seed=0)
    check_open(f, dec, LINE_X2, max_size=7)
    assert dec.size == 7
    assert dec.provenance["route"] == "conic-pullback"


# two essential variables and middle rank three: the apolar net is the dual
# line times S_1, so every conic in it is singular
SINGULAR_NET_QUARTIC = "x0^4 + 2*x0^3*x1 + x1^4 + 5*x0*x1^3 + 3*x0^2*x1^2"


def test_brk3_singular_net_raises_before_any_random_draw(monkeypatch):
    f = parse_form(SINGULAR_NET_QUARTIC, 3)
    assert (catalecticant(f, 2).rank, essential_variables(f)) == (3, 2)
    # the grid {-2..2}^3 decides it: a nonzero determinant cubic cannot vanish there
    monkeypatch.setattr(quartic, "random_combination", None)
    with pytest.raises(NoSmoothConic):
        quartic_brk3_decompose(f, seed=0)


def test_brk3_octic_has_border_rank_three():
    f = brk3_fixture()
    dec = quartic_brk3_decompose(f, LINE_X2, seed=0)
    prov = dec.provenance
    assert prov["octic_exact"]
    octic = Form(2, 8, tuple(F(c) for c in prov["octic"]))
    assert border_rank_binary(octic) == 3


def test_brk3_rejects_other_ranks():
    f = random_form(3, 4, seed=81)
    assert catalecticant(f, 2).rank == 6
    with pytest.raises(PreconditionError):
        quartic_brk3_decompose(f, LINE_X2, seed=0)


def test_brk3_random_rational_power_sums():
    rng = random.Random(82)
    done = 0
    while done < 5:
        pts = set()
        while len(pts) < 3:
            pts.add((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)))
        f = powsum(sorted(pts))
        if essential_variables(f) != 3 or catalecticant(f, 2).rank != 3:
            continue
        done += 1
        dec = quartic_brk3_decompose(f, LINE_X2, seed=done)
        check_open(f, dec, LINE_X2, max_size=7)
        assert dec.size == 7


# -- routing ----------------------------------------------------------------------


def test_route_single_power_untouched():
    f = parse_form("x0^4", 3).scale(F(3))
    X = AvoidanceSet(3, (parse_form("x0", 3),))  # misses (1, 0, 0)
    dec = quartic_decompose_open(f, X, seed=0)
    assert dec.size == 1
    assert dec.provenance["route"] == "single-power"
    assert dec.residual(f) == 0.0


def test_route_power_respread_when_point_is_avoided():
    f = parse_form("x0^4", 3)
    X = AvoidanceSet(3, (parse_form("x1", 3),))  # contains (1, 0, 0)
    dec = quartic_decompose_open(f, X, seed=0)
    assert dec.provenance["route"] == "power-respread-line"
    check_open(f, dec, X, max_size=5)
    assert dec.size == 5


def test_route_line_open_for_plane_forms():
    # binary quartic on the line x2 = 0, avoided set misses that line
    f = parse_form("x0^4 + x0^3*x1 + x1^4", 3)
    X = AvoidanceSet(3, (parse_form("x0 - x2", 3),))
    dec = quartic_decompose_open(f, X, seed=0)
    assert dec.provenance["route"] == "line-open"
    check_open(f, dec, X, max_size=3)
    assert dec.size == 3


@pytest.mark.parametrize("text, avoided", [
    ("x0^4", "x1"),                      # power route
    ("x0^4 + x0^3*x1 + x1^4", "x0 - x2"),  # plane route, line open
])
def test_line_routes_spend_the_callers_retry_budget(text, avoided):
    X = AvoidanceSet(3, (parse_form(avoided, 3),))
    with pytest.raises(RetryExhausted):
        quartic_decompose_open(parse_form(text, 3), X, seed=0, retries=0)



def test_triple_route_spends_the_callers_retry_budget():
    # middle rank at least four: the determinant search and the 2 + 3 + 3 split
    with pytest.raises(RetryExhausted):
        quartic_decompose_open(random_form(3, 4, seed=5), LINE_X2, seed=0, retries=0)


@pytest.mark.parametrize("f, route_key", [
    (parse_form("x0^3*x1", 3), None),   # plane route: the 4 + 4 split
    (random_form(3, 4, seed=5), "det"),  # triple route: the 2 + 3 + 3 split
])
def test_split_rejects_use_one_vocabulary(f, route_key):
    # no tuple meets 1e-30, so the split runs out and names its rejects
    with pytest.raises(RetryExhausted) as err:
        quartic_decompose_open(f, LINE_X2, seed=0, tol=1e-30, retries=8)
    expected = {"piece_fail", "clash", "residual"} | ({route_key} if route_key else set())
    assert set(err.value.diagnostics) == expected
    assert err.value.diagnostics["piece_fail"] > 0


def test_conic_route_spends_the_callers_retry_budget():
    # middle rank three: the conic pullback, then the triple route, both at zero
    f = parse_form("x0^4 + x1^4", 3) + power_of_linear((1, 1, 1), 4)
    assert quartic_decompose_open(f, LINE_X2, seed=0).provenance["route"] == "conic-pullback"
    with pytest.raises(RetryExhausted):
        quartic_brk3_decompose(f, LINE_X2, seed=0, retries=0)
    with pytest.raises(RetryExhausted):
        quartic_decompose_open(f, LINE_X2, seed=0, retries=0)


def test_route_two_line_escape_for_small_initial_degree():
    # x0^3 x1 has initial degree two; its support line x2 = 0 sits inside X
    f = parse_form("x0^3*x1", 3)
    dec = quartic_decompose_open(f, LINE_X2, seed=0)
    assert dec.provenance["route"] == "two-line-split"
    check_open(f, dec, LINE_X2, max_size=8)


def test_route_refuses_the_unreachable_corner():
    # a plane quartic with full middle rank on its own line: every quadric
    # annihilator is a multiple of the support dual, so eight avoiding
    # powers do not exist
    f = parse_form("x0^3*x1 + x1^4", 3)
    with pytest.raises(PreconditionError, match="nine"):
        quartic_decompose_open(f, LINE_X2, seed=0)


def test_route_triple_for_full_rank():
    rng = random.Random(83)
    for _ in range(3):
        f = random_form(3, 4, seed=rng.randrange(1 << 30))
        if f.is_zero() or catalecticant(f, 2).rank < 4:
            continue
        dec = quartic_decompose_open(f, LINE_X2, seed=1)
        check_open(f, dec, LINE_X2, max_size=8)
        assert dec.provenance["route"] in ("two-line-split", "three-line-split")


def test_witness_needs_all_eight():
    f = witness_quartic()
    dec = quartic_decompose_open(f, LINE_X2, seed=0)
    check_open(f, dec, LINE_X2, max_size=8)
    assert dec.size == 8


def test_random_lines_random_quartics():
    rng = random.Random(84)
    for _ in range(5):
        f = random_form(3, 4, seed=rng.randrange(1 << 30))
        if f.is_zero():
            continue
        dual = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        X = AvoidanceSet(3, (Form(3, 1, tuple(F(c) for c in dual)),))
        dec = quartic_decompose_open(f, X, seed=rng.randrange(1 << 16))
        check_open(f, dec, X, max_size=8)


def test_no_avoidance_defaults_to_trivial_set():
    f = brk3_fixture()
    dec = quartic_decompose_open(f, seed=0)
    assert dec.size <= 8
    assert dec.residual(f) <= 1e-7


def test_input_validation():
    with pytest.raises(ZeroFormError):
        quartic_decompose_open(Form.zero(3, 4))
    with pytest.raises(PreconditionError):
        quartic_decompose_open(random_form(3, 4, seed=2).to_float())
    with pytest.raises(PreconditionError):
        quartic_decompose_open(random_form(3, 5, seed=2))
    with pytest.raises(PreconditionError):
        quartic_decompose_open(random_form(2, 4, seed=2))


# -- the derivative pencil and single computation of each invariant ---------------


def integer_forms(degree, height):
    n = len(exponents(3, degree))
    return st.lists(st.integers(-height, height), min_size=n, max_size=n).map(
        lambda cs: Form(3, degree, tuple(F(c) for c in cs)))


LINES = integer_forms(1, 9)


def _product_matrix(f, l1, l2):
    """Matrix of l -> (l * l1 * l2) contracted into f, basis to basis."""
    base = l1 * l2
    cols = [contract(unit * base, f) for unit in UNIT_DUALS]
    return [[cols[j].coeffs[i] for j in range(3)] for i in range(3)]


@settings(max_examples=80, deadline=None)
@given(integer_forms(4, 9), LINES, LINES, LINES)
def test_pencil_hessians_equal_the_product_matrices(f, l1, la, lb):
    g1 = contract(l1, f)
    m_a, m_b = quadric_matrix(contract(la, g1)), quadric_matrix(contract(lb, g1))
    for v in (0, 1, -1, 2):  # the samples `pencil_roots` takes
        t = F(v)
        member = pencil_at(m_a, m_b, t)
        reference = _product_matrix(f, l1, la + lb.scale(t))
        assert [[2 * x for x in row] for row in member] == reference
        assert all(type(x) is Fraction for row in member for x in row)
        assert 8 * det3(member) == det3(reference)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-9, 9, max_denominator=5), min_size=5, max_size=5))
def test_binary_dual_rows_are_the_middle_catalecticant(coeffs):
    f0 = Form(2, 4, tuple(coeffs))
    rows = [list(contract(m, f0).coeffs) for m in _BINARY_QUADRIC_DUALS]
    assert rows == [list(row) for row in catalecticant(f0, 2).entries]


def test_rank_four_quartic_takes_two_ranks_no_kernel_and_one_line_search(monkeypatch):
    f = random_form(3, 4, seed=0, height=3)
    assert catalecticant(f, 2).rank >= 4
    counts = {"rank": 0, "kernel": 0, "lines": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(apolarity, "exact_rank", counted("rank", apolarity.exact_rank))
    monkeypatch.setattr(apolarity, "exact_nullspace",
                        counted("kernel", apolarity.exact_nullspace))
    monkeypatch.setattr(avoidance, "_line_candidates",
                        counted("lines", avoidance._line_candidates))
    avoidance._rational_lines.cache_clear()
    for _ in range(2):  # two separately built, equal avoided sets
        X = AvoidanceSet(3, (parse_form("x0*x1", 3),))
        dec = quartic_decompose_open(f, X, seed=0)
        assert dec.provenance["route"] == "three-line-split"
    # per call: essential_variables and the router's middle rank, no kernel
    assert counts == {"rank": 4, "kernel": 0, "lines": 1}


QUARTIC_AVOIDED = (None, "x2", "x0*x2 - x1^2", "x0^3 + x1^3 + x2^3", "x0*x1", "x0 - x1")
SPARSE_QUARTICS = st.dictionaries(
    st.sampled_from(exponents(3, 4)), st.sampled_from((-2, -1, 1, 2)),
    min_size=1, max_size=4).map(lambda d: Form.from_dict(3, 4, d))


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_forms(4, 2), SPARSE_QUARTICS),
       st.sampled_from(QUARTIC_AVOIDED), st.integers(0, 3), st.sampled_from([1e-8, 1e-15]))
# the power route's binary residual met 1e-15, the sum pushed onto its line did not
@example(parse_form("-2*x0^4", 3), "x2", 3, 1e-15)
def test_quartic_open_certifies_valid_or_raises_a_waring_error(f, avoided, seed, tol):
    X = None if avoided is None else AvoidanceSet(3, (parse_form(avoided, 3),))
    # at 1e-15 most samples miss, so a short retry budget keeps the example quick
    retries = 64 if tol == 1e-8 else 8
    try:
        dec = quartic_decompose_open(f, X, seed=seed, tol=tol, retries=retries)
    except WaringError:
        return
    cert = verify_decomposition(f, dec, tol=tol, avoid=X, bound=(8, BOUND_QUARTIC_EIGHT))
    assert cert.valid, cert
