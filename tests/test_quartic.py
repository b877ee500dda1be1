import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring import apolarity, avoidance, quartic
from waring.apolarity import catalecticant, essential_variables, rank_lower_bound
from waring.avoidance import AvoidanceSet
from waring.binary import border_rank_binary
from waring.certify import (BOUND_CONIC_PULLBACK, BOUND_QUARTIC_EIGHT, to_json,
                            verify_decomposition)
from waring.errors import (
    NoSmoothConic,
    PreconditionError,
    RetryExhausted,
    WaringError,
    ZeroFormError,
)
from waring.forms import Form, contract, parse_form, power_of_linear, random_form, substitute
from waring.monomials import exponents, multinomial
from waring.plane import UNIT_DUALS, det3, pencil_at, quadric_matrix
from waring.quartic import (
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


def test_witness_is_the_weighted_four_jet_of_its_curve():
    # the t^j coefficient of (x0 + t x1 + t^3 x2)^4 collects
    # multinomial(4; a, b, c) x0^a x1^b x2^c over b + 3c = j
    jets = [{} for _ in range(4)]
    for a, b, c in exponents(3, 4):
        if b + 3 * c < 4:
            jets[b + 3 * c][(a, b, c)] = F(multinomial((a, b, c)))
    for weights in ((1, 1, 1, 1), (2, -1, 3, 5), (F(1, 3), 7, F(-5, 2), 4), (-4, 0, 1, F(9, 7))):
        c0, c1, c2, c3 = map(F, weights)
        expected = Form.zero(3, 4)
        for w, jet in zip((c0, c1 / 4, c2 / 6, c3 / 4), jets):
            expected = expected + Form.from_dict(3, 4, jet).scale(w)
        assert witness_quartic(weights).coeffs == expected.coeffs


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


def test_plane_route_pushes_through_a_reduced_essential_line():
    # the essential plane's exact basis (141288, -94512, 94512),
    # (-94512, 63456, -63456) is nearly parallel; pushed through it, the
    # decomposition missed f by 7e-7 to 3e-6 at every seed
    g = parse_form("5887*x0^4 - 15752*x0^3*x1 + 15864*x0^2*x1^2 - 7520*x0*x1^3"
                   " + 1552*x1^4", 2)
    f = substitute(g, [parse_form("x0", 3), parse_form("x1 - x2", 3)])
    X = AvoidanceSet(3, (parse_form("x2", 3), parse_form("x0*x2 - x1^2", 3)))
    for avoid in (None, X):
        for seed in range(4):
            dec = quartic_decompose_open(f, avoid, seed=seed)
            assert dec.provenance["route"] == "line-open"
            assert verify_decomposition(f, dec, avoid=avoid, bound=(8, BOUND_QUARTIC_EIGHT)).valid


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


@pytest.mark.parametrize("f, stage, route_key", [
    (parse_form("x0^3*x1", 3), "two-line-split", None),        # plane route: the 4 + 4 split
    (random_form(3, 4, seed=5), "three-line-split", "det"),  # triple route: 2 + 3 + 3
])
def test_split_rejects_use_one_vocabulary(f, stage, route_key):
    # no tuple meets 1e-30, so the split runs out and names its rejects
    with pytest.raises(RetryExhausted) as err:
        quartic_decompose_open(f, LINE_X2, seed=0, tol=1e-30, retries=8)
    diag = err.value.diagnostics
    assert set(diag) == {"stage", "rejects", "best_residual"} and diag["stage"] == stage
    expected = {"piece_fail", "residual"} | ({route_key} if route_key else set())
    assert set(diag["rejects"]) == expected
    assert diag["rejects"]["piece_fail"] > 0
    assert diag["best_residual"] > 1e-30


def test_brk3_pulls_back_through_a_float_conic_point(monkeypatch):
    # with no rational point at the search height the conic is parametrized
    # from a float point
    f = parse_form("x0^4 + x1^4", 3) + power_of_linear((1, 1, 1), 4)
    floats = []
    float_point = quartic.float_point_on_conic
    monkeypatch.setattr(quartic, "rational_point_on_conic", lambda q, height: None)
    monkeypatch.setattr(quartic, "float_point_on_conic",
                        lambda q, seed: floats.append(seed) or float_point(q, seed=seed))
    for seed in range(2):
        try:
            dec = quartic_brk3_decompose(f, LINE_X2, seed=seed)
        except RetryExhausted as err:
            assert set(err.diagnostics) == {"stage", "rejects", "best_residual", "conics"}
            continue
        cert = verify_decomposition(f, dec, avoid=LINE_X2, bound=(7, BOUND_CONIC_PULLBACK))
        assert cert.valid and dec.size <= 7
        assert dec.provenance["route"] == "conic-pullback" and not dec.provenance["octic_exact"]
    assert floats


def test_brk3_counts_a_pushed_point_inside_the_avoided_set_apart(monkeypatch):
    # every pushed point reads as inside X: each conic is rejected as
    # `avoided` before its residual is taken, so no best residual is kept
    f = parse_form("x0^4 + x1^4", 3) + power_of_linear((1, 1, 1), 4)
    contains = AvoidanceSet.contains
    monkeypatch.setattr(AvoidanceSet, "contains",
                        lambda self, p: self.num_vars == 3 or contains(self, p))
    with pytest.raises(RetryExhausted) as err:
        quartic_brk3_decompose(f, LINE_X2, seed=0, retries=3)
    diag = err.value.diagnostics
    assert diag["stage"] == "conic-pullback" and diag["conics"] == 3
    assert diag["rejects"]["avoided"] == 3 and diag["rejects"]["residual"] == 0
    assert diag["best_residual"] is None


BRK3_REASONS = ("point", "inside", "span", "octic_rank", "binary", "avoided", "residual")


@pytest.mark.parametrize("reason", ["point", "inside", "span", "octic_rank", "binary", "residual"])
def test_brk3_counts_each_reason_where_its_collaborator_decides_it(monkeypatch, reason):
    # one collaborator forced to fail rejects every conic for that reason
    # alone; only a pushed sum that misses f keeps a best residual
    f = parse_form("x0^4 + x1^4", 3) + power_of_linear((1, 1, 1), 4)
    push = quartic.term_from_vector

    def fail(*args, **kwargs):
        raise (PreconditionError if reason == "point" else RetryExhausted)("forced")

    name, patch = {
        "point": ("conic_parametrization", fail),
        "inside": ("substitute", lambda g, phi: Form.zero(2, 2 * g.degree)),
        "span": ("solve_columns", lambda *args, **kwargs: None),
        "octic_rank": ("initial_degree_any", lambda octic: 2),
        "binary": ("decompose_binary_avoiding", fail),
        "residual": ("term_from_vector", lambda c, z, d: push(2 * c, z, d)),  # twice f
    }[reason]
    monkeypatch.setattr(quartic, name, patch)
    with pytest.raises(RetryExhausted) as err:
        quartic_brk3_decompose(f, LINE_X2, seed=0, retries=3)
    diag = err.value.diagnostics
    assert diag["stage"] == "conic-pullback" and diag["conics"] == 3
    assert diag["rejects"] == {r: 3 * (r == reason) for r in BRK3_REASONS}
    if reason == "residual":
        assert diag["best_residual"] > 0.5
    else:
        assert diag["best_residual"] is None


@pytest.mark.parametrize("triple", [("x0", "x1", "x0 + x1 + x2"), ("x0", "x0 + x1 + x2", "x1")])
def test_triple_route_reroutes_a_zero_pair_to_the_two_line_split(monkeypatch, triple):
    # no x0*x1 monomial: the dual product x0 x1 kills f, so (l0, l1) or (l0, l2)
    # of the triple annihilates it and the 4 + 4 split runs on that pair
    f = parse_form("x0^4 + 2*x0^3*x2 - 3*x0^2*x2^2 + x1^4 - x1^3*x2 + 2*x1*x2^3 + x2^4", 3)
    assert essential_variables(f) == 3 and catalecticant(f, 2).rank >= 4
    lines = tuple(parse_form(text, 3) for text in triple)
    monkeypatch.setattr(quartic, "quartic_predecomp", lambda *args, **kwargs: lines)
    X = AvoidanceSet(3, (parse_form("x0 + x1 + x2", 3),))
    for avoid in (None, X):
        dec = quartic_decompose_open(f, avoid, seed=0)
        assert dec.provenance["route"] == "two-line-split"
        assert dec.provenance["lines"] == [("1", "0", "0"), ("0", "1", "0")]
        assert verify_decomposition(f, dec, avoid=avoid, bound=(8, BOUND_QUARTIC_EIGHT)).valid


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
    for v in (0, 1, -1, 2):  # the samples `singular_members` takes
        t = F(v)
        member = pencil_at(m_a, m_b, t)
        reference = _product_matrix(f, l1, la + lb.scale(t))
        assert [[2 * x for x in row] for row in member] == reference
        assert all(type(x) is Fraction for row in member for x in row)
        assert 8 * det3(member) == det3(reference)


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


@pytest.mark.parametrize("f", [
    parse_form("x0^4 + x0^3*x1 + x1^4", 3),  # line-open route
    parse_form("x0^3*x1", 3),                # plane route: the 4 + 4 split
    random_form(3, 4, seed=5),               # triple route: the 2 + 3 + 3 split
])
def test_nothing_avoided_restricts_and_tests_nothing(f, monkeypatch):
    # with the empty set the binary pieces avoid nothing: no restriction to
    # a line and no membership test, and the certificate is unchanged
    expected = verify_decomposition(f, quartic_decompose_open(f, AvoidanceSet.none(3)))
    calls = []
    for name in ("restrict_to_line", "contains", "evaluate_at"):
        original = getattr(AvoidanceSet, name)
        monkeypatch.setattr(AvoidanceSet, name, lambda self, *args, _o=original, _n=name:
                            calls.append(_n) or _o(self, *args))
    cert = verify_decomposition(f, quartic_decompose_open(f))
    assert calls == []
    assert cert.valid
    assert to_json(cert) == to_json(expected)
