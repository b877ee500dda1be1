import json
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring.avoidance import AvoidanceSet
from waring.binary import (
    RESIDUAL_TOL,
    decompose_binary,
    decompose_binary_avoiding,
    rank_binary,
)
from waring.certify import (
    BOUND_BINARY_OPEN,
    BOUND_ODD_SPLIT,
    BOUND_WITNESS_CLAIM,
    ROUTES,
    Certificate,
    from_json,
    rank_bracket,
    replay,
    route_by_shape,
    to_json,
    verify_decomposition,
)
from waring.decomposition import Decomposition, Term
from waring.errors import (DimensionMismatch, ParseFormError, PreconditionError,
                           RetryExhausted, WaringError)
from waring.forms import (Form, ProjectivePoint, evaluate, form_to_string, parse_form,
                          power_of_linear, random_form, substitute)
from waring.monomials import exponents, space_dim
from waring.ternary import decompose_ternary_odd

F = Fraction


def make_cert(seed=0):
    # rational kernel roots, so the whole pipeline stays exact
    f = parse_form("x0^3 + x1^3", 2)
    dec = decompose_binary(f, seed=seed)
    return f, dec, verify_decomposition(f, dec, seed=seed)


def make_float_cert(seed=0):
    # irrational kernel roots force the float backend
    f = parse_form("x0^3 + 6*x0*x1^2", 2)
    dec = decompose_binary(f, seed=seed)
    return f, dec, verify_decomposition(f, dec, seed=seed)


# -- verification ----------------------------------------------------------------


def test_valid_certificate_checks():
    f, dec, cert = make_cert()
    assert cert.valid
    names = [c["name"] for c in cert.checks]
    assert names == ["nonzero-coefficients", "distinct-points", "residual",
                     "size-within-bound"]
    for c in cert.checks:
        assert set(c) == {"name", "pass", "value", "limit"}
    assert cert.residual <= 1e-8
    assert cert.decomposition is dec
    assert cert.cat_ranks == [(1, 2), (2, 2)]
    assert "VALID" in cert.summary()


def test_invalid_when_perturbed():
    f, dec, _ = make_cert()
    bad_terms = (Term(dec.terms[0].coeff + F(1, 1000), dec.terms[0].point),) \
        + dec.terms[1:]
    bad = Decomposition(2, 3, bad_terms)
    cert = verify_decomposition(f, bad)
    assert not cert.valid
    failed = {c["name"] for c in cert.checks if not c["pass"]}
    assert failed == {"residual"}
    assert "INVALID" in cert.summary()
    # the English lives in summary(), rendered from the check's numbers
    assert (f"check residual: FAIL ({cert.residual!r} vs tolerance "
            f"{RESIDUAL_TOL!r})") in cert.summary()


def test_zero_coefficient_detected():
    f = parse_form("x0^2", 2)
    dec = Decomposition(2, 2, (
        Term(F(1), ProjectivePoint((F(1), F(0)))),
        Term(F(0), ProjectivePoint((F(1), F(1)))),
    ))
    cert = verify_decomposition(f, dec)
    failed = {c["name"] for c in cert.checks if not c["pass"]}
    assert "nonzero-coefficients" in failed


def test_coincident_points_detected():
    f = parse_form("x0^2", 2)
    dec = Decomposition(2, 2, (
        Term(F(1, 2), ProjectivePoint((F(1), F(0)))),
        Term(F(1, 2), ProjectivePoint((F(2), F(0)))),
    ))
    cert = verify_decomposition(f, dec)
    failed = {c["name"] for c in cert.checks if not c["pass"]}
    assert "distinct-points" in failed


def test_avoidance_check_and_report():
    f = parse_form("x0^5 + x1^5", 2)
    X = AvoidanceSet.from_points([(F(1), F(3))])
    dec = decompose_binary_avoiding(f, X, seed=1)
    cert = verify_decomposition(f, dec, avoid=X)
    assert cert.valid
    assert cert.avoidance is not None
    assert len(cert.avoidance["evaluations"]) == dec.size
    # planting a forbidden point flips the avoidance check
    bad = Decomposition(2, 5, dec.terms[:-1] + (
        Term(F(1), ProjectivePoint((F(1), F(3)))),))
    cert2 = verify_decomposition(f, bad, avoid=X)
    failed = {c["name"] for c in cert2.checks if not c["pass"]}
    assert "avoidance" in failed


def test_the_avoidance_check_counts_a_point_with_a_nan_coordinate():
    # off x2 at (1, 2, 3); on the old rule (1, nan, 2) read x2 = 1 and was off X
    X = AvoidanceSet(3, (parse_form("x2", 3),))
    nan = float("nan")
    points = [ProjectivePoint(c) for c in ((1.0, 2.0, 3.0), (1.0, nan, 2.0), (nan, 1.0, 2.0))]
    dec = Decomposition(3, 4, tuple(Term(complex(1), p) for p in points))
    cert = verify_decomposition(power_of_linear((1, 2, 3), 4), dec, avoid=X)
    check = next(c for c in cert.checks if c["name"] == "avoidance")
    assert check == {"name": "avoidance", "pass": False, "value": 2, "limit": 0}


def test_trivial_avoidance_not_reported():
    f, dec, _ = make_cert()
    cert = verify_decomposition(f, dec, avoid=AvoidanceSet.none(2))
    assert cert.avoidance is None
    assert all(c["name"] != "avoidance" for c in cert.checks)


def test_bound_check_and_claim_tags():
    f, dec, _ = make_cert()
    tight = verify_decomposition(f, dec, bound=(dec.size, BOUND_BINARY_OPEN))
    assert tight.valid
    broken = verify_decomposition(f, dec, bound=(dec.size - 1, BOUND_BINARY_OPEN))
    assert not broken.valid
    # claim tags are recorded but never size-checked
    claimed = verify_decomposition(f, dec, bound=(dec.size - 1, BOUND_WITNESS_CLAIM))
    assert claimed.valid
    assert all(c["name"] != "size-within-bound" for c in claimed.checks)
    assert claimed.bound_source == BOUND_WITNESS_CLAIM


def test_dimension_mismatch():
    f = parse_form("x0^2 + x1^2", 2)
    dec = Decomposition(2, 3, (Term(F(1), ProjectivePoint((F(1), F(0)))),))
    with pytest.raises(DimensionMismatch):
        verify_decomposition(f, dec)


# -- rank bracket ------------------------------------------------------------------


def test_rank_bracket_binary():
    f = parse_form("x0^3*x1", 2)
    lower, upper, dec = rank_bracket(f)
    assert lower == 2  # every catalecticant of a cusp form has rank two
    assert upper == rank_binary(f) == 4
    assert dec.size == 4


def test_rank_bracket_of_a_one_variable_form_is_its_single_power():
    f = parse_form("3*x0^5", 1)
    lower, upper, dec = rank_bracket(f)
    assert (lower, upper) == (1, 1) and dec.size == 1
    assert verify_decomposition(f, dec).valid


def test_rank_bracket_ternary_quartic():
    f = random_form(3, 4, seed=91)
    lower, upper, dec = rank_bracket(f)
    assert lower <= upper == dec.size <= 8
    assert dec.residual(f) <= 1e-7


def test_rank_bracket_ternary_odd_degree():
    f = parse_form("x0^5 + x1^5 + x2^5 + x0*x1*x2^3", 3)
    lower, upper, dec = rank_bracket(f)
    assert lower <= upper == dec.size <= 12
    assert dec.provenance["route"] == "odd-line-split"
    assert verify_decomposition(f, dec, bound=(upper, BOUND_ODD_SPLIT)).valid


@pytest.mark.parametrize("text, n, avoided, route", [
    ("x0^3 + x1^3", 2, False, "binary-rank"),
    ("x0^3 + x1^3", 2, True, "binary-open"),
    ("x0^4 + x1*x2^3", 3, False, "quartic8"),
    ("x0^4 + x1*x2^3", 3, True, "quartic8"),
    ("x0^5 + x1*x2^4", 3, False, "odd-split"),
])
def test_route_by_shape(text, n, avoided, route):
    avoid = AvoidanceSet(n, (parse_form("x0 - x1", n),)) if avoided else None
    assert route_by_shape(parse_form(text, n), avoid) == route
    assert route in ROUTES


@pytest.mark.parametrize("text, n, avoided", [
    ("x0^5 + x1*x2^4", 3, True),     # odd degrees avoid nothing
    ("x0^3 + x1^3", 4, False),       # four variables
])
def test_route_by_shape_rejects_uncovered_shapes(text, n, avoided):
    avoid = AvoidanceSet(n, (parse_form("x0 - x1", n),)) if avoided else None
    with pytest.raises(PreconditionError):
        route_by_shape(parse_form(text, n), avoid)


PAST_THE_FLOAT_RANGE = [
    ("1e400*x0^3 + x1^3", 2),                       # exact: the weights hold no float
    ("1e400*x0^5 + x1^5 + x2^5", 3),
    ("1e400*x0^4 + x1^4 + x2^4 + x0*x1*x2^2", 3),
    ("(1e400+0j)*x0^3 + x1^3", 2),                  # float: an infinite coefficient
    ("(1e308+0j)*x0^3 + (1e308+0j)*x1^3", 2),       # float: the catalecticant overflows
]


@pytest.mark.parametrize("text, n", PAST_THE_FLOAT_RANGE)
def test_every_route_refuses_a_form_past_the_float_range(text, n):
    # the certificate's residual is computed in floats: a precondition, not
    # an OverflowError, LinAlgError or IndexError from deep inside a route
    f = parse_form(text, n)
    decompose = ROUTES[route_by_shape(f)][0]
    with pytest.raises(PreconditionError, match="float range"):
        decompose(f, None)


def test_replay_refuses_an_input_past_the_float_range():
    f = parse_form(PAST_THE_FLOAT_RANGE[0][0], 2)
    payload = json.loads(to_json(make_cert()[2]))
    payload["input"] = form_to_string(f).replace(" ", "")
    payload["terms"][0]["coeff"] = [10 ** 400, 1]
    with pytest.raises(PreconditionError, match="float range"):
        replay(payload)


def test_rank_bracket_rejects_even_ternary_degrees():
    with pytest.raises(PreconditionError):
        rank_bracket(random_form(3, 6, seed=92))


# -- serialization ------------------------------------------------------------------


def test_json_round_trip_and_byte_stability():
    f, dec, cert = make_cert(seed=5)
    text = to_json(cert)
    # canonical form: no whitespace, sorted keys
    assert " " not in text
    payload = from_json(text)
    assert payload["n"] == 2 and payload["d"] == 3
    # replay reproduces validity and the exact bytes
    cert2 = replay(payload)
    assert cert2.valid == cert.valid
    assert to_json(cert2) == text
    # a second serialization of the original is identical too
    assert to_json(cert) == text


def test_json_schema_keys():
    _, _, cert = make_cert()
    payload = json.loads(to_json(cert))
    assert set(payload) == {"input", "n", "d", "terms", "residual", "cat_ranks",
                            "bound", "avoidance", "checks", "seed", "version"}
    assert set(payload["bound"]) == {"value", "source_tag"}
    for term in payload["terms"]:
        assert set(term) == {"coeff", "point"}
        num, den = term["coeff"]
        assert isinstance(num, int) and isinstance(den, int)


def test_scalar_codec_floats_vs_fractions():
    # exact decomposition round-trips Fractions; floats become [re, im]
    f = parse_form("x0^4 + x1^4", 2)
    dec = decompose_binary(f)
    cert = verify_decomposition(f, dec)
    payload = json.loads(to_json(cert))
    kinds = set()
    for term in payload["terms"]:
        for pair in term["point"]:
            kinds.add("int" if isinstance(pair[0], int) else "float")
    assert kinds  # at least one point serialized
    text = to_json(cert)
    assert to_json(replay(from_json(text))) == text


def test_from_json_rejects_garbage():
    with pytest.raises(ParseFormError):
        from_json("not json at all {")
    with pytest.raises(ParseFormError):
        from_json(json.dumps({"n": 2, "d": 3}))


def test_replay_detects_tampered_terms():
    f, dec, cert = make_cert()
    payload = from_json(to_json(cert))
    payload["terms"][0]["coeff"] = [3, 1]
    tampered = replay(payload)
    assert not tampered.valid


def test_certificate_with_avoidance_round_trips():
    f = parse_form("x0^5 + x1^5", 2)
    X = AvoidanceSet.from_points([(F(1), F(3)), (F(2), F(-1))])
    dec = decompose_binary_avoiding(f, X, seed=3)
    cert = verify_decomposition(f, dec, avoid=X, seed=3)
    text = to_json(cert)
    assert " " not in text
    cert2 = replay(from_json(text))
    assert cert2.valid
    assert to_json(cert2) == text


# written before checks became {name, pass, value, limit} records
OLD_FORMAT_CERT = (
    '{"avoidance":null,"bound":{"source_tag":"witnessed-by-decomposition",'
    '"value":2},"cat_ranks":[[1,2],[2,2]],"checks":[{"detail":"2 of 2 nonzero",'
    '"name":"nonzero-coefficients","pass":true},{"detail":"2 points pairwise '
    'distinct","name":"distinct-points","pass":true},{"detail":"0.0 vs '
    'tolerance 1e-08","name":"residual","pass":true},{"detail":"2 terms vs '
    'bound 2","name":"size-within-bound","pass":true}],"d":3,"input":"x0^3 + '
    'x1^3","n":2,"residual":0.0,"seed":0,"terms":[{"coeff":[1,1],"point":'
    '[[1,1],[0,1]]},{"coeff":[1,1],"point":[[0,1],[1,1]]}],"version":"0.1.0"}'
)


def test_old_format_certificate_still_replays():
    # replay recomputes every check and never reads the recorded ones
    cert = replay(from_json(OLD_FORMAT_CERT))
    assert cert.valid
    assert to_json(cert) == to_json(make_cert()[2])


@pytest.mark.parametrize("f,decompose", [
    (random_form(2, 7, seed=2), lambda f: decompose_binary(f, seed=2)),
    (random_form(3, 5, seed=0), decompose_ternary_odd),
])
def test_float_replay_is_byte_stable(f, decompose):
    # float points are normalized again on replay; that must not move a bit
    cert = verify_decomposition(f, decompose(f))
    text = to_json(cert)
    assert " " not in text
    assert to_json(replay(from_json(text))) == text


@pytest.mark.parametrize("coeff", [1e-05, 2.5e+20, 1j, complex(-0.0, -1.0)])
def test_float_input_in_exponent_or_complex_notation_replays_valid(coeff):
    # the input is written as complex repr text ((1e-05+0j)*x0^3, 1j*x0^3,
    # -1j*x0^3 for the signed zero), which parse_form must read back onto
    # the float backend on replay
    f = Form(2, 3, (coeff, 0, 0, 2))
    cert = verify_decomposition(f, decompose_binary(f))
    assert cert.valid
    assert replay(from_json(to_json(cert))).valid
    text = to_json(cert)
    assert to_json(replay(from_json(text))) == text


@pytest.mark.parametrize("exact", [True, False])
def test_the_avoidance_check_agrees_with_contains(exact):
    # two generators: (0:0:1) and (1:1:1) zero one each and are not in X,
    # (1:0:1) and (0:1:0) zero both and are
    X = AvoidanceSet(3, (parse_form("x0*x1", 3), parse_form("x2^2 - x0^2", 3)))
    coords = [(0, 0, 1), (1, 1, 1), (1, 0, 1), (1, 2, 3), (0, 1, 0)]
    points = [ProjectivePoint(c if exact else tuple(map(complex, c))) for c in coords]
    dec = Decomposition(3, 4, tuple(Term(Fraction(k + 1) if exact else complex(k + 1), p)
                                    for k, p in enumerate(points)))
    f = power_of_linear(points[0].coords, 4, dec.terms[0].coeff)
    for t in dec.terms[1:]:
        f = f + power_of_linear(t.point.coords, 4, t.coeff)
    cert = verify_decomposition(f, dec, avoid=X)
    inside = [X.contains(p) for p in points]
    assert inside == [False, False, True, False, True]
    check = next(c for c in cert.checks if c["name"] == "avoidance")
    assert check == {"name": "avoidance", "pass": False, "value": 2, "limit": 0}
    assert not cert.valid
    assert [c["pass"] for c in cert.checks if c["name"] != "avoidance"] == [True] * 4
    # the report holds the generators' values at each point, as evaluated
    values = [[evaluate(g, p.coords if exact else p.as_floats()) for g in X.generators]
              for p in points]
    assert cert.avoidance["evaluations"] == [
        [[v.numerator, v.denominator] if exact else [v.real + 0.0, v.imag + 0.0] for v in row]
        for row in values]


# -- every route on structured inputs ------------------------------------------

SMALL_COEFFS = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(Fraction)


def small_points(n):
    return st.lists(st.integers(-2, 2).map(Fraction), min_size=n, max_size=n).filter(any)


def structured_forms(n, d):
    """Monomials, sums of 1 to 6 powers of small integer points, products of
    d lines, and forms in n - 1 essential variables: the shapes where a
    random form's genericity does not hold."""
    monomials = st.tuples(st.sampled_from(exponents(n, d)), SMALL_COEFFS).map(
        lambda ec: Form.from_dict(n, d, {ec[0]: ec[1]}))
    powers = st.lists(st.tuples(SMALL_COEFFS, small_points(n)), min_size=1, max_size=6).map(
        lambda cps: sum((power_of_linear(p, d, coeff=c) for c, p in cps), Form.zero(n, d)))
    lines = st.lists(small_points(n), min_size=d, max_size=d).map(
        lambda ps: reduce(mul, (Form(n, 1, tuple(p)) for p in ps)))
    fewer = st.tuples(
        st.lists(SMALL_COEFFS, min_size=space_dim(n - 1, d), max_size=space_dim(n - 1, d)),
        st.lists(small_points(n), min_size=n - 1, max_size=n - 1)).map(
        lambda gl: substitute(Form(n - 1, d, tuple(gl[0])), [Form(n, 1, tuple(p)) for p in gl[1]]))
    return st.one_of(monomials, powers, lines, fewer)


# (variables, degrees, avoided sets) for each route in ROUTES; the rank and odd
# routes avoid nothing
ROUTE_SHAPES = {
    "binary-rank": (2, st.integers(2, 12), (None,)),
    "binary-open": (2, st.integers(2, 12),
                    (None, AvoidanceSet.from_points([(Fraction(1), Fraction(1)),
                                                     (Fraction(1), Fraction(-1))]))),
    "quartic8": (3, st.just(4), (None, AvoidanceSet(3, (parse_form("x2", 3),)))),
    "brk3": (3, st.just(4), (None, AvoidanceSet(3, (parse_form("x2", 3),)))),
    "odd-split": (3, st.sampled_from((5, 7)), (None,)),
}


@st.composite
def route_cases(draw):
    route = draw(st.sampled_from(sorted(ROUTES)))
    n, degrees, avoided = ROUTE_SHAPES[route]
    f = draw(structured_forms(n, draw(degrees)))
    return route, f if draw(st.booleans()) else f.to_float(), draw(st.sampled_from(avoided))


@settings(max_examples=100, deadline=None)
@given(route_cases(), st.integers(0, 3))
def test_every_route_certifies_structured_forms_valid_or_raises_a_waring_error(case, seed):
    route, f, avoid = case
    decompose, bound_value, bound_tag = ROUTES[route]
    try:  # as the command line runs a route: the decomposition, then its bound
        dec = decompose(f, avoid, seed=seed)
        bound = (bound_value(f), bound_tag)
    except RetryExhausted as err:
        assert {"stage", "rejects", "best_residual"} <= set(err.diagnostics)
        return
    except WaringError:
        return
    cert = verify_decomposition(f, dec, avoid=avoid, seed=seed, bound=bound)
    assert cert.valid, cert
