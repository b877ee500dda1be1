"""Length-eight avoiding power sums for ternary quartics.

Every nonzero quartic in three variables admits a decomposition into at
most eight fourth powers whose points miss any prescribed proper closed
subset.  The route depends first on the number of essential variables:
one gives a single power (respread along a line through its point when
that point is avoided), two give a binary quartic on the essential line
(or a 4 + 4 split across two fresh lines when that line is avoided).
With three, rank Cat_1 = rank Cat_3 = 3 and Macaulay's bound makes the
middle rank at least three.  Rank three pulls the problem back to a
binary octic along a smooth apolar conic; rank four or more splits the
form across three lines found by a determinant search, with piece
lengths 2 + 3 + 3.  The search's matrix, l -> (l l1 l2) contracted into
f, is the Hessian of contract(l2, contract(l1, f)): twice its
`quadric_matrix`, and linear in l2.  With M_a and M_b the quadric
matrices at l2 = la and l2 = lb, det(M_a + t M_b) samples the pencil
l2 = la + t lb, and each root's kernel comes from that one member.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .apolarity import (
    catalecticant,
    catalecticant_entries,
    catalecticant_rank,
    essential_subspace,
    essential_variables,
    numeric_catalecticant,
)
from .avoidance import AvoidanceSet
from .binary import (
    decompose_binary_avoiding,
    decompose_binary_bounded,
    decompose_on_line,
    form_on_line,
    initial_degree_any,
)
from .decomposition import RESIDUAL_TOL, Decomposition, require_float_range, term_from_vector
from .errors import (
    DegenerateSystemError,
    NoSmoothConic,
    PreconditionError,
    Rejects,
    RetryExhausted,
    ZeroFormError,
)
from .forms import (
    Form,
    ProjectivePoint,
    contract,
    evaluate,
    power_of_linear,
    random_combination,
    same_point,
    substitute,
)
from .linalg import SPAN_TOL, exact_nullspace, numeric_nullspace, solve_columns
from .plane import (
    UNIT_DUALS,
    apart,
    as_dual_point,
    cross,
    det3,
    float_point_on_conic,
    conic_parametrization,
    integer_matrices,
    pencil_at,
    quadric_matrix,
    quadric_rank,
    rational_point_on_conic,
    singular_members,
)
from .roots import cubic_from_samples, pencil_roots
from .ternary import (
    LineSystem,
    annihilates,
    concurrent,
    essential_line,
    reducible_member,
    single_power,
    split_on_lines,
)

CONIC_BUDGET = 48
PREDECOMP_BUDGET = 64
#: split triples `_triple_route` draws before it gives up
TRIPLE_BUDGET = 4


def _require_quartic(f: Form):
    if f.num_vars != 3 or f.degree != 4:
        raise PreconditionError("this pipeline handles ternary quartics")
    if f.is_zero():
        raise ZeroFormError("cannot decompose the zero form")
    if not f.is_exact:
        raise PreconditionError("the quartic pipeline runs on the exact backend")
    require_float_range(f)


# -- a form needing the full length of eight ---------------------------------


def witness_quartic(coeffs=(1, 1, 1, 1)) -> Form:
    """A quartic whose avoiding decompositions need all eight summands.

    Built on the four-jet of the rational curve (1, t, t^3): the jet
    spans x0^4, x0^3 x1, x0^2 x1^2 and the coupled pair
    x0 x1^3 + x0^3 x2, weighted by `coeffs`.  The result must use all
    three variables and certify a rank of at least four; unsuitable
    weights are rejected.
    """
    if len(coeffs) != 4:
        raise PreconditionError("witness takes four weights")
    c = [Fraction(x) for x in coeffs]
    f = Form.from_dict(3, 4, {
        (4, 0, 0): c[0],
        (3, 1, 0): c[1],
        (2, 2, 0): c[2],
        (1, 3, 0): c[3],
        (3, 0, 1): c[3],
    })
    if essential_variables(f) != 3:
        raise PreconditionError("witness weights must keep all three variables")
    if catalecticant_rank(f, 2) < 4:
        raise PreconditionError("witness weights must certify rank at least four")
    return f


# -- the determinant search for a split triple --------------------------------


def _zero_pair(f: Form, triple) -> tuple[Form, Form] | None:
    """(l0, l1) or (l0, l2), the first whose product annihilates f, else None."""
    l0 = triple[0]
    g0 = contract(l0, f)
    for other in triple[1:]:
        if annihilates((other,), g0):
            return l0, other
    return None


def quartic_predecomp(f: Form, sigma=(), seed: int = 0,
                      budget: int = PREDECOMP_BUDGET,
                      check_gate: bool = True) -> tuple[Form, Form, Form]:
    """Three distinct lines (l0, l1, l2) for the 2+3+3 split of f.

    Postconditions: (l0 l1 l2) kills f, (l1 l2) contracted into f is a
    quadric of rank at least two (never a square), and none of the lines
    meets the forbidden list.  l0 comes from the kernel of the length-one
    contraction matrix once the determinant search makes it singular.
    Triples where a pair already annihilates f are returned only as a
    last resort; callers should then split on that pair instead.
    """
    _require_quartic(f)
    if check_gate and catalecticant_rank(f, 2) < 4:
        raise PreconditionError(
            "the split triple needs a certified rank of at least four")
    sigma_pts = [as_dual_point(s) for s in sigma]
    rng = random.Random(seed)
    fallback: tuple[Form, Form, Form] | None = None
    rejects = Rejects("split-triple", "line", "kernel_dim", "clash", "concurrent", "square")

    for attempt in range(budget):
        height = 9 << (attempt // 16)
        l1 = random_combination(rng, UNIT_DUALS, height)
        la = random_combination(rng, UNIT_DUALS, height)
        lb = random_combination(rng, UNIT_DUALS, height)
        p1 = None if l1 is None else as_dual_point(l1)  # one point for all three tests
        if p1 is None or la is None or lb is None or not apart(p1, sigma_pts):
            rejects.count("line")
            continue

        g1 = contract(l1, f)
        m_a, m_b = quadric_matrix(contract(la, g1)), quadric_matrix(contract(lb, g1))

        rational, float_roots = singular_members(*integer_matrices((m_a, m_b)))
        for t in rational + float_roots():
            l2 = la + lb.scale(t)
            p2 = None if l2.is_zero() else as_dual_point(l2)
            if p2 is None or not apart(p2, [*sigma_pts, p1]):
                rejects.count("line")
                continue
            member = pencil_at(m_a, m_b, t)
            if l2.is_exact:
                kernel = exact_nullspace(member)
            else:
                kernel = numeric_nullspace(np.array(member, dtype=complex))
            if len(kernel) != 1:
                rejects.count("kernel_dim")
                continue
            l0 = Form(3, 1, tuple(kernel[0]))
            if not apart(l0, [*sigma_pts, p1, p2]):
                rejects.count("clash")
                continue
            if concurrent(l0, l1, l2):
                rejects.count("concurrent")
                continue
            if quadric_rank(contract(l2, g1)) < 2:
                rejects.count("square")
                continue
            triple = (l0, l1, l2)
            if _zero_pair(f, triple) is not None:
                fallback = fallback or triple
                continue
            return triple
    if fallback is not None:
        return fallback
    raise rejects.exhausted(f"no split triple found in {budget} determinant pencils")


# -- conic pullback for catalecticant rank three ------------------------------


def _smooth_members(net: list[Form], rng, budget: int):
    """Smooth quadrics in the span of `net`, exactly certified.

    The combinations with coefficients in [-1, 1], then in [-2, 2], come
    first in order; after them `random_combination` draws at height 9.
    The determinant of the net's general member is a cubic in its three
    coordinates, and a nonzero cubic does not vanish on all of {-2..2}^3
    (Combinatorial Nullstellensatz).  So when that grid has no smooth
    member the net has none, and NoSmoothConic is raised before any draw.
    """
    def smooth(q):
        return q is not None and det3(quadric_matrix(q)) != 0

    def members():
        found = False
        for height in (1, 2):
            for trip in product(range(-height, height + 1), repeat=3):
                q = sum((base.scale(x) for x, base in zip(trip, net) if x), Form.zero(3, 2))
                if smooth(q):
                    found = True
                    yield q
        if not found:
            raise NoSmoothConic("every conic annihilating the form is singular")
        while True:
            q = random_combination(rng, net, 9)
            if smooth(q):
                yield q

    return islice(members(), max(budget, 0))


# nine rational parameter values: enough to pin down a binary octic
_PULLBACK_PARAMS = (
    (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(-2)), (Fraction(1), Fraction(3)),
    (Fraction(1), Fraction(-3)), (Fraction(1), Fraction(4)),
    (Fraction(0), Fraction(1)),
)


def quartic_brk3_decompose(f: Form, avoid: AvoidanceSet | None = None,
                           seed: int = 0, tol: float = RESIDUAL_TOL,
                           retries: int = CONIC_BUDGET) -> Decomposition:
    """Seven points off `avoid` for a quartic of middle rank three.

    Picks a smooth conic in the quadratic annihilator net, moves the
    problem to a binary octic through the conic's parametrization (an
    exact linear identification on the span of fourth powers of conic
    points), decomposes the octic at length 10 - 3 = 7 avoiding the
    pulled-back subset, and pushes the points forward.  `retries` is the
    number of smooth conics tried.  Raises NoSmoothConic when the net
    has no smooth member, and RetryExhausted when the budget runs out
    (at once for a budget of zero).
    """
    _require_quartic(f)
    X = avoid if avoid is not None else AvoidanceSet.none(3)
    cat = catalecticant(f, 2)
    if cat.rank != 3:
        raise PreconditionError(
            "conic pullback needs middle catalecticant rank exactly three")
    net = list(cat.kernel)
    rng = random.Random(seed)
    smooth_seen = 0
    rejects = Rejects("conic-pullback", "point", "inside", "span", "octic_rank", "binary",
                      "avoided", "residual")
    for q in _smooth_members(net, rng, retries):
        smooth_seen += 1
        point = rational_point_on_conic(q, height=12)
        if point is None:
            try:
                point = float_point_on_conic(q, seed=seed + smooth_seen)
            except (RetryExhausted, PreconditionError):
                rejects.count("point")
                continue
        try:
            phi = conic_parametrization(q, point)
        except PreconditionError:
            rejects.count("point")
            continue
        pulled = [substitute(g, phi) for g in X.generators]
        live = tuple(h for h in pulled if not h.is_zero())
        if not live:
            rejects.count("inside")
            continue
        # express f in fourth powers of nine conic points; consistency is
        # exactly the statement that f lives on the conic's power span
        images = [tuple(evaluate(p, w) for p in phi) for w in _PULLBACK_PARAMS]
        solved = solve_columns([power_of_linear(z, 4).coeffs for z in images], f.coeffs,
                               tol=SPAN_TOL)
        if solved is None:
            rejects.count("span")
            continue
        mu = solved[0]
        exact = all(isinstance(m, Fraction) for m in mu)
        octic = Form.zero(2, 8, exact=exact)
        for m, w in zip(mu, _PULLBACK_PARAMS):
            if m != 0:
                octic = octic + power_of_linear(w, 8, coeff=m)
        try:
            if initial_degree_any(octic) != 3:
                rejects.count("octic_rank")
                continue
            dec8 = decompose_binary_avoiding(
                octic, AvoidanceSet(2, live), seed=seed + 17 * smooth_seen, tol=tol)
        except (RetryExhausted, PreconditionError):
            rejects.count("binary")
            continue
        terms = []
        for term in dec8.terms:
            w = term.point.coords
            z = tuple(evaluate(p, w) for p in phi)
            terms.append(term_from_vector(term.coeff, z, 4))
        merged = Decomposition(3, 4, tuple(terms), {
            "route": "conic-pullback",
            "conic": [str(c) for c in q.coeffs],
            "octic": [str(c) for c in octic.coeffs],
            "octic_exact": exact,
        })
        if any(X.contains(t.point) for t in merged.terms):
            rejects.count("avoided")
            continue
        if not merged.meets_tolerance(f, tol):
            rejects.count("residual", merged.provenance["residual"])
            continue
        return merged
    raise rejects.exhausted(
        f"no smooth conic produced an admissible pullback ({smooth_seen} conics tried)",
        conics=smooth_seen)


# -- split-based routes --------------------------------------------------------


def _restrict_avoid(X: AvoidanceSet, span) -> AvoidanceSet | None:
    """X pulled back to the line spanned by `span`; None for an empty X,
    so the binary pieces restrict and test nothing."""
    if X.is_trivial:
        return None
    try:
        return X.restrict_to_line(span[0], span[1])
    except PreconditionError as err:
        raise DegenerateSystemError(str(err)) from err


def _two_line_split(f: Form, X: AvoidanceSet, seed: int, tol: float,
                    retries: int, pair: tuple[Form, Form] | None = None,
                    forbid=()) -> Decomposition:
    """4 + 4 strategy: split f across two annihilating lines off X."""
    if pair is None:
        basis = list(catalecticant(f, 2).kernel)
        forbidden = [ProjectivePoint(t) for t in X.rational_lines]
        forbidden.extend(as_dual_point(x) for x in forbid)
        pair = reducible_member(basis, forbidden, seed=seed)
    split = split_on_lines(f, LineSystem(pair))
    avoids = [_restrict_avoid(X, split.spans[i]) for i in range(2)]
    rejects = Rejects("two-line-split", "piece_fail", "residual")
    merged = split.search((4, 4), avoids, random.Random(seed + 5), seed, tol, retries, 16,
                          rejects, {"route": "two-line-split"})
    if merged is None:
        raise rejects.exhausted(f"two-line split found no admissible tuple in {retries} tries")
    return merged


def _three_line_split(f: Form, X: AvoidanceSet, triple, seed: int,
                      tol: float, retries: int) -> Decomposition:
    """2 + 3 + 3 strategy on a split triple from the determinant search.

    The distinguished piece is steered onto the rank-two locus of its own
    middle catalecticant (a cubic condition in the first see-saw
    coefficient) so its two points are forced; the other coefficients
    stay free and are sampled until both remaining pieces admit length
    three with all points off X.  The caller's `retries` buys
    ceil(retries / 8) draws of the second coefficient.
    """
    split = split_on_lines(f, LineSystem(tuple(triple)))
    avoids = [_restrict_avoid(X, split.spans[i]) for i in range(3)]
    # generators arrive ordered (0,1), (0,2), (1,2)
    pow01 = split.kernel[0][2]
    pow02 = split.kernel[1][2]
    part0 = split.particular[0]
    exact = part0.is_exact and pow01.is_exact and pow02.is_exact
    # the catalecticant rows are linear in c01: those at c01 = 0 plus c01
    # times those of pow01, which are read once per split
    rows01 = catalecticant_entries(pow01, 2) if exact else None
    rng = random.Random(seed + 23)
    rejects = Rejects("three-line-split", "det", "piece_fail", "residual")

    for round_ in range(-(-retries // 8)):
        height = 9 << (round_ // 4)
        c02 = Fraction(rng.randint(-height, height))

        def f0_at(c01) -> Form:
            return part0 + pow01.scale(c01) + pow02.scale(c02)

        if exact:
            pencil = integer_matrices((catalecticant_entries(f0_at(0), 2), rows01))
            rational, float_roots = singular_members(*pencil)
        else:
            rational, float_roots = pencil_roots(cubic_from_samples(*(
                complex(np.linalg.det(numeric_catalecticant(f0_at(Fraction(v)), 2)))
                for v in (0, 1, -1, 2))), 1)
        roots = rational + float_roots()
        if not roots:
            rejects.count("det")
            continue
        for c01 in roots[:4]:
            f0 = f0_at(c01)
            if f0.is_zero():
                continue
            try:
                dec0 = decompose_binary_bounded(
                    f0, avoids[0], max_size=2, seed=seed + round_, tol=tol)
            except RetryExhausted as err:
                rejects.count("piece_fail", err.diagnostics["best_residual"])
                continue
            for inner in range(8):
                c12 = Fraction(rng.randint(-height, height))
                merged = split.decompose_tuple(
                    [c01, c02, c12], (2, 3, 3), avoids, seed + 7 * round_ + inner, tol,
                    rejects, {"route": "three-line-split"}, done={0: dec0})
                if merged is not None:
                    return merged
    raise rejects.exhausted("three-line split found no admissible configuration")


# -- essential-variable shortcuts ----------------------------------------------


_DIRECTIONS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 0), (1, 0, -1),
)


def _line_open(f: Form, X: AvoidanceSet, u, v, seed: int, tol: float,
               retries: int, route: str) -> Decomposition:
    """f decomposed off X on the line through u and v, which carries f."""
    return decompose_on_line(
        f, (u, v), lambda g: decompose_binary_avoiding(
            g, _restrict_avoid(X, (u, v)), seed=seed, tol=tol, retries=retries), route, tol)


def _power_route(f: Form, X: AvoidanceSet, seed: int, tol: float,
                 retries: int) -> Decomposition:
    w = essential_subspace(f)[0]
    p = ProjectivePoint(tuple(w))
    if not X.contains(p):
        return single_power(f)
    rng = random.Random(seed)
    candidates = list(_DIRECTIONS)
    for _ in range(16):
        candidates.append(tuple(rng.randint(-9, 9) for _ in range(3)))
    rejects = Rejects("power-line", "degenerate", "avoided")
    for direction in candidates:
        vec = tuple(Fraction(x) for x in direction)
        if not any(vec) or same_point(ProjectivePoint(vec), p):  # w and vec span no line
            rejects.count("degenerate")
        elif X.contains_line(tuple(w), vec):
            rejects.count("avoided")
        else:
            return _line_open(f, X, tuple(w), vec, seed, tol, retries, "power-respread-line")
    raise rejects.exhausted("no line through the power point escapes the avoidance set",
                            directions=len(candidates))


def _triple_route(f: Form, X: AvoidanceSet, seed: int, tol: float,
                  retries: int) -> Decomposition:
    """Split on a triple, rerouting (l0, l1) or (l0, l2) if it annihilates f.

    The search has certified that (l1 l2) does not, and the router has
    settled the rank gate.  `retries` is the search's budget of
    determinant pencils and the split's budget of tuples.  A triple whose
    split spends its budget is followed by a fresh one, drawn and split at
    seed + 1009 k for the k-th, up to TRIPLE_BUDGET triples; the last
    split's RetryExhausted is raised."""
    sigma = [ProjectivePoint(t) for t in X.rational_lines]
    for k in range(TRIPLE_BUDGET):
        draw = seed + 1009 * k
        triple = quartic_predecomp(f, sigma=sigma, seed=draw, budget=retries, check_gate=False)
        pair = _zero_pair(f, triple)
        try:
            if pair is not None:
                return _two_line_split(f, X, draw, tol, retries, pair=pair)
            return _three_line_split(f, X, triple, draw, tol, retries)
        except RetryExhausted:
            if k == TRIPLE_BUDGET - 1:
                raise


def _plane_route(f: Form, X: AvoidanceSet, seed: int, tol: float,
                 retries: int) -> Decomposition:
    u, v = essential_line(f)
    if not X.contains_line(u, v):
        return _line_open(f, X, u, v, seed, tol, retries, "line-open")
    # the supporting line sits inside X, so the decomposition must leave it
    # entirely.  A quadric annihilator without the support dual as a factor
    # exists exactly when the restriction is degenerate (middle catalecticant
    # rank at most two); then two fresh lines carry a 4 + 4 split.  With full
    # middle rank every quadric annihilator is a multiple of the support dual
    # and eight avoiding powers do not exist at all: such forms are limits of
    # eight-point configurations off the line but never equal to one, and the
    # shortest exact decompositions use nine.  That exceeds what this routine
    # promises, so it refuses rather than loop.
    g = form_on_line(f, u, v)
    if g is None:
        raise DegenerateSystemError("essential plane does not carry the form")
    if initial_degree_any(g) >= 3:
        raise PreconditionError(
            "the forbidden set contains the support line of a binary form "
            "whose middle catalecticant has full rank; no decomposition with "
            "at most eight points avoids that line (nine are needed)")
    support = cross(u, v)
    return _two_line_split(f, X, seed, tol, retries, forbid=[support])


# -- the router ----------------------------------------------------------------


def quartic_decompose_open(f: Form, avoid: AvoidanceSet | None = None,
                           seed: int = 0, tol: float = RESIDUAL_TOL,
                           retries: int = 64) -> Decomposition:
    """At most eight fourth powers for f, all points off `avoid`.

    A form in one or two essential variables is decomposed on its power
    point or its essential line (see the module docstring).  With three,
    middle catalecticant rank three goes through a conic pullback (7
    points), falling back to the determinant-search triple when no smooth
    conic yields one; rank four or more uses the triple (2 + 3 + 3, or
    4 + 4 when two of its lines already annihilate f).
    """
    _require_quartic(f)
    X = avoid if avoid is not None else AvoidanceSet.none(3)
    if X.num_vars != 3:
        raise PreconditionError("avoidance set must be ternary")
    ess = essential_variables(f)
    if ess == 1:
        return _power_route(f, X, seed, tol, retries)
    if ess == 2:
        return _plane_route(f, X, seed, tol, retries)
    if catalecticant_rank(f, 2) == 3:
        try:
            return quartic_brk3_decompose(f, X, seed, tol, retries)
        except (NoSmoothConic, RetryExhausted):
            pass  # the triple search below remains available
    return _triple_route(f, X, seed, tol, retries)
