"""Binary forms: ranks, open rank, and explicit decompositions.

The whole binary story is controlled by the initial degree b of the
apolar ideal (the smallest catalecticant with a kernel).  On exact input
b is read off one rank: the apolar ideal is generated by two forms of
degrees b <= d + 2 - b, so the Hilbert function of the apolar algebra is
rank Cat(delta) = min(delta + 1, b, d + 1 - delta), which is b at the
middle delta = d // 2.  Each invariant then costs that rank, plus one
kernel at degree b or d + 2 - b when generators are needed.  Border rank
equals b; rank is b when the degree-b generator has distinct roots and
d + 2 - b otherwise; and d + 2 - b points always suffice even when any
prescribed proper closed subset must be avoided.

One decomposer, `decompose_binary_bounded`, gives every rank-length
decomposition; `decompose_binary` is it with nothing avoided and the cap
d + 1.  It takes the distinct roots of the degree-b generator, samples
the pencil of degree-b members when 2b = d + 2, and otherwise samples
the degree-(d + 2 - b) part of the ideal, as `decompose_binary_avoiding`
does for the open-rank length.  Every failure raises RetryExhausted.
Sampled weights below SMALL_COEFF_TOL of the largest are rejected as
near-degenerate, except at the pencil length b: no weight can vanish
there (a shorter sum would undercut the border rank b), so a tiny weight
is genuine; `random_form(2, 40, 1)` certifies with a ratio of 9e-11.

Binary data often lives on a line inside a bigger projective space.  The
embedding sending the monomial s^(d-j) t^j to U^(d-j) V^j (U, V the
linear forms of the line's spanning vectors) identifies binary forms
with the forms supported on that line; `embed_binary` and `form_on_line`
convert in the two directions and `push_decomposition` carries a
decomposition forward onto the line.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .apolarity import (apolar_component, apolar_initial_degree, catalecticant,
                        numeric_catalecticant)
from .avoidance import AvoidanceSet
from .decomposition import RESIDUAL_TOL, Decomposition, Term, term_from_vector
from .errors import (PreconditionError, RetryExhausted, RootFindingError,
                     ZeroFormError)
from .forms import (Form, ProjectivePoint, complex_coords, distinct_points, is_exact_scalar,
                    power_of_linear, random_combination, random_form, same_point)
from .linalg import (SPAN_TOL, exact_rank, numeric_nullspace, numeric_rank,
                     solve_columns)
from .monomials import space_dim
from .roots import (binary_form_roots, exact_degree_drop, is_squarefree_binary,
                    rational_roots)

SEPARATION_TOL = 1e-6
SMALL_COEFF_TOL = 1e-10


def _require_binary(f: Form, avoid: AvoidanceSet | None = None):
    if f.num_vars != 2:
        raise PreconditionError("expected a binary form")
    if f.is_zero():
        raise ZeroFormError("the zero form has no rank")
    if avoid is not None and avoid.num_vars != 2:
        raise PreconditionError("avoidance set must be binary")


def _require_exact(f: Form):
    if not f.is_exact:
        raise PreconditionError("exact coefficients required for rank computations")


# -- invariants -------------------------------------------------------------


def border_rank_binary(f: Form) -> int:
    """Initial degree of the apolar ideal (exact input only)."""
    _require_binary(f)
    _require_exact(f)
    return apolar_initial_degree(f)


def rank_binary(f: Form) -> int:
    """Waring rank by the squarefree dichotomy (exact input only)."""
    _require_binary(f)
    _require_exact(f)
    b = apolar_initial_degree(f)
    d = f.degree
    if 2 * b == d + 2:
        # a pencil of apolar generators: the generic member is squarefree
        return b
    gen = catalecticant(f, b).kernel[0]
    return b if is_squarefree_binary(gen.coeffs, b) else d + 2 - b


def open_rank_binary(f: Form) -> int:
    """Points needed when any proper closed subset must be avoided."""
    _require_binary(f)
    _require_exact(f)
    return f.degree + 2 - apolar_initial_degree(f)


# -- line embeddings --------------------------------------------------------


def line_embedding(u, v, d: int) -> list[Form]:
    """The images U^(d-j) V^j, j = 0..d, of the binary monomials of degree d."""
    n = len(u)
    fu, fv = Form(n, 1, tuple(u)), Form(n, 1, tuple(v))
    u_pows = [Form(n, 0, (Fraction(1),))]
    v_pows = list(u_pows)
    for _ in range(d):
        u_pows.append(u_pows[-1] * fu)
        v_pows.append(v_pows[-1] * fv)
    return [u_pows[d - j] * v_pows[j] for j in range(d + 1)]


def embed_binary(g: Form, u, v) -> Form:
    """Image of a binary form on the line spanned by u and v.

    Sends s^(d-j) t^j to U^(d-j) V^j where U, V are the ambient linear
    forms with coefficient vectors u, v; powers of (a s + b t) map to
    powers of the linear form a U + b V.
    """
    if g.num_vars != 2:
        raise PreconditionError("embed_binary wants a binary form")
    total = Form.zero(len(u), g.degree, exact=g.is_exact)
    if not g.is_exact:
        u, v = [complex(x) for x in u], [complex(x) for x in v]
    for c, column in zip(g.coeffs, line_embedding(u, v, g.degree)):
        if c != 0:
            total = total + column.scale(c)
    return total


def form_on_line(f: Form, u, v) -> Form | None:
    """Binary preimage of f under the line embedding, or None.

    Succeeds exactly when f lies in the span of powers of linear forms
    from the line through u and v.
    """
    solved = solve_columns([c.coeffs for c in line_embedding(u, v, f.degree)], f.coeffs,
                           tol=SPAN_TOL)
    return None if solved is None else Form(2, f.degree, tuple(solved[0]))


def push_decomposition(dec: Decomposition, span) -> Decomposition:
    """Transport a binary decomposition onto the line spanned by span = (u, v).

    The point (a, b) goes to a u + b v; the provenance is copied.  Float
    points meet an exact span through its complex coordinates, converted
    once: the bits of complex(Fraction) in every product.
    """
    u, v = span
    floats = span
    if all(map(is_exact_scalar, (*u, *v))):
        floats = complex_coords(u), complex_coords(v)
    terms = []
    for t in dec.terms:
        a, b = t.point.coords
        vector = tuple(a * x + b * y for x, y in zip(*(span if t.point.is_exact else floats)))
        terms.append(term_from_vector(t.coeff, vector, dec.degree))
    return Decomposition(len(u), dec.degree, tuple(terms), dict(dec.provenance))


# -- kernels for both backends ----------------------------------------------


def initial_degree_any(f: Form) -> int:
    """Initial degree of a binary form's apolar ideal, on either backend.

    Exact input goes through `apolar_initial_degree` (the middle
    catalecticant rank); float input takes the first catalecticant whose
    numeric rank leaves a kernel, since a numeric rank cut at the middle
    need not agree with that scan.
    """
    if f.is_exact:
        return apolar_initial_degree(f)
    d = f.degree
    for e in range(1, d + 1):
        m = numeric_catalecticant(f, e)
        if numeric_rank(m) < space_dim(2, e):
            return e
    raise RootFindingError("no numeric apolar kernel found up to top degree")


def _kernel_any(f: Form, e: int) -> list[Form]:
    """Degree-e apolar kernel as dual forms, exact or float to match f."""
    if f.is_exact:
        return list(apolar_component(f, e))
    m = numeric_catalecticant(f, e)
    vecs = numeric_nullspace(m.T)
    return [Form(2, e, tuple(complex(x) for x in v)) for v in vecs]


def _solve_weights(f: Form, points: list[ProjectivePoint]):
    """Weights lambda with f = sum lambda_i point_i^degree, or None.

    Exact solve when everything is rational (None when inconsistent),
    least squares otherwise; callers judge float weights by the residual
    of the decomposition they build.
    """
    solved = solve_columns([power_of_linear(p.coords, f.degree).coeffs for p in points],
                           f.coeffs)
    return None if solved is None else solved[0]


def _build(f: Form, points, weights, provenance) -> Decomposition:
    terms = tuple(Term(w, p) for w, p in zip(weights, points))
    return Decomposition(2, f.degree, terms, provenance)


# -- decompositions ---------------------------------------------------------


def decompose_binary(f: Form, seed: int = 0, tol: float = RESIDUAL_TOL) -> Decomposition:
    """A power sum for f of minimal length (the Waring rank).

    This is `decompose_binary_bounded` with nothing avoided and the cap
    d + 1, which no binary rank exceeds.  Exact input gives exact scalars
    whenever the relevant apolar roots are rational; otherwise points and
    weights are floats verified against `tol`.  Float input is accepted
    for internal pipelines.
    """
    return decompose_binary_bounded(f, None, f.degree + 1, seed, tol)


def _try_exact_then_float_points(g: Form) -> list[ProjectivePoint] | None:
    """Distinct roots of g, exact when g splits over the rationals; None on
    repeated roots or when the root iteration fails to converge."""
    drop = exact_degree_drop(g.coeffs) if g.is_exact else None
    if g.is_exact and drop <= 1:
        roots = rational_roots(g.coeffs)
        if len(roots) + drop == g.degree:
            pts = [ProjectivePoint((Fraction(1), r)) for r in roots]
            return pts + [ProjectivePoint((Fraction(0), Fraction(1)))] * drop
    if g.is_exact and not is_squarefree_binary(g.coeffs, g.degree):
        return None
    try:
        pairs = binary_form_roots(g.coeffs, exact_degree_drop=drop)
    except RootFindingError:
        return None
    pts = [ProjectivePoint(p) for p in pairs]
    if len(pts) != g.degree or not distinct_points(pts, SEPARATION_TOL):
        return None
    return pts


def _sample_ideal_decomposition(f, size, avoid, seed, tol, retries,
                                provenance) -> Decomposition:
    """Sample degree-`size` apolar members until one yields good points.

    Good means: squarefree with separated roots, all roots off the
    avoidance set, all weights comfortably nonzero (not asked at the pencil
    length, see the module docstring), small residual.
    """
    d = f.degree
    basis = _kernel_any(f, size)
    if not basis:
        raise RetryExhausted("apolar ideal is empty in the target degree",
                             diagnostics={"target_size": size})
    rng = random.Random(seed)
    rejects = {"zero_combo": 0, "repeated_roots": 0, "avoided": 0,
               "tiny_weight": 0, "residual": 0}
    best_residual = None
    for attempt in range(retries):
        height = 9 << (attempt // 8)
        combo = random_combination(rng, basis, height)
        if combo is None:
            rejects["zero_combo"] += 1
            continue
        pts = _try_exact_then_float_points(combo)
        if pts is None:
            rejects["repeated_roots"] += 1
            continue
        if avoid is not None and any(avoid.contains(p) for p in pts):
            rejects["avoided"] += 1
            continue
        weights = _solve_weights(f, pts)
        if weights is None:
            rejects["residual"] += 1
            continue
        if 2 * size != d + 2:
            scale = max(abs(complex(w)) for w in weights)
            if scale == 0 or min(abs(complex(w)) for w in weights) <= SMALL_COEFF_TOL * scale:
                rejects["tiny_weight"] += 1
                continue
        dec = _build(f, pts, weights, {**provenance, "attempt": attempt,
                                       "target_size": size})
        ok = dec.meets_tolerance(f, tol)
        res = dec.provenance["residual"]
        best_residual = res if best_residual is None else min(best_residual, res)
        if not ok:
            rejects["residual"] += 1
            continue
        return dec
    raise RetryExhausted(
        f"no admissible {size}-point decomposition in {retries} attempts",
        diagnostics={"rejects": rejects, "best_residual": best_residual,
                     "target_size": size})


def decompose_binary_avoiding(f: Form, avoid: AvoidanceSet | None = None,
                              seed: int = 0, tol: float = RESIDUAL_TOL,
                              retries: int = 64) -> Decomposition:
    """A power sum of length exactly d + 2 - b with all points off `avoid`.

    This is the open-rank length: it works for every proper closed subset.
    Powers of a single linear form get the special treatment their apolar
    ideal demands (d + 1 points, none equal to the power point itself).
    """
    _require_binary(f, avoid)
    d = f.degree
    b = initial_degree_any(f)
    if b == 1:
        return _decompose_power_avoiding(f, avoid, seed, tol, retries)
    return _sample_ideal_decomposition(
        f, d + 2 - b, avoid, seed, tol, retries,
        provenance={"route": "kernel-sampling-avoiding", "initial_degree": b})


def _decompose_power_avoiding(f, avoid, seed, tol, retries) -> Decomposition:
    """f = c * l^d rewritten on d + 1 admissible points.

    Any d + 1 distinct points different from [l] and off the avoidance
    set work, and every weight is automatically nonzero: dropping a point
    would put l^d in the span of d distinct powers, which independence of
    distinct power vectors forbids.
    """
    d = f.degree
    gen = _kernel_any(f, 1)[0]
    c0, c1 = gen.coeffs
    power_point = ProjectivePoint((-c1, c0))
    rng = random.Random(seed)
    for attempt in range(retries):
        height = 9 << (attempt // 8)
        chosen: list[ProjectivePoint] = []
        guard = 0
        while len(chosen) < d + 1 and guard < 200 * (d + 1):
            guard += 1
            vec = (rng.randint(-height, height), rng.randint(-height, height))
            if vec == (0, 0):
                continue
            if not f.is_exact:
                vec = (complex(vec[0]), complex(vec[1]))
            p = ProjectivePoint(vec)
            if same_point(p, power_point, SEPARATION_TOL):
                continue
            if any(same_point(p, q, SEPARATION_TOL) for q in chosen):
                continue
            if avoid is not None and avoid.contains(p):
                continue
            chosen.append(p)
        if len(chosen) < d + 1:
            continue
        weights = _solve_weights(f, chosen)
        if weights is None:
            continue
        if any(complex(w) == 0 for w in weights):
            continue
        dec = _build(f, chosen, weights,
                     {"route": "power-respread", "attempt": attempt,
                      "target_size": d + 1})
        if dec.meets_tolerance(f, tol):
            return dec
    raise RetryExhausted(
        f"could not place {d + 1} admissible points for a pure power",
        diagnostics={"attempts": retries})


def decompose_binary_bounded(f: Form, avoid: AvoidanceSet | None,
                             max_size: int, seed: int = 0,
                             tol: float = RESIDUAL_TOL,
                             retries: int = 64) -> Decomposition:
    """Shortest admissible decomposition with points off `avoid`, capped.

    Prefers the rank-length route: pencil members are sampled with the
    avoidance filter built in, fixed kernel roots are used when they all
    clear the avoidance set, and otherwise the length grows to d + 2 - b.
    Every failure, a length over the cap included, raises RetryExhausted,
    which callers treat as a resampling signal; PreconditionError is left
    for a zero or non-binary form and a non-binary avoidance set.
    """
    _require_binary(f, avoid)
    d = f.degree
    b = initial_degree_any(f)
    if 2 * b == d + 2:
        size, route = b, "pencil-avoiding"
    else:
        gens = _kernel_any(f, b)
        pts = _try_exact_then_float_points(gens[0]) if gens and b <= max_size else None
        if pts is not None and (avoid is None or not any(avoid.contains(p) for p in pts)):
            weights = _solve_weights(f, pts)
            if weights is None:
                raise RetryExhausted("apolar root system was inconsistent")
            dec = _build(f, pts, weights, {"route": "kernel-roots-avoiding",
                                           "initial_degree": b})
            if not dec.meets_tolerance(f, tol):
                res = dec.provenance["residual"]
                raise RetryExhausted(f"root-route decomposition residual {res:.2e}",
                                     diagnostics={"best_residual": res, "target_size": b})
            return dec
        size, route = d + 2 - b, "kernel-sampling-avoiding"
    if size > max_size:
        raise RetryExhausted(
            f"needs {size} points, cap is {max_size}",
            diagnostics={"needed": size, "cap": max_size})
    return _sample_ideal_decomposition(
        f, size, avoid, seed, tol, retries,
        provenance={"route": route, "initial_degree": b})


# -- generic ranks inside subspaces ------------------------------------------


def generic_rank_in_subspace(degree: int, k: int, trials: int = 100,
                             seed: int = 0) -> int:
    """Max rank over random points of random k-planes in P(S_degree), binary.

    Each trial spans a projective k-plane by k+1 random exact forms
    (independence certified by exact rank) and takes one random point on
    it.  Returns the largest Waring rank observed; a statistical probe of
    the rank cap max(d+1-k, (d+2)/2) for generic points of k-planes.
    """
    d = degree
    if not 0 <= k <= d:
        raise PreconditionError("need a k-plane of P(S_d): 0 <= k <= d")
    rng = random.Random(seed)
    worst = 0
    for _ in range(trials):
        while True:
            basis = [random_form(2, d, rng.randrange(1 << 30)) for _ in range(k + 1)]
            rows = [list(g.coeffs) for g in basis]
            if exact_rank(rows) == k + 1:
                break
        while True:
            combo = random_combination(rng, basis, 9)
            if combo is not None:
                break
        worst = max(worst, rank_binary(combo))
    return worst
