"""Binary forms: ranks, open rank, and explicit decompositions.

The whole binary story is controlled by the initial degree b of the
apolar ideal (the smallest catalecticant with a kernel).  Border rank
equals b; rank is b when the degree-b generator has distinct roots and
d + 2 - b otherwise; and d + 2 - b points always suffice even when any
prescribed proper closed subset must be avoided.  Decompositions are
found by sampling the degree-(d + 2 - b) part of the apolar ideal until
a squarefree member with admissible roots appears; the theory guarantees
this happens generically, so failures surface as RetryExhausted with
sampling diagnostics instead of a wrong answer.

Binary data often lives on a line inside a bigger projective space.  The
embedding sending the monomial s^(d-j) t^j to U^(d-j) V^j (U, V the
linear forms of the line's spanning vectors) identifies binary forms
with the forms supported on that line; `embed_binary` and `form_on_line`
convert in the two directions and `BinaryForm` carries the line data so
decompositions can be pushed forward.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .apolarity import (apolar_component, apolar_initial_degree, catalecticant,
                        numeric_catalecticant)
from .avoidance import AvoidanceSet
from .decomposition import RESIDUAL_TOL, Decomposition, Term, term_from_vector
from .errors import (PreconditionError, RetryExhausted, RootFindingError,
                     ZeroFormError)
from .forms import (Form, ProjectivePoint, distinct_points, power_of_linear,
                    random_combination, random_form, same_point)
from .linalg import exact_rank, numeric_nullspace, numeric_rank, solve_columns
from .monomials import space_dim
from .roots import (binary_form_roots, exact_degree_drop, is_squarefree_binary,
                    rational_roots)

SEPARATION_TOL = 1e-6
SMALL_COEFF_TOL = 1e-10


def _require_binary(f: Form):
    if f.num_vars != 2:
        raise PreconditionError("expected a binary form")
    if f.is_zero():
        raise ZeroFormError("the zero form has no rank")


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
    solved = solve_columns([c.coeffs for c in line_embedding(u, v, f.degree)], f.coeffs)
    if solved is None or solved[1] > 1e-8:
        return None
    return Form(2, f.degree, tuple(solved[0]))


@dataclass(frozen=True)
class BinaryForm:
    """A binary form together with the ambient line it came from."""

    form: Form
    span: tuple | None = None  # pair of ambient coordinate vectors, or None

    def push_vector(self, a, b) -> tuple:
        if self.span is None:
            return (a, b)
        u, v = self.span
        return tuple(a * u[i] + b * v[i] for i in range(len(u)))

    def push_decomposition(self, dec: Decomposition) -> Decomposition:
        """Transport a binary decomposition to the ambient space."""
        if self.span is None:
            return dec
        u, v = self.span
        n = len(u)
        terms = []
        for t in dec.terms:
            a, b = t.point.coords
            terms.append(term_from_vector(t.coeff, self.push_vector(a, b), dec.degree))
        return Decomposition(n, dec.degree, tuple(terms), dict(dec.provenance))


# -- kernels for both backends ----------------------------------------------


def initial_degree_any(f: Form) -> int:
    """Initial degree of a binary form's apolar ideal, on either backend.

    Exact input goes through `apolar_initial_degree`; float input takes the
    first catalecticant whose numeric rank leaves a kernel.
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


def _roots_of_kernel_form(g: Form) -> list[ProjectivePoint] | None:
    """Projective roots of a kernel member, or None on repeated roots."""
    if g.is_exact:
        drop = exact_degree_drop(g.coeffs)
        if not is_squarefree_binary(g.coeffs, g.degree):
            return None
        pairs = binary_form_roots(g.coeffs, exact_degree_drop=drop)
    else:
        pairs = binary_form_roots(g.coeffs)
    pts = [ProjectivePoint(p) for p in pairs]
    if len(pts) != g.degree or not distinct_points(pts, SEPARATION_TOL):
        return None
    return pts


def _exact_points_if_rational(g: Form) -> list[ProjectivePoint] | None:
    """All roots as exact points when g splits over the rationals."""
    if not g.is_exact:
        return None
    drop = exact_degree_drop(g.coeffs)
    if drop > 1:
        return None
    roots = rational_roots(g.coeffs)
    if len(roots) + drop != g.degree:
        return None
    pts = [ProjectivePoint((Fraction(1), r)) for r in roots]
    if drop:
        pts.append(ProjectivePoint((Fraction(0), Fraction(1))))
    return pts


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
    dec = Decomposition(2, f.degree, terms, provenance)
    return dec


# -- decompositions ---------------------------------------------------------


def decompose_binary(f: Form, seed: int = 0, tol: float = RESIDUAL_TOL) -> Decomposition:
    """A power sum for f of minimal length (the Waring rank).

    Exact input gives exact scalars whenever the relevant apolar roots
    are rational; otherwise points and weights are floats verified
    against `tol`.  Float input is accepted for internal pipelines.
    """
    _require_binary(f)
    d = f.degree
    b = initial_degree_any(f)
    kernel = _kernel_any(f, b)
    provenance = {"route": "apolar-roots", "initial_degree": b}
    if len(kernel) == 1:
        pts = _try_exact_then_float_points(kernel[0])
        if pts is not None:
            return _finish_root_route(f, pts, provenance, tol)
        # repeated roots: rank jumps to d + 2 - b
        return _sample_ideal_decomposition(f, d + 2 - b, None, seed, tol,
                                           retries=64,
                                           provenance={"route": "kernel-sampling",
                                                       "initial_degree": b})
    # a pencil (2b = d + 2): generic members are squarefree
    rng = random.Random(seed)
    for attempt in range(64):
        height = 9 << (attempt // 8)
        combo = random_combination(rng, kernel, height)
        if combo is None:
            continue
        pts = _try_exact_then_float_points(combo)
        if pts is None:
            continue
        try:
            return _finish_root_route(f, pts, {**provenance,
                                               "route": "apolar-pencil",
                                               "attempt": attempt}, tol)
        except RootFindingError:
            continue
    raise RetryExhausted("no squarefree member found in the apolar pencil",
                         diagnostics={"attempts": 64, "initial_degree": b})


def _try_exact_then_float_points(g: Form):
    pts = _exact_points_if_rational(g)
    if pts is not None:
        return pts
    return _roots_of_kernel_form(g)


def _finish_root_route(f, points, provenance, tol) -> Decomposition:
    weights = _solve_weights(f, points)
    if weights is None:
        raise RootFindingError("apolar root system was inconsistent")
    dec = _build(f, points, weights, provenance)
    res = dec.residual(f)
    if res > max(tol, RESIDUAL_TOL) * 1e4:
        raise RootFindingError(f"root-route decomposition residual {res:.2e}")
    dec.provenance["residual"] = res
    return dec


def _sample_ideal_decomposition(f, size, avoid, seed, tol, retries,
                                provenance) -> Decomposition:
    """Sample degree-`size` apolar members until one yields good points.

    Good means: squarefree with separated roots, all roots off the
    avoidance set, all weights comfortably nonzero, small residual.
    """
    d = f.degree
    basis = _kernel_any(f, size)
    if not basis:
        raise PreconditionError("apolar ideal is empty in the target degree")
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
    _require_binary(f)
    if avoid is not None and avoid.num_vars != 2:
        raise PreconditionError("avoidance set must be binary")
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
    Raises RetryExhausted when no admissible length fits under the cap,
    which callers treat as a resampling signal.
    """
    _require_binary(f)
    d = f.degree
    b = initial_degree_any(f)
    if 2 * b == d + 2:
        if b > max_size:
            raise RetryExhausted(
                f"rank {b} exceeds the per-piece cap {max_size}",
                diagnostics={"needed": b, "cap": max_size})
        return _sample_ideal_decomposition(
            f, b, avoid, seed, tol, retries,
            provenance={"route": "pencil-avoiding", "initial_degree": b})
    gens = _kernel_any(f, b)
    pts = _try_exact_then_float_points(gens[0]) if gens and b <= max_size else None
    if pts is not None and (avoid is None or not any(avoid.contains(p) for p in pts)):
        return _finish_root_route(f, pts, {"route": "kernel-roots-avoiding"}, tol)
    size = d + 2 - b
    if size > max_size:
        raise RetryExhausted(
            f"needs {size} points, cap is {max_size}",
            diagnostics={"needed": size, "cap": max_size})
    return _sample_ideal_decomposition(
        f, size, avoid, seed, tol, retries,
        provenance={"route": "kernel-sampling-avoiding", "initial_degree": b})


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
