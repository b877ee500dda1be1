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
d + 1.  It takes the distinct roots of the degree-b generator, or else
samples as `decompose_binary_avoiding` does for the open-rank length
d + 2 - b, with one sampler: pencil members of degree b when 2b = d + 2,
d + 1 integer points off the power point for a pure power (b = 1), and
degree-(d + 2 - b) members of the ideal otherwise.  Every failure raises
RetryExhausted.  A zero sampled weight is rejected, and so is one below
SMALL_COEFF_TOL of the largest, except where no weight can vanish: at
the pencil length b (a shorter sum would undercut the border rank b, so
a tiny weight is genuine; `random_form(2, 40, 1)` certifies with a ratio
of 9e-11) and for a pure power (a shorter sum would put l^d in the span
of d other distinct powers).

Binary data often lives on a line inside a bigger projective space.  The
embedding sending the monomial s^(d-j) t^j to U^(d-j) V^j (U, V the
linear forms of the line's spanning vectors) identifies binary forms
with the forms supported on that line; `embed_binary` (the substitution
of U and V) and `form_on_line` convert in the two directions and
`push_decomposition` carries a decomposition forward onto the line;
`decompose_on_line` runs the round trip for a form the line carries and
judges the pushed sum against it.  The columns U^(d-j) V^j come from
`line_embedding`, for many lines at once and with no `Form` built.  A
line is exact when both spanning vectors are, and float otherwise, read
through the complex views of both.  The columns of an exact line are
integer numerators over one denominator, and they become floats once, by
int division, which gives the bits of complex(Fraction), and only when a
float solve reads them.  Float columns follow the `Form` product loops
bit for bit (see `monomials`).  `solve_on_lines` solves a form against
the columns of its lines, exactly when the form and every line are exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .apolarity import (apolar_component, apolar_initial_degree, catalecticant,
                        numeric_catalecticant)
from .avoidance import AvoidanceSet
from .decomposition import (RESIDUAL_TOL, Decomposition, Term, require_float_range,
                            term_from_vector)
from .errors import (DegenerateSystemError, PreconditionError, Rejects, RootFindingError,
                     ZeroFormError)
from .forms import (Form, ProjectivePoint, complex_coords, distinct_points, is_exact_scalar,
                    normalized_point, power_of_linear, random_combination, same_point,
                    substitute)
from .linalg import SPAN_TOL, numeric_nullspace, numeric_rank, solve_columns
from .monomials import embedding_table, space_dim
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


# -- invariants -------------------------------------------------------------


def border_rank_binary(f: Form) -> int:
    """Initial degree of the apolar ideal (exact input only)."""
    _require_binary(f)
    return apolar_initial_degree(f)


def rank_binary(f: Form) -> int:
    """Waring rank by the squarefree dichotomy (exact input only)."""
    _require_binary(f)
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
    return f.degree + 2 - apolar_initial_degree(f)


# -- line embeddings --------------------------------------------------------


#: exact vectors ride in float64 when each numerator 1-norm, raised to the
#: degree, stays below this: every product and partial sum of their powers
#: and columns is then an integer that float64 holds exactly, in any order
_FLOAT64_EXACT = 2 ** 53


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise products of a and b, each (parts, rows, k): integers (one
    part), or complex numbers as (real, imag), whose product is written out
    in real arithmetic as Python writes it (numpy's own complex product may
    fuse a multiply and an add, and then differ in a last bit).  A complex
    product with a zero factor, which the `Form` loops skip, is +0.0 here
    even where the other factor overflowed (inf * 0 would give NaN), and
    adding +0.0 moves no bit of a sum that starts at +0.0."""
    if len(a) == 1:
        return a * b
    t = a[:, None] * b[None]  # every real product, each rounded once
    zero = ((a[0] == 0) & (a[1] == 0)) | ((b[0] == 0) & (b[1] == 0))
    return np.where(zero, 0.0, np.stack((t[0, 0] - t[1, 1], t[0, 1] + t[1, 0])))


def _cell_sums(p: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """The products p (parts, rows, k) added into `size` cells per row: from
    zero, one at a time in plan order (np.add.at is unbuffered)."""
    parts, rows = p.shape[:2]
    flat = (cells + size * np.arange(parts * rows)[:, None]).ravel()
    acc = np.zeros(parts * rows * size, dtype=p.dtype)
    np.add.at(acc, flat, p.ravel())
    return acc.reshape(parts, rows, size)


def _powers(w: np.ndarray, d: int) -> np.ndarray:
    """W^0, ..., W^d laid end to end for each row W of w (parts, rows, n),
    by the plan's power steps."""
    parts, rows, n = w.shape
    out = np.zeros((parts, rows, space_dim(n + 1, d)), dtype=w.dtype)  # degrees <= d
    out[0, :, 0] = 1
    start = 1
    for m in range(1, d + 1):
        cells, lefts, rights = embedding_table(n, m)[3]
        size = space_dim(n, m)
        products = _products(np.take(out, lefts, axis=2), np.take(w, rights, axis=2))
        out[:, :, start:start + size] = _cell_sums(products, cells, size)
        start += size
    return out


def _quotients(num: np.ndarray, den) -> np.ndarray:
    """num / den entrywise (integers) as int division rounds it, the bits of
    complex(Fraction(num, den)), and OverflowError past the float range:
    numpy divides where every denominator is a float64 exactly (IEEE
    division of exact operands rounds correctly too), Python otherwise."""
    den = np.asarray(den, dtype=object)
    if num.dtype != object and all(x.bit_length() < 1024 and int(float(x)) == x
                                   for x in set(den.flat)):
        return num / den.astype(float)
    return np.vectorize(lambda a, b: int(a) / b, otypes=[float])(num, den)


@np.errstate(over="ignore", invalid="ignore")  # as Python's float products overflow: silently
def line_embedding(spans, d: int) -> tuple[list | None, Callable[[], np.ndarray]]:
    """The images U^(d-j) V^j, j = 0..d, of the binary monomials on each line.

    `spans` lists the lines as pairs (u, v).  Returns (exact, floats):
    when every line is exact, entry i (d + 1) + j of `exact` is the image
    of s^(d-j) t^j on line i as (integer numerators, denominator), else
    `exact` is None; `floats()` builds the C-ordered complex
    N x len(spans) (d + 1) matrix of every image, column i (d + 1) + j for
    that one, and only then turns the exact columns into floats.

    Exact powers are integer numerators over den^m: in float64, with zero
    imaginary parts in the float vectors' batch, while `_FLOAT64_EXACT`
    holds for every exact vector, else Python ints.  Float columns run the
    loop plan of `embedding_table` in its order on the complex views of
    their vectors, with the complex product written out (see `_products`).
    An exact vector on a float line past the float range raises
    OverflowError, and so does `floats()` on an exact line past it.
    """
    n = len(spans[0][0])
    size, width = space_dim(n, d), d + 1
    vectors = [w for span in spans for w in span]
    exact = [all(map(is_exact_scalar, (*u, *v))) for u, v in spans]
    exact_lines = [i for i, e in enumerate(exact) if e]
    float_lines = [i for i, e in enumerate(exact) if not e]
    dens = [math.lcm(*(x.denominator for x in w)) if exact[k // 2] else None
            for k, w in enumerate(vectors)]
    rows = [[x.numerator * (den // x.denominator) for x in w] if den else complex_coords(w)
            for w, den in zip(vectors, dens)]
    # (at d = 0 the numerators themselves still enter the batch)
    big = any(den and sum(map(abs, r)) ** max(d, 1) >= _FLOAT64_EXACT
              for r, den in zip(rows, dens))
    powers = {}  # vector index -> its powers as (real, imag), or (Python ints,)
    batches = ([k for k, den in enumerate(dens) if not (big and den)],
               [k for k, den in enumerate(dens) if big and den])
    for batch, dtype in zip(batches, (complex, object)):
        if batch:
            w = np.array([rows[k] for k in batch], dtype=dtype)
            w = np.stack((w.real, w.imag)) if dtype is complex else w[None]
            powers.update(zip(batch, _powers(w, d).transpose(1, 0, 2)))

    cells, lefts, rights = embedding_table(n, d)[:3]

    def column_sums(lines, parts):  # (parts, lines, d + 1, N): 1 part for exact lines
        left, right = (np.stack([powers[2 * i + s][:parts] for i in lines], axis=1)
                       for s in (0, 1))
        products = _products(np.take(left, lefts, axis=2), np.take(right, rights, axis=2))
        return _cell_sums(products, cells, width * size).reshape(-1, len(lines), width, size)

    if exact_lines:
        ints = column_sums(exact_lines, 1)[0]
        col_dens = np.array([[dens[2 * i] ** (d - j) * dens[2 * i + 1] ** j for j in range(width)]
                             for i in exact_lines], dtype=object)
    columns = np.empty((len(spans), width, size), dtype=complex)
    if float_lines:
        columns.real[float_lines], columns.imag[float_lines] = column_sums(float_lines, 2)

    def floats() -> np.ndarray:
        if exact_lines:
            columns[exact_lines] = _quotients(ints, col_dens[..., None])
        return np.ascontiguousarray(columns.transpose(2, 0, 1).reshape(size, -1))

    if float_lines:
        return None, floats
    numerators = (ints if big else ints.astype(np.int64)).tolist()  # Python ints
    return [column for line in zip(numerators, col_dens.tolist()) for column in zip(*line)], floats


def solve_on_lines(f: Form, spans) -> tuple[list, float, int] | None:
    """`solve_columns` of f against the line embeddings of `spans`: exact when
    f and every line are, else in complex floats (None where they overflow)."""
    try:
        exact, floats = line_embedding(spans, f.degree)
        if f.is_exact and exact is not None:
            return solve_columns([[Fraction(x, den) for x in num] for num, den in exact],
                                 f.coeffs, tol=SPAN_TOL)
        return solve_columns(floats(), f.floats(), tol=SPAN_TOL)
    except OverflowError:  # an exact value past the float range
        return None


def embed_binary(g: Form, u, v) -> Form:
    """Image of a binary form on the line spanned by u and v: the
    substitution s := U, t := V of the linear forms with coefficient
    vectors u and v, so (a s + b t)^d goes to (a U + b V)^d."""
    if g.num_vars != 2:
        raise PreconditionError("embed_binary wants a binary form")
    return substitute(g, (Form(len(u), 1, tuple(u)), Form(len(v), 1, tuple(v))))


def form_on_line(f: Form, u, v) -> Form | None:
    """Binary preimage of f under the line embedding, or None.

    Succeeds exactly when f lies in the span of powers of linear forms
    from the line through u and v.
    """
    solved = solve_on_lines(f, [(u, v)])
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


def decompose_on_line(f: Form, span, decompose, route: str, tol: float) -> Decomposition:
    """f decomposed on the line spanned by span = (u, v), pushed back by route.

    `decompose` takes f's binary preimage on the line to a decomposition.
    The push rounds float points, so the pushed sum is judged against f
    again.  Raises DegenerateSystemError when the line does not carry f and
    RetryExhausted when the pushed sum misses `tol`.
    """
    g = form_on_line(f, *span)
    if g is None:
        raise DegenerateSystemError("the line does not carry the form")
    pushed = push_decomposition(decompose(g), span)
    pushed.provenance["route"] = route
    if not pushed.meets_tolerance(f, tol):
        rejects = Rejects("push", "residual")
        rejects.count("residual", pushed.provenance["residual"])
        raise rejects.exhausted("the decomposition pushed onto the line misses tol")
    return pushed


# -- kernels for both backends ----------------------------------------------


def initial_degree_any(f: Form) -> int:
    """Initial degree of a binary form's apolar ideal, on either backend.

    Exact input goes through `apolar_initial_degree` (the middle
    catalecticant rank); float input takes the first catalecticant whose
    numeric rank leaves a kernel, since a numeric rank cut at the middle
    need not agree with that scan.  Past the middle (e >= 2, 2e > d) Cat(e)
    has d - e + 1 < e + 1 columns, so it leaves a kernel without an SVD;
    Cat(1) has read every coefficient by then, so a NaN raises there.
    """
    if f.is_exact:
        return apolar_initial_degree(f)
    d = f.degree
    for e in range(1, d + 1):
        if e >= 2 and 2 * e > d:
            return e
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
    repeated roots or when the root iteration fails to converge.  The roots
    come as (1, r) or (0, 1), on one backend and nonzero, so each point is
    `normalized_point` of its pair."""
    drop = exact_degree_drop(g.coeffs) if g.is_exact else None
    if g.is_exact and drop <= 1:
        roots = rational_roots(g.coeffs)
        if len(roots) + drop == g.degree:
            pts = [normalized_point((Fraction(1), r), True)[0] for r in roots]
            return pts + [ProjectivePoint((Fraction(0), Fraction(1)))] * drop
    if g.is_exact and not is_squarefree_binary(g.coeffs, g.degree):
        return None
    try:
        pairs = binary_form_roots(g.coeffs, exact_degree_drop=drop)
    except RootFindingError:
        return None
    pts = [normalized_point(p, False)[0] for p in pairs]
    if len(pts) != g.degree or not distinct_points(pts, SEPARATION_TOL):
        return None
    return pts


def _apolar_member_roots(rng, basis, height):
    """Distinct roots of a random member of `basis`, or None and why not."""
    combo = random_combination(rng, basis, height)
    if combo is None:
        return None, "zero_combo"
    return _try_exact_then_float_points(combo), "repeated_roots"


def _respread_points(f, power_point, avoid, rng, height):
    """d + 1 distinct integer points off the power point and off `avoid`,
    or None and why not when 200 (d + 1) draws do not find them."""
    d = f.degree
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
    return (chosen if len(chosen) == d + 1 else None), "few_points"


def _sample_decomposition(f, size, avoid, seed, tol, retries,
                          provenance) -> Decomposition:
    """Draw `size` points until one set yields an admissible decomposition.

    A pure power c l^d (size d + 1, d >= 1) is respread on any d + 1
    distinct points other than [l]; any other form takes the distinct
    roots of a random degree-`size` apolar member.  Admissible means: all
    points off the avoidance set, weights as the module docstring asks,
    and a residual within `tol`.
    """
    d = f.degree
    rng = random.Random(seed)
    pure_power = d >= 1 and size == d + 1
    rejects = Rejects("sample", "zero_combo", "repeated_roots", "few_points", "avoided",
                      "tiny_weight", "residual")
    if pure_power:
        c0, c1 = _kernel_any(f, 1)[0].coeffs
        draw = partial(_respread_points, f, ProjectivePoint((-c1, c0)), avoid, rng)
        provenance = {"route": "power-respread"}
    else:
        basis = _kernel_any(f, size)
        if not basis:
            raise rejects.exhausted("apolar ideal is empty in the target degree",
                                    target_size=size)
        draw = partial(_apolar_member_roots, rng, basis)
    reject_tiny = not pure_power and 2 * size != d + 2
    for attempt in range(retries):
        pts, why = draw(9 << (attempt // 8))
        if pts is None:
            rejects.count(why)
            continue
        # a respread draw is already off `avoid`, point by point
        if avoid is not None and not pure_power and any(avoid.contains(p) for p in pts):
            rejects.count("avoided")
            continue
        weights = _solve_weights(f, pts)
        if weights is None:
            rejects.count("residual")
            continue
        mags = [abs(complex(w)) for w in weights]
        if min(mags) == 0 or reject_tiny and min(mags) <= SMALL_COEFF_TOL * max(mags):
            rejects.count("tiny_weight")
            continue
        dec = _build(f, pts, weights, {**provenance, "attempt": attempt,
                                       "target_size": size})
        if dec.meets_tolerance(f, tol):
            return dec
        rejects.count("residual", dec.provenance["residual"])
    raise rejects.exhausted(f"no admissible {size}-point decomposition in {retries} attempts",
                            target_size=size)


def decompose_binary_avoiding(f: Form, avoid: AvoidanceSet | None = None,
                              seed: int = 0, tol: float = RESIDUAL_TOL,
                              retries: int = 64) -> Decomposition:
    """A power sum of length exactly d + 2 - b with all points off `avoid`.

    This is the open-rank length: it works for every proper closed subset.
    A power of a single linear form (b = 1) takes d + 1 respread points,
    none equal to the power point itself, as `decompose_binary_bounded`
    gives it when the power point is avoided.
    """
    _require_binary(f, avoid)
    require_float_range(f)
    b = initial_degree_any(f)
    return _sample_decomposition(
        f, f.degree + 2 - b, avoid, seed, tol, retries,
        provenance={"route": "kernel-sampling-avoiding", "initial_degree": b})


def decompose_binary_bounded(f: Form, avoid: AvoidanceSet | None,
                             max_size: int, seed: int = 0,
                             tol: float = RESIDUAL_TOL,
                             retries: int = 64) -> Decomposition:
    """Shortest admissible decomposition with points off `avoid`, capped.

    Prefers the rank-length route: pencil members are sampled with the
    avoidance filter built in, fixed kernel roots are used when they all
    clear the avoidance set, and otherwise the length grows to d + 2 - b,
    sampled as `decompose_binary_avoiding` samples it: an avoided pure
    power takes d + 1 respread points, exact for an exact form.  On a float
    form the length also grows when the roots' sum misses `tol`: near a
    repeated factor the float generator's roots miss, and b need not be
    the rank.  An exact form's roots are distinct, b is its rank, and a
    miss raises.  Every failure, a length over the cap included, raises
    RetryExhausted, which callers treat as a resampling signal;
    PreconditionError is left for a zero or non-binary form and a
    non-binary avoidance set.
    """
    _require_binary(f, avoid)
    require_float_range(f)
    d = f.degree
    b = initial_degree_any(f)
    rejects = Rejects("bounded", "inconsistent", "residual", "cap")
    if 2 * b == d + 2:
        size, route = b, "pencil-avoiding"
    else:
        gens = _kernel_any(f, b)
        pts = _try_exact_then_float_points(gens[0]) if gens and b <= max_size else None
        if pts is not None and (avoid is None or not any(avoid.contains(p) for p in pts)):
            weights = _solve_weights(f, pts)
            if weights is None:
                rejects.count("inconsistent")
                raise rejects.exhausted("apolar root system was inconsistent", target_size=b)
            dec = _build(f, pts, weights, {"route": "kernel-roots-avoiding",
                                           "initial_degree": b})
            if dec.meets_tolerance(f, tol):
                return dec
            res = dec.provenance["residual"]
            rejects.count("residual", res)
            if f.is_exact:  # distinct exact roots: b is the rank, a longer sum is not
                raise rejects.exhausted(f"root-route decomposition residual {res:.2e}",
                                        target_size=b)
            # a float generator near a repeated factor has roots that miss;
            # the sampled length below does not read them
        size, route = d + 2 - b, "kernel-sampling-avoiding"
    if size > max_size:
        rejects.count("cap")
        raise rejects.exhausted(f"needs {size} points, cap is {max_size}",
                                needed=size, cap=max_size)
    return _sample_decomposition(
        f, size, avoid, seed, tol, retries,
        provenance={"route": route, "initial_degree": b})
