"""Splitting ternary forms along systems of annihilating lines.

When a product of pairwise distinct linear duals annihilates f, the form
splits as a sum of pieces, one supported on each of the corresponding
lines.  Each piece is a binary form, so it can be decomposed by root
extraction and the points pushed back into the plane.  The solution set
of the splitting system is an affine space whose direction is spanned by
see-saw tuples supported on pairs of lines; sampling that space gives the
genericity the per-piece rank bounds need.

Full decompositions are provided for odd degree at least five.  The
splitting layer itself (`annihilates`, `annihilating_lines`,
`split_on_lines`) works in any degree and is reused by the quartic
pipeline; its entry is `SplitProblem.decompose_tuple`, the one tuple step
of every split route: decompose each piece on its line within a cap and
merge the pieces back into the plane.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from .apolarity import catalecticant, essential_subspace, essential_variables
from .binary import (decompose_binary, decompose_binary_bounded, form_on_line,
                     line_embedding, push_decomposition)
from .decomposition import RESIDUAL_TOL, Decomposition, term_from_vector
from .errors import (
    DegenerateSystemError,
    PreconditionError,
    RetryExhausted,
    ZeroFormError,
)
from .forms import (
    Form,
    ProjectivePoint,
    complex_coords,
    contract,
    distinct_points,
    evaluate,
    power_of_linear,
    random_combination,
    same_point,
)
from .linalg import SPAN_TOL, numeric_nullspace, solve_columns
from .plane import (
    UNIT_DUALS,
    as_dual_point,
    cross,
    factor_rank_two_quadric,
    plane_basis,
    quadric_matrix,
    quadric_rank_exact,
    quadric_rank_numeric,
    reduced_plane_basis,
    singular_members,
)

TUPLE_BUDGET = 256
LINE_BUDGET = 64
CONCURRENCY_TOL = 1e-8


def _dual_form(point: ProjectivePoint) -> Form:
    return Form(3, 1, point.coords)


def annihilates(duals, f: Form, tol: float = 1e-8) -> bool:
    """Whether the product of the linear duals, contracted into f, is zero.

    Exact on exact data; floats against tol * max(|product|, 1) * max(|f|, 1).
    """
    if not duals:
        return f.is_zero()
    product = duals[0]
    for ell in duals[1:]:
        product = product * ell
    h = contract(product, f)
    if product.is_exact and f.is_exact:
        return h.is_zero()
    scale = max(product.max_abs(), 1.0) * max(f.max_abs(), 1.0)
    return h.max_abs() <= tol * scale


# -- line systems ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LineSystem:
    """Pairwise distinct lines in the plane, given by their linear duals."""

    lines: tuple[Form, ...]

    def __post_init__(self):
        for ell in self.lines:
            if ell.num_vars != 3 or ell.degree != 1:
                raise PreconditionError("line systems take ternary linear duals")
            if ell.is_zero():
                raise ZeroFormError("zero dual cannot define a line")
        pts = [ProjectivePoint(ell.coeffs) for ell in self.lines]
        if not distinct_points(pts):
            raise PreconditionError("lines of a system must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.lines) - 1

    @property
    def is_exact(self) -> bool:
        return all(ell.is_exact for ell in self.lines)

    def span(self, i: int) -> tuple[tuple, tuple]:
        """Basis of the line cut out by the i-th dual.

        Exact duals keep the exact pivot basis; float duals get an
        orthonormal basis so the embedding of the line stays
        well-conditioned (high powers amplify any skew badly).
        """
        ell = self.lines[i]
        if ell.is_exact:
            return plane_basis(ell.coeffs)
        row = np.array([[complex(c) for c in ell.coeffs]])
        basis = numeric_nullspace(row / np.abs(row).max())
        return tuple(basis[0]), tuple(basis[1])

    def intersection(self, i: int, j: int) -> tuple:
        """The common point of lines i and j: exact when both lines are,
        else from their complex views (the bits mixed arithmetic gives)."""
        a, b = self.lines[i], self.lines[j]
        if not (a.is_exact and b.is_exact):
            a, b = a.to_float(), b.to_float()
        return cross(a.coeffs, b.coeffs)

    def annihilates(self, f: Form, tol: float = 1e-8) -> bool:
        return annihilates(self.lines, f, tol)

    def in_general_position(self) -> bool:
        """No three of the lines meet in a common point.

        The triples a < b < c run in `combinations` order, and the point of
        lines a and b is taken once, before line c runs over the rest.
        """
        exact, m = self.is_exact, len(self.lines)
        for a, b in combinations(range(m - 1), 2):
            u = self.intersection(a, b)  # exact when the system is
            top = None if exact else max(abs(complex(x)) for x in u)
            for ell in self.lines[b + 1:]:
                val = evaluate(ell, u)
                if exact:
                    if val == 0:
                        return False
                elif abs(complex(val)) <= CONCURRENCY_TOL * (top * max(1.0, ell.max_abs())):
                    return False
        return True


# -- reducible members of apolar nets ---------------------------------------


@dataclass(frozen=True)
class KernelPair:
    """Two linear duals whose product annihilates the target form.

    `from_sigma` marks the degenerate outcome where a pair taken from the
    forbidden locus already annihilates; callers switch strategy on it.
    """

    first: Form
    second: Form
    from_sigma: bool = False


def _square_root_line(q: Form) -> Form | None:
    """The repeated linear factor of a rank-one quadric."""
    m = quadric_matrix(q)
    for row in m:
        if any(x != 0 for x in row):
            return Form(3, 1, tuple(row))
    return None


def _pair_ok(l1: Form, l2: Form, forbidden: list[ProjectivePoint]) -> bool:
    p1 = ProjectivePoint(l1.coeffs)
    p2 = ProjectivePoint(l2.coeffs)
    if same_point(p1, p2):
        return False
    for s in forbidden:
        if same_point(p1, s) or same_point(p2, s):
            return False
    return True


def _split_reducible(q: Form, forbidden: list[ProjectivePoint],
                     squares: list[Form], factor: bool = True) -> tuple[Form, Form] | None:
    """Factor a singular quadric, stashing rank-one members for later;
    with `factor` false a rank-two member is only rank-checked."""
    rank = quadric_rank_exact(q) if q.is_exact else quadric_rank_numeric(q)
    if rank == 1:
        root = _square_root_line(q)
        if root is not None and all(
            not same_point(ProjectivePoint(root.coeffs), ProjectivePoint(s.coeffs))
            for s in squares
        ):
            squares.append(root)
        return None
    if rank != 2 or not factor:
        return None
    try:
        l1, l2 = factor_rank_two_quadric(q)
    except PreconditionError:
        return None
    if _pair_ok(l1, l2, forbidden):
        return l1, l2
    return None


def _square_difference_pair(squares: list[Form],
                            forbidden: list[ProjectivePoint]) -> tuple[Form, Form] | None:
    """Rational pair from two rank-one members: (v1 - mu v2)(v1 + mu v2)."""
    for v1, v2 in combinations(squares, 2):
        for mu in range(1, 13):
            l1 = v1 + v2.scale(Fraction(-mu))
            l2 = v1 + v2.scale(Fraction(mu))
            if not l1.is_zero() and not l2.is_zero() and _pair_ok(l1, l2, forbidden):
                return l1, l2
    return None


def reducible_member(basis: list[Form], forbidden: list[ProjectivePoint],
                     seed: int = 0, budget: int = LINE_BUDGET) -> tuple[Form, Form]:
    """A reducible quadric in the span of `basis`, split into its lines.

    Works down an exactness ladder: single basis members, then rational
    roots of determinant cubics along pencils, then float roots, and
    finally differences of squares built from rank-one members (which
    always factor rationally).  Only the first float pair is ever
    returned, so once one is held later float members are only
    rank-checked (a rank-one member still feeds the squares); exact
    members are always factored, so a later exact pair still wins.
    """
    if not basis:
        raise PreconditionError("empty net has no reducible member")
    if not all(q.is_exact for q in basis):
        raise PreconditionError("reducible member search needs exact quadrics")
    squares: list[Form] = []
    stats = {"members": 0, "pencils": 0, "squares": 0}
    rng = random.Random(seed)
    float_hit: tuple[Form, Form] | None = None

    def record(hit):
        nonlocal float_hit
        if hit is None:
            return None
        if hit[0].is_exact and hit[1].is_exact:
            return hit
        if float_hit is None:
            float_hit = hit
        return None

    for q in basis:
        stats["members"] += 1
        hit = record(_split_reducible(q, forbidden, squares))
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

    for qa, qb in pencil_stream():
        if stats["pencils"] >= budget:
            break
        stats["pencils"] += 1
        for t in singular_members(quadric_matrix(qa), quadric_matrix(qb)):
            stats["members"] += 1
            exact = isinstance(t, Fraction)
            if exact:
                member = qa + qb.scale(t)
            else:
                member = qa.to_float() + qb.to_float().scale(t)
            hit = record(_split_reducible(member, forbidden, squares,
                                          factor=exact or float_hit is None))
            if hit is not None:
                return hit
        # two rank-one members factor rationally without more pencil work
        if len(squares) >= 2:
            pair = _square_difference_pair(squares, forbidden)
            if pair is not None:
                stats["squares"] = len(squares)
                return pair
        if float_hit is not None and stats["pencils"] >= 8:
            break

    stats["squares"] = len(squares)
    pair = _square_difference_pair(squares, forbidden)
    if pair is not None:
        return pair
    if float_hit is not None:
        return float_hit
    raise RetryExhausted(
        "no admissible reducible member found in the net", diagnostics=stats)


def reducible_kernel_pair(g: Form, sigma=(), seed: int = 0,
                          budget: int = LINE_BUDGET) -> KernelPair:
    """Two distinct lines, off the forbidden locus, whose product kills g.

    g must be an exact ternary cubic.  Its quadratic annihilators form a
    net (dimension at least three), and a net of conics always contains a
    singular member; the search factors one.  If some pair taken from
    `sigma` itself already annihilates g, that pair comes back flagged
    `from_sigma` so the caller can branch.
    """
    if g.num_vars != 3 or g.degree != 3:
        raise PreconditionError("reducible_kernel_pair expects a ternary cubic")
    if not g.is_exact:
        raise PreconditionError("reducible_kernel_pair runs on the exact backend")
    if g.is_zero():
        raise ZeroFormError("the zero cubic is annihilated by everything")
    sigma_points = [as_dual_point(s) for s in sigma]
    for a, b in combinations_with_replacement(sigma_points, 2):
        if annihilates((_dual_form(a), _dual_form(b)), g):
            return KernelPair(_dual_form(a), _dual_form(b), from_sigma=True)
    net = list(catalecticant(g, 2).kernel)
    l1, l2 = reducible_member(net, sigma_points, seed=seed, budget=budget)
    if not annihilates((l1, l2), g):
        raise RetryExhausted("factored member failed the annihilation recheck",
                             diagnostics={"stage": "recheck"})
    return KernelPair(l1, l2, from_sigma=False)


# -- building annihilating systems -------------------------------------------


def _sample_lines(rng, count: int, height: int, sigma_points,
                  general: bool = False) -> list[Form]:
    """`count` distinct random lines off sigma; `general`: no three concurrent."""
    lines: list[Form] = []
    while len(lines) < count:
        ell = random_combination(rng, UNIT_DUALS, height)
        if ell is None:
            continue
        p = ProjectivePoint(ell.coeffs)
        if any(same_point(p, s) for s in sigma_points):
            continue
        if any(same_point(p, ProjectivePoint(x.coeffs)) for x in lines):
            continue
        if general and len(lines) >= 2 and \
                not LineSystem(tuple(lines + [ell])).in_general_position():
            continue
        lines.append(ell)
    return lines


def annihilating_lines(f: Form, sigma=(), seed: int = 0,
                       retries: int = LINE_BUDGET) -> LineSystem:
    """d - 1 distinct lines in general position whose product kills f.

    All but two of the lines are sampled at random subject to exact
    openness conditions (no residual contraction may die early); the last
    two come from factoring a singular member of the quadratic annihilator
    net of what remains.  Points of `sigma` are kept out of the system.
    """
    if f.num_vars != 3:
        raise PreconditionError("annihilating_lines expects a ternary form")
    d = f.degree
    if d < 3:
        raise PreconditionError("need degree at least three to build a system")
    sigma_points = [as_dual_point(s) for s in sigma]
    rng = random.Random(seed)
    if f.is_zero():
        return LineSystem(tuple(_sample_lines(rng, d - 1, 9, sigma_points, general=True)))
    if not f.is_exact:
        raise PreconditionError("annihilating_lines runs on the exact backend")
    for a, b in combinations_with_replacement(sigma_points, 2):
        if annihilates((_dual_form(a), _dual_form(b)), f):
            raise PreconditionError(
                "a pair from the forbidden locus already annihilates the form")

    rejects = {"zero_residual": 0, "pair_condition": 0, "kernel_pair": 0,
               "position": 0, "duplicate": 0}
    for attempt in range(retries):
        sampled = _sample_lines(rng, d - 3, 9 << (attempt // 16), sigma_points)
        if len(sampled) >= 3 and not LineSystem(tuple(sampled)).in_general_position():
            rejects["position"] += 1
            continue
        g = f
        for ell in sampled:
            g = contract(ell, g)  # a zero residual stays zero
        if g.is_zero():
            rejects["zero_residual"] += 1
            continue
        # a sampled or sigma pair that already kills g comes back flagged
        try:
            pair = reducible_kernel_pair(g, sigma=sampled + sigma_points,
                                         seed=seed + 7919 * attempt)
        except RetryExhausted:
            rejects["kernel_pair"] += 1
            continue
        if pair.from_sigma:
            rejects["pair_condition"] += 1
            continue
        try:
            system = LineSystem(tuple(sampled) + (pair.first, pair.second))
        except PreconditionError:
            rejects["duplicate"] += 1
            continue
        if len(system.lines) >= 3 and not system.in_general_position():
            rejects["position"] += 1
            continue
        if not system.annihilates(f):
            rejects["pair_condition"] += 1
            continue
        return system
    raise RetryExhausted(
        f"no annihilating system of {d - 1} lines in {retries} attempts",
        diagnostics={"rejects": rejects})


def minimize_annihilating(f: Form, system: LineSystem) -> LineSystem:
    """Drop lines one by one while the remaining product still kills f.

    A single left-to-right pass suffices: annihilation is monotone under
    adding lines, so anything kept against a superset stays necessary.
    """
    if f.is_zero():
        return LineSystem(())
    if not system.annihilates(f):
        raise PreconditionError("system does not annihilate the form")
    kept = list(system.lines)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if trial and annihilates(trial, f):
            kept = trial
        else:
            i += 1
    return LineSystem(tuple(kept))


# -- the splitting system -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Affine solution space of f = sum of forms supported on given lines.

    `particular` is one solution tuple (binary forms, one per line, in the
    coordinates of the line's span).  The direction space is spanned by
    see-saw generators: the d-th power of a pairwise intersection point,
    added on one line and subtracted on the other.
    """

    form: Form
    system: LineSystem
    particular: tuple[Form, ...]
    kernel: tuple[tuple[int, int, Form, Form], ...]
    spans: tuple[tuple[tuple, tuple], ...]
    solution_dim: int

    def pieces(self, coeffs) -> list[Form]:
        """The summand tuple at one choice of kernel coefficients."""
        if len(coeffs) != len(self.kernel):
            raise PreconditionError(
                f"expected {len(self.kernel)} kernel coefficients")
        out = list(self.particular)
        for c, (i, j, pow_i, pow_j) in zip(coeffs, self.kernel):
            if c:
                out[i] = out[i] + pow_i.scale(c)
                out[j] = out[j] - pow_j.scale(c)
        return out

    def merge(self, decs: dict, provenance: dict, tol: float,
              rejects: dict) -> Decomposition | None:
        """The piece decompositions `decs` (by line index), pushed to the plane.

        None on clashing points or on a sum that misses f, each counted in
        `rejects`; the provenance gains `lines` and `piece_sizes`.
        """
        terms = [t for i, dec in decs.items()
                 for t in push_decomposition(dec, self.spans[i]).terms]
        if not distinct_points([t.point for t in terms]):
            rejects["clash"] += 1
            return None
        merged = Decomposition(3, self.form.degree, tuple(terms), {
            **provenance,
            "lines": [tuple(map(str, ell.coeffs)) for ell in self.system.lines],
            "piece_sizes": [decs[i].size if i in decs else 0
                            for i in range(len(self.spans))],
        })
        if not merged.meets_tolerance(self.form, tol):
            rejects["residual"] += 1
            return None
        return merged

    def decompose_tuple(self, coeffs, caps, avoids, seed: int, tol: float,
                        rejects: dict, provenance: dict,
                        done: dict | None = None) -> Decomposition | None:
        """The tuple step: the pieces at `coeffs`, decomposed and merged.

        Piece i gets at most `caps[i]` points off `avoids[i]` (None avoids
        nothing) from `decompose_binary_bounded` at seed `seed + i`; zero
        pieces and those already decomposed in `done` (by line index) are
        skipped.  None when a piece fails (counted as `piece_fail`) or the
        merge rejects the sum (`clash`, `residual`).
        """
        decs = dict(done or {})
        for i, piece in enumerate(self.pieces(coeffs)):
            if i in decs or piece.is_zero():
                continue
            try:
                decs[i] = decompose_binary_bounded(piece, avoids[i], caps[i],
                                                   seed=seed + i, tol=tol)
            except RetryExhausted:
                rejects["piece_fail"] += 1
                return None
        return self.merge(decs, provenance, tol, rejects)


def _line_coordinates(u_ij, span):
    """Coordinates of an intersection point in a line's own basis."""
    solved = solve_columns(span, u_ij, tol=SPAN_TOL)
    if solved is None:
        raise DegenerateSystemError("intersection point escaped its line")
    return tuple(solved[0])


def split_on_lines(f: Form, system: LineSystem) -> SplitProblem:
    """Solve f = sum of line-supported pieces for an annihilating system.

    Requires at least two lines and verifies both the annihilation
    hypothesis and the expected solution-space dimension (one see-saw
    generator per pair of lines); a dimension mismatch means the system
    is degenerate and should be resampled.
    """
    if f.num_vars != 3:
        raise PreconditionError("split_on_lines expects a ternary form")
    if f.is_zero():
        raise ZeroFormError("splitting the zero form is vacuous")
    if len(system.lines) < 2:
        raise PreconditionError("need at least two lines to split")
    if not system.annihilates(f):
        raise PreconditionError("system does not annihilate the form")
    d = f.degree
    k = system.k
    spans = tuple(system.span(i) for i in range(k + 1))
    exact = f.is_exact and system.is_exact

    # the equilibrated solve keeps the rank count from being thrown off by
    # the very different magnitudes of high powers of the span vectors; the
    # float solves read the complex views that exact forms keep
    columns = [col.coeffs if exact else col.to_float().coeffs
               for u, v in spans for col in line_embedding(u, v, d)]
    solved = solve_columns(columns, f.coeffs if exact else f.to_float().coeffs, tol=SPAN_TOL)
    if solved is None:
        raise DegenerateSystemError("annihilating system failed to split the form")
    sol, _, rank = solved

    expected = math.comb(k + 1, 2)
    got = (k + 1) * (d + 1) - rank
    if got != expected:
        raise DegenerateSystemError(
            f"solution space has dimension {got}, expected {expected}")

    particular = tuple(
        Form(2, d, tuple(sol[i * (d + 1):(i + 1) * (d + 1)]))
        for i in range(k + 1)
    )
    # scale each see-saw generator to the size of the particular solution,
    # via an exact dyadic factor, so integer kernel coefficients perturb
    # the pieces instead of drowning them
    ref = max(max(p.max_abs() for p in particular), 1e-30)
    # keep the generators on the particular solution's backend even where
    # two exact lines meet: mixing them would convert every Fraction again
    # on each sampled tuple; exact spans and points are converted once here
    bases = spans if exact else [tuple(map(complex_coords, span)) for span in spans]
    gens = []
    for i, j in combinations(range(k + 1), 2):
        u_ij = system.intersection(i, j)
        if not exact:
            u_ij = complex_coords(u_ij)
        ci = _line_coordinates(u_ij, bases[i])
        cj = _line_coordinates(u_ij, bases[j])
        pow_i = power_of_linear(ci, d)
        pow_j = power_of_linear(cj, d)
        gnorm = max(pow_i.max_abs(), pow_j.max_abs())
        shift = round(math.log2(gnorm / ref)) if gnorm > 0 else 0
        gamma = Fraction(1, 1 << shift) if shift >= 0 else Fraction(1 << -shift)
        if not exact:  # a power of two: float(gamma) has the bits of complex(gamma)
            gamma = float(gamma)
        gens.append((i, j, pow_i.scale(gamma), pow_j.scale(gamma)))
    return SplitProblem(
        form=f, system=system, particular=particular, kernel=tuple(gens),
        spans=spans, solution_dim=got)


# -- full decompositions in odd degree ---------------------------------------


def single_power(f: Form) -> Decomposition:
    """The one-term decomposition of a form in one essential variable."""
    w = essential_subspace(f)[0]
    p = power_of_linear(w, f.degree)
    idx = next(i for i, c in enumerate(p.coeffs) if c != 0)
    c = Fraction(f.coeffs[idx]) / p.coeffs[idx]
    if p.scale(c).coeffs != f.coeffs:
        raise PreconditionError("form is not a single power despite its rank")
    term = term_from_vector(c, w, f.degree)
    return Decomposition(3, f.degree, (term,), {"route": "single-power"})


def _binary_on_subspace(f: Form, seed: int, tol: float) -> Decomposition:
    u, v = reduced_plane_basis(*essential_subspace(f))
    g = form_on_line(f, u, v)
    if g is None:
        raise DegenerateSystemError("essential plane does not carry the form")
    dec = decompose_binary(g, seed=seed, tol=tol)
    pushed = push_decomposition(dec, (tuple(u), tuple(v)))
    pushed.provenance.update({"route": "binary-subspace"})
    # the push rounds float points, so the pushed sum is judged against f again
    if not pushed.meets_tolerance(f, tol):
        raise RetryExhausted("the decomposition pushed onto the plane misses tol",
                             diagnostics={"best_residual": pushed.provenance["residual"]})
    return pushed


def decompose_ternary_odd(f: Form, seed: int = 0, tol: float = RESIDUAL_TOL,
                          retries: int = TUPLE_BUDGET) -> Decomposition:
    """Power sum for an exact ternary form of odd degree at least five.

    Splits f along d - 1 annihilating lines (fewer after minimization),
    then samples the solution space until every nonzero piece decomposes
    within the per-line cap max(d + 1 - k, (d + 1) / 2).  The total never
    exceeds (d^2 - 1) / 2, because (k + 1) times the cap does not for any
    1 <= k <= d - 2.  Forms in fewer essential variables take the direct
    single-power or binary route instead.
    """
    if f.num_vars != 3:
        raise PreconditionError("decompose_ternary_odd expects a ternary form")
    if not f.is_exact:
        raise PreconditionError("decompose_ternary_odd runs on the exact backend")
    if f.is_zero():
        raise ZeroFormError("cannot decompose the zero form")
    d = f.degree
    if d % 2 == 0 or d < 5:
        raise PreconditionError(
            "supported degrees are odd and at least five; "
            "use the quartic pipeline for degree four")
    ess = essential_variables(f)
    if ess == 1:
        return single_power(f)
    if ess == 2:
        return _binary_on_subspace(f, seed, tol)

    best: dict | None = None
    outer_budget = 4
    for sys_attempt in range(outer_budget):
        try:
            system = annihilating_lines(f, seed=seed + 101 * sys_attempt)
            system = minimize_annihilating(f, system)
        except RetryExhausted as err:
            best = best or {"stage": "lines", **err.diagnostics}
            continue
        k = system.k
        if k < 1:
            raise DegenerateSystemError(
                "single annihilating line on a three-variable form")
        try:
            split = split_on_lines(f, system)
        except DegenerateSystemError as err:
            best = best or {"stage": "split", "detail": str(err)}
            continue
        cap = max(d + 1 - k, (d + 1) // 2)
        caps, avoids = (cap,) * (k + 1), (None,) * (k + 1)
        rng = random.Random(seed + 977 * sys_attempt + 13)
        rejects = {"piece_fail": 0, "clash": 0, "residual": 0}
        for t in range(retries):
            height = 9 << (t // 32)
            if t == 0:
                coeffs = [0] * len(split.kernel)
            else:
                coeffs = [Fraction(rng.randint(-height, height))
                          for _ in split.kernel]
            provenance = {"route": "odd-line-split", "k": k, "cap": cap,
                          "tuple_attempt": t, "seed": seed}
            merged = split.decompose_tuple(coeffs, caps, avoids, seed + 31 * t, tol,
                                           rejects, provenance)
            if merged is not None:
                return merged
        best = {"stage": "tuples", "rejects": rejects, "k": k, "cap": cap}
    raise RetryExhausted(
        f"no admissible split decomposition after {outer_budget} line systems",
        diagnostics=best or {})


# -- upper bound from moving hypersurfaces ------------------------------------


def bound_B1(n: int, d: int) -> int:
    """General upper bound for the length needed to avoid any closed set.

    Valid for n >= 3 variables and degree d >= 4; binomials with an
    undersized top argument contribute zero.
    """
    if n < 3 or d < 4:
        raise PreconditionError("bound_B1 needs n >= 3 and d >= 4")

    def c(a: int, b: int) -> int:
        return math.comb(a, b) if 0 <= b <= a else 0

    return c(n + d - 2, d - 1) - c(n + d - 7, d - 4) - c(n + d - 6, d - 3)
